"""Child processes of the benchmark: set-up timing and the traced replay.

``replay.py setup --edges CSV``
    Imports ``lricnet`` and builds the netted network (read, ingest, net),
    then exits.  The parent times it from spawn to exit.

``replay.py trace --workload NAME --edges CSV --report FILE --spans FILE``
    Replays ``lric-net compute`` for the workload through the public function
    of each module, with a span around every call, and writes the report
    bytes the CLI would print to FILE.  Spans are kept in memory and written,
    together with the work counters, when the replay ends.  Counting is done
    after the last span closes, so it costs no traced time.

Span times are ``CLOCK_MONOTONIC`` nanoseconds, a clock the parent shares,
so it can place the spans against the moment it spawned this process.  The
import of ``lricnet`` precedes the first span and so counts as unaccounted.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import lricnet
import numpy as np
from lricnet.cli import METHOD_ORDER, emit_report, parse_policy
from lricnet.paths import PATH_METHODS
from workloads import WORKLOADS, Workload

DEGREES = ("in-degree", "out-degree", "degree-difference", "degree")


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans (name, start, end, parent, run id) held in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": now_ns(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = now_ns()

    def call(self, name: str, func, *args):
        with self.span(name):
            return func(*args)


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _matrix_csv(nodes, values) -> bytes:
    """The ``--emit-matrices`` CSV layout the README documents."""
    lines = ["node," + ",".join(nodes)]
    for i, node in enumerate(nodes):
        cells = ",".join(f"{values[i, j]:.6f}" for j in range(len(nodes)))
        lines.append(f"{node},{cells}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _geodesic_pairs(net) -> int:
    """Ordered pairs (s, t) whose fewest-hop distance is two or more."""
    succ: dict[str, list[str]] = {}
    for a, b in net.edges:
        succ.setdefault(a, []).append(b)
    count = 0
    for source in net.nodes:
        level = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in succ.get(u, []):
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        count += sum(1 for hops in level.values() if hops >= 2)
    return count


def replay(workload: Workload, edges: str, tracer: Tracer) -> tuple[bytes, dict]:
    """Run the workload's compute pipeline; return the report bytes and the
    objects the work counters are taken from."""
    with tracer.span("replay"):
        records = tracer.call("network.read", lricnet.read_edges_csv, edges)
        ingested = tracer.call("network.ingest", lricnet.ingest_edges, records)
        net = tracer.call("network.net", lricnet.net_mutual_exposures, ingested)
        names = list(workload.methods or METHOD_ORDER)
        policy = parse_policy(workload.flag("--q"))
        schema = lricnet.GRADE_SCHEMAS["five-level"]
        s = int(workload.flag("--s")) if workload.flag("--s") else None
        emit_matrices = "--emit-matrices" in workload.flags
        path_methods = [m for m in names if m in PATH_METHODS]
        found: dict = {"net": net}

        if "kbi" in names or path_methods:
            with tracer.span("groups.enumerate"):
                found["groups"] = [
                    group
                    for lender in net.nodes
                    for group in lricnet.critical_groups(net, lender, policy)
                ]
        if path_methods:
            found["influence"] = tracer.call(
                "paths.influence_matrix", lricnet.influence_matrix, net, policy
            )
            found["s"] = s
        if "sim" in names:
            tracer.call("simulation.share_matrix", lricnet.share_matrix, net, policy)

        results = {}
        for name in names:
            matrix = None
            if name in DEGREES:
                measures = tracer.call("centrality.degree", lricnet.degree_measures, net)
                scores = measures[DEGREES.index(name)]
            elif name in ("closeness-in", "closeness-out"):
                scores = tracer.call(
                    "centrality.closeness", lricnet.closeness, net, name.split("-")[1]
                )
            elif name == "betweenness":
                scores = tracer.call("centrality.betweenness", lricnet.betweenness, net)
            elif name == "eigenvector":
                scores = tracer.call("centrality.eigenvector", lricnet.eigenvector, net)
            elif name == "pagerank":
                scores = tracer.call("centrality.pagerank", lricnet.pagerank, net)
            elif name == "kbi":
                scores = tracer.call("kbi.kbi", lricnet.kbi, net, policy)
                if emit_matrices:
                    with tracer.span("kbi.matrix"):
                        matrix = _kbi_matrix(net, policy)
            elif name in path_methods:
                paths = tracer.call(
                    f"paths.{name}", lricnet.lric_paths_matrix, net, policy, name, s, schema
                )
                scores = tracer.call("paths.vector", lricnet.weighted_vector, net, paths)
                matrix = (paths.nodes, paths.values) if emit_matrices else None
            elif name == "sim":
                plan = _simulation_plan(workload)
                rss_before, peak_before = _rss_bytes(), _peak_rss_bytes()
                simulated = tracer.call("simulation.simulate", lricnet.simulate, net, policy, plan, s)
                peak_after = _peak_rss_bytes()
                highest = peak_after if peak_after > peak_before else _rss_bytes()
                found["rss_growth"] = max(0, highest - rss_before)
                found["plan"] = plan
                scores = tracer.call(
                    "simulation.vector", lricnet.vector_from_simulation, net, simulated
                )
                matrix = (simulated.nodes, simulated.values) if emit_matrices else None
            else:
                raise ValueError(f"replay does not know method {name!r}")
            results[name] = (scores, matrix)

        chunks: list[bytes] = []
        for pos, name in enumerate(names):
            scores, matrix = results[name]
            tracer.call("ranking.rank", lricnet.rank, scores)
            with tracer.span("cli.emit"):
                chunks.append((("\n" if pos else "") + f"# {name}\n").encode("utf-8"))
                chunks.append(emit_report(scores, "csv"))
                if matrix is not None:
                    chunks.append(f"# {name} matrix\n".encode("utf-8"))
                    chunks.append(_matrix_csv(*matrix))
    return b"".join(chunks), found


def _kbi_matrix(net, policy):
    """The matrix ``compute --emit-matrices`` prints for ``kbi``: row L holds
    ``kbi_for_lender(L)`` for every lender with outgoing exposure."""
    index = {v: k for k, v in enumerate(net.nodes)}
    values = np.zeros((len(net.nodes), len(net.nodes)))
    for lender in net.nodes:
        if lricnet.out_strength(net, lender) == 0:
            continue
        for borrower, share in lricnet.kbi_for_lender(net, lender, policy).items():
            values[index[lender], index[borrower]] = share
    return net.nodes, values


def _simulation_plan(workload: Workload):
    """The plan ``compute`` builds from the workload's flags; absent flags
    keep the plan's defaults, which equal the CLI's."""
    options = {"mode": workload.flag("--sim-mode")}
    for flag, key in (("--runs", "runs"), ("--k0-max", "k0_max"), ("--seed", "seed")):
        if workload.flag(flag) is not None:
            options[key] = int(workload.flag(flag))
    return lricnet.SimulationPlan(**options)


def counters(found: dict) -> dict[str, float]:
    """Work counters of one replay; they depend on the input only."""
    net = found["net"]
    out = {
        "network.edges": len(net.edges),
        "groups.groups": 0,
        "groups.pivotal_ratio": 0.0,
        "groups.max_borrowers": max(len(net.borrowers_of(v)) for v in net.nodes),
        "paths.chains": 0,
        "simulation.seed_sets": 0,
        "centrality.geodesic_pairs": _geodesic_pairs(net),
    }
    groups = found.get("groups")
    if groups:
        out["groups.groups"] = len(groups)
        out["groups.pivotal_ratio"] = sum(1 for g in groups if g.pivotal) / len(groups)
    c = found.get("influence")
    if c is not None:
        limit = len(c.nodes) - 1 if found["s"] is None else found["s"]
        out["paths.chains"] = sum(
            len(lricnet.simple_paths(c, source, target, limit))
            for source in c.nodes
            for target in c.nodes
            if source != target
        )
    plan = found.get("plan")
    if plan is not None:
        if plan.mode == "exhaustive":
            n = len(net.nodes)
            out["simulation.seed_sets"] = sum(
                math.comb(n, k) for k in range(1, min(plan.k0_max, n) + 1)
            )
        else:
            out["simulation.seed_sets"] = plan.runs
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "trace"])
    parser.add_argument("--edges", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--report")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        lricnet.net_mutual_exposures(lricnet.ingest_edges(lricnet.read_edges_csv(args.edges)))
        return 0
    tracer = Tracer(args.run_id)
    report, found = replay(WORKLOADS[args.workload], args.edges, tracer)
    Path(args.report).write_bytes(report)
    doc = {
        "spans": tracer.spans,
        "counters": counters(found),
        "rss_growth_bytes": found.get("rss_growth", 0),
    }
    Path(args.spans).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""End-to-end and per-layer benchmark of ``lric-net compute``.

Run from the root of a source checkout (``src/lricnet`` must exist)::

    python3 perfbench/run.py --workload all-methods --seed 3 --seconds 55 --trace 0

``--trace 0`` measures what a user sees.  It runs ``compute`` as a child
process in a closed loop with one client, one process at a time, for
``--seconds`` (and at least ``MIN_SAMPLES`` runs), and reports the medians of
its wall time and peak RSS.  Set-up (importing ``lricnet`` and building the
netted network in a fresh process) is timed before every run as well.

``--trace 1`` alternates one untraced ``compute`` run with one traced replay
(``replay.py``) until ``--seconds`` have passed, at least ``MIN_PAIRS``
times.  It reports the median per-layer self times and the work counters.
The traced wall time runs from spawning the replay to the end of its last
span.  ``cli.unaccounted_s`` is that time minus all layer spans (interpreter
start, imports, glue).  ``trace.overhead_s`` is that time minus the paired
untraced wall time; besides the spans it includes the calls the replay adds
to time a layer on its own: ``critical_groups`` over every lender,
``influence_matrix``, ``share_matrix`` and ``rank``.

Every ``compute`` output is checked against the SHA-256 digests that
``digests.json`` records for each report and matrix section of the input
variant.  A run fails on a non-zero exit, a timeout, or a digest mismatch.
``attempted`` and ``failed`` in the result line give the error rate.  A
traced replay must also print the same bytes as the CLI, and its work
counters must repeat exactly.

Per-layer times of a layer the workload does not run read 0.  Every metric
is printed with its unit.  The last line of standard output
is the result as JSON.  The whole result, with machine facts and (traced)
every span, is also written to ``.perfbench-out/``.

After a documented correctness fix, re-record the digests::

    python3 perfbench/run.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import VARIANTS, WORKLOADS, Workload, edges_csv, variant_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"

CLI = "import sys; from lricnet.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_REPEATS = 5
MIN_SAMPLES = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 40.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Span names of the traced replay; each becomes the metric "<name>_s", the
# summed self time of its spans.
LAYER_SPANS = (
    "network.read", "network.ingest", "network.net",
    "groups.enumerate",
    "kbi.kbi", "kbi.matrix",
    "paths.influence_matrix", "paths.sumpaths", "paths.maxpath", "paths.maxmin",
    "paths.multt", "paths.maxt",
    "simulation.share_matrix", "simulation.simulate",
    "centrality.degree", "centrality.closeness", "centrality.betweenness",
    "centrality.eigenvector", "centrality.pagerank",
    "ranking.rank", "cli.emit",
)
PATH_SPANS = ("paths.sumpaths", "paths.maxpath", "paths.maxmin", "paths.multt", "paths.maxt")
COUNTERS = {
    "network.edges": "count",
    "groups.groups": "count",
    "groups.pivotal_ratio": "ratio",
    "groups.max_borrowers": "count",
    "paths.chains": "count",
    "simulation.seed_sets": "count",
    "centrality.geodesic_pairs": "count",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "paths.fold_s": "s",
    "simulation.seed_sets_per_s": "1/s",
    "simulation.rss_growth_mb": "MB",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
    **COUNTERS,
}


@dataclass
class Child:
    returncode: int
    timed_out: bool
    spawn_ns: int
    wall_s: float
    maxrss_bytes: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources on the path.

    Bytecode is cached under the output directory, as an installed package
    has it, whatever the caller's ``PYTHONDONTWRITEBYTECODE`` says; output is
    buffered as on a terminal-less run.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_child(argv: list[str], scratch: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; time it from spawn to exit and read its
    own peak RSS from ``wait4``."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=scratch)
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        timed_out=expired.is_set(),
        spawn_ns=spawn_ns,
        wall_s=wall,
        maxrss_bytes=usage.ru_maxrss * 1024,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def section_digests(report: bytes) -> dict[str, str]:
    """SHA-256 of each ``# <method>`` / ``# <method> matrix`` section; the
    sections partition the output, so every byte is covered."""
    sections: dict[str, list[bytes]] = {}
    name = ""
    for line in report.splitlines(keepends=True):
        if line.startswith(b"# "):
            name = line[2:].decode("utf-8").strip()
        sections.setdefault(name, []).append(line)
    return {k: hashlib.sha256(b"".join(v)).hexdigest() for k, v in sections.items()}


def cli_argv(workload: Workload, edges: Path) -> list[str]:
    return [sys.executable, "-c", CLI, "compute", "--edges", str(edges), *workload.flags]


def check_run(child: Child, expected: dict[str, str], errors: list[str], label: str) -> bool:
    if child.timed_out:
        errors.append(f"{label}: killed after {CHILD_TIMEOUT_S:.0f} s")
        return False
    if child.returncode != 0:
        tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        errors.append(f"{label}: exit {child.returncode} {tail}")
        return False
    got = section_digests(child.stdout)
    if got != expected:
        wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        errors.append(f"{label}: report digest mismatch in {wrong}")
        return False
    return True


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover, in seconds."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered, cursor = 0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            start, end = max(child["start"], cursor), min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"] - covered) / 1e9
    return result


def layer_metrics(doc: dict, spawn_ns: int, untraced_wall_s: float) -> dict[str, float]:
    spans = doc["spans"]
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + own[span["id"]]
    root = next(s for s in spans if s["parent"] is None)
    traced_wall = (root["end"] - spawn_ns) / 1e9
    metrics = {f"{name}_s": by_name.get(name, 0.0) for name in LAYER_SPANS}
    metrics["paths.fold_s"] = sum(
        by_name[name] - by_name["paths.influence_matrix"] for name in PATH_SPANS if name in by_name
    )
    simulate_s = by_name.get("simulation.simulate", 0.0)
    seed_sets = doc["counters"]["simulation.seed_sets"]
    metrics["simulation.seed_sets_per_s"] = seed_sets / simulate_s if simulate_s else 0.0
    metrics["simulation.rss_growth_mb"] = doc["rss_growth_bytes"] / 2**20
    layers = sum(t for name, t in by_name.items() if name != root["name"])
    metrics["cli.unaccounted_s"] = traced_wall - layers
    metrics["trace.overhead_s"] = traced_wall - untraced_wall_s
    metrics.update(doc["counters"])
    return metrics


def set_up(edges: Path, scratch: Path) -> Child:
    """Import lricnet and build the netted network in a fresh process."""
    child = run_child([sys.executable, str(HERE / "replay.py"), "setup", "--edges", str(edges)],
                      scratch)
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.decode('utf-8', 'replace')}")
    return child


def measure(workload: Workload, edges: Path, expected: dict, seconds: float, scratch: Path):
    """Untraced closed loop; returns (metrics, attempted, failed, errors, samples).

    One set-up is timed before every compute run, so that set-up samples
    span the same stretch of time as the runs, plus ``SETUP_REPEATS`` first.
    """
    errors: list[str] = []
    setups = [set_up(edges, scratch).wall_s for _ in range(SETUP_REPEATS)]
    ok_runs, attempted = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (len(ok_runs) < MIN_SAMPLES and not errors):
        setups.append(set_up(edges, scratch).wall_s)
        child = run_child(cli_argv(workload, edges), scratch)
        attempted += 1
        if check_run(child, expected, errors, f"run {attempted}"):
            ok_runs.append(child)
    runs = ok_runs or [child]
    metrics = {
        "wall_s": statistics.median(c.wall_s for c in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.maxrss_bytes for c in runs) / 2**20,
    }
    samples = {
        "wall_s": [c.wall_s for c in ok_runs],
        "setup_s": setups,
        "peak_rss_mb": [c.maxrss_bytes / 2**20 for c in ok_runs],
    }
    return metrics, attempted, attempted - len(ok_runs), errors, samples


def measure_traced(workload: Workload, edges: Path, expected: dict, seconds: float,
                   scratch: Path, run_tag: str):
    """Alternate untraced CLI runs with traced replays; returns (metrics,
    attempted, failed, errors, samples, spans)."""
    errors: list[str] = []
    per_pair: list[dict[str, float]] = []
    spans: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (len(per_pair) < MIN_PAIRS and not errors):
        pair = len(per_pair) + 1
        cli = run_child(cli_argv(workload, edges), scratch)
        attempted += 1
        if not check_run(cli, expected, errors, f"cli {pair}"):
            failed += 1
            continue
        run_id = f"{run_tag}-{pair}"
        report, spans_file = scratch / "replay.out", scratch / "spans.json"
        traced = run_child([sys.executable, str(HERE / "replay.py"), "trace",
                            "--workload", workload.name, "--edges", str(edges),
                            "--run-id", run_id, "--report", str(report),
                            "--spans", str(spans_file)], scratch)
        attempted += 1
        if traced.timed_out or traced.returncode != 0:
            tail = traced.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            errors.append(f"replay {pair}: exit {traced.returncode} {tail}")
            failed += 1
            continue
        if report.read_bytes() != cli.stdout:
            errors.append(f"replay {pair}: report bytes differ from the CLI output")
            failed += 1
            continue
        doc = json.loads(spans_file.read_text(encoding="utf-8"))
        spans.extend(doc["spans"])
        per_pair.append(layer_metrics(doc, traced.spawn_ns, cli.wall_s))
    if not per_pair:
        return None, attempted, failed, errors, {}, spans
    metrics = {name: statistics.median(m[name] for m in per_pair) for name in PER_LAYER}
    for name in COUNTERS:
        values = {m[name] for m in per_pair}
        if len(values) > 1:
            errors.append(f"counter {name} changed between replays: {sorted(values)}")
        metrics[name] = per_pair[0][name]
    samples = {name: [m[name] for m in per_pair] for name in PER_LAYER}
    return metrics, attempted, failed, errors, samples, spans


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_sha256": source.hexdigest(),
    }


def record(names: list[str], scratch: Path) -> int:
    """Rewrite digests.json for the given workloads from the current code."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        digests[name] = {}
        for variant in range(VARIANTS):
            edges = scratch / "edges.csv"
            edges.write_text(edges_csv(workload, variant), encoding="utf-8")
            child = run_child(cli_argv(workload, edges), scratch, timeout=600)
            if child.returncode != 0:
                print(f"{name} variant {variant}: exit {child.returncode}\n"
                      f"{child.stderr.decode('utf-8', 'replace')}", file=sys.stderr)
                return 1
            digests[name][str(variant)] = section_digests(child.stdout)
            print(f"recorded {name} variant {variant} ({child.wall_s:.2f} s)", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Benchmark lric-net compute.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record digests.json (all workloads unless --workload)")
    args = parser.parse_args(argv)
    if not (SRC / "lricnet" / "__init__.py").is_file():
        print(f"error: no lricnet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            return record([args.workload] if args.workload else list(WORKLOADS), scratch)
        workload = WORKLOADS[args.workload]
        variant = variant_of(args.seed)
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload.name][str(variant)]
        edges = scratch / "edges.csv"
        edges.write_text(edges_csv(workload, args.seed), encoding="utf-8")
        set_up(edges, scratch)  # untimed: fills the bytecode and page caches
        spans: list[dict] = []
        if args.trace:
            tag = f"{workload.name}-seed{args.seed}"
            metrics, attempted, failed, errors, samples, spans = measure_traced(
                workload, edges, expected, args.seconds, scratch, tag)
            units = PER_LAYER
        else:
            metrics, attempted, failed, errors, samples = measure(
                workload, edges, expected, args.seconds, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if metrics is None:
        metrics = {name: 0.0 for name in units}
    correct = failed == 0 and not errors
    facts = machine_facts()
    print(f"workload {workload.name}  seed {args.seed}  input variant {variant}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"attempted {attempted}  failed {failed}  error_rate {failed / attempted:.4f}  "
          f"correct {str(correct).lower()}")
    for name, unit in units.items():
        count = len(samples.get(name, []))
        print(f"{name:32s} {metrics[name]:16.6f} {unit:6s} (n={count})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "errors": errors,
        "samples": samples,
        "spans": spans,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

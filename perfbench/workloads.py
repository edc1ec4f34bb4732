"""Seeded input generators and the compute flags of each benchmark workload.

Every workload turns a seed into one edge-list CSV (header ``from,to,weight``)
with integer weights drawn uniformly from [1, 100], plus the ``compute``
flags to run on it.  The program sees only the CSV and the flags.

The graph of a workload (who lends to whom, and how much) is drawn once from
``STRUCTURE_SEED``.  The benchmark seed picks one of ``VARIANTS`` relabelings
of it: fresh node ids and a shuffled row order.  Relabeled graphs are
isomorphic, so the work counters and the cost of a run do not depend on the
seed, while node order, tie-breaking and the simulation's draws do.  Drawing
the graph itself from the seed made ``all-methods`` cost between 1.3 s and
7.0 s across five seeds, which would swamp any regression.  Every variant has
recorded report digests (``digests.json``).

``BENCHMARK.json`` lists ``all-methods`` and ``dense-lenders``.  The other two
workloads stay runnable with ``--workload``: on a 2-core machine whose speed
drifts, two workloads with long runs were steadier than four with short ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STRUCTURE_SEED = 0
VARIANTS = 16

# Seed of the random-mode simulation inside ``compute``; fixed so that the
# input variant alone decides the report bytes.
SIM_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "sparse" or "hub"
    params: dict
    flags: tuple[str, ...]
    methods: tuple[str, ...] | None  # None: every method, in the CLI's order

    def flag(self, name: str) -> str | None:
        """Value that follows `name` in the compute flags, if present."""
        if name in self.flags:
            return self.flags[self.flags.index(name) + 1]
        return None


def _weight(rng: random.Random) -> int:
    return rng.randint(1, 100)


def sparse_edges(rng: random.Random, n: int, out_degree: int) -> list[tuple[int, int, int]]:
    """Every node lends to `out_degree` distinct others; mutual pairs are kept,
    so netting has work to do."""
    edges = []
    for lender in range(n):
        others = [v for v in range(n) if v != lender]
        for borrower in sorted(rng.sample(others, out_degree)):
            edges.append((lender, borrower, _weight(rng)))
    return edges


def hub_edges(
    rng: random.Random, hubs: int, hub_degree: int, periphery: int, periphery_degree: int
) -> list[tuple[int, int, int]]:
    """Hubs lend to `hub_degree` periphery nodes each; periphery nodes lend to
    `periphery_degree` others each.  No pair is lent in both directions, so
    netting keeps every hub's borrower count exactly at `hub_degree`."""
    hub_ids = list(range(hubs))
    periphery_ids = list(range(hubs, hubs + periphery))
    pairs: set[tuple[int, int]] = set()
    edges = []
    for hub in hub_ids:
        for borrower in sorted(rng.sample(periphery_ids, hub_degree)):
            pairs.add((hub, borrower))
            edges.append((hub, borrower, _weight(rng)))
    everyone = hub_ids + periphery_ids
    for lender in periphery_ids:
        allowed = [v for v in everyone if v != lender and (v, lender) not in pairs]
        for borrower in sorted(rng.sample(allowed, periphery_degree)):
            pairs.add((lender, borrower))
            edges.append((lender, borrower, _weight(rng)))
    return edges


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def edges_csv(workload: Workload, seed: int) -> str:
    """The workload's graph under the relabeling that `seed` selects."""
    structure = random.Random(f"{workload.name}:structure:{STRUCTURE_SEED}")
    if workload.generator == "sparse":
        edges = sparse_edges(structure, **workload.params)
    else:
        edges = hub_edges(structure, **workload.params)
    n = 1 + max(max(a, b) for a, b, _ in edges)
    labels = random.Random(f"{workload.name}:labels:{variant_of(seed)}")
    ids = labels.sample(range(1, 10 * n + 1), n)
    labels.shuffle(edges)
    return "from,to,weight\n" + "".join(f"{ids[a]},{ids[b]},{w}\n" for a, b, w in edges)


Q = ("--q", "out-share:0.25")
CLASSICAL = ("in-degree", "out-degree", "degree-difference", "degree", "closeness-in",
             "closeness-out", "betweenness", "eigenvector", "pagerank")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="all-methods",
            generator="sparse",
            params={"n": 20, "out_degree": 3},
            flags=("--method", "all", *Q, "--emit-matrices", "--sim-mode", "random",
                   "--runs", "2000", "--k0-max", "5", "--seed", str(SIM_SEED)),
            methods=None,
        ),
        Workload(
            name="sim-exhaustive",
            generator="sparse",
            params={"n": 80, "out_degree": 3},
            flags=("--method", "sim", *Q, "--sim-mode", "exhaustive", "--k0-max", "2"),
            methods=("sim",),
        ),
        Workload(
            name="dense-lenders",
            generator="hub",
            params={"hubs": 6, "hub_degree": 14, "periphery": 40, "periphery_degree": 2},
            flags=("--method", "kbi,maxpath", *Q, "--s", "3", "--emit-matrices"),
            methods=("kbi", "maxpath"),
        ),
        Workload(
            name="classical-wide",
            generator="sparse",
            params={"n": 120, "out_degree": 4},
            flags=("--method", ",".join(CLASSICAL), *Q),
            methods=CLASSICAL,
        ),
    )
}

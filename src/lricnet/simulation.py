"""Simulation-based long-range influence.

The share matrix expresses every exposure as a fraction of the lender's
threshold, clipped at 1; a lender defaults once the shares of its defaulted
borrowers add up to 1.  Initial default sets are sampled (or enumerated
exhaustively), each set is cascaded to a fixpoint, and every cascaded
default is attributed back to the initiators that caused it.  The estimated
influence of j on i is the fraction of runs, among those seeding j but not
i, in which j was credited for i's default.

Attribution walks the default chain backwards: a defaulted lender is traced
to the inclusion-minimal critical groups among its defaulted borrowers, and
each group member contributes itself (if it was seeded and not redundant)
or, recursively, its own attribution.  A seeded node is *redundant* when
the remaining seeds would have defaulted it anyway; such a node is treated
as an intermediate casualty, not a cause.  Initiators whose solo default
suffices to sink the target are always credited.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .groups import DEFAULT_ENUMERATION_CAP, TOL
from .network import ExposureNetwork, ThresholdPolicy, threshold
from .paths import InfluenceMatrix, weighted_vector

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CascadeTrace:
    """Staged default propagation: the seed set, then each wave of new defaults."""

    initial: frozenset[str]
    stages: tuple[frozenset[str], ...]
    stage_limit: int | None = None

    @property
    def defaulted(self) -> frozenset[str]:
        result = set(self.initial)
        for stage in self.stages:
            result.update(stage)
        return frozenset(result)


@dataclass(frozen=True)
class SimulationPlan:
    """How initial default sets are drawn.

    mode "exhaustive" enumerates every nonempty set of at most k0_max nodes
    once (seed and runs are ignored); mode "random" draws `runs` sets
    uniformly from the same family, or by independent per-node Bernoulli
    draws when `probabilities` is given (rejecting empty and oversized
    draws).  Random mode requires a seed so runs are reproducible.
    """

    mode: str = "random"
    runs: int = 5000
    k0_max: int = 5
    seed: int | None = None
    probabilities: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be 'exhaustive' or 'random', got {self.mode!r}")
        if self.k0_max < 1:
            raise ValueError(f"k0_max must be at least 1, got {self.k0_max}")
        if self.mode == "random":
            if self.runs <= 0:
                raise ValueError(f"runs must be positive, got {self.runs}")
            if self.seed is None:
                raise ValueError("random mode requires a seed")
        if self.probabilities is not None:
            for node, p in self.probabilities.items():
                if not 0 <= p <= 1:
                    raise ValueError(f"probability for {node!r} out of [0, 1]: {p}")


def share_matrix(net: ExposureNetwork, policy: ThresholdPolicy) -> InfluenceMatrix:
    """Exposures as shares of the lender's threshold, clipped at 1.

    Rows of nodes with no outgoing exposure are zero: they have no threshold
    and cannot cascade-default.
    """
    nodes = net.nodes
    index = {v: k for k, v in enumerate(nodes)}
    values = np.zeros((len(nodes), len(nodes)))
    quotas = {v: threshold(net, policy, v) for v in nodes}
    for (lender, borrower), w in net.edges.items():
        q = quotas[lender]
        if q is None:
            continue
        values[index[lender], index[borrower]] = 1.0 if w >= q - TOL else w / q
    return InfluenceMatrix(nodes=nodes, values=values, variant="shares")


class _CascadeEngine:
    """Cascades and attribution over the share matrix, with memoization.

    All sets are frozensets of node indices.  The caches are what make
    exhaustive runs cheap: redundancy checks re-cascade many near-identical
    seed sets.
    """

    def __init__(self, values: np.ndarray, stage_limit: int | None = None) -> None:
        self.values = values
        self.n = len(values)
        self.stage_limit = stage_limit
        self._borrowers = [frozenset(np.flatnonzero(row > 0).tolist()) for row in values]
        self._defaulted: dict[frozenset[int], frozenset[int]] = {}
        self._minimal_groups: dict[tuple[int, frozenset[int]], tuple[frozenset[int], ...]] = {}

    def stages(self, initial: frozenset[int]) -> list[frozenset[int]]:
        d = np.zeros(self.n, dtype=bool)
        d[list(initial)] = True
        stages: list[frozenset[int]] = []
        while self.stage_limit is None or len(stages) < self.stage_limit:
            losses = self.values @ d
            fresh = (losses >= 1 - TOL) & ~d
            if not fresh.any():
                break
            stages.append(frozenset(np.flatnonzero(fresh).tolist()))
            d |= fresh
        return stages

    def defaulted(self, initial: frozenset[int]) -> frozenset[int]:
        cached = self._defaulted.get(initial)
        if cached is None:
            result = set(initial)
            for stage in self.stages(initial):
                result.update(stage)
            cached = frozenset(result)
            self._defaulted[initial] = cached
        return cached

    def minimal_groups(
        self, lender: int, present: frozenset[int]
    ) -> tuple[frozenset[int], ...]:
        """Inclusion-minimal subsets of `present` whose shares reach 1."""
        key = (lender, present)
        cached = self._minimal_groups.get(key)
        if cached is not None:
            return cached
        row = self.values[lender]
        members = sorted(k for k in present if row[k] > 0)
        if len(members) > DEFAULT_ENUMERATION_CAP:
            raise ValueError(
                f"attribution for a lender with {len(members)} defaulted "
                f"borrowers exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}"
            )
        minimal: list[frozenset[int]] = []
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                group = frozenset(combo)
                if any(m <= group for m in minimal):
                    continue
                if sum(row[k] for k in combo) >= 1 - TOL:
                    minimal.append(group)
        result = tuple(minimal)
        self._minimal_groups[key] = result
        return result

    def attributions(self, initial: frozenset[int]) -> dict[int, frozenset[int]]:
        """Per cascaded default, the seeds credited with causing it."""
        d = self.defaulted(initial)
        redundant = {
            x for x in initial if x in self.defaulted(initial - {x})
        }
        cascaded = sorted(d - initial)
        attr: dict[int, frozenset[int]] = {i: frozenset() for i in cascaded}

        def contribution(x: int) -> frozenset[int]:
            if x in initial:
                return frozenset() if x in redundant else frozenset({x})
            return attr[x]

        present = {i: self._borrowers[i] & d for i in cascaded}
        changed = True
        while changed:
            changed = False
            for i in cascaded:
                credited: set[int] = set()
                for group in self.minimal_groups(i, present[i]):
                    for x in group:
                        credited.update(contribution(x))
                merged = frozenset(credited)
                if merged != attr[i]:
                    attr[i] = merged
                    changed = True
        return attr


def cascade(
    c: InfluenceMatrix, initial: frozenset[str] | set[str], s: int | None = None
) -> CascadeTrace:
    """Propagate defaults from `initial` until no lender crosses its threshold.

    At each stage every surviving lender defaults iff the shares of its
    already-defaulted borrowers sum to at least 1.  `s` caps the number of
    stages; None runs to the fixpoint.
    """
    if not initial:
        raise ValueError("initial default set must be nonempty")
    index = {v: k for k, v in enumerate(c.nodes)}
    try:
        seed_idx = frozenset(index[v] for v in initial)
    except KeyError as exc:
        raise ValueError(f"unknown node {exc.args[0]!r}") from None
    engine = _CascadeEngine(c.values, stage_limit=s)
    stages = tuple(
        frozenset(c.nodes[k] for k in stage) for stage in engine.stages(seed_idx)
    )
    return CascadeTrace(initial=frozenset(initial), stages=stages, stage_limit=s)


def pivotal_initiators(
    c: InfluenceMatrix,
    defaulted_node: str,
    initial: frozenset[str] | set[str],
    s: int | None = None,
) -> frozenset[str]:
    """The seeds credited with the default of `defaulted_node`.

    Union of the sufficiency channel (seeds whose solo cascade sinks the
    node) and the attribution chain through minimal critical groups.  The
    node must actually default under `initial`.
    """
    index = {v: k for k, v in enumerate(c.nodes)}
    if defaulted_node not in index:
        raise ValueError(f"unknown node {defaulted_node!r}")
    try:
        seed_idx = frozenset(index[v] for v in initial)
    except KeyError as exc:
        raise ValueError(f"unknown node {exc.args[0]!r}") from None
    engine = _CascadeEngine(c.values, stage_limit=s)
    target = index[defaulted_node]
    if target not in engine.defaulted(seed_idx):
        raise ValueError(
            f"{defaulted_node!r} does not default under initial set {sorted(initial)}"
        )
    if target in seed_idx:
        return frozenset({defaulted_node})
    attr = engine.attributions(seed_idx)
    credited = {
        j
        for j in seed_idx
        if target in engine.defaulted(frozenset({j})) or j in attr[target]
    }
    return frozenset(c.nodes[j] for j in credited)


def _uniform_subset(rng: random.Random, n: int, k_max: int) -> frozenset[int]:
    counts = [math.comb(n, k) for k in range(1, k_max + 1)]
    total = sum(counts)
    r = rng.randrange(total)
    for k, count in enumerate(counts, start=1):
        if r < count:
            return frozenset(rng.sample(range(n), k))
        r -= count
    raise AssertionError("unreachable")


def _bernoulli_subset(
    rng: random.Random, probs: list[float], k_max: int, max_attempts: int = 100_000
) -> frozenset[int]:
    for _ in range(max_attempts):
        drawn = frozenset(i for i, p in enumerate(probs) if rng.random() < p)
        if 0 < len(drawn) <= k_max:
            return drawn
    raise ValueError(
        "per-node probabilities almost never produce a nonempty set within k0_max"
    )


def _seed_sets(plan: SimulationPlan, nodes: tuple[str, ...]):
    n = len(nodes)
    k_max = min(plan.k0_max, n)
    if plan.mode == "exhaustive":
        for size in range(1, k_max + 1):
            for combo in combinations(range(n), size):
                yield frozenset(combo)
        return
    rng = random.Random(plan.seed)
    if plan.probabilities is not None:
        unknown = set(plan.probabilities) - set(nodes)
        if unknown:
            raise ValueError(f"probabilities for unknown nodes: {sorted(unknown)}")
        probs = [plan.probabilities.get(v, 0.0) for v in nodes]
        for _ in range(plan.runs):
            yield _bernoulli_subset(rng, probs, k_max)
        return
    for _ in range(plan.runs):
        yield _uniform_subset(rng, n, k_max)


def simulate(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    plan: SimulationPlan,
    s: int | None = None,
) -> InfluenceMatrix:
    """Estimate the influence matrix from cascading sampled default sets.

    Entry (i, j) is the credited-default frequency of lender i over the
    runs seeding j without i.  Columns of nodes that were never sampled are
    NaN (undefined, as opposed to "no influence"); the diagonal is 0.
    """
    shares = share_matrix(net, policy)
    n = len(shares.nodes)
    engine = _CascadeEngine(shares.values, stage_limit=s)
    credits = np.zeros((n, n))
    sampled = np.zeros((n, n))
    solo = {j: engine.defaulted(frozenset({j})) for j in range(n)}
    runs = 0
    for seed_set in _seed_sets(plan, shares.nodes):
        runs += 1
        in_seed = np.zeros(n, dtype=bool)
        in_seed[list(seed_set)] = True
        sampled += np.outer(~in_seed, in_seed)
        attr = engine.attributions(seed_set)
        for i, credited_via_chain in attr.items():
            for j in seed_set:
                if i in solo[j] or j in credited_via_chain:
                    credits[i, j] += 1.0
    logger.debug("simulated %d runs on %d nodes", runs, n)
    with np.errstate(invalid="ignore"):
        values = credits / sampled
    np.fill_diagonal(values, 0.0)
    return InfluenceMatrix(nodes=shares.nodes, values=values, variant="simulated")


def vector_from_simulation(
    net: ExposureNetwork, matrix: InfluenceMatrix
) -> dict[str, float]:
    """Lending-weighted column sums of a simulated matrix, normalized to 1.

    Rejects matrices with NaN cells: an undefined influence must not be
    silently averaged as zero.
    """
    undefined = [
        matrix.nodes[j]
        for j in range(len(matrix.nodes))
        if np.isnan(matrix.values[:, j]).any()
    ]
    if undefined:
        raise ValueError(
            f"influence of {undefined} undefined: never sampled without every "
            f"affected lender; increase runs"
        )
    return weighted_vector(net, matrix)


def lric_sim_vector(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    plan: SimulationPlan,
    s: int | None = None,
) -> dict[str, float]:
    """Final simulation index: lending-weighted column sums, normalized to 1."""
    return vector_from_simulation(net, simulate(net, policy, plan, s))

"""Simulation-based long-range influence.

The share matrix expresses every exposure as a fraction of the lender's
threshold, clipped at 1; a lender defaults once the shares of its defaulted
borrowers add up to 1.  Initial default sets are sampled (or enumerated
exhaustively), each set is cascaded to a fixpoint, and every cascaded
default is attributed back to the initiators that caused it.  The estimated
influence of j on i is the fraction of runs, among those seeding j but not
i, in which j was credited for i's default.

Attribution is reachability.  A cascaded lender's *support* is the union
of the inclusion-minimal critical groups among its defaulted borrowers, and
the lender is credited to every seed it reaches over support edges; the
walk stops at seeds.  A seeded node is *redundant* when the remaining seeds
would have defaulted it anyway; such a node is treated as an intermediate
casualty, not a cause, and passes no credit on.  Initiators whose solo
default suffices to sink the target are always credited.  Each node's solo
cascade is run once and kept: it settles most redundancy checks, and
without a stage cap a cascade of several seeds starts from the union of
their solo closures, its fixpoint kept per union.  A run whose every seed
lies in another seed's solo cascade has no cause, so it is credited through
the solo cascades alone, and not cascaded at all.

The share and simulated matrices are lists of rows inside this module; only
the public :func:`share_matrix` and :func:`simulate` turn them into numpy
arrays.  The simulation index sums exactly, like the path methods
(:func:`lricnet.paths.weighted_vector`).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, combinations
from typing import NamedTuple

from .groups import DEFAULT_ENUMERATION_CAP, _debug, _exact, _floor, _need, _non_dummies
from .network import ExposureNetwork, ThresholdPolicy, _Record, _tuple_eq, _tuple_ne, threshold
from .paths import InfluenceMatrix, _as_matrix, _weighted_scores


class CascadeTrace(NamedTuple):
    """Staged default propagation: the seed set, then each wave of new defaults."""

    initial: frozenset[str]
    stages: tuple[frozenset[str], ...]
    stage_limit: int | None = None

    __eq__, __ne__ = _tuple_eq, _tuple_ne

    @property
    def defaulted(self) -> frozenset[str]:
        result = set(self.initial)
        for stage in self.stages:
            result.update(stage)
        return frozenset(result)


class SimulationPlan(_Record):
    """How initial default sets are drawn.

    mode "exhaustive" enumerates every nonempty set of at most k0_max nodes
    once (seed and runs are ignored); mode "random" draws `runs` sets
    uniformly from the same family, or by independent per-node Bernoulli
    draws when `probabilities` is given (rejecting empty and oversized
    draws).  Random mode requires a seed so runs are reproducible.
    """

    __slots__ = _fields = ("mode", "runs", "k0_max", "seed", "probabilities")

    def __init__(
        self,
        mode: str = "random",
        runs: int = 5000,
        k0_max: int = 5,
        seed: int | None = None,
        probabilities: dict[str, float] | None = None,
    ) -> None:
        self._assign(mode, runs, k0_max, seed, probabilities)
        if mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
        if k0_max < 1:
            raise ValueError(f"k0_max must be at least 1, got {k0_max}")
        if mode == "random":
            if runs <= 0:
                raise ValueError(f"runs must be positive, got {runs}")
            if seed is None:
                raise ValueError("random mode requires a seed")
        if probabilities is not None:
            for node, p in probabilities.items():
                if not 0 <= p <= 1:
                    raise ValueError(f"probability for {node!r} out of [0, 1]: {p}")


def share_matrix(net: ExposureNetwork, policy: ThresholdPolicy) -> InfluenceMatrix:
    """Exposures as shares of the lender's threshold, clipped at 1.

    Rows of nodes with no outgoing exposure are zero: they have no threshold
    and cannot cascade-default.
    """
    return _as_matrix(net.nodes, _share_rows(net, policy), "shares")


def _share_rows(net: ExposureNetwork, policy: ThresholdPolicy) -> list[list[float]]:
    """The share matrix over ``net.nodes``, as a list of rows."""
    rows = [[0.0] * len(net.nodes) for _ in net.nodes]
    for v, row, loans in zip(net.nodes, rows, net._out):
        if loans:  # a lender, so its threshold is a positive float
            q = threshold(net, policy, v)
            for j, w in loans:
                row[j] = 1.0 if w >= _floor(q) else w / q
    return rows


class _CascadeEngine:
    """Cascades and attribution over the rows of a share matrix, with
    memoization.

    Every node set is an int bitmask: bit k stands for node k.  A cascade
    stage looks only at the surviving lenders of the nodes that defaulted
    in the stage before (the frontier); no other lender's loss can have
    grown.  Whether a loss reaches 1 is decided exactly: each lender's
    shares are exact ints over one denominator
    (:func:`lricnet.groups._exact`, computed once), and a loss reaches 1
    when their int sum reaches the lender's `need`.

    Every share must be positive: the engine refuses a NaN, infinite or
    negative one when it is built, naming the lender and the borrower.  So
    the cascade is monotone in its seed set (and so is that exact test),
    which gives exact shortcuts.  Without a stage cap, the cascade of
    several seeds is the least fixpoint containing the union of their
    cached solo closures: it starts from that union, all of it the first
    frontier, and is kept per union, since many seed sets share one.  And
    a seed is redundant if another seed's solo cascade already sinks it;
    only when no seed does is the seed set re-cascaded without it.

    The credit a cascaded lender passes on is reachability: each lender's
    *support* is the union of its inclusion-minimal groups among its
    defaulted borrowers (cached per lender and defaulted borrower set), and
    a lender is credited to the non-redundant seeds it reaches over support
    edges, seeds being sinks.  Supports come from the depth-first
    pivotal-group enumerator that serves KBI, under its 25-member cap.  The
    support edges are kept reversed per defaulted set, as each node's mask
    of the cascaded lenders it supports, and grown by the lenders a run
    cascades that no earlier run on that set did.  The fixpoints and the
    support graphs are each cleared when they reach one entry per node.
    The counters feed the debug line of `simulate`.
    """

    def __init__(
        self,
        rows: list[list[float]],
        stage_limit: int | None = None,
        nodes: Sequence[str] | None = None,
    ) -> None:
        self.stage_limit = stage_limit
        self._n = n = len(rows)
        self._nodes = [str(k) for k in range(n)] if nodes is None else nodes
        # per lender, its (borrower bit, exact share) pairs in index order,
        # the least int loss that reaches 1 and the mask of its borrowers;
        # per borrower, the mask of its lenders
        self._shares: list[list[tuple[int, int]]] = []
        self._needs: list[int] = []
        self._borrowers: list[int] = []
        self._lenders = [0] * n
        for i, row in enumerate(rows):
            borrowers = [k for k, share in enumerate(row) if share]
            for k in borrowers:
                share = row[k]
                if not 0 < share < math.inf:
                    fault = "negative" if math.isfinite(share) else "not finite"
                    raise ValueError(
                        f"share of {self._nodes[k]!r} in {self._nodes[i]!r} "
                        f"is {fault}: {share}"
                    )
                self._lenders[k] |= 1 << i
            denominator, shares = _exact([row[k] for k in borrowers])
            self._shares.append([(1 << k, share) for k, share in zip(borrowers, shares)])
            self._needs.append(_need(_floor(1.0), denominator))
            self._borrowers.append(_mask(borrowers))
        self._solo: dict[int, int] = {}
        self._fixpoint: dict[int, int] = {}  # by union of solo closures
        self._support: dict[tuple[int, int], int] = {}
        # by defaulted set: [mask of the lenders folded in, backers per node]
        self._graphs: dict[int, list] = {}
        self.cascades = 0
        self.cache_hits = 0
        self.fixpoints = 0
        self.fixpoint_hits = 0
        self.solo_witnesses = 0
        self.support_hits = 0
        self.graphs_built = 0
        self.graphs_reused = 0

    def _fresh(self, d: int, frontier: int) -> int:
        """The surviving lenders of `frontier` whose defaulted shares reach 1."""
        lenders = self._lenders
        candidates = 0
        while frontier:
            low = frontier & -frontier
            candidates |= lenders[low.bit_length() - 1]
            frontier ^= low
        candidates &= ~d
        fresh = 0
        while candidates:
            low = candidates & -candidates
            i = low.bit_length() - 1
            if sum([share for bit, share in self._shares[i] if d & bit]) >= self._needs[i]:
                fresh |= low
            candidates ^= low
        return fresh

    def stages(self, initial: int) -> list[int]:
        d = frontier = initial
        stages: list[int] = []
        while self.stage_limit is None or len(stages) < self.stage_limit:
            fresh = self._fresh(d, frontier)
            if not fresh:
                break
            stages.append(fresh)
            d |= fresh
            frontier = fresh
        return stages

    def _closure(self, initial: int) -> int:
        for stage in self.stages(initial):
            initial |= stage
        return initial

    def defaulted(self, initial: int) -> int:
        """The nodes defaulted when `initial` is seeded; none for no seed."""
        if not initial & (initial - 1):  # at most one seed
            if not initial:
                return 0
            j = initial.bit_length() - 1
            if j in self._solo:
                self.cache_hits += 1
            return self.solo(j)
        self.cascades += 1
        # a stage cap rules out the fixpoint, as the union may be stages ahead
        if self.stage_limit is not None:
            return self._closure(initial)
        union, rest, solo = 0, initial, self._solo
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            union |= solo.get(j) or self.solo(j)  # a solo closure holds j
            rest ^= low
        d = self._fixpoint.get(union)
        if d is not None:
            self.fixpoint_hits += 1
            return d
        self.fixpoints += 1
        if len(self._fixpoint) >= self._n:
            self._fixpoint.clear()
        d = self._fixpoint[union] = self._closure(union)
        return d

    def solo(self, j: int) -> int:
        """The nodes defaulted when `j` alone is seeded."""
        cached = self._solo.get(j)
        if cached is None:
            self.cascades += 1
            cached = self._solo[j] = self._closure(1 << j)
        return cached

    def support(self, lender: int, present: int) -> int:
        """The union of the inclusion-minimal subsets of `present` whose
        shares reach 1.

        Every share is positive, so the sums are monotone, and the union is
        the set of members pivotal in some critical group: those without
        whose shares, summed exactly, the group's shares fall short of 1
        (:func:`lricnet.groups._pivots`).
        """
        key = (lender, present)
        cached = self._support.get(key)
        if cached is not None:
            self.support_hits += 1
            return cached
        members = [(bit, share) for bit, share in self._shares[lender] if present & bit]
        if len(members) > DEFAULT_ENUMERATION_CAP:
            raise ValueError(
                f"attribution for a lender with {len(members)} defaulted borrowers "
                f"exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP} "
                f"(lender {self._nodes[lender]!r})"
            )
        found = _non_dummies([share for _, share in members], self._needs[lender])
        cached = self._support[key] = sum(members[k][0] for k in found)
        return cached

    def _causes(self, initial: int) -> list[int]:
        """The seeds of `initial` that are not redundant: those that the
        other seeds would not default anyway."""
        seeds = _members(initial)
        causes = []
        for x in seeds:
            bit = 1 << x
            if any(y != x and self.solo(y) & bit for y in seeds):
                self.solo_witnesses += 1
                continue
            rest = initial & ~bit
            if not (rest and self.defaulted(rest) & bit):
                causes.append(x)
        return causes

    def _backers(self, d: int, cascaded: int) -> list[int]:
        """The support edges among the defaulted set `d`, reversed: per
        node, the mask of the lenders of `cascaded` (and of those folded in
        before) whose support holds it."""
        graph = self._graphs.get(d)
        if graph is None:
            self.graphs_built += 1
            if len(self._graphs) >= self._n:
                self._graphs.clear()
            graph = self._graphs[d] = [0, [0] * self._n]
        else:
            self.graphs_reused += 1
        folded, backers = graph
        todo = cascaded & ~folded
        if todo:
            for i in _members(todo):
                bit = 1 << i
                for x in _members(self.support(i, self._borrowers[i] & d)):
                    backers[x] |= bit
            graph[0] = folded | todo
        return backers

    def reach(self, initial: int) -> tuple[int, dict[int, int]]:
        """The cascaded defaults of `initial`, and per non-redundant seed
        the cascaded lenders that reach it over support edges."""
        d = self.defaulted(initial)
        cascaded = d & ~initial
        if not cascaded:
            return cascaded, {}
        causes = self._causes(initial)
        if not causes:
            return cascaded, {}
        backers = self._backers(d, cascaded)
        reached: dict[int, int] = {}
        for x in causes:
            # a breadth-first walk within `cascaded`, so seeds never relay
            seen = 0
            todo = backers[x] & cascaded
            while todo:
                seen |= todo
                grown = 0
                while todo:
                    low = todo & -todo
                    grown |= backers[low.bit_length() - 1]
                    todo ^= low
                todo = grown & cascaded & ~seen
            reached[x] = seen
        return cascaded, reached


def _members(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _mask(indices: Iterable[int]) -> int:
    """The node set of `indices` as a bitmask."""
    mask = 0
    for k in indices:
        mask |= 1 << k
    return mask


def _node_indices(nodes: tuple[str, ...], names: Iterable[str]) -> list[int]:
    """The positions of `names` in `nodes`, in the order given."""
    index = {v: k for k, v in enumerate(nodes)}
    try:
        return [index[v] for v in names]
    except KeyError as exc:
        raise ValueError(f"unknown node {exc.args[0]!r}") from None


def cascade(
    c: InfluenceMatrix, initial: frozenset[str] | set[str], s: int | None = None
) -> CascadeTrace:
    """Propagate defaults from `initial` until no lender crosses its threshold.

    At each stage every surviving lender defaults iff the shares of its
    already-defaulted borrowers sum to at least 1.  `s` caps the number of
    stages; None runs to the fixpoint.  A NaN, infinite or negative share
    in `c` raises ValueError, here and in :func:`pivotal_initiators`.
    """
    if not initial:
        raise ValueError("initial default set must be nonempty")
    engine = _CascadeEngine(c.values.tolist(), stage_limit=s, nodes=c.nodes)
    stages = engine.stages(_mask(_node_indices(c.nodes, initial)))
    return CascadeTrace(
        initial=frozenset(initial),
        stages=tuple(frozenset(c.nodes[k] for k in _members(stage)) for stage in stages),
        stage_limit=s,
    )


def pivotal_initiators(
    c: InfluenceMatrix,
    defaulted_node: str,
    initial: frozenset[str] | set[str],
    s: int | None = None,
) -> frozenset[str]:
    """The seeds credited with the default of `defaulted_node`.

    Union of the sufficiency channel (seeds whose solo cascade sinks the
    node) and the seeds the node reaches over support edges.  The node
    must actually default under `initial`.
    """
    engine = _CascadeEngine(c.values.tolist(), stage_limit=s, nodes=c.nodes)
    target, *seeds = _node_indices(c.nodes, [defaulted_node, *initial])
    if target in seeds:
        return frozenset({defaulted_node})
    credits = _credits(engine, _mask(seeds))
    if target not in credits:
        raise ValueError(
            f"{defaulted_node!r} does not default under initial set {sorted(initial)}"
        )
    return frozenset(c.nodes[j] for j in credits[target])


def _credits(engine: _CascadeEngine, initial: int) -> dict[int, list[int]]:
    """Per cascaded default of `initial`, the seeds credited with it, in
    index order: those whose solo cascade sinks it and those it reaches
    over support edges."""
    cascaded, reached = engine.reach(initial)
    credited = [(j, engine.solo(j) | reached.get(j, 0)) for j in _members(initial)]
    return {
        i: [j for j, sunk in credited if sunk >> i & 1] for i in _members(cascaded)
    }


def _uniform_subsets(
    rng: random.Random, n: int, k_max: int, runs: int
) -> Iterator[tuple[int, list[int]]]:
    """`runs` draws from the nonempty subsets of range(n) of at most `k_max`
    members, each equally likely, as (bitmask, indices) pairs.

    Draw for draw these are the sets of ``rng.randrange(total)``, which
    picks the size k in proportion to C(n, k), then
    ``rng.sample(range(n), k)``: the same ``getrandbits`` calls, taken
    straight.  Like ``random.sample``, a size whose set-size bound is at
    least n swaps its draws out of a pool of n, and any other size redraws
    a node already drawn.
    """
    ends = list(accumulate(math.comb(n, k) for k in range(1, k_max + 1)))
    total = ends[-1]
    width = total.bit_length()
    # random.sample's bound: the size of a small set, plus the table of a
    # large one above 5 members
    pooled = [
        n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        for k in range(k_max + 1)
    ]
    widths = [m.bit_length() for m in range(n + 1)]  # per randbelow(m)
    everyone = list(range(n))
    getrandbits = rng.getrandbits
    for _ in range(runs):
        r = getrandbits(width)
        while r >= total:
            r = getrandbits(width)
        k = bisect_right(ends, r) + 1
        mask, seeds = 0, []
        if pooled[k]:
            pool = everyone.copy()
            for m in range(n, n - k, -1):
                b = widths[m]
                j = getrandbits(b)
                while j >= m:
                    j = getrandbits(b)
                x = pool[j]
                pool[j] = pool[m - 1]
                seeds.append(x)
                mask |= 1 << x
        else:
            b = widths[n]
            for _ in range(k):
                j = getrandbits(b)
                while j >= n or mask >> j & 1:
                    j = getrandbits(b)
                seeds.append(j)
                mask |= 1 << j
        yield mask, seeds


# draws of per-node defaults before a probability table is refused as one that
# almost never gives a nonempty set of at most k0_max nodes
_BERNOULLI_ATTEMPTS = 100_000


def _bernoulli_subset(rng: random.Random, probs: list[float], k_max: int) -> list[int]:
    for _ in range(_BERNOULLI_ATTEMPTS):
        drawn = [i for i, p in enumerate(probs) if rng.random() < p]
        if 0 < len(drawn) <= k_max:
            return drawn
    raise ValueError(
        "per-node probabilities almost never produce a nonempty set within k0_max"
    )


def _seed_sets(
    plan: SimulationPlan, nodes: tuple[str, ...]
) -> Iterator[tuple[int, Sequence[int]]]:
    """The initial default sets of `plan`, each as a bitmask and as its
    distinct node indices."""
    n = len(nodes)
    if n == 0:
        return
    k_max = min(plan.k0_max, n)
    if plan.mode == "exhaustive":
        for size in range(1, k_max + 1):
            for seeds in combinations(range(n), size):
                yield _mask(seeds), seeds
        return
    rng = random.Random(plan.seed)
    if plan.probabilities is not None:
        unknown = set(plan.probabilities) - set(nodes)
        if unknown:
            raise ValueError(f"probabilities for unknown nodes: {sorted(unknown)}")
        probs = [plan.probabilities.get(v, 0.0) for v in nodes]
        for _ in range(plan.runs):
            seeds = _bernoulli_subset(rng, probs, k_max)
            yield _mask(seeds), seeds
        return
    yield from _uniform_subsets(rng, n, k_max, plan.runs)


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
    return _as_matrix(net.nodes, _simulate_rows(net, policy, plan, s), "simulated")


def _simulate_rows(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    plan: SimulationPlan,
    s: int | None,
) -> list[list[float]]:
    """The matrix of :func:`simulate`, as a list of rows."""
    n = len(net.nodes)
    engine = _CascadeEngine(_share_rows(net, policy), stage_limit=s, nodes=net.nodes)
    # integer counts, converted once at the end; together[j][j] counts the
    # runs seeding j
    credits = [[0] * n for _ in range(n)]  # by seed, then lender
    together = [[0] * n for _ in range(n)]
    solo = [engine.solo(j) for j in range(n)]
    # per node j, the other nodes that j's solo cascade sinks
    sinks = [alone & ~(1 << j) for j, alone in enumerate(solo)]
    runs = settled = 0
    for mask, seeds in _seed_sets(plan, net.nodes):
        runs += 1
        sunk = 0
        for i in seeds:
            sunk |= sinks[i]
            row = together[i]
            for j in seeds:
                row[j] += 1
        # a run whose every seed another seed's solo cascade sinks has no
        # cause, so `reach` would credit nothing
        if not mask & ~sunk:
            settled += 1
            continue
        # the lenders j reached outside its solo cascade
        for j, seen in engine.reach(mask)[1].items():
            row = credits[j]
            for i in _members(seen & ~solo[j]):
                row[i] += 1
    _debug(
        __name__,
        "simulated %d runs on %d nodes: %d runs settled by solo witnesses alone, "
        "%d cascades, %d cascade-cache hits, "
        "%d fixpoints run for %d fixpoint-cache hits, "
        "%d redundancy checks settled by a solo cascade, %d supports cached "
        "for %d support-cache hits, %d support graphs built and %d reused",
        runs, n, settled, engine.cascades, engine.cache_hits, engine.fixpoints,
        engine.fixpoint_hits, engine.solo_witnesses, len(engine._support),
        engine.support_hits, engine.graphs_built, engine.graphs_reused,
    )
    # frequencies over the runs seeding j without i, NaN where there is none.
    # The engine refuses negative shares, so a run seeding j defaults all of
    # solo[j]: j's solo channel credits every i of sinks[j] in each such run.
    values = [[math.nan] * n for _ in range(n)]
    for j, (seeded, row, victims) in enumerate(zip(together, credits, sinks)):
        for i in range(n):
            runs_without = seeded[j] - seeded[i]
            if runs_without:
                values[i][j] = (row[i] + (runs_without if victims >> i & 1 else 0)) / runs_without
        values[j][j] = 0.0
    return values


def vector_from_simulation(
    net: ExposureNetwork, matrix: InfluenceMatrix
) -> dict[str, float]:
    """Lending-weighted column sums of a simulated matrix, normalized to 1.

    Rejects matrices with NaN cells: an undefined influence must not be
    silently averaged as zero.  The sums are the exact ones of the path
    methods (:func:`lricnet.paths.weighted_vector`).
    """
    return _sim_scores(net, matrix.nodes, matrix.values.tolist())


def _sim_scores(
    net: ExposureNetwork, nodes: tuple[str, ...], rows: list[list[float]]
) -> dict[str, float]:
    """:func:`vector_from_simulation` of the rows `rows` over `nodes`."""
    undefined = [v for j, v in enumerate(nodes) if any(math.isnan(row[j]) for row in rows)]
    if undefined:
        raise ValueError(
            f"influence of {undefined} undefined: never sampled without every "
            f"affected lender; increase runs"
        )
    return _weighted_scores(net, nodes, rows)


def lric_sim_vector(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    plan: SimulationPlan,
    s: int | None = None,
) -> dict[str, float]:
    """Final simulation index: lending-weighted column sums, normalized to 1."""
    return _sim_scores(net, net.nodes, _simulate_rows(net, policy, plan, s))

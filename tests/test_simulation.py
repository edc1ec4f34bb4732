"""Cascade simulation and default attribution.

`_brute_matrix` is a deliberately slow, cache-free re-implementation of the
attribution rule (direct recursion, python-set cascades).  The exhaustive
engine must reproduce it cell for cell; keeping the oracle independent of
the production code is the point, so resist deduplicating them.
"""

import logging
import math
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from lricnet import (
    Absolute,
    CascadeTrace,
    InfluenceMatrix,
    OutShareQuota,
    SimulationPlan,
    cascade,
    ingest_edges,
    lric_sim_vector,
    pivotal_initiators,
    share_matrix,
    simulate,
    threshold,
    vector_from_simulation,
)
from lricnet.cli import emit_report
from lricnet.simulation import _CascadeEngine, _seed_sets, _simulate_rows
from test_groups import _units

TOL = 1e-9


def _mask(indices):
    """The engine's node set of `indices`: bit k for node k."""
    return sum(1 << k for k in set(indices))


def _set(mask):
    """The indices of the set bits of the engine's node set `mask`."""
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def test_share_matrix_ex1(ex1, quarter):
    c = share_matrix(ex1, quarter)
    expected = {
        ("1", "2"): 1.0, ("1", "3"): 0.4, ("1", "5"): 1.0,
        ("2", "3"): 0.8, ("2", "6"): 1.0, ("2", "9"): 1.0,
        ("3", "6"): 1.0,
        ("4", "3"): 10 / 15, ("4", "6"): 1.0,
        ("5", "6"): 1.0, ("5", "7"): 200 / 275, ("5", "8"): 200 / 275,
        ("7", "4"): 0.6, ("7", "9"): 1.0, ("7", "10"): 1.0,
        ("8", "10"): 1.0,
    }
    for i in ex1.nodes:
        for j in ex1.nodes:
            assert c.entry(i, j) == pytest.approx(expected.get((i, j), 0.0)), (i, j)
    # (7, 10) sits exactly on the threshold (250 of 250) and counts as full
    assert c.entry("7", "10") == 1.0


def test_cascade_stages_ex1(ex1, quarter):
    c = share_matrix(ex1, quarter)
    trace = cascade(c, {"10"})
    assert trace.stages == (
        frozenset({"7", "8"}),
        frozenset({"5"}),
        frozenset({"1"}),
    )
    assert trace.defaulted == frozenset({"1", "5", "7", "8", "10"})
    assert trace.initial == frozenset({"10"})


def test_cascade_stages_ex2(ex2, quarter):
    c = share_matrix(ex2, quarter)
    trace = cascade(c, {"5", "6", "9"})
    assert trace.stages == (
        frozenset({"2", "4"}),
        frozenset({"1", "3"}),
        frozenset({"10"}),
    )


def test_cascade_stage_cap(ex1, quarter):
    c = share_matrix(ex1, quarter)
    trace = cascade(c, {"10"}, s=1)
    assert trace.stages == (frozenset({"7", "8"}),)
    assert trace.defaulted == frozenset({"7", "8", "10"})
    assert trace.stage_limit == 1


def test_cascade_validation(ex1, quarter):
    c = share_matrix(ex1, quarter)
    with pytest.raises(ValueError, match="nonempty"):
        cascade(c, set())
    with pytest.raises(ValueError, match="unknown node"):
        cascade(c, {"10", "99"})


def test_cascade_trace_defaulted_property():
    trace = CascadeTrace(
        initial=frozenset({"a"}),
        stages=(frozenset({"b"}), frozenset({"c", "d"})),
    )
    assert trace.defaulted == frozenset({"a", "b", "c", "d"})


def test_pivotal_initiators_ex2(ex2, quarter):
    c = share_matrix(ex2, quarter)
    seeds = {"5", "6", "9"}
    expected = {
        "1": {"5", "6", "9"},
        "2": {"6"},
        "3": {"5", "6", "9"},
        "4": {"5", "9"},
        "10": {"5", "6", "9"},
    }
    for node, pivotal in expected.items():
        assert pivotal_initiators(c, node, seeds) == frozenset(pivotal), node


def test_pivotal_initiators_ex1(ex1, quarter):
    c = share_matrix(ex1, quarter)
    for node in ("1", "5", "7", "8"):
        assert pivotal_initiators(c, node, {"10"}) == frozenset({"10"})


def test_pivotal_initiators_edge_cases(ex1, quarter):
    c = share_matrix(ex1, quarter)
    # a seeded node is its own cause
    assert pivotal_initiators(c, "10", {"10", "5"}) == frozenset({"10"})
    with pytest.raises(ValueError, match="does not default"):
        pivotal_initiators(c, "6", {"10"})
    with pytest.raises(ValueError, match="unknown node"):
        pivotal_initiators(c, "99", {"10"})
    # no seed defaults nothing, so no node is a casualty to credit
    with pytest.raises(ValueError, match=re.escape("'1' does not default under initial set []")):
        pivotal_initiators(c, "1", set())
    assert _CascadeEngine(c.values.tolist()).defaulted(0) == 0


def test_plan_validation():
    with pytest.raises(ValueError, match="mode"):
        SimulationPlan(mode="sweep", seed=1)
    with pytest.raises(ValueError, match="k0_max"):
        SimulationPlan(mode="exhaustive", k0_max=0)
    with pytest.raises(ValueError, match="seed"):
        SimulationPlan(mode="random")
    with pytest.raises(ValueError, match="runs"):
        SimulationPlan(mode="random", runs=0, seed=1)
    with pytest.raises(ValueError, match="probability"):
        SimulationPlan(mode="random", seed=1, probabilities={"a": 1.5})


def test_exhaustive_regression_ex1(ex1, quarter):
    plan = SimulationPlan(mode="exhaustive", k0_max=5)
    matrix = simulate(ex1, quarter, plan)
    row1 = [matrix.entry("1", j) for j in ex1.nodes]
    row5 = [matrix.entry("5", j) for j in ex1.nodes]
    assert row1 == pytest.approx(
        [0, 1, 0, 0, 1, 1, 0.092, 0.252, 1, 1], abs=1e-3
    )
    assert row5 == pytest.approx(
        [0, 0, 0, 0, 0, 1, 0.160, 0.417, 0.417, 1], abs=1e-3
    )
    for lender in ("6", "9", "10"):
        assert all(matrix.entry(lender, j) == 0.0 for j in ex1.nodes), lender
    assert all(matrix.entry(v, v) == 0.0 for v in ex1.nodes)

    vec = vector_from_simulation(ex1, matrix)
    assert [vec[v] for v in ex1.nodes] == pytest.approx(
        [0, 0.088, 0, 0, 0.088, 0.220, 0.023, 0.062, 0.233, 0.285], abs=1e-3
    )
    assert sum(vec.values()) == pytest.approx(1.0)


def test_exhaustive_is_seed_independent(ex1, quarter):
    a = simulate(ex1, quarter, SimulationPlan(mode="exhaustive", k0_max=4, seed=1))
    b = simulate(ex1, quarter, SimulationPlan(mode="exhaustive", k0_max=4, seed=999))
    assert np.array_equal(a.values, b.values, equal_nan=True)


def test_random_seed_reproducibility(ex1, quarter):
    plan = SimulationPlan(mode="random", runs=800, k0_max=5, seed=7)
    a = simulate(ex1, quarter, plan)
    b = simulate(ex1, quarter, plan)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    other = simulate(
        ex1, quarter, SimulationPlan(mode="random", runs=800, k0_max=5, seed=8)
    )
    assert not np.array_equal(a.values, other.values, equal_nan=True)


def test_probabilities_mode(ex1, quarter):
    plan = SimulationPlan(
        mode="random", runs=50, k0_max=1, seed=3, probabilities={"10": 1.0}
    )
    matrix = simulate(ex1, quarter, plan)
    # every draw seeds exactly node 10, so only its column is defined
    assert matrix.entry("7", "10") == 1.0
    assert matrix.entry("6", "10") == 0.0
    assert np.isnan(matrix.entry("7", "2"))
    with pytest.raises(ValueError, match="undefined"):
        vector_from_simulation(ex1, matrix)


def test_probabilities_unknown_node(ex1, quarter):
    plan = SimulationPlan(
        mode="random", runs=10, k0_max=2, seed=3, probabilities={"99": 0.5}
    )
    with pytest.raises(ValueError, match="unknown nodes"):
        simulate(ex1, quarter, plan)


def test_impossible_probabilities(ex1, quarter):
    plan = SimulationPlan(
        mode="random", runs=10, k0_max=2, seed=3, probabilities={}
    )
    with pytest.raises(ValueError, match="nonempty"):
        simulate(ex1, quarter, plan)


def test_k0_max_above_node_count(quarter):
    net = ingest_edges([("a", "b", 100.0)])
    matrix = simulate(net, quarter, SimulationPlan(mode="exhaustive", k0_max=99))
    assert matrix.entry("a", "b") == 1.0
    assert matrix.entry("b", "a") == 0.0


def test_empty_network_gives_empty_matrix(quarter):
    matrix = simulate(ingest_edges([]), quarter, SimulationPlan(mode="exhaustive"))
    assert matrix.values.shape == (0, 0)


def test_lric_sim_vector_runs(ex2, quarter):
    plan = SimulationPlan(mode="exhaustive", k0_max=5)
    vec = lric_sim_vector(ex2, quarter, plan)
    assert sum(vec.values()) == pytest.approx(1.0)
    # nobody is exposed to node 10; node 11 is the system's main sink
    assert vec["11"] > vec["10"] == 0.0


def _brute_matrix(net, policy, k_max, s=None):
    shares = share_matrix(net, policy)
    a = shares.values
    n = len(shares.nodes)
    # exact sums: each row's shares and, last, the floor 1 - TOL, as ints
    exact = [_units([*row, 1 - TOL]) for row in a.tolist()]

    def casc(seed):
        d = set(seed)
        stage = 0
        while s is None or stage < s:
            fresh = {
                i
                for i in range(n)
                if i not in d and sum(exact[i][k] for k in d) >= exact[i][n]
            }
            if not fresh:
                break
            d |= fresh
            stage += 1
        return frozenset(d)

    def minimal_groups(i, pool):
        members = sorted(k for k in pool if a[i, k] > 0)
        groups = []
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                g = frozenset(combo)
                if any(m <= g for m in groups):
                    continue
                if sum(exact[i][k] for k in combo) >= exact[i][n]:
                    groups.append(g)
        return groups

    credits = np.zeros((n, n))
    sampled = np.zeros((n, n))
    for size in range(1, min(k_max, n) + 1):
        for seed in map(frozenset, combinations(range(n), size)):
            d = casc(seed)
            redundant = {x for x in seed if x in casc(seed - {x})}
            attr = {i: frozenset() for i in d - seed}
            changed = True
            while changed:
                changed = False
                for i in attr:
                    credited = set()
                    for g in minimal_groups(i, d):
                        for x in g:
                            if x in seed:
                                if x not in redundant:
                                    credited.add(x)
                            else:
                                credited |= attr[x]
                    if frozenset(credited) != attr[i]:
                        attr[i] = frozenset(credited)
                        changed = True
            for j in seed:
                for i in range(n):
                    if i in seed:
                        continue
                    sampled[i, j] += 1
                    if i in d and (i in casc(frozenset({j})) or j in attr[i]):
                        credits[i, j] += 1
    with np.errstate(invalid="ignore"):
        values = credits / sampled
    np.fill_diagonal(values, 0.0)
    return values


@pytest.mark.parametrize("fixture_name", ["ex1", "ex2"])
def test_engine_matches_brute_force(fixture_name, quarter, request):
    net = request.getfixturevalue(fixture_name)
    expected = _brute_matrix(net, quarter, k_max=3)
    got = simulate(net, quarter, SimulationPlan(mode="exhaustive", k0_max=3))
    assert np.array_equal(got.values, expected, equal_nan=True)


def _random_net(rng):
    """2-8 nodes, each ordered pair an edge with probability 0.4; integer
    weights in [1, 100] or float weights in [0.1, 100)."""
    n = rng.randint(2, 8)
    integer = rng.random() < 0.5
    records = []
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.4:
                w = rng.randint(1, 100) if integer else rng.uniform(0.1, 100.0)
                records.append((str(a), str(b), w))
    if not records:
        records.append(("0", "1", 1))
    return ingest_edges(records)


def _random_cases(count):
    rng = random.Random(20261018)
    for k in range(count):
        net = _random_net(rng)
        policy = OutShareQuota(rng.choice([0.25, 0.5, 0.75]))
        yield net, policy, (None, 1, 2)[k % 3]


def _dense_stages(values, initial, stage_limit):
    """The engine's former dense cascade: one matvec over every lender per stage."""
    d = np.zeros(len(values), dtype=bool)
    d[list(initial)] = True
    stages = []
    while stage_limit is None or len(stages) < stage_limit:
        losses = values @ d
        fresh = (losses >= 1 - TOL) & ~d
        if not fresh.any():
            break
        stages.append(frozenset(np.flatnonzero(fresh).tolist()))
        d |= fresh
    return stages


def test_engine_matches_brute_force_on_random_nets():
    for net, policy, s in _random_cases(150):
        plan = SimulationPlan(mode="exhaustive", k0_max=3)
        expected = _brute_matrix(net, policy, k_max=3, s=s)
        got = simulate(net, policy, plan, s)
        assert np.array_equal(got.values, expected, equal_nan=True), (net.edges, s)


def test_frontier_stages_match_dense_stages_on_random_nets():
    for net, policy, s in _random_cases(150):
        values = share_matrix(net, policy).values
        engine = _CascadeEngine(values.tolist(), stage_limit=s)
        n = len(values)
        for size in range(1, min(3, n) + 1):
            for seed in map(frozenset, combinations(range(n), size)):
                stages = [*map(_set, engine.stages(_mask(seed)))]
                assert stages == _dense_stages(values, seed, s), (net.edges, s, seed)


def test_redundancy_through_two_seeds_together():
    # x lends half its threshold to each of y and z, so neither seed alone
    # sinks x but both together do: x is redundant only through the
    # re-cascade of the seed set without it.  L then defaults on {x, y},
    # and only y is credited.
    net = ingest_edges([("x", "y", 1), ("x", "z", 1), ("L", "x", 1), ("L", "y", 1)])
    c = share_matrix(net, Absolute({"x": 2, "L": 2}))
    seeds = {"x", "y", "z"}
    assert pivotal_initiators(c, "L", seeds) == frozenset({"y"})
    engine = _CascadeEngine(c.values.tolist())
    index = {v: k for k, v in enumerate(c.nodes)}
    _, reached = engine.reach(_mask(index[v] for v in seeds))
    assert {x for x, seen in reached.items() if index["L"] in _set(seen)} == {index["y"]}
    assert engine.solo_witnesses == 0


def test_solo_witness_settles_redundancy(ex1, quarter):
    # 10's solo cascade sinks 7, so 7 is redundant in {7, 10} without a
    # re-cascade of {10}
    engine = _CascadeEngine(share_matrix(ex1, quarter).values.tolist())
    index = {v: k for k, v in enumerate(ex1.nodes)}
    engine.reach(_mask({index["7"], index["10"]}))
    assert engine.solo_witnesses == 1
    # {7, 10} and the two solo cascades; the fallback for 10 re-uses {7}'s
    assert engine.cascades == 3
    assert engine.cache_hits == 1


def test_simulate_logs_work_counters(ex1, quarter, caplog):
    plan = SimulationPlan(mode="exhaustive", k0_max=2)
    with caplog.at_level(logging.DEBUG, logger="lricnet.simulation"):
        simulate(ex1, quarter, plan)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "lricnet.simulation"]
    assert line.startswith("simulated 55 runs on 10 nodes: ")
    assert "cascades" in line
    assert "cascade-cache hits" in line
    assert "redundancy checks settled by a solo cascade" in line
    assert "runs settled by solo witnesses alone" in line
    # a, b and c lend in a ring, each to one borrower, so each one's solo
    # cascade sinks all four nodes: a run seeding two of them settles
    # without the engine; d, which lends to a, sinks nobody else
    net = ingest_edges([("a", "b", 1), ("b", "c", 1), ("c", "a", 1), ("d", "a", 1)])
    counts = []
    for plan in (
        SimulationPlan(mode="exhaustive", k0_max=3),
        SimulationPlan(mode="random", runs=300, k0_max=3, seed=1),
    ):
        with _reach_calls() as reached:
            line = _simulate_line(caplog, net, quarter, plan)
        runs, settled = _debug_counts(
            line, r"simulated (\d+) runs on 4 nodes: (\d+) runs settled by solo witnesses alone"
        )
        assert settled > 0
        assert settled + reached[0] == runs
        counts.append((runs, settled))
    # exhaustively: the three pairs of ring nodes, the ring itself and the
    # three triples of d and two ring nodes
    assert counts[0] == (14, 7)


@contextmanager
def _reach_calls():
    """The calls of `_CascadeEngine.reach` made within the block, counted
    in a one-item list."""
    calls = [0]
    reach = _CascadeEngine.reach

    def counting(self, initial):
        calls[0] += 1
        return reach(self, initial)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_CascadeEngine, "reach", counting)
        yield calls


def _debug_counts(line, pattern):
    (match,) = re.findall(pattern, line)
    return tuple(map(int, match))


def _simulate_line(caplog, net, policy, plan, s=None):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lricnet.simulation"):
        simulate(net, policy, plan, s)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "lricnet.simulation"]
    return line


def test_simulate_logs_fixpoint_and_support_graph_counters(ex1, quarter, caplog):
    plan = SimulationPlan(mode="exhaustive", k0_max=2)
    fixpoints = r"(\d+) fixpoints run for (\d+) fixpoint-cache hits"
    graphs = r"(\d+) support graphs built and (\d+) reused"
    line = _simulate_line(caplog, ex1, quarter, plan)
    assert line.startswith("simulated 55 runs on 10 nodes: ")
    run, hits = _debug_counts(line, fixpoints)
    assert run > 0 and hits > 0
    built, reused = _debug_counts(line, graphs)
    assert built > 0 and reused > 0
    # a stage cap keeps every cascade apart from the union of solo closures
    capped = _simulate_line(caplog, ex1, quarter, plan, s=1)
    assert _debug_counts(capped, fixpoints) == (0, 0)
    assert _debug_counts(capped, graphs)[0] > 0


def test_bounded_caches_clear_and_keep_the_matrix():
    # random nets on 8-10 nodes with more distinct solo-closure unions and
    # defaulted sets than nodes: the fixpoint and support-graph caches,
    # bounded by the node count, are cleared and refilled mid-run
    built = []
    init = _CascadeEngine.__init__

    def spying(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    rng = random.Random(20261019)
    plan = SimulationPlan(mode="exhaustive", k0_max=3)
    overflowed = {"fixpoints": 0, "graphs": 0, "capped graphs": 0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_CascadeEngine, "__init__", spying)
        for _ in range(12):
            n = rng.randint(8, 10)
            net = ingest_edges([
                (str(a), str(b), rng.randint(1, 100))
                for a in range(n) for b in range(n) if a != b and rng.random() < 0.3
            ])
            policy = OutShareQuota(rng.choice([0.25, 0.5]))
            n = len(net.nodes)
            for s in (None, 1, 2):
                built.clear()
                got = np.array(_simulate_rows(net, policy, plan, s))
                expected = _brute_matrix(net, policy, k_max=3, s=s)
                assert np.array_equal(got, expected, equal_nan=True), (net.edges, s)
                (engine,) = built
                if s is None:
                    overflowed["fixpoints"] += engine.fixpoints > n
                    overflowed["graphs"] += engine.graphs_built > n
                else:
                    overflowed["capped graphs"] += engine.graphs_built > n
    assert min(overflowed.values()) >= 3, overflowed


def test_redundant_seed_passes_no_credit():
    # y and z together sink x (half each), so x is a redundant seed in
    # {x, y, z}; L defaults on x alone.  Only x's solo cascade sinks L, so
    # x is credited for L through it, and neither y nor z through x
    net = ingest_edges([("x", "y", 1), ("x", "z", 1), ("L", "x", 2)])
    c = share_matrix(net, Absolute({"x": 2, "L": 2}))
    assert pivotal_initiators(c, "L", {"x", "y", "z"}) == frozenset({"x"})
    engine = _CascadeEngine(c.values.tolist())
    index = {v: k for k, v in enumerate(c.nodes)}
    cascaded, reached = engine.reach(_mask(index[v] for v in ("x", "y", "z")))
    assert _set(cascaded) == {index["L"]}
    assert not any(index["L"] in _set(seen) for seen in reached.values())


def test_all_redundant_seeds_keep_solo_credit(quarter):
    # x and y each sink the other, so both are redundant in {x, y}; L, which
    # lends to x alone, still falls to either seed's solo cascade
    net = ingest_edges([("x", "y", 1), ("y", "x", 1), ("L", "x", 1)])
    c = share_matrix(net, quarter)
    engine = _CascadeEngine(c.values.tolist())
    index = {v: k for k, v in enumerate(c.nodes)}
    cascaded, reached = engine.reach(_mask({index["x"], index["y"]}))
    assert _set(cascaded) == {index["L"]}
    assert not any(index["L"] in _set(seen) for seen in reached.values())
    assert pivotal_initiators(c, "L", {"x", "y"}) == frozenset({"x", "y"})
    matrix = simulate(net, quarter, SimulationPlan(mode="exhaustive", k0_max=2))
    # {x} and {x, y} both credit x, {y} and {x, y} both credit y
    assert matrix.entry("L", "x") == matrix.entry("L", "y") == 1.0


def test_attribution_enumeration_cap():
    # every one of L's 26 borrowers is seeded, and L's minimal groups would
    # be enumerated over all of them
    net = ingest_edges([("L", f"b{k}", 1) for k in range(26)])
    c = share_matrix(net, Absolute({"L": 20}))
    seeds = {f"b{k}" for k in range(26)}
    with pytest.raises(
        ValueError,
        match="attribution for a lender with 26 defaulted borrowers exceeds "
        "the enumeration cap 25",
    ):
        pivotal_initiators(c, "L", seeds)


def _minimal_union(row, present):
    """The support as the engine once computed it: every subset of the
    defaulted borrowers by size, keeping those whose exact sum reaches
    1 - TOL and hold no group kept before."""
    *exact, floor = _units([*row, 1 - TOL])
    members = sorted(k for k in present if row[k] > 0)
    minimal = []
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            group = frozenset(combo)
            if any(m <= group for m in minimal):
                continue
            if sum(exact[k] for k in combo) >= floor:
                minimal.append(group)
    return frozenset().union(*minimal)


def _row_support(shares):
    """The engine's support of a lender whose borrowers, all defaulted,
    hold `shares` in index order."""
    rows = [[0.0] * (len(shares) + 1) for _ in range(len(shares) + 1)]
    rows[0][1:] = shares
    engine = _CascadeEngine(rows)
    found = engine.support(0, _mask(range(1, len(shares) + 1)))
    return sorted(k - 1 for k in _set(found))


def _row_oracle(shares):
    return sorted(_minimal_union(shares, range(len(shares))))


def test_supports_match_power_set_on_random_nets():
    checked = 0
    for net, policy, s in _random_cases(150):
        values = share_matrix(net, policy).values
        engine = _CascadeEngine(values.tolist(), stage_limit=s)
        n = len(values)
        for size in range(1, min(3, n) + 1):
            for seed in map(frozenset, combinations(range(n), size)):
                d = _set(engine.defaulted(_mask(seed)))
                for i in range(n):
                    present = frozenset(np.flatnonzero(values[i]).tolist()) & d
                    expected = _minimal_union(values[i], present)
                    got = _set(engine.support(i, _mask(present)))
                    assert got == expected, (net.edges, i, present)
                    checked += 1
    assert checked > 10_000


def _ulps(x, k):
    """The float `k` steps from `x` (down when `k` is negative)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


def _near_floor_rows(count, sizes):
    """Share rows of sizes in `sizes` whose sums sit within a few ulps of
    1 - TOL: one share next to it, one share that lifts the others' sum to
    it, near-equal shares of which all but one fall just short of it, or
    whole units of a quota, where sums hit 1 - TOL give or take rounding and
    many shares, a 1e-13 speck among them, are in no minimal group."""
    floor = 1 - TOL
    rng = random.Random(20181018)
    for k in range(count):
        m = rng.choice(sizes)
        row = [rng.uniform(0.01, 1.0) for _ in range(m)]
        j = rng.randrange(m)
        if k % 4 == 0:
            row[j] = _ulps(floor, rng.randint(-4, 1))
        elif k % 4 == 1:
            others = row[:j] + row[j + 1 :]
            scale = rng.uniform(0.3, 0.99) / sum(others)
            row = [share * scale for share in row]
            row[j] = _ulps(floor - sum(row[:j] + row[j + 1 :]), rng.randint(-3, 3))
        elif k % 4 == 2:
            g = rng.randint(2, m)
            row[:g] = [_ulps(floor / (g - 1), rng.randint(-4, 2)) for _ in range(g)]
            rng.shuffle(row)
        else:
            quota = rng.randint(m, 4 * m)
            row = [min(rng.randint(1, quota) / quota, 1.0) for _ in range(m)]
            row[j] = 1e-13
        yield row


@pytest.mark.parametrize(
    "count, sizes",
    [
        (10_000, range(2, 8)),
        # wider rows, whose groups lie deeper in the search
        (30, range(13, 15)),
    ],
)
def test_supports_match_power_set_near_the_floor(count, sizes):
    for row in _near_floor_rows(count, sizes):
        assert _row_support(row) == _row_oracle(row), row


@pytest.mark.parametrize(
    "row, expected",
    [
        # the group total minus a member's share reads as pivotal for 1,
        # but 0 alone already reaches the floor
        ([0.999999999, 0.4467340235293335], [0]),
        # the group total minus share 0 still reaches the floor, but share
        # 1 alone does not
        ([0.7702387815308883, 0.9999999989999999], [0, 1]),
        # every three of the four fall short of the floor, yet the total
        # minus the largest share reaches it
        ([0.33333333299999995] * 3 + [0.333333333], [0, 1, 2, 3]),
    ],
)
def test_support_resums_each_member(row, expected):
    assert _row_oracle(row) == expected
    assert _row_support(row) == expected


@pytest.mark.parametrize("count, sizes", [(10_000, range(2, 8)), (30, range(13, 15))])
def test_cascade_stages_match_exact_sums_near_the_floor(count, sizes):
    # lender 0 holds the share row; its borrowers 1..m are seeded all
    # together, then all but one
    floor = Fraction(1 - TOL)
    for row in _near_floor_rows(count, sizes):
        m = len(row)
        rows = [[0.0] * (m + 1) for _ in range(m + 1)]
        rows[0][1:] = row
        engine = _CascadeEngine(rows)
        everyone = frozenset(range(1, m + 1))
        for seeds in (everyone, *(everyone - {k} for k in everyone)):
            defaults = sum(Fraction(row[k - 1]) for k in seeds) >= floor
            stages = [*map(_set, engine.stages(_mask(seeds)))]
            assert stages == ([frozenset({0})] if defaults else []), (row, sorted(seeds))


def _fraction_stages(rows, seeds):
    """The cascade stages of `seeds` over share rows `rows`, each lender's
    loss summed anew as Fractions at every stage."""
    floor = Fraction(1 - TOL)
    held = [[(k, Fraction(x)) for k, x in enumerate(row) if x] for row in rows]
    defaulted, stages = set(seeds), []
    while True:
        fresh = frozenset(
            i for i, shares in enumerate(held)
            if i not in defaulted and sum(x for k, x in shares if k in defaulted) >= floor
        )
        if not fresh:
            return stages
        stages.append(fresh)
        defaulted |= fresh


@pytest.mark.parametrize("count, sizes", [(2_500, range(2, 8)), (30, range(13, 15))])
def test_cascade_losses_stay_exact_across_stages_near_the_floor(count, sizes):
    # lender 0 holds the share row; its borrowers 1..m default in 2-4
    # different stages, each borrower lending all of its threshold to one
    # node of the feeder chain m+1 <- m+2 <- m+3 <- m+4; the seeds are the
    # chain's head m+1 and the borrowers of stage 0.  Every other row, one
    # borrower never defaults.
    rng = random.Random(20261022)
    for n, row in enumerate(_near_floor_rows(count, sizes)):
        m = len(row)
        rows = [[0.0] * (m + 5) for _ in range(m + 5)]
        rows[0][1 : m + 1] = row
        for t in range(1, 4):
            rows[m + 1 + t][m + t] = 1.0
        present = rng.sample(range(1, m + 1), m)[n % 2 :]
        spread = min(rng.randint(2, 4), len(present))
        seeds = {m + 1}
        for k, b in enumerate(present):
            stage = k if k < spread else rng.randrange(spread)
            if stage:
                rows[b][m + stage] = 1.0
            else:
                seeds.add(b)
        expected = _fraction_stages(rows, seeds)
        for s in (None, 1, 2, 3):
            stages = _CascadeEngine(rows, stage_limit=s).stages(_mask(seeds))
            assert [*map(_set, stages)] == expected[:s], (row, rows, sorted(seeds), s)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, -0.5, -5e-324])
def test_cascade_rejects_non_finite_shares(entry):
    # a negative share, however small, is refused too: every share that
    # share_matrix makes lies in (0, 1], and the engine's shortcuts rest on it
    values = np.array([[0.0, entry, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    c = InfluenceMatrix(nodes=("a", "b", "c"), values=values, variant="shares")
    fault = "negative" if math.isfinite(entry) else "not finite"
    message = f"share of 'b' in 'a' is {fault}: {entry}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cascade(c, {"c"})
    with pytest.raises(ValueError, match=re.escape(message)):
        pivotal_initiators(c, "b", {"c"})


def test_support_of_many_equal_shares():
    # any 11 of the 18 shares reach 1, so every member lies in a minimal
    # group; a subset-by-subset search visits some 2^18 sets
    share = 1 / (0.6 * 18)
    assert _row_support([share] * 18) == list(range(18))


# The numpy bodies that share_matrix, simulate and vector_from_simulation
# had before they moved to lists of rows, kept as oracles.


def _numpy_share_matrix(net, policy):
    nodes, index = net.nodes, net.index
    values = np.zeros((len(nodes), len(nodes)))
    quotas = {v: threshold(net, policy, v) for v in nodes}
    for (lender, borrower), w in net.edges.items():
        q = quotas[lender]
        if q is None:
            continue
        values[index[lender], index[borrower]] = 1.0 if w >= q * (1 - TOL) else w / q
    return InfluenceMatrix(nodes=nodes, values=values, variant="shares")


def _stdlib_seed_sets(plan, n):
    """The uniform random-mode draws as `random.Random(plan.seed)` makes
    them: the size by ``randrange`` over the family, then ``sample``."""
    rng = random.Random(plan.seed)
    counts = [math.comb(n, k) for k in range(1, min(plan.k0_max, n) + 1)]
    total = sum(counts)
    for _ in range(plan.runs):
        r = rng.randrange(total)
        for k, count in enumerate(counts, start=1):
            if r < count:
                yield rng.sample(range(n), k)
                break
            r -= count


@pytest.mark.parametrize("n", [1, 2, 5, 20, 21, 22, 80, 85, 86, 200])
def test_random_draws_are_the_stdlib_draws(n):
    # random.sample keeps a pool when n is at most 21 (plus 64 from 6
    # members on), and redraws repeated nodes otherwise: these sizes sit on
    # both sides of both bounds
    nodes = tuple(map(str, range(n)))
    for k0_max in range(1, 9):
        for seed in (0, 1, 7, 20261020):
            plan = SimulationPlan(mode="random", runs=300, k0_max=k0_max, seed=seed)
            got = list(_seed_sets(plan, nodes))
            want = list(_stdlib_seed_sets(plan, n))
            assert [sorted(seeds) for _, seeds in got] == [sorted(w) for w in want], (
                k0_max, seed,
            )
            assert [mask for mask, _ in got] == [_mask(w) for w in want]


def _numpy_simulate(net, policy, plan, s=None):
    shares = _numpy_share_matrix(net, policy)
    n = len(shares.nodes)
    engine = _CascadeEngine(shares.values.tolist(), stage_limit=s)
    credits = [[0] * n for _ in range(n)]
    together = [[0] * n for _ in range(n)]
    solo = [_set(engine.solo(j)) for j in range(n)]
    if plan.mode == "exhaustive":
        seed_sets = (
            seeds for size in range(1, min(plan.k0_max, n) + 1)
            for seeds in combinations(range(n), size)
        )
    else:
        seed_sets = _stdlib_seed_sets(plan, n)
    for seed_set in seed_sets:
        for i in seed_set:
            row = together[i]
            for j in seed_set:
                row[j] += 1
        _, reached = engine.reach(_mask(seed_set))
        for j, seen in reached.items():
            row, alone = credits[j], solo[j]
            for i in _set(seen):
                if i not in alone:
                    row[i] += 1
    for j, alone in enumerate(solo):
        row, seeded = credits[j], together[j]
        for i in alone:
            if i != j:
                row[i] += seeded[j] - seeded[i]
    paired = np.array(together, dtype=float).reshape(n, n)
    sampled = np.diagonal(paired)[None, :] - paired
    with np.errstate(invalid="ignore"):
        values = np.array(credits, dtype=float).reshape(n, n).T / sampled
    np.fill_diagonal(values, 0.0)
    return InfluenceMatrix(nodes=shares.nodes, values=values, variant="simulated")


def _numpy_vector_from_simulation(net, matrix):
    if np.isnan(matrix.values).any():
        raise ValueError("undefined")
    strengths = np.array([net.out_strengths[v] for v in matrix.nodes])
    total = strengths.sum()
    if total == 0:
        return {v: 0.0 for v in matrix.nodes}
    weights = strengths / total
    totals = weights @ matrix.values
    mass = totals.sum()
    if mass > 0:
        totals = totals / mass
    return dict(zip(matrix.nodes, totals.tolist()))


def _oracle_plans(k):
    """Exhaustive plans, and random ones short enough to leave some
    columns NaN."""
    if k % 2:
        return SimulationPlan(mode="exhaustive", k0_max=1 + k % 3)
    return SimulationPlan(mode="random", runs=1 + k % 12, k0_max=1 + k % 4, seed=k)


def _matches_the_numpy_oracle(net, policy, plan, s):
    """Whether `simulate` and `vector_from_simulation` agree with the numpy
    oracles; False where the oracle's vector is undefined."""
    expected = _numpy_simulate(net, policy, plan, s)
    got = simulate(net, policy, plan, s)
    assert isinstance(got.values, np.ndarray)
    assert np.array_equal(got.values, expected.values, equal_nan=True), (net.edges, s)
    assert np.array_equal(
        share_matrix(net, policy).values, _numpy_share_matrix(net, policy).values
    )
    try:
        want = _numpy_vector_from_simulation(net, expected)
    except ValueError:
        with pytest.raises(ValueError, match="undefined"):
            vector_from_simulation(net, got)
        return False
    vector = vector_from_simulation(net, got)
    assert vector.keys() == want.keys()
    for v in want:
        assert math.isclose(vector[v], want[v], rel_tol=1e-12), (net.edges, v)
    return True


def _witnessed_net(rng):
    """A random net plus a node h that every node but "0" lends 10,000,
    and that lends only to "0", while "0" lends 10,000 to "1": the solo
    cascades of h, "0" and "1" each sink every node, so a run seeding two
    of them settles on solo witnesses alone."""
    net = _random_net(rng)
    records = [(a, b, w) for (a, b), w in net.edges.items()]
    records += [(v, "h", 10_000) for v in sorted({*net.nodes, "1"} - {"0"})]
    records += [("h", "0", 1), ("0", "1", 10_000)]
    return ingest_edges(records)


def test_simulation_matches_the_numpy_oracle():
    undefined = 0
    for k, (net, policy, s) in enumerate(_random_cases(240)):
        undefined += not _matches_the_numpy_oracle(net, policy, _oracle_plans(k), s)
    # both branches ran
    assert 0 < undefined < 200
    # long random plans on nets where many runs settle on solo witnesses
    # and never reach the engine
    rng = random.Random(20261020)
    runs = reached = 0
    for k in range(12):
        net = _witnessed_net(rng)
        policy = OutShareQuota(rng.choice([0.25, 0.5, 0.75]))
        plan = SimulationPlan(
            mode="random", runs=rng.randint(200, 400), k0_max=rng.randint(2, 4), seed=k
        )
        s = (None, 1, 2)[k % 3]
        assert _matches_the_numpy_oracle(net, policy, plan, s)
        with _reach_calls() as calls:
            simulate(net, policy, plan, s)
        runs += plan.runs
        reached += calls[0]
    assert 0 < reached < runs


def test_simulate_still_returns_an_array():
    matrix = simulate(
        ingest_edges([("a", "b", 1)]), OutShareQuota(0.25), SimulationPlan(mode="exhaustive")
    )
    assert isinstance(matrix.values, np.ndarray)
    assert isinstance(share_matrix(ingest_edges([("a", "b", 1)]), OutShareQuota(0.25)).values,
                      np.ndarray)


def test_sim_vector_does_not_depend_on_node_labels():
    rng = random.Random(20261021)
    plan = SimulationPlan(mode="exhaustive", k0_max=2)
    for k, (net, policy, s) in enumerate(_random_cases(60)):
        n = len(net.nodes)
        names = dict(zip(net.nodes, rng.sample([f"x{m}" for m in range(n)], n)))
        # the edges keep their order, so each lender's strength is summed alike
        renamed = ingest_edges([(names[a], names[b], w) for (a, b), w in net.edges.items()])
        scores = lric_sim_vector(net, policy, plan, s)
        assert {names[v]: x for v, x in scores.items()} == lric_sim_vector(
            renamed, policy, plan, s
        ), k


def test_twin_borrowers_tie_exactly_and_share_a_rank():
    # a's lenders p1-p3 and b's lenders q1-q3 lend the same amounts in
    # another node order, each to its borrower alone, so each twin sinks
    # its three lenders: their columns hold the same weights in other rows
    amounts = (1, 2, 3)
    records = [(f"p{k}", "a", amounts[k]) for k in range(3)]
    records += [(f"q{k}", "b", amounts[(k + 1) % 3]) for k in range(3)]
    net = ingest_edges(records)
    plan = SimulationPlan(mode="exhaustive", k0_max=1)
    scores = lric_sim_vector(net, OutShareQuota(0.25), plan)
    assert scores["a"] == scores["b"] > 0
    ranks = {
        line.split(",")[0]: line.split(",")[2]
        for line in emit_report(scores).decode().splitlines()[1:]
    }
    assert ranks["a"] == ranks["b"] == "1"

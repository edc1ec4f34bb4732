"""Randomized invariants on small generated networks.

Each test draws its own networks from a seeded RNG, so failures reproduce
exactly; the seed that broke is in the assertion context.  networkx is used
only as a reference implementation, never by the package itself.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from lricnet import (
    OutShareQuota,
    SimulationPlan,
    betweenness,
    cascade,
    closeness,
    critical_groups,
    degree_measures,
    eigenvector,
    gk_gamma,
    influence_matrix,
    ingest_edges,
    is_critical,
    kbi,
    kendall_tau,
    lric_paths_matrices,
    lric_paths_matrix,
    lric_paths_vector,
    lric_sim_vector,
    net_mutual_exposures,
    pagerank,
    rank,
    share_matrix,
    simple_paths,
    threshold,
    weighted_vector,
)
from lricnet.cli import METHOD_ORDER
from lricnet.paths import PATH_METHODS

TOL = 1e-9
FRACTIONS = (0.2, 0.25, 0.4, 0.6)


def _random_network(rng, max_nodes=6, density=0.45):
    n = rng.randint(2, max_nodes)
    nodes = [str(i + 1) for i in range(n)]
    edges = [
        (a, b, float(rng.randint(1, 20)))
        for a in nodes
        for b in nodes
        if a != b and rng.random() < density
    ]
    if not edges:
        edges.append((nodes[0], nodes[1], float(rng.randint(1, 20))))
    return ingest_edges(edges)


def _policy(rng):
    return OutShareQuota(rng.choice(FRACTIONS))


def test_criticality_is_monotone():
    for seed in range(200):
        rng = random.Random(seed)
        net = _random_network(rng)
        policy = _policy(rng)
        for lender in net.nodes:
            borrowers = sorted(net.borrowers_of(lender))
            for size in range(1, len(borrowers) + 1):
                for combo in combinations(borrowers, size):
                    group = set(combo)
                    if not is_critical(net, lender, group, policy):
                        continue
                    for extra in borrowers:
                        if extra not in group:
                            assert is_critical(
                                net, lender, group | {extra}, policy
                            ), (seed, lender, combo, extra)


def test_critical_groups_match_brute_force():
    for seed in range(200):
        rng = random.Random(seed)
        net = _random_network(rng)
        policy = _policy(rng)
        for lender in net.nodes:
            q = threshold(net, policy, lender)
            borrowers = sorted(net.borrowers_of(lender))
            expected = set()
            if q is not None:
                # exact rational sums against the floor q·(1 − TOL)
                floor = Fraction(q * (1 - TOL))
                weights = {b: Fraction(net.weight(lender, b)) for b in borrowers}
                for size in range(1, len(borrowers) + 1):
                    for combo in combinations(borrowers, size):
                        total = sum(weights[b] for b in combo)
                        if total < floor:
                            continue
                        pivotal = frozenset(
                            b for b in combo if total - weights[b] < floor
                        )
                        expected.add((frozenset(combo), pivotal))
            got = {
                (g.members, g.pivotal) for g in critical_groups(net, lender, policy)
            }
            assert got == expected, (seed, lender)


def test_simple_paths_match_networkx():
    for seed in range(200):
        rng = random.Random(seed)
        net = _random_network(rng)
        c = influence_matrix(net, _policy(rng))
        graph = nx.DiGraph()
        graph.add_nodes_from(c.nodes)
        for lender in c.nodes:
            for borrower in c.nodes:
                if c.entry(lender, borrower) > 0:
                    graph.add_edge(borrower, lender)
        s = rng.choice([None, 1, 2, 3])
        cutoff = len(c.nodes) - 1 if s is None else s
        for source in c.nodes:
            for target in c.nodes:
                if source == target:
                    assert simple_paths(c, source, target, s) == []
                    continue
                got = {p.nodes for p in simple_paths(c, source, target, s)}
                expected = {
                    tuple(p)
                    for p in nx.all_simple_paths(graph, source, target, cutoff=cutoff)
                }
                assert got == expected, (seed, source, target, s)


def test_cascade_is_monotone_in_the_seed_set():
    for seed in range(100):
        rng = random.Random(seed)
        net = _random_network(rng)
        c = share_matrix(net, _policy(rng))
        nodes = list(c.nodes)
        small = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        big = small | set(rng.sample(nodes, rng.randint(0, len(nodes))))
        assert cascade(c, small).defaulted <= cascade(c, big).defaulted, seed


def test_cascade_stages_partition_the_defaults():
    for seed in range(100):
        rng = random.Random(seed)
        net = _random_network(rng)
        c = share_matrix(net, _policy(rng))
        initial = set(rng.sample(list(c.nodes), rng.randint(1, len(c.nodes))))
        trace = cascade(c, initial)
        seen = set(trace.initial)
        for stage in trace.stages:
            assert stage, seed  # no empty stages
            assert not (stage & seen), seed
            seen |= stage
        assert seen == trace.defaulted, seed


def test_single_step_chain_equals_direct_influence():
    for seed in range(50):
        rng = random.Random(seed)
        net = _random_network(rng)
        policy = _policy(rng)
        direct = influence_matrix(net, policy)
        for method in PATH_METHODS:
            one = lric_paths_matrix(net, policy, method, s=1)
            assert np.allclose(one.values, direct.values, atol=1e-12), (seed, method)


def test_sumpaths_dominates_maxpath():
    for seed in range(100):
        rng = random.Random(seed)
        net = _random_network(rng)
        policy = _policy(rng)
        sums = lric_paths_matrix(net, policy, "sumpaths")
        best = lric_paths_matrix(net, policy, "maxpath")
        assert (sums.values >= best.values - 1e-12).all(), seed


def test_path_product_never_exceeds_minimum():
    for seed in range(100):
        rng = random.Random(seed)
        net = _random_network(rng)
        c = influence_matrix(net, _policy(rng))
        nodes = list(c.nodes)
        source, target = rng.sample(nodes, 2)
        for path in simple_paths(c, source, target):
            assert all(0 < f <= 1 for f in path.influences), seed
            assert math.prod(path.influences) <= min(path.influences) + 1e-12, seed


def test_indices_are_scale_invariant():
    for seed in range(40):
        rng = random.Random(seed)
        net = _random_network(rng)
        policy = _policy(rng)
        for factor in (1e-12, 0.5, 3.0, 1000.0, 1e12):
            scaled = ingest_edges(
                [(a, b, w * factor) for (a, b), w in net.edges.items()]
            )
            assert np.allclose(
                influence_matrix(net, policy).values,
                influence_matrix(scaled, policy).values,
                atol=1e-9,
            ), (seed, factor)
            assert np.allclose(
                share_matrix(net, policy).values,
                share_matrix(scaled, policy).values,
                atol=1e-9,
            ), (seed, factor)
            base_kbi = kbi(net, policy)
            assert kbi(scaled, policy) == pytest.approx(base_kbi, abs=1e-9), (
                seed,
                factor,
            )
            for method in PATH_METHODS:
                assert lric_paths_vector(scaled, policy, method) == pytest.approx(
                    lric_paths_vector(net, policy, method), abs=1e-9
                ), (seed, factor, method)
            plan = SimulationPlan(mode="exhaustive", k0_max=3)
            assert lric_sim_vector(scaled, policy, plan) == pytest.approx(
                lric_sim_vector(net, policy, plan), abs=1e-9
            ), (seed, factor)


def test_netting_is_idempotent():
    for seed in range(50):
        rng = random.Random(seed)
        net = _random_network(rng, density=0.7)
        once = net_mutual_exposures(net)
        twice = net_mutual_exposures(once)
        assert once.edges == twice.edges, seed


def test_rank_correlation_axioms():
    nodes = [f"n{i}" for i in range(7)]
    for seed in range(100):
        rng = random.Random(seed)
        scores = {v: float(rng.randint(0, 5)) for v in nodes}
        other = {v: float(rng.randint(0, 5)) for v in nodes}
        r = rank(scores)
        r_other = rank(other)
        degenerate = len(set(scores.values())) == 1
        for coef in (kendall_tau, gk_gamma):
            self_value = coef(r, r)
            if degenerate:
                assert math.isnan(self_value), seed
            else:
                assert self_value == 1.0, seed
                reverse = rank({v: -s for v, s in scores.items()})
                assert coef(r, reverse) == -1.0, seed
            forward = coef(r, r_other)
            backward = coef(r_other, r)
            if math.isnan(forward):
                assert math.isnan(backward), seed
            else:
                assert forward == pytest.approx(backward, abs=1e-12), seed


def _float_network(rng):
    """2-8 nodes, each ordered pair an edge with probability 0.4, float
    weights in [0.1, 100)."""
    n = rng.randint(2, 8)
    edges = [
        (str(a), str(b), rng.uniform(0.1, 100.0))
        for a in range(n)
        for b in range(n)
        if a != b and rng.random() < 0.4
    ]
    return ingest_edges(edges or [("0", "1", rng.uniform(0.1, 100.0))])


def _every_method(net, policy, s):
    """The scores of each ``compute`` method, or the error it raises."""
    win, wout, wdiff, wdeg = degree_measures(net)
    scores = {
        "in-degree": win,
        "out-degree": wout,
        "degree-difference": wdiff,
        "degree": wdeg,
        "closeness-in": closeness(net, "in"),
        "closeness-out": closeness(net, "out"),
        "betweenness": betweenness(net),
        "eigenvector": eigenvector(net),
        "pagerank": pagerank(net),
        "kbi": kbi(net, policy),
    }
    for method, matrix in lric_paths_matrices(net, policy, s).items():
        scores[method] = weighted_vector(net, matrix)
    try:
        plan = SimulationPlan(mode="exhaustive", k0_max=2)
        scores["sim"] = lric_sim_vector(net, policy, plan, s)
    except ValueError as error:  # no run seeds a borrower without its lender
        scores["sim"] = str(error)
    assert list(scores) == sorted(scores, key=METHOD_ORDER.index)
    assert set(scores) == set(METHOD_ORDER)
    return scores


def test_every_method_is_bitwise_invariant_under_relabeling():
    rng = random.Random(20261019)
    reordered = 0
    for seed in range(200):
        net = _float_network(rng)
        policy = OutShareQuota(rng.choice(FRACTIONS))
        s = (None, 1, 2, 3)[seed % 4]
        n = len(net.nodes)
        names = dict(zip(net.nodes, rng.sample([f"x{k}" for k in range(n)], n)))
        # the edges keep their order, so each node's strengths are the same floats
        renamed = ingest_edges([(names[a], names[b], w) for (a, b), w in net.edges.items()])
        reordered += [names[v] for v in net.nodes] != list(renamed.nodes)
        before, after = _every_method(net, policy, s), _every_method(renamed, policy, s)
        for method, scores in before.items():
            if method in ("multt", "maxt"):
                continue  # grade-score ties go to the smallest node sequence
            if isinstance(scores, str):
                assert after[method] == scores, (seed, method)
            else:
                assert {names[v]: x for v, x in scores.items()} == after[method], (seed, method)
    assert reordered > 150


def test_every_method_is_bitwise_invariant_under_shuffled_edge_records():
    # same labels, so the grade-score ties of multt and maxt stay put too;
    # repeated pairs and every node's strengths are exact sums, whatever the
    # order of the records
    rng = random.Random(20261020)
    for seed in range(200):
        net = _float_network(rng)
        policy = OutShareQuota(rng.choice(FRACTIONS))
        s = (None, 1, 2, 3)[seed % 4]
        records = [
            (a, b, w) for (a, b), loan in net.edges.items()
            for w in [loan] + [rng.uniform(0.1, 100.0) for _ in range(rng.randint(0, 2))]
        ]
        ordered = ingest_edges(records)
        rng.shuffle(records)
        shuffled = ingest_edges(records)
        assert shuffled == ordered, seed
        assert _every_method(shuffled, policy, s) == _every_method(ordered, policy, s), seed

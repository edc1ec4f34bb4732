"""Critical-group enumeration and pivotality.

The full group lists for the 11-node fixture were derived by hand from the
definitions (a group is critical when its loans reach the lender's
threshold; a member is pivotal when removing it breaks criticality) before
being frozen here.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from lricnet import (
    Absolute,
    CriticalGroup,
    ExposureNetwork,
    InfluenceMatrix,
    OutShareQuota,
    critical_groups,
    influence_matrix,
    ingest_edges,
    is_critical,
    kbi,
    kbi_for_lender,
    minimal_pivotal_sum,
    node_sort_key,
    out_strength,
    pivotal_groups,
    pivotal_members,
    threshold,
)
from lricnet.groups import TOL
from lricnet.kbi import kbi_rows

# lender -> set of critical groups under the 25% quota
EX2_CRITICAL_GROUPS = {
    "1": {
        frozenset({"2"}),
        frozenset({"2", "3"}),
        frozenset({"2", "4"}),
        frozenset({"3", "4"}),
        frozenset({"2", "3", "4"}),
    },
    "2": {
        frozenset({"6"}),
        frozenset({"5", "6"}),
        frozenset({"5", "8"}),
        frozenset({"6", "8"}),
        frozenset({"5", "6", "8"}),
    },
    "3": {
        frozenset({"4"}),
        frozenset({"2", "4"}),
        frozenset({"2", "5"}),
        frozenset({"4", "5"}),
        frozenset({"2", "4", "5"}),
    },
    "4": {
        frozenset({"7"}),
        frozenset({"5", "7"}),
        frozenset({"5", "9"}),
        frozenset({"7", "9"}),
        frozenset({"5", "7", "9"}),
    },
    "6": {frozenset({"11"}), frozenset({"10", "11"})},
    "7": {frozenset({"11"}), frozenset({"10", "11"})},
    "8": {frozenset({"11"}), frozenset({"10", "11"})},
    "9": {frozenset({"11"}), frozenset({"10", "11"})},
    "10": {frozenset({"1"})},
}

# pivotal members of lender 1's groups
EX2_LENDER1_PIVOTAL = {
    frozenset({"2"}): frozenset({"2"}),
    frozenset({"2", "3"}): frozenset({"2"}),
    frozenset({"2", "4"}): frozenset({"2"}),
    frozenset({"3", "4"}): frozenset({"3", "4"}),
    frozenset({"2", "3", "4"}): frozenset(),
}


def test_critical_group_enumeration_matches_hand_enumeration(ex2, quarter):
    for lender in ex2.nodes:
        groups = critical_groups(ex2, lender, quarter)
        expected = EX2_CRITICAL_GROUPS.get(lender, set())
        assert {g.members for g in groups} == expected, f"lender {lender}"


def test_pivotal_members_for_lender_one(ex2, quarter):
    for group in critical_groups(ex2, "1", quarter):
        assert group.pivotal == EX2_LENDER1_PIVOTAL[group.members]


def test_exact_threshold_counts_as_critical(ex1, quarter):
    # lender 7 lends exactly its threshold (250) to node 10
    assert is_critical(ex1, "7", {"10"}, quarter)
    assert pivotal_members(ex1, "7", {"10"}, quarter) == frozenset({"10"})


def test_boundary_removal_is_not_pivotal(ex1, quarter):
    # dropping 9 from {9, 10} leaves exactly the threshold, so 9 is not
    # pivotal; dropping 10 leaves 600 >= 250, so neither is 10
    assert pivotal_members(ex1, "7", {"9", "10"}, quarter) == frozenset()


def test_is_critical_false_for_pure_borrower(ex1, quarter):
    assert not is_critical(ex1, "6", set(), quarter)


def test_is_critical_rejects_non_borrower(ex1, quarter):
    with pytest.raises(ValueError):
        is_critical(ex1, "1", {"10"}, quarter)


def test_pivotal_members_requires_critical_group(ex1, quarter):
    with pytest.raises(ValueError, match="not critical"):
        pivotal_members(ex1, "1", {"3"}, quarter)


def test_minimal_pivotal_sum(ex1, ex2, quarter):
    # lender 5: node 7 is pivotal only in {7, 8}, total 400
    assert minimal_pivotal_sum(ex1, "5", "7", quarter) == pytest.approx(400.0)
    # lender 2 of the bow-tie: node 5 pivotal only in {5, 8}, total 30
    assert minimal_pivotal_sum(ex2, "2", "5", quarter) == pytest.approx(30.0)
    # node 3 is pivotal in no group of lender 1
    assert minimal_pivotal_sum(ex1, "1", "3", quarter) is None


def test_minimal_pivotal_sum_rejects_non_borrower(ex1, quarter):
    with pytest.raises(ValueError):
        minimal_pivotal_sum(ex1, "1", "10", quarter)


CAP_MESSAGE = (
    "lender 'L' has 26 borrowers; exhaustive enumeration is capped at 25 "
    "(raise the cap or use the simulation index)"
)


def test_enumeration_cap():
    records = [("L", f"b{i}", 1.0) for i in range(26)]
    net = ingest_edges(records)
    with pytest.raises(ValueError, match="cap"):
        critical_groups(net, "L", OutShareQuota(0.5))
    for call in (
        lambda: kbi(net, OutShareQuota(0.5)),
        lambda: kbi_for_lender(net, "L", OutShareQuota(0.5)),
        lambda: influence_matrix(net, OutShareQuota(0.5)),
        lambda: minimal_pivotal_sum(net, "L", "b0", OutShareQuota(0.5)),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == CAP_MESSAGE
    # an explicit higher cap clears it
    groups = critical_groups(net, "L", OutShareQuota(1.0), cap=26)
    assert {g.members for g in groups} == {frozenset(f"b{i}" for i in range(26))}


def _power_set_groups(net, lender, policy):
    """Every subset in size, then node order: the exhaustive enumeration the
    pruned search must reproduce exactly."""
    q = threshold(net, policy, lender)
    if q is None:
        return []
    borrowers = net.borrowers_of(lender)
    weights = {b: net.weight(lender, b) for b in borrowers}
    groups = []
    for size in range(1, len(borrowers) + 1):
        for combo in combinations(borrowers, size):
            total = sum(weights[b] for b in combo)
            if total < q - TOL:
                continue
            pivotal = frozenset(b for b in combo if total - weights[b] < q - TOL)
            groups.append(CriticalGroup(lender, frozenset(combo), total, pivotal))
    return groups


def _random_lender(rng, trial):
    n = rng.randint(1, 12)
    kind = trial % 3
    if kind == 0:
        weights = [rng.randint(1, 100) for _ in range(n)]
    elif kind == 1:
        weights = [rng.uniform(0.01, 100.0) for _ in range(n)]
    else:
        weights = [rng.choice([0.1, 0.2, 0.3, 1, 2, 5]) for _ in range(n)]
    # "b10" sorts before "b2", so node order differs from weight and list order
    net = ingest_edges([("L", f"b{i}", w) for i, w in enumerate(weights)])
    if trial % 2:
        return net, OutShareQuota(rng.choice([0.05, 0.1, 0.25, 0.5, 0.9, 1.0]))
    part = [w for w in weights if rng.random() < 0.5] or weights[:1]
    q = sum(part) + rng.choice([0.0, 0.0, TOL, -TOL])
    return net, Absolute({"L": q})


def test_pruned_search_matches_power_set():
    rng = random.Random(20181)
    cut_b_lenders = 0
    for trial in range(400):
        net, policy = _random_lender(rng, trial)
        context = (trial, net.edges, policy)
        expected = _power_set_groups(net, "L", policy)
        assert critical_groups(net, "L", policy) == expected, context
        expected_pivotal = [g for g in expected if g.pivotal]
        assert pivotal_groups(net, "L", policy) == expected_pivotal, context
        cut_b_lenders += len(expected_pivotal) < len(expected)
    assert cut_b_lenders > 100  # lenders with groups that cut (b) must drop


def test_pivotal_member_beside_a_small_one():
    # {b0} is critical on its own, yet b0 is still pivotal in {b0, b1}: a
    # search that stopped extending at the first critical set would lose it
    net = ingest_edges([("L", "b0", 73), ("L", "b1", 1.18), ("L", "b2", 61)])
    groups = pivotal_groups(net, "L", OutShareQuota(0.1))
    assert [(g.members, g.pivotal) for g in groups] == [
        (frozenset({"b0"}), frozenset({"b0"})),
        (frozenset({"b2"}), frozenset({"b2"})),
        (frozenset({"b0", "b1"}), frozenset({"b0"})),
        (frozenset({"b1", "b2"}), frozenset({"b2"})),
    ]


def _reference_kbi_for_lender(net, lender, policy):
    """``kbi_for_lender`` as it was computed from the listed pivotal groups."""
    total = out_strength(net, lender)
    if total == 0:
        raise ValueError(f"{lender!r} has no outgoing exposure")
    borrowers = net.borrowers_of(lender)
    loans = {b: net.weight(lender, b) for b in borrowers}
    # support[i][j] = min(a_ji, a_Lj), co-member j's reinforcement of i
    support = {
        i: {j: min(net.weight(j, i), loans[j]) for j in borrowers} for i in borrowers
    }
    alpha = {b: 0.0 for b in borrowers}
    for group in pivotal_groups(net, lender, policy):
        members = [b for b in borrowers if b in group.members]
        for member in members:
            if member not in group.pivotal:
                continue
            reinforcement = sum(support[member][j] for j in members if j != member)
            alpha[member] += ((loans[member] + reinforcement) / total) / len(members)
    mass = sum(alpha.values())
    if mass == 0:
        return alpha
    return {b: v / mass for b, v in alpha.items()}


def _reference_influence_matrix(net, policy):
    """``influence_matrix`` as it was computed from the listed pivotal groups."""
    nodes = net.nodes
    index = {v: k for k, v in enumerate(nodes)}
    values = np.zeros((len(nodes), len(nodes)))
    for lender in nodes:
        for group in pivotal_groups(net, lender, policy):
            for member in group.pivotal:
                i, j = index[lender], index[member]
                share = net.weight(lender, member) / group.total
                if values[i, j] == 0 or share > values[i, j]:
                    values[i, j] = share
    return InfluenceMatrix(nodes=nodes, values=values, variant="paths")


# integer-like ids sort numerically ("9" before "10"), the rest as strings
NODE_IDS = ("1", "2", "9", "10", "11", "a", "b", "c", "x10", "x9")


def _random_net(rng, trial):
    ids = rng.sample(NODE_IDS, rng.randint(2, len(NODE_IDS)))
    kind = trial % 3
    density = rng.choice([0.3, 0.6, 0.9])
    edges = {}
    for a in ids:
        for b in ids:
            if a == b or rng.random() >= density:
                continue
            if kind == 0:
                edges[(a, b)] = float(rng.randint(1, 100))
            elif kind == 1:
                edges[(a, b)] = rng.uniform(0.01, 100.0)
            else:
                edges[(a, b)] = float(rng.choice([0.1, 0.2, 0.3, 1, 2, 5]))
    nodes = sorted(ids, key=node_sort_key)
    if trial % 2:
        nodes.reverse()  # borrower order must still follow node_sort_key
    net = ExposureNetwork(nodes=tuple(nodes), edges=edges)
    if (trial // 2) % 2:
        return net, OutShareQuota(rng.choice([0.05, 0.1, 0.25, 0.5, 0.9, 1.0]))
    quotas = {}
    for lender in nodes:
        weights = [net.weight(lender, b) for b in net.borrowers_of(lender)]
        if weights:
            part = [w for w in weights if rng.random() < 0.5] or weights[:1]
            quotas[lender] = sum(part) + rng.choice([0.0, 0.0, TOL, -TOL])
    return net, Absolute(quotas)


def test_pivotal_pass_matches_group_list_oracle():
    rng = random.Random(2018)
    reinforced = out_of_order = 0
    for trial in range(320):
        net, policy = _random_net(rng, trial)
        context = (trial, net.nodes, net.edges, policy)
        lenders = [v for v in net.nodes if out_strength(net, v) != 0]
        expected = {v: _reference_kbi_for_lender(net, v, policy) for v in lenders}
        rows = kbi_rows(net, policy)
        # equal floats and equal key order, outer and inner
        assert [(v, list(row.items())) for v, row in rows.items()] == [
            (v, list(row.items())) for v, row in expected.items()
        ], context
        for lender in lenders:
            assert list(kbi_for_lender(net, lender, policy).items()) == list(
                expected[lender].items()
            ), context
        assert np.array_equal(
            influence_matrix(net, policy).values,
            _reference_influence_matrix(net, policy).values,
        ), context
        for lender in lenders:
            groups = pivotal_groups(net, lender, policy)
            for borrower in net.borrowers_of(lender):
                totals = [g.total for g in groups if borrower in g.pivotal]
                assert minimal_pivotal_sum(net, lender, borrower, policy) == (
                    min(totals) if totals else None
                ), context
            reinforced += any(
                net.weight(j, i) for i in net.borrowers_of(lender) for j in net.borrowers_of(lender)
            )
        out_of_order += list(net.nodes) != sorted(net.nodes, key=node_sort_key)
    # the nets exercise reinforcement and node tuples out of node order
    assert reinforced > 300
    assert out_of_order > 100

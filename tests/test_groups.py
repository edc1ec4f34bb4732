"""Critical-group enumeration and pivotality.

The full group lists for the 11-node fixture were derived by hand from the
definitions (a group is critical when its loans reach the lender's
threshold; a member is pivotal when removing it breaks criticality) before
being frozen here.
"""

import random
from itertools import combinations

import pytest

from lricnet import (
    Absolute,
    CriticalGroup,
    OutShareQuota,
    critical_groups,
    ingest_edges,
    is_critical,
    minimal_pivotal_sum,
    pivotal_groups,
    pivotal_members,
    threshold,
)
from lricnet.groups import TOL

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


def test_enumeration_cap():
    records = [("L", f"b{i}", 1.0) for i in range(26)]
    net = ingest_edges(records)
    with pytest.raises(ValueError, match="cap"):
        critical_groups(net, "L", OutShareQuota(0.5))
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

"""Critical-group enumeration and pivotality.

The full group lists for the 11-node fixture were derived by hand from the
definitions (a group is critical when its loans reach the lender's
threshold; a member is pivotal when removing it breaks criticality) before
being frozen here.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import lricnet
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
    pivotal_initiators,
    pivotal_members,
    share_matrix,
    threshold,
)
from lricnet.groups import TOL, _count, _floor, _lender_pass, _pass, _search_input, _tally
from lricnet.kbi import kbi_rows
from lricnet.simulation import _CascadeEngine, _share_rows

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


def test_minimal_pivotal_sum_is_the_exact_minimum_rounded_once():
    # with u = 2**-52, a is pivotal in {a, b} (total 1 + 2u) and in
    # {a, c, d} (exactly 1 + 1.2u, but 1 + 2u in node order, as 1 + 0.6u
    # rounds up twice); the floor 1 + u leaves {a} short
    u = 2.0**-52
    net = ingest_edges(
        [("L", "a", 1.0), ("L", "b", 2 * u), ("L", "c", 0.6 * u), ("L", "d", 0.6 * u)]
    )
    q = 1.0
    while _floor(q) < 1 + u:
        q = math.nextafter(q, math.inf)
    policy = Absolute({"L": q})
    assert _floor(q) == 1 + u
    totals = {g.members: g.total for g in pivotal_groups(net, "L", policy) if "a" in g.pivotal}
    assert totals[frozenset("ab")] == totals[frozenset("acd")] == 1 + 2 * u
    assert min(totals.values()) == 1 + 2 * u
    assert minimal_pivotal_sum(net, "L", "a", policy) == 1 + u


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


def _units(values):
    """The floats `values` as exact ints over their common power-of-two
    denominator, so that int sums of them are exact rational sums."""
    fractions = [Fraction(x) for x in values]
    unit = max(f.denominator for f in fractions)
    return [int(f * unit) for f in fractions]


def _power_set_groups(net, lender, policy):
    """Every subset in size, then node order: the exhaustive enumeration the
    pruned search must reproduce exactly.  Each decision compares exact
    rational sums with the floor q·(1 − TOL); the totals are the rounded
    node-order sums."""
    q = threshold(net, policy, lender)
    if q is None:
        return []
    borrowers = net.borrowers_of(lender)
    weights = {b: net.weight(lender, b) for b in borrowers}
    *units, floor = _units([*weights.values(), q * (1 - TOL)])
    exact = dict(zip(borrowers, units))
    groups = []
    for size in range(1, len(borrowers) + 1):
        for combo in combinations(borrowers, size):
            whole = sum(exact[b] for b in combo)
            if whole < floor:
                continue
            pivotal = frozenset(b for b in combo if whole - exact[b] < floor)
            total = sum(weights[b] for b in combo)
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


def test_near_zero_quota_lists_every_nonempty_group():
    # every subset reaches a threshold of 1e-12, but the empty set is no
    # group; the tolerance is relative, so each loan alone is pivotal
    net = ingest_edges([("L", "b0", 2.0), ("L", "b1", 0.5), ("L", "b2", 1.0)])
    policy = Absolute({"L": 1e-12})
    assert critical_groups(net, "L", policy) == _power_set_groups(net, "L", policy)
    assert len(critical_groups(net, "L", policy)) == 7
    assert [(g.members, g.pivotal) for g in pivotal_groups(net, "L", policy)] == [
        (frozenset({b}), frozenset({b})) for b in ("b0", "b1", "b2")
    ]


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


def test_pivots_follow_exact_sums_not_the_rounded_difference():
    # any three of the loans fall short of q = 1 exactly, yet the rounded
    # total less the largest loan reaches the floor
    loans = [0.33333333299999995] * 3 + [0.333333333]
    net = ingest_edges([("L", f"b{i}", w) for i, w in enumerate(loans)])
    policy = Absolute({"L": 1.0})
    names = frozenset(f"b{i}" for i in range(4))
    assert [(g.members, g.pivotal) for g in critical_groups(net, "L", policy)] == [
        (names, names)
    ]
    assert pivotal_members(net, "L", names, policy) == names
    assert kbi_for_lender(net, "L", policy) == pytest.approx(dict.fromkeys(names, 0.25))
    assert pivotal_initiators(share_matrix(net, policy), "L", names) == names


HASH_SEED_SCRIPT = """
import math
from lricnet import Absolute, critical_groups, ingest_edges, is_critical
from lricnet.groups import _floor
net = ingest_edges([("L", "a", 0.1), ("L", "b", 0.2), ("L", "c", 0.3)])
total = 0.1 + 0.2 + 0.3  # node order; 0.3 + 0.2 + 0.1 rounds lower
q = total
while _floor(q) < total:
    q = math.nextafter(q, math.inf)
assert _floor(q) == total
policy = Absolute({"L": q})
group = {"a", "b", "c"}
print(list(group), is_critical(net, "L", group, policy),
      [sorted(g.members) for g in critical_groups(net, "L", policy)])
"""


def test_is_critical_is_exact_under_any_hash_seed():
    # the loans' node-order float sum equals the floor, but their exact sum
    # falls short of it; a set-order sum would flip with the hash seed
    package_root = str(Path(lricnet.__file__).resolve().parents[1])
    outputs = []
    for seed in (0, 2):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        outputs.append(done.stdout.split("] ", 1))
    # the two seeds iterate the group in different orders
    assert outputs[0][0] != outputs[1][0]
    assert [verdict for _, verdict in outputs] == ["False []\n"] * 2


def _relabeled(net, policy, names):
    """`net` and `policy` with node v renamed to names[v]; the edges keep
    their order, so each lender's strength and threshold are the same floats."""
    renamed = ExposureNetwork(
        nodes=tuple(sorted(names.values(), key=node_sort_key)),
        edges={(names[a], names[b]): w for (a, b), w in net.edges.items()},
    )
    if isinstance(policy, Absolute):
        policy = Absolute({names[v]: q for v, q in policy.quotas.items()})
    return renamed, policy


def test_groups_and_supports_do_not_depend_on_node_labels():
    rng = random.Random(20261019)
    changed_order = 0
    for trial in [t for t in range(300) if t % 3]:  # float weights only
        net, policy = _random_net(rng, trial)
        names = dict(zip(net.nodes, rng.sample(NODE_IDS, len(net.nodes))))
        renamed, renamed_policy = _relabeled(net, policy, names)
        context = (trial, net.nodes, net.edges, policy, names)

        def mapped(groups):
            return {
                (frozenset(names[v] for v in g.members), frozenset(names[v] for v in g.pivotal))
                for g in groups
            }

        for lender in net.nodes:
            for listing in (critical_groups, pivotal_groups):
                assert mapped(listing(net, lender, policy)) == {
                    (g.members, g.pivotal)
                    for g in listing(renamed, names[lender], renamed_policy)
                }, context
            changed_order += [names[b] for b in net.borrowers_of(lender)] != list(
                renamed.borrowers_of(names[lender])
            )
        engines = [
            _CascadeEngine(_share_rows(n, p)) for n, p in ((net, policy), (renamed, renamed_policy))
        ]
        position = {renamed.index[names[v]]: v for v in net.nodes}
        for i, lender in enumerate(net.nodes):
            borrowers = [net.index[b] for b in net.borrowers_of(lender)]
            for _ in range(4):
                # the engine's node sets are int masks, bit k for node k
                present = [k for k in borrowers if rng.random() < 0.7]
                moved = sum(1 << renamed.index[names[net.nodes[k]]] for k in present)
                got = engines[1].support(renamed.index[names[lender]], moved)
                want = engines[0].support(i, sum(1 << k for k in present))
                assert {position[k] for k in range(len(net.nodes)) if got >> k & 1} == {
                    net.nodes[k] for k in range(len(net.nodes)) if want >> k & 1
                }, context
    assert changed_order > 300  # relabeling reorders most lenders' borrowers


def _reference_kbi_for_lender(net, lender, policy):
    """``kbi_for_lender`` from the listed pivotal groups, in exact rational
    sums, each share rounded once."""
    total = Fraction(out_strength(net, lender))
    if total == 0:
        raise ValueError(f"{lender!r} has no outgoing exposure")
    borrowers = net.borrowers_of(lender)
    loans = {b: Fraction(net.weight(lender, b)) for b in borrowers}
    # support[i][j] = min(a_ji, a_Lj), co-member j's reinforcement of i
    support = {
        i: {j: min(Fraction(net.weight(j, i)), loans[j]) for j in borrowers} for i in borrowers
    }
    alpha = {b: Fraction(0) for b in borrowers}
    for group in pivotal_groups(net, lender, policy):
        members = [b for b in borrowers if b in group.members]
        for member in members:
            if member not in group.pivotal:
                continue
            reinforcement = sum(support[member][j] for j in members if j != member)
            alpha[member] += ((loans[member] + reinforcement) / total) / len(members)
    mass = sum(alpha.values())
    if mass == 0:
        return {b: 0.0 for b in borrowers}
    return {b: float(v / mass) for b, v in alpha.items()}


def _exact_total(net, lender, group):
    """The exact sum of the group's loans, rounded once."""
    return float(sum(Fraction(net.weight(lender, b)) for b in group.members))


def _reference_influence_matrix(net, policy):
    """``influence_matrix`` from the listed pivotal groups: each loan over the
    least exact total of a group in which its borrower is pivotal."""
    nodes = net.nodes
    index = {v: k for k, v in enumerate(nodes)}
    values = np.zeros((len(nodes), len(nodes)))
    for lender in nodes:
        for group in pivotal_groups(net, lender, policy):
            for member in group.pivotal:
                i, j = index[lender], index[member]
                share = net.weight(lender, member) / _exact_total(net, lender, group)
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
                totals = [
                    _exact_total(net, lender, g) for g in groups if borrower in g.pivotal
                ]
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


def _reference_candidates(weights, floor, pivotal_only):
    """A candidate-list search, kept as the oracle of the group enumerator:
    a depth-first search in descending weight with cuts (a) and (b), which
    lists the index tuples of each size that may be critical (and pivotal)."""
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    ws = [weights[i] for i in order]
    suffix = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + ws[k]
    slack = (n + 1) * (suffix[0] + abs(floor)) * 2.0**-49
    reach, spill = floor - slack, floor + slack
    by_size = [[] for _ in range(n + 1)]
    if pivotal_only and spill <= 0:
        return by_size
    chosen = []

    def extend(start, partial, rest):
        size = len(chosen) + 1
        for j in range(start, n):
            if partial + suffix[j] < reach:
                return
            rest_j = rest + ws[j]
            if pivotal_only and rest_j >= spill:
                continue
            chosen.append(order[j])
            if partial + ws[j] >= reach:
                by_size[size].append(tuple(sorted(chosen)))
            extend(j + 1, partial + ws[j], rest_j)
            chosen.pop()

    for first in range(n):
        if suffix[first] < reach:
            break
        chosen.append(order[first])
        if ws[first] >= reach:
            by_size[1].append((order[first],))
        extend(first + 1, ws[first], 0.0)
        chosen.pop()
    for candidates in by_size:
        candidates.sort()  # node order within each size
    return by_size


def _exact_pivots(units, floor, combo):
    """The members of `combo` whose removal leaves the exact sum of the
    rest below `floor`, all in :func:`_units`; None when the exact sum of
    `combo` falls short."""
    whole = sum([units[i] for i in combo])
    if whole < floor:
        return None
    return [i for i in combo if whole - units[i] < floor]


def _reference_groups(net, lender, policy, pivotal_only):
    """``critical_groups`` / ``pivotal_groups`` from the candidate lists,
    decided by exact rational sums."""
    found = _search_input(net, lender, policy, 25)
    if found is None:
        return []
    borrowers, weights, floor = found
    *units, exact_floor = _units([*weights, floor])
    groups = []
    for candidates in _reference_candidates(weights, floor, pivotal_only):
        for combo in candidates:
            total = sum([weights[i] for i in combo])
            pivots = _exact_pivots(units, exact_floor, combo)
            if pivots is None:
                continue
            pivotal = frozenset([borrowers[i] for i in pivots])
            if pivotal_only and not pivotal:
                continue
            members = frozenset([borrowers[i] for i in combo])
            groups.append(CriticalGroup(lender, members, total, pivotal))
    return groups


def _reference_lender_pass(net, lender, policy):
    """``_lender_pass`` group by group over the candidate lists, decided and
    summed in exact rationals.  Masses are the exact sums over lcm(1..n)
    and the common denominator of the loans and reinforcements; minimal
    totals are rounded once."""
    found = _search_input(net, lender, policy, 25)
    if found is None:
        return None
    borrowers, weights, floor = found
    *units, exact_floor = _units([*weights, floor])
    n = len(borrowers)
    loans = [Fraction(w) for w in weights]
    support = [
        [min(Fraction(net.weight(bj, bi)), loans[j]) for j, bj in enumerate(borrowers)]
        for bi in borrowers
    ]
    masses = [Fraction(0)] * n
    min_totals = [None] * n
    groups = 0
    for candidates in _reference_candidates(weights, floor, pivotal_only=True):
        for combo in candidates:
            total = sum([loans[i] for i in combo])
            pivotal = _exact_pivots(units, exact_floor, combo)
            if not pivotal:
                continue
            groups += 1
            for i in pivotal:
                reinforcement = sum([support[i][j] for j in combo if j != i])
                masses[i] += (loans[i] + reinforcement) / len(combo)
                if min_totals[i] is None or total < min_totals[i]:
                    min_totals[i] = total
    denominator = max(x.denominator for row in [loans, *support] for x in row if x)
    scale = math.lcm(*range(1, n + 1)) * denominator
    assert all((m * scale).denominator == 1 for m in masses)
    return (
        borrowers,
        weights,
        [int(m * scale) for m in masses],
        [None if t is None else float(t) for t in min_totals],
        groups,
    )


def _wide_lender(rng, trial, n):
    """Lender "L" with `n` borrowers that also lend to each other, and a
    quota that keeps its group count small enough for the oracle."""
    kind = trial % 3
    if kind == 0:
        weights = [rng.randint(1, 100) for _ in range(n)]
    elif kind == 1:
        weights = [rng.uniform(0.01, 100.0) for _ in range(n)]
    else:
        weights = [rng.choice([0.1, 0.2, 0.3, 1, 2, 5]) for _ in range(n)]
    names = [f"b{i}" for i in range(n)]
    edges = {("L", b): float(w) for b, w in zip(names, weights)}
    for a in names:
        for b in names:
            if a != b and rng.random() < 0.1:
                loan = rng.choice([rng.randint(1, 100), rng.uniform(0.01, 100.0), 0.3])
                edges[(a, b)] = float(loan)
    net = ExposureNetwork(nodes=tuple(["L", *names]), edges=edges)
    if trial % 2:
        return net, OutShareQuota(rng.choice([0.05, 0.1, 0.9, 1.0]))
    share = rng.choice([0.1, 0.9])
    part = [w for w in weights if rng.random() < share] or weights[:1]
    return net, Absolute({"L": sum(part) + rng.choice([0.0, 0.0, TOL, -TOL])})


def test_pivotal_pass_matches_candidate_oracle_across_blocks():
    # 13 to 20 borrowers: wider lenders than the power-set oracle can check
    rng = random.Random(1813)
    spanning = checked = 0
    for trial in range(48):
        n = rng.randint(13, 20)
        net, policy = _wide_lender(rng, trial, n)
        context = (trial, net.edges, policy)
        found = _lender_pass(net, "L", policy)
        if found.groups > 30000:
            continue  # too slow for the oracle
        checked += 1
        expected = _reference_lender_pass(net, "L", policy)
        assert tuple(found) == expected, context
        assert all(type(m) is int for m in found.masses)
        expected_groups = _reference_groups(net, "L", policy, pivotal_only=True)
        assert pivotal_groups(net, "L", policy) == expected_groups, context
        assert len(expected_groups) == expected[4]
        if threshold(net, policy, "L") > 0.8 * out_strength(net, "L"):
            # few groups reach a high threshold, pivotal member or not
            expected_groups = _reference_groups(net, "L", policy, pivotal_only=False)
            assert critical_groups(net, "L", policy) == expected_groups, context
        spanning += any(len(g.members) > 1 and "b0" in g.members for g in expected_groups)
    assert checked > 40
    assert spanning > 20  # groups that join the first borrower to later ones


def test_critical_groups_match_power_set_across_blocks():
    rng = random.Random(1814)
    for trial in range(8):
        net, policy = _wide_lender(rng, trial, 13 + trial % 3)
        expected = _power_set_groups(net, "L", policy)
        assert critical_groups(net, "L", policy) == expected, (trial, net.edges, policy)
        expected_pivotal = [g for g in expected if g.pivotal]
        assert pivotal_groups(net, "L", policy) == expected_pivotal, (trial, net.edges, policy)


def test_pivotal_pass_memory_at_the_cap():
    # 25 borrowers, the cap: the pass holds its generating functions, less
    # than the candidate lists of the oracle search
    rng = random.Random(25)
    net = ingest_edges([("L", f"b{i}", rng.randint(1, 100)) for i in range(25)])
    policy = OutShareQuota(0.1)
    peaks = []
    for walk in (_lender_pass, _reference_lender_pass):
        tracemalloc.start()
        try:
            found = walk(net, "L", policy)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert found[4] == 38752  # pivotal groups
    assert peaks[0] < 2.5e6 < peaks[1], peaks


def _route_loan(rng, kind):
    if kind == "ints":
        return float(rng.randint(1, 100))
    if kind == "quarters":
        return rng.randint(1, 400) * 0.25
    if kind == "ints x 1e12":
        return rng.randint(1, 100) * 1e12
    return rng.randint(1, 63) / rng.choice([4, 8, 16, 32])  # fractional floats


@pytest.mark.parametrize("kind", ["ints", "quarters", "ints x 1e12", "floats"])
def test_counting_and_walking_give_equal_passes(kind):
    # every lender, with up to 25 borrowers, through both routes; the wide
    # lender "L" gets a quota that keeps its pivotal groups few enough to walk
    rng = random.Random(f"routes:{kind}")
    sizes, counted = set(), 0
    for trial in range(40):
        n = rng.randint(1, 25)
        names = [f"b{i}" for i in range(n)] + rng.sample(["c", "d", "e", "9", "10"], 3)
        edges = {("L", b): _route_loan(rng, kind) for b in names[:n]}
        for a in names:
            for b in names:
                if a != b and rng.random() < 0.15:
                    edges[(a, b)] = _route_loan(rng, kind)
        nodes = tuple(sorted({"L", *names}, key=node_sort_key))
        net = ExposureNetwork(nodes=nodes, edges=edges)
        if n > 16:
            policy = OutShareQuota(rng.choice([0.05, 0.9, 1.0]))
        elif trial % 2:
            policy = OutShareQuota(rng.choice([0.1, 0.25, 0.5, 0.75]))
        else:
            quotas = {}
            for lender in nodes:
                loans = [net.weight(lender, b) for b in net.borrowers_of(lender)]
                if loans:
                    part = [w for w in loans if rng.random() < 0.5] or loans[:1]
                    quotas[lender] = sum(part) + rng.choice([0.0, 0.0, TOL, -TOL])
            policy = Absolute(quotas)
        for lender in nodes:
            found = _search_input(net, lender, policy, 25)
            if found is None:
                continue
            units = lricnet.groups._units(net, *found[:2])
            walked = _tally(*found, units)
            assert _count(*found, units) == walked, (kind, trial, lender, edges, policy)
            assert walked == _lender_pass(net, lender, policy)
            sizes.add(len(found[0]))
            counted += _pass(net, *found)[1]
    assert max(sizes) > 20 and counted > 5, (sizes, counted)

"""Path-based long-range influence.

The micro-oracles work on hand-built chains whose step influences were
taken from a worked 11-node exercise (rounded to two decimals), so the
expected products/minima/grade scores are exact arithmetic on those inputs.
Matrix-level oracles use the exact fractions instead.
"""

import json
import random

import numpy as np
import pytest

from lricnet import (
    EIGHT_LEVEL,
    FIVE_LEVEL,
    ExposureNetwork,
    GradeSchema,
    OutShareQuota,
    RhoPath,
    aggregate_paths,
    best_graded_path,
    influence_matrix,
    ingest_edges,
    load_grade_schema,
    lric_paths_matrices,
    lric_paths_matrix,
    lric_paths_vector,
    net_mutual_exposures,
    path_influence,
    path_score_v,
    simple_paths,
    weighted_vector,
)
from lricnet.paths import PATH_METHODS

# five chains from node 5 to node 1 of the bow-tie fixture
P_521 = RhoPath(("5", "2", "1"), (0.2, 1.0))
P_531 = RhoPath(("5", "3", "1"), (0.4, 0.4))
P_541 = RhoPath(("5", "4", "1"), (0.29, 0.6))
P_5231 = RhoPath(("5", "2", "3", "1"), (0.2, 0.6, 0.4))
P_5431 = RhoPath(("5", "4", "3", "1"), (0.29, 1.0, 0.4))
MICRO = [P_521, P_531, P_541, P_5231, P_5431]


def test_rho_path_validation():
    with pytest.raises(ValueError):
        RhoPath(("a",), ())
    with pytest.raises(ValueError, match="revisits"):
        RhoPath(("a", "b", "a"), (0.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        RhoPath(("a", "b"), (0.0,))
    with pytest.raises(ValueError):
        RhoPath(("a", "b"), (0.5, 0.5))


def test_path_influence_micro():
    products = [path_influence(p) for p in MICRO]
    minima = [path_influence(p, "min") for p in MICRO]
    assert products == pytest.approx([0.2, 0.16, 0.174, 0.048, 0.116], abs=1e-3)
    assert minima == pytest.approx([0.2, 0.4, 0.29, 0.2, 0.29], abs=1e-9)
    with pytest.raises(ValueError):
        path_influence(P_521, "sum")


def test_grade_five_level():
    expected = {0.0: 0, -0.5: 0, 0.2: 1, 0.25: 1, 0.2500001: 2, 0.5: 2, 0.8: 3, 0.81: 4, 1.0: 4, 1.7: 4}
    for c, g in expected.items():
        assert FIVE_LEVEL.grade(c) == g, c
    assert FIVE_LEVEL.positive_grades == 4


def test_grade_eight_level():
    # lower-inclusive bins; the top grade is reserved for exactly 1
    expected = {0.2: 1, 0.25: 2, 0.49: 2, 0.5: 3, 0.75: 4, 0.85: 5, 0.92: 6, 0.9999: 6, 1.0: 7}
    for c, g in expected.items():
        assert EIGHT_LEVEL.grade(c) == g, c
    assert EIGHT_LEVEL.positive_grades == 7


def test_grade_schema_validation():
    with pytest.raises(ValueError):
        GradeSchema(bounds=())
    with pytest.raises(ValueError, match="increasing"):
        GradeSchema(bounds=(0.5, 0.25, 1.0))
    with pytest.raises(ValueError, match="last bound"):
        GradeSchema(bounds=(0.25, 0.5))
    with pytest.raises(ValueError, match="labels"):
        GradeSchema(bounds=(0.5, 1.0), labels=("only one",))


def test_path_score_v_micro():
    scores = [path_score_v(p, FIVE_LEVEL, s=3) for p in MICRO]
    assert scores == [66, 33, 21, 84, 33]
    with pytest.raises(ValueError, match="below the path length"):
        path_score_v(P_5231, FIVE_LEVEL, s=2)


def test_best_graded_path_and_stability():
    assert best_graded_path(MICRO, FIVE_LEVEL, s=3) is P_541
    # the winner does not flip when the horizon grows
    assert best_graded_path(MICRO, FIVE_LEVEL, s=10) is P_541
    # exact tie (33 vs 33) resolved by smallest node sequence
    assert best_graded_path([P_5431, P_531], FIVE_LEVEL, s=3) is P_531


def test_aggregate_paths_micro():
    assert aggregate_paths(MICRO, "sumpaths") == pytest.approx(0.698, abs=1e-3)
    assert aggregate_paths(MICRO, "maxpath") == pytest.approx(0.2, abs=1e-9)
    assert aggregate_paths(MICRO, "maxmin") == pytest.approx(0.4, abs=1e-9)
    assert aggregate_paths(MICRO, "multt", s=3) == pytest.approx(0.174, abs=1e-3)
    assert aggregate_paths(MICRO, "maxt", s=3) == pytest.approx(0.29, abs=1e-9)
    assert aggregate_paths([], "sumpaths") == 0.0
    with pytest.raises(ValueError):
        aggregate_paths(MICRO, "median")


def test_sumpaths_clips_at_one():
    heavy = [RhoPath(("a", "b"), (0.9,)), RhoPath(("a", "c", "b"), (0.9, 0.9))]
    assert aggregate_paths(heavy, "sumpaths") == 1.0


def test_influence_matrix_ex1(ex1, quarter):
    c = influence_matrix(ex1, quarter)
    expected = {
        ("1", "2"): 1.0, ("1", "5"): 1.0,
        ("2", "6"): 1.0, ("2", "9"): 1.0,
        ("3", "6"): 1.0,
        ("4", "6"): 1.0,
        ("5", "6"): 1.0, ("5", "7"): 0.5, ("5", "8"): 0.5,
        ("7", "9"): 1.0, ("7", "10"): 1.0,
        ("8", "10"): 1.0,
    }
    for i in ex1.nodes:
        for j in ex1.nodes:
            assert c.entry(i, j) == pytest.approx(expected.get((i, j), 0.0)), (i, j)


def test_influence_matrix_ex2_fractions(ex2, quarter):
    c = influence_matrix(ex2, quarter)
    assert c.entry("1", "3") == pytest.approx(16 / 40)
    assert c.entry("1", "4") == pytest.approx(24 / 40)
    assert c.entry("2", "5") == pytest.approx(6 / 30)
    assert c.entry("2", "8") == pytest.approx(24 / 30)
    assert c.entry("4", "5") == pytest.approx(10 / 34)
    assert c.entry("4", "9") == pytest.approx(24 / 34)
    assert c.entry("6", "11") == 1.0
    assert c.entry("6", "10") == 0.0  # never pivotal for lender 6
    assert c.entry("10", "1") == 1.0


def test_simple_paths_bowtie(ex2, quarter):
    c = influence_matrix(ex2, quarter)
    found = simple_paths(c, "5", "1")
    assert {p.nodes for p in found} == {
        ("5", "2", "1"),
        ("5", "3", "1"),
        ("5", "4", "1"),
        ("5", "2", "3", "1"),
        ("5", "4", "3", "1"),
    }
    by_nodes = {p.nodes: p for p in found}
    assert by_nodes[("5", "2", "1")].influences == pytest.approx((0.2, 1.0))
    assert by_nodes[("5", "4", "1")].influences == pytest.approx((10 / 34, 0.6))
    # two-step horizon drops the three-step chains
    assert len(simple_paths(c, "5", "1", s=2)) == 3
    assert simple_paths(c, "5", "1", s=1) == []
    assert simple_paths(c, "5", "5") == []


def test_simple_paths_from_terminal_borrower(ex2, quarter):
    c = influence_matrix(ex2, quarter)
    found = simple_paths(c, "11", "1", s=3)
    assert {p.nodes for p in found} == {
        ("11", "6", "2", "1"),
        ("11", "7", "4", "1"),
        ("11", "8", "2", "1"),
        ("11", "9", "4", "1"),
    }


def test_matrix_spot_values(ex2, quarter):
    sums = lric_paths_matrix(ex2, quarter, "sumpaths")
    assert sums.entry("1", "5") == pytest.approx(0.702, abs=1e-3)
    assert sums.entry("1", "8") == pytest.approx(0.992, abs=1e-3)
    assert sums.entry("1", "9") == pytest.approx(24 / 34, abs=1e-4)
    assert sums.entry("3", "5") == pytest.approx(0.814, abs=1e-3)
    assert sums.entry("1", "11") == 1.0
    mult = lric_paths_matrix(ex2, quarter, "multt")
    assert mult.entry("1", "5") == pytest.approx(0.176, abs=1e-3)


def test_single_step_matrix_equals_direct_influence(ex1, quarter):
    c = influence_matrix(ex1, quarter)
    for method in ("sumpaths", "maxpath", "maxmin", "multt", "maxt"):
        one = lric_paths_matrix(ex1, quarter, method, s=1)
        assert np.allclose(one.values, c.values), method


def test_vector_normalization(ex2, quarter):
    vec = lric_paths_vector(ex2, quarter, "sumpaths")
    assert sum(vec.values()) == pytest.approx(1.0)
    # nobody is exposed to node 10, while node 11 dominates the system
    assert vec["10"] == 0.0 and vec["11"] > 0.25


def test_weighted_vector_zero_lending():
    net = ingest_edges([("a", "b", 0)])
    from lricnet import InfluenceMatrix

    matrix = InfluenceMatrix(nodes=net.nodes, values=np.zeros((2, 2)), variant="paths")
    assert weighted_vector(net, matrix) == {"a": 0.0, "b": 0.0}


def test_unknown_method_rejected(ex1, quarter):
    with pytest.raises(ValueError, match="method"):
        lric_paths_matrix(ex1, quarter, "average")


def _write_schema(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_load_grade_schema_upper(tmp_path):
    p = _write_schema(
        tmp_path / "g.json",
        {"mode": "upper", "levels": [[0.5, "weak"], [1.0, "strong"]]},
    )
    schema = load_grade_schema(p)
    assert schema.bounds == (0.5, 1.0)
    assert schema.upper_inclusive
    assert schema.labels == ("weak", "strong")
    assert schema.grade(0.5) == 1 and schema.grade(0.51) == 2


def test_load_grade_schema_lower(tmp_path):
    p = _write_schema(
        tmp_path / "g.json",
        {"mode": "lower", "levels": [[0.5, "weak"], [1.0, "strong"]]},
    )
    schema = load_grade_schema(p)
    assert not schema.upper_inclusive
    assert schema.labels is None
    assert schema.positive_grades == 3


def test_load_grade_schema_rejects_bad_mode(tmp_path):
    p = _write_schema(tmp_path / "g.json", {"mode": "middle", "levels": [[1.0, "x"]]})
    with pytest.raises(ValueError, match="mode"):
        load_grade_schema(p)
    p2 = _write_schema(tmp_path / "g2.json", {"mode": "upper", "levels": []})
    with pytest.raises(ValueError, match="levels"):
        load_grade_schema(p2)


# integer-like ids sort numerically before the rest, so "9" < "10" < "B" < "a"
# in node order while plain string order gives "10" < "9" < "B" < "a"
FOLD_IDS = ["1", "2", "9", "10", "12", "100", "B", "a", "b", "x7"]


def _per_pair_reference(net, policy, s, schema):
    """Every method's matrix from simple_paths + aggregate_paths per pair."""
    c = influence_matrix(net, policy)
    n = len(c.nodes)
    s_eff = n - 1 if s is None else s
    ref = {method: np.zeros((n, n)) for method in PATH_METHODS}
    for j, source in enumerate(c.nodes):
        for i, target in enumerate(c.nodes):
            if i == j:
                continue
            chains = simple_paths(c, source, target, s_eff)
            if chains:
                for method, values in ref.items():
                    values[i, j] = aggregate_paths(chains, method, schema, s_eff)
    return ref


def _random_fold_net(rng):
    ids = rng.sample(FOLD_IDS, rng.randint(2, 9))
    integer = rng.random() < 0.5  # integer weights give many equal influences
    records = [
        (a, b, rng.randint(1, 6) if integer else rng.uniform(0.1, 10.0))
        for a in ids
        for b in ids
        if a != b and rng.random() < 0.45
    ]
    net = net_mutual_exposures(ingest_edges(records))
    nodes = list(net.nodes)
    if rng.random() < 0.5:
        # node tuple out of node order: index order differs from node order
        rng.shuffle(nodes)
    return ExposureNetwork(nodes=tuple(nodes), edges=net.edges)


def test_one_pass_fold_matches_per_pair_oracle():
    rng = random.Random(20181027)
    for case in range(240):
        net = _random_fold_net(rng)
        policy = OutShareQuota(rng.choice([0.2, 0.25, 0.4, 0.5, 1.0]))
        s = (None, 1, 2, 3)[case % 4]
        schema = (FIVE_LEVEL, EIGHT_LEVEL)[case // 4 % 2]
        got = lric_paths_matrices(net, policy, s, schema)
        ref = _per_pair_reference(net, policy, s, schema)
        assert list(got) == list(ref)
        for method, matrix in got.items():
            assert matrix.nodes == net.nodes
            assert matrix.variant == f"paths:{method}"
            assert np.array_equal(matrix.values, ref[method]), (case, method, net.nodes, s)
            if case % 8 == 0:
                single = lric_paths_matrix(net, policy, method, s, schema)
                assert np.array_equal(single.values, matrix.values)
                assert single.variant == matrix.variant


@pytest.mark.parametrize("reverse", [False, True])
def test_one_pass_fold_breaks_grade_ties_in_node_order(reverse):
    # out-share 1: every borrower is pivotal with influence weight / lending.
    # Chains s -> 9 -> t and s -> 10 -> t grade (4, 2) alike, so the tie goes
    # to the smaller node sequence, via "9", whose product is 0.3, not 0.4.
    net = ingest_edges(
        [("t", "9", 3), ("t", "10", 4), ("t", "x", 3), ("9", "s", 1), ("10", "s", 1)]
    )
    nodes = tuple(reversed(net.nodes)) if reverse else net.nodes
    net = ExposureNetwork(nodes=nodes, edges=net.edges)
    policy = OutShareQuota(1.0)
    got = lric_paths_matrices(net, policy)
    assert got["multt"].entry("t", "s") == 0.3
    assert got["maxt"].entry("t", "s") == 0.3
    assert got["maxpath"].entry("t", "s") == 0.4
    assert got["sumpaths"].entry("t", "s") == 0.3 + 0.4
    ref = _per_pair_reference(net, policy, None, FIVE_LEVEL)
    for method, matrix in got.items():
        assert np.array_equal(matrix.values, ref[method]), method

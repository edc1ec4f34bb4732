"""Construction, netting, strengths, thresholds, CSV ingestion."""

import math
import random

import pytest

from lricnet import (
    Absolute,
    AttributeShare,
    ExposureNetwork,
    OutShareQuota,
    SimulationPlan,
    in_strength,
    ingest_edges,
    kbi,
    lric_paths_vector,
    lric_sim_vector,
    net_mutual_exposures,
    node_sort_key,
    normalize_by_attribute,
    out_strength,
    read_attributes_csv,
    read_edges_csv,
    threshold,
)


def test_node_sort_key_orders_numerically():
    nodes = ["10", "2", "1", "b", "a"]
    assert sorted(nodes, key=node_sort_key) == ["1", "2", "10", "a", "b"]


def test_ingest_sums_duplicates_and_drops_zeros():
    net = ingest_edges([("a", "b", 3), ("a", "b", 2), ("b", "c", 0)])
    assert net.weight("a", "b") == 5
    assert ("b", "c") not in net.edges
    assert "c" in net.nodes  # zero-weight record still introduces the node


def test_ingest_rejects_negative_weight():
    with pytest.raises(ValueError, match="negative"):
        ingest_edges([("a", "b", -1)])


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_ingest_rejects_non_finite_weight(w):
    with pytest.raises(ValueError, match=r"non-finite weight in record \('a', 'b', "):
        ingest_edges([("a", "b", 1), ("a", "b", w)])


@pytest.mark.parametrize("w", [math.nan, math.inf])
def test_network_rejects_non_finite_weight(w):
    # a library caller building the network directly, bypassing the readers
    with pytest.raises(ValueError, match=r"non-finite weight on edge 'a'->'b'"):
        ExposureNetwork(nodes=("a", "b", "c"), edges={("a", "b"): w, ("a", "c"): 1.0})


def test_ingest_rejects_duplicates_summing_to_infinity():
    with pytest.raises(ValueError, match=r"'a'->'b' sum to a non-finite value"):
        ingest_edges([("a", "b", 1e308), ("a", "b", 1e308)])


# three nets whose weights are finite but whose sums are not: a's lending,
# b's borrowing, and only the total lending of all lenders
LENDING_OVERFLOW = [("a", "b", 1e308), ("a", "c", 1e308)]
BORROWING_OVERFLOW = [("a", "b", 1e308), ("c", "b", 1e308)]
TOTAL_OVERFLOW = [("a", "b", 1e308), ("b", "c", 1e308), ("c", "d", 1e308)]


@pytest.mark.parametrize(
    "edges, message",
    [
        (LENDING_OVERFLOW, "loans of 'a' sum to a non-finite value"),
        (BORROWING_OVERFLOW, "loans to 'b' sum to a non-finite value"),
    ],
)
def test_strengths_that_overflow_name_the_node(edges, message):
    with pytest.raises(ValueError, match=message):
        ingest_edges(edges)
    with pytest.raises(ValueError, match=message):
        ExposureNetwork(nodes=("a", "b", "c"), edges={(a, b): w for a, b, w in edges})


def test_total_lending_that_overflows_is_a_value_error():
    net = ingest_edges(TOTAL_OVERFLOW)
    assert net.out_strengths == {"a": 1e308, "b": 1e308, "c": 1e308, "d": 0.0}
    policy = OutShareQuota(0.25)
    plan = SimulationPlan(mode="exhaustive", k0_max=1)
    for scores in (
        lambda: kbi(net, policy),
        lambda: lric_paths_vector(net, policy, "maxpath"),
        lambda: lric_sim_vector(net, policy, plan),
    ):
        with pytest.raises(ValueError, match="the loans of all lenders sum to a non-finite value"):
            scores()


def test_ingest_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        ingest_edges([("a", "a", 1)])


def test_ingest_keeps_attribute_only_nodes():
    net = ingest_edges([("a", "b", 1)], attributes={"gdp": {"c": 7.0}})
    assert "c" in net.nodes
    assert net.attribute("gdp", "c") == 7.0
    assert net.attribute("gdp", "a") is None


def test_netting_keeps_positive_difference():
    net = ingest_edges([("a", "b", 10), ("b", "a", 4), ("b", "c", 3)])
    netted = net_mutual_exposures(net)
    assert netted.weight("a", "b") == 6
    assert netted.weight("b", "a") == 0
    assert netted.weight("b", "c") == 3


def test_netting_drops_equal_mutual_pair():
    netted = net_mutual_exposures(ingest_edges([("a", "b", 5), ("b", "a", 5)]))
    assert not netted.edges
    assert set(netted.nodes) == {"a", "b"}


def test_netting_is_idempotent():
    net = ingest_edges([("a", "b", 10), ("b", "a", 4), ("c", "a", 2)])
    once = net_mutual_exposures(net)
    twice = net_mutual_exposures(once)
    assert once.edges == twice.edges


def test_strengths_ex1(ex1):
    expected_out = [1000, 200, 150, 60, 1100, 0, 1000, 150, 0, 0]
    expected_in = [0, 500, 150, 150, 400, 1000, 200, 200, 660, 400]
    for i in range(10):
        node = str(i + 1)
        assert out_strength(ex1, node) == expected_out[i]
        assert in_strength(ex1, node) == expected_in[i]


def test_strength_unknown_node(ex1):
    with pytest.raises(ValueError, match="unknown node"):
        out_strength(ex1, "42")


def test_out_share_threshold(ex1, quarter):
    assert threshold(ex1, quarter, "1") == pytest.approx(250.0)
    assert threshold(ex1, quarter, "6") is None  # pure borrower


def test_out_share_fraction_bounds():
    with pytest.raises(ValueError):
        OutShareQuota(0.0)
    with pytest.raises(ValueError):
        OutShareQuota(1.5)


def test_attribute_share_threshold():
    net = ingest_edges([("a", "b", 50)], attributes={"gdp": {"a": 200.0}})
    assert threshold(net, AttributeShare("gdp", 0.10), "a") == pytest.approx(20.0)


def test_attribute_share_names_node_without_value():
    net = ingest_edges([("a", "b", 50)])
    with pytest.raises(ValueError, match="'a'"):
        threshold(net, AttributeShare("gdp", 0.10), "a")


def test_absolute_threshold_names_missing_node():
    net = ingest_edges([("a", "b", 50)])
    assert threshold(net, Absolute({"a": 30.0}), "a") == 30.0
    with pytest.raises(ValueError, match="'a'"):
        threshold(net, Absolute({}), "a")


@pytest.mark.parametrize("q", [math.nan, math.inf, 0.0])
def test_absolute_threshold_rejects_non_positive_or_non_finite(q):
    net = ingest_edges([("a", "b", 1), ("a", "c", 2), ("b", "c", 1)])
    policy = Absolute({"a": q, "b": 1.0})
    with pytest.raises(ValueError, match="lender 'a' has no positive finite threshold"):
        threshold(net, policy, "a")
    # kbi fails as well, instead of giving 'a' an all-zero row
    with pytest.raises(ValueError, match="lender 'a' has no positive finite threshold"):
        kbi(net, policy)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_attribute_share_rejects_non_finite_attribute(value):
    net = ingest_edges([("a", "b", 50)], attributes={"gdp": {"a": value}})
    with pytest.raises(ValueError, match="lender 'a' has no positive finite 'gdp' attribute"):
        threshold(net, AttributeShare("gdp", 0.10), "a")
    with pytest.raises(ValueError, match="lender 'a' has no positive finite 'gdp' attribute"):
        normalize_by_attribute(net, "gdp")


def test_normalize_by_attribute():
    net = ingest_edges(
        [("a", "b", 50), ("b", "c", 30)],
        attributes={"gdp": {"a": 100.0, "b": 10.0}},
    )
    scaled = normalize_by_attribute(net, "gdp")
    assert scaled.weight("a", "b") == pytest.approx(0.5)
    assert scaled.weight("b", "c") == pytest.approx(3.0)


def test_normalize_names_lender_without_value():
    net = ingest_edges([("a", "b", 50)], attributes={"gdp": {"b": 1.0}})
    with pytest.raises(ValueError, match="'a'"):
        normalize_by_attribute(net, "gdp")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_read_edges_csv(tmp_path):
    p = _write(tmp_path / "e.csv", "from,to,weight\na,b,1.5\n\nb,c,2\n")
    assert read_edges_csv(p) == [("a", "b", 1.5), ("b", "c", 2.0)]


def test_read_edges_csv_bad_header(tmp_path):
    p = _write(tmp_path / "e.csv", "source,target,w\na,b,1\n")
    with pytest.raises(ValueError, match="line 1"):
        read_edges_csv(p)


def test_read_edges_csv_reports_line_numbers(tmp_path):
    p = _write(tmp_path / "e.csv", "from,to,weight\na,b,1\na,c,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        read_edges_csv(p)
    p2 = _write(tmp_path / "e2.csv", "from,to,weight\na,b\n")
    with pytest.raises(ValueError, match="line 2"):
        read_edges_csv(p2)


@pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
def test_read_edges_csv_rejects_non_finite_weight(tmp_path, raw):
    p = _write(tmp_path / "e.csv", f"from,to,weight\na,b,1\na,c,{raw}\n")
    with pytest.raises(ValueError, match=r"e\.csv: line 3: non-finite weight"):
        read_edges_csv(p)


def test_read_attributes_csv(tmp_path):
    p = _write(tmp_path / "a.csv", "node,gdp,pop\na,1.5,\nb,2,3\n")
    attrs = read_attributes_csv(p)
    assert attrs == {"gdp": {"a": 1.5, "b": 2.0}, "pop": {"b": 3.0}}


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_read_attributes_csv_rejects_non_finite_value(tmp_path, raw):
    p = _write(tmp_path / "a.csv", f"node,gdp\na,1\nb,{raw}\n")
    with pytest.raises(ValueError, match=r"a\.csv: line 3: non-finite gdp value"):
        read_attributes_csv(p)


def test_read_attributes_csv_duplicate_node(tmp_path):
    p = _write(tmp_path / "a.csv", "node,gdp\na,1\na,2\n")
    with pytest.raises(ValueError, match="line 3"):
        read_attributes_csv(p)


@pytest.mark.parametrize(
    "header, message",
    [
        ("node,gdp,gdp", "line 1: duplicate attribute 'gdp'"),
        ("node,gdp,pop,gdp", "line 1: duplicate attribute 'gdp'"),
        ("node,gdp, gdp ", "line 1: duplicate attribute 'gdp'"),
        ("node,gdp,", "line 1: empty attribute name"),
        ("node,,gdp", "line 1: empty attribute name"),
    ],
)
def test_read_attributes_csv_rejects_bad_attribute_names(tmp_path, header, message):
    # a repeated name would keep only its last column's values
    fields = header.count(",")
    p = _write(tmp_path / "a.csv", f"{header}\na" + ",1" * fields + "\n")
    with pytest.raises(ValueError) as raised:
        read_attributes_csv(p)
    assert str(raised.value) == f"{p}: {message}"


def test_views_equal_edge_scans():
    # "1" and "01" tie under node_sort_key, so their order is the edges order
    rng = random.Random(5)
    ids = ["1", "01", "2", "10", "a", "b", "x"]
    for _ in range(50):
        edges = {}
        for a in ids:
            for b in rng.sample(ids, 4):
                if a != b:
                    edges[(a, b)] = rng.choice([0.1, 0.2, 0.3, 1e-9, 7.0, rng.uniform(0, 1e6)])
        net = ExposureNetwork(nodes=tuple(sorted(ids, key=node_sort_key)), edges=edges)
        assert net.index == {v: k for k, v in enumerate(net.nodes)}
        for v in ids:
            # the exact sum rounded once, whatever the order of the edges
            assert out_strength(net, v) == math.fsum(w for (a, _), w in edges.items() if a == v)
            assert in_strength(net, v) == math.fsum(w for (_, b), w in edges.items() if b == v)
            scanned = [b for (a, b) in edges if a == v]
            assert net.borrowers_of(v) == tuple(sorted(scanned, key=node_sort_key))
        assert net.borrowers_of("unknown") == ()

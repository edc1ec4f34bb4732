"""Classical baseline measures on the two fixtures.

Degree and betweenness oracles are exact hand counts; eigenvector and
pagerank oracles were frozen from an independent dense-matrix computation
(power iteration on the symmetrized weights, and the damped random surfer
with uniform dangling mass).
"""

import pytest

from lricnet import (
    betweenness,
    centrality_table,
    closeness,
    degree_measures,
    eigenvector,
    ingest_edges,
    pagerank,
)

EX1_BETWEENNESS = [0, 1, 0, 3, 5, 0, 6, 0, 0, 0]
EX2_BETWEENNESS = [45, 23, 0, 17, 0, 10, 10, 0, 0, 43, 0]

EX1_EIGENVECTOR = [0.67, 0.456, 0.214, 0.114, 1.0, 0.808, 0.455, 0.23, 0.309, 0.153]
EX2_EIGENVECTOR = [0.609, 0.567, 0.282, 0.473, 0.068, 0.7, 0.655, 0.561, 0.549, 0.641, 1.0]

EX1_PAGERANK = [0.057, 0.081, 0.085, 0.066, 0.077, 0.252, 0.069, 0.069, 0.113, 0.13]
EX2_PAGERANK = [0.114, 0.103, 0.05, 0.083, 0.054, 0.096, 0.081, 0.056, 0.052, 0.093, 0.219]


def _as_list(scores, n):
    return [scores[str(i + 1)] for i in range(n)]


def test_degree_measures_ex1(ex1):
    win, wout, wdiff, wdeg = degree_measures(ex1)
    assert _as_list(wout, 10) == [1000, 200, 150, 60, 1100, 0, 1000, 150, 0, 0]
    assert _as_list(win, 10) == [0, 500, 150, 150, 400, 1000, 200, 200, 660, 400]
    # node 7 lends 1000 and borrows 200, so its difference is +800; the
    # reference row flips that one sign against its own in/out rows
    assert _as_list(wdiff, 10) == [1000, -300, 0, -90, 700, -1000, 800, -50, -660, -400]
    assert all(wdeg[v] == win[v] + wout[v] for v in ex1.nodes)


def test_degree_measures_ex2(ex2):
    win, wout, wdiff, wdeg = degree_measures(ex2)
    assert _as_list(win, 11) == [100, 84, 16, 84, 32, 70, 66, 24, 24, 96, 304]
    assert _as_list(wout, 11) == [100, 100, 100, 100, 0, 100, 100, 100, 100, 100, 0]


def test_betweenness_exact(ex1, ex2):
    assert _as_list(betweenness(ex1), 10) == EX1_BETWEENNESS
    assert _as_list(betweenness(ex2), 11) == EX2_BETWEENNESS


def test_eigenvector(ex1, ex2):
    got1 = _as_list(eigenvector(ex1), 10)
    got2 = _as_list(eigenvector(ex2), 11)
    assert got1 == pytest.approx(EX1_EIGENVECTOR, abs=0.005)
    assert got2 == pytest.approx(EX2_EIGENVECTOR, abs=0.005)
    assert max(got1) == 1.0
    assert max(got2) == 1.0


def test_eigenvector_bipartite_star():
    # spectrum of the symmetrized star is {-sqrt 5, 0, sqrt 5}: the plain
    # iteration alternates between two vectors and never converges
    scores = eigenvector(ingest_edges([("L", "a", 1), ("L", "b", 2)]))
    assert scores == pytest.approx({"L": 1.0, "a": 5**-0.5, "b": 2 * 5**-0.5}, abs=1e-9)


def test_eigenvector_requires_edges():
    net = ingest_edges([("a", "b", 0)])  # nodes survive, edge does not
    with pytest.raises(ValueError):
        eigenvector(net)


def test_pagerank(ex1, ex2):
    got1 = _as_list(pagerank(ex1), 10)
    got2 = _as_list(pagerank(ex2), 11)
    assert got1 == pytest.approx(EX1_PAGERANK, abs=0.005)
    assert got2 == pytest.approx(EX2_PAGERANK, abs=0.005)
    assert sum(got1) == pytest.approx(1.0)
    assert sum(got2) == pytest.approx(1.0)


def test_pagerank_damping_validation(ex1):
    with pytest.raises(ValueError):
        pagerank(ex1, damping=1.0)


def test_closeness_unreachable_pairs_cost_vertex_count(ex1):
    # node 1 has no incoming edges: all 9 pairs unreachable, each costing 10
    assert closeness(ex1, "in")["1"] == pytest.approx(1 / 90)


def test_closeness_two_node_chain():
    net = ingest_edges([("a", "b", 2)])
    out = closeness(net, "out")
    assert out["a"] == pytest.approx(0.5)  # one reachable node at distance 2
    assert out["b"] == pytest.approx(0.5)  # one unreachable pair costing n=2


def test_closeness_isolated_single_node():
    net = ingest_edges([], attributes={"gdp": {"a": 1.0}})
    assert closeness(net, "out") == {"a": 0.0}


def test_closeness_two_isolated_nodes():
    # the zero-weight record keeps both nodes but drops the edge,
    # so each node has one unreachable pair costing n=2
    net = ingest_edges([("a", "b", 0)])
    assert closeness(net, "out") == {"a": 0.5, "b": 0.5}


def test_closeness_direction_validation(ex1):
    with pytest.raises(ValueError):
        closeness(ex1, "sideways")


def test_centrality_table_collects_everything(ex1):
    table = centrality_table(ex1)
    assert table.betw == betweenness(ex1)
    assert table.wout["1"] == 1000
    assert table.clos_in["1"] == pytest.approx(1 / 90)


def test_centrality_is_deterministic(ex2):
    assert eigenvector(ex2) == eigenvector(ex2)
    assert pagerank(ex2) == pagerank(ex2)

"""Classical baseline measures on the two fixtures.

Degree and betweenness oracles are exact hand counts; eigenvector and
pagerank oracles were frozen from an independent dense-matrix computation
(power iteration on the symmetrized weights, and the damped random surfer
with uniform dangling mass).  Betweenness is also checked against a
reference that lists every fewest-hop path and sums exact fractions.
"""

import heapq
import math
import random
import sys
from collections import deque
from fractions import Fraction

import numpy as np
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
from lricnet.centrality import _scaled
from lricnet.cli import emit_report

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


def _hop_levels(adj, source):
    level = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, []):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _level_paths(adj, level, s, t):
    """All fewest-hop s->t paths, walking strictly down BFS levels."""
    out = []
    stack = [[s]]
    while stack:
        path = stack.pop()
        u = path[-1]
        if u == t:
            out.append(path)
            continue
        for v in adj.get(u, []):
            if level.get(v) == level[u] + 1 and level[v] <= level[t]:
                stack.append(path + [v])
    return out


def _reference_betweenness(net):
    """Every fewest-hop path of maximal total weight, exact credit per pair."""
    adj = {}
    for a, b in net.edges:
        adj.setdefault(a, []).append(b)
    score = dict.fromkeys(net.nodes, Fraction(0))
    for s in net.nodes:
        level = _hop_levels(adj, s)
        for t, hops in level.items():
            if hops < 2:
                continue
            paths = _level_paths(adj, level, s, t)
            totals = [sum(net.edges[p[k], p[k + 1]] for k in range(len(p) - 1)) for p in paths]
            chosen = [p for p, total in zip(paths, totals) if total == max(totals)]
            for p in chosen:
                for mid in p[1:-1]:
                    score[mid] += Fraction(1, len(chosen))
    return score


def _integer_weight_net(rng, draw):
    n = rng.randint(3, 9)
    density = rng.uniform(0.2, 0.6)
    return ingest_edges([
        (str(a), str(b), draw(rng))
        for a in range(n)
        for b in range(n)
        if a != b and rng.random() < density
    ])


@pytest.mark.parametrize("draw", [
    lambda rng: rng.randint(1, 100),
    lambda rng: rng.randint(1, 3),
    lambda rng: 1,
], ids=["weights-1-100", "weights-1-3", "weights-equal"])
def test_betweenness_is_the_rounded_exact_credit_sum(draw):
    # integer weights add exactly, so the hop-by-hop maximum and the
    # maximum over whole paths pick the same geodesics
    rng = random.Random(13)
    for _ in range(200):
        net = _integer_weight_net(rng, draw)
        reference = _reference_betweenness(net)
        assert betweenness(net) == {v: float(x) for v, x in reference.items()}


def test_betweenness_fixtures_match_reference(ex1, ex2):
    for net in (ex1, ex2):
        assert betweenness(net) == {v: float(x) for v, x in _reference_betweenness(net).items()}


def test_betweenness_exact_tie_shares_a_rank():
    # nodes 0 and 3 both score exactly 10/3; summing 1/k path by path in
    # floats gave them two different floats and two ranks
    edges = [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (3, 2), (3, 4),
             (4, 0)]
    scores = betweenness(ingest_edges([(str(a), str(b), 1) for a, b in edges]))
    assert scores["0"] == scores["3"] == 10 / 3
    assert emit_report(scores).decode().splitlines()[1:3] == ["0,3.333333,1", "3,3.333333,1"]


def test_betweenness_maximum_is_taken_hop_by_hop():
    # both s->t paths sum to the same float, but at c the prefix through b
    # (0.25 + 0.05) is smaller than the one through a (0.1 + 0.2)
    net = ingest_edges([
        ("s", "a", 0.1), ("a", "c", 0.2), ("s", "b", 0.25), ("b", "c", 0.05), ("c", "t", 1.0),
    ])
    assert 0.1 + 0.2 + 1.0 == 0.25 + 0.05 + 1.0 and 0.1 + 0.2 > 0.25 + 0.05
    assert betweenness(net) == {"a": 2.0, "b": 0.0, "c": 3.0, "s": 0.0, "t": 0.0}


def test_betweenness_on_layers_lists_no_path():
    # 25 layers of 4 nodes, every node linked to the whole next layer: about
    # 4**23 geodesics join the two end layers, and a node of layer l lies on
    # a quarter of those of each of the (4l)(4(24 - l)) pairs around it
    edges = [
        (f"{layer}.{i}", f"{layer + 1}.{j}", 1)
        for layer in range(24)
        for i in range(4)
        for j in range(4)
    ]
    scores = betweenness(ingest_edges(edges))
    assert scores == {f"{layer}.{i}": 4 * layer * (24 - layer) for layer in range(25)
                      for i in range(4)}
    assert scores["12.0"] == 576


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


def test_eigenvector_of_weights_whose_row_sums_overflow():
    # the rows of b and c in A + Aᵀ + I sum past the largest float
    chain = [("a", "b"), ("b", "c"), ("c", "d")]
    big = eigenvector(ingest_edges([(a, b, 1e308) for a, b in chain]))
    small = eigenvector(ingest_edges([(a, b, 1) for a, b in chain]))
    assert big == pytest.approx(small, abs=1e-9)
    assert big["b"] == big["c"] == 1.0


# s->t runs through a and c (8 + 8 + 8) or b and d (7 + 8 + 8)
TWO_ROUTES = [("s", "a", 8), ("s", "b", 7), ("a", "c", 8), ("b", "d", 8), ("c", "t", 8),
              ("d", "t", 8)]
# the same over five hops: times 2**1019, every lending and borrowing is
# finite, but both s->t weights (40 and 39 times it) overflow
LONG_ROUTES = [
    *[(f"a{k}", f"a{k + 1}", 8) for k in range(3)], ("s", "a0", 8), ("a3", "t", 8),
    *[(f"b{k}", f"b{k + 1}", 8) for k in range(3)], ("s", "b0", 7), ("b3", "t", 8),
]


def _ring_nets():
    """Seeded nets on an odd ring, some with mutual pairs: connected and not
    bipartite once symmetrized, so the eigenvector iteration converges at
    any scale; with integer or float weights."""
    rng = random.Random(20261022)
    for k in range(40):
        n = rng.choice([3, 5, 7, 9])
        edges = {(str(a), str((a + 1) % n)): 1 for a in range(n)}
        edges.update({(str(a), str(b)): 1 for a in range(n) for b in range(n)
                      if a != b and rng.random() < 0.3})
        yield ingest_edges([
            (a, b, rng.randint(1, 9) if k % 2 else rng.uniform(0.01, 100.0)) for a, b in edges
        ])


def _powers_of_two(net):
    """Exponents from 1 to the largest that keeps every node's lending and
    borrowing finite."""
    top = max([*net.out_strengths.values(), *net.in_strengths.values()])
    last = 1024 - math.frexp(top)[1]
    return [1, 64, last - 64, last - 1, last]


def _times(net, k):
    return ingest_edges([(a, b, math.ldexp(w, k)) for (a, b), w in net.edges.items()])


def test_betweenness_does_not_change_under_powers_of_two():
    assert 1019 in _powers_of_two(ingest_edges(LONG_ROUTES))
    for net in [ingest_edges(TWO_ROUTES), ingest_edges(LONG_ROUTES), *_ring_nets()]:
        scores = betweenness(net)
        for k in _powers_of_two(net):
            assert betweenness(_times(net, k)) == scores, k


def test_eigenvector_under_powers_of_two_matches_scale_one():
    # the shift I does not grow with the loans, so the iteration stops at
    # another step, within its tolerance of the same vector
    for net in [ingest_edges(TWO_ROUTES), *_ring_nets()]:
        scores = eigenvector(net)
        for k in _powers_of_two(net):
            assert eigenvector(_times(net, k)) == pytest.approx(scores, abs=1e-9), k
    pair = ingest_edges([("a", "b", 1), ("b", "a", 1)])
    for k in _powers_of_two(pair):
        assert eigenvector(_times(pair, k)) == eigenvector(pair) == {"a": 1.0, "b": 1.0}


def test_the_scale_brings_all_loans_to_half_the_largest_float():
    half = sys.float_info.max / 2
    above = math.nextafter(half, math.inf)
    for loans, scale in [
        ([("a", "b", 1.0)], 1.0),
        ([("a", "b", half)], 1.0),
        ([("a", "b", half / 2), ("c", "d", half / 2)], 1.0),
        ([("a", "b", above)], 0.5),
        ([("a", "b", half), ("c", "d", 1e300)], 0.5),
        ([("a", "b", 1e308), ("b", "c", 1e308), ("c", "d", 1e308)], 0.25),
    ]:
        net = ingest_edges(loans)
        lists, got = _scaled(net, net._out)
        assert got == scale, loans
        assert (lists is net._out) == (scale == 1.0)
        assert [[(j, w / scale) for j, w in ls] for ls in lists] == net._out
        assert math.fsum([w for ls in lists for _, w in ls]) <= half


def test_scores_past_the_largest_float_are_those_at_scale_one():
    # both s->t weights used to overflow to inf and tie; a mutual pair used
    # to sum to an infinite matrix entry
    big = [(a, b, w * 1e307) for a, b, w in TWO_ROUTES]
    assert betweenness(ingest_edges(big)) == {
        "a": 2.0, "b": 1.0, "c": 2.0, "d": 1.0, "s": 0.0, "t": 0.0
    }
    pair = ingest_edges([("a", "b", 1e308), ("b", "a", 1e308)])
    assert eigenvector(pair) == {"a": 1.0, "b": 1.0}


def _plain_closeness(net, direction):
    """Closeness on the loans as they are, the way it was computed before
    loans were scaled; right wherever no distance total overflows."""
    nodes, index, n = net.nodes, net.index, len(net.nodes)
    adj = {}
    for (src, dst), w in net.edges.items():
        i, j = (index[src], index[dst]) if direction == "out" else (index[dst], index[src])
        adj.setdefault(i, []).append((j, w))
    result = {}
    for i, v in enumerate(nodes):
        dist = [math.inf] * n
        dist[i] = 0.0
        heap = [(0.0, i)]
        while heap:
            d, u = heapq.heappop(heap)
            if d <= dist[u]:
                for x, w in adj.get(u, []):
                    if d + w < dist[x]:
                        dist[x] = d + w
                        heapq.heappush(heap, (d + w, x))
        total = math.fsum([d if d != math.inf else n for k, d in enumerate(dist) if k != i])
        result[v] = 1.0 / total
    return result


def test_closeness_of_loans_scaled_below_the_largest_float():
    # each star's loans sum to more than half the largest float, so they
    # are scaled, but no distance total overflows
    rng = random.Random(20261023)
    for _ in range(50):
        shares = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 6))]
        loans = [("hub", f"b{k}", 1.2e308 * x / sum(shares)) for k, x in enumerate(shares)]
        net = ingest_edges([*loans, ("c", "d", 1.0)])
        assert math.fsum(net.out_strengths.values()) > 8.99e307
        for direction in ("out", "in"):
            assert closeness(net, direction) == _plain_closeness(net, direction)


@pytest.mark.parametrize("edges, direction, message", [
    ([("a", "b", 1e308), ("b", "c", 1e308), ("c", "d", 1e308)], "out", "distances from 'a'"),
    ([("a", "b", 1e308), ("b", "c", 1e308), ("c", "d", 1e308)], "in", "distances to 'c'"),
    ([(a, b, w * 1e307) for a, b, w in TWO_ROUTES], "out", "distances from 'a'"),
    ([(a, b, w * 1e307) for a, b, w in TWO_ROUTES], "in", "distances to 'c'"),
])
def test_closeness_past_the_largest_float_names_the_node(edges, direction, message):
    # on the chain a's distance to c overflows; on the two routes only totals do
    with pytest.raises(ValueError, match=f"^{message} sum to a non-finite value$"):
        closeness(ingest_edges(edges), direction)


def test_total_degree_past_the_largest_float_names_the_node():
    chain = ingest_edges([("a", "b", 1e308), ("b", "c", 1e308), ("c", "d", 1e308)])
    with pytest.raises(ValueError, match="^loans of and to 'b' sum to a non-finite value$"):
        degree_measures(chain)


def test_eigenvector_scores_an_edgeless_net_zero():
    net = ingest_edges([("a", "b", 0)])  # nodes survive, edge does not
    assert eigenvector(net) == {"a": 0.0, "b": 0.0}
    assert centrality_table(net).eig == eigenvector(net)


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


# The dense-matrix bodies that eigenvector, PageRank and the degree measures
# had before they moved to adjacency lists and exact sums, kept as oracles.


def _numpy_adjacency(net):
    nodes, index = list(net.nodes), net.index
    a = np.zeros((len(nodes), len(nodes)))
    for (src, dst), w in net.edges.items():
        a[index[src], index[dst]] = w
    return nodes, a


def _numpy_degree_measures(net):
    nodes, a = _numpy_adjacency(net)
    win = a.sum(axis=0)
    wout = a.sum(axis=1)
    return (
        dict(zip(nodes, win.tolist())),
        dict(zip(nodes, wout.tolist())),
        dict(zip(nodes, (wout - win).tolist())),
        dict(zip(nodes, (wout + win).tolist())),
    )


def _numpy_eigenvector(net, tol=1e-10, max_iter=100_000):
    nodes, a = _numpy_adjacency(net)
    s = a + a.T + np.eye(len(nodes))
    v = np.ones(len(nodes))
    for _ in range(max_iter):
        nv = s @ v
        nv = nv / np.abs(nv).max()
        if np.abs(nv - v).max() < tol:
            return dict(zip(nodes, (nv / nv.max()).tolist()))
        v = nv
    raise AssertionError("oracle did not converge")


def _numpy_pagerank(net, damping=0.85, tol=1e-12):
    nodes, a = _numpy_adjacency(net)
    n = len(nodes)
    strength = a.sum(axis=1)
    dangling = strength == 0
    p = np.zeros_like(a)
    if (~dangling).any():
        p[~dangling] = a[~dangling] / strength[~dangling, None]
    v = np.ones(n) / n
    for _ in range(100_000):
        nv = (1 - damping) / n + damping * (p.T @ v) + damping * v[dangling].sum() / n
        if np.abs(nv - v).sum() < tol:
            v = nv
            break
        v = nv
    v = v / v.sum()
    return dict(zip(nodes, v.tolist()))


def _oracle_nets(count):
    """Seeded nets of 2-14 nodes, each ordered pair an edge with probability
    0.3 (both directions may stay), with integer weights in [1, 100] or
    float weights in [0.01, 100); every net has an edge."""
    rng = random.Random(20261019)
    for k in range(count):
        n = rng.randint(2, 14)
        records = [
            (str(a), str(b), rng.randint(1, 100) if k % 2 else rng.uniform(0.01, 100.0))
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.3
        ]
        yield ingest_edges(records or [("0", "1", 1)])


def _close(got, want):
    assert got.keys() == want.keys()
    for v in want:
        assert math.isclose(got[v], want[v], rel_tol=1e-12), (v, got[v], want[v])


def test_classical_measures_match_the_dense_matrix_oracle():
    for net in _oracle_nets(200):
        win, wout, wdiff, wdeg = degree_measures(net)
        o_win, o_wout, o_wdiff, o_wdeg = _numpy_degree_measures(net)
        _close(win, o_win)
        _close(wout, o_wout)
        _close(wdeg, o_wdeg)
        # out minus in cancels, so it is held to the scale of its terms
        for v in net.nodes:
            assert abs(wdiff[v] - o_wdiff[v]) <= 1e-12 * wdeg[v], v
        _close(eigenvector(net), _numpy_eigenvector(net))
        _close(pagerank(net), _numpy_pagerank(net))


def test_eigenvector_and_pagerank_do_not_depend_on_node_labels():
    rng = random.Random(20261020)
    for net in _oracle_nets(60):
        n = len(net.nodes)
        names = dict(zip(net.nodes, rng.sample([f"x{k}" for k in range(n)], n)))
        # the edges keep their order, so each lender's strength is summed alike
        renamed = ingest_edges([(names[a], names[b], w) for (a, b), w in net.edges.items()])
        for measure in (eigenvector, pagerank):
            scores = measure(net)
            assert {names[v]: x for v, x in scores.items()} == measure(renamed), measure

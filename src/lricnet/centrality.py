"""Classical centrality baseline: degrees, closeness, betweenness, eigenvector, PageRank.

Conventions here are pinned to reproduce the reference result tables:

* degree measures report raw strength sums, not the /(n-1) textbook variant;
* closeness uses weighted Dijkstra distances, with every unreachable pair
  contributing the vertex count;
* betweenness counts, for each ordered pair, the fewest-hop paths whose
  weight is maximal hop by hop (fractional credit when several tie); credits
  are exact and rounded once, so exact ties share a rank;
* eigenvector centrality is computed on the symmetrized weights A + A^T
  (the directed spectrum is degenerate on acyclic exposure networks), and
  is 0 for every node of a net with no edge;
* PageRank is the weighted directed walk with uniform dangling
  redistribution.

Every measure works on the network's own views (strengths, edges, borrower
lists) or on adjacency lists built from them, in plain Python.  The sums of
each eigenvector and PageRank step and each closeness total are exact and
rounded once (``math.fsum``), so the scores do not depend on the order of
the nodes.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .network import ExposureNetwork, _tuple_eq, _tuple_ne


class CentralityTable(NamedTuple):
    """All per-node baseline measures, keyed by node id."""

    win: dict[str, float]
    wout: dict[str, float]
    wdiff: dict[str, float]
    wdeg: dict[str, float]
    clos_in: dict[str, float]
    clos_out: dict[str, float]
    betw: dict[str, float]
    eig: dict[str, float]
    pagerank: dict[str, float]

    __eq__, __ne__ = _tuple_eq, _tuple_ne


def degree_measures(net: ExposureNetwork) -> tuple[dict, dict, dict, dict]:
    """(in-strength, out-strength, out minus in, in plus out) per node."""
    win = {v: net.in_strengths[v] for v in net.nodes}
    wout = {v: net.out_strengths[v] for v in net.nodes}
    return (
        win,
        wout,
        {v: wout[v] - win[v] for v in net.nodes},
        {v: wout[v] + win[v] for v in net.nodes},
    )


def _dijkstra(adj: dict[int, list[tuple[int, float]]], source: int, n: int) -> list[float]:
    dist = [float("inf")] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, []):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def closeness(net: ExposureNetwork, direction: str = "out") -> dict[str, float]:
    """1 / (sum of weighted distances to or from every other node).

    direction "out" follows edges, "in" walks them backwards.  Unreachable
    pairs contribute the vertex count; a graph with a single node gets 0.
    The distance total is exact and rounded once, so it does not depend on
    the order of the nodes.
    """
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    nodes, index = list(net.nodes), net.index
    n = len(nodes)
    if n <= 1:
        return {v: 0.0 for v in nodes}
    adj: dict[int, list[tuple[int, float]]] = {}
    for (src, dst), w in net.edges.items():
        i, j = index[src], index[dst]
        if direction == "in":
            i, j = j, i
        adj.setdefault(i, []).append((j, w))
    result = {}
    for i, v in enumerate(nodes):
        dist = _dijkstra(adj, i, n)
        total = math.fsum([d if d != math.inf else float(n) for k, d in enumerate(dist) if k != i])
        result[v] = 1.0 / total if total > 0 else 0.0
    return result


def betweenness(net: ExposureNetwork) -> dict[str, float]:
    """Geodesic betweenness over fewest-hop, maximal-weight directed paths.

    For every ordered pair (s, t) the geodesics are the fewest-hop paths
    whose weight is maximal hop by hop: every prefix of a geodesic is itself
    a geodesic to the node where it ends.  The geodesics of a pair share one
    unit of credit across their interior nodes.

    One pass per source over its BFS DAG (Brandes, J. Math. Sociol. 25(2),
    2001) lists no path.  Credits are kept as exact integers over a common
    denominator and rounded once, so each score is the correctly rounded
    exact sum and nodes whose sums tie exactly get the same float.
    """
    edges = net.edges
    num = dict.fromkeys(net.nodes, 0)  # exact scores are num[v] / den
    den = 1
    for s in net.nodes:
        level, best, sigma, preds = {s: 0}, {s: 0.0}, {s: 1}, {s: []}
        order = [s]
        for u in order:  # BFS: the loop visits nodes as they are appended
            hop, prefix = level[u] + 1, best[u]
            for v in net.borrowers_of(u):
                if v not in level:
                    level[v] = hop
                    order.append(v)
                    best[v], sigma[v], preds[v] = prefix + edges[u, v], sigma[u], [u]
                elif level[v] == hop:
                    total = prefix + edges[u, v]
                    if total > best[v]:
                        best[v], sigma[v], preds[v] = total, sigma[u], [u]
                    elif total == best[v]:
                        sigma[v] += sigma[u]
                        preds[v].append(u)
        # g[v] = d * (dependency of s on v) / sigma[v], an integer
        d = math.lcm(*sigma.values())
        grow = math.lcm(den, d) // den
        if grow > 1:
            den *= grow
            num = {v: x * grow for v, x in num.items()}
        scale = den // d
        g = dict.fromkeys(order, 0)
        for v in reversed(order[1:]):
            share = d // sigma[v] + g[v]
            for u in preds[v]:
                g[u] += share
            num[v] += sigma[v] * g[v] * scale
    return {v: num[v] / den for v in net.nodes}


def eigenvector(
    net: ExposureNetwork, tol: float = 1e-10, max_iter: int = 100_000
) -> dict[str, float]:
    """Principal eigenvector of the symmetrized weights, scaled to max 1.

    Power iteration runs on A + Aᵀ + I.  The shift keeps the eigenvectors
    and raises every eigenvalue by 1, so no eigenvalue of opposite sign
    matches the leading one in magnitude.  Without it, bipartite graphs,
    whose spectrum is symmetric about 0, make the iteration oscillate.
    Each entry of a step is the exact sum of its products, rounded once.
    A net with no edge scores 0.0 for every node.
    """
    if not net.edges:
        return {v: 0.0 for v in net.nodes}
    nodes, index = net.nodes, net.index
    # the nonzero entries of each row of A + Aᵀ + I
    sym: list[dict[int, float]] = [{i: 1.0} for i in range(len(nodes))]
    for (src, dst), w in net.edges.items():
        i, j = index[src], index[dst]
        sym[i][j] = sym[i].get(j, 0.0) + w
        sym[j][i] = sym[j].get(i, 0.0) + w
    rows = [list(entries.items()) for entries in sym]
    top = max(s for row in rows for _, s in row)
    if math.isinf(top * len(nodes)):
        # a step's sums could overflow; scaling every entry by one power of
        # two is exact, so the iteration stays the same
        scale = 2.0 ** -math.frexp(top)[1]
        rows = [[(j, s * scale) for j, s in row] for row in rows]
    v = [1.0] * len(nodes)
    residual = math.inf
    for _ in range(max_iter):
        nv = [math.fsum([s * v[j] for j, s in row]) for row in rows]
        # the shift keeps every step at least as large as the last, so the
        # max-norm never falls below 1
        norm = max(map(abs, nv))
        nv = [x / norm for x in nv]
        residual = max([abs(x - y) for x, y in zip(nv, v)])
        if residual < tol:
            top = max(nv)
            return {node: x / top for node, x in zip(nodes, nv)}
        v = nv
    raise ValueError(f"eigenvector iteration did not converge (residual {residual:.3e})")


def pagerank(
    net: ExposureNetwork, damping: float = 0.85, tol: float = 1e-12
) -> dict[str, float]:
    """Weighted directed PageRank, dangling mass spread uniformly, sum 1.

    Every sum of a step is exact and rounded once.
    """
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    nodes, index = net.nodes, net.index
    n = len(nodes)
    if n == 0:
        return {}
    strength = [net.out_strengths[v] for v in nodes]
    # per borrower, its lenders and the share of their lending it holds
    inflow: list[list[tuple[int, float]]] = [[] for _ in nodes]
    for (src, dst), w in net.edges.items():
        i = index[src]
        inflow[index[dst]].append((i, w / strength[i]))
    dangling = [i for i, total in enumerate(strength) if total == 0]
    teleport = (1 - damping) / n
    v = [1.0 / n] * n
    for _ in range(100_000):
        spread = damping * math.fsum([v[i] for i in dangling]) / n
        nv = [
            teleport + damping * math.fsum([p * v[i] for i, p in lenders]) + spread
            for lenders in inflow
        ]
        step = math.fsum([abs(x - y) for x, y in zip(nv, v)])
        v = nv
        if step < tol:
            break
    total = math.fsum(v)
    return {node: x / total for node, x in zip(nodes, v)}


def centrality_table(net: ExposureNetwork) -> CentralityTable:
    win, wout, wdiff, wdeg = degree_measures(net)
    return CentralityTable(
        win=win,
        wout=wout,
        wdiff=wdiff,
        wdeg=wdeg,
        clos_in=closeness(net, "in"),
        clos_out=closeness(net, "out"),
        betw=betweenness(net),
        eig=eigenvector(net),
        pagerank=pagerank(net),
    )

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

Every measure works, in plain Python, on the network's own views: its
strengths and the lender and borrower lists built with it.  Sums are exact
and rounded once, so no score depends on the order of the nodes.
Closeness, betweenness and eigenvector run on loans scaled by one power of
two, picked before anything is summed (:func:`_scaled`), so none overflows.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .network import ExposureNetwork, _fsum, _tuple_eq, _tuple_ne


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


def _degrees(net: ExposureNetwork) -> tuple[dict, dict, dict]:
    """(in-strength, out-strength, out minus in) per node."""
    win = {v: net.in_strengths[v] for v in net.nodes}
    wout = {v: net.out_strengths[v] for v in net.nodes}
    return win, wout, {v: wout[v] - win[v] for v in net.nodes}


def degree_measures(net: ExposureNetwork) -> tuple[dict, dict, dict, dict]:
    """(in-strength, out-strength, out minus in, in plus out) per node; an
    in plus out past the largest float raises ValueError naming the node."""
    win, wout, wdiff = _degrees(net)
    return win, wout, wdiff, {v: _fsum((wout[v], win[v]), "loans of and to", v) for v in win}


def _scaled(net: ExposureNetwork, lists: list) -> tuple[list[list[tuple[int, float]]], float]:
    """`lists`, (position, loan) lists of `net`, with every loan times the
    scale, and the scale: the power of two that brings the sum of all loans
    to at most half the largest float, or 1.0 (and `lists`) when it is.
    Short of the subnormal range, scaled loans make the same comparisons,
    and their sums unscale to the same floats."""
    shift = math.frexp(max(net.out_strengths.values(), default=0.0))[1]
    # every term is below 1 after the shift, so this sum cannot overflow
    total = math.fsum([math.ldexp(s, -shift) for s in net.out_strengths.values()])
    excess = math.frexp(total)[1] + shift - 1023  # all loans sum below 2**(1023 + excess)
    if excess <= 0:
        return lists, 1.0
    scale = math.ldexp(1.0, -excess)
    return [[(j, w * scale) for j, w in loans] for loans in lists], scale


def _dijkstra(adj: list[list[tuple[int, float]]], source: int) -> list[float]:
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
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
    the order of the nodes.  A distance or a total past the largest float
    raises ValueError naming the node.
    """
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    nodes, n = net.nodes, len(net.nodes)
    if n <= 1:
        return {v: 0.0 for v in nodes}
    adj, scale = _scaled(net, net._out if direction == "out" else net._in)
    what = "distances from" if direction == "out" else "distances to"
    result = {}
    for i, v in enumerate(nodes):
        # a scaled distance is inf only when unreachable; unscaled, one past
        # the largest float is inf, and so is the total.  dist[i] adds 0.0
        total = _fsum([d / scale if d < math.inf else n for d in _dijkstra(adj, i)], what, v)
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
    exact sum and nodes whose sums tie exactly get the same float.  Path
    weights are compared on scaled loans, so they never overflow to a tie.
    """
    out = _scaled(net, net._out)[0]
    num = [0] * len(out)  # exact scores are num[v] / den
    den = 1
    for s in range(len(out)):
        level, best, sigma, preds = {s: 0}, {s: 0.0}, {s: 1}, {s: []}
        order = [s]
        for u in order:  # BFS: the loop visits nodes as they are appended
            hop, prefix = level[u] + 1, best[u]
            for v, w in out[u]:
                total = prefix + w
                if v not in level:
                    level[v] = hop
                    order.append(v)
                    best[v], sigma[v], preds[v] = total, sigma[u], [u]
                elif level[v] == hop:
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
            num = [x * grow for x in num]
        unit = den // d
        g = dict.fromkeys(order, 0)
        for v in reversed(order[1:]):
            share = d // sigma[v] + g[v]
            for u in preds[v]:
                g[u] += share
            num[v] += sigma[v] * g[v] * unit
    return {v: x / den for v, x in zip(net.nodes, num)}


def eigenvector(
    net: ExposureNetwork, tol: float = 1e-10, max_iter: int = 100_000
) -> dict[str, float]:
    """Principal eigenvector of the symmetrized weights, scaled to max 1.

    Power iteration runs on A + Aᵀ + cI, c a sixteenth of the largest row
    sum of A + Aᵀ.  The shift keeps the eigenvectors and raises every
    eigenvalue by c, so no eigenvalue of opposite sign matches the leading
    one in magnitude.  Without it, bipartite graphs, whose spectrum is
    symmetric about 0, make the iteration oscillate; and as c grows with
    the loans, the iteration does not depend on their scale.  Each entry of
    a step is the exact sum of its products, rounded once, on the matrix
    scaled by :func:`_scaled`.  A net with no edge scores 0.0.
    """
    if not net.edges:
        return {v: 0.0 for v in net.nodes}
    out, _ = _scaled(net, net._out)
    # the nonzero entries of each row of A + Aᵀ, scaled
    sym: list[dict[int, float]] = [{} for _ in out]
    for i, loans in enumerate(out):
        for j, w in loans:
            sym[i][j] = sym[i].get(j, 0.0) + w
            sym[j][i] = sym[j].get(i, 0.0) + w
    shift = max([math.fsum(entries.values()) for entries in sym]) / 16
    rows = [[(i, shift), *entries.items()] for i, entries in enumerate(sym)]
    v = [1.0] * len(out)
    residual = math.inf
    for _ in range(max_iter):
        nv = [math.fsum([s * v[j] for j, s in row]) for row in rows]
        # the shift keeps every step at least c times the last, so the
        # max-norm is positive
        norm = max(map(abs, nv))
        nv = [x / norm for x in nv]
        residual = max([abs(x - y) for x, y in zip(nv, v)])
        if residual < tol:
            top = max(nv)
            return {node: x / top for node, x in zip(net.nodes, nv)}
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
    nodes, n = net.nodes, len(net.nodes)
    if n == 0:
        return {}
    strength = [net.out_strengths[v] for v in nodes]
    # per borrower, its lenders and the share of their lending it holds
    inflow = [[(i, w / strength[i]) for i, w in loans] for loans in net._in]
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

"""Classical centrality baseline: degrees, closeness, betweenness, eigenvector, PageRank.

Conventions here are pinned to reproduce the reference result tables:

* degree measures report raw strength sums, not the /(n-1) textbook variant;
* closeness uses weighted Dijkstra distances, with every unreachable pair
  contributing the vertex count;
* betweenness counts, for each ordered pair, the fewest-hop geodesics of
  maximal total edge weight (fractional credit when several share that
  weight);
* eigenvector centrality is computed on the symmetrized weights A + A^T
  (the directed spectrum is degenerate on acyclic exposure networks);
* PageRank is the weighted directed walk with uniform dangling
  redistribution.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .network import ExposureNetwork, node_sort_key


@dataclass(frozen=True)
class CentralityTable:
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


def _adjacency(net: ExposureNetwork) -> tuple[list[str], np.ndarray]:
    nodes, index = list(net.nodes), net.index
    a = np.zeros((len(nodes), len(nodes)))
    for (src, dst), w in net.edges.items():
        a[index[src], index[dst]] = w
    return nodes, a


def degree_measures(net: ExposureNetwork) -> tuple[dict, dict, dict, dict]:
    """(in-strength, out-strength, out minus in, in plus out) per node."""
    nodes, a = _adjacency(net)
    win = a.sum(axis=0)
    wout = a.sum(axis=1)
    return (
        dict(zip(nodes, win.tolist())),
        dict(zip(nodes, wout.tolist())),
        dict(zip(nodes, (wout - win).tolist())),
        dict(zip(nodes, (wout + win).tolist())),
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
        total = sum(d if d != float("inf") else float(n) for k, d in enumerate(dist) if k != i)
        result[v] = 1.0 / total if total > 0 else 0.0
    return result


def _hop_levels(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    level = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, []):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def betweenness(net: ExposureNetwork) -> dict[str, float]:
    """Geodesic betweenness over fewest-hop, maximal-weight directed paths.

    For every ordered pair (s, t) the geodesics are the fewest-hop paths;
    among those, only the ones of maximal total edge weight count, sharing
    one unit of credit across their interior nodes.
    """
    nodes, index = list(net.nodes), net.index
    n = len(nodes)
    adj: dict[int, list[int]] = {}
    wgt: dict[tuple[int, int], float] = {}
    for (src, dst), w in net.edges.items():
        i, j = index[src], index[dst]
        adj.setdefault(i, []).append(j)
        wgt[(i, j)] = w
    score = [0.0] * n
    for s in range(n):
        level = _hop_levels(adj, s)
        for t, tlevel in level.items():
            if t == s or tlevel < 2:
                continue
            paths = _level_paths(adj, level, s, t)
            best = max(sum(wgt[(p[k], p[k + 1])] for k in range(len(p) - 1)) for p in paths)
            chosen = [
                p
                for p in paths
                if sum(wgt[(p[k], p[k + 1])] for k in range(len(p) - 1)) == best
            ]
            credit = 1.0 / len(chosen)
            for p in chosen:
                for mid in p[1:-1]:
                    score[mid] += credit
    return dict(zip(nodes, score))


def _level_paths(
    adj: dict[int, list[int]], level: dict[int, int], s: int, t: int
) -> list[list[int]]:
    """All fewest-hop s->t paths, walking strictly down BFS levels."""
    out: list[list[int]] = []
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


def eigenvector(
    net: ExposureNetwork, tol: float = 1e-10, max_iter: int = 100_000
) -> dict[str, float]:
    """Principal eigenvector of the symmetrized weights, scaled to max 1.

    Power iteration runs on A + Aᵀ + I.  The shift keeps the eigenvectors
    and raises every eigenvalue by 1, so no eigenvalue of opposite sign
    matches the leading one in magnitude.  Without it, bipartite graphs,
    whose spectrum is symmetric about 0, make the iteration oscillate.
    """
    nodes, a = _adjacency(net)
    if not net.edges:
        raise ValueError("eigenvector centrality needs at least one edge")
    s = a + a.T + np.eye(len(nodes))
    v = np.ones(len(nodes))
    residual = float("inf")
    for _ in range(max_iter):
        nv = s @ v
        norm = np.abs(nv).max()
        if norm == 0:
            raise ValueError("eigenvector iteration collapsed to zero")
        nv = nv / norm
        residual = np.abs(nv - v).max()
        if residual < tol:
            return dict(zip(nodes, (nv / nv.max()).tolist()))
        v = nv
    raise ValueError(f"eigenvector iteration did not converge (residual {residual:.3e})")


def pagerank(
    net: ExposureNetwork, damping: float = 0.85, tol: float = 1e-12
) -> dict[str, float]:
    """Weighted directed PageRank, dangling mass spread uniformly, sum 1."""
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    nodes, a = _adjacency(net)
    n = len(nodes)
    if n == 0:
        return {}
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
        eig=eigenvector(net) if net.edges else {v: 0.0 for v in net.nodes},
        pagerank=pagerank(net),
    )

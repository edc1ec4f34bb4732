"""Competition rankings and rank-agreement coefficients."""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple

from .network import _tuple_eq, _tuple_ne, node_sort_key

if TYPE_CHECKING:
    import numpy as np


class Ranking(NamedTuple):
    """Nodes ranked by score: rank 1 is best, exact-score ties share a rank
    and the following rank skips (1, 2, 2, 4)."""

    ranks: dict[str, int]
    order: tuple[str, ...]
    scores: dict[str, float]

    __eq__, __ne__ = _tuple_eq, _tuple_ne


def rank(scores: Mapping[str, float]) -> Ranking:
    order = sorted(scores, key=lambda v: (-scores[v], node_sort_key(v)))
    ranks: dict[str, int] = {}
    for pos, node in enumerate(order, start=1):
        prev = order[pos - 2] if pos > 1 else None
        if prev is not None and scores[node] == scores[prev]:
            ranks[node] = ranks[prev]
        else:
            ranks[node] = pos
    return Ranking(ranks=ranks, order=tuple(order), scores=dict(scores))


def _rank_map(ranking: Ranking | Mapping[str, int]) -> dict[str, int]:
    if isinstance(ranking, Ranking):
        return ranking.ranks
    return dict(ranking)


def _pair_stats(
    r1: Ranking | Mapping[str, int], r2: Ranking | Mapping[str, int]
) -> tuple[int, int, int, int]:
    """Concordant, discordant, tied-only-in-first, tied-only-in-second."""
    a, b = _rank_map(r1), _rank_map(r2)
    if set(a) != set(b):
        raise ValueError("rankings cover different node sets")
    nodes = sorted(a, key=node_sort_key)
    concordant = discordant = tied_first = tied_second = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            dx = a[u] - a[v]
            dy = b[u] - b[v]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tied_first += 1
            elif dy == 0:
                tied_second += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    return concordant, discordant, tied_first, tied_second


def kendall_tau(
    r1: Ranking | Mapping[str, int], r2: Ranking | Mapping[str, int]
) -> float:
    """Tau-b: tie-corrected, NaN when either ranking is one big tie."""
    c, d, t1, t2 = _pair_stats(r1, r2)
    denom = math.sqrt((c + d + t1) * (c + d + t2))
    if denom == 0:
        return math.nan
    return (c - d) / denom


def gk_gamma(
    r1: Ranking | Mapping[str, int], r2: Ranking | Mapping[str, int]
) -> float:
    """Goodman-Kruskal gamma: ignores ties entirely, NaN when no untied pairs."""
    c, d, _, _ = _pair_stats(r1, r2)
    if c + d == 0:
        return math.nan
    return (c - d) / (c + d)


def comparison_matrix(
    rankings: Mapping[str, Ranking | Mapping[str, int]],
    coefficient: str = "tau",
) -> tuple[tuple[str, ...], np.ndarray]:
    """Pairwise agreement between named rankings.

    Returns the names (insertion order) and a symmetric matrix with unit
    diagonal; `coefficient` is "tau" or "gamma".
    """
    import numpy as np

    names, rows = _comparison_rows(rankings, coefficient)
    return names, np.array(rows, dtype=float).reshape(len(names), len(names))


def _comparison_rows(
    rankings: Mapping[str, Ranking | Mapping[str, int]], coefficient: str
) -> tuple[tuple[str, ...], list[list[float]]]:
    """:func:`comparison_matrix` as a list of rows."""
    if coefficient == "tau":
        func = kendall_tau
    elif coefficient == "gamma":
        func = gk_gamma
    else:
        raise ValueError(f"coefficient must be 'tau' or 'gamma', got {coefficient!r}")
    names = tuple(rankings)
    rows = [[1.0] * len(names) for _ in names]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rows[i][j] = rows[j][i] = func(rankings[names[i]], rankings[names[j]])
    return names, rows

"""Path-based long-range influence.

Direct influence c_ij is the lender's exposure to a borrower divided by the
total of the smallest critical group in which that borrower is pivotal, so
c_ij = 1 means the borrower alone can sink the lender.  Long-range influence
aggregates over all simple chains of such relations: a chain j -> ... -> i
(read: j's default eventually reaches lender i) carries the step influences
of its links, combined multiplicatively or by the weakest link, and the
chains are folded into a single value per (lender, borrower) pair by one of
five methods:

* sumpaths - sum of products over all chains, clipped at 1
* maxpath  - largest product over chains
* maxmin   - largest weakest-link over chains
* multt    - product of the chain preferred by the grade score
* maxt     - weakest link of the chain preferred by the grade score

The grade score ranks chains by binning step influences into a small ordered
set of grades and penalizing low grades lexicographically; ties prefer the
shorter chain, then the lexicographically smallest node sequence.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .groups import _lender_passes, _LenderPass
from .network import ExposureNetwork, ThresholdPolicy, _read_json, _Record, node_sort_key

if TYPE_CHECKING:
    import numpy as np

PATH_METHODS = ("sumpaths", "maxpath", "maxmin", "multt", "maxt")


class InfluenceMatrix(_Record):
    """Square influence matrix: entry (i, j) is the influence of j on i.
    `values` is made read-only."""

    __slots__ = _fields = ("nodes", "values", "variant")

    def __init__(self, nodes: tuple[str, ...], values: np.ndarray, variant: str) -> None:
        n = len(nodes)
        if values.shape != (n, n):
            raise ValueError(f"matrix shape {values.shape} does not match {n} nodes")
        values.setflags(write=False)
        self._assign(nodes, values, variant)

    def index(self, node: str) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"unknown node {node!r}") from None

    def entry(self, i: str, j: str) -> float:
        return float(self.values[self.index(i), self.index(j)])


class GradeSchema(_Record):
    """Ordered binning of influence values into grades 1..m (0 reserved for no influence).

    With `upper_inclusive` (the default) each bound closes its interval from
    above: bounds (0.25, 0.5, 0.8, 1.0) yield (0, .25], (.25, .5], (.5, .8],
    (.8, 1].  With upper_inclusive=False the intervals close from below and
    the top grade is reserved for exactly 1.0: bounds (0.25, ..., 1.0) yield
    (0, .25), [.25, .5), ..., [.92, 1), {1}.
    """

    __slots__ = _fields = ("bounds", "upper_inclusive", "labels")

    def __init__(
        self,
        bounds: tuple[float, ...],
        upper_inclusive: bool = True,
        labels: tuple[str, ...] | None = None,
    ) -> None:
        self._assign(bounds, upper_inclusive, labels)
        if not bounds:
            raise ValueError("schema needs at least one bound")
        if any(map(math.isnan, bounds)):
            raise ValueError(f"bounds must not be NaN: {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bounds must be strictly increasing: {bounds}")
        if bounds[-1] != 1.0:
            raise ValueError(f"last bound must be 1.0, got {bounds[-1]}")
        if bounds[0] <= 0:
            raise ValueError(f"bounds must be positive: {bounds}")
        if labels is not None and len(labels) != self.positive_grades:
            raise ValueError(f"{len(labels)} labels for {self.positive_grades} grades")

    @property
    def positive_grades(self) -> int:
        return len(self.bounds) if self.upper_inclusive else len(self.bounds) + 1

    def grade(self, c: float) -> int:
        if c <= 0:
            return 0
        c = min(c, 1.0)
        if self.upper_inclusive:
            return 1 + sum(1 for b in self.bounds if b < c)
        return 1 + sum(1 for b in self.bounds if b <= c)


FIVE_LEVEL = GradeSchema(bounds=(0.25, 0.5, 0.8, 1.0))
EIGHT_LEVEL = GradeSchema(bounds=(0.25, 0.5, 0.75, 0.85, 0.92, 1.0), upper_inclusive=False)

GRADE_SCHEMAS = {"five-level": FIVE_LEVEL, "eight-level": EIGHT_LEVEL}


def load_grade_schema(path: str) -> GradeSchema:
    """Load a schema from JSON: {"mode": "upper"|"lower", "levels": [[bound, label], ...]}.

    Bounds must be finite numbers; every error names the file."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: grade schema must be a JSON object")
    mode = raw.get("mode", "upper")
    if mode not in ("upper", "lower"):
        raise ValueError(f"{path}: mode must be 'upper' or 'lower', got {mode!r}")
    levels = raw.get("levels")
    if not isinstance(levels, list) or not levels:
        raise ValueError(f"{path}: 'levels' must be a non-empty list of [bound, label]")
    bounds, labels = [], []
    for k, level in enumerate(levels, 1):
        if not isinstance(level, list) or len(level) != 2:
            raise ValueError(f"{path}: level {k} must be [bound, label], got {level!r}")
        bound, label = level
        # a JSON integer can exceed every float, so compare before converting
        if type(bound) not in (int, float) or not abs(bound) <= sys.float_info.max:
            raise ValueError(
                f"{path}: level {k}: bound must be a finite number, got {bound!r}"
            )
        bounds.append(float(bound))
        labels.append(str(label))
    if mode == "lower":
        # One more grade than bounds (the exact-1.0 grade has no bound entry),
        # so the per-bound labels cannot be carried over one-to-one.
        return GradeSchema(bounds=tuple(bounds), upper_inclusive=False, labels=None)
    return GradeSchema(bounds=tuple(bounds), upper_inclusive=True, labels=tuple(labels))


class RhoPath(_Record):
    """Simple influence chain from an influencer to an affected lender.

    nodes[0] is the influencer, nodes[-1] the lender it eventually reaches;
    influences[k] is the direct influence of nodes[k] on nodes[k+1].
    """

    __slots__ = _fields = ("nodes", "influences")

    def __init__(self, nodes: tuple[str, ...], influences: tuple[float, ...]) -> None:
        if len(nodes) < 2 or len(influences) != len(nodes) - 1:
            raise ValueError("need n+1 nodes for n steps, n >= 1")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path revisits a node: {nodes}")
        if any(c <= 0 for c in influences):
            raise ValueError(f"step influences must be positive: {influences}")
        self._assign(nodes, influences)

    @property
    def length(self) -> int:
        return len(self.influences)


def influence_matrix(net: ExposureNetwork, policy: ThresholdPolicy) -> InfluenceMatrix:
    """Direct influence: exposure over the smallest pivotal group total."""
    return _as_matrix(net.nodes, _influence_rows(net, _lender_passes(net, policy)), "paths")


def _as_matrix(nodes: tuple[str, ...], rows: list[list[float]], variant: str) -> InfluenceMatrix:
    import numpy as np

    # reshape keeps a matrix over no node 0 x 0
    values = np.array(rows, dtype=float).reshape(len(nodes), len(nodes))
    return InfluenceMatrix(nodes=nodes, values=values, variant=variant)


def _influence_rows(net: ExposureNetwork, passes: dict[str, _LenderPass]) -> list[list[float]]:
    """The direct influence matrix over ``net.nodes``, as a list of rows."""
    # w / min(total) is the largest w / total: division by a positive
    # divisor is monotone in IEEE arithmetic
    n, index = len(net.nodes), net.index
    values = [[0.0] * n for _ in range(n)]
    for lender, found in passes.items():
        row = values[index[lender]]
        for member, w, total in zip(found.borrowers, found.weights, found.min_totals):
            if total is not None:
                row[index[member]] = w / total
    return values


def _successors(nodes: tuple[str, ...], values: list[list[float]]) -> dict[int, list[int]]:
    """succ[u] = nodes v directly influenced by u (i.e. c_{v,u} > 0), in node order.

    Node order is :func:`node_sort_key` order, whatever the order of
    `nodes`, so walks over these lists visit chains in the order that
    breaks grade-score ties.
    """
    succ: dict[int, list[int]] = {}
    for v, row in enumerate(values):
        for u, c_vu in enumerate(row):
            if c_vu:
                succ.setdefault(u, []).append(v)
    keys = [node_sort_key(v) for v in nodes]
    for targets in succ.values():
        targets.sort(key=keys.__getitem__)
    return succ


def simple_paths(
    c: InfluenceMatrix, source: str, target: str, s: int | None = None
) -> list[RhoPath]:
    """All simple influence chains source -> target with at most s steps.

    s=None means unlimited, which a simple path bounds at n-1 steps.  The
    source influences its successors via the matrix columns: a step u -> v
    exists iff c_{v,u} > 0.  source == target yields no paths.
    """
    si, ti = c.index(source), c.index(target)
    n = len(c.nodes)
    limit = n - 1 if s is None else s
    if limit < 1 or si == ti:
        return []
    values = c.values.tolist()
    succ = _successors(c.nodes, values)
    out: list[RhoPath] = []
    path = [si]
    on_path = {si}
    # a depth-first search with one iterator of successors per node of `path`
    stack = [iter(succ.get(si, []))]
    while stack:
        for v in stack[-1]:
            if v in on_path:
                continue
            path.append(v)
            if v == ti:
                out.append(
                    RhoPath(
                        nodes=tuple(c.nodes[k] for k in path),
                        influences=tuple(
                            values[path[k + 1]][path[k]] for k in range(len(path) - 1)
                        ),
                    )
                )
            elif len(path) - 1 < limit:
                on_path.add(v)
                stack.append(iter(succ.get(v, [])))
                break
            path.pop()
        else:
            stack.pop()
            on_path.remove(path.pop())
    return out


def path_influence(path: RhoPath, mode: str = "product") -> float:
    """Combine step influences into one value: their product, or their minimum."""
    if mode == "product":
        result = 1.0
        for c in path.influences:
            result *= c
        return result
    if mode == "min":
        return min(path.influences)
    raise ValueError(f"mode must be 'product' or 'min', got {mode!r}")


def path_score_v(path: RhoPath, schema: GradeSchema, s: int) -> int:
    """Grade score of a chain; smaller is better.

    Each step contributes (s+1)^(m - grade) with m the schema's top grade,
    so a single low-grade step outweighs any number of higher-grade ones;
    among equal grade profiles longer chains score lower (s - length term).
    """
    if s < path.length:
        raise ValueError(f"s={s} is below the path length {path.length}")
    grades = [schema.grade(c) for c in path.influences]
    if 0 in grades:
        raise ValueError("path has a zero-influence step")
    m = schema.positive_grades
    return sum((s + 1) ** (m - g) for g in grades) + s - path.length


def _sort_key_sequence(path: RhoPath) -> tuple:
    return tuple(node_sort_key(v) for v in path.nodes)


def best_graded_path(paths: list[RhoPath], schema: GradeSchema, s: int) -> RhoPath:
    """The chain with minimal grade score; ties prefer the lexicographically
    smallest node sequence."""
    if not paths:
        raise ValueError("no paths to choose from")
    return min(paths, key=lambda p: (path_score_v(p, schema, s), _sort_key_sequence(p)))


def aggregate_paths(
    paths: list[RhoPath],
    method: str,
    schema: GradeSchema | None = None,
    s: int | None = None,
) -> float:
    """Fold a set of chains into a single influence value; no chains -> 0."""
    if method not in PATH_METHODS:
        raise ValueError(f"method must be one of {PATH_METHODS}, got {method!r}")
    if not paths:
        return 0.0
    if method == "sumpaths":
        # exact and rounded once, so the total does not depend on the order
        # of the chains
        return min(1.0, math.fsum([path_influence(p, "product") for p in paths]))
    if method == "maxpath":
        return max(path_influence(p, "product") for p in paths)
    if method == "maxmin":
        return max(path_influence(p, "min") for p in paths)
    schema = schema or FIVE_LEVEL
    s_eff = s if s is not None else max(p.length for p in paths)
    chosen = best_graded_path(paths, schema, s_eff)
    return path_influence(chosen, "product" if method == "multt" else "min")


def lric_paths_matrices(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    s: int | None = None,
    schema: GradeSchema | None = None,
) -> dict[str, InfluenceMatrix]:
    """Long-range influence matrices of all five methods, keyed by method.

    One depth-first walk per source visits every simple chain of at most s
    steps once and folds it into all five aggregates of the lender it ends
    at.  Children are taken in node order, so the chains ending at one
    lender arrive in the order :func:`simple_paths` lists them and in
    lexicographic node order.  Hence the first chain reaching the lowest
    grade score is the one :func:`best_graded_path` picks, and as sums are
    exact, each entry equals ``aggregate_paths(simple_paths(...), method,
    schema, s)`` bit for bit.
    """
    rows = _influence_rows(net, _lender_passes(net, policy))
    return {
        method: _as_matrix(net.nodes, values, f"paths:{method}")
        for method, values in _fold_chains(net.nodes, rows, s, schema).items()
    }


# chain products kept per (source, target) before they are folded exactly
_SPILL = 4096


def _expansion(values: list[float]) -> list[float]:
    """A few floats with the exact sum of `values`: each is the rounded
    exact sum of what the ones before it leave (Shewchuk, DCG 18, 1997)."""
    negated: list[float] = []
    while part := math.fsum(values + negated):
        negated.append(-part)
    return [-x for x in negated]


def _fold_chains(
    nodes: tuple[str, ...],
    c: list[list[float]],
    s: int | None,
    schema: GradeSchema | None,
) -> dict[str, list[list[float]]]:
    """The five long-range matrices, as lists of rows, of the direct
    influence rows `c` over `nodes`."""
    schema = schema or FIVE_LEVEL
    n = len(nodes)
    s_eff = n - 1 if s is None else s
    m = schema.positive_grades
    # succ[u] = (v, c_vu, grade cost of the step u -> v as in path_score_v)
    succ: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    for u, targets in _successors(nodes, c).items():
        succ[u] = [
            (v, c[v][u], (s_eff + 1) ** (m - schema.grade(c[v][u]))) for v in targets
        ]
    fold = {method: [[0.0] * n for _ in range(n)] for method in PATH_METHODS}
    sums, maxpath, maxmin, multt, maxt = (fold[method] for method in PATH_METHODS)
    for j in range(n):
        products: list[list[float]] = [[] for _ in range(n)]  # chains j -> v
        best_product = [0.0] * n
        best_weakest = [0.0] * n
        best_score = [math.inf] * n
        graded_product = [0.0] * n
        graded_weakest = [0.0] * n
        on_path = [False] * n
        on_path[j] = True
        # depth-first over the chains from j, without recursion: the open
        # chain ends at `end`, with its product, weakest step and grade cost;
        # `steps` yields the steps out of it not yet taken, each the depth-th
        # step of a chain; `parent` keeps the same for the chain one shorter,
        # as a linked list of tuples, which pushes and pops without a call
        steps = iter(succ[j] if s_eff >= 1 else ())
        product, weakest, cost, end, depth, parent = 1.0, math.inf, 0, j, 1, None
        while True:
            for v, c_vu, step_cost in steps:
                if on_path[v]:
                    continue
                p = product * c_vu
                w = weakest if weakest < c_vu else c_vu
                k = cost + step_cost
                chains = products[v]
                chains.append(p)
                if len(chains) == _SPILL:
                    chains[:] = _expansion(chains)
                if p > best_product[v]:
                    best_product[v] = p
                if w > best_weakest[v]:
                    best_weakest[v] = w
                score = k + s_eff - depth
                if score < best_score[v]:
                    best_score[v] = score
                    graded_product[v] = p
                    graded_weakest[v] = w
                if depth < s_eff and (nexts := succ[v]):
                    on_path[v] = True
                    parent = (steps, product, weakest, cost, end, parent)
                    steps, product, weakest, cost, end = iter(nexts), p, w, k, v
                    depth += 1
                    break
            else:
                on_path[end] = False
                if parent is None:
                    break
                steps, product, weakest, cost, end, parent = parent
                depth -= 1
        for i in range(n):
            if best_score[i] < math.inf:
                sums[i][j] = min(1.0, math.fsum(products[i]))
                maxpath[i][j] = best_product[i]
                maxmin[i][j] = best_weakest[i]
                multt[i][j] = graded_product[i]
                maxt[i][j] = graded_weakest[i]
    return fold


def lric_paths_matrix(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    method: str,
    s: int | None = None,
    schema: GradeSchema | None = None,
) -> InfluenceMatrix:
    """Long-range influence matrix: entry (i, j) aggregates all chains j -> i."""
    return _as_matrix(net.nodes, _path_rows(net, policy, method, s, schema), f"paths:{method}")


def lric_paths_vector(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    method: str,
    s: int | None = None,
    schema: GradeSchema | None = None,
) -> dict[str, float]:
    """Final index: lending-weighted column sums of the long-range matrix,
    normalized to sum 1."""
    return _weighted_scores(net, net.nodes, _path_rows(net, policy, method, s, schema))


def _path_rows(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    method: str,
    s: int | None,
    schema: GradeSchema | None,
) -> list[list[float]]:
    """The matrix of :func:`lric_paths_matrix`, as a list of rows."""
    if method not in PATH_METHODS:
        raise ValueError(f"method must be one of {PATH_METHODS}, got {method!r}")
    rows = _influence_rows(net, _lender_passes(net, policy))
    return _fold_chains(net.nodes, rows, s, schema)[method]


def weighted_vector(net: ExposureNetwork, matrix: InfluenceMatrix) -> dict[str, float]:
    """Lending-volume-weighted aggregation of an influence matrix into scores."""
    return _weighted_scores(net, matrix.nodes, matrix.values.tolist())


def _weighted_scores(
    net: ExposureNetwork, nodes: tuple[str, ...], values: list[list[float]]
) -> dict[str, float]:
    """Column sums of the rows `values` over `nodes`, each row weighted by its
    lender's share of all lending, normalized to sum 1.

    Every sum is exact and rounded once (``math.fsum``), so the scores do not
    depend on the order of the nodes and equal columns get equal scores.
    """
    strengths = [net.out_strengths[v] for v in nodes]
    total = math.fsum(strengths)
    if total == 0:
        return {v: 0.0 for v in nodes}
    weights = [strength / total for strength in strengths]
    totals = [
        math.fsum([w * row[j] for w, row in zip(weights, values)]) for j in range(len(nodes))
    ]
    mass = math.fsum(totals)
    if mass > 0:
        totals = [t / mass for t in totals]
    return dict(zip(nodes, totals))

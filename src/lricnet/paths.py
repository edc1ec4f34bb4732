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

import json
import math
from dataclasses import dataclass

import numpy as np

from .groups import _lender_passes, _LenderPass
from .network import ExposureNetwork, ThresholdPolicy, node_sort_key, out_strength

PATH_METHODS = ("sumpaths", "maxpath", "maxmin", "multt", "maxt")


@dataclass(frozen=True)
class InfluenceMatrix:
    """Square influence matrix: entry (i, j) is the influence of j on i."""

    nodes: tuple[str, ...]
    values: np.ndarray
    variant: str

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if self.values.shape != (n, n):
            raise ValueError(f"matrix shape {self.values.shape} does not match {n} nodes")
        self.values.setflags(write=False)

    def index(self, node: str) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"unknown node {node!r}") from None

    def entry(self, i: str, j: str) -> float:
        return float(self.values[self.index(i), self.index(j)])


@dataclass(frozen=True)
class GradeSchema:
    """Ordered binning of influence values into grades 1..m (0 reserved for no influence).

    With `upper_inclusive` (the default) each bound closes its interval from
    above: bounds (0.25, 0.5, 0.8, 1.0) yield (0, .25], (.25, .5], (.5, .8],
    (.8, 1].  With upper_inclusive=False the intervals close from below and
    the top grade is reserved for exactly 1.0: bounds (0.25, ..., 1.0) yield
    (0, .25), [.25, .5), ..., [.92, 1), {1}.
    """

    bounds: tuple[float, ...]
    upper_inclusive: bool = True
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("schema needs at least one bound")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"bounds must be strictly increasing: {self.bounds}")
        if self.bounds[-1] != 1.0:
            raise ValueError(f"last bound must be 1.0, got {self.bounds[-1]}")
        if self.bounds[0] <= 0:
            raise ValueError(f"bounds must be positive: {self.bounds}")
        if self.labels is not None and len(self.labels) != self.positive_grades:
            raise ValueError(
                f"{len(self.labels)} labels for {self.positive_grades} grades"
            )

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
    """Load a schema from JSON: {"mode": "upper"|"lower", "levels": [[bound, label], ...]}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    mode = raw.get("mode", "upper")
    if mode not in ("upper", "lower"):
        raise ValueError(f"{path}: mode must be 'upper' or 'lower', got {mode!r}")
    levels = raw.get("levels")
    if not isinstance(levels, list) or not levels:
        raise ValueError(f"{path}: 'levels' must be a non-empty list of [bound, label]")
    bounds = tuple(float(b) for b, _ in levels)
    labels = tuple(str(label) for _, label in levels)
    if mode == "lower":
        # One more grade than bounds (the exact-1.0 grade has no bound entry),
        # so the per-bound labels cannot be carried over one-to-one.
        return GradeSchema(bounds=bounds, upper_inclusive=False, labels=None)
    return GradeSchema(bounds=bounds, upper_inclusive=True, labels=labels)


@dataclass(frozen=True)
class RhoPath:
    """Simple influence chain from an influencer to an affected lender.

    nodes[0] is the influencer, nodes[-1] the lender it eventually reaches;
    influences[k] is the direct influence of nodes[k] on nodes[k+1].
    """

    nodes: tuple[str, ...]
    influences: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2 or len(self.influences) != len(self.nodes) - 1:
            raise ValueError("need n+1 nodes for n steps, n >= 1")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path revisits a node: {self.nodes}")
        if any(c <= 0 for c in self.influences):
            raise ValueError(f"step influences must be positive: {self.influences}")

    @property
    def length(self) -> int:
        return len(self.influences)


def influence_matrix(net: ExposureNetwork, policy: ThresholdPolicy) -> InfluenceMatrix:
    """Direct influence: exposure over the smallest pivotal group total."""
    return _influence_from_passes(net, _lender_passes(net, policy))


def _influence_from_passes(
    net: ExposureNetwork, passes: dict[str, _LenderPass]
) -> InfluenceMatrix:
    # w / min(total) is the largest w / total: division by a positive
    # divisor is monotone in IEEE arithmetic
    nodes = net.nodes
    index = {v: k for k, v in enumerate(nodes)}
    values = np.zeros((len(nodes), len(nodes)))
    for lender, found in passes.items():
        i = index[lender]
        for member, w, total in zip(found.borrowers, found.weights, found.min_totals):
            if total is not None:
                values[i, index[member]] = w / total
    return InfluenceMatrix(nodes=nodes, values=values, variant="paths")


def _successors(c: InfluenceMatrix) -> dict[int, list[int]]:
    """succ[u] = nodes v directly influenced by u (i.e. c_{v,u} > 0), in node order.

    Node order is :func:`node_sort_key` order, whatever the order of
    ``c.nodes``, so walks over these lists visit chains in the order that
    breaks grade-score ties.
    """
    succ: dict[int, list[int]] = {}
    rows, cols = np.nonzero(c.values)
    for v, u in zip(rows.tolist(), cols.tolist()):
        succ.setdefault(u, []).append(v)
    keys = [node_sort_key(v) for v in c.nodes]
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
    succ = _successors(c)
    out: list[RhoPath] = []
    path = [si]
    on_path = {si}

    def dfs(u: int) -> None:
        if len(path) - 1 >= limit:
            return
        for v in succ.get(u, []):
            if v in on_path:
                continue
            path.append(v)
            if v == ti:
                out.append(
                    RhoPath(
                        nodes=tuple(c.nodes[k] for k in path),
                        influences=tuple(
                            float(c.values[path[k + 1], path[k]])
                            for k in range(len(path) - 1)
                        ),
                    )
                )
            elif len(path) - 1 < limit:
                on_path.add(v)
                dfs(v)
                on_path.remove(v)
            path.pop()
    dfs(si)
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
        # Left to right, not sum(): from Python 3.12 sum() compensates float
        # rounding, and the total must not depend on the interpreter.
        total = 0.0
        for p in paths:
            total += path_influence(p, "product")
        return min(1.0, total)
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
    lexicographic node order.  Hence sums accumulate exactly as in
    :func:`aggregate_paths`, and the first chain reaching the lowest grade
    score is the one :func:`best_graded_path` picks: each entry equals
    ``aggregate_paths(simple_paths(...), method, schema, s)`` bit for bit.
    """
    return _fold_chains(influence_matrix(net, policy), s, schema)


def _fold_chains(
    c: InfluenceMatrix, s: int | None, schema: GradeSchema | None
) -> dict[str, InfluenceMatrix]:
    schema = schema or FIVE_LEVEL
    n = len(c.nodes)
    s_eff = n - 1 if s is None else s
    m = schema.positive_grades
    # succ[u] = (v, c_vu, grade cost of the step u -> v as in path_score_v)
    succ: dict[int, list[tuple[int, float, int]]] = {}
    for u, targets in _successors(c).items():
        steps = [(v, float(c.values[v, u])) for v in targets]
        succ[u] = [(v, c_vu, (s_eff + 1) ** (m - schema.grade(c_vu))) for v, c_vu in steps]
    fold = {method: np.zeros((n, n)) for method in PATH_METHODS}
    sums, maxpath, maxmin, multt, maxt = (fold[method] for method in PATH_METHODS)
    for j in range(n):
        total = [0.0] * n
        best_product = [0.0] * n
        best_weakest = [0.0] * n
        best_score = [math.inf] * n
        graded_product = [0.0] * n
        graded_weakest = [0.0] * n
        on_path = [False] * n
        on_path[j] = True

        def walk(u: int, product: float, weakest: float, cost: int, depth: int) -> None:
            depth += 1
            for v, c_vu, step_cost in succ.get(u, ()):
                if on_path[v]:
                    continue
                p = product * c_vu
                w = weakest if weakest < c_vu else c_vu
                k = cost + step_cost
                total[v] += p
                if p > best_product[v]:
                    best_product[v] = p
                if w > best_weakest[v]:
                    best_weakest[v] = w
                score = k + s_eff - depth
                if score < best_score[v]:
                    best_score[v] = score
                    graded_product[v] = p
                    graded_weakest[v] = w
                if depth < s_eff:
                    on_path[v] = True
                    walk(v, p, w, k, depth)
                    on_path[v] = False

        if s_eff >= 1:
            walk(j, 1.0, math.inf, 0, 0)
        # entry by entry: numpy's slice assignment would add its own code
        # and buffers to the peak memory of a small run
        for i in range(n):
            if best_score[i] < math.inf:
                sums[i, j] = min(1.0, total[i])
                maxpath[i, j] = best_product[i]
                maxmin[i, j] = best_weakest[i]
                multt[i, j] = graded_product[i]
                maxt[i, j] = graded_weakest[i]
    return {
        method: InfluenceMatrix(nodes=c.nodes, values=values, variant=f"paths:{method}")
        for method, values in fold.items()
    }


def lric_paths_matrix(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    method: str,
    s: int | None = None,
    schema: GradeSchema | None = None,
) -> InfluenceMatrix:
    """Long-range influence matrix: entry (i, j) aggregates all chains j -> i."""
    if method not in PATH_METHODS:
        raise ValueError(f"method must be one of {PATH_METHODS}, got {method!r}")
    return lric_paths_matrices(net, policy, s, schema)[method]


def lric_paths_vector(
    net: ExposureNetwork,
    policy: ThresholdPolicy,
    method: str,
    s: int | None = None,
    schema: GradeSchema | None = None,
) -> dict[str, float]:
    """Final index: lending-weighted column sums of the long-range matrix,
    normalized to sum 1."""
    matrix = lric_paths_matrix(net, policy, method, s, schema)
    return weighted_vector(net, matrix)


def weighted_vector(net: ExposureNetwork, matrix: InfluenceMatrix) -> dict[str, float]:
    """Lending-volume-weighted aggregation of an influence matrix into scores."""
    strengths = np.array([out_strength(net, v) for v in matrix.nodes])
    total = strengths.sum()
    if total == 0:
        return {v: 0.0 for v in matrix.nodes}
    weights = strengths / total
    totals = weights @ matrix.values
    mass = totals.sum()
    if mass > 0:
        totals = totals / mass
    return dict(zip(matrix.nodes, totals.tolist()))

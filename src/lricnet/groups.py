"""Critical groups of a lender's direct borrowers and their pivotal members.

A group of direct borrowers is *critical* when the loans its members took
from the lender add up to at least the lender's threshold q; a member is
*pivotal* in a critical group when removing it drops the total strictly
below q.  These two notions drive both the short-range index and the
path-based influence matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

from .network import ExposureNetwork, ThresholdPolicy, out_strength, threshold

logger = logging.getLogger(__name__)

# Absolute tolerance for q comparisons.  Exact boundary cases occur in real
# inputs (a single loan equal to q), and must count as critical.
TOL = 1e-9

DEFAULT_ENUMERATION_CAP = 25


@dataclass(frozen=True)
class CriticalGroup:
    lender: str
    members: frozenset[str]
    total: float
    pivotal: frozenset[str]


def is_critical(
    net: ExposureNetwork,
    lender: str,
    group: frozenset[str] | set[str],
    policy: ThresholdPolicy,
) -> bool:
    """True when the group's total borrowing from `lender` reaches q."""
    q = threshold(net, policy, lender)
    if q is None:
        return False
    borrowers = set(net.borrowers_of(lender))
    for member in group:
        if member not in borrowers:
            raise ValueError(f"{member!r} is not a direct borrower of {lender!r}")
    total = sum(net.weight(lender, member) for member in group)
    return total >= q - TOL


def pivotal_members(
    net: ExposureNetwork,
    lender: str,
    group: frozenset[str] | set[str],
    policy: ThresholdPolicy,
) -> frozenset[str]:
    """Members whose removal makes the group non-critical.

    A member whose removal leaves the total exactly at q is not pivotal:
    the reduced group is still critical.
    """
    if not is_critical(net, lender, group, policy):
        raise ValueError(f"group {sorted(group)} is not critical for {lender!r}")
    q = threshold(net, policy, lender)
    assert q is not None
    total = sum(net.weight(lender, member) for member in group)
    return frozenset(
        member for member in group if total - net.weight(lender, member) < q - TOL
    )


def _candidates(
    weights: list[float], floor: float, pivotal_only: bool
) -> list[list[tuple[int, ...]]]:
    """Index sets that may be critical (and, with `pivotal_only`, may have a
    pivotal member), found by a depth-first search.  Entry k of the result
    lists those of size k, each as a tuple in index order.

    The search adds borrowers in descending weight, ties in index order, so
    the first member of a set is its largest.  It cuts a branch when (a) the
    weight not yet visited cannot lift the total to `floor`, or, with
    `pivotal_only`, when (b) the total without the first member already
    reaches `floor`: then no member of the set or of any set the branch
    extends it to is pivotal.  Both cuts give way by `slack`, which exceeds
    the rounding of any float sum here, so that they never drop a set the
    exact test in node order would keep.
    """
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    ws = [weights[i] for i in order]
    suffix = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + ws[k]
    slack = (n + 1) * (suffix[0] + abs(floor)) * 2.0**-49
    reach, spill = floor - slack, floor + slack
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    if pivotal_only and spill <= 0:
        return by_size  # cut (b) already holds for every single borrower
    chosen: list[int] = []

    def extend(start: int, partial: float, rest: float) -> None:
        size = len(chosen) + 1
        for j in range(start, n):
            if partial + suffix[j] < reach:
                return
            rest_j = rest + ws[j]
            if pivotal_only and rest_j >= spill:
                continue
            chosen.append(order[j])
            if partial + ws[j] >= reach:
                by_size[size].append(tuple(sorted(chosen)))
            extend(j + 1, partial + ws[j], rest_j)
            chosen.pop()

    for first in range(n):
        if suffix[first] < reach:
            break
        chosen.append(order[first])
        if ws[first] >= reach:
            by_size[1].append((order[first],))
        extend(first + 1, ws[first], 0.0)
        chosen.pop()
    return by_size


def _search_input(
    net: ExposureNetwork, lender: str, policy: ThresholdPolicy, cap: int
) -> tuple[tuple[str, ...], list[float], float] | None:
    """The lender's borrowers in node order, their loans and the critical
    floor q - TOL; None when the lender has no threshold."""
    q = threshold(net, policy, lender)
    if q is None:
        return None
    borrowers = net.borrowers_of(lender)
    if len(borrowers) > cap:
        raise ValueError(
            f"lender {lender!r} has {len(borrowers)} borrowers; exhaustive "
            f"enumeration is capped at {cap} (raise the cap or use the "
            f"simulation index)"
        )
    return borrowers, [net.weight(lender, b) for b in borrowers], q - TOL


def _enumerate(
    net: ExposureNetwork,
    lender: str,
    policy: ThresholdPolicy,
    cap: int,
    pivotal_only: bool,
) -> list[CriticalGroup]:
    found = _search_input(net, lender, policy, cap)
    if found is None:
        return []
    borrowers, weights, floor = found
    groups: list[CriticalGroup] = []
    for candidates in _candidates(weights, floor, pivotal_only):
        candidates.sort()  # node order within each size, the documented order
        for combo in candidates:
            total = sum([weights[i] for i in combo])
            if total < floor:
                continue
            pivotal = frozenset(
                [borrowers[i] for i in combo if total - weights[i] < floor]
            )
            if pivotal_only and not pivotal:
                continue
            groups.append(
                CriticalGroup(
                    lender=lender,
                    members=frozenset([borrowers[i] for i in combo]),
                    total=total,
                    pivotal=pivotal,
                )
            )
    return groups


class _LenderPass(NamedTuple):
    """What one lender's pivotal groups yield, per borrower in node order."""

    borrowers: tuple[str, ...]
    weights: list[float]
    # unnormalized KBI score: sum over pivotal groups G of
    # ((w_i + reinforcement of i by G) / s_L) / |G|
    masses: list[float]
    # smallest total of a group in which the borrower is pivotal; None if none
    min_totals: list[float | None]
    groups: int


def _lender_pass(
    net: ExposureNetwork,
    lender: str,
    policy: ThresholdPolicy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> _LenderPass | None:
    """One walk over the lender's pivotal groups that serves the KBI row, the
    direct influence row and :func:`minimal_pivotal_sum`; None when the
    lender has no threshold.

    Groups are visited, and totals and reinforcements summed, exactly as
    :func:`pivotal_groups` and the KBI formula over its output do, so every
    float equals the one computed from the listed groups.
    """
    found = _search_input(net, lender, policy, cap)
    if found is None:
        return None
    borrowers, weights, floor = found
    n = len(borrowers)
    scale = out_strength(net, lender)
    # support[i][j] = min(a_ji, a_Lj), co-member j's reinforcement of i; None
    # for a borrower no co-member reinforces, whose term is then w_i / s_L
    support: list[list[float] | None] = []
    for bi in borrowers:
        row = [min(net.weight(bj, bi), wj) for bj, wj in zip(borrowers, weights)]
        support.append(row if any(row) else None)
    alone = [w / scale for w in weights]
    masses = [0.0] * n
    min_totals: list[float | None] = [None] * n
    groups = 0
    for candidates in _candidates(weights, floor, pivotal_only=True):
        candidates.sort()
        for combo in candidates:
            total = sum([weights[i] for i in combo])
            if total < floor:
                continue
            pivotal = [i for i in combo if total - weights[i] < floor]
            if not pivotal:
                continue
            groups += 1
            size = len(combo)
            for i in pivotal:
                row = support[i]
                if row is None:
                    masses[i] += alone[i] / size
                else:
                    reinforcement = sum([row[j] for j in combo if j != i])
                    masses[i] += ((weights[i] + reinforcement) / scale) / size
                best = min_totals[i]
                if best is None or total < best:
                    min_totals[i] = total
    return _LenderPass(borrowers, weights, masses, min_totals, groups)


def _lender_passes(
    net: ExposureNetwork, policy: ThresholdPolicy
) -> dict[str, _LenderPass]:
    """:func:`_lender_pass` of every lender with a threshold, in ``net.nodes``
    order."""
    passes = {}
    for lender in net.nodes:
        found = _lender_pass(net, lender, policy)
        if found is not None:
            passes[lender] = found
    logger.debug(
        "pivotal-group pass: %d lenders visited, %d pivotal groups tallied",
        len(passes), sum(found.groups for found in passes.values()),
    )
    return passes


def critical_groups(
    net: ExposureNetwork,
    lender: str,
    policy: ThresholdPolicy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[CriticalGroup]:
    """All critical subsets of the lender's direct borrowers, with pivotal sets.

    Groups come by size, then in borrower node order; `total` is summed in
    node order.  The search skips only subsets that cannot reach q, but
    every superset of a critical group is critical, so the output can still
    hold most of the 2^|N| subsets: the borrower count is limited by `cap`.
    For lenders beyond the cap use the simulation index instead.
    """
    return _enumerate(net, lender, policy, cap, pivotal_only=False)


def pivotal_groups(
    net: ExposureNetwork,
    lender: str,
    policy: ThresholdPolicy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[CriticalGroup]:
    """The critical groups that have at least one pivotal member.

    Equal to ``[g for g in critical_groups(...) if g.pivotal]``, in the same
    order, but the search also skips every group, and its supersets, whose
    total without its largest member still reaches q.
    """
    return _enumerate(net, lender, policy, cap, pivotal_only=True)


def minimal_pivotal_sum(
    net: ExposureNetwork,
    lender: str,
    borrower: str,
    policy: ThresholdPolicy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float | None:
    """Smallest total over critical groups in which `borrower` is pivotal.

    None when the borrower is pivotal nowhere (then it exerts no direct
    influence on the lender).
    """
    if borrower not in net.borrowers_of(lender):
        raise ValueError(f"{borrower!r} is not a direct borrower of {lender!r}")
    found = _lender_pass(net, lender, policy, cap)
    assert found is not None  # a lender with a borrower has a threshold
    return found.min_totals[found.borrowers.index(borrower)]

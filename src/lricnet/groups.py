"""Critical groups of a lender's direct borrowers and their pivotal members.

A group of direct borrowers is *critical* when the loans its members took
from the lender add up to at least the lender's threshold q; a member is
*pivotal* in a critical group when removing it drops the total strictly
below q.  These two notions drive both the short-range index and the
path-based influence matrix.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .network import ExposureNetwork, ThresholdPolicy, out_strength, threshold

logger = logging.getLogger(__name__)

# Relative tolerance of the threshold q (see `_floor`): exact boundary cases,
# such as a single loan equal to q, must count as critical at any scale.
TOL = 1e-9

DEFAULT_ENUMERATION_CAP = 25


@dataclass(frozen=True)
class CriticalGroup:
    lender: str
    members: frozenset[str]
    total: float
    pivotal: frozenset[str]


def _floor(q: float) -> float:
    """The least total of loans that reaches the threshold `q`."""
    return q * (1 - TOL)


def _reaches(loans: list[float], floor: float) -> bool:
    """Whether the exact sum of `loans` reaches `floor`, in any order: ``math.fsum``
    rounds it once (Shewchuk, DCG 18, 1997), so the sign is exact."""
    return math.fsum([*loans, -floor]) >= 0


def _band(loans: list[float], floor: float) -> tuple[float, float]:
    """Bounds `low` < `floor` < `high`, off `floor` by 16 times the rounding
    error of t, a float sum of some of `loans`: the exact sum is short of it
    if t < low and reaches it if t >= high, and without a loan w it is short
    if w > t - low and reaches it if w <= t - high (or t - w is compared
    alike).  Only a case in between needs :func:`_reaches`."""
    slack = (len(loans) + 1) * (math.fsum(map(abs, loans)) + abs(floor)) * 2.0**-49
    return floor - slack, floor + slack


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
    return _reaches([net.weight(lender, member) for member in group], _floor(q))


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
    loans = {member: net.weight(lender, member) for member in group}
    return frozenset(
        m for m in loans if not _reaches([w for o, w in loans.items() if o != m], _floor(q))
    )


def _groups(
    weights: list[float], floor: float, pivotal_only: bool
) -> Iterator[tuple[list[int], float]]:
    """Groups of the borrowers with loans `weights` (node order) whose total
    reaches `floor`; with `pivotal_only`, those whose largest member is pivotal.

    Yields ``(members, total)`` per group, in the preorder of a depth-first
    search that takes borrowers in index order, so the groups of each size
    come in lexicographic order.  `members` holds the indices in ascending
    order; it is one list that the search goes on to change, so a caller
    copies what it keeps.  `total` is the rounded left-to-right sum of the
    members' loans in index order, as ``sum()`` gives; decisions are exact.

    The search skips a group and all its extensions (a) when all the
    borrowers after it cannot lift its total to `floor`, or, with
    `pivotal_only`, (b) when its total without its largest member already
    reaches `floor`: then no extension has a pivotal member.  A member is
    pivotal iff the largest one is, as the total without w falls as w grows.
    Each test compares a float sum with the :func:`_band` of the loans, and
    cut (b) and the critical test call :func:`_reaches` inside it.
    """
    n = len(weights)
    rest = [*accumulate(reversed(weights), initial=0.0)][::-1]  # rest[k]: loans k..
    low, high = _band(weights, floor)
    cut = low if pivotal_only else math.inf  # no cut (b) without `pivotal_only`
    members: list[int] = []
    # the open group is `members`, its total and its largest loan, and k the
    # next borrower to add; `parents` keeps the same for each shorter group
    parents: list[tuple[int, float, float]] = []
    k, total, largest = 0, 0.0, 0.0
    while True:
        if k == n or total + rest[k] < low:
            if not parents:
                return
            k, total, largest = parents.pop()
            members.pop()
            continue
        loan = weights[k]
        grown = total + loan
        top = largest if largest > loan else loan
        k += 1
        if (spared := grown - top) >= cut and (
            spared >= high
            or _reaches([*[weights[j] for j in members], loan, -top], floor)
        ):
            continue
        members.append(k - 1)
        if grown >= high or (grown >= low and _reaches([weights[j] for j in members], floor)):
            yield members, grown
        parents.append((k, total, largest))
        total, largest = grown, top


def _pivots(
    weights: list[float], members: list[int], total: float, floor: float, low: float, high: float
) -> list[int]:
    """The members of a critical group, float sum `total`, without whose loan it
    falls short of `floor`; `low`, `high` is the :func:`_band` of `weights`."""
    spare, short = total - high, total - low  # as inline in `_tally`
    return [i for i in members if weights[i] > short or (weights[i] > spare
            and not _reaches([weights[j] for j in members if j != i], floor))]


def _non_dummies(weights: list[float], floor: float) -> list[int]:
    """The members of the inclusion-minimal groups of the loans `weights`
    whose total reaches `floor`, by index.

    With non-negative loans these are the members pivotal in some group
    (Felsenthal & Machover, *The Measurement of Voting Power*, 1998).  The
    search stops once every member is covered.
    """
    low, high = _band(weights, floor)
    uncovered = set(range(len(weights)))
    hardest = max(weights, default=0.0)  # the largest loan still uncovered
    for members, total in _groups(weights, floor, True):
        if hardest <= total - high:
            continue  # total - w grows as w falls: no uncovered k is pivotal
        uncovered.difference_update(_pivots(weights, members, total, floor, low, high))
        if not uncovered:
            break
        hardest = max([weights[k] for k in uncovered])
    return [k for k in range(len(weights)) if k not in uncovered]


def _search_input(
    net: ExposureNetwork, lender: str, policy: ThresholdPolicy, cap: int
) -> tuple[tuple[str, ...], list[float], float] | None:
    """The lender's borrowers in node order, their loans and the
    :func:`_floor` of its threshold; None when the lender has no threshold."""
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
    return borrowers, [net.weight(lender, b) for b in borrowers], _floor(q)


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
    low, high = _band(weights, floor)
    # preorder lists each size in lexicographic order; sizes come in turn
    by_size: list[list[CriticalGroup]] = [[] for _ in range(len(borrowers) + 1)]
    for members, total in _groups(weights, floor, pivotal_only):
        pivots = _pivots(weights, members, total, floor, low, high)
        by_size[len(members)].append(
            CriticalGroup(
                lender=lender,
                members=frozenset([borrowers[k] for k in members]),
                total=total,
                pivotal=frozenset([borrowers[k] for k in pivots]),
            )
        )
    return [group for groups in by_size for group in groups]


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

    Totals and reinforcements are summed, and each borrower's terms added,
    in the order :func:`pivotal_groups` lists the groups and the KBI formula
    sums over them, so every float equals the one computed from that list.
    """
    found = _search_input(net, lender, policy, cap)
    return None if found is None else _tally(net, lender, *found)


def _tally(
    net: ExposureNetwork,
    lender: str,
    borrowers: tuple[str, ...],
    weights: list[float],
    floor: float,
) -> _LenderPass:
    n = len(borrowers)
    scale = out_strength(net, lender)
    # support[i][j] = min(a_ji, a_Lj), co-member j's reinforcement of i;
    # None when no co-member lends to i
    support: list[list[float] | None] = []
    for bi in borrowers:
        row = [min(net.weight(bj, bi), wj) for bj, wj in zip(borrowers, weights)]
        support.append(row if any(row) else None)
    low, high = _band(weights, floor)
    lowest: list[float | None] = [None] * n
    # per group size, each pivotal (member, term) pair in group order
    who = [array("i") for _ in range(n + 1)]
    terms = [array("d") for _ in range(n + 1)]
    groups = 0
    for members, total in _groups(weights, floor, True):
        groups += 1
        size = len(members)
        pivots, pivot_terms = who[size], terms[size]
        spare, short = total - high, total - low  # `_pivots`' test, inline
        for i in members:
            loan = weights[i]
            if loan <= spare or (
                loan <= short and _reaches([weights[j] for j in members if j != i], floor)
            ):
                continue
            row = support[i]
            if row is not None:
                # co-members' reinforcement, added in index order; i's own
                # entry is 0.0, which leaves the sum as it is
                reinforcement = 0.0
                for j in members:
                    reinforcement += row[j]
                loan += reinforcement
            pivots.append(i)
            pivot_terms.append((loan / scale) / size)
            least = lowest[i]
            if least is None or total < least:
                lowest[i] = total
    # each borrower's mass adds its groups' terms one after another, in
    # group order: by size, then lexicographic
    mass = [0.0] * n
    for members, masses in zip(who, terms):
        for i, term in zip(members, masses):
            mass[i] += term
    return _LenderPass(borrowers, weights, mass, lowest, groups)


def _lender_passes(
    net: ExposureNetwork, policy: ThresholdPolicy
) -> dict[str, _LenderPass]:
    """:func:`_lender_pass` of every lender with a threshold, in ``net.nodes``
    order.  Every lender is checked against the cap before any is walked."""
    inputs = {
        lender: _search_input(net, lender, policy, DEFAULT_ENUMERATION_CAP)
        for lender in net.nodes
    }
    passes = {
        lender: _tally(net, lender, *found)
        for lender, found in inputs.items()
        if found is not None
    }
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

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


def _slack(weights: list[float], floor: float) -> float:
    """More than the rounding error of any sum of the loans `weights`, and
    of its difference with one loan or with `floor`."""
    return (len(weights) + 1) * (sum(weights) + abs(floor)) * 2.0**-49


def _groups(
    weights: list[float], floor: float, pivotal_only: bool, loose: bool = False
) -> Iterator[tuple[list[int], float]]:
    """Groups of the borrowers with loans `weights` (node order) whose total
    reaches `floor`; with `pivotal_only`, those with a pivotal member.

    Yields ``(members, total)`` per group, in the preorder of a depth-first
    search that takes borrowers in index order, so the groups of each size
    come in lexicographic order.  `members` holds the indices in ascending
    order; it is one list that the search goes on to change, so a caller
    copies what it keeps.  `total` adds the members' loans in index order,
    one after another, as ``sum()`` over them does.

    The search skips a group and all its extensions (a) when all the
    borrowers after it cannot lift its total to `floor`, or, with
    `pivotal_only`, (b) when its total without its largest member already
    reaches `floor`: then no extension has a pivotal member.  Both cuts give
    way by `slack`, which exceeds the rounding of any float sum here.  A
    member is pivotal iff the largest one is, as ``total - w`` falls as w
    grows.  With `loose`, the pivotal filter gives way by `slack` too, so it
    also keeps each group in which a member is pivotal only when the total
    without it is summed anew.
    """
    n = len(weights)
    rest = [0.0] * (n + 1)  # rest[k]: the loans of borrowers k.. summed
    for k in range(n - 1, -1, -1):
        rest[k] = rest[k + 1] + weights[k]
    slack = _slack(weights, floor)
    reach, spill = floor - slack, floor + slack
    if not pivotal_only:
        spill = pivot_floor = math.inf  # neither cut (b) nor the filter applies
    elif spill <= 0:
        return  # cut (b) already holds for every single borrower
    else:
        pivot_floor = spill if loose else floor
    members: list[int] = []
    # the open group is `members`, its total and its largest loan, and k the
    # next borrower to add; `parents` keeps the same for each shorter group
    parents: list[tuple[int, float, float]] = []
    k, total, largest = 0, 0.0, 0.0
    while True:
        if k == n or total + rest[k] < reach:
            if not parents:
                return
            k, total, largest = parents.pop()
            members.pop()
            continue
        loan = weights[k]
        grown = total + loan
        top = largest if largest > loan else loan
        k += 1
        if grown - top >= spill:
            continue
        members.append(k - 1)
        if grown >= floor and grown - top < pivot_floor:
            yield members, grown
        parents.append((k, total, largest))
        total, largest = grown, top


def _non_dummies(weights: list[float], floor: float) -> list[int]:
    """The members of the inclusion-minimal groups of the loans `weights`
    whose total reaches `floor`, by index.

    With non-negative loans these are the members pivotal in some group
    (Felsenthal & Machover, *The Measurement of Voting Power*, 1998): k is
    kept when some group reaches the floor and the group without k, summed
    anew left to right in index order, does not.  The ``total - w_k`` test
    of :func:`_groups` can round either way, so only the loose filter's
    groups are read, and each member still uncovered is re-summed in every
    one of them unless ``total - w_k`` clears the floor by more than the
    slack of :func:`_groups`, as then its re-summed rest reaches the floor
    too.  The search stops once every member is covered.
    """
    spill = floor + _slack(weights, floor)
    uncovered = set(range(len(weights)))
    hardest = max(weights, default=0.0)  # the largest loan still uncovered
    for members, total in _groups(weights, floor, True, loose=True):
        if total - hardest >= spill:
            continue  # total - w grows as w falls: no uncovered k is pivotal
        for k in uncovered.intersection(members):
            if total - weights[k] < spill:
                rest = 0.0
                for j in members:
                    if j != k:
                        rest += weights[j]
                if rest < floor:
                    uncovered.remove(k)
        if not uncovered:
            break
        hardest = max([weights[k] for k in uncovered])
    return [k for k in range(len(weights)) if k not in uncovered]


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
    # preorder lists each size in lexicographic order; sizes come in turn
    by_size: list[list[CriticalGroup]] = [[] for _ in range(len(borrowers) + 1)]
    for members, total in _groups(weights, floor, pivotal_only):
        by_size[len(members)].append(
            CriticalGroup(
                lender=lender,
                members=frozenset([borrowers[k] for k in members]),
                total=total,
                pivotal=frozenset(
                    [borrowers[k] for k in members if total - weights[k] < floor]
                ),
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
    lowest: list[float | None] = [None] * n
    # per group size, each pivotal (member, term) pair in group order
    who = [array("i") for _ in range(n + 1)]
    terms = [array("d") for _ in range(n + 1)]
    groups = 0
    for members, total in _groups(weights, floor, True):
        groups += 1
        size = len(members)
        pivots, pivot_terms = who[size], terms[size]
        for i in members:
            loan = weights[i]
            if total - loan >= floor:
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

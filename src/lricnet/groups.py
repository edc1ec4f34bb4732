"""Critical groups of a lender's direct borrowers and their pivotal members.

A group of direct borrowers is *critical* when the loans its members took
from the lender add up to at least the lender's threshold q; a member is
*pivotal* in a critical group when removing it drops the total strictly
below q.  These two notions drive both the short-range index and the
path-based influence matrix.
"""

from __future__ import annotations

import functools
import logging
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

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


# A lender's last BLOCK_BITS borrowers form a block: the 2^BLOCK_BITS subsets
# of it that extend one set of earlier borrowers are enumerated together.
BLOCK_BITS = 12


@functools.cache
def _block_layout(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    # Block borrower t is bit bits-1-t of a subset's position, so among the
    # subsets of one size descending positions are lexicographic order.
    # `order` lists the positions by size, then descending, and the subsets
    # of size c start at offsets[c] in it.  `sizes` and `members` follow
    # `order`; row 2 + t of `members` marks the subsets holding block
    # borrower t, row 0 none and row 1 all (the rows of earlier borrowers).
    width = 1 << bits
    sizes = np.zeros(width)
    for t in range(bits):
        step = width >> (t + 1)
        sizes[step :: 2 * step] = sizes[:: 2 * step] + 1.0
    order = np.empty(width, dtype=np.intp)
    offsets = [0]
    for size in range(bits + 1):
        at = np.flatnonzero(sizes == size)[::-1]
        order[offsets[-1] : offsets[-1] + len(at)] = at
        offsets.append(offsets[-1] + len(at))
    members = np.empty((bits + 2, width), dtype=bool)
    members[0] = False
    members[1] = True
    for t in range(bits):
        step = width >> (t + 1)
        inside = np.zeros(width)
        inside.reshape(-1, 2 * step)[:, step:] = 1.0
        np.greater(inside.take(order), 0.0, out=members[2 + t])
    return order, sizes.take(order), members, offsets


def _blocks(
    weights: list[float], floor: float, pivotal_only: bool, loose: bool = False
) -> Iterator[tuple]:
    """Groups of the borrowers with loans `weights` (node order) whose total
    reaches `floor`; with `pivotal_only`, those with a pivotal member.

    Yields one block per prefix, a set of borrowers before the last
    BLOCK_BITS: ``(prefix size, bounds, (totals, sizes, members, pivotal))``
    over the prefix's groups by size, then in lexicographic order.  Those of
    size prefix size + c are columns ``bounds[c]:bounds[c + 1]``; `members`
    and `pivotal` have a row per borrower.  Totals add the members' loans in
    index order, one after another, as ``sum()`` over them does.

    Prefixes come from a depth-first search that skips one when (a) all the
    borrowers after it cannot lift its total to `floor`, or, with
    `pivotal_only`, when (b) its total without its largest member already
    reaches `floor`: then no extension has a pivotal member.  Both cuts
    give way by `slack`, which exceeds the rounding of any float sum here.
    With `loose`, the pivotal filter of a block's groups gives way by
    `slack` too, so it also keeps each group in which a member is pivotal
    only when the total without it is summed anew.  A prefix's block
    follows the blocks of its extensions, which keeps every size in
    lexicographic order across blocks.
    """
    n = len(weights)
    start = max(n - BLOCK_BITS, 0)
    order, layout_sizes, layout_members, offsets = _block_layout(n - start)
    rest = [0.0] * (n + 1)  # rest[k]: the loans of borrowers k.. summed
    for k in range(n - 1, -1, -1):
        rest[k] = rest[k + 1] + weights[k]
    slack = (n + 1) * (rest[0] + abs(floor)) * 2.0**-49
    reach, spill = floor - slack, floor + slack
    pivot_floor = spill if loose else floor
    if pivotal_only and spill <= 0:
        return  # cut (b) already holds for every single borrower
    loans = np.array(weights)[:, None]
    steps = [(len(order) >> (t + 1), w) for t, w in enumerate(weights[start:])]
    tops = np.zeros(len(order))  # each subset's largest loan, by position
    for step, loan in steps:
        below = tops[:: 2 * step]
        tops[step :: 2 * step] = np.where(below > loan, below, loan)
    tops = tops.take(order)
    block_rows = list(range(2, 2 + n - start))
    prefix: list[int] = []

    def block(total: float, top: float) -> tuple | None:
        sums = np.empty(len(order))  # each group's total, by position
        sums[0] = total
        for step, loan in steps:  # the highest index of a group comes last
            np.add(sums[:: 2 * step], loan, out=sums[step :: 2 * step])
        totals = sums.take(order)
        if not prefix:
            totals[0] = -np.inf  # the empty set is not a group
        cols = np.flatnonzero(totals >= floor)
        if pivotal_only:
            # a member is pivotal iff the largest one is: x - w falls as w grows
            largest = tops.take(cols)
            largest = np.where(largest > top, largest, top)
            cols = cols.take(np.flatnonzero(totals.take(cols) - largest < pivot_floor))
        if not len(cols):
            return None
        totals = totals.take(cols)
        chosen = set(prefix)
        rows = [int(k in chosen) for k in range(start)] + block_rows
        members = layout_members.take(cols, axis=1).take(rows, axis=0)
        # a non-member leaves the total, which reaches the floor, as it is
        rests = np.where(members, loans, 0.0)
        pivotal = np.subtract(totals, rests, out=rests) < floor
        listed = cols.tolist()
        sizes = layout_sizes.take(cols) + len(prefix)
        bounds = [bisect_left(listed, offset) for offset in offsets]
        return len(prefix), bounds, (totals, sizes, members, pivotal)

    def walk(first: int, total: float, largest: float) -> Iterator[tuple]:
        for k in range(first, start):
            if total + rest[k] < reach:
                break
            grown, top = total + weights[k], max(largest, weights[k])
            if pivotal_only and grown - top >= spill:
                continue
            prefix.append(k)
            yield from walk(k + 1, grown, top)
            prefix.pop()
        if total + rest[start] >= reach:
            found = block(total, largest)
            if found is not None:
                yield found

    yield from walk(0, 0.0, 0.0)


def _non_dummies(weights: list[float], floor: float) -> list[int]:
    """The members of the inclusion-minimal groups of the loans `weights`
    whose total reaches `floor`, by index.

    With non-negative loans these are the members pivotal in some group
    (Felsenthal & Machover, *The Measurement of Voting Power*, 1998): k is
    kept when some group reaches the floor and the group without k, summed
    anew left to right in index order, does not.  The ``total - w_k`` test
    of :func:`_blocks` can round either way, so only the loose filter's
    groups are read, and each member still uncovered is re-summed in every
    one of them.  The search stops once every member is covered.
    """
    n = len(weights)
    # row k: the loans with k's own as 0.0, which leaves a sum as it is
    without = np.array(
        [[0.0 if j == k else w for j, w in enumerate(weights)] for k in range(n)]
    )
    uncovered = np.arange(n)
    for _, _, (_, _, members, _) in _blocks(weights, floor, True, loose=True):
        # rests[u, g]: group g's loans without uncovered member u, summed in
        # index order; for a non-member u that is g's total, which reaches
        # the floor
        rests = np.zeros((len(uncovered), members.shape[1]))
        for j, inside in enumerate(members):
            rests += np.where(inside, without[:, j, None], 0.0)
        kept = ~(rests < floor).any(axis=1)
        uncovered, without = uncovered[kept], without[kept]
        if not len(uncovered):
            break
    return sorted(set(range(n)) - set(uncovered.tolist()))


def _in_size_order(parts: Iterable[tuple], n: int) -> Iterator[tuple]:
    """``(payload, a, b)`` for each ``(prefix size, bounds, payload)`` part
    and each of its group sizes: by size, then in part order."""
    by_size: list[list[tuple]] = [[] for _ in range(n + 1)]
    for size, bounds, payload in parts:
        for c in range(len(bounds) - 1):
            if bounds[c] < bounds[c + 1]:
                by_size[size + c].append((payload, bounds[c], bounds[c + 1]))
    for chunks in by_size:
        yield from chunks


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
    blocks = _blocks(weights, floor, pivotal_only)
    for (totals, _, members, pivotal), a, b in _in_size_order(blocks, len(borrowers)):
        for total, inside, pivots in zip(
            totals[a:b].tolist(), members[:, a:b].T.tolist(), pivotal[:, a:b].T.tolist()
        ):
            groups.append(
                CriticalGroup(
                    lender=lender,
                    members=frozenset(compress(borrowers, inside)),
                    total=total,
                    pivotal=frozenset(compress(borrowers, pivots)),
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
    # support[i, j] = min(a_ji, a_Lj), co-member j's reinforcement of i
    rows = [
        [min(net.weight(bj, bi), wj) for bj, wj in zip(borrowers, weights)]
        for bi in borrowers
    ]
    supporters = [j for j in range(n) if any(row[j] for row in rows)]
    support = np.array(rows)
    loans = np.array(weights)
    lowest = np.full(n, np.inf)  # pivotal totals are finite: a loan is finite
    parts = []
    groups = 0
    for size, bounds, (totals, sizes, members, pivotal) in _blocks(weights, floor, True):
        groups += len(totals)
        at, who = np.nonzero(pivotal.T)  # (group, pivotal member), group by group
        # co-members' reinforcement, added in index order; adding 0.0 for a
        # non-member or a non-supporter leaves a sum as it is
        reinforcement = np.zeros(len(who))
        for j in supporters:
            reinforcement += np.where(members[j].take(at), support[:, j].take(who), 0.0)
        masses = ((loans.take(who) + reinforcement) / scale) / sizes.take(at)
        np.minimum.at(lowest, who, totals.take(at))
        listed = at.tolist()
        bounds = [bisect_left(listed, bound) for bound in bounds]
        # a copy of who frees the (group, member) pairs it is a view of
        parts.append((size, bounds, (who.copy(), masses)))
    # each borrower's mass adds its groups' terms one after another, in
    # group order: by size, then lexicographic
    mass = np.zeros(n)
    for (who, masses), a, b in _in_size_order(parts, n):
        np.add.at(mass, who[a:b], masses[a:b])
    min_totals = [None if t == np.inf else t for t in lowest.tolist()]
    return _LenderPass(borrowers, weights, mass.tolist(), min_totals, groups)


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

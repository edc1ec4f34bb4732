"""Critical groups of a lender's direct borrowers and their pivotal members.

A group of direct borrowers is *critical* when the loans its members took
from the lender add up to at least the lender's threshold q; a member is
*pivotal* in a critical group when removing it drops the total strictly
below q.  These two notions drive both the short-range index and the
path-based influence matrix.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from itertools import accumulate, islice
from typing import NamedTuple

from .network import ExposureNetwork, ThresholdPolicy, _tuple_eq, _tuple_ne, threshold

# Relative tolerance of the threshold q (see `_floor`): exact boundary cases,
# such as a single loan equal to q, must count as critical at any scale.
TOL = 1e-9

DEFAULT_ENUMERATION_CAP = 25


class CriticalGroup(NamedTuple):
    lender: str
    members: frozenset[str]
    total: float
    pivotal: frozenset[str]

    __eq__, __ne__ = _tuple_eq, _tuple_ne


def _debug(logger: str, message: str, *args: object) -> None:
    """Log `message` % `args` at DEBUG level on the logger named `logger`,
    if :mod:`logging` has been imported.  If it has not, no handler exists
    and the record would go nowhere; so a plain ``lric-net`` run leaves
    :mod:`logging` unloaded, and ``-v`` loads it."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(message, *args)


def _floor(q: float) -> float:
    """The least total of loans that reaches the threshold `q`."""
    return q * (1 - TOL)


def _exact(values: list[float]) -> tuple[int, list[int]]:
    """The floats `values` as exact ints over one power-of-two denominator
    (every float is a dyadic rational): the denominator and the ints, so
    that int sums of them are exact rational sums."""
    ratios = [x.as_integer_ratio() for x in values]
    denominator = max([den for _, den in ratios], default=1)
    return denominator, [num * (denominator // den) for num, den in ratios]


def _need(floor: float, denominator: int) -> int:
    """The least int total over `denominator` that reaches `floor`."""
    num, den = floor.as_integer_ratio()
    return -(-num * denominator // den)


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
    denominator, loans = _exact([net.weight(lender, member) for member in group])
    return sum(loans) >= _need(_floor(q), denominator)


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
    members = list(group)
    denominator, loans = _exact([net.weight(lender, member) for member in members])
    total, need = sum(loans), _need(_floor(q), denominator)
    return frozenset(m for m, w in zip(members, loans) if total - w < need)


def _groups(loans: list[int], need: int, pivotal_only: bool) -> Iterator[tuple[list[int], int]]:
    """Groups of the borrowers with exact int loans `loans` (node order, see
    :func:`_exact`) whose total reaches `need`; with `pivotal_only`, those
    whose largest member is pivotal.

    Yields ``(members, total)`` per group, in the preorder of a depth-first
    search that takes borrowers in index order, so the groups of each size
    come in lexicographic order.  `members` holds the indices in ascending
    order; it is one list that the search goes on to change, so a caller
    copies what it keeps.  `total` is the exact int sum of the members' loans.

    The search skips a group and all its extensions (a) when all the
    borrowers after it cannot lift its total to `need`, or, with
    `pivotal_only`, (b) when its total without its largest member already
    reaches `need`: then no extension has a pivotal member.  A member is
    pivotal iff the largest one is, as the total without w falls as w grows.
    """
    n = len(loans)
    rest = [*accumulate(reversed(loans), initial=0)][::-1]  # rest[k]: loans k..
    cut = need if pivotal_only else math.inf  # no cut (b) without `pivotal_only`
    members: list[int] = []
    # the open group is `members`, its total and its largest loan, and k the
    # next borrower to add; `parents` keeps the same for each shorter group
    parents: list[tuple[int, int, int]] = []
    k, total, largest = 0, 0, 0
    while True:
        if k == n or total + rest[k] < need:
            if not parents:
                return
            k, total, largest = parents.pop()
            members.pop()
            continue
        loan = loans[k]
        grown = total + loan
        top = largest if largest > loan else loan
        k += 1
        if grown - top >= cut:
            continue
        members.append(k - 1)
        if grown >= need:
            yield members, grown
        parents.append((k, total, largest))
        total, largest = grown, top


def _pivots(loans: list[int], members: list[int], total: int, need: int) -> list[int]:
    """The members of a critical group, total `total`, without whose loan it
    falls short of `need`."""
    return [i for i in members if total - loans[i] < need]


def _non_dummies(loans: list[int], need: int) -> list[int]:
    """The members of the inclusion-minimal groups of the int loans `loans`
    whose total reaches `need`, by index.

    With non-negative loans these are the members pivotal in some group
    (Felsenthal & Machover, *The Measurement of Voting Power*, 1998).  The
    search stops once every member is covered.
    """
    uncovered = set(range(len(loans)))
    hardest = max(loans, default=0)  # the largest loan still uncovered
    for members, total in _groups(loans, need, True):
        if total - hardest >= need:
            continue  # total - w grows as w falls: no uncovered k is pivotal
        uncovered.difference_update(_pivots(loans, members, total, need))
        if not uncovered:
            break
        hardest = max([loans[k] for k in uncovered])
    return [k for k in range(len(loans)) if k not in uncovered]


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
    denominator, loans = _exact(weights)
    need = _need(floor, denominator)
    # preorder lists each size in lexicographic order; sizes come in turn
    by_size: list[list[CriticalGroup]] = [[] for _ in range(len(borrowers) + 1)]
    for members, total in _groups(loans, need, pivotal_only):
        pivots = _pivots(loans, members, total, need)
        rounded = 0.0
        for k in members:  # the float total, left to right in node order
            rounded += weights[k]
        by_size[len(members)].append(
            CriticalGroup(
                lender=lender,
                members=frozenset([borrowers[k] for k in members]),
                total=rounded,
                pivotal=frozenset([borrowers[k] for k in pivots]),
            )
        )
    return [group for groups in by_size for group in groups]


class _LenderPass(NamedTuple):
    """What one lender's pivotal groups yield, per borrower in node order.

    Both routes, the walk (:func:`_tally`) and counting (:func:`_count`),
    work with the exact sums of :func:`_units` and give equal passes.
    """

    borrowers: tuple[str, ...]
    weights: list[float]
    # unnormalized KBI score, the sum over pivotal groups G of
    # (w_i + reinforcement of i by G) / |G|, as an exact numerator over
    # lcm(1..n) times the denominator of `_units` (n borrowers)
    masses: list[int]
    # exact smallest total of a group in which the borrower is pivotal,
    # rounded once; None if none
    min_totals: list[float | None]
    groups: int


# (denominator, loans, support): see `_units`
_Units = tuple[int, list[int], list[list[int] | None]]


def _units(net: ExposureNetwork, borrowers: tuple[str, ...], weights: list[float]) -> _Units:
    """A lender's loans and reinforcements as exact ints over one power-of-two
    denominator (every float is a dyadic rational): the denominator, the
    loans, and support[i][j] = min(a_ji, a_Lj), co-member j's reinforcement
    of i, or None when no co-member lends to i."""
    edges, rows = net.edges, []
    for bi in borrowers:
        # min(a_ji, a_Lj), 0.0 where j does not lend to i
        row = [
            a if (a := edges.get((bj, bi), 0.0)) < wj else wj
            for bj, wj in zip(borrowers, weights)
        ]
        rows.append(row if any(row) else None)
    values = [*weights]
    for row in rows:
        values += row or ()
    denominator, ints = _exact(values)
    exact = iter(ints)
    loans = list(islice(exact, len(weights)))
    return (
        denominator,
        loans,
        [None if row is None else list(islice(exact, len(row))) for row in rows],
    )


def _tally(
    borrowers: tuple[str, ...], weights: list[float], floor: float, units: _Units
) -> _LenderPass:
    """The pass by a walk over the pivotal groups (:func:`_groups`): each
    pivotal member's term w_i + reinforcement, times lcm(1..n)/|G|, is
    added to its exact mass."""
    n = len(borrowers)
    denominator, loans, support = units
    need = _need(floor, denominator)
    lcm = math.lcm(*range(1, n + 1))
    masses = [0] * n
    least: list[int | None] = [None] * n
    groups = 0
    for members, total in _groups(loans, need, True):
        groups += 1
        factor = lcm // len(members)
        spare = total - need  # `_pivots`' test, inline
        for i in members:
            term = loans[i]
            if term <= spare:
                continue
            row = support[i]
            if row is not None:
                for j in members:  # i's own entry is 0
                    term += row[j]
            masses[i] += factor * term
            bound = least[i]
            if bound is None or total < bound:
                least[i] = total
    lowest = [None if exact is None else exact / denominator for exact in least]
    return _LenderPass(borrowers, weights, masses, lowest, groups)


def _count(
    borrowers: tuple[str, ...], weights: list[float], floor: float, units: _Units
) -> _LenderPass:
    """The pass by counting groups instead of listing them (Bilbao et al.,
    "Generating functions for computing power indices efficiently", TOP
    8(2), 2000).

    With u the loans over their gcd and F the least total in those units
    that reaches `floor`, ``poly[k]`` is the polynomial whose coefficient
    of x^t counts the size-k groups of total t < F, a Python int with one
    b-bit field per t, b = n + 1.  Removing borrower i (deconvolution, ``rest``)
    leaves the groups S without it, and i is pivotal in S + {i} iff
    F - u_i <= t < F: c_i(k), the size-k groups in which i is pivotal, is
    the sum of the fields of ``rest[k-1]`` in that window.  No count
    reaches 2**n, so the fields do not overflow and ``seg % (2**b - 1)``
    sums a window exactly.  Removing a co-member j as well counts c_ij(k),
    the groups that also hold j, wherever j reinforces i.
    """
    n = len(borrowers)
    denominator, loans, support = units
    unit = math.gcd(*loans)
    u = [w // unit for w in loans]
    # F, floor / unit rounded up; past the sum of all loans any F is alike
    need = min(-(-_need(floor, denominator) // unit), sum(u) + 1)
    b = n + 1
    ones = (1 << b) - 1
    top = (1 << need * b) - 1  # the fields below F, all that a window reads
    poly = [1] + [0] * n
    for added, w in enumerate(u, 1):
        for k in range(added, 0, -1):
            poly[k] = (poly[k] + (poly[k - 1] << w * b)) & top
    lcm = math.lcm(*range(1, n + 1))
    masses = [0] * n
    lowest: list[float | None] = [None] * n
    for i, w in enumerate(u):
        lo = max(need - w, 0)
        mask = (1 << (need - lo) * b) - 1
        rest = [1]
        for k in range(1, n):
            rest.append(poly[k] - ((rest[-1] << w * b) & top))
        hits = 0
        for k in range(1, n + 1):
            if seg := (rest[k - 1] >> lo * b) & mask:
                hits |= seg
                masses[i] += lcm // k * loans[i] * (seg % ones)
        if not hits:
            continue  # pivotal nowhere, so no reinforcement either
        least = w + lo + ((hits & -hits).bit_length() - 1) // b
        lowest[i] = least * unit / denominator
        for j, r in enumerate(support[i] or ()):
            lo_j, hi_j = max(need - w - u[j], 0), need - 1 - u[j]
            if not r or hi_j < lo_j:
                continue
            mask_j = (1 << (hi_j - lo_j + 1) * b) - 1
            both = [1]
            for k in range(1, n - 1):
                both.append(rest[k] - ((both[-1] << u[j] * b) & top))
            for k in range(2, n + 1):
                if seg := (both[k - 2] >> lo_j * b) & mask_j:
                    masses[i] += lcm // k * r * (seg % ones)
    # each pivotal group once, at its largest member in (loan, index) order,
    # which is pivotal iff any member is; `prefix` counts the groups of the
    # borrowers before it, of any size
    groups, prefix = 0, 1
    for p in sorted(range(n), key=u.__getitem__):
        lo = max(need - u[p], 0)
        groups += ((prefix >> lo * b) & ((1 << (need - lo) * b) - 1)) % ones
        prefix = (prefix + (prefix << u[p] * b)) & top
    return _LenderPass(borrowers, weights, masses, lowest, groups)


# Counting replaces the walk for a lender with n >= _COUNT_FROM borrowers
# whose loans, in units of their gcd, sum to T with T·(n+1), the bits of a
# generating function, at most 2**min(n + 4, _COUNT_MAX_BITS).  The walk's
# cost doubles with each borrower and counting's grows with the bits.  On
# a 2-core x86 VM, with integer loans in [1, 100] at quotas 0.25 and 0.5,
# counting took 1.0-1.4x the walk's time at 7 borrowers, 0.7-1.0x at 8,
# 0.5-0.8x at 9 and 0.04-0.12x at 14; with larger loans at quota 0.25 the
# two broke even near 2**13 bits at 9 borrowers, 2**16 at 12, 2**20 at 16.
_COUNT_FROM = 9
_COUNT_MAX_BITS = 20


def _pass(
    net: ExposureNetwork, borrowers: tuple[str, ...], weights: list[float], floor: float
) -> tuple[_LenderPass, bool]:
    """The lender's pass, and whether it came from counting."""
    units = _units(net, borrowers, weights)
    n = len(borrowers)
    if n >= _COUNT_FROM:
        _, loans, _ = units
        bits = sum(loans) // math.gcd(*loans) * (n + 1)
        if bits <= 1 << min(n + 4, _COUNT_MAX_BITS):
            return _count(borrowers, weights, floor, units), True
    return _tally(borrowers, weights, floor, units), False


def _lender_pass(
    net: ExposureNetwork,
    lender: str,
    policy: ThresholdPolicy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> _LenderPass | None:
    """The lender's pivotal groups, tallied once for the KBI row, the direct
    influence row and :func:`minimal_pivotal_sum`; None when the lender has
    no threshold.

    Sums are exact and rounded at most once, so the result does not depend
    on node order, nor on whether the groups were walked or counted.
    """
    found = _search_input(net, lender, policy, cap)
    return None if found is None else _pass(net, *found)[0]


def _lender_passes(
    net: ExposureNetwork, policy: ThresholdPolicy
) -> dict[str, _LenderPass]:
    """:func:`_lender_pass` of every lender with a threshold, in ``net.nodes``
    order.  Every lender is checked against the cap before any is tallied."""
    inputs = {
        lender: _search_input(net, lender, policy, DEFAULT_ENUMERATION_CAP)
        for lender in net.nodes
    }
    passes, counted = {}, 0
    for lender, found in inputs.items():
        if found is not None:
            passes[lender], by_count = _pass(net, *found)
            counted += by_count
    _debug(
        __name__,
        "pivotal-group pass: %d lenders visited (%d counted, %d walked), "
        "%d pivotal groups tallied",
        len(passes), counted, len(passes) - counted,
        sum(found.groups for found in passes.values()),
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

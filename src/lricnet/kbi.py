"""Short-range key borrower index.

For a single lender, every borrower is scored by the critical groups in
which it is pivotal: each such group contributes the borrower's direct loan
share, reinforced by co-members that also lend to the borrower (capped at
their own loan from the lender), averaged over the group size.  Scores are
normalized per lender and aggregated across lenders by lending volume.
"""

from __future__ import annotations

import math

from .groups import _lender_pass, _lender_passes, _LenderPass
from .network import ExposureNetwork, ThresholdPolicy, out_strength


def direct_intensity(net: ExposureNetwork, lender: str) -> dict[str, float]:
    """Loan shares p_i = a_Li / out-strength(L) over the lender's borrowers."""
    total = out_strength(net, lender)
    if total == 0:
        raise ValueError(f"{lender!r} has no outgoing exposure")
    return {b: net.weight(lender, b) / total for b in net.borrowers_of(lender)}


def indirect_intensity(net: ExposureNetwork, lender: str, via: str, borrower: str) -> float:
    """Intensity reaching `borrower` through co-borrower `via`.

    The channel exists only when the lender lends to `via` and `via` lends
    to `borrower`.  Its intensity is the via->borrower loan, capped at the
    lender's own loan to `via`, scaled by the lender's total lending.  Zero
    when via == borrower.
    """
    if via == borrower:
        return 0.0
    total = out_strength(net, lender)
    via_loan = net.weight(lender, via)
    if total == 0 or via_loan == 0:
        return 0.0
    chained = net.weight(via, borrower)
    if chained == 0:
        return 0.0
    return min(chained, via_loan) / total


def kbi_for_lender(
    net: ExposureNetwork, lender: str, policy: ThresholdPolicy
) -> dict[str, float]:
    """Normalized pivotality scores of the lender's direct borrowers.

    alpha_i = sum over critical groups G with i pivotal of
        (p_i + sum_{j in G, j != i} min(a_ji, a_Lj) / s_L) / |G|
    normalized to sum 1; all-zero when the lender has no critical group.
    The sums are exact and each score is rounded once, so the result does
    not depend on node order or set iteration order.
    """
    if out_strength(net, lender) == 0:
        raise ValueError(f"{lender!r} has no outgoing exposure")
    found = _lender_pass(net, lender, policy)
    assert found is not None  # a lender with outgoing exposure has a threshold
    return _kbi_row(found)


def _kbi_row(found: _LenderPass) -> dict[str, float]:
    mass = sum(found.masses)  # exact ints: each share is rounded once
    if mass == 0:
        return dict.fromkeys(found.borrowers, 0.0)
    return {b: v / mass for b, v in zip(found.borrowers, found.masses)}


def _kbi_rows(passes: dict[str, _LenderPass]) -> dict[str, dict[str, float]]:
    return {lender: _kbi_row(found) for lender, found in passes.items()}


def kbi_rows(net: ExposureNetwork, policy: ThresholdPolicy) -> dict[str, dict[str, float]]:
    """``kbi_for_lender`` of every lender with outgoing exposure, in node order."""
    return _kbi_rows(_lender_passes(net, policy))


def kbi_from_rows(net: ExposureNetwork, rows: dict[str, dict[str, float]]) -> dict[str, float]:
    """Aggregate index from per-lender rows, weighted by lending volume;
    each score is an exact sum of its terms, rounded once."""
    grand_total = math.fsum(net.out_strengths.values())
    if grand_total == 0:
        return {v: 0.0 for v in net.nodes}
    terms: dict[str, list[float]] = {v: [] for v in net.nodes}
    for lender, row in rows.items():
        weight = net.out_strengths[lender] / grand_total
        for borrower, value in row.items():
            terms[borrower].append(weight * value)
    return {v: math.fsum(values) for v, values in terms.items()}


def kbi_matrix(net: ExposureNetwork, rows: dict[str, dict[str, float]]) -> list[list[float]]:
    """Per-lender rows as a matrix over ``net.nodes``, a list of rows: entry
    (L, B) is B's score for lender L; zero rows for nodes that do not lend."""
    n, index = len(net.nodes), net.index
    values = [[0.0] * n for _ in range(n)]
    for lender, row in rows.items():
        line = values[index[lender]]
        for borrower, share in row.items():
            line[index[borrower]] = share
    return values


def kbi(net: ExposureNetwork, policy: ThresholdPolicy) -> dict[str, float]:
    """Aggregate index over all lenders, weighted by lending volume."""
    return kbi_from_rows(net, kbi_rows(net, policy))

"""Exposure networks: construction, netting, strengths, and threshold policies.

The network is a weighted directed graph in which an edge i -> j of weight
a_ij means that node i (the lender) has given a_ij to node j (the borrower).
All downstream indices consume a *netted* network, i.e. one in which at most
one direction of every mutual pair survives; see :func:`net_mutual_exposures`.

Node ids are arbitrary strings.  Ids that look like integers sort numerically
so that reports list "2" before "10".
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple


def node_sort_key(node: str) -> tuple[int, float, str]:
    """Sort key putting integer-like ids in numeric order before the rest."""
    try:
        return (0, float(int(node)), "")
    except ValueError:
        return (1, 0.0, node)


class _Record:
    """Base of the immutable records that validate their fields.

    A subclass names its fields, in order, in ``_fields``; its ``__init__``
    sets them with :meth:`_assign` and checks them.  Records compare,
    hash, copy and pickle by those fields, a record never equals one of
    another class, and no attribute can be set or deleted once built.
    Unlike a dataclass, the class runs no generated code at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _tuple_eq(self: tuple, other: object) -> bool:
    """``__eq__`` of a ``NamedTuple`` record: field by field within its
    class, never equal to a record of another class or a plain tuple."""
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _tuple_ne(self: tuple, other: object) -> bool:
    equal = _tuple_eq(self, other)
    return equal if equal is NotImplemented else not equal


def _fsum(values: Iterable[float], what: str, node: str | None = None) -> float:
    """``math.fsum(values)``; a sum past the largest float raises ValueError
    naming `what` (and `node`), not OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        named = what if node is None else f"{what} {node!r}"
        raise ValueError(f"{named} sum to a non-finite value") from None


class ExposureNetwork(_Record):
    """Immutable weighted directed exposure graph.

    Parameters
    ----------
    nodes:
        All node ids, sorted with :func:`node_sort_key`.  Includes isolated
        nodes (e.g. ones that appear only in an attribute file).
    edges:
        Map ``(lender, borrower) -> weight``; weights are strictly positive,
        a missing key means no exposure.  Read-only: the views below are
        derived from it once, so it must not be mutated after construction.
    attributes:
        Map ``attribute name -> {node -> value}``, empty by default.  Values
        are nonnegative; a node absent from the inner map has no value for
        that attribute.

    Built once with the network, and left out of equality and repr:
    ``index`` maps each node to its position in ``nodes``,
    ``out_strengths`` / ``in_strengths`` hold each node's total lending and
    borrowing, summed exactly and rounded once (``math.fsum``), so they do
    not depend on the order of ``edges``, and each lender's borrowers are
    sorted for :meth:`borrowers_of`.  A total past the largest float raises
    ValueError naming the node.
    """

    _fields = ("nodes", "edges", "attributes")
    __slots__ = (*_fields, "index", "out_strengths", "in_strengths", "_borrowers")

    def __init__(
        self,
        nodes: tuple[str, ...],
        edges: dict[tuple[str, str], float],
        attributes: dict[str, dict[str, float]] | None = None,
    ) -> None:
        borrowers: dict[str, list[str]] = {v: [] for v in nodes}
        lenders: dict[str, list[str]] = {v: [] for v in nodes}
        for (a, b), w in edges.items():
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight on edge {a!r}->{b!r}: {w}")
            if w <= 0:
                raise ValueError(f"non-positive weight on edge {a!r}->{b!r}: {w}")
            if a not in borrowers or b not in borrowers:
                raise ValueError(f"edge {a!r}->{b!r} references unknown node")
            borrowers[a].append(b)
            lenders[b].append(a)
        outs = {a: _fsum([edges[a, b] for b in bs], "loans of", a) for a, bs in borrowers.items()}
        ins = {b: _fsum([edges[a, b] for a in ls], "loans to", b) for b, ls in lenders.items()}
        ordered = {a: tuple(sorted(bs, key=node_sort_key)) for a, bs in borrowers.items()}
        self._assign(nodes, edges, {} if attributes is None else attributes)
        view = object.__setattr__
        view(self, "index", {v: k for k, v in enumerate(nodes)})
        view(self, "out_strengths", outs)
        view(self, "in_strengths", ins)
        view(self, "_borrowers", ordered)

    def weight(self, lender: str, borrower: str) -> float:
        """Exposure of `lender` to `borrower`; 0.0 when there is no edge."""
        return self.edges.get((lender, borrower), 0.0)

    def borrowers_of(self, lender: str) -> tuple[str, ...]:
        """Direct borrowers of `lender`, in node order."""
        return self._borrowers.get(lender, ())

    def attribute(self, name: str, node: str) -> float | None:
        return self.attributes.get(name, {}).get(node)


def _check_fraction(fraction: float) -> None:
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")


class OutShareQuota(_Record):
    """Threshold q_i = fraction x out-strength(i)."""

    __slots__ = _fields = ("fraction",)

    def __init__(self, fraction: float) -> None:
        self._assign(fraction)
        _check_fraction(fraction)


class AttributeShare(_Record):
    """Threshold q_i = fraction x attribute(i), e.g. 10% of GDP."""

    __slots__ = _fields = ("attribute", "fraction")

    def __init__(self, attribute: str, fraction: float) -> None:
        self._assign(attribute, fraction)
        _check_fraction(fraction)


class Absolute(NamedTuple):
    """Explicit per-node thresholds."""

    quotas: dict[str, float]

    __eq__, __ne__ = _tuple_eq, _tuple_ne


ThresholdPolicy = OutShareQuota | AttributeShare | Absolute


def ingest_edges(
    records: list[tuple[str, str, float]],
    attributes: dict[str, dict[str, float]] | None = None,
) -> ExposureNetwork:
    """Build a network from (lender, borrower, weight) records.

    Duplicate (lender, borrower) pairs are summed exactly and rounded once,
    so the order of the records does not matter.  Zero-weight records are
    dropped; negative or non-finite weights, sums that overflow to infinity
    and self-loops are rejected.
    Nodes appearing only in `attributes` are retained as isolated nodes.
    """
    loans: dict[tuple[str, str], list[float]] = {}
    nodes: set[str] = set()
    for rec in records:
        src, dst, w = str(rec[0]), str(rec[1]), float(rec[2])
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight in record {rec!r}")
        if w < 0:
            raise ValueError(f"negative weight in record {rec!r}")
        if src == dst:
            raise ValueError(f"self-loop in record {rec!r}")
        nodes.add(src)
        nodes.add(dst)
        if w != 0:
            loans.setdefault((src, dst), []).append(w)
    edges: dict[tuple[str, str], float] = {}
    for (src, dst), weights in loans.items():
        try:
            edges[src, dst] = math.fsum(weights)
        except OverflowError:
            raise ValueError(f"weights of {src!r}->{dst!r} sum to a non-finite value") from None
    attributes = attributes or {}
    for values in attributes.values():
        nodes.update(values)
    return ExposureNetwork(
        nodes=tuple(sorted(nodes, key=node_sort_key)),
        edges=edges,
        attributes={name: dict(vals) for name, vals in attributes.items()},
    )


def net_mutual_exposures(net: ExposureNetwork) -> ExposureNetwork:
    """Replace every mutual pair by its positive difference: a'_ij = max(0, a_ij - a_ji).

    Idempotent; attributes and the node set are preserved.
    """
    edges: dict[tuple[str, str], float] = {}
    for (a, b), w in net.edges.items():
        reverse = net.edges.get((b, a), 0.0)
        if w > reverse:
            edges[(a, b)] = w - reverse
    return ExposureNetwork(nodes=net.nodes, edges=edges, attributes=net.attributes)


def out_strength(net: ExposureNetwork, node: str) -> float:
    """Total lending of `node` (sum of outgoing weights)."""
    try:
        return net.out_strengths[node]
    except KeyError:
        raise ValueError(f"unknown node {node!r}") from None


def in_strength(net: ExposureNetwork, node: str) -> float:
    """Total borrowing of `node` (sum of incoming weights)."""
    try:
        return net.in_strengths[node]
    except KeyError:
        raise ValueError(f"unknown node {node!r}") from None


def threshold(net: ExposureNetwork, policy: ThresholdPolicy, node: str) -> float | None:
    """Critical loss q for `node` under `policy`.

    Returns None for nodes with no outgoing exposure: they have nothing to
    lose and can never cascade-default (they may still be initial
    defaulters in simulations).
    """
    strength = out_strength(net, node)  # also rejects an unknown node
    if strength == 0:
        return None
    if isinstance(policy, OutShareQuota):
        return policy.fraction * strength
    if isinstance(policy, AttributeShare):
        value = net.attribute(policy.attribute, node)
        if value is None or not (value > 0) or not math.isfinite(value):
            raise ValueError(
                f"lender {node!r} has no positive finite {policy.attribute!r} attribute"
            )
        return policy.fraction * value
    if isinstance(policy, Absolute):
        q = policy.quotas.get(node)
        if q is None or not (q > 0) or not math.isfinite(q):
            raise ValueError(f"lender {node!r} has no positive finite threshold")
        return q
    raise TypeError(f"unknown policy {policy!r}")


def normalize_by_attribute(net: ExposureNetwork, attribute: str) -> ExposureNetwork:
    """Divide every outgoing weight by the lender's attribute value.

    Typical use: express exposures as a share of the lender's GDP before
    applying an AttributeShare threshold.
    """
    edges: dict[tuple[str, str], float] = {}
    for (a, b), w in net.edges.items():
        value = net.attribute(attribute, a)
        if value is None or not (value > 0) or not math.isfinite(value):
            raise ValueError(f"lender {a!r} has no positive finite {attribute!r} attribute")
        edges[(a, b)] = w / value
    return ExposureNetwork(nodes=net.nodes, edges=edges, attributes=net.attributes)


def _csv_rows(
    path: str, expected: str, header_ok: Callable[[list[str]], bool]
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(1, header)``, cells stripped, then ``(line number, fields)``
    for each non-blank row of a UTF-8 CSV file, a byte-order mark skipped.
    An empty file, a header `header_ok` refuses (`expected` describes the
    right one) and a row the csv module cannot parse raise ValueError naming
    the path and line."""
    lineno = 1  # of the row being read
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # skipped by hand: the "utf-8-sig" codec would cost every run its
            # import, about as much as reading a 300-line file
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header {expected}")
            header = [h.strip() for h in header]
            if not header_ok(header):
                raise ValueError(f"{path}: line 1: expected header {expected}")
            yield 1, header
            lineno = 2
            for row in reader:
                if row and (len(row) > 1 or row[0].strip()):
                    yield lineno, row
                lineno += 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


def _read_json(path: str) -> object:
    """The JSON document in a UTF-8 file, a byte-order mark skipped;
    ValueError naming the path when the file is not UTF-8 or not JSON."""
    import json

    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def _csv_float(path: str, lineno: int, raw: str, what: str) -> float:
    """`raw` as a finite float; ValueError naming the line and `what` otherwise."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: bad {what} {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {lineno}: non-finite {what} {raw!r}")
    return value


def read_edges_csv(path: str) -> list[tuple[str, str, float]]:
    """Read an edge list CSV with header ``from,to,weight``.

    Raises ValueError naming the 1-based line number of the first malformed
    row (header included in the count).
    """
    rows = _csv_rows(path, "from,to,weight", lambda h: h == ["from", "to", "weight"])
    next(rows)
    records: list[tuple[str, str, float]] = []
    for lineno, row in rows:
        if len(row) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        src, dst, raw = (f.strip() for f in row)
        records.append((src, dst, _csv_float(path, lineno, raw, "weight")))
    return records


def read_attributes_csv(path: str) -> dict[str, dict[str, float]]:
    """Read a node attribute CSV with header ``node,<attr1>,<attr2>,...``.

    Empty cells mean "no value".  Empty or repeated attribute names,
    duplicate node rows and non-finite values are rejected.
    """
    rows = _csv_rows(path, "node,<attr>,...", lambda h: len(h) >= 2 and h[0] == "node")
    _, header = next(rows)
    names = header[1:]
    for k, name in enumerate(names):
        if not name:
            raise ValueError(f"{path}: line 1: empty attribute name")
        if name in names[:k]:
            raise ValueError(f"{path}: line 1: duplicate attribute {name!r}")
    attributes: dict[str, dict[str, float]] = {name: {} for name in names}
    seen: set[str] = set()
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        node = row[0].strip()
        if node in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate node {node!r}")
        seen.add(node)
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell:
                attributes[name][node] = _csv_float(path, lineno, cell, f"{name} value")
    return attributes

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
from dataclasses import dataclass, field


def node_sort_key(node: str) -> tuple[int, float, str]:
    """Sort key putting integer-like ids in numeric order before the rest."""
    try:
        return (0, float(int(node)), "")
    except ValueError:
        return (1, 0.0, node)


@dataclass(frozen=True)
class ExposureNetwork:
    """Immutable weighted directed exposure graph.

    Parameters
    ----------
    nodes:
        All node ids, sorted with :func:`node_sort_key`.  Includes isolated
        nodes (e.g. ones that appear only in an attribute file).
    edges:
        Map ``(lender, borrower) -> weight``; weights are strictly positive,
        a missing key means no exposure.
    attributes:
        Map ``attribute name -> {node -> value}``.  Values are nonnegative;
        a node absent from the inner map has no value for that attribute.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], float]
    attributes: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (a, b), w in self.edges.items():
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if w <= 0:
                raise ValueError(f"non-positive weight on edge {a!r}->{b!r}: {w}")
            if a not in self.node_set or b not in self.node_set:
                raise ValueError(f"edge {a!r}->{b!r} references unknown node")

    @property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    def weight(self, lender: str, borrower: str) -> float:
        """Exposure of `lender` to `borrower`; 0.0 when there is no edge."""
        return self.edges.get((lender, borrower), 0.0)

    def borrowers_of(self, lender: str) -> tuple[str, ...]:
        """Direct borrowers of `lender`, in node order."""
        found = [b for (a, b) in self.edges if a == lender]
        return tuple(sorted(found, key=node_sort_key))

    def lenders_of(self, borrower: str) -> tuple[str, ...]:
        found = [a for (a, b) in self.edges if b == borrower]
        return tuple(sorted(found, key=node_sort_key))

    def attribute(self, name: str, node: str) -> float | None:
        return self.attributes.get(name, {}).get(node)


@dataclass(frozen=True)
class OutShareQuota:
    """Threshold q_i = fraction x out-strength(i)."""

    fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class AttributeShare:
    """Threshold q_i = fraction x attribute(i), e.g. 10% of GDP."""

    attribute: str
    fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


@dataclass(frozen=True)
class Absolute:
    """Explicit per-node thresholds."""

    quotas: dict[str, float]


ThresholdPolicy = OutShareQuota | AttributeShare | Absolute


def ingest_edges(
    records: list[tuple[str, str, float]],
    attributes: dict[str, dict[str, float]] | None = None,
) -> ExposureNetwork:
    """Build a network from (lender, borrower, weight) records.

    Duplicate (lender, borrower) pairs are summed.  Zero-weight records are
    dropped; negative or non-finite weights, sums that overflow to infinity
    and self-loops are rejected.
    Nodes appearing only in `attributes` are retained as isolated nodes.
    """
    edges: dict[tuple[str, str], float] = {}
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
        if w == 0:
            continue
        total = edges.get((src, dst), 0.0) + w
        if not math.isfinite(total):
            raise ValueError(f"weights of {src!r}->{dst!r} sum to a non-finite value")
        edges[(src, dst)] = total
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
    if node not in net.node_set:
        raise ValueError(f"unknown node {node!r}")
    return sum(w for (a, _), w in net.edges.items() if a == node)


def in_strength(net: ExposureNetwork, node: str) -> float:
    """Total borrowing of `node` (sum of incoming weights)."""
    if node not in net.node_set:
        raise ValueError(f"unknown node {node!r}")
    return sum(w for (_, b), w in net.edges.items() if b == node)


def threshold(net: ExposureNetwork, policy: ThresholdPolicy, node: str) -> float | None:
    """Critical loss q for `node` under `policy`.

    Returns None for nodes with no outgoing exposure: they have nothing to
    lose and can never cascade-default (they may still be initial
    defaulters in simulations).
    """
    if node not in net.node_set:
        raise ValueError(f"unknown node {node!r}")
    if out_strength(net, node) == 0:
        return None
    if isinstance(policy, OutShareQuota):
        return policy.fraction * out_strength(net, node)
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


def read_edges_csv(path: str) -> list[tuple[str, str, float]]:
    """Read an edge list CSV with header ``from,to,weight``.

    Raises ValueError naming the 1-based line number of the first malformed
    row (header included in the count).
    """
    records: list[tuple[str, str, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header from,to,weight")
        if [h.strip() for h in header] != ["from", "to", "weight"]:
            raise ValueError(f"{path}: line 1: expected header from,to,weight")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            src, dst, raw = (f.strip() for f in row)
            try:
                w = float(raw)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad weight {raw!r}") from None
            if not math.isfinite(w):
                raise ValueError(f"{path}: line {lineno}: non-finite weight {raw!r}")
            records.append((src, dst, w))
    return records


def read_attributes_csv(path: str) -> dict[str, dict[str, float]]:
    """Read a node attribute CSV with header ``node,<attr1>,<attr2>,...``.

    Empty cells mean "no value".  Duplicate node rows and non-finite values
    are rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header node,<attr>,...")
        if not header or header[0] != "node" or len(header) < 2:
            raise ValueError(f"{path}: line 1: expected header node,<attr>,...")
        names = header[1:]
        attributes: dict[str, dict[str, float]] = {name: {} for name in names}
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
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
                if not cell:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: bad {name} value {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: line {lineno}: non-finite {name} value {cell!r}"
                    )
                attributes[name][node] = value
    return attributes

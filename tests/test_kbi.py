"""Short-range key borrower index.

Per-lender oracles below were recomputed by hand from the definition:
alpha of a borrower sums, over the critical groups where it is pivotal,
its loan share plus the co-members' reinforcement (each co-member's loan
to the borrower, capped at the lender's loan to that co-member), divided
by group size.  E.g. for lender 5 (threshold 275): borrower 6 is pivotal
in {6}, {6,7}, {6,8}, giving alpha = (700/1100) * (1 + 1/2 + 1/2); nodes 7
and 8 are pivotal only in {7,8}, each alpha = (200/1100) / 2.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lricnet
from lricnet import (
    ExposureNetwork,
    OutShareQuota,
    direct_intensity,
    indirect_intensity,
    ingest_edges,
    kbi,
    kbi_for_lender,
    node_sort_key,
)

EX1_PER_LENDER = {
    "1": {"2": 0.556, "3": 0.0, "5": 0.444},
    "2": {"3": 0.0, "6": 0.654, "9": 0.346},
    "3": {"6": 1.0},
    "4": {"3": 0.0, "6": 1.0},
    "5": {"6": 0.875, "7": 0.063, "8": 0.063},
    "7": {"4": 0.0, "9": 0.706, "10": 0.294},
    "8": {"10": 1.0},
}

EX2_PER_LENDER = {
    "1": {"2": 0.82, "3": 0.05, "4": 0.13},
    "2": {"5": 0.02, "6": 0.90, "8": 0.08},
    "3": {"2": 0.08, "4": 0.84, "5": 0.08},
    "4": {"5": 0.03, "7": 0.89, "9": 0.08},
    "6": {"10": 0.0, "11": 1.0},
    "7": {"10": 0.0, "11": 1.0},
    "8": {"10": 0.0, "11": 1.0},
    "9": {"10": 0.0, "11": 1.0},
    "10": {"1": 1.0},
}

EX1_AGGREGATE = [0, 0.152, 0, 0, 0.121, 0.356, 0.019, 0.019, 0.212, 0.121]
EX2_AGGREGATE = [0.11, 0.10, 0.01, 0.11, 0.01, 0.10, 0.10, 0.01, 0.01, 0, 0.44]


def test_direct_intensity(ex1):
    assert direct_intensity(ex1, "1") == {"2": 0.5, "3": 0.1, "5": 0.4}


def test_direct_intensity_rejects_pure_borrower(ex1):
    with pytest.raises(ValueError, match="'6'"):
        direct_intensity(ex1, "6")


def test_indirect_intensity(ex1):
    # channel 2 -> 3 -> 6: the 3->6 loan capped at the 2->3 loan, over 200
    assert indirect_intensity(ex1, "2", "3", "6") == pytest.approx(40 / 200)
    # cap binds the other way round for 1 -> 2 -> 3
    assert indirect_intensity(ex1, "1", "2", "3") == pytest.approx(40 / 1000)
    assert indirect_intensity(ex1, "1", "2", "2") == 0.0  # via == borrower
    assert indirect_intensity(ex1, "1", "4", "6") == 0.0  # no loan to via
    assert indirect_intensity(ex1, "1", "2", "10") == 0.0  # via does not reach


def _check_rows(net, policy, expected, tol):
    for lender, row in expected.items():
        got = kbi_for_lender(net, lender, policy)
        assert set(got) == set(row), f"lender {lender}"
        for borrower, value in row.items():
            assert got[borrower] == pytest.approx(value, abs=tol), (
                f"lender {lender}, borrower {borrower}"
            )
        mass = sum(got.values())
        assert mass == pytest.approx(1.0) or mass == 0.0


def test_per_lender_rows_ex1(ex1, quarter):
    _check_rows(ex1, quarter, EX1_PER_LENDER, 0.001)


def test_per_lender_rows_ex2(ex2, quarter):
    _check_rows(ex2, quarter, EX2_PER_LENDER, 0.005)


def test_kbi_for_lender_without_critical_groups():
    net = ingest_edges([("a", "b", 10), ("a", "c", 10)])
    from lricnet import Absolute

    scores = kbi_for_lender(net, "a", Absolute({"a": 100.0}))
    assert scores == {"b": 0.0, "c": 0.0}


def test_kbi_for_lender_rejects_pure_borrower(ex1, quarter):
    with pytest.raises(ValueError):
        kbi_for_lender(ex1, "6", quarter)


def test_aggregate_ex1(ex1, quarter):
    scores = kbi(ex1, quarter)
    for i in range(10):
        assert scores[str(i + 1)] == pytest.approx(EX1_AGGREGATE[i], abs=0.001)
    assert math.isclose(sum(scores.values()), 1.0)


def test_aggregate_ex2(ex2, quarter):
    scores = kbi(ex2, quarter)
    for i in range(11):
        assert scores[str(i + 1)] == pytest.approx(EX2_AGGREGATE[i], abs=0.005)


def test_aggregate_on_empty_network():
    net = ingest_edges([("a", "b", 0)])
    from lricnet import OutShareQuota

    assert kbi(net, OutShareQuota(0.25)) == {"a": 0.0, "b": 0.0}


HASH_SEED_SCRIPT = """
from lricnet import Absolute, ingest_edges, kbi_for_lender
net = ingest_edges([
    ("L", "a", 0.1), ("L", "b", 0.2), ("L", "c", 0.3), ("L", "d", 0.7),
    ("a", "d", 0.1), ("b", "d", 0.2), ("c", "d", 0.3),
])
print(repr(kbi_for_lender(net, "L", Absolute({"L": 1.3}))["d"]))
"""


def test_kbi_for_lender_does_not_depend_on_hash_seed():
    # d is pivotal in {a, b, c, d}; its reinforcement 0.1 + 0.2 + 0.3 rounds
    # differently in different orders, so the sum must follow node order
    package_root = str(Path(lricnet.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1, outputs


class _ScanCountingEdges(dict):
    """An edge dict that counts the full scans made over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()


def _counted_net(n):
    rng = random.Random(n)
    edges = _ScanCountingEdges()
    for a in range(n):
        for b in rng.sample([v for v in range(n) if v != a], 4):
            edges[(str(a), str(b))] = rng.uniform(1, 100)
    nodes = tuple(sorted(map(str, range(n)), key=node_sort_key))
    return ExposureNetwork(nodes=nodes, edges=edges), edges


def test_kbi_scans_edges_a_fixed_number_of_times():
    scans = []
    for n in (50, 400):
        net, edges = _counted_net(n)
        edges.scans = 0
        kbi(net, OutShareQuota(0.25))
        scans.append(edges.scans)
    assert scans[0] == scans[1], scans

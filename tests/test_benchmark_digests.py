"""The report bytes that the benchmark checks, checked here too.

Every variant of the gated workloads, and of ``classical-wide``, is run
through ``cli.main`` in this process, and the SHA-256 of each ``# <section>``
of its output must equal the one ``perfbench/digests.json`` records, as
``perfbench/run.py`` checks it.  Eight ``sim-exhaustive`` variants are
expected to fail: their recorded ``sim`` digests predate the exact ``sim``
sums, under which exactly tied scores share a rank.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from lricnet.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run from its source, so that no bytecode is written under perfbench/
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
CHECKED = ("all-methods", "dense-lenders", "classical-wide", "sim-exhaustive")
# variants whose recorded digests no longer match, by workload
STALE = {"sim-exhaustive": {5, 7, 8, 9, 10, 12, 14, 15}}


def _section_digests(report: bytes) -> dict[str, str]:
    """SHA-256 of each ``# <method>`` / ``# <method> matrix`` section."""
    sections: dict[str, list[bytes]] = {}
    name = ""
    for line in report.splitlines(keepends=True):
        if line.startswith(b"# "):
            name = line[2:].decode("utf-8").strip()
        sections.setdefault(name, []).append(line)
    return {k: hashlib.sha256(b"".join(v)).hexdigest() for k, v in sections.items()}


@pytest.mark.parametrize(
    "name, variant",
    [
        pytest.param(
            name,
            variant,
            id=f"{name}-{variant}",
            marks=pytest.mark.xfail(strict=True, reason="sim digest predates exact sums")
            if variant in STALE.get(name, ())
            else (),
        )
        for name in CHECKED
        for variant in range(WORKLOADS["VARIANTS"])
    ],
)
def test_compute_output_matches_the_recorded_digests(capsys, tmp_path, name, variant):
    workload = WORKLOADS["WORKLOADS"][name]
    edges = tmp_path / "edges.csv"
    edges.write_text(WORKLOADS["edges_csv"](workload, variant), encoding="utf-8")
    assert main(["compute", "--edges", str(edges), *workload.flags]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert _section_digests(report) == DIGESTS[name][str(variant)]

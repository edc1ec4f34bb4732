"""End-to-end command line behaviour (argument parsing through report bytes)."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lricnet
from conftest import EX1_EDGES, write_edges_csv
from lricnet import (
    Absolute,
    AttributeShare,
    OutShareQuota,
    ingest_edges,
    kbi,
    out_strength,
    pivotal_groups,
)
from lricnet import groups as groups_module
from lricnet.cli import emit_report, parse_policy, run


@pytest.fixture
def ex1_csv(tmp_path):
    return str(write_edges_csv(tmp_path / "ex1.csv", EX1_EDGES))


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_policy():
    assert parse_policy("out-share:0.25") == OutShareQuota(0.25)
    assert parse_policy("attr-share:gdp:0.1") == AttributeShare("gdp", 0.1)
    with pytest.raises(ValueError, match="bad threshold policy"):
        parse_policy("out-share")
    with pytest.raises(ValueError, match="bad fraction"):
        parse_policy("out-share:lots")
    with pytest.raises(ValueError, match="bad threshold policy"):
        parse_policy("percentile:0.9")


def test_parse_policy_abs(tmp_path):
    quotas = tmp_path / "q.csv"
    quotas.write_text("node,q\na,10\nb,20\n", encoding="utf-8")
    assert parse_policy(f"abs:{quotas}") == Absolute({"a": 10.0, "b": 20.0})
    quotas.write_text("node,q\na,10\na,30\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        parse_policy(f"abs:{quotas}")
    quotas.write_text("node,threshold\na,10\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        parse_policy(f"abs:{quotas}")


@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_parse_policy_abs_rejects_non_finite_threshold(tmp_path, raw):
    quotas = tmp_path / "q.csv"
    quotas.write_text(f"node,q\na,{raw}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"q\.csv: line 2: non-finite threshold"):
        parse_policy(f"abs:{quotas}")


def test_emit_report_csv_and_json():
    assert emit_report({"A": 1.0}) == b"node,score,rank\nA,1.000000,1\n"
    assert emit_report({}) == b"node,score,rank\n"
    payload = emit_report({"b": 0.25, "a": 0.75}, "json")
    doc = json.loads(payload)
    assert doc == {"scores": {"a": 0.75, "b": 0.25}, "ranks": {"a": 1, "b": 2}}
    # stable key order: serializing twice gives identical bytes
    assert payload == emit_report({"a": 0.75, "b": 0.25}, "json")
    assert payload.index(b'"ranks"') < payload.index(b'"scores"')
    with pytest.raises(ValueError, match="format"):
        emit_report({"a": 1.0}, "yaml")


def test_compute_matches_library(capsys, ex1_csv):
    code, out, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "kbi",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "# kbi"
    assert lines[1] == "node,score,rank"
    parsed = {row.split(",")[0]: row.split(",") for row in lines[2:]}
    expected = kbi(ingest_edges(EX1_EDGES), OutShareQuota(0.25))
    for node, (_, score, _) in parsed.items():
        assert float(score) == pytest.approx(expected[node], abs=1e-6)
    assert parsed["6"][2] == "1"  # top-ranked borrower


def _compute_all(capsys, ex1_csv, outdir, *extra):
    code, out, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "all", "--sim-mode", "exhaustive", "--k0-max", "3",
        "--emit-matrices", "--output-dir", str(outdir), *extra,
    )
    assert code == 0, err
    return out


def test_output_dir_writes_every_method(capsys, ex1_csv, tmp_path):
    out = _compute_all(capsys, ex1_csv, tmp_path / "reports")
    written = {p.name for p in (tmp_path / "reports").iterdir()}
    methods = [
        "in-degree", "out-degree", "degree-difference", "degree",
        "closeness-in", "closeness-out", "betweenness", "eigenvector",
        "pagerank", "kbi", "sumpaths", "maxpath", "maxmin", "multt",
        "maxt", "sim",
    ]
    expected = {f"{m}.csv" for m in methods}
    expected |= {
        f"{m}.matrix.csv"
        for m in ("kbi", "sumpaths", "maxpath", "maxmin", "multt", "maxt", "sim")
    }
    assert written == expected
    assert out.count("wrote ") == len(expected)


def test_reports_are_deterministic(capsys, ex1_csv, tmp_path):
    _compute_all(capsys, ex1_csv, tmp_path / "one")
    _compute_all(capsys, ex1_csv, tmp_path / "two")
    for p in sorted((tmp_path / "one").iterdir()):
        assert p.read_bytes() == (tmp_path / "two" / p.name).read_bytes(), p.name


def test_random_sim_seed_determinism(capsys, ex1_csv, tmp_path):
    argv = (
        "compute", "--edges", ex1_csv, "--q", "out-share:0.25", "--method", "sim",
        "--sim-mode", "random", "--runs", "400", "--seed", "11",
    )
    code, first, _ = _run(capsys, *argv)
    assert code == 0
    code, second, _ = _run(capsys, *argv)
    assert code == 0
    assert first == second


def test_verbose_log_leaves_report_bytes_unchanged(ex1_csv):
    package_root = str(Path(lricnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    cli = "import sys; from lricnet.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [
        "compute", "--edges", ex1_csv, "--q", "out-share:0.25", "--method", "sim",
        "--sim-mode", "exhaustive", "--k0-max", "2", "--emit-matrices",
    ]
    quiet, loud = (
        subprocess.run(
            [sys.executable, "-c", cli, *flags, *argv],
            env=env, capture_output=True, timeout=60, check=True,
        )
        for flags in ([], ["-vv"])
    )
    assert loud.stdout == quiet.stdout
    assert b"DEBUG lricnet.simulation: simulated 55 runs on 10 nodes: " in loud.stderr
    assert b"simulated" not in quiet.stderr


KBI_AND_PATH = ("--q", "out-share:0.25", "--method", "kbi,maxpath", "--emit-matrices")


def test_compute_walks_each_lender_once_for_kbi_and_paths(capsys, ex1, ex1_csv, monkeypatch):
    searched = []
    search = groups_module._candidates

    def counted(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(groups_module, "_candidates", counted)
    code, _, _ = _run(capsys, "compute", "--edges", ex1_csv, *KBI_AND_PATH)
    assert code == 0
    lenders = [v for v in ex1.nodes if out_strength(ex1, v) != 0]
    assert len(searched) == len(lenders) == 7


def test_compute_logs_pivotal_pass(capsys, ex1, ex1_csv, quarter, caplog):
    argv = ("compute", "--edges", ex1_csv, *KBI_AND_PATH)
    _, quiet, _ = _run(capsys, *argv)
    with caplog.at_level(logging.DEBUG, logger="lricnet.groups"):
        code, loud, _ = _run(capsys, "-vv", *argv)
    assert code == 0
    assert loud == quiet
    (line,) = [r.getMessage() for r in caplog.records if r.name == "lricnet.groups"]
    tallied = sum(len(pivotal_groups(ex1, v, quarter)) for v in ex1.nodes)
    assert line == f"pivotal-group pass: 7 lenders visited, {tallied} pivotal groups tallied"


@pytest.mark.parametrize("method", ["kbi", "maxpath", "kbi,maxpath"])
def test_enumeration_cap_exits_2(capsys, tmp_path, method):
    edges = [("L", f"b{i}", 1) for i in range(26)]
    path = str(write_edges_csv(tmp_path / "wide.csv", edges))
    code, out, err = _run(
        capsys, "compute", "--edges", path, "--q", "out-share:0.5", "--method", method
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: lender 'L' has 26 borrowers; exhaustive enumeration is capped at 25 "
        "(raise the cap or use the simulation index)\n"
    )


def test_matrix_csv_roundtrips(capsys, ex1_csv, tmp_path):
    _compute_all(capsys, ex1_csv, tmp_path / "reports")
    raw = (tmp_path / "reports" / "kbi.matrix.csv").read_text(encoding="utf-8")
    lines = raw.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "node"
    nodes = header[1:]
    rerendered = ["node," + ",".join(nodes)]
    for line in lines[1:]:
        cells = line.split(",")
        rerendered.append(
            cells[0] + "," + ",".join(f"{float(c):.6f}" for c in cells[1:])
        )
    assert "\n".join(rerendered) + "\n" == raw


def test_config_file_merging(capsys, ex1_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"edges": ex1_csv, "q": "out-share:0.25", "method": "out-degree"}),
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, "compute", "--config", str(cfg))
    assert code == 0 and out.startswith("# out-degree")
    # explicit flag beats the config file
    code, out, _ = _run(capsys, "compute", "--config", str(cfg), "--method", "in-degree")
    assert code == 0 and out.startswith("# in-degree")


def test_config_rejects_unknown_keys(capsys, ex1_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"edges": ex1_csv, "quota": 0.25}), encoding="utf-8")
    code, _, err = _run(capsys, "compute", "--config", str(cfg))
    assert code == 2 and "unknown config keys" in err and "quota" in err


def test_malformed_edges_report_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("from,to,weight\na,b,10\nb,c,lots\n", encoding="utf-8")
    code, _, err = _run(
        capsys, "compute", "--edges", str(bad), "--method", "in-degree"
    )
    assert code == 2
    assert "line 3" in err


def test_non_finite_weight_fails_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("from,to,weight\na,b,nan\na,c,10\n", encoding="utf-8")
    code, out, err = _run(
        capsys, "compute", "--edges", str(bad), "--method", "kbi", "--q", "out-share:0.25"
    )
    assert code == 2 and not out
    assert "line 2: non-finite weight" in err


def test_all_methods_on_bipartite_star(capsys, tmp_path):
    # one lender, two borrowers: power iteration on A + A^T alone oscillates
    write_edges_csv(tmp_path / "star.csv", [("L", "a", 1), ("L", "b", 2)])
    code, out, err = _run(
        capsys, "compute", "--edges", str(tmp_path / "star.csv"), "--method", "all",
        "--q", "out-share:0.5", "--seed", "1", "--runs", "200",
    )
    assert code == 0, err
    assert "# eigenvector\nnode,score,rank\nL,1.000000,1\nb,0.894427,2\na,0.447214,3\n" in out


def test_infeasible_policy_names_node(capsys, tmp_path):
    write_edges_csv(tmp_path / "e.csv", EX1_EDGES)
    (tmp_path / "attrs.csv").write_text("node,gdp\n1,1000\n", encoding="utf-8")
    code, _, err = _run(
        capsys, "compute", "--edges", str(tmp_path / "e.csv"),
        "--attributes", str(tmp_path / "attrs.csv"),
        "--q", "attr-share:gdp:0.1", "--method", "kbi",
    )
    assert code == 2
    assert "gdp" in err and "'2'" in err


def test_policy_methods_require_q(capsys, ex1_csv):
    code, _, err = _run(capsys, "compute", "--edges", ex1_csv, "--method", "kbi")
    assert code == 2
    assert "threshold policy" in err
    code, _, err = _run(capsys, "compute", "--edges", ex1_csv, "--method", "maxt,sumpaths")
    assert code == 2
    assert "method 'maxt' needs a threshold policy" in err


def test_unknown_method(capsys, ex1_csv):
    code, _, err = _run(capsys, "compute", "--edges", ex1_csv, "--method", "sparkle")
    assert code == 2
    assert "unknown methods" in err


def test_sim_random_requires_seed(capsys, ex1_csv):
    code, _, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "sim",
    )
    assert code == 2
    assert "seed" in err


def test_grades_flag(capsys, ex1_csv, tmp_path):
    code, _, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "maxpath", "--grades", "eight-level",
    )
    assert code == 0, err
    code, _, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "maxpath", "--grades", "bogus",
    )
    assert code == 2 and "unknown grade schema" in err
    schema = tmp_path / "g.json"
    schema.write_text(
        json.dumps({"mode": "lower", "levels": [[0.5, "lo"], [1.0, "hi"]]}),
        encoding="utf-8",
    )
    code, _, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "maxpath", "--grades", str(schema),
    )
    assert code == 0, err


def test_json_format(capsys, ex1_csv):
    code, out, _ = _run(
        capsys, "compute", "--edges", ex1_csv, "--method", "in-degree",
        "--format", "json",
    )
    assert code == 0
    body = out.split("\n", 1)[1]
    doc = json.loads(body)
    assert doc["scores"]["6"] == 1000.0
    assert doc["ranks"]["6"] == 1


def test_cascade_output(capsys, ex1_csv):
    code, out, err = _run(
        capsys, "cascade", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--initial", "10",
    )
    assert code == 0, err
    assert out.splitlines() == [
        "initial: 10",
        "stage 1: 7, 8",
        "stage 2: 5",
        "stage 3: 1",
        "defaulted: 1, 5, 7, 8, 10",
        "pivotal for 1: 10",
        "pivotal for 5: 10",
        "pivotal for 7: 10",
        "pivotal for 8: 10",
    ]


def test_cascade_requires_initial_and_q(capsys, ex1_csv):
    code, _, err = _run(capsys, "cascade", "--edges", ex1_csv, "--q", "out-share:0.25")
    assert code == 2 and "--initial" in err
    code, _, err = _run(capsys, "cascade", "--edges", ex1_csv, "--initial", "10")
    assert code == 2 and "--q" in err


def test_net_command(capsys, tmp_path):
    edges = tmp_path / "m.csv"
    edges.write_text("from,to,weight\na,b,10\nb,a,4\n", encoding="utf-8")
    code, out, _ = _run(capsys, "net", "--edges", str(edges))
    assert code == 0
    assert out == "from,to,weight\na,b,6.000000\n"
    target = tmp_path / "netted.csv"
    code, out, _ = _run(capsys, "net", "--edges", str(edges), "--output", str(target))
    assert code == 0 and f"wrote {target}" in out
    assert target.read_text(encoding="utf-8") == "from,to,weight\na,b,6.000000\n"


def _score_file(path, scores):
    payload = emit_report(scores)
    path.write_bytes(payload)
    return str(path)


def test_compare_pair(capsys, tmp_path):
    a = _score_file(tmp_path / "a.csv", {"x": 3.0, "y": 2.0, "z": 1.0})
    b = _score_file(tmp_path / "b.csv", {"x": 30.0, "y": 20.0, "z": 10.0})
    c = _score_file(tmp_path / "c.csv", {"x": 1.0, "y": 2.0, "z": 3.0})
    code, out, _ = _run(capsys, "compare", "--rankings", a, b)
    assert code == 0 and out == "tau: 1.000000\n"
    code, out, _ = _run(capsys, "compare", "--rankings", a, b, "--coef", "gamma")
    assert code == 0 and out == "gamma: 1.000000\n"
    code, out, _ = _run(capsys, "compare", "--rankings", a, c)
    assert code == 0 and out == "tau: -1.000000\n"


def test_compare_undefined(capsys, tmp_path):
    a = _score_file(tmp_path / "a.csv", {"x": 1.0, "y": 1.0, "z": 1.0})
    b = _score_file(tmp_path / "b.csv", {"x": 3.0, "y": 2.0, "z": 1.0})
    code, out, _ = _run(capsys, "compare", "--rankings", a, b)
    assert code == 0 and out == "tau: undefined\n"


def test_compare_matrix(capsys, tmp_path):
    a = _score_file(tmp_path / "a.csv", {"x": 3.0, "y": 2.0, "z": 1.0})
    b = _score_file(tmp_path / "b.csv", {"x": 1.0, "y": 2.0, "z": 3.0})
    c = _score_file(tmp_path / "c.csv", {"x": 3.0, "y": 1.0, "z": 2.0})
    code, out, _ = _run(capsys, "compare", "--rankings", a, b, c)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ranking,a,b,c"
    assert lines[1].startswith("a,1.000000,-1.000000")
    assert len(lines) == 4


def test_compare_rejects_duplicate_stems(capsys, tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    a = _score_file(tmp_path / "one" / "x.csv", {"a": 1.0, "b": 2.0})
    b = _score_file(tmp_path / "two" / "x.csv", {"a": 1.0, "b": 2.0})
    code, _, err = _run(capsys, "compare", "--rankings", a, b)
    assert code == 2 and "duplicate ranking name" in err


def test_compare_rejects_bad_score_file(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("node,score,rank\na,0.5,1\na,0.4,2\n", encoding="utf-8")
    good = _score_file(tmp_path / "good.csv", {"a": 1.0, "b": 2.0})
    code, _, err = _run(capsys, "compare", "--rankings", str(bad), good)
    assert code == 2 and "line 3" in err and "duplicate node" in err

"""End-to-end command line behaviour (argument parsing through report bytes)."""

import csv
import json
import logging
import os
import random
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
    betweenness,
    closeness,
    gk_gamma,
    ingest_edges,
    kbi,
    influence_matrix,
    kendall_tau,
    lric_paths_matrices,
    net_mutual_exposures,
    out_strength,
    pivotal_groups,
    rank,
    simple_paths,
)
from lricnet import groups as groups_module
from lricnet.cli import (
    _CHOICES,
    _COMMAND_SETTINGS,
    METHOD_ORDER,
    POLICY_METHODS,
    _merge_settings,
    build_parser,
    emit_report,
    parse_policy,
    run,
)


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


def _child_env():
    """The environment of a child Python that imports this lricnet."""
    package_root = str(Path(lricnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_verbose_log_leaves_report_bytes_unchanged(ex1_csv):
    env = _child_env()
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
# a lender with 12 borrowers and integer loans: its pivotal groups are counted
WIDE_LENDER = [("L", f"b{i}", 1 + i % 5) for i in range(12)]


# Modules a plain run leaves unloaded: numpy (only the library functions
# that return arrays use it), fractions and decimal (exact sums use ints and
# ``math.fsum``), and dataclasses, inspect, logging, json and pathlib, which
# cost start-up time and are not needed.
UNLOADED = (
    "numpy", "fractions", "decimal", "dataclasses", "inspect", "logging", "json", "pathlib",
)


def _loaded(argv, body="code = lricnet.cli.main(sys.argv[1:])"):
    """Run ``lric-net`` on `argv`, or the statements `body` that set `code`,
    in a fresh ``python -S`` process, so that no site hook imports any of
    `UNLOADED` first: its output, and which of them it had imported by its
    end."""
    probe = (
        "import sys, lricnet, lricnet.cli\n"
        f"{body}\n"
        f"print('loaded:', *sorted(set({UNLOADED!r}) & set(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env=_child_env(), capture_output=True, timeout=60, check=True,
    )
    marker, *loaded = child.stderr.decode().splitlines()[-1].split()
    assert marker == "loaded:", child.stderr
    return child.stdout.decode(), loaded


@pytest.mark.parametrize("method, imported", [("kbi,maxpath", False), ("all", False)])
def test_numpy_is_imported_only_by_the_methods_that_need_it(tmp_path, method, imported):
    # every method works on lists of rows; only the library functions that
    # return arrays import numpy
    edges = str(write_edges_csv(tmp_path / "edges.csv", EX1_EDGES + WIDE_LENDER))
    argv = ["compute", "--edges", edges, *KBI_AND_PATH[:2], "--method", method,
            "--sim-mode", "exhaustive", "--k0-max", "2", "--emit-matrices"]
    out, loaded = _loaded(argv)
    names = METHOD_ORDER if method == "all" else method.split(",")
    expected = []
    for name in names:
        expected += [f"# {name}", f"# {name} matrix"] if name in POLICY_METHODS else [f"# {name}"]
    assert [line for line in out.splitlines() if line.startswith("# ")] == expected
    assert loaded == (["numpy"] if imported else [])


def test_cascade_and_compare_leave_numpy_unloaded(ex1_csv, tmp_path):
    files = [
        _score_file(tmp_path / f"{name}.csv", scores)
        for name, scores in (
            ("a", {"x": 3.0, "y": 2.0, "z": 1.0}),
            ("b", {"x": 1.0, "y": 2.0, "z": 3.0}),
            ("c", {"x": 3.0, "y": 1.0, "z": 2.0}),
        )
    ]
    out, loaded = _loaded(
        ["cascade", "--edges", ex1_csv, "--q", "out-share:0.25", "--initial", "10"]
    )
    assert out.startswith("initial: 10\n") and loaded == []
    out, loaded = _loaded(["compare", "--rankings", *files])
    assert out.startswith("ranking,a,b,c\n") and loaded == []


@pytest.mark.parametrize(
    "call",
    [
        "kbi(net, policy)",
        "lric_paths_vector(net, policy, 'maxpath')",
        "lric_sim_vector(net, policy, SimulationPlan(mode='exhaustive', k0_max=2))",
        "centrality_table(net)",
    ],
)
def test_vector_functions_leave_numpy_unloaded(call):
    # the functions that return scores work on lists of rows
    body = (
        "from lricnet import *\n"
        f"net = ingest_edges({EX1_EDGES!r})\n"
        "policy = OutShareQuota(0.25)\n"
        f"print(type({call}).__name__)\n"
        "code = 0"
    )
    out, loaded = _loaded([], body)
    assert out.strip() in ("dict", "CentralityTable")
    assert loaded == []


def test_only_a_verbose_run_loads_logging(ex1_csv):
    argv = ["compute", "--edges", ex1_csv, *KBI_AND_PATH]
    quiet, loaded = _loaded(argv)
    assert loaded == []
    loud, loaded = _loaded(["-vv", *argv])
    assert loud == quiet
    assert loaded == ["logging"]


def test_compute_walks_each_lender_once_for_kbi_and_paths(capsys, ex1, ex1_csv, monkeypatch):
    searched = []
    search = groups_module._groups

    def counted(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(groups_module, "_groups", counted)
    code, _, _ = _run(capsys, "compute", "--edges", ex1_csv, *KBI_AND_PATH)
    assert code == 0
    lenders = [v for v in ex1.nodes if out_strength(ex1, v) != 0]
    assert len(searched) == len(lenders) == 7


def test_compute_logs_pivotal_pass(capsys, ex1, tmp_path, quarter, caplog):
    # ex1's lenders have at most 3 borrowers each and are walked
    for edges, routes in (
        (EX1_EDGES, "0 counted, 7 walked"),
        (EX1_EDGES + WIDE_LENDER, "1 counted, 7 walked"),
    ):
        path = str(write_edges_csv(tmp_path / "edges.csv", edges))
        argv = ("compute", "--edges", path, *KBI_AND_PATH)
        _, quiet, _ = _run(capsys, *argv)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="lricnet.groups"):
            code, loud, _ = _run(capsys, "-vv", *argv)
        assert code == 0
        assert loud == quiet
        (line,) = [r.getMessage() for r in caplog.records if r.name == "lricnet.groups"]
        net = ingest_edges(edges)
        lenders = sum(out_strength(net, v) != 0 for v in net.nodes)
        tallied = sum(len(pivotal_groups(net, v, quarter)) for v in net.nodes)
        assert line == (
            f"pivotal-group pass: {lenders} lenders visited ({routes}), "
            f"{tallied} pivotal groups tallied"
        )


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


def test_enumeration_cap_is_checked_before_any_lender_is_walked(
    capsys, tmp_path, monkeypatch
):
    # A sorts before L, so a lender-by-lender check would walk A first
    edges = [("A", "b0", 1), ("A", "b1", 1)] + [("L", f"b{i}", 1) for i in range(26)]
    path = str(write_edges_csv(tmp_path / "wide.csv", edges))
    searched = []
    search = groups_module._groups

    def counted(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(groups_module, "_groups", counted)
    code, out, err = _run(
        capsys, "compute", "--edges", path, "--q", "out-share:0.5", "--method", "kbi"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: lender 'L' has 26 borrowers; ")
    assert searched == []


def _sparse_csv(path, n, out_degree, seed):
    """Every node lends to `out_degree` distinct others, weights 1-100."""
    rng = random.Random(seed)
    lines = ["from,to,weight"]
    for lender in range(n):
        others = [v for v in range(n) if v != lender]
        for borrower in sorted(rng.sample(others, out_degree)):
            lines.append(f"{lender},{borrower},{rng.randint(1, 100)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_exhaustive_simulation_on_dense_lenders_finishes(capsys, tmp_path):
    # 50 lenders of 24 borrowers each at a 15 % quota: cascaded lenders
    # have up to 24 defaulted borrowers, whose supports a subset-by-subset
    # search took minutes to find
    path = _sparse_csv(tmp_path / "dense.csv", 50, 24, seed=1)
    code, out, _ = _run(
        capsys, "compute", "--edges", path, "--q", "out-share:0.15",
        "--method", "sim", "--sim-mode", "exhaustive", "--k0-max", "1",
    )
    assert code == 0
    assert out.startswith("# sim\nnode,score,rank\n")


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


@pytest.mark.parametrize(
    "command, extra, value",
    [
        ("compute", ("--method", "maxpath,sim", "--seed", "1"), "0"),
        ("compute", ("--method", "maxpath,sim", "--seed", "1"), "-1"),
        ("cascade", ("--initial", "10"), "-1"),
    ],
)
def test_stage_cap_below_one_exits_2(capsys, ex1_csv, command, extra, value):
    code, out, err = _run(
        capsys, command, "--edges", ex1_csv, "--q", "out-share:0.25", *extra,
        "--s", value,
    )
    assert code == 2 and out == ""
    assert err == f"error: s must be at least 1, got {value}\n"


def test_config_stage_cap_below_one_exits_2(capsys, ex1_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"edges": ex1_csv, "q": "out-share:0.25", "method": "maxpath", "s": 0}),
        encoding="utf-8",
    )
    code, out, err = _run(capsys, "compute", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: s must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "key, value, allowed",
    [("sim_mode", "bogus", "'exhaustive' or 'random'"), ("format", "xml", "'csv' or 'json'")],
)
def test_config_values_take_the_flag_choices(capsys, ex1_csv, tmp_path, key, value, allowed):
    # `--method kbi` never reads sim_mode, yet a config value outside the
    # choices of its flag is refused, as `--sim-mode bogus` is
    cfg = tmp_path / "cfg.json"
    doc = {"edges": ex1_csv, "q": "out-share:0.25", "method": "kbi", key: value}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, "compute", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {key} must be {allowed}, got {value!r}\n"


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("runs", 2.7, "2.7"),
        ("k0_max", True, "True"),
        ("seed", "7", "'7'"),
        ("s", 2.0, "2.0"),
    ],
)
def test_config_rejects_non_integer_counts(capsys, ex1_csv, tmp_path, key, value, shown):
    cfg = tmp_path / "cfg.json"
    doc = {"edges": ex1_csv, "q": "out-share:0.25", "method": "sim", "seed": 1, key: value}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, "compute", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {key} must be an integer, got {shown}\n"


@pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("0.5", "'0.5'"), (True, "True")])
def test_config_rejects_non_numeric_damping(capsys, ex1_csv, tmp_path, value, shown):
    cfg = tmp_path / "cfg.json"
    doc = {"edges": ex1_csv, "method": "pagerank", "damping": value}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, "compute", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: damping must be a number, got {shown}\n"


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


@pytest.mark.parametrize("edges", [[], [("a", "b", 5), ("b", "a", 5)]],
                         ids=["header-only", "netted-away"])
def test_all_methods_on_a_net_without_edges(capsys, tmp_path, edges):
    # no edge is left: eigenvector scores 0 as in centrality_table, and
    # random-mode sim on no nodes draws no seed set
    write_edges_csv(tmp_path / "e.csv", edges)
    code, out, err = _run(
        capsys, "compute", "--edges", str(tmp_path / "e.csv"), "--method", "all",
        "--q", "out-share:0.25", "--emit-matrices", "--seed", "1",
    )
    assert code == 0, err
    sections = [line[2:] for line in out.splitlines() if line.startswith("# ")]
    matrices = ["kbi", "sumpaths", "maxpath", "maxmin", "multt", "maxt", "sim"]
    assert sections == [
        "in-degree", "out-degree", "degree-difference", "degree", "closeness-in",
        "closeness-out", "betweenness", "eigenvector", "pagerank",
        *(name for method in matrices for name in (method, f"{method} matrix")),
    ]
    if edges:
        assert "# eigenvector\nnode,score,rank\na,0.000000,1\nb,0.000000,1\n" in out
    else:
        # a matrix over no node is its header alone, like a score section
        for method in matrices:
            assert f"# {method} matrix\nnode\n" in out


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


BOUND = "level 1: bound must be a finite number, got"


@pytest.mark.parametrize(
    "flag, body, message",
    [
        ("--grades", '{"levels": [[0.5], [1.0, "x"]]}', "level 1 must be [bound, label], got [0.5]"),
        ("--grades", "[[0.5], [1.0, \"x\"]]", "grade schema must be a JSON object"),
        ("--grades", "[1, 2]", "grade schema must be a JSON object"),
        ("--grades", '{"levels": [[0.5, "a"]', "invalid JSON: "),
        ("--grades", '{"levels": [["nan", "a"], [1.0, "b"]]}', f"{BOUND} 'nan'"),
        ("--grades", '{"levels": [[NaN, "a"], [1.0, "b"]]}', f"{BOUND} nan"),
        ("--grades", '{"levels": [[true, "a"]]}', f"{BOUND} True"),
        ("--grades", '{"levels": [[1e400, "a"]]}', f"{BOUND} inf"),
        ("--grades", '{"levels": [[' + "9" * 400 + ', "a"]]}', f"{BOUND} 999"),
        ("--grades", b'{"levels": [[1.0, "\xff"]]}', "not UTF-8 text"),
        ("--config", b'{"s": 2, "method": "\xff"}', "not UTF-8 text"),
        ("--config", '{"s": 2', "invalid JSON: "),
        ("--config", "[1, 2]", "config must be a JSON object"),
    ],
)
def test_bad_json_input_names_its_file(capsys, ex1_csv, tmp_path, flag, body, message):
    path = tmp_path / "input.json"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body, encoding="utf-8")
    code, out, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", "out-share:0.25",
        "--method", "maxpath", flag, str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {message}"), err


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


def test_compare_table_quotes_ranking_names(capsys, tmp_path):
    # the name of a,b.csv holds a comma: quoted, it stays one cell
    files = [
        _score_file(tmp_path / name, scores)
        for name, scores in (
            ("a,b.csv", {"x": 3.0, "y": 2.0, "z": 1.0}),
            ("c.csv", {"x": 1.0, "y": 2.0, "z": 3.0}),
            ("d.csv", {"x": 3.0, "y": 1.0, "z": 2.0}),
        )
    ]
    code, out, _ = _run(capsys, "compare", "--rankings", *files)
    assert code == 0
    table = list(csv.reader(out.splitlines()))
    assert [len(row) for row in table] == [4] * 4
    assert table[0] == ["ranking", "a,b", "c", "d"]
    assert [row[0] for row in table[1:]] == ["a,b", "c", "d"]
    assert out.splitlines()[0] == 'ranking,"a,b",c,d'
    assert table[1][1:] == ["1.000000", "-1.000000", "0.333333"]


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


@pytest.mark.parametrize("raw", ["0", "-1", "1.5", "x", "", "1_0"])
def test_compare_rejects_bad_rank(capsys, tmp_path, raw):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"node,score,rank\na,0.5,{raw}\nb,0.4,2\n", encoding="utf-8")
    good = _score_file(tmp_path / "good.csv", {"a": 1.0, "b": 2.0})
    code, out, err = _run(capsys, "compare", "--rankings", str(bad), good)
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 2: bad rank {raw!r}\n"


def test_compare_ranks_by_the_rank_column_else_by_score(capsys, tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("node,score\nx,3\ny,2\nz,1\n", encoding="utf-8")
    ranked = tmp_path / "ranked.csv"
    ranked.write_text("node,score,rank\nx,3,3\ny,2,2\nz,1,1\n", encoding="utf-8")
    rescored = _score_file(tmp_path / "rescored.csv", {"x": 30.0, "y": 20.0, "z": 10.0})
    code, out, _ = _run(capsys, "compare", "--rankings", str(scores), rescored)
    assert code == 0 and out == "tau: 1.000000\n"
    code, out, _ = _run(capsys, "compare", "--rankings", str(ranked), rescored)
    assert code == 0 and out == "tau: -1.000000\n"


def test_compute_compare_round_trip_keeps_exact_ranks(capsys, tmp_path):
    # closeness scores of this net that print alike at six decimals differ
    # exactly, so re-ranking the printed scores would move the coefficients
    rng = random.Random(0)
    edges = [
        (str(a), str(b), rng.randint(1, 100))
        for a in range(30)
        for b in sorted(rng.sample([v for v in range(30) if v != a], 3))
    ]
    path = str(write_edges_csv(tmp_path / "edges.csv", edges))
    methods = ("closeness-in", "closeness-out", "betweenness")
    outdir = tmp_path / "reports"
    code, _, err = _run(
        capsys, "compute", "--edges", path, "--method", ",".join(methods),
        "--output-dir", str(outdir),
    )
    assert code == 0, err
    net = net_mutual_exposures(ingest_edges(edges))
    scores = dict(zip(methods, (closeness(net, "in"), closeness(net, "out"), betweenness(net))))
    exact = {name: rank(s) for name, s in scores.items()}
    printed = {
        name: rank({v: float(f"{x:.6f}") for v, x in s.items()}) for name, s in scores.items()
    }
    files = [str(outdir / f"{name}.csv") for name in methods]
    for coef, func in (("tau", kendall_tau), ("gamma", gk_gamma)):
        value = func(exact["closeness-in"], exact["closeness-out"])
        assert value != func(printed["closeness-in"], printed["closeness-out"])
        code, out, _ = _run(capsys, "compare", "--rankings", *files[:2], "--coef", coef)
        assert code == 0 and out == f"{coef}: {value:.6f}\n"
        code, out, _ = _run(capsys, "compare", "--rankings", *files, "--coef", coef)
        rows = [
            ",".join([a, *(f"{func(exact[a], exact[b]):.6f}" for b in methods)])
            for a in methods
        ]
        assert code == 0 and out.splitlines() == ["ranking," + ",".join(methods), *rows]


def _csv_cells(text):
    return list(csv.reader(text.splitlines(keepends=True)))


def test_ids_that_need_quotes_round_trip_through_every_csv_output(capsys, tmp_path):
    # a comma, a double quote and a line break must be quoted; "DE" need not be
    edges = [
        ("DE", "Korea, Rep.", 3), ("DE", 'the "UK"', 2), ("DE", "line\nbreak", 1),
        ("Korea, Rep.", "DE", 1), ('the "UK"', "Korea, Rep.", 4), ("line\nbreak", "DE", 2),
    ]
    path = tmp_path / "edges.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("from", "to", "weight"), *edges])
    net = net_mutual_exposures(ingest_edges(edges))
    # net writes the csv module's quoting, and --edges reads it back
    code, out, err = _run(capsys, "net", "--edges", str(path))
    assert code == 0, err
    assert out.splitlines()[1] == 'DE,"Korea, Rep.",2.000000'
    assert {tuple(row) for row in _csv_cells(out)[1:]} == {
        (a, b, f"{w:.6f}") for (a, b), w in net.edges.items()
    }
    netted = tmp_path / "netted.csv"
    netted.write_text(out, encoding="utf-8")
    code, again, err = _run(capsys, "net", "--edges", str(netted))
    assert code == 0 and again == out, err
    # compute's reports and matrices parse as CSV, and compare reads the reports
    outdir = tmp_path / "reports"
    methods = ("closeness-in", "betweenness")
    code, _, err = _run(
        capsys, "compute", "--edges", str(path), "--q", "out-share:0.25",
        "--method", ",".join(["kbi", *methods]), "--emit-matrices", "--output-dir", str(outdir),
    )
    assert code == 0, err
    matrix = _csv_cells((outdir / "kbi.matrix.csv").read_text(encoding="utf-8"))
    assert matrix[0] == ["node", *net.nodes]
    assert [row[0] for row in matrix[1:]] == list(net.nodes)
    scores = {"closeness-in": closeness(net, "in"), "betweenness": betweenness(net)}
    for name in methods:
        rows = _csv_cells((outdir / f"{name}.csv").read_text(encoding="utf-8"))
        assert {row[0]: row[1] for row in rows[1:]} == {
            v: f"{x:.6f}" for v, x in scores[name].items()
        }
    files = [str(outdir / f"{name}.csv") for name in methods]
    code, out, err = _run(capsys, "compare", "--rankings", *files)
    value = kendall_tau(rank(scores["closeness-in"]), rank(scores["betweenness"]))
    assert code == 0 and out == f"tau: {value:.6f}\n", err


def test_emit_report_quotes_ids_as_the_csv_module_does():
    scores = {"Korea, Rep.": 2.0, 'the "UK"': 1.0, "DE": 0.5}
    assert emit_report(scores) == (
        b'node,score,rank\n"Korea, Rep.",2.000000,1\n"the ""UK""",1.000000,2\n'
        b"DE,0.500000,3\n"
    )


def test_csv_and_json_inputs_may_start_with_a_byte_order_mark(capsys, ex1_csv, tmp_path):
    def both(name, text):
        """`text` in two files, the second with a UTF-8 byte-order mark."""
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        return str(plain), str(marked)

    edges = Path(ex1_csv).read_text(encoding="utf-8")
    attributes = "node,gdp\n" + "".join(f"{v},{10 * int(v)}\n" for v in range(1, 11))
    quotas = "node,q\n" + "".join(f"{v},{100 * int(v)}\n" for v in range(1, 9))
    reports = {}
    for path in both("edges.csv", edges):
        reports[path] = _run(capsys, "compute", "--edges", path, "--method", "in-degree")
    for path in both("attributes.csv", attributes):
        reports[path] = _run(
            capsys, "compute", "--edges", ex1_csv, "--attributes", path,
            "--q", "attr-share:gdp:0.25", "--method", "kbi",
        )
    for path in both("quotas.csv", quotas):
        reports[path] = _run(capsys, "compute", "--edges", ex1_csv, "--q", f"abs:{path}",
                             "--method", "kbi")
    first = _score_file(tmp_path / "first.csv", {"x": 3.0, "y": 2.0, "z": 1.0})
    for path in both("second.csv", "node,score\nx,1\ny,3\nz,2\n"):
        reports[path] = _run(capsys, "compare", "--rankings", first, path)
    config = json.dumps({"edges": ex1_csv, "q": "out-share:0.25", "method": "kbi"})
    for path in both("config.json", config):
        reports[path] = _run(capsys, "compute", "--config", path)
    outcomes = list(reports.values())
    for plain, marked in zip(outcomes[::2], outcomes[1::2]):
        assert plain[0] == 0 and plain[1], plain
        assert marked == plain


def test_long_influence_chains_need_no_recursion(capsys, tmp_path):
    # every lender lends only to the next node, so each step has c = 1 and
    # the chain from the last node to the first has n - 1 steps
    n = 1100
    edges = [(str(i), str(i + 1), 5) for i in range(n - 1)]
    path = str(write_edges_csv(tmp_path / "chain.csv", edges))
    code, out, err = _run(
        capsys, "compute", "--edges", path, "--q", "out-share:0.25",
        "--method", "sumpaths,maxpath",
    )
    assert code == 0, err
    net = ingest_edges(edges)
    policy = OutShareQuota(0.25)
    for matrix in lric_paths_matrices(net, policy).values():
        rows = matrix.values.tolist()
        at = [matrix.nodes.index(str(i)) for i in range(n)]
        assert all(rows[at[i]][at[j]] == 1.0 for i in range(n) for j in range(i + 1, n))
    (chain,) = simple_paths(influence_matrix(net, policy), str(n - 1), "0")
    assert chain.nodes == tuple(str(i) for i in range(n - 1, -1, -1))
    assert chain.influences == (1.0,) * (n - 1)


def _oversized_field(tmp_path, name, header, row):
    path = tmp_path / name
    path.write_text(f"{header}\n{row}\n" + "x" * 200_000 + "\n", encoding="utf-8")
    return str(path)


def test_oversized_edges_field_exits_2_with_line(capsys, tmp_path):
    path = _oversized_field(tmp_path, "big.csv", "from,to,weight", "a,b,1")
    code, out, err = _run(capsys, "compute", "--edges", path, "--method", "in-degree")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: line 3: field larger than field limit")


def test_oversized_quota_field_exits_2_with_line(capsys, ex1_csv, tmp_path):
    path = _oversized_field(tmp_path, "q.csv", "node,q", "1,10")
    code, out, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--q", f"abs:{path}", "--method", "kbi"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: line 3: field larger than field limit")


@pytest.mark.parametrize("nan_line", [2, 3])
def test_compare_rejects_non_finite_score(capsys, tmp_path, nan_line):
    rows = ["a,1.0", "c,0.5"]
    rows.insert(nan_line - 2, "b,nan")
    bad = tmp_path / "bad.csv"
    bad.write_text("node,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
    good = _score_file(tmp_path / "good.csv", {"a": 3.0, "b": 2.0, "c": 1.0})
    code, out, err = _run(capsys, "compare", "--rankings", str(bad), good)
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line {nan_line}: non-finite score 'nan'\n"


@pytest.mark.parametrize("key", ["no_net", "emit_matrices"])
@pytest.mark.parametrize("value, shown", [("false", "'false'"), (1, "1"), ("yes", "'yes'")])
def test_config_rejects_non_boolean_flags(capsys, ex1_csv, tmp_path, key, value, shown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"edges": ex1_csv, "method": "out-degree", key: value}), encoding="utf-8"
    )
    code, out, err = _run(capsys, "compute", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {key} must be true or false, got {shown}\n"


# each config key's JSON type, and whether it may be null
CONFIG_TYPES = {
    "compute": {
        "edges": ("string", True),
        "attributes": ("string", True),
        "no_net": ("boolean", False),
        "normalize_by": ("string", True),
        "q": ("string", True),
        "method": ("string", False),
        "s": ("integer", True),
        "grades": ("string", False),
        "sim_mode": ("string", False),
        "runs": ("integer", False),
        "k0_max": ("integer", False),
        "seed": ("integer", True),
        "default_prob_attr": ("string", True),
        "damping": ("number", False),
        "emit_matrices": ("boolean", False),
        "format": ("string", False),
        "output_dir": ("string", True),
    },
    "cascade": {
        "edges": ("string", True),
        "attributes": ("string", True),
        "no_net": ("boolean", False),
        "normalize_by": ("string", True),
        "q": ("string", True),
        "s": ("integer", True),
        "initial": ("string", True),
    },
}
JSON_SAMPLES = {
    "string": "x", "integer": 2, "number": 0.5, "boolean": True,
    "array": [], "object": {}, "null": None,
}
# per JSON type of a key: the sample types it takes, and how a message names it
JSON_ACCEPTS = {
    "string": ({"string"}, "a string"),
    "integer": ({"integer"}, "an integer"),
    "number": ({"integer", "number"}, "a number"),
    "boolean": ({"boolean"}, "true or false"),
}


def test_config_types_cover_every_setting():
    assert {c: list(keys) for c, keys in CONFIG_TYPES.items()} == {
        c: list(keys) for c, keys in _COMMAND_SETTINGS.items()
    }


@pytest.mark.parametrize(
    "command, key",
    [(c, key) for c, keys in _COMMAND_SETTINGS.items() for key in keys],
    ids=lambda part: part,
)
def test_each_flag_and_its_config_key_give_the_same_settings(tmp_path, command, key):
    # config keys mirror the flag names with underscores
    kind, default, _ = _COMMAND_SETTINGS[command][key]
    if key in _CHOICES:
        value = next(choice for choice in _CHOICES[key] if choice != default)
    else:
        value = JSON_SAMPLES[kind]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    flag = ["--" + key.replace("_", "-")] + ([] if kind == "boolean" else [str(value)])
    parser = build_parser()
    by_flag = _merge_settings(parser.parse_args([command, *flag]), command)
    by_config = _merge_settings(parser.parse_args([command, "--config", str(cfg)]), command)
    assert by_flag == by_config
    assert type(by_flag[key]) is type(value) and by_flag[key] == value != default


def _wrong_config_values():
    for command, keys in CONFIG_TYPES.items():
        for key, (kind, nullable) in keys.items():
            accepted, name = JSON_ACCEPTS[kind]
            for sample, value in JSON_SAMPLES.items():
                if sample not in accepted and not (sample == "null" and nullable):
                    yield pytest.param(command, key, value, name, id=f"{command}-{key}-{sample}")


@pytest.mark.parametrize("command, key, value, name", list(_wrong_config_values()))
def test_config_refuses_values_of_the_wrong_json_type(
    capsys, tmp_path, monkeypatch, command, key, value, name
):
    # in tmp_path, a value taken for a path or a file descriptor touches
    # nothing else
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}), encoding="utf-8")
    code, out, err = _run(capsys, command, "--config", "cfg.json")
    assert code == 2 and out == ""
    assert err == f"error: {key} must be {name}, got {value!r}\n"


def test_config_false_keeps_netting_on(capsys, tmp_path):
    edges = tmp_path / "m.csv"
    edges.write_text("from,to,weight\na,b,10\nb,a,4\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"edges": str(edges), "method": "out-degree", "no_net": False}),
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, "compute", "--config", str(cfg))
    assert code == 0
    assert out == "# out-degree\nnode,score,rank\na,6.000000,1\nb,0.000000,2\n"


@pytest.mark.parametrize("length", [3, 9])
def test_cascade_builds_engines_independent_of_defaults(capsys, tmp_path, monkeypatch, length):
    # node k lends only to k + 1, so seeding the last node sinks every other
    from lricnet.simulation import _CascadeEngine

    built = []
    init = _CascadeEngine.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_CascadeEngine, "__init__", counting)
    edges = [(str(k), str(k + 1), 1) for k in range(length)]
    path = str(write_edges_csv(tmp_path / "chain.csv", edges))
    code, out, err = _run(
        capsys, "cascade", "--edges", path, "--q", "out-share:0.25", "--initial", str(length)
    )
    assert code == 0, err
    assert out.count("pivotal for") == length
    # one engine stages the cascade and credits every default
    assert len(built) == 1


# L lends to 27 borrowers, each of which lends only to x: seeding x sinks
# them all, and with them L, whose support would be searched over all 27
WIDE_ATTRIBUTION = [("L", f"b{k}", 1) for k in range(27)] + [
    (f"b{k}", "x", 1) for k in range(27)
]


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--method", "sim", "--sim-mode", "exhaustive", "--k0-max", "1"),
        ("cascade", "--initial", "x"),
    ],
)
def test_attribution_cap_names_the_lender(capsys, tmp_path, argv):
    path = str(write_edges_csv(tmp_path / "wide.csv", WIDE_ATTRIBUTION))
    code, out, err = _run(capsys, *argv, "--edges", path, "--q", "out-share:0.25")
    assert code == 2
    assert out == ""
    assert err == (
        "error: attribution for a lender with 27 defaulted borrowers exceeds the "
        "enumeration cap 25 (lender 'L')\n"
    )


@pytest.mark.parametrize("module", ["lricnet", "lricnet.cli"])
def test_python_dash_m_runs_the_cli(ex1_csv, module):
    argv = ["compute", "--edges", ex1_csv, "--q", "out-share:0.25", "--method", "degree"]
    entry = "import sys; from lricnet.cli import main; sys.exit(main(sys.argv[1:]))"
    console, dash_m = (
        subprocess.run(
            [sys.executable, *command, *argv],
            env=_child_env(), capture_output=True, timeout=60, check=True,
        )
        for command in (["-c", entry], ["-m", module])
    )
    assert dash_m.stdout == console.stdout
    assert console.stdout.startswith(b"# degree\nnode,score,rank\n")
    assert dash_m.stderr == b""


# finite weights whose sums are not: a's lending, b's borrowing, and only
# the total lending of all lenders; on "total" also b's lending plus
# borrowing, and (as on "paths") the distances from a and to c
OVERFLOWS = {
    "lending": ([("a", "b", 1e308), ("a", "c", 1e308)], "loans of 'a'"),
    "borrowing": ([("a", "b", 1e308), ("c", "b", 1e308)], "loans to 'b'"),
    "total": (
        [("a", "b", 1e308), ("b", "c", 1e308), ("c", "d", 1e308)],
        "the loans of all lenders",
    ),
    "paths": (
        [("s", "a", 8e307), ("s", "b", 7e307), ("a", "c", 8e307), ("b", "d", 8e307),
         ("c", "t", 8e307), ("d", "t", 8e307)],
        None,
    ),
}
# the sums that methods adding lending and borrowing or distances refuse
# first; `all` stops at degree, the first of them
FIRST_REFUSED = {
    "all": "loans of and to 'b'",
    "degree": "loans of and to 'b'",
    "closeness-out": "distances from 'a'",
    "closeness-in": "distances to 'c'",
}


@pytest.mark.parametrize(
    "shape, argv",
    [
        ("lending", ("net",)),
        ("lending", ("compute", "--method", "kbi")),
        ("borrowing", ("net",)),
        ("borrowing", ("compute", "--method", "in-degree")),
        ("total", ("compute", "--method", "kbi")),
        ("total", ("compute", "--method", "maxpath")),
        ("total", ("compute", "--method", "sim")),
        ("total", ("compute", "--method", "all")),
        ("total", ("compute", "--method", "degree")),
        ("total", ("compute", "--method", "closeness-out")),
        ("total", ("compute", "--method", "closeness-in")),
        ("paths", ("compute", "--method", "closeness-out")),
        ("paths", ("compute", "--method", "closeness-in")),
    ],
)
def test_sums_past_the_largest_float_end_in_one_error_line(tmp_path, shape, argv):
    edges, what = OVERFLOWS[shape]
    what = FIRST_REFUSED.get(argv[-1], what)
    path = str(write_edges_csv(tmp_path / "edges.csv", edges))
    if argv[0] == "compute":
        argv = (*argv, "--q", "out-share:0.25", "--seed", "1", "--runs", "50")
    cli = "import sys; from lricnet.cli import main; sys.exit(main(sys.argv[1:]))"
    child = subprocess.run(
        [sys.executable, "-c", cli, *argv, "--edges", path],
        env=_child_env(), capture_output=True, timeout=60,
    )
    assert b"Traceback" not in child.stderr
    assert child.stderr.decode() == f"error: {what} sum to a non-finite value\n"
    assert child.returncode == 2 and child.stdout == b""


def test_degrees_that_do_not_add_lending_and_borrowing_score_the_chain(capsys, tmp_path):
    edges, _ = OVERFLOWS["total"]
    path = str(write_edges_csv(tmp_path / "edges.csv", edges))
    code, out, err = _run(
        capsys, "compute", "--edges", path, "--method", "in-degree,out-degree,degree-difference"
    )
    assert code == 0 and err == ""
    big = f"{1e308:.6f}"
    assert out.split("\n\n") == [
        f"# in-degree\nnode,score,rank\nb,{big},1\nc,{big},1\nd,{big},1\na,0.000000,4",
        f"# out-degree\nnode,score,rank\na,{big},1\nb,{big},1\nc,{big},1\nd,0.000000,4",
        f"# degree-difference\nnode,score,rank\na,{big},1\nb,0.000000,2\nc,0.000000,2\n"
        f"d,-{big},4\n",
    ]


# the path methods run after the others, each group in list order
@pytest.mark.parametrize(
    "methods, named", [("sim,maxt", "sim"), ("maxt,kbi", "kbi"), ("maxpath,sumpaths", "maxpath")]
)
def test_policy_errors_name_the_first_method_run(capsys, ex1_csv, methods, named):
    code, out, err = _run(
        capsys, "compute", "--edges", ex1_csv, "--method", methods, "--seed", "1"
    )
    assert code == 2 and out == ""
    assert err == f"error: method {named!r} needs a threshold policy (--q)\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_dir_files_equal_their_sections_of_stdout(capsys, ex1_csv, tmp_path, fmt):
    argv = (
        "compute", "--edges", ex1_csv, "--q", "out-share:0.25", "--method", "all",
        "--sim-mode", "exhaustive", "--k0-max", "2", "--emit-matrices", "--format", fmt,
    )
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    outdir = tmp_path / "reports"
    code, wrote, err = _run(capsys, *argv, "--output-dir", str(outdir))
    assert code == 0, err
    sections, files = [], []
    for name in METHOD_ORDER:
        files.append(f"{name}.{fmt}")
        section = f"# {name}\n" + (outdir / files[-1]).read_text(encoding="utf-8")
        if name in POLICY_METHODS:
            files.append(f"{name}.matrix.csv")
            section += f"# {name} matrix\n" + (outdir / files[-1]).read_text(encoding="utf-8")
        sections.append(section)
    assert out == "\n".join(sections)
    assert wrote == "".join(f"wrote {outdir / name}\n" for name in files)
    assert sorted(p.name for p in outdir.iterdir()) == sorted(files)

"""Command line front end (``lric-net``).

Subcommands:

* ``net``      net mutual exposures and write the resulting edge list
* ``compute``  run centrality / key-borrower methods and emit node reports
* ``cascade``  propagate an initial default set, print stages and causes
* ``compare``  rank agreement between previously emitted score files

``compute`` and ``cascade`` accept ``--config FILE`` (JSON object whose keys
are the long flag names with underscores); explicit flags override the file,
the file overrides built-in defaults.  With the same inputs, flags, and seed
the emitted bytes are identical run to run.  ``compute`` walks each lender's
pivotal groups once for KBI and the path methods together, and runs the named
path methods last, all from one pass that folds the chains for all five at once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import sys
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path

import numpy as np

from .centrality import betweenness, closeness, degree_measures, eigenvector, pagerank
from .groups import _lender_passes, _LenderPass
from .kbi import _kbi_rows, kbi_from_rows, kbi_matrix
from .network import (
    Absolute,
    AttributeShare,
    ExposureNetwork,
    OutShareQuota,
    ThresholdPolicy,
    ingest_edges,
    net_mutual_exposures,
    node_sort_key,
    normalize_by_attribute,
    read_attributes_csv,
    read_edges_csv,
)
from .paths import (
    GRADE_SCHEMAS,
    PATH_METHODS,
    GradeSchema,
    _fold_chains,
    _influence_from_passes,
    load_grade_schema,
    weighted_vector,
)
from .ranking import comparison_matrix, gk_gamma, kendall_tau, rank
from .simulation import (
    SimulationPlan,
    cascade,
    pivotal_initiators,
    share_matrix,
    simulate,
    vector_from_simulation,
)

logger = logging.getLogger(__name__)

CLASSICAL_METHODS = (
    "in-degree",
    "out-degree",
    "degree-difference",
    "degree",
    "closeness-in",
    "closeness-out",
    "betweenness",
    "eigenvector",
    "pagerank",
)
POLICY_METHODS = ("kbi",) + PATH_METHODS + ("sim",)
METHOD_ORDER = CLASSICAL_METHODS + POLICY_METHODS

_DEFAULTS: dict[str, dict] = {
    "compute": {
        "edges": None,
        "attributes": None,
        "no_net": False,
        "normalize_by": None,
        "q": None,
        "method": "all",
        "s": None,
        "grades": "five-level",
        "sim_mode": "random",
        "runs": 5000,
        "k0_max": 5,
        "seed": None,
        "default_prob_attr": None,
        "damping": 0.85,
        "emit_matrices": False,
        "format": "csv",
        "output_dir": None,
    },
    "cascade": {
        "edges": None,
        "attributes": None,
        "no_net": False,
        "normalize_by": None,
        "q": None,
        "s": None,
        "initial": None,
    },
}


def parse_policy(text: str) -> ThresholdPolicy:
    """Parse ``out-share:<f>``, ``attr-share:<name>:<f>``, or ``abs:<csv>``."""
    kind, sep, rest = text.partition(":")
    if sep and rest:
        if kind == "out-share":
            return OutShareQuota(_parse_fraction(rest, text))
        if kind == "attr-share":
            name, sep2, frac = rest.rpartition(":")
            if sep2 and name:
                return AttributeShare(name, _parse_fraction(frac, text))
        if kind == "abs":
            return Absolute(_read_quota_csv(rest))
    raise ValueError(
        f"bad threshold policy {text!r}: expected out-share:<fraction>, "
        f"attr-share:<name>:<fraction>, or abs:<csv-path>"
    )


def _parse_fraction(raw: str, context: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"bad fraction {raw!r} in threshold policy {context!r}") from None


def _read_quota_csv(path: str) -> dict[str, float]:
    quotas: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header node,q") from None
        if header != ["node", "q"]:
            raise ValueError(f"{path}: line 1: expected header node,q")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            node = row[0].strip()
            if node in quotas:
                raise ValueError(f"{path}: line {lineno}: duplicate node {node!r}")
            try:
                q = float(row[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad threshold {row[1]!r}") from None
            if not math.isfinite(q):
                raise ValueError(f"{path}: line {lineno}: non-finite threshold {row[1]!r}")
            quotas[node] = q
    return quotas


def _resolve_grades(text: str) -> GradeSchema:
    schema = GRADE_SCHEMAS.get(text)
    if schema is not None:
        return schema
    if Path(text).exists():
        return load_grade_schema(text)
    names = ", ".join(sorted(GRADE_SCHEMAS))
    raise ValueError(f"unknown grade schema {text!r}: use one of {names} or a JSON file path")


def _method_list(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ValueError("empty method list")
    if "all" in names:
        return list(METHOD_ORDER)
    unknown = [n for n in names if n not in METHOD_ORDER]
    if unknown:
        raise ValueError(
            f"unknown methods {unknown}; available: {', '.join(METHOD_ORDER)}, or 'all'"
        )
    seen: dict[str, None] = {}
    for n in names:
        seen.setdefault(n)
    return list(seen)


def _load_config(path: str, allowed: set[str]) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    return doc


def _merge_settings(args: argparse.Namespace, command: str) -> dict:
    settings = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        settings.update(_load_config(config_path, allowed=set(settings)))
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    for key in ("s", "runs", "k0_max", "seed"):
        if settings.get(key) is not None:
            settings[key] = int(settings[key])
    if settings.get("damping") is not None:
        settings["damping"] = float(settings["damping"])
    for key in ("no_net", "emit_matrices"):
        if key in settings:
            settings[key] = bool(settings[key])
    return settings


def _build_network(settings: dict) -> ExposureNetwork:
    if not settings["edges"]:
        raise ValueError("--edges is required")
    records = read_edges_csv(settings["edges"])
    attributes = (
        read_attributes_csv(settings["attributes"]) if settings["attributes"] else None
    )
    net = ingest_edges(records, attributes)
    if not settings["no_net"]:
        net = net_mutual_exposures(net)
    if settings["normalize_by"]:
        net = normalize_by_attribute(net, settings["normalize_by"])
    return net


def emit_report(scores: Mapping[str, float], fmt: str = "csv") -> bytes:
    """Serialize a score vector: CSV rows in rank order, or JSON with stable keys."""
    ranking = rank(scores)
    if fmt == "csv":
        lines = ["node,score,rank"]
        for node in ranking.order:
            lines.append(f"{node},{scores[node]:.6f},{ranking.ranks[node]}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        doc = {"scores": dict(scores), "ranks": ranking.ranks}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _matrix_csv(nodes: Sequence[str], values: np.ndarray) -> bytes:
    lines = ["node," + ",".join(nodes)]
    for i, node in enumerate(nodes):
        cells = ",".join(f"{values[i, j]:.6f}" for j in range(len(nodes)))
        lines.append(f"{node},{cells}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _node_probabilities(net: ExposureNetwork, name: str) -> dict[str, float]:
    values = net.attributes.get(name)
    if values is None:
        raise ValueError(f"no attribute {name!r} to draw default probabilities from")
    return {v: values.get(v, 0.0) for v in net.nodes}


def _compute_one(
    name: str,
    net: ExposureNetwork,
    policy: ThresholdPolicy | None,
    passes: Callable[[], dict[str, _LenderPass]],
    settings: dict,
) -> tuple[dict[str, float], tuple[Sequence[str], np.ndarray] | None]:
    if name == "in-degree":
        return degree_measures(net)[0], None
    if name == "out-degree":
        return degree_measures(net)[1], None
    if name == "degree-difference":
        return degree_measures(net)[2], None
    if name == "degree":
        return degree_measures(net)[3], None
    if name == "closeness-in":
        return closeness(net, "in"), None
    if name == "closeness-out":
        return closeness(net, "out"), None
    if name == "betweenness":
        return betweenness(net), None
    if name == "eigenvector":
        return eigenvector(net), None
    if name == "pagerank":
        return pagerank(net, damping=settings["damping"]), None
    if policy is None:
        raise ValueError(f"method {name!r} needs a threshold policy (--q)")
    emit = settings["emit_matrices"]
    if name == "kbi":
        rows = _kbi_rows(passes())
        scores = kbi_from_rows(net, rows)
        return scores, (net.nodes, kbi_matrix(net, rows)) if emit else None
    if name == "sim":
        plan = SimulationPlan(
            mode=settings["sim_mode"],
            runs=settings["runs"],
            k0_max=settings["k0_max"],
            seed=settings["seed"],
            probabilities=(
                _node_probabilities(net, settings["default_prob_attr"])
                if settings["default_prob_attr"]
                else None
            ),
        )
        matrix = simulate(net, policy, plan, settings["s"])
        vector = vector_from_simulation(net, matrix)
        return vector, (matrix.nodes, matrix.values) if emit else None
    raise ValueError(f"unknown method {name!r}")


def _path_results(
    names: Sequence[str],
    net: ExposureNetwork,
    policy: ThresholdPolicy | None,
    passes: Callable[[], dict[str, _LenderPass]],
    schema: GradeSchema,
    settings: dict,
) -> dict[str, tuple[dict[str, float], tuple[Sequence[str], np.ndarray] | None]]:
    """Results of the named path methods, all from one fold over the chains.

    Run it after the other methods: its matrices would otherwise stay live
    while they run and raise the peak memory.
    """
    path_names = [name for name in names if name in PATH_METHODS]
    if not path_names:
        return {}
    if policy is None:
        raise ValueError(f"method {path_names[0]!r} needs a threshold policy (--q)")
    matrices = _fold_chains(_influence_from_passes(net, passes()), settings["s"], schema)
    results = {}
    for name in path_names:
        matrix = matrices[name]
        emitted = (matrix.nodes, matrix.values) if settings["emit_matrices"] else None
        results[name] = weighted_vector(net, matrix), emitted
    return results


def _cmd_compute(args: argparse.Namespace) -> int:
    settings = _merge_settings(args, "compute")
    if settings["format"] not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {settings['format']!r}")
    net = _build_network(settings)
    names = _method_list(settings["method"])
    policy = parse_policy(settings["q"]) if settings["q"] else None
    schema = _resolve_grades(settings["grades"])
    # walked at first use, so errors keep the order of the method list
    passes = functools.cache(lambda: _lender_passes(net, policy))
    results = {
        name: _compute_one(name, net, policy, passes, settings)
        for name in names
        if name not in PATH_METHODS
    }
    results.update(_path_results(names, net, policy, passes, schema, settings))
    outdir = settings["output_dir"]
    fmt = settings["format"]
    if outdir:
        directory = Path(outdir)
        directory.mkdir(parents=True, exist_ok=True)
        for name in names:
            scores, matrix = results[name]
            report = directory / f"{name}.{fmt}"
            report.write_bytes(emit_report(scores, fmt))
            print(f"wrote {report}")
            if matrix is not None:
                matrix_path = directory / f"{name}.matrix.csv"
                matrix_path.write_bytes(_matrix_csv(*matrix))
                print(f"wrote {matrix_path}")
        return 0
    for pos, name in enumerate(names):
        if pos:
            print()
        scores, matrix = results[name]
        print(f"# {name}")
        sys.stdout.write(emit_report(scores, fmt).decode("utf-8"))
        if matrix is not None:
            print(f"# {name} matrix")
            sys.stdout.write(_matrix_csv(*matrix).decode("utf-8"))
    return 0


def _cmd_net(args: argparse.Namespace) -> int:
    net = net_mutual_exposures(ingest_edges(read_edges_csv(args.edges)))
    lines = ["from,to,weight"]
    for lender, borrower in sorted(
        net.edges, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))
    ):
        lines.append(f"{lender},{borrower},{net.edges[(lender, borrower)]:.6f}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _format_nodes(nodes) -> str:
    return ", ".join(sorted(nodes, key=node_sort_key))


def _cmd_cascade(args: argparse.Namespace) -> int:
    settings = _merge_settings(args, "cascade")
    if not settings["initial"]:
        raise ValueError("--initial is required")
    if not settings["q"]:
        raise ValueError("--q is required")
    net = _build_network(settings)
    policy = parse_policy(settings["q"])
    shares = share_matrix(net, policy)
    initial = frozenset(
        x.strip() for x in str(settings["initial"]).split(",") if x.strip()
    )
    trace = cascade(shares, initial, settings["s"])
    print(f"initial: {_format_nodes(trace.initial)}")
    for stage_no, stage in enumerate(trace.stages, start=1):
        print(f"stage {stage_no}: {_format_nodes(stage)}")
    print(f"defaulted: {_format_nodes(trace.defaulted)}")
    for node in sorted(trace.defaulted - trace.initial, key=node_sort_key):
        causes = pivotal_initiators(shares, node, initial, settings["s"])
        print(f"pivotal for {node}: {_format_nodes(causes)}")
    return 0


def _read_scores_csv(path: str) -> dict[str, float]:
    scores: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header node,score,...") from None
        if len(header) < 2 or header[0] != "node" or header[1] != "score":
            raise ValueError(f"{path}: line 1: expected header node,score,...")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: expected at least 2 fields")
            node = row[0].strip()
            if node in scores:
                raise ValueError(f"{path}: line {lineno}: duplicate node {node!r}")
            try:
                scores[node] = float(row[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad score {row[1]!r}") from None
    if not scores:
        raise ValueError(f"{path}: no score rows")
    return scores


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.files) < 2:
        raise ValueError("need at least two score files to compare")
    rankings: dict[str, object] = {}
    for path in args.files:
        name = Path(path).stem
        if name in rankings:
            raise ValueError(f"duplicate ranking name {name!r}; rename one input file")
        rankings[name] = rank(_read_scores_csv(path))
    if len(args.files) == 2:
        func = kendall_tau if args.coefficient == "tau" else gk_gamma
        first, second = rankings.values()
        value = func(first, second)
        shown = "undefined" if math.isnan(value) else f"{value:.6f}"
        print(f"{args.coefficient}: {shown}")
        return 0
    names, matrix = comparison_matrix(rankings, args.coefficient)
    print("ranking," + ",".join(names))
    for i, name in enumerate(names):
        cells = ",".join(f"{matrix[i, j]:.6f}" for j in range(len(names)))
        print(f"{name},{cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lric-net",
        description="Key borrower detection in weighted directed exposure networks.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="increase log verbosity"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--edges", help="edge list CSV with header from,to,weight")
    shared.add_argument("--attributes", help="node attribute CSV with header node,<attr>,...")
    shared.add_argument(
        "--no-net",
        dest="no_net",
        action="store_const",
        const=True,
        default=None,
        help="skip netting of mutual exposures",
    )
    shared.add_argument(
        "--normalize-by",
        dest="normalize_by",
        metavar="ATTR",
        help="divide every weight by the lender's value of this attribute",
    )
    shared.add_argument(
        "--q",
        help="threshold policy: out-share:<f> | attr-share:<name>:<f> | abs:<csv>",
    )
    shared.add_argument("--config", help="JSON file supplying defaults for any flag")

    p_net = sub.add_parser("net", help="net mutual exposures and write the edge list")
    p_net.add_argument("--edges", required=True, help="edge list CSV")
    p_net.add_argument("--output", help="output path (default stdout)")
    p_net.set_defaults(func=_cmd_net)

    p_compute = sub.add_parser(
        "compute", parents=[shared], help="compute node scores and rankings"
    )
    p_compute.add_argument(
        "--method",
        help=f"comma-separated subset of: {', '.join(METHOD_ORDER)}; or 'all'",
    )
    p_compute.add_argument(
        "--s", type=int, help="maximum influence chain length (default: unlimited)"
    )
    p_compute.add_argument(
        "--grades", help="grade schema: five-level, eight-level, or a JSON file"
    )
    p_compute.add_argument(
        "--sim-mode", dest="sim_mode", choices=["exhaustive", "random"]
    )
    p_compute.add_argument("--runs", type=int, help="random-mode draw count")
    p_compute.add_argument(
        "--k0-max", dest="k0_max", type=int, help="largest initial default set"
    )
    p_compute.add_argument("--seed", type=int, help="RNG seed (required in random mode)")
    p_compute.add_argument(
        "--default-prob-attr",
        dest="default_prob_attr",
        metavar="ATTR",
        help="draw initial defaults per node with this attribute as probability",
    )
    p_compute.add_argument("--damping", type=float, help="pagerank damping factor")
    p_compute.add_argument(
        "--emit-matrices",
        dest="emit_matrices",
        action="store_const",
        const=True,
        default=None,
        help="also emit per-method influence matrices (CSV)",
    )
    p_compute.add_argument("--format", choices=["csv", "json"])
    p_compute.add_argument("--output-dir", dest="output_dir")
    p_compute.set_defaults(func=_cmd_compute)

    p_cascade = sub.add_parser(
        "cascade", parents=[shared], help="propagate an initial default set"
    )
    p_cascade.add_argument("--initial", help="comma-separated initial default nodes")
    p_cascade.add_argument("--s", type=int, help="stage cap (default: run to fixpoint)")
    p_cascade.set_defaults(func=_cmd_cascade)

    p_compare = sub.add_parser("compare", help="rank agreement between score files")
    p_compare.add_argument(
        "--rankings",
        dest="files",
        nargs="+",
        required=True,
        help="two or more score CSVs (node,score,...)",
    )
    p_compare.add_argument(
        "--coef",
        "--coefficient",
        dest="coefficient",
        choices=["tau", "gamma"],
        default="tau",
    )
    p_compare.set_defaults(func=_cmd_compare)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)

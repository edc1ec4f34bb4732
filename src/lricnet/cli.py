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
import functools
import math
import os
import sys
from collections.abc import Callable, Mapping, Sequence

from .centrality import _degrees, betweenness, closeness, degree_measures, eigenvector, pagerank
from .groups import _lender_passes, _LenderPass
from .kbi import _kbi_rows, kbi_from_rows, kbi_matrix
from .network import (
    Absolute,
    AttributeShare,
    ExposureNetwork,
    OutShareQuota,
    ThresholdPolicy,
    _csv_float,
    _csv_rows,
    _read_json,
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
    _influence_rows,
    _weighted_scores,
    load_grade_schema,
)
from .ranking import _comparison_rows, gk_gamma, kendall_tau, rank
from .simulation import (
    SimulationPlan,
    _CascadeEngine,
    _credits,
    _mask,
    _members,
    _node_indices,
    _share_rows,
    _sim_scores,
    _simulate_rows,
)

# per classical method, its scores of a network under the merged settings
_CLASSICAL: dict[str, Callable[[ExposureNetwork, dict], dict[str, float]]] = {
    "in-degree": lambda net, _: _degrees(net)[0],
    "out-degree": lambda net, _: _degrees(net)[1],
    "degree-difference": lambda net, _: _degrees(net)[2],
    "degree": lambda net, _: degree_measures(net)[3],
    "closeness-in": lambda net, _: closeness(net, "in"),
    "closeness-out": lambda net, _: closeness(net, "out"),
    "betweenness": lambda net, _: betweenness(net),
    "eigenvector": lambda net, _: eigenvector(net),
    "pagerank": lambda net, settings: pagerank(net, damping=settings["damping"]),
}
CLASSICAL_METHODS = tuple(_CLASSICAL)
POLICY_METHODS = ("kbi",) + PATH_METHODS + ("sim",)
METHOD_ORDER = CLASSICAL_METHODS + POLICY_METHODS

_BOTH = ("compute", "cascade")
# per `compute`/`cascade` setting: the subcommands that take it, its JSON
# type, its built-in default and its help.  It is the flag --<key with
# dashes> and the config key <key>; null is allowed only where the default
# is null
_SETTINGS: dict[str, tuple[tuple[str, ...], str, object, str]] = {
    "edges": (_BOTH, "string", None, "edge list CSV with header from,to,weight"),
    "attributes": (_BOTH, "string", None, "node attribute CSV with header node,<attr>,..."),
    "no_net": (_BOTH, "boolean", False, "skip netting of mutual exposures"),
    "normalize_by": (
        _BOTH, "string", None, "divide every weight by the lender's value of this attribute"
    ),
    "q": (
        _BOTH, "string", None,
        "threshold policy: out-share:<f> | attr-share:<name>:<f> | abs:<csv>",
    ),
    "method": (
        ("compute",), "string", "all",
        f"comma-separated subset of: {', '.join(METHOD_ORDER)}; or 'all'",
    ),
    "s": (
        _BOTH, "integer", None,
        "longest influence chain (compute) or stage cap (cascade); default: unlimited",
    ),
    "grades": (
        ("compute",), "string", "five-level",
        "grade schema: five-level, eight-level, or a JSON file",
    ),
    "sim_mode": (
        ("compute",), "string", "random",
        "every initial default set up to --k0-max, or --runs random draws",
    ),
    "runs": (("compute",), "integer", 5000, "random-mode draw count"),
    "k0_max": (("compute",), "integer", 5, "largest initial default set"),
    "seed": (("compute",), "integer", None, "RNG seed (required in random mode)"),
    "default_prob_attr": (
        ("compute",), "string", None,
        "draw initial defaults per node with this attribute as probability",
    ),
    "damping": (("compute",), "number", 0.85, "pagerank damping factor"),
    "emit_matrices": (
        ("compute",), "boolean", False, "also emit per-method influence matrices (CSV)"
    ),
    "format": (("compute",), "string", "csv", "report format"),
    "output_dir": (("compute",), "string", None, "write one file per method here"),
    "initial": (("cascade",), "string", None, "comma-separated initial default nodes"),
}
# per subcommand, its settings in declaration order
_COMMAND_SETTINGS = {
    command: {key: spec[1:] for key, spec in _SETTINGS.items() if command in spec[0]}
    for command in _BOTH
}
# the values a setting may take, checked for flags and config alike
_CHOICES = {"sim_mode": ("exhaustive", "random"), "format": ("csv", "json")}
# per JSON type, the Python types of its values, how a message names it, and
# how its flag converts the text; bool is an int subclass, but `"k0_max": true`
# is no count
_JSON_TYPES = {
    "string": ((str,), "a string", str),
    "integer": ((int,), "an integer", int),
    "number": ((int, float), "a number", float),
    "boolean": ((bool,), "true or false", None),
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
    rows = _csv_rows(path, "node,q", lambda h: h == ["node", "q"])
    next(rows)
    quotas: dict[str, float] = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
        node = row[0].strip()
        if node in quotas:
            raise ValueError(f"{path}: line {lineno}: duplicate node {node!r}")
        quotas[node] = _csv_float(path, lineno, row[1], "threshold")
    return quotas


def _resolve_grades(text: str) -> GradeSchema:
    schema = GRADE_SCHEMAS.get(text)
    if schema is not None:
        return schema
    if os.path.exists(text):
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
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    return doc


def _merge_settings(args: argparse.Namespace, command: str) -> dict:
    spec = _COMMAND_SETTINGS[command]
    settings = {key: default for key, (_, default, _) in spec.items()}
    if args.config:
        settings.update(_load_config(args.config, allowed=set(settings)))
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    for key, (kind, default, _) in spec.items():
        value = settings[key]
        if value is None and default is None:
            continue
        types, name, _ = _JSON_TYPES[kind]
        if not isinstance(value, types) or isinstance(value, bool) != (kind == "boolean"):
            raise ValueError(f"{key} must be {name}, got {value!r}")
        choices = _CHOICES.get(key)
        if choices and value not in choices:
            raise ValueError(f"{key} must be {' or '.join(map(repr, choices))}, got {value!r}")
    if settings["s"] is not None and settings["s"] < 1:
        raise ValueError(f"s must be at least 1, got {settings['s']}")
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


def _cell(text: str) -> str:
    """`text` as one CSV cell, quoted as the csv module quotes it: only when
    it holds a comma, a double quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_report(scores: Mapping[str, float], fmt: str = "csv") -> bytes:
    """Serialize a score vector: CSV rows in rank order, or JSON with stable keys."""
    ranking = rank(scores)
    if fmt == "csv":
        lines = ["node,score,rank"]
        for node in ranking.order:
            lines.append(f"{_cell(node)},{scores[node]:.6f},{ranking.ranks[node]}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        import json

        doc = {"scores": dict(scores), "ranks": ranking.ranks}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _matrix_csv(nodes: Sequence[str], values: list[list[float]]) -> bytes:
    ids = [*map(_cell, nodes)]
    lines = [",".join(["node", *ids])]
    for node, row in zip(ids, values):
        cells = ",".join([f"{value:.6f}" for value in row])
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
    fold: Callable[[], dict[str, list[list[float]]]],
    settings: dict,
) -> tuple[dict[str, float], list[list[float]] | None]:
    """The scores of method `name` and, with --emit-matrices, its matrix
    over ``net.nodes``."""
    classical = _CLASSICAL.get(name)
    if classical is not None:
        return classical(net, settings), None
    if policy is None:
        raise ValueError(f"method {name!r} needs a threshold policy (--q)")
    emit = settings["emit_matrices"]
    if name == "kbi":
        rows = _kbi_rows(passes())
        return kbi_from_rows(net, rows), kbi_matrix(net, rows) if emit else None
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
        rows = _simulate_rows(net, policy, plan, settings["s"])
        return _sim_scores(net, net.nodes, rows), rows if emit else None
    rows = fold()[name]
    return _weighted_scores(net, net.nodes, rows), rows if emit else None


def _cmd_compute(args: argparse.Namespace) -> int:
    settings = _merge_settings(args, "compute")
    net = _build_network(settings)
    names = _method_list(settings["method"])
    policy = parse_policy(settings["q"]) if settings["q"] else None
    schema = _resolve_grades(settings["grades"])
    # each walked at first use, so errors keep the order of the method list;
    # the path methods run last, so the fold's matrices are not live while
    # the other methods run
    passes = functools.cache(lambda: _lender_passes(net, policy))
    fold = functools.cache(
        lambda: _fold_chains(net.nodes, _influence_rows(net, passes()), settings["s"], schema)
    )
    results = {
        name: _compute_one(name, net, policy, passes, fold, settings)
        for name in sorted(names, key=PATH_METHODS.__contains__)
    }
    outdir = settings["output_dir"]
    fmt = settings["format"]
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    for pos, name in enumerate(names):
        scores, matrix = results[name]
        sections = [(name, f"{name}.{fmt}", emit_report(scores, fmt))]
        if matrix is not None:
            data = _matrix_csv(net.nodes, matrix)
            sections.append((f"{name} matrix", f"{name}.matrix.csv", data))
        if pos and not outdir:
            print()
        for title, filename, data in sections:
            if outdir:
                _write(os.path.join(outdir, filename), data)
            else:
                print(f"# {title}")
                sys.stdout.write(data.decode("utf-8"))
    return 0


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
    print(f"wrote {path}")


def _cmd_net(args: argparse.Namespace) -> int:
    net = net_mutual_exposures(ingest_edges(read_edges_csv(args.edges)))
    lines = ["from,to,weight"]
    for lender, borrower in sorted(
        net.edges, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))
    ):
        lines.append(f"{_cell(lender)},{_cell(borrower)},{net.edges[(lender, borrower)]:.6f}")
    text = "\n".join(lines) + "\n"
    if args.output:
        _write(args.output, text.encode("utf-8"))
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
    engine = _CascadeEngine(
        _share_rows(net, policy), stage_limit=settings["s"], nodes=net.nodes
    )
    initial = frozenset(x.strip() for x in settings["initial"].split(",") if x.strip())
    if not initial:
        raise ValueError("initial default set must be nonempty")
    seeds = _mask(_node_indices(net.nodes, initial))
    stages = engine.stages(seeds)
    # credited before anything is printed, so a failure leaves stdout empty
    credits = _credits(engine, seeds)
    print(f"initial: {_format_nodes(initial)}")
    for stage_no, stage in enumerate(stages, start=1):
        print(f"stage {stage_no}: {_format_nodes(net.nodes[k] for k in _members(stage))}")
    defaulted = seeds | sum(stages)  # the stages are disjoint
    print(f"defaulted: {_format_nodes(net.nodes[k] for k in _members(defaulted))}")
    for i in sorted(credits, key=lambda i: node_sort_key(net.nodes[i])):
        print(f"pivotal for {net.nodes[i]}: {_format_nodes(net.nodes[j] for j in credits[i])}")
    return 0


def _read_ranking_csv(path: str) -> dict[str, int]:
    """The ranks of a score file: its `rank` column when the header is
    ``node,score,rank``, as `compute` writes, else the ranks of its scores."""
    rows = _csv_rows(path, "node,score,...", lambda h: h[:2] == ["node", "score"])
    _, header = next(rows)
    ranked = header == ["node", "score", "rank"]
    scores: dict[str, float] = {}
    ranks: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) < 2 + ranked:
            raise ValueError(f"{path}: line {lineno}: expected at least {2 + ranked} fields")
        node = row[0].strip()
        if node in scores:
            raise ValueError(f"{path}: line {lineno}: duplicate node {node!r}")
        scores[node] = _csv_float(path, lineno, row[1], "score")
        if ranked:
            digits = row[2].strip()
            if not digits.isdecimal() or int(digits) < 1:
                raise ValueError(f"{path}: line {lineno}: bad rank {row[2]!r}")
            ranks[node] = int(digits)
    if not scores:
        raise ValueError(f"{path}: no score rows")
    return ranks if ranked else rank(scores).ranks


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.files) < 2:
        raise ValueError("need at least two score files to compare")
    rankings: dict[str, dict[str, int]] = {}
    for path in args.files:
        # the file name without its last suffix, as pathlib's ``stem``
        base = os.path.basename(path)
        stem, _, suffix = base.rpartition(".")
        name = stem if stem and suffix else base
        if name in rankings:
            raise ValueError(f"duplicate ranking name {name!r}; rename one input file")
        rankings[name] = _read_ranking_csv(path)
    if len(args.files) == 2:
        func = kendall_tau if args.coefficient == "tau" else gk_gamma
        first, second = rankings.values()
        value = func(first, second)
        shown = "undefined" if math.isnan(value) else f"{value:.6f}"
        print(f"{args.coefficient}: {shown}")
        return 0
    names, rows = _comparison_rows(rankings, args.coefficient)
    print("ranking," + ",".join(map(_cell, names)))
    for name, row in zip(names, rows):
        cells = ",".join(f"{value:.6f}" for value in row)
        print(f"{_cell(name)},{cells}")
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

    p_net = sub.add_parser("net", help="net mutual exposures and write the edge list")
    p_net.add_argument("--edges", required=True, help="edge list CSV")
    p_net.add_argument("--output", help="output path (default stdout)")
    p_net.set_defaults(func=_cmd_net)

    for command, func, text in (
        ("compute", _cmd_compute, "compute node scores and rankings"),
        ("cascade", _cmd_cascade, "propagate an initial default set"),
    ):
        p_command = sub.add_parser(command, help=text)
        for key, (kind, _, help_text) in _COMMAND_SETTINGS[command].items():
            flag = "--" + key.replace("_", "-")
            if kind == "boolean":
                p_command.add_argument(
                    flag, dest=key, action="store_const", const=True, help=help_text
                )
            else:
                _, _, convert = _JSON_TYPES[kind]
                p_command.add_argument(
                    flag, dest=key, type=convert, choices=_CHOICES.get(key), help=help_text
                )
        p_command.add_argument("--config", help="JSON file supplying defaults for any flag")
        p_command.set_defaults(func=func)

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
    if args.verbose:  # nothing logs above DEBUG, so a plain run needs no logging
        import logging

        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands mirror the pipeline stages: split, score, rerank, eval, gap,
oracle, and pipeline (all stages end to end). Every subcommand accepts
--seed and --config (a JSON object of values for the subcommand's own
options; any other key is an error). Each option is resolved once, before
the subcommand runs: the flag if given, else the config value, else the
default. Every subcommand that takes a target also accepts it in a config
file as a label -> mass object, and gap and oracle take their pools and
counts as a label -> count object too. Only split, score and pipeline use
the seed; rerank, eval, gap and oracle draw nothing at random and ignore it.
FAIRLINK_OUTPUT_DIR overrides output directories, nothing else.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 infeasible experiment; any other status is an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DataError,
    FairlinkError,
    InfeasibleError,
    _check_bool,
    _check_number,
    _check_path,
)
from .fairness import ndkl, ndkl_upper_bound
from .graphs import (
    GroupDistribution,
    GroupId,
    check_ratios,
    empirical_distribution,
    load_graph,
    read_edge_list,
    stratified_split,
    write_split,
)
from .io import write_json
from .oracle import ENUMERATION_GUARD, MultisetSpec, enumerate_ndkl_extremes
from .pipeline import (
    GREEDY,
    RunConfig,
    build_candidates,
    check_cutoffs,
    evaluate_ranking,
    run_pipeline,
)
from .rerank import (
    check_lambda,
    check_ranking_groups,
    default_gap_pools,
    gap_experiment,
    kl_greedy_merge,
    merge_by_score,
    read_ranking,
    write_ranking,
)
from .scorers import SCORERS, GroupedCandidateSet, ingest_scores, load_embeddings, write_scores

OUTPUT_DIR_ENV = "FAIRLINK_OUTPUT_DIR"
# Config-file keys that name a file or directory, in any subcommand.
_PATH_KEYS = (
    "edges", "attrs", "train", "test", "scores", "ranking", "embeddings", "out",
    "edges_path", "attrs_path", "embeddings_path", "out_dir",
)
# Flag names that differ from their RunConfig field; a pipeline config key may use either.
_PIPELINE_ALIASES = {
    "edges": "edges_path",
    "attrs": "attrs_path",
    "embeddings": "embeddings_path",
    "out": "out_dir",
    "k": "k_list",
}


def _options(args) -> dict:
    """The subcommand's options: the --config object's values, each overridden
    by its flag when the flag is given. A config key must be one of the
    subcommand's own options; pipeline keys may also be spelled as the flag."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    options: dict = {}
    if args.config:
        path = args.config
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        aliases, known = {}, set(flags)
        if args.command == "pipeline":
            aliases = _PIPELINE_ALIASES
            known = set(RunConfig.__dataclass_fields__) | set(aliases)  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown {args.command} config key {unknown[0]!r}")
        for key in _PATH_KEYS:
            if data.get(key) is not None:
                _check_path(data[key], key)
        options = {aliases.get(key, key): value for key, value in data.items()}
    options.update((k, v) for k, v in flags.items() if v is not None)
    return options


def _require(options: dict, name: str):
    value = options.get(name)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _out_dir(value: str) -> str:
    return os.environ.get(OUTPUT_DIR_ENV, value)


def parse_group_map(text, number: type = float) -> dict[GroupId, float]:
    """Parse `0-0=0.5,0-1=0.2,...` into a group -> ``number(value)`` mapping.

    A label -> value object (from a config file) is parsed as its items'
    `label=value` text. ``1-0`` and ``0-1`` name one group; naming a group
    twice is an error.
    """
    if isinstance(text, dict):
        text = ",".join(f"{label}={value}" for label, value in text.items())
    out: dict[GroupId, float] = {}
    for item in str(text).split(","):
        label, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"expected LABEL=VALUE, got {item!r}")
        try:
            group, parsed = GroupId.parse(label.strip()), number(value)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {item!r}: {exc}") from exc
        if group in out:
            raise ConfigError(f"group {group.label()} is given twice in {text!r}")
        out[group] = parsed
    return out


def parse_target(value) -> str | GroupDistribution:
    """``"empirical"``, or the distribution a `label=mass,...` string or a
    label -> mass object (from a config file) names."""
    if value == "empirical":
        return value
    if isinstance(value, str):
        return GroupDistribution(parse_group_map(value))
    if isinstance(value, dict):
        return GroupDistribution.from_label_dict(value)
    raise ConfigError(f"unsupported target spec {value!r}")


def _target_spec(options: dict) -> str | GroupDistribution:
    """--target as a distribution or "empirical", checked before any file is read."""
    spec = parse_target(options.get("target", "empirical"))
    if spec == "empirical" and options.get("train") is None:
        raise ConfigError("empirical target needs --train (or an explicit --target)")
    return spec


def _target(options: dict, spec, graph) -> GroupDistribution:
    """The explicit target, or the empirical proportions of the --train edges."""
    if spec != "empirical":
        return spec
    return empirical_distribution(graph.subgraph_with_edges(read_edge_list(options["train"])))


def _top_line(report) -> str:
    """A report's metrics at its largest cutoff, or its AP when it has none."""
    if not report.per_k:
        return f"ap={report.ap:.4f}"
    top = report.per_k[-1]
    return f"ndkl@{top.k}={top.ndkl:.4f} prec@{top.k}={top.precision:.4f}"


# --- subcommands -------------------------------------------------------------


def cmd_split(options: dict) -> int:
    ratios = check_ratios(options.get("ratios", (0.7, 0.1, 0.2)))
    seed = _check_number(options.get("seed", 0), "seed", integer=True)
    graph = load_graph(_require(options, "edges"), _require(options, "attrs"))
    split = stratified_split(graph, ratios, seed=seed)
    out = Path(_out_dir(_require(options, "out")))
    paths = write_split(out, graph, split)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


def cmd_score(options: dict) -> int:
    given = ("seed", "scorer", "decoupled", "embeddings", "negatives_per_positive")
    run = RunConfig(
        edges_path=_require(options, "edges"),
        attrs_path=_require(options, "attrs"),
        **{_PIPELINE_ALIASES.get(k, k): v for k, v in options.items() if k in given},
    )
    graph = load_graph(run.edges_path, run.attrs_path)
    train = graph.subgraph_with_edges(read_edge_list(_require(options, "train")))
    test = graph.subgraph_with_edges(read_edge_list(_require(options, "test")))
    embeddings = load_embeddings(run.embeddings_path) if run.embeddings_path else None
    candidates = build_candidates(
        run, graph, train, test.edges_by_group(), run.seed, embeddings=embeddings
    )
    write_scores(_require(options, "out"), candidates)
    print(f"scored {candidates.total()} candidates across {len(candidates.groups())} groups")
    return 0


def cmd_rerank(options: dict) -> int:
    spec = _target_spec(options)
    lam = check_lambda(options.get("lam", 1.0))
    n = options.get("n")
    if n is not None:
        _check_number(n, "output size", integer=True, minimum=1)
    smoothing = _check_bool(options.get("smoothing", False), "smoothing")
    graph = load_graph(_require(options, "edges"), _require(options, "attrs"))
    test = read_edge_list(_require(options, "test"))
    candidates = ingest_scores(_require(options, "scores"), graph, test)
    target = _target(options, spec, graph)
    if smoothing:
        target = target.smoothed()
    n = n or candidates.total()
    ranking, _ = kl_greedy_merge(candidates, target, n, lam)
    out = _require(options, "out")
    write_ranking(out, ranking)
    value = ndkl(ranking, target)
    print(f"wrote {out} ({len(ranking)} entries, ndkl={value:.4f})")
    return 0


def cmd_eval(options: dict) -> int:
    spec = _target_spec(options)
    k_list = check_cutoffs(options.get("k", (100,)))
    smoothing = _check_bool(options.get("smoothing", False), "smoothing")
    graph = load_graph(_require(options, "edges"), _require(options, "attrs"))
    ranking = read_ranking(_require(options, "ranking"))
    check_ranking_groups(ranking, graph)
    target = _target(options, spec, graph)
    pool = GroupedCandidateSet.from_candidates(ranking.entries)
    naive = merge_by_score(pool, len(ranking))
    reports = {
        "ranked": evaluate_ranking("ranked", ranking, pool, target, k_list, smoothing=smoothing),
        "naive": evaluate_ranking("naive", naive, pool, target, k_list, smoothing=smoothing),
    }
    payload = {
        "target": target.as_label_dict(),
        "bound": reports["ranked"].bound,
        "methods": {name: rep.to_dict() for name, rep in sorted(reports.items())},
    }
    write_json(_require(options, "out"), payload)
    for name, rep in sorted(reports.items()):
        print(f"{name}: {_top_line(rep)}")
    return 0


def cmd_gap(options: dict) -> int:
    target = parse_target(_require(options, "target"))
    if not isinstance(target, GroupDistribution):
        raise ConfigError("gap needs an explicit --target distribution")
    k_grid = check_cutoffs(options.get("k_grid", (10, 50, 100, 500, 1000)))
    if not k_grid:
        raise ConfigError("gap needs at least one --k-grid cutoff")
    pools_spec = options.get("pools")
    if pools_spec:
        pools = parse_group_map(pools_spec, int)
    else:
        pools = default_gap_pools(target, k_grid)
    curve = gap_experiment(target, pools, k_grid)
    out = _require(options, "out")
    curve.write_csv(out)
    print(f"wrote {out} ({len(k_grid)} grid points)")
    return 0


def cmd_oracle(options: dict) -> int:
    counts = parse_group_map(_require(options, "counts"), int)
    target = parse_target(_require(options, "target"))
    if not isinstance(target, GroupDistribution):
        raise ConfigError("oracle needs an explicit --target distribution")
    guard = _check_number(
        options.get("guard", ENUMERATION_GUARD), "guard", integer=True, minimum=1
    )
    result = enumerate_ndkl_extremes(MultisetSpec(counts), target, guard=guard)
    payload = result.as_dict()
    payload["bound"] = ndkl_upper_bound(target.positive())
    write_json(_require(options, "out"), payload)
    print(
        f"examined {result.permutations_examined} orderings: "
        f"min={result.min_value:.6f} max={result.max_value:.6f} bound={payload['bound']:.6f}"
    )
    return 0


def cmd_pipeline(options: dict) -> int:
    options["out_dir"] = _out_dir(options.get("out_dir", RunConfig.out_dir))
    if isinstance(options.get("target"), str) and options["target"] != "empirical":
        options["target"] = parse_target(options["target"]).as_label_dict()
    if "edges_path" not in options or "attrs_path" not in options:
        raise ConfigError("pipeline needs --edges and --attrs (or config equivalents)")
    config = RunConfig(**options)
    for result in run_pipeline(config):
        report = result.reports[GREEDY]
        print(f"seed {result.seed}: greedy {_top_line(report)} (bound {report.bound:.4f})")
    print(f"outputs under {Path(config.out_dir)}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairlink",
        description="Group-exposure fairness evaluation and re-ranking for link prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--config", default=None, help="JSON file with option defaults")

    p = sub.add_parser("split", help="stratified train/valid/test edge split")
    common(p)
    p.add_argument("--edges", help="edge list file")
    p.add_argument("--attrs", help="node attribute file")
    p.add_argument("--ratios", type=float, nargs=3, default=None, metavar=("TRAIN", "VALID", "TEST"))
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("score", help="build and score per-group candidate pools")
    common(p)
    p.add_argument("--edges")
    p.add_argument("--attrs")
    p.add_argument("--train", help="training edge file (heuristics read only these)")
    p.add_argument("--test", help="held-out positive edge file")
    p.add_argument("--scorer", choices=SCORERS)
    p.add_argument("--decoupled", action=argparse.BooleanOptionalAction, default=None,
                   help="restrict heuristics to same-group edges")
    p.add_argument("--embeddings", help="embedding file for the embedding scorer")
    p.add_argument("--negatives-per-positive", dest="negatives_per_positive", type=float)
    p.add_argument("--out", help="output score file (u v score)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rerank", help="exposure-aware greedy merge of scored candidates")
    common(p)
    p.add_argument("--edges")
    p.add_argument("--attrs")
    p.add_argument("--test", help="held-out positives (sets relevance flags)")
    p.add_argument("--scores", help="score file to ingest")
    p.add_argument("--train", help="training edges for the empirical target")
    p.add_argument("--target", help="'empirical' or e.g. '0-0=0.6,0-1=0.2,1-1=0.2'")
    p.add_argument("--n", type=int, help="output length (default: all candidates)")
    p.add_argument("--lam", "--lambda", dest="lam", type=float,
                   help="fairness weight in [0,1]; 1 = pure divergence greedy")
    p.add_argument("--smoothing", action="store_true", default=None,
                   help="epsilon-smooth zero target masses instead of erroring")
    p.add_argument("--out", help="output ranking file")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="evaluate a ranking file (with naive comparator)")
    common(p)
    p.add_argument("--edges")
    p.add_argument("--attrs")
    p.add_argument("--ranking", help="ranking file to evaluate")
    p.add_argument("--train", help="training edges for the empirical target")
    p.add_argument("--target")
    p.add_argument("--k", type=int, nargs="+", help="cutoffs")
    p.add_argument("--smoothing", action="store_true", default=None)
    p.add_argument("--out", help="output report JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gap", help="greedy vs block-ordering NDKL at parity-optimal proportions")
    common(p)
    p.add_argument("--target", help="explicit target, e.g. '0-0=0.61,0-1=0.2,1-1=0.19'")
    p.add_argument("--pools", help="per-group pool sizes, e.g. '0-0=1200,0-1=400,1-1=400'")
    p.add_argument("--k-grid", dest="k_grid", type=int, nargs="+")
    p.add_argument("--out", help="output CSV")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("oracle", help="exact divergence extremes over all orderings")
    common(p)
    p.add_argument("--counts", help="group counts, e.g. '0-0=5,0-1=3,1-1=2'")
    p.add_argument("--target")
    p.add_argument(
        "--guard", type=int, help=f"largest multiset, in items (default {ENUMERATION_GUARD})"
    )
    p.add_argument("--out", help="output JSON report")
    p.set_defaults(func=cmd_oracle)

    # Each dest is a RunConfig field, so the options build the RunConfig as they are.
    p = sub.add_parser("pipeline", help="split + score + rerank + eval, repeated over seeds")
    common(p)
    p.add_argument("--edges", dest="edges_path", metavar="EDGES")
    p.add_argument("--attrs", dest="attrs_path", metavar="ATTRS")
    p.add_argument("--repeats", type=int)
    p.add_argument("--scorer", choices=SCORERS)
    p.add_argument("--decoupled", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--embeddings", dest="embeddings_path", metavar="EMBEDDINGS")
    p.add_argument("--target")
    p.add_argument("--k", dest="k_list", metavar="K", type=int, nargs="+")
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--smoothing", action="store_true", default=None)
    p.add_argument("--negatives-per-positive", dest="negatives_per_positive", type=float)
    p.add_argument("--output-size", dest="output_size", type=int)
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_options(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible experiment: {exc}", file=sys.stderr)
        return 4
    except (DataError, FairlinkError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands mirror the pipeline stages: split, score, rerank, eval, gap,
oracle, and pipeline (all stages end to end). Every subcommand accepts
--seed and --config (a JSON file supplying defaults for the subcommand's
own options; explicit flags win, and any other key is an error). Only
split, score and pipeline use the seed; rerank, eval, gap and oracle
draw nothing at random and ignore it.
FAIRLINK_OUTPUT_DIR overrides output directories, nothing else.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 infeasible experiment.
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
    resolve_target,
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
from .scorers import SCORERS, GroupedCandidateSet, ingest_scores, write_scores

OUTPUT_DIR_ENV = "FAIRLINK_OUTPUT_DIR"
# Config-file keys that name a file or directory, in any subcommand.
_PATH_KEYS = (
    "edges", "attrs", "train", "test", "scores", "ranking", "embeddings", "out",
    "edges_path", "attrs_path", "embeddings_path", "out_dir",
)


def _load_config(args, options=None) -> dict:
    """The --config object; each key must be one of ``options``, by default
    the subcommand's own options."""
    path = args.config
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    options = options or set(vars(args)) - {"command", "func", "config"}
    unknown = sorted(set(data) - options)
    if unknown:
        raise ConfigError(f"unknown {args.command} config key {unknown[0]!r}")
    for key in _PATH_KEYS:
        if data.get(key) is not None:
            _check_path(data[key], key)
    return data


def _pick(args, config: dict, name: str, default=None):
    """CLI flag if given, else config file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return config.get(name, default)


def _require(args, config: dict, name: str):
    value = _pick(args, config, name)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _out_dir(value: str) -> str:
    return os.environ.get(OUTPUT_DIR_ENV, value)


def parse_group_map(text: str, number: type = float) -> dict[GroupId, float]:
    """Parse `0-0=0.5,0-1=0.2,...` into a group -> ``number(value)`` mapping.

    ``1-0`` and ``0-1`` name one group; naming a group twice is an error.
    """
    out: dict[GroupId, float] = {}
    for item in text.split(","):
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


def parse_target(text: str) -> str | GroupDistribution:
    if text == "empirical":
        return "empirical"
    return GroupDistribution(parse_group_map(text))


def _target_spec(args, config: dict) -> str | GroupDistribution:
    """--target as a distribution or "empirical", checked before any file is read."""
    spec = _pick(args, config, "target", "empirical")
    if isinstance(spec, str):
        spec = parse_target(spec)
    if spec != "empirical":
        return resolve_target(spec, None)
    if _pick(args, config, "train") is None:
        raise ConfigError("empirical target needs --train (or an explicit --target)")
    return spec


def _target(args, config: dict, spec, graph) -> GroupDistribution:
    """The explicit target, or the empirical proportions of the --train edges."""
    train_graph = None
    if spec == "empirical":
        train_graph = graph.subgraph_with_edges(read_edge_list(_pick(args, config, "train")))
    return resolve_target(spec, train_graph)


# --- subcommands -------------------------------------------------------------


def cmd_split(args) -> int:
    config = _load_config(args)
    ratios = check_ratios(_pick(args, config, "ratios", (0.7, 0.1, 0.2)))
    seed = _check_number(_pick(args, config, "seed", 0), "seed", integer=True)
    graph = load_graph(_require(args, config, "edges"), _require(args, config, "attrs"))
    split = stratified_split(graph, ratios, seed=seed)
    out = Path(_out_dir(_require(args, config, "out")))
    paths = write_split(out, graph, split)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


def cmd_score(args) -> int:
    config = _load_config(args)
    run = RunConfig(
        edges_path=_require(args, config, "edges"),
        attrs_path=_require(args, config, "attrs"),
        seed=_pick(args, config, "seed", 0),
        scorer=_pick(args, config, "scorer", "adamic_adar"),
        decoupled=_pick(args, config, "decoupled", True),
        embeddings_path=_pick(args, config, "embeddings"),
        negatives_per_positive=_pick(args, config, "negatives_per_positive", 1.0),
    )
    graph = load_graph(run.edges_path, run.attrs_path)
    train = graph.subgraph_with_edges(read_edge_list(_require(args, config, "train")))
    test = graph.subgraph_with_edges(read_edge_list(_require(args, config, "test")))
    candidates = build_candidates(run, graph, train, test.edges_by_group(), run.seed)
    write_scores(_require(args, config, "out"), candidates)
    print(f"scored {candidates.total()} candidates across {len(candidates.groups())} groups")
    return 0


def cmd_rerank(args) -> int:
    config = _load_config(args)
    spec = _target_spec(args, config)
    lam = check_lambda(_pick(args, config, "lam", 1.0))
    n = _pick(args, config, "n")
    if n is not None:
        _check_number(n, "output size", integer=True, minimum=1)
    smoothing = _check_bool(_pick(args, config, "smoothing", False), "smoothing")
    graph = load_graph(_require(args, config, "edges"), _require(args, config, "attrs"))
    test = read_edge_list(_require(args, config, "test"))
    candidates = ingest_scores(_require(args, config, "scores"), graph, test)
    target = _target(args, config, spec, graph)
    n = n or candidates.total()
    ranking, _ = kl_greedy_merge(candidates, target, n, lam, smoothing=smoothing)
    out = _require(args, config, "out")
    write_ranking(out, ranking)
    value = ndkl(ranking, target, smoothing=smoothing)
    print(f"wrote {out} ({len(ranking)} entries, ndkl={value:.4f})")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    spec = _target_spec(args, config)
    k_list = check_cutoffs(_pick(args, config, "k", (100,)))
    smoothing = _check_bool(_pick(args, config, "smoothing", False), "smoothing")
    graph = load_graph(_require(args, config, "edges"), _require(args, config, "attrs"))
    ranking = read_ranking(_require(args, config, "ranking"))
    check_ranking_groups(ranking, graph)
    target = _target(args, config, spec, graph)
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
    write_json(_require(args, config, "out"), payload)
    for name, rep in sorted(reports.items()):
        if rep.per_k:
            top = rep.per_k[-1]
            print(f"{name}: ndkl@{top.k}={top.ndkl:.4f} prec@{top.k}={top.precision:.4f}")
        else:
            print(f"{name}: ap={rep.ap:.4f}")
    return 0


def cmd_gap(args) -> int:
    config = _load_config(args)
    target = parse_target(str(_require(args, config, "target")))
    if not isinstance(target, GroupDistribution):
        raise ConfigError("gap needs an explicit --target distribution")
    k_grid = check_cutoffs(_pick(args, config, "k_grid", (10, 50, 100, 500, 1000)))
    if not k_grid:
        raise ConfigError("gap needs at least one --k-grid cutoff")
    pools_spec = _pick(args, config, "pools")
    if pools_spec:
        pools = parse_group_map(str(pools_spec), int)
    else:
        pools = default_gap_pools(target, k_grid)
    curve = gap_experiment(target, pools, k_grid)
    out = _require(args, config, "out")
    curve.write_csv(out)
    print(f"wrote {out} ({len(k_grid)} grid points)")
    return 0


def cmd_oracle(args) -> int:
    config = _load_config(args)
    counts = parse_group_map(str(_require(args, config, "counts")), int)
    target = parse_target(str(_require(args, config, "target")))
    if not isinstance(target, GroupDistribution):
        raise ConfigError("oracle needs an explicit --target distribution")
    guard = _check_number(
        _pick(args, config, "guard", ENUMERATION_GUARD), "guard", integer=True, minimum=1
    )
    result = enumerate_ndkl_extremes(MultisetSpec(counts), target, guard=guard)
    payload = result.as_dict()
    payload["bound"] = ndkl_upper_bound(target.positive())
    write_json(_require(args, config, "out"), payload)
    print(
        f"examined {result.permutations_examined} orderings: "
        f"min={result.min_value:.6f} max={result.max_value:.6f} bound={payload['bound']:.6f}"
    )
    return 0


_PIPELINE_ALIASES = {
    "edges": "edges_path",
    "attrs": "attrs_path",
    "embeddings": "embeddings_path",
    "out": "out_dir",
    "k": "k_list",
}


def cmd_pipeline(args) -> int:
    known = set(RunConfig.__dataclass_fields__)  # type: ignore[attr-defined]
    config = _load_config(args, known | set(_PIPELINE_ALIASES))
    fields = {_PIPELINE_ALIASES.get(key, key): value for key, value in config.items()}
    cli_values = {
        "edges_path": args.edges,
        "attrs_path": args.attrs,
        "seed": args.seed,
        "repeats": args.repeats,
        "scorer": args.scorer,
        "decoupled": args.decoupled,
        "embeddings_path": args.embeddings,
        "target": args.target,
        "k_list": tuple(args.k) if args.k else None,
        "lam": args.lam,
        "smoothing": args.smoothing,
        "negatives_per_positive": args.negatives_per_positive,
        "output_size": args.output_size,
        "out_dir": args.out,
    }
    fields.update({k: v for k, v in cli_values.items() if v is not None})
    fields["out_dir"] = _out_dir(fields.get("out_dir", "runs"))
    if isinstance(fields.get("target"), str) and fields["target"] != "empirical":
        fields["target"] = parse_target(fields["target"]).as_label_dict()
    if "edges_path" not in fields or "attrs_path" not in fields:
        raise ConfigError("pipeline needs --edges and --attrs (or config equivalents)")
    run = RunConfig.from_dict(fields)
    summary = run_pipeline(run)
    for result in summary.results:
        report = result.reports[GREEDY]
        if report.per_k:
            top = report.per_k[-1]
            print(
                f"seed {result.seed}: greedy ndkl@{top.k}={top.ndkl:.4f} "
                f"prec@{top.k}={top.precision:.4f} (bound {report.bound:.4f})"
            )
        else:
            print(f"seed {result.seed}: greedy ap={report.ap:.4f} (bound {report.bound:.4f})")
    print(f"outputs under {summary.out_dir}")
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
    p.add_argument("--k", type=int, nargs="+", help="cutoffs (ascending)")
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

    p = sub.add_parser("pipeline", help="split + score + rerank + eval, repeated over seeds")
    common(p)
    p.add_argument("--edges")
    p.add_argument("--attrs")
    p.add_argument("--repeats", type=int)
    p.add_argument("--scorer", choices=SCORERS)
    p.add_argument("--decoupled", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--embeddings")
    p.add_argument("--target")
    p.add_argument("--k", type=int, nargs="+")
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--smoothing", action="store_true", default=None)
    p.add_argument("--negatives-per-positive", dest="negatives_per_positive", type=float)
    p.add_argument("--output-size", dest="output_size", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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

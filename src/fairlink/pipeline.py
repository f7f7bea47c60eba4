"""End-to-end experiment pipeline and report generation.

One seeded run: split the graph, build per-group candidate pools (test
positives plus sampled non-edges), score them with the configured
scorer, produce both the exposure-aware greedy ranking and the naive
raw-score merge, and evaluate every metric at every requested cutoff.
Reports are plain dataclasses written to JSON; the package never reads
a report back (the tests do, in ``tests/reference.py``). Every metric
is reproducible from the input files, the options and the seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, _check_bool, _check_number, _check_path
from .fairness import (
    INTER,
    INTRA,
    Ranking,
    delta_dp_score,
    delta_dp_selection,
    delta_max,
    ndkl_curve,
    ndkl_upper_bound,
    top_k_proportions,
)
from .graphs import (
    GroupDistribution,
    SensitiveGraph,
    SplitResult,
    check_ratios,
    empirical_distribution,
    load_graph,
    sample_negatives,
    stratified_split,
    write_split,
)
from .io import write_csv, write_json
from .rank_metrics import (
    RelevanceVector,
    average_precision,
    hits_at_k,
    ndcg_at_k,
    precision_at_k,
)
from .rerank import (
    check_lambda,
    kl_greedy_merge,
    merge_by_score,
    pool_statistics,
    write_ranking,
)
from .scorers import SCORERS, GroupedCandidateSet, load_embeddings, score_candidates

GREEDY = "greedy"
NAIVE = "naive"


def check_cutoffs(k_list: Sequence[int]) -> tuple[int, ...]:
    """Validated cutoffs: a list of integers, each at least 1."""
    if not isinstance(k_list, (list, tuple)):
        raise ConfigError(f"cutoffs must be a list of integers, got {k_list!r}")
    return tuple(_check_number(k, "each cutoff", integer=True, minimum=1) for k in k_list)


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on, except the wall clock."""

    edges_path: str
    attrs_path: str
    out_dir: str = "runs"
    seed: int = 0
    repeats: int = 3
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    scorer: str = "adamic_adar"
    decoupled: bool = True
    embeddings_path: str | None = None
    target: str | dict[str, float] = "empirical"
    k_list: tuple[int, ...] = (100, 1000)
    lam: float = 1.0
    smoothing: bool = False
    negatives_per_positive: float = 1.0
    output_size: int | None = None

    def __post_init__(self):
        for name in ("edges_path", "attrs_path", "out_dir"):
            _check_path(getattr(self, name), name)
        if self.embeddings_path is not None:
            _check_path(self.embeddings_path, "embeddings_path")
        _check_bool(self.decoupled, "decoupled")
        _check_bool(self.smoothing, "smoothing")
        _check_number(self.seed, "seed", integer=True)
        _check_number(self.repeats, "repeats", integer=True, minimum=1)
        # An empty k_list is allowed: reports then carry global metrics only.
        object.__setattr__(self, "k_list", tuple(sorted(check_cutoffs(self.k_list))))
        object.__setattr__(self, "ratios", check_ratios(self.ratios))
        check_lambda(self.lam)
        _check_number(self.negatives_per_positive, "negatives_per_positive", minimum=0)
        if self.output_size is not None:
            _check_number(self.output_size, "output_size", integer=True, minimum=1)
        if self.scorer not in SCORERS:
            raise ConfigError(f"unknown scorer {self.scorer!r}; choose one of {SCORERS}")
        if self.scorer == "embedding" and not self.embeddings_path:
            raise ConfigError("scorer 'embedding' requires embeddings_path")
        if isinstance(self.target, dict):
            GroupDistribution.from_label_dict(self.target)
        elif self.target != "empirical":
            raise ConfigError(f"unsupported target spec {self.target!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the options as given, out_dir aside.

        Input files enter by their path text, not their content: the same
        files under other paths hash differently, and a file changed in
        place keeps its hash. It names a configuration, not the inputs.
        """
        payload = self.to_dict()
        payload.pop("out_dir")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class MetricsAtK:
    k: int
    ndkl: float
    precision: float
    hits: float
    ndcg: float
    proportions: dict[str, float]


@dataclass(frozen=True)
class EvalReport:
    """All fairness and utility metrics for one ranking."""

    method: str
    per_k: tuple[MetricsAtK, ...]
    ap: float
    delta_dp_selection: float
    delta_dp_score: float
    delta_max: float
    target: dict[str, float]
    bound: float

    def __post_init__(self):
        # A self-check of the metric: an internal fault, not a FairlinkError.
        for row in self.per_k:
            if row.ndkl > self.bound + 1e-9:
                raise AssertionError(
                    f"ndkl@{row.k}={row.ndkl} exceeds the bound {self.bound}; metric bug"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    def at_k(self, k: int) -> MetricsAtK:
        for row in self.per_k:
            if row.k == k:
                return row
        raise KeyError(f"no metrics at k={k}")


@dataclass(frozen=True)
class SeedRunResult:
    """One seed's rankings and reports, plus enough context to re-check.

    ``seconds`` (stage wall times, see ``run_single``) is neither compared nor reported.
    """

    seed: int
    config_hash: str
    target: GroupDistribution
    reports: dict[str, EvalReport]
    rankings: dict[str, Ranking] = field(repr=False)
    split: SplitResult | None = field(repr=False, default=None)
    seconds: dict[str, float] = field(repr=False, compare=False, default_factory=dict)

    def report_payload(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "target": self.target.as_label_dict(),
            "methods": {name: report.to_dict() for name, report in sorted(self.reports.items())},
        }


def resolve_target(spec, train_graph: SensitiveGraph | None) -> GroupDistribution:
    """The target a run ranks against.

    ``spec`` is ``"empirical"`` (the group proportions of the training
    graph's edges) or a ``label -> mass`` mapping; only the empirical
    target reads ``train_graph``.
    """
    if isinstance(spec, Mapping):
        return GroupDistribution.from_label_dict(spec)
    if spec != "empirical":
        raise ConfigError(f"unsupported target spec {spec!r}")
    return empirical_distribution(train_graph)


def build_candidates(
    config: RunConfig,
    graph: SensitiveGraph,
    train_graph: SensitiveGraph,
    positives: Mapping,
    seed: int,
    *,
    embeddings: Mapping | None = None,
    lap: Callable[[str], None] = lambda stage: None,
) -> GroupedCandidateSet:
    """Per-group pools: test positives plus sampled non-edges, scored on ``train_graph``.

    Each pair is born in its group, canonical and once, and is scored as
    given: the positives are edges of ``graph`` keyed by group (a split's
    test slices, or a subgraph's groups) and the negatives are sampled
    per group. ``embeddings`` are read from ``config.embeddings_path``
    when not given. ``lap`` is called with "negatives" and then
    "scoring" as each step ends.
    """
    negatives = sample_negatives(
        graph,
        {g: round(len(edges) * config.negatives_per_positive) for g, edges in positives.items()},
        seed=seed,
    )
    lap("negatives")
    if embeddings is None and config.embeddings_path:
        embeddings = load_embeddings(config.embeddings_path)
    candidates = score_candidates(
        train_graph,
        positives,
        negatives,
        config.scorer,
        decoupled=config.decoupled,
        embeddings=embeddings,
    )
    lap("scoring")
    return candidates


def evaluate_ranking(
    method: str,
    ranking: Ranking,
    candidates: GroupedCandidateSet,
    target: GroupDistribution,
    k_list: Sequence[int],
    *,
    smoothing: bool = False,
) -> EvalReport:
    """Score one ranking against the shared candidate pool statistics.

    Cutoffs are checked first (``check_cutoffs``), before any metric is
    computed; cutoffs beyond the ranking length are clamped. The parity
    diagnostics are pool-level where the definition demands it
    (score-mean forms), and top-k based for the selection-rate form.
    The report names ``target`` as given; with ``smoothing`` the
    divergences and their bound are measured against ``target.smoothed()``.
    """
    k_list = check_cutoffs(k_list)
    measured = target.smoothed() if smoothing else target
    return _evaluate(method, ranking, pool_statistics(candidates), target, measured, k_list)


def _evaluate(
    method: str,
    ranking: Ranking,
    pool: tuple,
    target: GroupDistribution,
    measured: GroupDistribution,
    k_list: Sequence[int],
) -> EvalReport:
    """``evaluate_ranking`` on the pool's ``pool_statistics``, which its rankings share.

    The report names ``target``; divergences are measured against
    ``measured``. ``k_list`` holds checked cutoffs (``check_cutoffs``).
    """
    pool_sizes, class_scores, group_scores, total_positives = pool
    rel = RelevanceVector.from_ranking(ranking, total_positives)

    cutoffs = list(dict.fromkeys(min(k, len(ranking)) for k in k_list))
    curve = ndkl_curve(ranking, measured, max(cutoffs)) if cutoffs else []
    rows = [
        MetricsAtK(
            k=k,
            ndkl=curve[k - 1],
            precision=precision_at_k(rel, k),
            hits=hits_at_k(rel, k),
            ndcg=ndcg_at_k(rel, k),
            proportions=top_k_proportions(ranking, k).as_label_dict(),
        )
        for k in cutoffs
    ]

    # With no cutoffs requested the parity gap is taken over the whole ranking.
    k_top = rows[-1].k if rows else len(ranking)
    return EvalReport(
        method=method,
        per_k=tuple(rows),
        ap=average_precision(rel),
        delta_dp_selection=delta_dp_selection(ranking, k_top, pool_sizes),
        delta_dp_score=delta_dp_score(class_scores[INTRA], class_scores[INTER]),
        delta_max=delta_max(group_scores),
        target=target.as_label_dict(),
        bound=ndkl_upper_bound(measured.positive()),
    )


def run_single(
    config: RunConfig,
    seed: int,
    graph: SensitiveGraph | None = None,
    *,
    embeddings: Mapping | None = None,
) -> SeedRunResult:
    """One fully deterministic pipeline pass for the given seed.

    ``graph`` and ``embeddings`` are read from the config's files when
    not given. The result's ``seconds`` times the stages: load (only when
    ``graph`` is not given), split, subgraphs (train graph and target),
    negatives, scoring, merges and evaluation.
    """
    marks = [("", time.perf_counter())]

    def lap(stage: str) -> None:
        marks.append((stage, time.perf_counter()))

    if graph is None:
        graph = load_graph(config.edges_path, config.attrs_path)
        lap("load")
    split = stratified_split(graph, config.ratios, seed=seed)
    lap("split")
    train_graph = split.train_graph(graph)
    target = resolve_target(config.target, train_graph)
    measured = target.smoothed() if config.smoothing else target
    lap("subgraphs")
    candidates = build_candidates(
        config, graph, train_graph, split.slices["test"], seed, embeddings=embeddings, lap=lap
    )

    n = config.output_size or min(candidates.total(), max(config.k_list, default=candidates.total()))
    greedy_ranking, _ = kl_greedy_merge(candidates, measured, n, config.lam)
    naive_ranking = merge_by_score(candidates, n)
    lap("merges")

    pool = pool_statistics(candidates)
    reports = {
        name: _evaluate(name, ranking, pool, target, measured, config.k_list)
        for name, ranking in ((GREEDY, greedy_ranking), (NAIVE, naive_ranking))
    }
    lap("evaluation")
    return SeedRunResult(
        seed=seed,
        config_hash=config.config_hash(),
        target=target,
        reports=reports,
        rankings={GREEDY: greedy_ranking, NAIVE: naive_ranking},
        split=split,
        seconds={stage: end - start for (_, start), (stage, end) in zip(marks, marks[1:])},
    )


def emit_seed_report(result: SeedRunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write one seed's ranking files and JSON report atomically.

    The timestamp lives in a single provenance key so reproducibility
    checks can strip it and compare everything else byte for byte.
    """
    out = Path(out_dir)
    paths: dict[str, Path] = {}
    for name, ranking in sorted(result.rankings.items()):
        paths[f"ranking_{name}"] = out / f"ranking_{name}.tsv"
        write_ranking(paths[f"ranking_{name}"], ranking)
    payload = result.report_payload()
    payload["provenance"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    paths["report"] = out / "report.json"
    write_json(paths["report"], payload)
    return paths


@dataclass(frozen=True)
class PipelineSummary:
    config: RunConfig
    seeds: tuple[int, ...]
    results: tuple[SeedRunResult, ...]
    out_dir: Path


def _summary_rows(results: Sequence[SeedRunResult]) -> list[dict]:
    """Aggregate per-seed metrics into (method, metric, k, mean, std) rows."""
    values: dict[tuple[str, str, int | str], list[float]] = {}
    for result in results:
        for method, report in sorted(result.reports.items()):
            for row in report.per_k:
                for metric in ("ndkl", "precision", "hits", "ndcg"):
                    values.setdefault((method, metric, row.k), []).append(getattr(row, metric))
            for metric in ("ap", "delta_dp_selection", "delta_dp_score", "delta_max"):
                values.setdefault((method, metric, "global"), []).append(getattr(report, metric))
    def sort_key(item):
        (method, metric, k), _ = item
        return (method, metric, k == "global", k if isinstance(k, int) else 0)

    rows = []
    for (method, metric, k), series in sorted(values.items(), key=sort_key):
        rows.append(
            {
                "method": method,
                "metric": metric,
                "k": k,
                "mean": statistics.fmean(series),
                "std": statistics.pstdev(series) if len(series) > 1 else 0.0,
            }
        )
    return rows


def _proportion_rows(results: Sequence[SeedRunResult]) -> list[dict]:
    rows = []
    for result in results:
        for method, report in sorted(result.reports.items()):
            for per_k in report.per_k:
                for label, fraction in sorted(per_k.proportions.items()):
                    rows.append(
                        {
                            "seed": result.seed,
                            "method": method,
                            "k": per_k.k,
                            "group": label,
                            "fraction": fraction,
                            "target_fraction": report.target.get(label, 0.0),
                        }
                    )
    return rows


def run_pipeline(config: RunConfig) -> PipelineSummary:
    """Run ``config.repeats`` seeded passes and aggregate the reports.

    Seeds are config.seed, config.seed + 1, ... so a summary is exactly
    reproducible from the config and the files it names. Outputs per
    seed live under ``out_dir/seed_<s>/``; aggregate CSVs sit at the top
    level.
    """
    out_dir = Path(config.out_dir)
    seeds = tuple(config.seed + i for i in range(config.repeats))
    graph = load_graph(config.edges_path, config.attrs_path)
    embeddings = load_embeddings(config.embeddings_path) if config.embeddings_path else None
    results = []
    for seed in seeds:
        result = run_single(config, seed, graph, embeddings=embeddings)
        results.append(result)
        seed_dir = out_dir / f"seed_{seed}"
        emit_seed_report(result, seed_dir)
        write_split(seed_dir / "split", graph, result.split)

    write_json(out_dir / "config.json", config.to_dict())
    write_csv(
        out_dir / "summary.csv",
        _summary_rows(results),
        ["method", "metric", "k", "mean", "std"],
    )
    write_csv(
        out_dir / "proportions.csv",
        _proportion_rows(results),
        ["seed", "method", "k", "group", "fraction", "target_fraction"],
    )
    return PipelineSummary(config=config, seeds=seeds, results=tuple(results), out_dir=out_dir)

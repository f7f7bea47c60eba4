#!/usr/bin/env python3
"""Time each stage of one pipeline seed, layer by layer.

Each graph is the one ``scripts/run_synthetic_pipeline.py`` generates
(its ``synthetic_graph``): a binary attribute over a 60/40 node split
and edges in groups 0-0 / 0-1 / 1-1 at 60/20/20, average degree 40.
On each graph it runs the stages of ``pipeline.run_single`` one by
one (split, subgraphs, negatives, scoring, merges, evaluation) and
then the seed's files (writes), as ``run_pipeline`` does, and prints
one JSON object with the best wall time of each stage over the
repeats. "subgraphs" is the train graph, indexed from the split's train
slices; the test slices are the positives as they are. Decoupled
Adamic-Adar, k = (100, 1000), output size 1000. Each repeat is checked
against ``run_single`` for the same seed. The code timed is whichever
``fairlink`` is on the path.

Usage (from the repository root):
  PYTHONPATH=src python scripts/bench_pipeline.py
  PYTHONPATH=src python scripts/bench_pipeline.py --nodes 1000 --repeats 3
  PYTHONPATH=src python scripts/bench_pipeline.py --nodes 20000 --repeats 1
"""

import argparse
import json
import math
import platform
import tempfile
import time
from pathlib import Path

from fairlink.graphs import (
    SensitiveGraph,
    sample_negatives,
    stratified_split,
    write_split,
)
from fairlink.pipeline import (
    GREEDY,
    NAIVE,
    RunConfig,
    SeedRunResult,
    emit_seed_report,
    evaluate_ranking,
    resolve_target,
    run_single,
)
from fairlink.rerank import kl_greedy_merge, merge_by_score
from fairlink.scorers import score_candidates
from run_synthetic_pipeline import synthetic_graph

STAGES = ("split", "subgraphs", "negatives", "scoring", "merges", "evaluation", "writes")


def one_seed(config: RunConfig, graph: SensitiveGraph, seed: int, out: Path):
    """The stages of ``run_single`` plus the seed's files; returns the result and stage times."""
    times = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        times[stage] = now - clock
        clock = now

    split = stratified_split(graph, config.ratios, seed=seed)
    lap("split")
    train_graph = split.train_graph(graph)
    positives = split.slices["test"]
    lap("subgraphs")
    request = {g: round(len(e) * config.negatives_per_positive) for g, e in positives.items()}
    negatives = sample_negatives(graph, request, seed=seed)
    lap("negatives")
    candidates = score_candidates(
        train_graph,
        {g: [*edges, *negatives[g]] for g, edges in positives.items()},
        config.scorer,
        decoupled=config.decoupled,
        positives=frozenset().union(*positives.values()),
    )
    lap("scoring")
    target = resolve_target(config.target, train_graph)
    n = config.output_size
    greedy, _ = kl_greedy_merge(candidates, target, n, config.lam, smoothing=config.smoothing)
    naive = merge_by_score(candidates, n)
    lap("merges")
    rankings = {GREEDY: greedy, NAIVE: naive}
    reports = {
        name: evaluate_ranking(name, ranking, candidates, target, config.k_list)
        for name, ranking in rankings.items()
    }
    lap("evaluation")
    result = SeedRunResult(seed, config.config_hash(), target, reports, rankings, split)
    emit_seed_report(result, out / f"seed_{seed}")
    write_split(out / f"seed_{seed}" / "split", graph, split)
    lap("writes")
    return result, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[1_000, 2_000])
    parser.add_argument("--repeats", type=int, default=5, help="seeds per graph; the best is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for nodes in args.nodes:
            graph = synthetic_graph(nodes, args.seed)
            config = RunConfig(
                edges_path="-",
                attrs_path="-",
                out_dir=tmp,
                scorer="adamic_adar",
                decoupled=True,
                k_list=(100, 1000),
                output_size=1000,
            )
            best = dict.fromkeys(STAGES, math.inf)
            for seed in range(args.seed, args.seed + args.repeats):
                result, times = one_seed(config, graph, seed, out)
                reference = run_single(config, seed, graph)
                if result.rankings != reference.rankings or result.reports != reference.reports:
                    raise SystemExit(f"stages disagree with run_single at seed {seed}")
                for stage, seconds in times.items():
                    best[stage] = min(best[stage], seconds)
            rows.append(
                {
                    "nodes": nodes,
                    "edges": len(graph.edges),
                    "seconds": {stage: round(best[stage], 4) for stage in STAGES},
                    "total": round(sum(best.values()), 4),
                }
            )
    print(
        json.dumps(
            {"python": platform.python_version(), "repeats": args.repeats, "rows": rows},
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

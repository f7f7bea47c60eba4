#!/usr/bin/env python3
"""Generate a homophilic synthetic graph and run the full pipeline on it.

Builds a two-block attributed graph (20 edges per node, so ~40k at the
default 2,000 nodes; group proportions near 0.6/0.2/0.2), writes the
dataset files, then runs the seeded pipeline with decoupled Adamic-Adar
scoring and compares the exposure-aware greedy ranking against the
naive raw-score merge.

Usage:
  python scripts/run_synthetic_pipeline.py --out results/synthetic
  python scripts/run_synthetic_pipeline.py --seed 7 --repeats 3 --nodes 2000
  python scripts/run_synthetic_pipeline.py --nodes 20000 --repeats 1
"""

import argparse
import math
from pathlib import Path

from fairlink.errors import ConfigError
from fairlink.graphs import GroupId, SensitiveGraph
from fairlink.pipeline import GREEDY, NAIVE, RunConfig, run_pipeline
from fairlink.synth import biased_block_graph, write_graph_files

G00, G01, G11 = GroupId.of(0, 0), GroupId.of(0, 1), GroupId.of(1, 1)


def synthetic_graph(nodes: int, seed: int) -> SensitiveGraph:
    """A 60/40 node split with about 20 edges per node in groups 0-0 / 0-1 / 1-1 at 60/20/20.

    Raises ConfigError when a group's density for ``nodes`` is not in [0, 1].
    """
    majority = round(nodes * 0.6)
    minority = nodes - majority
    # Densities scale so group totals stay near 60/20/20 at any size.
    edge_budget = 20 * nodes
    densities = {
        group: share * edge_budget / pairs if pairs else math.inf
        for group, share, pairs in (
            (G00, 0.6, majority * (majority - 1) / 2),
            (G01, 0.2, majority * minority),
            (G11, 0.2, minority * (minority - 1) / 2),
        )
    }
    for group, density in densities.items():
        if not 0 <= density <= 1:
            raise ConfigError(
                f"{nodes} nodes are too few for about 20 edges per node: "
                f"group {group.label()} would need density {density:.3g}, outside [0, 1]"
            )
    return biased_block_graph({0: majority, 1: minority}, densities, seed=seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/synthetic", help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--k", type=int, nargs="+", default=[100, 1000])
    args = parser.parse_args()

    out_dir = Path(args.out)
    edges, attrs = out_dir / "edges.tsv", out_dir / "attrs.tsv"
    # The config is checked (--repeats, --k) before anything is generated or written.
    try:
        config = RunConfig(
            edges_path=str(edges),
            attrs_path=str(attrs),
            out_dir=str(out_dir / "runs"),
            seed=args.seed,
            repeats=args.repeats,
            scorer="adamic_adar",
            decoupled=True,
            k_list=tuple(args.k),
            output_size=max(args.k),
        )
    except ConfigError as exc:
        parser.error(str(exc))
    try:
        graph = synthetic_graph(args.nodes, args.seed)
    except ConfigError as exc:
        parser.error(f"--nodes: {exc}")
    write_graph_files(graph, edges, attrs)
    print(f"generated graph: {graph.node_count} nodes, {len(graph.edges)} edges")

    summary = run_pipeline(config)
    k_top = max(config.k_list)
    for result in summary.results:
        greedy = result.reports[GREEDY].at_k(k_top)
        naive = result.reports[NAIVE].at_k(k_top)
        print(
            f"seed {result.seed}: greedy ndkl@{k_top}={greedy.ndkl:.4f} "
            f"prec@{k_top}={greedy.precision:.4f} | "
            f"naive ndkl@{k_top}={naive.ndkl:.4f} prec@{k_top}={naive.precision:.4f}"
        )
    print(f"reports and rankings under {summary.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

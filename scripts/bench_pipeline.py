#!/usr/bin/env python3
"""Time each stage of one pipeline seed, layer by layer.

Each graph is the one ``scripts/run_synthetic_pipeline.py`` generates
(its ``synthetic_graph``): a binary attribute over a 60/40 node split
and edges in groups 0-0 / 0-1 / 1-1 at 60/20/20, average degree 40.
Each graph is written to an edge file and an attribute file once; each
repeat times ``load_graph`` on them (load), runs ``pipeline.run_single``
on the loaded graph and reads the stage times the result carries
(split, subgraphs, negatives, scoring, merges, evaluation), then times
the seed's files (writes) with the two calls ``run_pipeline`` makes.
It prints one JSON object with the best wall time of each stage over
the repeats. "subgraphs" is the train graph, indexed from the split's
train slices, and the target resolved on it. Each row also gives the
loaded graph's memory ("load_memory_mb"): the MB ``tracemalloc`` counts
as retained by the graph and at the peak of one extra, untimed load,
and "outputs_sha256", one SHA-256 over every seed's ``report_payload()``
(as sorted-key JSON) and split files, so two source trees can be shown
to give the same bytes. Decoupled Adamic-Adar, k = (100, 1000), output
size 1000. The code timed is whichever ``fairlink`` is on the path.

Usage (from the repository root):
  PYTHONPATH=src python scripts/bench_pipeline.py
  PYTHONPATH=src python scripts/bench_pipeline.py --nodes 1000 --repeats 3
  PYTHONPATH=src python scripts/bench_pipeline.py --nodes 20000 --repeats 1
"""

import argparse
import hashlib
import json
import math
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path

from fairlink.errors import ConfigError
from fairlink.graphs import load_graph, write_split
from fairlink.pipeline import RunConfig, emit_seed_report, run_single
from fairlink.synth import write_graph_files
from run_synthetic_pipeline import synthetic_graph

STAGES = ("load", "split", "subgraphs", "negatives", "scoring", "merges", "evaluation", "writes")


def load_memory(edges_path: Path, attrs_path: Path) -> dict[str, float]:
    """MB that ``tracemalloc`` counts for one ``load_graph``: retained by the graph, and at peak."""
    tracemalloc.start()
    try:
        graph = load_graph(edges_path, attrs_path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del graph
    return {"retained": round(retained / 2**20, 2), "peak": round(peak / 2**20, 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[1_000, 2_000])
    parser.add_argument("--repeats", type=int, default=5, help="seeds per graph; the best is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for nodes in args.nodes:
            try:
                graph = synthetic_graph(nodes, args.seed)
            except ConfigError as exc:
                parser.error(f"--nodes: {exc}")
            edges_path = Path(tmp) / f"edges_{nodes}.tsv"
            attrs_path = Path(tmp) / f"attrs_{nodes}.tsv"
            write_graph_files(graph, edges_path, attrs_path)
            edge_count = len(graph.edges)
            # Each load runs with no other graph alive, as in a fresh process.
            del graph
            memory = load_memory(edges_path, attrs_path)
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
            outputs = hashlib.sha256()
            for seed in range(args.seed, args.seed + args.repeats):
                start = time.perf_counter()
                graph = load_graph(edges_path, attrs_path)
                load = time.perf_counter() - start
                result = run_single(config, seed, graph)
                start = time.perf_counter()
                seed_dir = Path(tmp) / f"seed_{seed}"
                emit_seed_report(result, seed_dir)
                split_paths = write_split(seed_dir / "split", graph, result.split)
                times = {**result.seconds, "load": load, "writes": time.perf_counter() - start}
                outputs.update(json.dumps(result.report_payload(), sort_keys=True).encode())
                for path in split_paths.values():
                    outputs.update(path.read_bytes())
                del graph, result
                best = {stage: min(best[stage], times[stage]) for stage in STAGES}
            rows.append(
                {
                    "nodes": nodes,
                    "edges": edge_count,
                    "seconds": {stage: round(best[stage], 4) for stage in STAGES},
                    "total": round(sum(best.values()), 4),
                    "load_memory_mb": memory,
                    "outputs_sha256": outputs.hexdigest(),
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

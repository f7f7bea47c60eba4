"""Span and counter recording around fairlink's public functions.

The tracer rebinds each traced function in every fairlink module that
imported it (for example ``pipeline.stratified_split`` and
``graphs.stratified_split``), so calls made inside the program are seen
too; nothing under ``src/`` changes. Spans (name, start, end, parent,
operation) stay in memory and are written once at the end of a run. Hot
per-element functions are counted, not spanned.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from fairlink import fairness, graphs, oracle, pipeline, rank_metrics, rerank, scorers

MODULES = (graphs, scorers, rerank, fairness, rank_metrics, pipeline, oracle)
SETUP_OP = -1
MERGES = ("rerank.kl_greedy_merge", "rerank.kl_greedy_merge_weighted")


def _paths_bytes(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result.values())}


def _ndkl_steps(args, kwargs, result):
    k_max = args[2] if len(args) > 2 else kwargs.get("k_max")
    return {"prefix_steps": len(args[0]) if k_max is None else k_max}


# (owner, attribute, span name, counts taken from the call's arguments and result)
SPANS = (
    (graphs, "load_graph", "graphs.load_graph", None),
    (graphs, "stratified_split", "graphs.stratified_split", None),
    (graphs, "sample_negatives", "graphs.sample_negatives", None),
    (graphs, "empirical_distribution", "graphs.empirical_distribution", None),
    (graphs.SensitiveGraph, "subgraph_with_edges", "graphs.subgraph_with_edges", None),
    (graphs, "write_split", "graphs.write_split", _paths_bytes),
    (
        scorers,
        "score_candidates",
        "scorers.score_candidates",
        lambda a, k, r: {"candidates": r.total()},
    ),
    (scorers, "ingest_scores", "scorers.ingest_scores", None),
    (rerank, "kl_greedy_merge", MERGES[0], lambda a, k, r: {"positions": len(r[0])}),
    (rerank, "kl_greedy_merge_weighted", MERGES[1], lambda a, k, r: {"positions": len(r[0])}),
    (rerank, "merge_by_score", "rerank.merge_by_score", None),
    (rerank, "write_ranking", "rerank.write_ranking", None),
    (rerank, "read_ranking", "rerank.read_ranking", None),
    (rerank, "gap_experiment", "rerank.gap_experiment", None),
    (fairness, "ndkl", "fairness.ndkl", _ndkl_steps),
    (rank_metrics, "precision_at_k", "rank_metrics", None),
    (rank_metrics, "hits_at_k", "rank_metrics", None),
    (rank_metrics, "ndcg_at_k", "rank_metrics", None),
    (rank_metrics, "average_precision", "rank_metrics", None),
    (pipeline, "run_single", "pipeline.run_single", None),
    (pipeline, "build_candidates", "pipeline.build_candidates", None),
    (pipeline, "emit_seed_report", "pipeline.emit_seed_report", _paths_bytes),
    (pipeline, "evaluate_ranking", "pipeline.evaluate_ranking", None),
    (
        oracle,
        "enumerate_ndkl_extremes",
        "oracle.enumerate_ndkl_extremes",
        lambda a, k, r: {"orderings": r.permutations_examined},
    ),
    (
        oracle,
        "verify_trace",
        "oracle.verify_trace",
        lambda a, k, r: {"steps": r.steps_checked},
    ),
)

# (owner, attribute, counter name); kl_divergence counts only inside merges.
COUNTERS = (
    (graphs, "edge_group", "graphs.edge_group"),
    (graphs.SensitiveGraph, "edges_by_group", "graphs.edges_by_group"),
    (fairness, "kl_divergence", "fairness.kl_divergence"),
)


class Tracer:
    """Records spans and counts while installed; ``op`` tags what it records."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._open_merges = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        if name in MERGES:
            self._open_merges += 1
        return index

    def _end(self, index: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        if name in MERGES:
            self._open_merges -= 1
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent, self.op)

    def run_op(self, op: int, fn):
        """Run ``fn()`` as operation ``op`` under a top-level ``bench.op`` span."""
        self.op = op
        index = self._begin("bench.op")
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._end(index, "bench.op", start, time.perf_counter())
            self.op = SETUP_OP

    def _spanned(self, name, fn, extract):
        def traced(*args, **kwargs):
            index = self._begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index, name, start, time.perf_counter())
            if extract is not None:
                for key, value in extract(args, kwargs, result).items():
                    self.counts[(self.op, f"{name}.{key}")] += value
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts
        if name == "fairness.kl_divergence":

            def counted(*args, **kwargs):
                if self._open_merges:
                    counts[(self.op, name)] += 1
                return fn(*args, **kwargs)

        else:

            def counted(*args, **kwargs):
                counts[(self.op, name)] += 1
                return fn(*args, **kwargs)

        return counted

    # --- installing ----------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        owners = [owner] if isinstance(owner, type) else MODULES
        for module in owners:
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, extract in SPANS:
            self._rebind(owner, attr, self._spanned(name, getattr(owner, attr), extract))
        for owner, attr, name in COUNTERS:
            self._rebind(owner, attr, self._counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def self_seconds(self) -> dict[tuple[int, str], float]:
        """Self time per (operation, span name): duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for (name, start, end, parent, op), children in zip(self.spans, child_time):
            totals[(op, name)] += end - start - children
        return totals

    def layer_metrics(self, ops: int, timed_op: int, graph_edges: int) -> dict[str, float]:
        """Per-layer metrics of a traced run over operations 0..ops-1.

        Counts are means per operation. Timings are the self times of
        operation ``timed_op`` alone (the caller passes the fastest one), so
        that a contention burst during one operation does not skew them.
        """
        self_s = self.self_seconds()
        counts: dict[str, float] = defaultdict(float)
        for (op, name), value in self.counts.items():
            if op >= 0:
                counts[name] += value / ops
        op_counts = defaultdict(int, {n: v for (op, n), v in self.counts.items() if op == timed_op})

        def timed(name: str) -> float:
            return self_s.get((timed_op, name), 0.0)

        metrics = {"graphs.load_graph.self_s": self_s.get((SETUP_OP, "graphs.load_graph"), 0.0)}
        for name in sorted({span[2] for span in SPANS} | {"bench.op"}):
            if name != "graphs.load_graph":
                metrics[f"{name}.self_s"] = timed(name)
        positions = counts[f"{MERGES[0]}.positions"] + counts[f"{MERGES[1]}.positions"]
        op_positions = op_counts[f"{MERGES[0]}.positions"] + op_counts[f"{MERGES[1]}.positions"]
        enumerate_s = timed("oracle.enumerate_ndkl_extremes")
        metrics.update(
            {
                "graphs.edges_by_group.calls": counts["graphs.edges_by_group"],
                "graphs.edge_group.per_edge": (
                    counts["graphs.edge_group"] / graph_edges if graph_edges else 0.0
                ),
                "graphs.write_split.bytes": counts["graphs.write_split.bytes"],
                "scorers.score_candidates.candidates": counts["scorers.score_candidates.candidates"],
                "rerank.merge.positions": positions,
                "rerank.merge.us_per_position": (
                    1e6 * (timed(MERGES[0]) + timed(MERGES[1])) / op_positions
                    if op_positions
                    else 0.0
                ),
                "fairness.kl_divergence.per_position": (
                    counts["fairness.kl_divergence"] / positions if positions else 0.0
                ),
                "fairness.ndkl.prefix_steps": counts["fairness.ndkl.prefix_steps"],
                "pipeline.emit_seed_report.bytes": counts["pipeline.emit_seed_report.bytes"],
                "oracle.orderings": counts["oracle.enumerate_ndkl_extremes.orderings"],
                "oracle.orderings_per_s": (
                    op_counts["oracle.enumerate_ndkl_extremes.orderings"] / enumerate_s
                    if enumerate_s
                    else 0.0
                ),
                "oracle.verify_trace.steps": counts["oracle.verify_trace.steps"],
            }
        )
        return metrics

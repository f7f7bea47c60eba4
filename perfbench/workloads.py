"""The three benchmark operations and the checks on their outputs.

Every call into fairlink goes through a module attribute (``pipeline.run_single``,
``rerank.kl_greedy_merge``, ...) so that the tracer's rebinding sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from fairlink import fairness, graphs, oracle, pipeline, rerank, scorers

from spec import RERANK_LAMBDA

TOLERANCE = 1e-12


@dataclass
class Outcome:
    """What one operation produced: its work units, failed checks and output digest."""

    work: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    greedy_above_min: bool = False
    worst_shortfall: bool = False


def _digest(parts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(parts):
        h.update(name.encode() + b"\0" + parts[name] + b"\0")
    return h.hexdigest()


def _report_bytes(path: Path) -> bytes:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.get("provenance", {}).pop("timestamp", None)
    return json.dumps(payload, indent=2, sort_keys=True).encode()


def _group_order_problems(name: str, ranking, lists=None) -> list[str]:
    """Within each group, entries keep the group list's score order (its prefix, if known)."""
    by_group: dict = {}
    for cand in ranking:
        by_group.setdefault(cand.group, []).append(cand)
    problems = []
    for group, entries in by_group.items():
        if lists is not None:
            if entries != lists[group][: len(entries)]:
                problems.append(f"{name}: group {group.label()} is not a prefix of its list")
        elif any(
            (-a.score, a.pair) > (-b.score, b.pair) for a, b in zip(entries, entries[1:])
        ):
            problems.append(f"{name}: group {group.label()} out of score order")
    return problems


def _report_problems(name: str, report) -> list[str]:
    return [
        f"{name}: ndkl@{row.k}={row.ndkl} above bound {report.bound}"
        for row in report.per_k
        if not 0.0 <= row.ndkl <= report.bound + 1e-9
    ]


class PipelineBinary:
    """One seed of ``fairlink pipeline``: run_single, then the seed's files."""

    def __init__(self, inputs: Path, out: Path, seed: int, size: dict):
        self.graph = graphs.load_graph(inputs / "edges.tsv", inputs / "attrs.tsv")
        self.out = out
        self.seed = seed
        self.config = pipeline.RunConfig(
            edges_path=str(inputs / "edges.tsv"),
            attrs_path=str(inputs / "attrs.tsv"),
            out_dir=str(out),
            seed=seed,
            repeats=1,
            scorer="adamic_adar",
            decoupled=True,
            k_list=size["pipeline_k"],
            output_size=size["pipeline_output"],
        )
        self.graph_edges = len(self.graph.edges)

    def run(self, op: int):
        seed = self.seed + op
        result = pipeline.run_single(self.config, seed, self.graph)
        seed_dir = self.out / f"seed_{seed}"
        report_paths = pipeline.emit_seed_report(result, seed_dir)
        split_paths = graphs.write_split(seed_dir / "split", self.graph, result.split)
        return result, report_paths, split_paths

    def check(self, produced) -> Outcome:
        result, report_paths, split_paths = produced
        outcome = Outcome(work=self.graph_edges)
        n = self.config.output_size
        for name, ranking in result.rankings.items():
            if len(ranking) != n:
                outcome.problems.append(f"{name}: {len(ranking)} entries, expected {n}")
            outcome.problems += _group_order_problems(name, ranking)
        for name, report in result.reports.items():
            outcome.problems += _report_problems(name, report)
        split = result.split
        sizes = len(split.train) + len(split.valid) + len(split.test)
        if sizes != self.graph_edges or (split.train | split.valid | split.test) != self.graph.edges:
            outcome.problems.append("split does not partition the graph's edges")
        parts = {
            key: path.read_bytes() for key, path in {**report_paths, **split_paths}.items()
        }
        parts["report"] = _report_bytes(report_paths["report"])
        outcome.digest = _digest(parts)
        return outcome


class RerankMultigroup:
    """One ``fairlink rerank`` plus ``fairlink eval`` request over 21 groups."""

    def __init__(self, inputs: Path, out: Path, seed: int, size: dict):
        self.graph = graphs.load_graph(inputs / "edges.tsv", inputs / "attrs.tsv")
        self.inputs = inputs
        self.out = out
        self.n = size["rerank_n"]
        self.k_list = size["rerank_k"]
        self.graph_edges = len(self.graph.edges)

    def run(self, op: int):
        test = graphs.read_edge_list(self.inputs / "test.tsv")
        candidates = scorers.ingest_scores(self.inputs / "scores.tsv", self.graph, test)
        target = graphs.GroupDistribution.from_label_dict(
            json.loads((self.inputs / "target.json").read_text(encoding="utf-8"))
        )
        greedy, trace = rerank.kl_greedy_merge(candidates, target, self.n)
        weighted, _ = rerank.kl_greedy_merge_weighted(candidates, target, self.n, RERANK_LAMBDA)
        ranking_path = self.out / "ranking.tsv"
        rerank.write_ranking(ranking_path, greedy)
        read_back = rerank.read_ranking(ranking_path)
        naive = rerank.merge_by_score(candidates, self.n)
        reports = {
            name: pipeline.evaluate_ranking(name, ranking, candidates, target, self.k_list)
            for name, ranking in (("greedy", read_back), ("weighted", weighted), ("naive", naive))
        }
        payload = {name: report.to_dict() for name, report in sorted(reports.items())}
        report_path = self.out / "eval.json"
        report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return SimpleNamespace(
            candidates=candidates,
            target=target,
            trace=trace,
            greedy=greedy,
            read_back=read_back,
            weighted=weighted,
            reports=reports,
            ranking_path=ranking_path,
            report_path=report_path,
        )

    def check(self, p: SimpleNamespace) -> Outcome:
        outcome = Outcome(work=len(p.greedy) + len(p.weighted))
        for name, ranking in (("greedy", p.greedy), ("weighted", p.weighted)):
            if len(ranking) != self.n:
                outcome.problems.append(f"{name}: {len(ranking)} entries, expected {self.n}")
            outcome.problems += _group_order_problems(name, ranking, p.candidates.lists)
        if p.read_back.entries != p.greedy.entries:
            outcome.problems.append("ranking read back differs from the ranking written")
        for name, report in p.reports.items():
            outcome.problems += _report_problems(name, report)
        if not oracle.verify_trace(p.trace, p.target).ok:
            outcome.problems.append("greedy trace failed verification")
        outcome.digest = _digest(
            {"ranking": p.ranking_path.read_bytes(), "eval": p.report_path.read_bytes()}
        )
        return outcome


class Certify:
    """One oracle certification of the merge on a 3-group multiset, plus a gap curve."""

    graph_edges = 0

    def __init__(self, inputs: Path, out: Path, seed: int, size: dict):
        spec = json.loads((inputs / "targets.json").read_text(encoding="utf-8"))
        self.counts = {
            graphs.GroupId.parse(label): count
            for label, count in zip(("0-0", "0-1", "1-1"), spec["counts"])
        }
        self.oracle_targets = [
            graphs.GroupDistribution.from_label_dict(t) for t in spec["oracle_targets"]
        ]
        self.gap_targets = [
            graphs.GroupDistribution.from_label_dict(t["target"]) for t in spec["gap_targets"]
        ]
        self.seed = seed
        self.k_grid = size["certify_k"]

    def run(self, op: int):
        target = self.oracle_targets[op % len(self.oracle_targets)]
        extremes = oracle.enumerate_ndkl_extremes(oracle.MultisetSpec(self.counts), target)
        candidates = rerank.synthetic_candidate_set(self.counts)
        greedy, trace = rerank.kl_greedy_merge(candidates, target, sum(self.counts.values()))
        verification = oracle.verify_trace(trace, target)
        worst = rerank.worst_case_ranking(self.counts, target)
        gap_target = self.gap_targets[(self.seed + op) % len(self.gap_targets)]
        pools = {g: max(1, round(2 * max(self.k_grid) * p)) for g, p in gap_target.items()}
        curve = rerank.gap_experiment(gap_target, pools, self.k_grid)
        return SimpleNamespace(
            target=target,
            extremes=extremes,
            greedy=greedy,
            verification=verification,
            worst=worst,
            curve=curve,
        )

    def check(self, p: SimpleNamespace) -> Outcome:
        target, extremes, greedy, worst = p.target, p.extremes, p.greedy, p.worst
        outcome = Outcome(work=extremes.permutations_examined)
        expected = math.factorial(sum(self.counts.values()))
        for count in self.counts.values():
            expected //= math.factorial(count)
        if extremes.permutations_examined != expected:
            outcome.problems.append(
                f"enumerated {extremes.permutations_examined} orderings, expected {expected}"
            )
        if not p.verification.ok:
            outcome.problems.append("greedy trace failed verification")
        greedy_value = fairness.ndkl(greedy, target)
        worst_value = fairness.ndkl(worst, target)
        low, high = extremes.min_value, extremes.max_value
        if not low - TOLERANCE <= greedy_value <= high + TOLERANCE:
            outcome.problems.append(f"greedy {greedy_value} outside exact [{low}, {high}]")
        if worst_value > high + TOLERANCE:
            outcome.problems.append(f"worst case {worst_value} above exact max {high}")
        if high > fairness.ndkl_upper_bound(target) + TOLERANCE:
            outcome.problems.append(f"exact max {high} above the ndkl bound")
        outcome.greedy_above_min = greedy_value > low + TOLERANCE
        outcome.worst_shortfall = worst_value < high - TOLERANCE
        outcome.digest = _digest(
            {
                "extremes": json.dumps(extremes.as_dict(), sort_keys=True).encode(),
                "greedy": repr([g.label() for g in greedy.group_sequence()]).encode(),
                "worst": repr([g.label() for g in worst.group_sequence()]).encode(),
                "gap": json.dumps(p.curve.rows(), sort_keys=True).encode(),
            }
        )
        return outcome


WORKLOADS = {
    "pipeline_binary": PipelineBinary,
    "rerank_multigroup": RerankMultigroup,
    "certify": Certify,
}

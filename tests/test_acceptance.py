"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`
or on failure). Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fairlink.cli import main as cli_main
from fairlink.fairness import (
    INTER,
    INTRA,
    Ranking,
    delta_dp_score,
    delta_dp_selection,
    kl_divergence,
    ndkl,
    ndkl_upper_bound,
)
from fairlink.graphs import GroupDistribution, GroupId
from fairlink.oracle import MultisetSpec, enumerate_ndkl_extremes, verify_trace
from fairlink.pipeline import GREEDY, NAIVE, RunConfig, run_pipeline
from fairlink.rank_metrics import (
    RelevanceVector,
    average_precision,
    ndcg_at_k,
    precision_at_k,
)
from fairlink.rerank import (
    gap_point,
    kl_greedy_merge,
    optimal_dp_proportions,
    synthetic_candidate_set,
    worst_case_ranking,
)
from fairlink.scorers import GroupedCandidateSet, ScoredCandidate
from fairlink.synth import biased_block_graph, write_graph_files

from conftest import G00, G01, G11
from reference import ranking_from_groups


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_divergence_bound_suite():
    """1,000 random (ranking, target) instances stay within the bound."""
    with criterion(1, "0 <= ndkl <= max ln(1/pi) on 1,000 random instances in < 10 s"):
        rng = np.random.default_rng(2026)
        groups = [GroupId.of(a, b) for a, b in itertools.combinations_with_replacement(range(3), 2)]
        started = time.perf_counter()
        for _ in range(1000):
            g = int(rng.integers(2, 6))
            floor = 0.05
            weights = rng.dirichlet(np.ones(g))
            masses = floor + (1.0 - g * floor) * weights
            masses = masses / masses.sum()
            target = GroupDistribution(dict(zip(groups[:g], masses.tolist())))
            assert min(target.probabilities.values()) >= floor - 1e-9
            length = int(rng.integers(1, 501))
            labels = [groups[i] for i in rng.integers(0, g, size=length)]
            value = ndkl(ranking_from_groups(labels), target)
            assert 0.0 <= value <= ndkl_upper_bound(target) + 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"bound suite took {elapsed:.1f}s"


ORACLE_TARGETS = (
    (0.5, 0.3, 0.2),
    (1 / 3, 1 / 3, 1 / 3),
    (0.8, 0.1, 0.1),
)


def test_criterion_2_oracle_certification():
    """Greedy and worst-case certified against full enumeration, n <= 10."""
    with criterion(2, "greedy local optimality + greedy <= worst <= exact max <= bound"):
        groups = (G00, G01, G11)
        gaps = []
        multisets = [
            dict(zip(groups, counts))
            for total in range(1, 11)
            for counts in itertools.product(range(total + 1), repeat=3)
            if sum(counts) == total
        ]
        assert len(multisets) == sum((n + 1) * (n + 2) // 2 for n in range(1, 11))
        for masses in ORACLE_TARGETS:
            target = GroupDistribution(dict(zip(groups, masses)))
            bound = ndkl_upper_bound(target)
            for counts in multisets:
                positive = {g: c for g, c in counts.items() if c > 0}
                n = sum(positive.values())

                ranking, trace = kl_greedy_merge(synthetic_candidate_set(positive), target, n)
                report = verify_trace(trace, target)
                assert report.ok, f"greedy rule violated at {report.first_violation}"

                greedy_value = ndkl(ranking, target)
                worst_value = ndkl(worst_case_ranking(positive, target), target)
                exact = enumerate_ndkl_extremes(MultisetSpec(positive), target)
                assert greedy_value <= worst_value + 1e-9
                assert worst_value <= exact.max_value + 1e-9
                assert exact.max_value <= bound + 1e-9

                # Two independent code paths must agree on the extremes.
                assert ndkl(ranking_from_groups(exact.argmin), target) == pytest.approx(
                    exact.min_value, abs=1e-12
                )
                assert ndkl(ranking_from_groups(exact.argmax), target) == pytest.approx(
                    exact.max_value, abs=1e-12
                )
                gaps.append((greedy_value - exact.min_value, positive, masses))
        worst_gap, at_counts, at_target = max(gaps, key=lambda g: g[0])
        mean_gap = sum(g[0] for g in gaps) / len(gaps)
        print(
            f"  greedy-vs-exact-minimum gap: mean={mean_gap:.2e}, "
            f"max={worst_gap:.2e} at counts={ {g.label(): c for g, c in at_counts.items()} } "
            f"target={tuple(round(m, 3) for m in at_target)}"
        )


LARGE_MULTISETS = (
    (40, 30, 20),
    (30, 15, 5),
    (25, 20, 10),
    (20, 15, 10, 8),
    (30, 10, 6, 4),
    (24, 12, 8, 6),
)


def test_criterion_2_certified_at_fifty_items_and_more():
    """Greedy and worst-case certified against the exact extremes, n >= 50."""
    with criterion(2, "n >= 50: greedy == exact min, worst <= exact max"):
        rng = np.random.default_rng(2027)
        groups = (G00, G01, G11, GroupId.of(0, 2))
        shortfalls = 0
        for shape in LARGE_MULTISETS:
            counts = dict(zip(groups, shape))
            n = sum(shape)
            weights = rng.random(len(shape)) + 0.05
            target = GroupDistribution(dict(zip(groups, (weights / weights.sum()).tolist())))
            exact = enumerate_ndkl_extremes(MultisetSpec(counts), target, guard=n)

            ranking, _ = kl_greedy_merge(synthetic_candidate_set(counts), target, n)
            assert abs(ndkl(ranking, target) - exact.min_value) <= 1e-12, shape
            worst_value = ndkl(worst_case_ranking(counts, target), target)
            assert worst_value <= exact.max_value + 1e-12, shape
            shortfalls += worst_value < exact.max_value - 1e-12
        print(f"  block ordering below the exact maximum on {shortfalls} of {len(LARGE_MULTISETS)}")


def test_criterion_3_parity_solver_reference_instance():
    """k=10 over pools (3 intra, 11 inter) selects x=2 at gap 0.0606."""
    with criterion(3, "optimal_dp_proportions(10, 3, 11) == (2, 0.0606 +- 0.001)"):
        x, gap = optimal_dp_proportions(10, pool_intra=3, pool_inter=11)
        assert x == 2
        assert gap == pytest.approx(0.0606, abs=0.001)


# Group shares (inter, majority-intra, minority-intra) measured on six
# public attributed graphs; used as gap-experiment targets.
REFERENCE_PROPORTIONS = {
    "facebook": {G01: 0.42, G00: 0.44, G11: 0.14},
    "german": {G01: 0.20, G00: 0.61, G11: 0.19},
    "nba": {G01: 0.27, G00: 0.63, G11: 0.10},
    "pokec_n": {G01: 0.05, G00: 0.66, G11: 0.29},
    "pokec_z": {G01: 0.05, G00: 0.58, G11: 0.37},
    "credit": {G01: 0.12, G00: 0.86, G11: 0.02},
}

GAP_GRID = (10, 50, 100, 500, 1000)


def test_criterion_4_gap_experiment_qualitative():
    """Worst beats greedy at every cutoff; parity and precision identical."""
    with criterion(4, "worst ndkl > greedy ndkl with equal delta_dp and prec=1 on 6 targets"):
        for name, masses in REFERENCE_PROPORTIONS.items():
            target = GroupDistribution(masses)
            pools = {g: max(1, round(2 * max(GAP_GRID) * p)) for g, p in target.items()}
            class_pools = {
                INTRA: sum(c for g, c in pools.items() if g.is_intra),
                INTER: sum(c for g, c in pools.items() if not g.is_intra),
            }
            for k in GAP_GRID:
                point = gap_point(target, pools, k)
                greedy_value = ndkl(point.greedy, target)
                worst_value = ndkl(point.worst, target)
                assert worst_value > greedy_value, f"{name} k={k}"

                greedy_gap = delta_dp_selection(point.greedy, k, class_pools)
                worst_gap = delta_dp_selection(point.worst, k, class_pools)
                assert greedy_gap == worst_gap == point.delta_dp

                for ranking in (point.greedy, point.worst):
                    rel = RelevanceVector.from_ranking(ranking)
                    assert precision_at_k(rel, k) == 1.0


def test_criterion_5_end_to_end_greedy_vs_naive(tmp_path):
    """Synthetic homophilic graph: greedy is far fairer at matched precision."""
    with criterion(5, "3-seed pipeline: ndkl@1000 <= 0.05, <= 0.5x naive, prec >= 0.9x naive, < 60 s"):
        started = time.perf_counter()
        graph = biased_block_graph(
            {0: 1200, 1: 800},
            # Densities chosen for ~40k edges at proportions ~(0.6, 0.2, 0.2).
            {G00: 24000 / 719400, G01: 8000 / 960000, G11: 8000 / 319600},
            seed=7,
        )
        edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
        write_graph_files(graph, edges, attrs)
        config = RunConfig(
            edges_path=str(edges),
            attrs_path=str(attrs),
            out_dir=str(tmp_path / "out"),
            seed=7,
            repeats=3,
            scorer="adamic_adar",
            decoupled=True,
            k_list=(100, 1000),
            output_size=1000,
        )
        results = run_pipeline(config)
        for result in results:
            greedy = result.reports[GREEDY].at_k(1000)
            naive = result.reports[NAIVE].at_k(1000)
            assert greedy.ndkl <= 0.05, f"seed {result.seed}: ndkl {greedy.ndkl}"
            assert greedy.ndkl <= 0.5 * naive.ndkl, (
                f"seed {result.seed}: {greedy.ndkl} vs naive {naive.ndkl}"
            )
            assert greedy.precision >= 0.9 * naive.precision, (
                f"seed {result.seed}: prec {greedy.precision} vs naive {naive.precision}"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"end-to-end suite took {elapsed:.1f}s"
        print(
            "  seeds "
            + ", ".join(
                f"{r.seed}: greedy ndkl={r.reports[GREEDY].at_k(1000).ndkl:.4f} "
                f"naive ndkl={r.reports[NAIVE].at_k(1000).ndkl:.4f}"
                for r in results
            )
        )


def test_criterion_6_metric_fixtures():
    """Hand-evaluated fixture values for the four core metrics."""
    with criterion(6, "ndcg/ap/ndkl/kl fixtures at pinned tolerances"):
        rel = RelevanceVector((True, False, True), 2)
        assert ndcg_at_k(rel, 3) == pytest.approx(0.9198, abs=1e-4)
        assert average_precision(rel) == pytest.approx(0.8333, abs=1e-4)

        target = GroupDistribution({G00: 0.5, G01: 0.5})
        assert ndkl(ranking_from_groups([G00, G01]), target) == pytest.approx(0.4250, abs=1e-4)

        q = GroupDistribution({G00: 0.5, G01: 0.5, G11: 0.0})
        p = GroupDistribution({G00: 0.25, G01: 0.25, G11: 0.5})
        assert kl_divergence(q, p) == pytest.approx(math.log(2), abs=1e-12)


def test_criterion_7_exposure_orders_three_rankings():
    """Skewed > block-ordered > greedy in divergence; parity blind to all."""
    with criterion(7, "ndkl orders the three constructed rankings; delta_dp_score identical"):
        target = GroupDistribution({G00: 0.5, G01: 0.2, G11: 0.3})

        # One shared scored pool; every candidate keeps its score in every
        # ranking, so any score-based parity gap is ranking-independent.
        pool_lists = {}
        base = 0
        for group, size in ((G00, 8), (G01, 4), (G11, 5)):
            pool_lists[group] = [
                ScoredCandidate(base + 2 * i, base + 2 * i + 1, 0.9 - 0.05 * i, group, True)
                for i in range(size)
            ]
            base += 2 * size
        pool = GroupedCandidateSet(pool_lists)

        def take(group, count, skip=0):
            return pool.lists[group][skip : skip + count]

        skewed = Ranking(tuple(take(G00, 8) + take(G01, 1) + take(G11, 1)))
        block = Ranking(tuple(take(G00, 5) + take(G11, 3) + take(G01, 2)))
        greedy, _ = kl_greedy_merge(pool, target, 10)

        from collections import Counter

        assert Counter(block.group_sequence()) == Counter(greedy.group_sequence())

        value_a = ndkl(skewed, target)
        value_b = ndkl(block, target)
        value_c = ndkl(greedy, target)
        assert value_c < value_b < value_a

        intra_scores = [c.score for g in (G00, G11) for c in pool.lists[g]]
        inter_scores = [c.score for c in pool.lists[G01]]
        gaps = {
            name: delta_dp_score(intra_scores, inter_scores)
            for name in ("skewed", "block", "greedy")
        }
        assert len(set(gaps.values())) == 1


def test_criterion_8_pipeline_determinism(tmp_path):
    """Same seed, same bytes (timestamps excluded)."""
    with criterion(8, "repeated pipeline runs are byte-identical up to timestamps"):
        graph = biased_block_graph({0: 90, 1: 60}, {G00: 0.10, G01: 0.02, G11: 0.09}, seed=5)
        edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
        write_graph_files(graph, edges, attrs)
        argv_for = lambda out: [
            "pipeline",
            "--edges", str(edges),
            "--attrs", str(attrs),
            "--seed", "3",
            "--repeats", "2",
            "--k", "20", "60",
            "--output-size", "120",
            "--out", str(out),
        ]
        assert cli_main(argv_for(tmp_path / "a")) == 0
        assert cli_main(argv_for(tmp_path / "b")) == 0

        for seed in (3, 4):
            for name in (f"ranking_{GREEDY}.tsv", f"ranking_{NAIVE}.tsv"):
                bytes_a = (tmp_path / "a" / f"seed_{seed}" / name).read_bytes()
                bytes_b = (tmp_path / "b" / f"seed_{seed}" / name).read_bytes()
                assert bytes_a == bytes_b, f"{name} differs for seed {seed}"
            report_a = json.loads((tmp_path / "a" / f"seed_{seed}" / "report.json").read_text())
            report_b = json.loads((tmp_path / "b" / f"seed_{seed}" / "report.json").read_text())
            report_a.get("provenance", {}).pop("timestamp", None)
            report_b.get("provenance", {}).pop("timestamp", None)
            assert report_a == report_b
        for name in ("summary.csv", "proportions.csv", "config.json"):
            content_a = (tmp_path / "a" / name).read_text()
            content_b = (tmp_path / "b" / name).read_text()
            # config.json echoes out_dir, which legitimately differs.
            if name != "config.json":
                assert content_a == content_b

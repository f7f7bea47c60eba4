import math
import random
from collections import Counter

import pytest

from fairlink.errors import (
    ConfigError,
    DataError,
    DuplicatePairError,
    InfeasibleKError,
    MalformedLineError,
    SelfLoopError,
    ZeroTargetMassError,
)
from fairlink.fairness import INTER, INTRA, delta_dp_selection, kl_divergence, ndkl
from fairlink.graphs import GroupDistribution, GroupId, canonical_edge
from fairlink.oracle import MultisetSpec, enumerate_ndkl_extremes, verify_trace
from fairlink.rank_metrics import RelevanceVector, precision_at_k
from fairlink.rerank import (
    GapCurve,
    default_gap_pools,
    gap_experiment,
    gap_point,
    kl_greedy_merge,
    kl_greedy_merge_weighted,
    merge_by_score,
    optimal_dp_proportions,
    read_ranking,
    synthetic_candidate_set,
    worst_case_ranking,
    write_ranking,
)
from fairlink.scorers import GroupedCandidateSet, ScoredCandidate

from conftest import G00, G01, G11, exactly
from reference import ranking_from_groups, reference_merge


def make_lists(spec: dict[GroupId, list[float]]) -> GroupedCandidateSet:
    """Candidate lists with explicit scores, synthetic disjoint pairs."""
    lists = {}
    base = 0
    for group in sorted(spec):
        lists[group] = [
            ScoredCandidate(base + 2 * i, base + 2 * i + 1, s, group, True)
            for i, s in enumerate(spec[group])
        ]
        base += 2 * len(spec[group]) + 10
    return GroupedCandidateSet(lists)


class TestGreedyMerge:
    def test_single_group_passthrough(self):
        cands = make_lists({G00: [0.9, 0.5, 0.1]})
        target = GroupDistribution({G00: 1.0})
        ranking, trace = kl_greedy_merge(cands, target, 3)
        assert [c.score for c in ranking] == [0.9, 0.5, 0.1]
        assert ndkl(ranking, target) == 0.0
        assert not trace.truncated

    def test_two_group_alternation_matches_brute_force(self, uniform_pair_target):
        cands = synthetic_candidate_set({G00: 2, G01: 2})
        ranking, _ = kl_greedy_merge(cands, uniform_pair_target, 4)
        labels = ranking.group_sequence()
        assert labels in ((G00, G01, G00, G01), (G01, G00, G01, G00))
        exact = enumerate_ndkl_extremes(MultisetSpec({G00: 2, G01: 2}), uniform_pair_target)
        assert exact.permutations_examined == 6
        assert ndkl(ranking, uniform_pair_target) == pytest.approx(exact.min_value, abs=1e-12)

    def test_three_group_counts_and_brute_force_minimum(self, three_group_target):
        cands = synthetic_candidate_set({G00: 10, G01: 10, G11: 10})
        ranking, trace = kl_greedy_merge(cands, three_group_target, 10)
        counts = Counter(ranking.group_sequence())
        assert counts == {G00: 5, G01: 3, G11: 2}
        exact = enumerate_ndkl_extremes(MultisetSpec(dict(counts)), three_group_target)
        assert ndkl(ranking, three_group_target) == pytest.approx(exact.min_value, abs=1e-12)

    def test_per_step_local_optimality(self, three_group_target):
        cands = synthetic_candidate_set({G00: 6, G01: 4, G11: 4})
        _, trace = kl_greedy_merge(cands, three_group_target, 12)
        report = verify_trace(trace, three_group_target)
        assert report.ok and report.steps_checked == 12
        # And with kl_divergence, every available group scored at every step.
        counts = Counter()
        for t, step in enumerate(trace.steps, start=1):
            tentative = {}
            for g, bucket in cands.lists.items():
                if counts[g] < len(bucket):
                    placed = counts + Counter({g: 1})
                    fractions = {h: c / t for h, c in placed.items()}
                    tentative[g] = kl_divergence(fractions, three_group_target)
            assert tentative[step.chosen_group] <= min(tentative.values()) + 1e-15
            counts[step.chosen_group] += 1

    def test_within_group_order_preserved(self, three_group_target):
        rnd = random.Random(17)
        spec = {
            g: sorted((rnd.random() for _ in range(8)), reverse=True)
            for g in (G00, G01, G11)
        }
        cands = make_lists(spec)
        ranking, _ = kl_greedy_merge(cands, three_group_target, 24)
        for group in (G00, G01, G11):
            scores = [c.score for c in ranking if c.group == group]
            assert scores == spec[group][: len(scores)]

    def test_exhausted_group_never_selected(self):
        target = GroupDistribution({G00: 0.9, G01: 0.1})
        cands = make_lists({G00: [1.0], G01: [1.0, 0.9, 0.8]})
        ranking, trace = kl_greedy_merge(cands, target, 4)
        assert Counter(ranking.group_sequence())[G00] == 1
        assert not trace.truncated

    def test_truncated_output_when_candidates_run_out(self, uniform_pair_target):
        cands = make_lists({G00: [1.0], G01: [1.0]})
        ranking, trace = kl_greedy_merge(cands, uniform_pair_target, 10)
        assert len(ranking) == 2
        assert trace.truncated

    def test_zero_target_mass_rejected(self):
        target = GroupDistribution({G00: 1.0, G01: 0.0})
        cands = make_lists({G00: [1.0], G01: [1.0]})
        with pytest.raises(ZeroTargetMassError):
            kl_greedy_merge(cands, target, 2)
        ranking, _ = kl_greedy_merge(cands, target.smoothed(), 2)
        assert len(ranking) == 2

    def test_empty_input(self, uniform_pair_target):
        with pytest.raises(DataError, match=exactly("candidate set is empty")):
            kl_greedy_merge(GroupedCandidateSet({}), uniform_pair_target, 1)

    @pytest.mark.parametrize("n", [0, -2])
    def test_output_size_below_one(self, uniform_pair_target, n):
        cands = make_lists({G00: [1.0]})
        message = f"output size must be an integer >= 1, got {n}"
        with pytest.raises(ConfigError, match=exactly(message)):
            kl_greedy_merge(cands, uniform_pair_target, n)

    def test_dominates_random_permutations_of_own_multiset(self, three_group_target):
        cands = synthetic_candidate_set({G00: 8, G01: 8, G11: 8})
        ranking, _ = kl_greedy_merge(cands, three_group_target, 12)
        greedy_value = ndkl(ranking, three_group_target)
        labels = list(ranking.group_sequence())
        rnd = random.Random(23)
        for _ in range(1000):
            rnd.shuffle(labels)
            assert greedy_value <= ndkl(ranking_from_groups(labels), three_group_target) + 1e-12


class TestWeightedMerge:
    def test_lambda_one_reduces_exactly(self, three_group_target):
        rnd = random.Random(31)
        for _ in range(20):
            spec = {
                g: sorted((rnd.random() for _ in range(rnd.randint(1, 6))), reverse=True)
                for g in (G00, G01, G11)
            }
            cands = make_lists(spec)
            n = rnd.randint(1, 10)
            pure, _ = kl_greedy_merge(cands, three_group_target, n)
            weighted, _ = kl_greedy_merge_weighted(cands, three_group_target, n, 1.0)
            assert pure.entries == weighted.entries

    def test_lambda_zero_is_score_greedy(self):
        target = GroupDistribution({G00: 0.9, G01: 0.1})
        cands = make_lists({G00: [1.0, 0.2], G01: [0.9, 0.8]})
        ranking, _ = kl_greedy_merge_weighted(cands, target, 4, 0.0)
        # Normalized heads: G00 starts at 1.0, then 0.0; G01 at 1.0, then 0.0.
        # Ties prefer the lower group id.
        assert ranking.group_sequence() == (G00, G01, G00, G01)

    def test_lambda_half_flips_a_fairness_choice(self):
        # Step 2: fairness alone keeps the target-heavy group; the score
        # term pulls in the untouched group whose head is still its best.
        target = GroupDistribution({G00: 0.1, G01: 0.9})
        spec = {G00: [1.0, 0.5, 0.0], G01: [1.0, 0.5, 0.0]}
        pure, pure_trace = kl_greedy_merge_weighted(make_lists(spec), target, 2, 1.0)
        half, half_trace = kl_greedy_merge_weighted(make_lists(spec), target, 2, 0.5)
        assert pure.group_sequence() == (G01, G01)
        assert half.group_sequence() == (G01, G00)

        # Recompute both step-2 objectives by hand.
        step = half_trace.steps[1]
        kl_g00 = kl_divergence({G00: 0.5, G01: 0.5}, target)
        kl_g01 = kl_divergence({G01: 1.0}, target)
        assert kl_g00 == pytest.approx(0.5 * math.log(5) + 0.5 * math.log(5 / 9), abs=1e-12)
        assert kl_g01 == pytest.approx(math.log(1 / 0.9), abs=1e-12)
        obj_g00 = 0.5 * kl_g00 + 0.5 * (1 - 1.0)  # untouched head, s_hat = 1
        obj_g01 = 0.5 * kl_g01 + 0.5 * (1 - 0.5)  # second element, s_hat = 0.5
        assert obj_g00 < obj_g01
        assert step.chosen_group == G00
        assert verify_trace(half_trace, target).ok
        # And under the pure rule the same step keeps G01.
        assert kl_g01 < kl_g00
        assert pure_trace.steps[1].chosen_group == G01

    def test_lambda_validation(self, uniform_pair_target):
        cands = make_lists({G00: [1.0]})
        with pytest.raises(ConfigError, match=exactly("weight must lie in [0, 1], got 1.5")):
            kl_greedy_merge_weighted(cands, uniform_pair_target, 1, 1.5)


# --- differential test against the O(G^2) merge --------------------------------


def all_groups(values: int) -> list[GroupId]:
    return [GroupId.of(a, b) for a in range(values) for b in range(a, values)]


# Attribute values whose groups cover each group count (G = 2 takes 2 of 3).
GROUP_SOURCES = {2: 2, 3: 2, 6: 3, 21: 6}


def random_instance(rnd: random.Random, group_count: int):
    """Rational target, coarse scores (ties in shat), empty lists, varied n."""
    groups = all_groups(GROUP_SOURCES[group_count])[:group_count]
    smoothing = rnd.random() < 0.2
    weights = {g: rnd.randint(0 if smoothing else 1, 4) for g in groups}
    if not any(weights.values()):
        weights[groups[0]] = 1
    total = sum(weights.values())
    target = GroupDistribution({g: w / total for g, w in weights.items()})
    spec = {}
    for g in groups:
        length = rnd.choice((0, 1, 3, 8, 20))
        if length and (weights[g] or smoothing):
            levels = rnd.choice(((1.0,), (1.0, 0.5, 0.0), None))
            if levels is None:
                scores = [rnd.random() for _ in range(length)]
            else:
                scores = [rnd.choice(levels) for _ in range(length)]
            spec[g] = sorted(scores, reverse=True)
    if not spec:
        spec[groups[0]] = [1.0]
        if not weights[groups[0]]:
            smoothing = True
    cands = make_lists(spec)
    n = rnd.choice((1, 5, cands.total(), cands.total() + 7, 40))
    return cands, target, n, smoothing


def assert_same_merge(cands, target, n, lam, smoothing) -> int:
    """The merge agrees with ``reference_merge`` and its trace passes
    ``verify_trace``, all against ``target.smoothed()`` with ``smoothing``;
    returns the tie steps seen."""
    if smoothing:
        target = target.smoothed()
    ranking, trace = kl_greedy_merge(cands, target, n, lam)
    entries, steps, truncated = reference_merge(cands, target, n, lam)
    assert ranking.entries == entries
    assert trace.truncated == truncated
    assert (trace.candidates, trace.lam) == (cands, lam)
    assert len(trace.steps) == len(steps)
    for step, (t, best, chosen, tie) in zip(trace.steps, steps):
        assert (step.position, step.chosen_group, step.chosen) == (t, best, chosen)
        assert step.tie_break_used == tie
    report = verify_trace(trace, target)
    assert report.ok, report.first_violation
    return sum(1 for step in steps if step[3])


class TestMergeMatchesReference:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("group_count", [2, 3, 6, 21])
    def test_random_instances(self, group_count, lam):
        rnd = random.Random(1000 * group_count + int(100 * lam))
        ties = 0
        for _ in range(30):
            cands, target, n, smoothing = random_instance(rnd, group_count)
            ties += assert_same_merge(cands, target, n, lam, smoothing)
        assert ties > 0

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_long_run_where_the_gaps_shrink(self, lam):
        # Deep into a long merge the increments of all groups crowd
        # together; the closed form must still pick what kl_divergence picks.
        rnd = random.Random(7)
        spec = {
            g: sorted((rnd.random() for _ in range(8000)), reverse=True) for g in (G00, G01, G11)
        }
        target = GroupDistribution({G00: 1 / 4, G01: 1 / 4, G11: 1 / 2})
        assert assert_same_merge(make_lists(spec), target, 20_000, lam, False) > 0


class TestMergeByScore:
    def test_global_score_order_with_lexicographic_ties(self):
        cands = make_lists({G00: [0.9, 0.5], G01: [0.7, 0.5]})
        ranking = merge_by_score(cands)
        scores = [c.score for c in ranking]
        assert scores == sorted(scores, reverse=True)
        tied = [c.pair for c in ranking if c.score == 0.5]
        assert tied == sorted(tied)

    def test_truncation(self):
        cands = make_lists({G00: [0.9, 0.5], G01: [0.7]})
        assert len(merge_by_score(cands, 2)) == 2

    @pytest.mark.parametrize("n", [None, 0, 1, 7, 40, 1000])
    def test_equals_one_sort_of_every_candidate(self, n):
        # Six groups over three distinct scores, with pairs numbered in
        # random order, so equal scores cross groups at every level.
        rnd = random.Random(5)
        groups = [GroupId.of(a, b) for a in range(3) for b in range(a, 3)]
        nodes = list(range(80))
        rnd.shuffle(nodes)
        pairs = [canonical_edge(nodes[i], nodes[i + 1]) for i in range(0, 80, 2)]
        cands = GroupedCandidateSet.from_candidates(
            ScoredCandidate(u, v, rnd.choice([0.1, 0.5, 0.9]), rnd.choice(groups), True)
            for u, v in pairs
        )
        want = sorted(cands.all_candidates(), key=lambda c: (-c.score, c.u, c.v))
        if n is not None:
            want = want[:n]
        assert merge_by_score(cands, n).entries == tuple(want)


class TestOptimalDpProportions:
    def test_reference_instance(self):
        x, gap = optimal_dp_proportions(10, 3, 11)
        assert x == 2
        assert gap == pytest.approx(0.0606, abs=1e-3)

    def test_k_zero(self):
        assert optimal_dp_proportions(0, 5, 5) == (0, 0.0)

    def test_symmetric_pools_even_k(self):
        x, gap = optimal_dp_proportions(8, 20, 20)
        assert x == 4 and gap == 0.0

    def test_tie_prefers_smaller_x(self):
        # Pools equal, odd k: x and k-x swap roles, gap identical.
        x, _ = optimal_dp_proportions(3, 10, 10)
        assert x == 1

    def test_brute_force_agreement(self):
        for k, pi, pe in [(5, 3, 7), (9, 4, 8), (12, 12, 2), (7, 0, 9)]:
            x, gap = optimal_dp_proportions(k, pi, pe)
            candidates = range(max(0, k - pe), min(k, pi) + 1)
            best = min(
                candidates,
                key=lambda c: (abs((c / pi if pi else 0) - ((k - c) / pe if pe else 0)), c),
            )
            assert x == best
            assert gap == pytest.approx(
                abs((best / pi if pi else 0) - ((k - best) / pe if pe else 0))
            )

    def test_infeasible(self):
        with pytest.raises(InfeasibleKError):
            optimal_dp_proportions(10, 4, 5)

    @pytest.mark.parametrize("k, pool_intra, pool_inter", [(-1, 2, 2), (2, -1, 5), (2, 5, -1)])
    def test_negative_count_rejected(self, k, pool_intra, pool_inter):
        with pytest.raises(ConfigError, match=exactly("counts must be non-negative")):
            optimal_dp_proportions(k, pool_intra, pool_inter)


class TestWorstCaseRanking:
    def test_matches_brute_force_maximum(self, uniform_pair_target):
        worst = worst_case_ranking({G00: 2, G01: 2}, uniform_pair_target)
        exact = enumerate_ndkl_extremes(MultisetSpec({G00: 2, G01: 2}), uniform_pair_target)
        assert ndkl(worst, uniform_pair_target) == pytest.approx(exact.max_value, abs=1e-12)
        labels = worst.group_sequence()
        assert labels in ((G00, G00, G01, G01), (G01, G01, G00, G00))

    def test_rarest_group_first(self, three_group_target):
        worst = worst_case_ranking({G00: 3, G01: 2, G11: 2}, three_group_target)
        assert worst.group_sequence()[:2] == (G11, G11)  # mass 0.2 leads

    def test_single_group(self):
        target = GroupDistribution({G00: 1.0})
        worst = worst_case_ranking({G00: 3}, target)
        assert ndkl(worst, target) == 0.0

    def test_under_theoretical_bound(self, three_group_target):
        worst = worst_case_ranking({G00: 5, G01: 3, G11: 2}, three_group_target)
        assert ndkl(worst, three_group_target) <= math.log(5)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroTargetMassError):
            worst_case_ranking({G00: 1}, GroupDistribution({G00: 0.0, G01: 1.0}))

    def test_synthetic_negative_count_rejected(self):
        with pytest.raises(ConfigError, match=exactly("negative count for group 0-1")):
            synthetic_candidate_set({G00: 2, G01: -1})


class TestGapExperiment:
    def test_shared_parity_and_full_precision(self, three_group_target):
        pools = {G00: 300, G01: 200, G11: 150}
        curve = gap_experiment(three_group_target, pools, (10, 50, 100))
        for row in curve.rows():
            assert row["prec"] == 1.0
            assert row["worst_ndkl"] >= row["greedy_ndkl"]

    def test_point_rankings_share_exact_parity_gap(self, three_group_target):
        pools = {G00: 120, G01: 90, G11: 60}
        point = gap_point(three_group_target, pools, 40)
        class_pools = {
            INTRA: pools[G00] + pools[G11],
            INTER: pools[G01],
        }
        greedy_gap = delta_dp_selection(point.greedy, 40, class_pools)
        worst_gap = delta_dp_selection(point.worst, 40, class_pools)
        assert greedy_gap == worst_gap == point.delta_dp

    def test_identical_group_multisets(self, three_group_target):
        pools = {G00: 100, G01: 80, G11: 50}
        point = gap_point(three_group_target, pools, 60)
        assert Counter(point.greedy.group_sequence()) == Counter(point.worst.group_sequence())
        assert sum(point.group_counts.values()) == 60

    def test_default_pools_skip_a_zero_mass_group(self):
        target = GroupDistribution({G00: 0.7, G01: 0.3, G11: 0.0})
        pools = default_gap_pools(target, (10, 100))
        assert pools == {G00: 140, G01: 60}
        # A pool for the zero-mass group would raise ZeroTargetMassError.
        assert [row["k"] for row in gap_experiment(target, pools, (10, 100)).rows()] == [10, 100]

    def test_infeasible_cutoff(self, three_group_target):
        with pytest.raises(InfeasibleKError):
            gap_experiment(three_group_target, {G00: 5, G01: 3, G11: 2}, (11,))

    def test_non_integral_pool_rejected(self, three_group_target):
        with pytest.raises(ConfigError):
            gap_point(three_group_target, {G00: 30.5, G01: 20, G11: 10}, 10)

    def test_greedy_above_worst_is_an_internal_fault(self):
        # A planted fault: the self-check raises an error that is no FairlinkError.
        with pytest.raises(AssertionError, match="the worst-case construction is broken"):
            GapCurve((10,), greedy_ndkl=(0.5,), worst_ndkl=(0.1,), delta_dp=(0.0,), prec=(1.0,))

    def test_csv_layout(self, tmp_path, three_group_target):
        pools = {G00: 60, G01: 40, G11: 30}
        curve = gap_experiment(three_group_target, pools, (5, 10))
        out = tmp_path / "gap.csv"
        curve.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,greedy_ndkl,worst_ndkl,delta_dp,prec"
        assert len(lines) == 3

    def test_frozen_regression_values_at_k200(self):
        # Regression pin from a verified run over proportions 0.61/0.20/0.19
        # with pools of twice 1000 entries per unit mass; the worst curve
        # sits more than an order of magnitude above the greedy one.
        target = GroupDistribution({G00: 0.61, G01: 0.20, G11: 0.19})
        pools = {g: max(1, round(2000 * p)) for g, p in target.items()}
        point = gap_point(target, pools, 200)
        greedy_value = ndkl(point.greedy, target)
        worst_value = ndkl(point.worst, target)
        assert greedy_value == pytest.approx(0.02410, abs=1e-4)
        assert worst_value == pytest.approx(0.80249, abs=1e-4)
        assert worst_value >= 2 * greedy_value

    def test_top_100_proportions_track_target(self):
        # Ample candidates: the greedy prefix at 100 lands on the target
        # proportions to within half a group share.
        from fairlink.fairness import top_k_proportions

        target = GroupDistribution({G00: 0.61, G01: 0.20, G11: 0.19})
        cands = synthetic_candidate_set({G00: 200, G01: 200, G11: 200})
        ranking, _ = kl_greedy_merge(cands, target, 100)
        proportions = top_k_proportions(ranking, 100)
        for group in (G00, G01, G11):
            assert abs(proportions.mass(group) - target.mass(group)) <= 0.05


class TestRankingFiles:
    def test_roundtrip(self, tmp_path, three_group_target):
        cands = synthetic_candidate_set({G00: 4, G01: 3, G11: 2})
        ranking, _ = kl_greedy_merge(cands, three_group_target, 9)
        path = tmp_path / "ranking.tsv"
        write_ranking(path, ranking)
        again = read_ranking(path)
        assert again.entries == ranking.entries

    def test_pairs_in_either_orientation_are_stored_canonically(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text("# rank u v group score relevance\n1\t5\t2\t1-0\t0.5\t1\r\n")
        assert read_ranking(path).entries == (ScoredCandidate(2, 5, 0.5, G01, True),)

    @pytest.mark.parametrize(
        "second, error, detail",
        [
            ("2\t3\t4\t0-1\tnan\t0", MalformedLineError, None),
            ("2\t3\t4\t0-1\t-inf\t0", MalformedLineError, None),
            ("2\t3\t4\t0-1\t0.5\t7", MalformedLineError, None),
            ("2\t3\t4\t0-1\t0.5\t-1", MalformedLineError, None),
            ("2\t4\t4\t1-1\t0.5\t0", SelfLoopError, 4),
            # Line 1 holds the pair (0, 1) in the other orientation.
            ("2\t1\t0\t0-0\t0.5\t0", DuplicatePairError, (0, 1)),
        ],
    )
    def test_bad_entries_name_their_line(self, tmp_path, second, error, detail):
        path = tmp_path / "ranking.tsv"
        path.write_text(f"1\t0\t1\t0-0\t0.9\t1\n\n{second}\n")
        with pytest.raises(error) as exc:
            read_ranking(path)
        assert exc.value.line_no == 3
        if detail is not None:
            assert detail in (getattr(exc.value, "node", None), getattr(exc.value, "pair", None))

    def test_precision_of_synthetic_all_relevant(self, three_group_target):
        cands = synthetic_candidate_set({G00: 4, G01: 2, G11: 2})
        ranking, _ = kl_greedy_merge(cands, three_group_target, 8)
        rel = RelevanceVector.from_ranking(ranking)
        assert precision_at_k(rel, 8) == 1.0

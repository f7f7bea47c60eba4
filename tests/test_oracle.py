import dataclasses
import gc
import itertools
import math
import random
from collections import Counter

import pytest

from fairlink.errors import ConfigError, InfeasibleError, ZeroTargetMassError
from fairlink.fairness import kl_divergence, ndkl, ndkl_upper_bound
from fairlink.graphs import GroupDistribution, GroupId
from fairlink.oracle import (
    MultisetSpec,
    enumerate_ndkl_extremes,
    verify_trace,
)
from fairlink.rerank import (
    kl_greedy_merge,
    kl_greedy_merge_weighted,
    synthetic_candidate_set,
)

from conftest import G00, G01, G11
from reference import (
    multiset_permutations,
    permutation_count,
    ranking_from_groups,
    reference_extremes,
    sequence_ndkl,
)

G02 = GroupId.of(0, 2)


def differential_cases() -> list[tuple[dict, GroupDistribution]]:
    """Seeded multisets of 1-4 groups and up to 10 items, under three kinds of target.

    Counts may be zero. Targets cycle through random masses, the uniform
    target and integer weights 1-2 over their sum; the last two give
    groups equal masses, so orderings tie exactly. Multisets with more
    than 3,000 orderings are redrawn to keep the naive reference quick.
    """
    rnd = random.Random(20261018)
    groups = (G00, G01, G02, G11)
    cases = []
    while len(cases) < 60:
        width = 1 + len(cases) % 4
        counts = {g: rnd.randint(0, 12 // width) for g in groups[:width]}
        if not 0 < sum(counts.values()) <= 10:
            continue
        if permutation_count(counts) > 3000:
            continue
        kind = len(cases) % 3
        if kind == 0:
            weights = [rnd.random() + 0.05 for _ in range(width)]
        elif kind == 1:
            weights = [1.0] * width
        else:
            weights = [float(rnd.randint(1, 2)) for _ in range(width)]
        total = sum(weights)
        cases.append((counts, GroupDistribution({g: w / total for g, w in zip(groups, weights)})))
    return cases


def wide_cases() -> list[tuple[dict, GroupDistribution]]:
    """Seeded multisets of 5 and 6 groups of one or two items each, at most 10 items.

    Wide layers of count vectors, where many predecessors reach each
    vector. Every third target is uniform, so predecessors tie and the
    lexicographic rule decides. Multisets with more than 3,000
    orderings are redrawn to keep the naive reference quick.
    """
    rnd = random.Random(20261019)
    groups = (G00, G01, G02, G11, GroupId.of(1, 2), GroupId.of(2, 2))
    cases = []
    while len(cases) < 18:
        width = 5 + len(cases) % 2
        counts = {g: rnd.randint(1, 2) for g in groups[:width]}
        if sum(counts.values()) > 10 or permutation_count(counts) > 3000:
            continue
        if len(cases) % 3 == 0:
            weights = [1.0] * width
        else:
            weights = [rnd.random() + 0.05 for _ in range(width)]
        total = sum(weights)
        cases.append((counts, GroupDistribution({g: w / total for g, w in zip(groups, weights)})))
    return cases


class TestMultisetPermutations:
    def test_count_matches_multinomial(self):
        counts = {G00: 3, G01: 2, G11: 2}
        sequences = list(multiset_permutations(counts))
        expected = math.factorial(7) // (6 * 2 * 2)
        assert len(sequences) == expected
        assert len(set(sequences)) == expected
        for seq in sequences:
            assert Counter(seq) == counts

    def test_non_integral_count_rejected(self):
        with pytest.raises(ConfigError):
            MultisetSpec({G00: 2.5, G01: 1})
        assert MultisetSpec({G00: 2.0, G01: 1}).group_counts == {G00: 2, G01: 1}

    def test_lexicographic_first(self):
        first = next(multiset_permutations({G01: 1, G00: 2}))
        assert first == (G00, G00, G01)

    def test_zero_counts_skipped(self):
        sequences = list(multiset_permutations({G00: 2, G01: 0}))
        assert sequences == [(G00, G00)]

    def test_equals_sorted_brute_force(self):
        rnd = random.Random(8)
        groups = (G00, G01, G02, G11)
        for _ in range(40):
            counts = {g: rnd.randint(0, 3) for g in groups[: rnd.randint(1, 4)]}
            if sum(counts.values()) > 8:
                continue
            labels = [g for g, c in counts.items() for _ in range(c)]
            brute = sorted(set(itertools.permutations(labels)))
            assert list(multiset_permutations(counts)) == brute

    def test_leaves_no_reference_cycle(self):
        counts = {G00: 2, G01: 2, G11: 1}
        gc.collect()
        gc.disable()
        try:
            list(multiset_permutations(counts))
            partial = multiset_permutations(counts)
            next(partial)
            del partial
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestSequenceNdkl:
    def test_agrees_with_incremental_metric(self, three_group_target):
        rnd = random.Random(41)
        groups = [G00, G01, G11]
        for _ in range(300):
            labels = tuple(rnd.choice(groups) for _ in range(rnd.randint(1, 12)))
            direct = sequence_ndkl(labels, three_group_target)
            incremental = ndkl(ranking_from_groups(labels), three_group_target)
            assert direct == pytest.approx(incremental, abs=1e-12)

    def test_zero_mass_rejected(self):
        target = GroupDistribution({G00: 1.0, G01: 0.0})
        with pytest.raises(ZeroTargetMassError):
            sequence_ndkl((G01,), target)

    def test_empty_rejected(self, three_group_target):
        with pytest.raises(ConfigError):
            sequence_ndkl((), three_group_target)


class TestEnumerateExtremes:
    def test_two_singletons_symmetric(self, uniform_pair_target):
        result = enumerate_ndkl_extremes(MultisetSpec({G00: 1, G01: 1}), uniform_pair_target)
        assert result.permutations_examined == 2
        assert result.min_value == pytest.approx(result.max_value, abs=1e-15)
        assert result.min_value == pytest.approx(0.4250, abs=1e-4)

    def test_block_ordering_is_argmax(self, uniform_pair_target):
        result = enumerate_ndkl_extremes(MultisetSpec({G00: 2, G01: 2}), uniform_pair_target)
        assert result.argmax in ((G00, G00, G01, G01), (G01, G01, G00, G00))

    def test_extremes_within_bound(self):
        rnd = random.Random(43)
        for _ in range(25):
            counts = {g: rnd.randint(0, 3) for g in (G00, G01, G11)}
            if sum(counts.values()) == 0:
                counts[G00] = 1
            raw = [rnd.random() + 0.05 for _ in range(3)]
            total = sum(raw)
            target = GroupDistribution(dict(zip((G00, G01, G11), (r / total for r in raw))))
            result = enumerate_ndkl_extremes(MultisetSpec(counts), target)
            assert 0.0 <= result.min_value <= result.max_value
            assert result.max_value <= ndkl_upper_bound(target) + 1e-12
            assert result.permutations_examined == permutation_count(counts)

    def test_argmin_argmax_round_trip_through_metric(self, three_group_target):
        result = enumerate_ndkl_extremes(MultisetSpec({G00: 3, G01: 2, G11: 1}), three_group_target)
        assert ndkl(ranking_from_groups(result.argmin), three_group_target) == pytest.approx(
            result.min_value, abs=1e-12
        )
        assert ndkl(ranking_from_groups(result.argmax), three_group_target) == pytest.approx(
            result.max_value, abs=1e-12
        )

    def test_guard(self, uniform_pair_target):
        with pytest.raises(InfeasibleError) as exc:
            enumerate_ndkl_extremes(MultisetSpec({G00: 10, G01: 10}), uniform_pair_target)
        # The guard counts items; the oracle walks count vectors, it enumerates nothing.
        assert str(exc.value) == (
            "instance size 20 exceeds the oracle's item guard 14; "
            "pass a larger guard explicitly to force it"
        )
        # Explicit override allows slightly larger runs.
        result = enumerate_ndkl_extremes(
            MultisetSpec({G00: 8, G01: 7}), uniform_pair_target, guard=15
        )
        assert result.permutations_examined == math.comb(15, 7)


class TestEnumerationMatchesReference:
    """The prefix-sharing walk gives the naive loop's result, float for float."""

    @pytest.mark.parametrize("counts, target", differential_cases())
    def test_seeded_multisets(self, counts, target):
        spec = MultisetSpec(counts)
        assert enumerate_ndkl_extremes(spec, target) == reference_extremes(spec, target)

    @pytest.mark.parametrize("counts, target", wide_cases())
    def test_wide_multisets(self, counts, target):
        spec = MultisetSpec(counts)
        assert enumerate_ndkl_extremes(spec, target) == reference_extremes(spec, target)

    def test_at_the_guard(self):
        # 14 items; the two rarer groups have equal counts and masses, so they tie.
        spec = MultisetSpec({G00: 10, G01: 2, G11: 2})
        target = GroupDistribution({G00: 0.5, G01: 0.25, G11: 0.25})
        result = enumerate_ndkl_extremes(spec, target, guard=14)
        assert result.permutations_examined == 6006
        assert result == reference_extremes(spec, target)

    def test_ties_keep_the_first_ordering_found(self):
        # Two groups with equal counts and masses: each ordering ties with its mirror image.
        target = GroupDistribution({G00: 0.5, G01: 0.5})
        for count in range(1, 6):
            result = enumerate_ndkl_extremes(MultisetSpec({G00: count, G01: count}), target)
            extremes = ((result.argmin, result.min_value), (result.argmax, result.max_value))
            for found, value in extremes:
                mirror = tuple(G01 if g == G00 else G00 for g in found)
                assert sequence_ndkl(mirror, target) == value
                assert found < mirror


def tentative_kls(trace, target) -> list[dict[GroupId, float]]:
    """Each step's ``kl_divergence`` of the prefix plus every group's head."""
    counts, out = Counter(), []
    for t, step in enumerate(trace.steps, start=1):
        kls = {}
        for g, bucket in trace.candidates.lists.items():
            if counts[g] < len(bucket):
                placed = counts + Counter({g: 1})
                kls[g] = kl_divergence({h: c / t for h, c in placed.items()}, target)
        out.append(kls)
        counts[step.chosen_group] += 1
    return out


def taken_before(trace, victim: int, group: GroupId) -> int:
    return sum(1 for s in trace.steps[:victim] if s.chosen_group == group)


def plant(trace, victim: int, group: GroupId, chosen):
    """The trace with step ``victim`` recording ``chosen`` from ``group``."""
    planted = trace.steps[victim]._replace(chosen_group=group, chosen=chosen)
    return dataclasses.replace(
        trace, steps=trace.steps[:victim] + (planted,) + trace.steps[victim + 1 :]
    )


class TestVerifyTrace:
    def test_clean_trace_passes(self, three_group_target):
        cands = synthetic_candidate_set({G00: 5, G01: 4, G11: 3})
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, trace = kl_greedy_merge(cands, three_group_target, 12, lam)
            report = verify_trace(trace, three_group_target)
            assert report.ok, (lam, report.first_violation)
            assert report.steps_checked == 12

    def test_planted_fault_detected(self, three_group_target):
        cands = synthetic_candidate_set({G00: 5, G01: 4, G11: 3})
        _, trace = kl_greedy_merge(cands, three_group_target, 12)
        # Swap one step's choice to the head of a group that did not attain
        # the minimum.
        victim, tentative = next(
            (i, kl)
            for i, kl in enumerate(tentative_kls(trace, three_group_target))
            if len(kl) > 1 and max(kl.values()) - min(kl.values()) > 1e-6
        )
        wrong = max(tentative, key=tentative.get)
        head = cands.lists[wrong][taken_before(trace, victim, wrong)]
        report = verify_trace(plant(trace, victim, wrong, head), three_group_target)
        assert not report.ok
        first = report.first_violation
        assert (first.position, first.chosen_group) == (victim + 1, wrong)
        assert first.best_group == trace.steps[victim].chosen_group
        assert first.chosen_kl == pytest.approx(tentative[wrong], abs=1e-12)

    def test_planted_non_head_detected(self, three_group_target):
        cands = synthetic_candidate_set({G00: 5, G01: 4, G11: 3})
        _, trace = kl_greedy_merge(cands, three_group_target, 12)
        # The right group, but its second candidate instead of its head.
        victim = 4
        group = trace.steps[victim].chosen_group
        skipped = cands.lists[group][taken_before(trace, victim, group) + 1]
        report = verify_trace(plant(trace, victim, group, skipped), three_group_target)
        assert [v.position for v in report.violations] == [victim + 1]
        assert report.first_violation.chosen_group == group

    def test_planted_exhausted_group_detected(self, three_group_target):
        cands = synthetic_candidate_set({G00: 1, G01: 6, G11: 6})
        _, trace = kl_greedy_merge(cands, three_group_target, 12)
        # G00 has one candidate; a G00 step after it was taken is a fault.
        victim = next(i for i, s in enumerate(trace.steps) if s.chosen_group == G00) + 1
        report = verify_trace(plant(trace, victim, G00, cands.lists[G00][0]), three_group_target)
        first = report.first_violation
        assert (first.position, first.chosen_group) == (victim + 1, G00)
        assert first.chosen_kl == math.inf
        assert first.best_group == trace.steps[victim].chosen_group
        # A step after every list ran out has no group to take from.
        extra = trace.steps[0]._replace(position=len(trace.steps) + 1)
        _, short = kl_greedy_merge(cands, three_group_target, cands.total())
        report = verify_trace(
            dataclasses.replace(short, steps=short.steps + (extra,)), three_group_target
        )
        assert [v.position for v in report.violations] == [cands.total() + 1]

    def test_score_greedy_trace_fails_fairness_rule(self):
        # A pure-score run checked as if it were a pure-divergence run must
        # be flagged exactly where score and fairness disagreed.
        target = GroupDistribution({G00: 0.1, G01: 0.9})
        cands = synthetic_candidate_set({G00: 3, G01: 3})
        pure, _ = kl_greedy_merge(cands, target, 4)
        score_first, trace0 = kl_greedy_merge_weighted(cands, target, 4, 0.0)
        assert pure.group_sequence() != score_first.group_sequence()
        assert verify_trace(trace0, target).ok
        report = verify_trace(dataclasses.replace(trace0, lam=1.0), target)
        assert not report.ok
        disagreements = {
            step.position
            for step, kl in zip(trace0.steps, tentative_kls(trace0, target))
            if step.chosen_group != min(kl, key=lambda g: (kl[g], g))
        }
        assert {v.position for v in report.violations} == disagreements

    def test_smoothing_must_match_the_merge(self):
        # A merge made against the smoothed target may hold a zero-mass
        # group; checked against the target as given, the first step that
        # scores that group raises.
        target = GroupDistribution({G00: 1.0, G01: 0.0})
        cands = synthetic_candidate_set({G00: 2, G01: 2})
        _, trace = kl_greedy_merge(cands, target.smoothed(), 4)
        assert verify_trace(trace, target.smoothed()).ok
        with pytest.raises(ZeroTargetMassError) as exc:
            verify_trace(trace, target)
        assert exc.value.group == G01

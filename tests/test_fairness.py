import inspect
import math
import random
import sys
from decimal import Decimal

import pytest

from fairlink import fairness
from fairlink.errors import (
    ConfigError,
    DataError,
    EmptyGroupError,
    EmptyRankingError,
    KOutOfRangeError,
    ZeroTargetMassError,
)
from fairlink.fairness import (
    INTER,
    INTRA,
    Ranking,
    delta_dp_score,
    delta_dp_selection,
    delta_max,
    kl_divergence,
    ndkl,
    ndkl_curve,
    ndkl_upper_bound,
    position_discount,
    top_k_proportions,
)
from fairlink.graphs import GroupDistribution, GroupId

from conftest import G00, G01, G11, exactly
from reference import DecimalModel, ranking_from_groups, sequence_ndkl, sequence_ndkl_curve


class TestKlDivergence:
    def test_identity_is_zero(self, three_group_target):
        assert kl_divergence(three_group_target, three_group_target) == 0.0

    def test_point_mass_closed_form(self):
        q = GroupDistribution({G00: 1.0, G01: 0.0})
        p = GroupDistribution({G00: 0.2, G01: 0.8})
        assert kl_divergence(q, p) == pytest.approx(math.log(5), abs=1e-12)

    def test_half_half_against_quarter_quarter_half(self):
        q = GroupDistribution({G00: 0.5, G01: 0.5, G11: 0.0})
        p = GroupDistribution({G00: 0.25, G01: 0.25, G11: 0.5})
        assert kl_divergence(q, p) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_target_mass(self):
        q = GroupDistribution({G00: 1.0})
        p = GroupDistribution({G00: 0.0, G01: 1.0})
        with pytest.raises(ZeroTargetMassError):
            kl_divergence(q, p)

    def test_smoothing_rescues_zero_mass(self):
        q = GroupDistribution({G00: 1.0})
        p = GroupDistribution({G00: 0.0, G01: 1.0})
        value = kl_divergence(q, p.smoothed())
        assert value > 10  # ln(1/eps-ish), large but finite

    def test_zero_q_entries_contribute_nothing(self):
        q = {G00: 0.0, G01: 1.0}
        p = {G01: 1.0}
        assert kl_divergence(q, p) == 0.0


class TestPrefixDistributions:
    """Group composition of each prefix, read through ``top_k_proportions``."""

    def test_single_entry(self):
        assert top_k_proportions(ranking_from_groups([G00]), 1).probabilities == {G00: 1.0}

    def test_two_groups(self):
        dist = top_k_proportions(ranking_from_groups([G00, G01]), 2)
        assert dist.probabilities == {G00: 0.5, G01: 0.5}

    def test_direct_count(self):
        dist = top_k_proportions(ranking_from_groups([G00, G00, G01, G11]), 4)
        assert dist.probabilities == {G00: 0.5, G01: 0.25, G11: 0.25}

    def test_matches_from_scratch_recount(self):
        labels = [G00, G01, G00, G11, G11, G01, G00]
        ranking = ranking_from_groups(labels)
        for k in range(1, len(labels) + 1):
            recount = {}
            for g in labels[:k]:
                recount[g] = recount.get(g, 0) + 1
            assert top_k_proportions(ranking, k).probabilities == {
                g: c / k for g, c in recount.items()
            }

    def test_empty(self):
        with pytest.raises(EmptyRankingError):
            top_k_proportions(Ranking(()), 1)
        with pytest.raises(EmptyRankingError):
            ndkl_curve(Ranking(()), GroupDistribution({G00: 1.0}))


class TestNdkl:
    def test_pure_ranking_against_point_mass_is_zero(self):
        target = GroupDistribution({G00: 1.0})
        assert ndkl(ranking_from_groups([G00] * 5), target) == 0.0

    def test_two_entry_hand_value(self, uniform_pair_target):
        # Z = 1 + 1/log2(3); only the k=1 prefix diverges, by ln 2.
        value = ndkl(ranking_from_groups([G00, G01]), uniform_pair_target)
        z = 1.0 + 1.0 / math.log2(3)
        assert value == pytest.approx(math.log(2) / z, abs=1e-12)
        assert value == pytest.approx(0.4250, abs=1e-4)

    def test_bounded_by_rarest_mass(self, three_group_target):
        import random

        rnd = random.Random(3)
        bound = ndkl_upper_bound(three_group_target)
        assert bound == pytest.approx(math.log(5), abs=1e-12)
        groups = [G00, G01, G11]
        for _ in range(50):
            labels = [rnd.choice(groups) for _ in range(rnd.randint(1, 60))]
            value = ndkl(ranking_from_groups(labels), three_group_target)
            assert 0.0 <= value <= bound + 1e-12

    def test_truncation_depends_only_on_prefix(self, three_group_target):
        head = [G00, G01, G00, G11]
        a = ranking_from_groups(head + [G00, G00, G00])
        b = ranking_from_groups(head + [G11, G01, G11])
        assert ndkl(a, three_group_target, k_max=4) == ndkl(b, three_group_target, k_max=4)

    def test_permutation_sensitivity(self):
        # Same multiset, different order, asymmetric target: values differ.
        target = GroupDistribution({G00: 0.8, G01: 0.2})
        ab = ndkl(ranking_from_groups([G00, G01]), target)
        ba = ndkl(ranking_from_groups([G01, G00]), target)
        assert ab != ba
        assert ba > ab  # rare group on top is worse

    def test_zero_mass_group_in_ranking(self):
        target = GroupDistribution({G00: 1.0, G01: 0.0})
        with pytest.raises(ZeroTargetMassError):
            ndkl(ranking_from_groups([G01]), target)
        assert ndkl(ranking_from_groups([G01]), target.smoothed()) > 0

    def test_k_max_validation(self, uniform_pair_target):
        ranking = ranking_from_groups([G00, G01])
        with pytest.raises(KOutOfRangeError):
            ndkl(ranking, uniform_pair_target, k_max=3)
        with pytest.raises(EmptyRankingError):
            ndkl(Ranking(()), uniform_pair_target)


class TestNdklCurve:
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_every_cutoff_equals_the_per_cutoff_loop(self, three_group_target, smoothing):
        import random

        rnd = random.Random(11)
        targets = [three_group_target, GroupDistribution({G00: 0.5, G01: 0.5, G11: 0.0})]
        for target in targets:
            groups = [g for g in (G00, G01, G11) if smoothing or target.mass(g) > 0]
            masses = target.smoothed() if smoothing else target
            for _ in range(30):
                ranking = ranking_from_groups(
                    [rnd.choice(groups) for _ in range(rnd.randint(1, 40))]
                )
                curve = ndkl_curve(ranking, masses)
                assert len(curve) == len(ranking)
                labels = ranking.group_sequence()
                for k, value in enumerate(curve, start=1):
                    assert value == sequence_ndkl(labels[:k], masses)
                    assert value == ndkl(ranking, masses, k_max=k)

    @pytest.mark.parametrize("smoothing", [False, True])
    def test_twenty_one_groups_equal_the_per_cutoff_loop(self, smoothing):
        # Six attribute values give 21 groups; one of them has zero target
        # mass and appears only when the target is smoothed.
        import random

        rnd = random.Random(21)
        groups = [GroupId.of(a, b) for a in range(6) for b in range(a, 6)]
        assert len(groups) == 21
        weights = [0.0] + [rnd.random() for _ in groups[1:]]
        target = GroupDistribution({g: w / math.fsum(weights) for g, w in zip(groups, weights)})
        drawn = groups if smoothing else groups[1:]
        masses = target.smoothed() if smoothing else target
        for _ in range(5):
            ranking = ranking_from_groups(
                rnd.choices(drawn, weights=range(1, len(drawn) + 1), k=rnd.randint(50, 300))
            )
            curve = ndkl_curve(ranking, masses)
            labels = ranking.group_sequence()
            assert curve == sequence_ndkl_curve(labels, masses)

    @pytest.mark.parametrize("long_first", [True, False])
    def test_fifty_five_groups_in_either_growth_order_of_the_table(self, monkeypatch, long_first):
        # The discount table starts from no position and grows with the
        # curves: a long curve then a short one reads a table grown once, a
        # short one then a long one grows it twice. Both equal the per-cutoff
        # reference, and every entry is the discount and the in-order sum.
        monkeypatch.setattr(fairness, "_DISCOUNTS", ((0.0,), (0.0,)))
        rnd = random.Random(55)
        groups = [GroupId.of(a, b) for a in range(10) for b in range(a, 10)]
        assert len(groups) == 55
        weights = [rnd.randint(1, 9) for _ in groups]
        target = GroupDistribution({g: w / sum(weights) for g, w in zip(groups, weights)})
        long = ranking_from_groups(rnd.choices(groups, weights=range(1, 56), k=2400))
        short = ranking_from_groups(rnd.choices(groups[20:], k=150))
        for ranking in (long, short) if long_first else (short, long):
            labels = ranking.group_sequence()
            assert ndkl_curve(ranking, target) == sequence_ndkl_curve(labels, target)
        discounts, sums = fairness._DISCOUNTS
        assert len(discounts) == len(sums) > 2400
        running = 0.0
        for k in range(1, len(discounts)):
            running += 1.0 / math.log2(k + 1)
            assert (discounts[k], sums[k]) == (position_discount(k), running)

    def test_zero_mass_group_raises_where_it_first_appears(self):
        target = GroupDistribution({G00: 0.5, G01: 0.5, G11: 0.0})
        ranking = ranking_from_groups([G00, G01, G00, G11, G01])
        assert len(ndkl_curve(ranking, target, k_max=3)) == 3
        with pytest.raises(ZeroTargetMassError) as exc:
            ndkl_curve(ranking, target, k_max=4)
        assert exc.value.group == G11
        # A group the target does not list has zero mass too.
        unlisted = GroupDistribution({G00: 1.0})
        with pytest.raises(ZeroTargetMassError):
            ndkl_curve(ranking_from_groups([G00, G01]), unlisted)

    def test_k_max_truncates(self, three_group_target):
        ranking = ranking_from_groups([G00, G01, G11, G00, G00])
        full = ndkl_curve(ranking, three_group_target)
        assert ndkl_curve(ranking, three_group_target, k_max=3) == full[:3]
        with pytest.raises(KOutOfRangeError):
            ndkl_curve(ranking, three_group_target, k_max=0)
        with pytest.raises(KOutOfRangeError):
            ndkl_curve(ranking, three_group_target, k_max=6)

    def test_float_dust_below_zero_is_clamped(self):
        # At k = 30 the prefix holds exactly the counts the target was made
        # from, and its terms sum to about -5.6e-17 in ndkl_curve's order.
        # The clamp moves no output float, so a line tracer shows it runs.
        counts = {
            GroupId.parse(label): count
            for label, count in (("0-0", 7), ("0-1", 1), ("0-2", 9), ("1-1", 5), ("1-2", 8))
        }
        target = GroupDistribution.from_counts(counts).smoothed()
        ranking = ranking_from_groups([g for g, c in sorted(counts.items()) for _ in range(c)])
        lines, first = inspect.getsourcelines(ndkl_curve)
        clamp = first + 1 + next(i for i, line in enumerate(lines) if "if total < 0.0:" in line)
        code, clamped_at = ndkl_curve.__code__, []

        def trace_lines(frame, event, arg):
            if event == "line" and frame.f_lineno == clamp:
                clamped_at.append(frame.f_locals["k"])
            return trace_lines

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is code else None)
        try:
            curve = ndkl_curve(ranking, target)
        finally:
            sys.settrace(previous)
        assert lines[clamp - first].strip() == "total = 0.0"
        assert 30 in clamped_at
        assert curve == sequence_ndkl_curve(ranking.group_sequence(), target)

    @pytest.mark.parametrize("values", [2, 6, 10], ids=["G3", "G21", "G55"])
    def test_within_1e_13_of_the_decimal_model(self, values):
        # Random targets, and smoothed ones whose zero-mass group sits at the
        # 1e-9 floor and is drawn into the ranking like every other group.
        rnd = random.Random(100 + values)
        groups = [GroupId.of(a, b) for a in range(values) for b in range(a, values)]
        worst = Decimal(0)
        for smoothing in (False, True):
            weights = [0.0 if smoothing and i == 0 else rnd.random() for i in range(len(groups))]
            target = GroupDistribution({g: w / math.fsum(weights) for g, w in zip(groups, weights)})
            masses = target.smoothed() if smoothing else target
            for _ in range(2):
                ranking = ranking_from_groups(rnd.choices(groups, k=rnd.randint(100, 400)))
                curve = ndkl_curve(ranking, masses)
                exact = DecimalModel(masses).ndkl_curve(ranking.group_sequence())
                worst = max(worst, *(abs(Decimal(v) - e) for v, e in zip(curve, exact)))
        assert worst <= Decimal("1e-13")


class TestNdklUpperBound:
    def test_symmetric(self, uniform_pair_target):
        assert ndkl_upper_bound(uniform_pair_target) == pytest.approx(math.log(2), abs=1e-12)

    def test_three_groups(self, three_group_target):
        assert ndkl_upper_bound(three_group_target) == pytest.approx(math.log(5), abs=1e-12)

    def test_point_mass(self):
        assert ndkl_upper_bound(GroupDistribution({G00: 1.0})) == 0.0

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroTargetMassError):
            ndkl_upper_bound(GroupDistribution({G00: 1.0, G01: 0.0}))


class TestDeltaDpSelection:
    def test_unbalanced_pools_hand_value(self):
        # 2 intra of pool 3 vs 8 inter of pool 11.
        labels = [G00] * 2 + [G01] * 8
        value = delta_dp_selection(
            ranking_from_groups(labels), 10, {INTRA: 3, INTER: 11}
        )
        assert value == pytest.approx(abs(2 / 3 - 8 / 11), abs=1e-12)
        assert value == pytest.approx(0.0606, abs=1e-3)

    def test_k_zero(self):
        ranking = ranking_from_groups([G00])
        assert delta_dp_selection(ranking, 0, {INTRA: 1, INTER: 1}) == 0.0

    @pytest.mark.parametrize("k", [-1, 3])
    def test_k_out_of_range(self, k):
        ranking = ranking_from_groups([G00, G01])
        message = f"cutoff k={k} outside valid range 1..2"
        with pytest.raises(KOutOfRangeError, match=exactly(message)):
            delta_dp_selection(ranking, k, {INTRA: 5, INTER: 5})

    def test_equal_rates_cancel(self):
        labels = [G00] * 2 + [G01] * 2
        value = delta_dp_selection(
            ranking_from_groups(labels), 4, {INTRA: 10, INTER: 10}
        )
        assert value == 0.0

    def test_pool_too_small(self):
        labels = [G00] * 3
        message = exactly("intra pool has 2 candidates but 3 were selected")
        with pytest.raises(ConfigError, match=message):
            delta_dp_selection(
                ranking_from_groups(labels), 3, {INTRA: 2, INTER: 5}
            )

    def test_permutation_invariance_within_top_k(self):
        import random

        rnd = random.Random(8)
        labels = [G00, G01, G11, G00, G01, G00, G11, G01]
        pools = {INTRA: 20, INTER: 20}
        base = delta_dp_selection(ranking_from_groups(labels), 6, pools)
        for _ in range(20):
            top = labels[:6]
            rnd.shuffle(top)
            permuted = ranking_from_groups(top + labels[6:])
            assert delta_dp_selection(permuted, 6, pools) == base


class TestDeltaDpScore:
    def test_identical_sequences(self):
        assert delta_dp_score([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_means(self):
        assert delta_dp_score([0.9, 0.7], [0.5, 0.7]) == pytest.approx(0.2, abs=1e-12)

    def test_singletons(self):
        assert delta_dp_score([1.0], [0.0]) == 1.0

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            delta_dp_score([], [1.0])


class TestDeltaMax:
    def test_equal_means(self):
        assert delta_max({G00: [0.5], G01: [0.5], G11: [0.5]}) == 0.0

    def test_pairwise_enumeration(self):
        assert delta_max({G00: [0.9], G01: [0.5], G11: [0.7]}) == pytest.approx(0.4)

    def test_two_groups_reduce_to_dyadic_gap(self):
        intra, inter = [0.8, 0.6], [0.5, 0.3]
        assert delta_max({G00: intra, G01: inter}) == pytest.approx(
            delta_dp_score(intra, inter)
        )

    def test_requires_two_groups(self):
        with pytest.raises(DataError, match=exactly("need at least two non-empty groups")):
            delta_max({G00: [1.0], G01: []})


class TestTopKProportions:
    def test_count(self):
        labels = [G00] * 5 + [G01] * 3 + [G11] * 2
        dist = top_k_proportions(ranking_from_groups(labels), 10)
        assert dist.mass(G00) == 0.5 and dist.mass(G01) == 0.3 and dist.mass(G11) == 0.2

    def test_k_one_point_mass(self):
        dist = top_k_proportions(ranking_from_groups([G01, G00]), 1)
        assert dist.mass(G01) == 1.0

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_out_of_range(self, k):
        message = f"cutoff k={k} outside valid range 1..2"
        with pytest.raises(KOutOfRangeError, match=exactly(message)):
            top_k_proportions(ranking_from_groups([G01, G00]), k)

    def test_fractions_always_sum_to_one(self):
        labels = [G00, G01, G11, G00]
        for k in range(1, 5):
            dist = top_k_proportions(ranking_from_groups(labels), k)
            assert math.fsum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


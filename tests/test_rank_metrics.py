import math

import pytest

from fairlink.errors import ConfigError, KOutOfRangeError, NoPositivesError
from fairlink.rank_metrics import (
    RelevanceVector,
    average_precision,
    hits_at_k,
    ndcg_at_k,
    precision_at_k,
)


def vec(*flags, total=None):
    return RelevanceVector(tuple(bool(f) for f in flags), total if total is not None else sum(flags))


class TestPrecisionAtK:
    def test_all_relevant(self):
        assert precision_at_k(vec(1, 1, 1), 3) == 1.0

    def test_alternating(self):
        assert precision_at_k(vec(1, 0, 1, 0), 4) == 0.5

    def test_none_relevant(self):
        assert precision_at_k(vec(0, 0, 0, 1, total=1), 3) == 0.0

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            precision_at_k(vec(1), 2)
        with pytest.raises(KOutOfRangeError):
            precision_at_k(vec(1), 0)

    def test_count_consistency(self):
        rel = vec(1, 0, 1, 1, 0)
        for k in range(1, 6):
            count = precision_at_k(rel, k) * k
            assert count == pytest.approx(round(count))


class TestHitsAtK:
    def test_all_positives_recovered(self):
        assert hits_at_k(vec(1, 1, 0, 0), 2) == 1.0

    def test_half_recovered(self):
        assert hits_at_k(vec(1, 0, 1, 0, total=4), 3) == 0.5

    def test_k_zero(self):
        assert hits_at_k(vec(1), 0) == 0.0

    def test_monotone_in_k(self):
        rel = vec(0, 1, 0, 1, 1, 0, total=5)
        values = [hits_at_k(rel, k) for k in range(0, 8)]
        assert values == sorted(values)

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            hits_at_k(vec(0, 0), 1)


class TestNdcgAtK:
    def test_ideal_ordering(self):
        assert ndcg_at_k(vec(1, 1, 0, 0), 4) == 1.0

    def test_hand_value(self):
        # DCG = 1 + 1/log2(4); IDCG = 1 + 1/log2(3).
        value = ndcg_at_k(vec(1, 0, 1), 3)
        expected = (1 + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.9198, abs=1e-4)

    def test_positives_below_cutoff(self):
        assert ndcg_at_k(vec(0, 0, 1, 1), 2) == 0.0

    def test_equality_iff_front_loaded(self):
        assert ndcg_at_k(vec(1, 0, 1, 0), 4) < 1.0
        assert ndcg_at_k(vec(1, 1, 0, 0), 4) == 1.0

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            ndcg_at_k(vec(0, 0), 2)


class TestAveragePrecision:
    def test_single_positive_at_top(self):
        assert average_precision(vec(1)) == 1.0

    def test_hand_value(self):
        assert average_precision(vec(1, 0, 1)) == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)
        assert average_precision(vec(1, 0, 1)) == pytest.approx(0.8333, abs=1e-4)

    def test_single_positive_at_rank_r(self):
        for r in range(1, 6):
            flags = [0] * (r - 1) + [1]
            assert average_precision(vec(*flags)) == pytest.approx(1 / r)

    def test_pool_positives_outside_ranking(self):
        # Two positives in the pool, only one visible in the ranking.
        assert average_precision(vec(1, 0, total=2)) == pytest.approx(0.5)

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            average_precision(vec(0, 0))


class TestRelevanceVector:
    def test_bounds(self):
        rel = vec(1, 0, 1, 1, 0, total=5)
        for k in range(1, 6):
            assert 0.0 <= precision_at_k(rel, k) <= 1.0
            assert 0.0 <= hits_at_k(rel, k) <= 1.0
            assert 0.0 <= ndcg_at_k(rel, k) <= 1.0
        assert 0.0 <= average_precision(rel) <= 1.0

    def test_total_cannot_undercount_flags(self):
        with pytest.raises(ConfigError):
            RelevanceVector((True, True), total_positives=1)

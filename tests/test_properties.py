"""Property-based invariants across modules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlink.fairness import (
    kl_divergence,
    ndkl,
    ndkl_curve,
    ndkl_upper_bound,
    top_k_proportions,
)
from fairlink.graphs import (
    GroupDistribution,
    GroupId,
    SensitiveGraph,
    edge_group,
    empirical_distribution,
    stratified_split,
)
from fairlink.rank_metrics import RelevanceVector, hits_at_k, ndcg_at_k, precision_at_k

from reference import ranking_from_groups, sequence_ndkl

GROUPS = [GroupId.of(0, 0), GroupId.of(0, 1), GroupId.of(1, 1), GroupId.of(1, 2)]


@st.composite
def distributions(draw, min_mass=0.0, groups=None):
    groups = groups or GROUPS
    n = draw(st.integers(min_value=2, max_value=len(groups)))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    total = math.fsum(raw)
    floor = min_mass
    masses = [floor + (1 - n * floor) * r / total for r in raw]
    # fsum-normalize so the distribution invariant holds exactly.
    masses[-1] = 1.0 - math.fsum(masses[:-1])
    return GroupDistribution(dict(zip(groups[:n], masses)))


@st.composite
def rankings_with_target(draw, max_len=60):
    target = draw(distributions(min_mass=0.02))
    groups = sorted(target.probabilities)
    labels = draw(st.lists(st.sampled_from(groups), min_size=1, max_size=max_len))
    return ranking_from_groups(labels), target


class TestKlProperties:
    @given(distributions(min_mass=0.01), distributions(min_mass=0.01))
    def test_non_negative(self, q, p):
        common = set(q.probabilities) & set(p.probabilities)
        q_masses = {g: q.mass(g) for g in sorted(q.probabilities) if g in common or q.mass(g) == 0}
        if not common or abs(math.fsum(q_masses.values()) - 1) > 1e-9:
            return  # incomparable supports; covered by the error-path tests
        assert kl_divergence(q_masses, p.probabilities) >= 0.0

    @given(distributions(min_mass=0.01))
    def test_identity_iff_equal(self, p):
        assert kl_divergence(p, p) == 0.0
        # A genuinely different distribution over the same support diverges.
        groups = sorted(p.probabilities)
        shifted = dict(p.probabilities)
        a, b = groups[0], groups[-1]
        delta = min(shifted[a], 0.3) / 2
        shifted[a] -= delta
        shifted[b] += delta
        assert kl_divergence(shifted, p.probabilities) > 0.0


class TestNdklProperties:
    @given(rankings_with_target())
    @settings(max_examples=200)
    def test_bound_holds_for_any_ranking(self, case):
        ranking, target = case
        value = ndkl(ranking, target)
        assert 0.0 <= value <= ndkl_upper_bound(target) + 1e-12

    @given(rankings_with_target())
    def test_truncation_uses_only_the_prefix(self, case):
        ranking, target = case
        k = max(1, len(ranking) // 2)
        swapped_tail = ranking.entries[:k] + tuple(reversed(ranking.entries[k:]))
        from fairlink.fairness import Ranking

        assert ndkl(ranking, target, k_max=k) == ndkl(Ranking(swapped_tail), target, k_max=k)

    @given(rankings_with_target())
    def test_prefix_fractions_sum_to_one(self, case):
        ranking, _ = case
        for k in range(1, len(ranking) + 1):
            fractions = top_k_proportions(ranking, k).probabilities
            assert abs(math.fsum(fractions.values()) - 1.0) <= 1e-12
            assert sum(round(f * k) for f in fractions.values()) == k

    @given(rankings_with_target())
    def test_top_k_proportions_agree_with_prefixes(self, case):
        ranking, _ = case
        k = len(ranking)
        recount = {}
        for group in ranking.group_sequence():
            recount[group] = recount.get(group, 0) + 1
        dist = top_k_proportions(ranking, k)
        assert dist.probabilities == {g: c / k for g, c in recount.items()}

    @given(rankings_with_target(max_len=40))
    def test_curve_agrees_with_the_oracle_on_every_prefix(self, case):
        ranking, target = case
        labels = ranking.group_sequence()
        curve = ndkl_curve(ranking, target)
        assert len(curve) == len(labels)
        for k, value in enumerate(curve, start=1):
            assert abs(value - sequence_ndkl(labels[:k], target)) <= 1e-12


class TestUtilityProperties:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=10),
    )
    def test_hits_monotone_and_bounded(self, flags, extra_positives):
        total = sum(flags) + extra_positives
        if total == 0:
            return
        rel = RelevanceVector(tuple(flags), total)
        values = [hits_at_k(rel, k) for k in range(0, len(flags) + 3)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_precision_and_ndcg_bounded(self, flags):
        if sum(flags) == 0:
            return
        rel = RelevanceVector(tuple(flags), sum(flags))
        for k in range(1, len(flags) + 1):
            assert 0.0 <= precision_at_k(rel, k) <= 1.0
            assert 0.0 <= ndcg_at_k(rel, k) <= 1.0

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=29))
    def test_ndcg_equality_iff_front_loaded(self, length, positives):
        positives = min(positives, length)
        if positives == 0:
            return
        front = RelevanceVector(tuple(i < positives for i in range(length)), positives)
        assert ndcg_at_k(front, length) == pytest.approx(1.0, abs=1e-12)


class TestGraphProperties:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=19),
            st.integers(min_value=0, max_value=2),
            min_size=6,
            max_size=20,
        ),
        st.data(),
    )
    @settings(max_examples=50)
    def test_edge_group_partition(self, attrs, data):
        nodes = sorted(attrs)
        remap = {node: i for i, node in enumerate(nodes)}
        graph = SensitiveGraph(len(nodes), [], {remap[n]: a for n, a in attrs.items()})
        total = 0
        for g in graph.group_universe():
            total += graph.group_pair_capacity(g)
        n = len(nodes)
        assert total == n * (n - 1) // 2
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = data.draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            assert edge_group(graph, u, v) == edge_group(graph, v, u)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_split_is_a_function_of_seed(self, seed):
        from conftest import G00, G01, graph_with_group_edge_counts

        graph = graph_with_group_edge_counts({G00: 25, G01: 17})
        first = stratified_split(graph, (0.7, 0.1, 0.2), seed=seed)
        second = stratified_split(graph, (0.7, 0.1, 0.2), seed=seed)
        assert first == second
        assert first.train | first.valid | first.test == graph.edges
        dist = empirical_distribution(graph)
        for subset in (first.train, first.valid, first.test):
            by_group = graph.subgraph_with_edges(subset).edges_by_group()
            for group in graph.group_universe():
                got = len(by_group.get(group, []))
                assert abs(got - dist.mass(group) * len(subset)) <= 1.0

import hashlib
import itertools
import json
import math
import pickle
import random

import pytest

from fairlink.errors import (
    ConfigError,
    DataError,
    EmptyEdgeSetError,
    InfeasibleError,
    MalformedLineError,
    MissingAttributeError,
    SelfLoopError,
    UnknownNodeError,
)
from fairlink.graphs import (
    GroupDistribution,
    GroupId,
    SensitiveGraph,
    apportion,
    edge_group,
    empirical_distribution,
    load_graph,
    read_edge_list,
    sample_negatives,
    stratified_split,
    write_split,
)

from conftest import G00, G01, G11, exactly, graph_with_group_edge_counts
from reference import neighbors


class TestGroupId:
    def test_canonical_order(self):
        assert GroupId.of(3, 1) == GroupId.of(1, 3) == GroupId(1, 3)

    def test_label_roundtrip(self):
        assert GroupId.parse(GroupId.of(2, 0).label()) == GroupId.of(0, 2)

    def test_intra_flag(self):
        assert G00.is_intra and G11.is_intra and not G01.is_intra


class TestLoadGraph:
    def write(self, tmp_path, edge_lines, attr_lines):
        edges = tmp_path / "edges.tsv"
        attrs = tmp_path / "attrs.tsv"
        edges.write_text("\n".join(edge_lines) + "\n")
        attrs.write_text("\n".join(attr_lines) + "\n")
        return edges, attrs

    def test_triangle(self, tmp_path):
        edges, attrs = self.write(
            tmp_path, ["0\t1", "1\t2", "0\t2"], ["0\t1", "1\t1", "2\t0"]
        )
        graph = load_graph(edges, attrs)
        assert graph.node_count == 3
        assert len(graph.edges) == 3

    def test_comments_commas_duplicates(self, tmp_path):
        edges, attrs = self.write(
            tmp_path,
            ["# header", "0,1", "1\t0", "1 2"],
            ["0\t0", "1\t0", "2\t1"],
        )
        graph = load_graph(edges, attrs)
        assert graph.edges == frozenset({(0, 1), (1, 2)})

    def test_self_loop_rejected(self, tmp_path):
        edges, attrs = self.write(tmp_path, ["1\t1"], ["0\t0", "1\t0"])
        with pytest.raises(SelfLoopError) as exc:
            load_graph(edges, attrs)
        assert exc.value.line_no == 1

    def test_missing_attribute(self, tmp_path):
        edges, attrs = self.write(tmp_path, ["0\t5"], ["0\t0", "5\t1", "7\t0"])
        graph = load_graph(edges, attrs)
        assert graph.node_count == 8
        edges2, attrs2 = self.write(tmp_path, ["0\t6"], ["0\t0", "7\t0"])
        with pytest.raises(MissingAttributeError):
            load_graph(edges2, attrs2)

    def test_malformed_line(self, tmp_path):
        edges, attrs = self.write(tmp_path, ["0\t1\t2"], ["0\t0", "1\t0"])
        with pytest.raises(MalformedLineError) as exc:
            load_graph(edges, attrs)
        assert exc.value.line_no == 1

    def test_read_edge_list_rejects_negatives(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("-1\t2\n")
        with pytest.raises(MalformedLineError):
            read_edge_list(path)


class TestEdgeGroup:
    def test_by_definition(self, triangle_graph):
        assert edge_group(triangle_graph, 0, 1) == G11
        assert edge_group(triangle_graph, 1, 2) == G01

    def test_symmetry_random_pairs(self):
        rnd = random.Random(5)
        attrs = {i: rnd.randint(0, 3) for i in range(30)}
        graph = SensitiveGraph(30, [], attrs)
        for _ in range(200):
            u, v = rnd.sample(range(30), 2)
            assert edge_group(graph, u, v) == edge_group(graph, v, u)

    def test_partition_of_all_pairs(self):
        rnd = random.Random(6)
        attrs = {i: rnd.randint(0, 2) for i in range(12)}
        graph = SensitiveGraph(12, [], attrs)
        sizes = {g: 0 for g in graph.group_universe()}
        for u, v in itertools.combinations(range(12), 2):
            sizes[edge_group(graph, u, v)] += 1
        assert sum(sizes.values()) == 12 * 11 // 2

    def test_capacity_matches_enumeration(self):
        rnd = random.Random(7)
        attrs = {i: rnd.randint(0, 2) for i in range(15)}
        graph = SensitiveGraph(15, [], attrs)
        for group in graph.group_universe():
            brute = sum(
                1
                for u, v in itertools.combinations(range(15), 2)
                if edge_group(graph, u, v) == group
            )
            assert graph.group_pair_capacity(group) == brute

    def test_edges_by_group_lists_belong_to_the_caller(self):
        rnd = random.Random(8)
        attrs = {i: rnd.randint(0, 2) for i in range(20)}
        edges = [tuple(rnd.sample(range(20), 2)) for _ in range(60)]
        graph = SensitiveGraph(20, edges, attrs)
        first = graph.edges_by_group()
        for bucket in first.values():
            rnd.shuffle(bucket)
            bucket.pop()
        first.clear()
        brute: dict[GroupId, list] = {}
        for u, v in graph.edges:
            brute.setdefault(edge_group(graph, u, v), []).append((u, v))
        assert graph.edges_by_group() == {g: sorted(bucket) for g, bucket in brute.items()}


def graph_view(graph: SensitiveGraph) -> dict:
    """Everything a caller can read from a graph, as plain values."""
    universe = graph.group_universe()
    values = sorted({g.lo for g in universe} | {g.hi for g in universe})
    return {
        "edges": graph.edges,
        "edges_by_group": graph.edges_by_group(),
        "neighbors": [set(neighbors(graph, v)) for v in range(graph.node_count)],
        "adjacency": {g: dict(graph.adjacency(g)) for g in (None, *universe)},
        "universe": universe,
        "nodes_with_attribute": {value: graph.nodes_with_attribute(value) for value in values},
        "capacity": {g: graph.group_pair_capacity(g) for g in universe},
    }


class TestSubgraph:
    def parent(self) -> SensitiveGraph:
        base = graph_with_group_edge_counts(
            {G00: 40, G01: 25, G11: 15, GroupId.of(0, 2): 9, GroupId.of(2, 2): 6}
        )
        # Two unattributed nodes past the attributed ones.
        return SensitiveGraph(base.node_count + 2, base.edges, base.sensitive)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_rebuilt_graph(self, seed):
        graph = self.parent()
        before = graph_view(graph)
        rng = random.Random(seed)
        edges = sorted(graph.edges)
        subset = rng.sample(edges, rng.randint(0, len(edges)))
        # Input orientation and repeats must not matter.
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in subset]
        given += given[: len(given) // 3]
        sub = graph.subgraph_with_edges(given)
        reference = SensitiveGraph(graph.node_count, subset, graph.sensitive)
        assert graph_view(sub) == graph_view(reference)
        assert graph_view(graph) == before

    @pytest.mark.parametrize("seed", range(4))
    def test_train_graph_of_a_split_matches_a_rebuilt_graph(self, seed):
        # Indexed straight from the train slices, with no filter or regrouping.
        graph = self.parent()
        split = stratified_split(graph, (0.6, 0.1, 0.3), seed=seed)
        reference = SensitiveGraph(graph.node_count, split.train, graph.sensitive)
        assert graph_view(split.train_graph(graph)) == graph_view(reference)
        assert graph_view(graph) == graph_view(self.parent())

    @pytest.mark.parametrize("seed", range(4))
    def test_subgraph_of_a_graph_with_filled_adjacencies(self, seed):
        # Tables built from the parent first must neither leak into the
        # subgraph nor change it or the parent.
        graph = self.parent()
        graph.adjacency()
        for group in graph.group_universe():
            graph.adjacency(group)
        rng = random.Random(seed)
        subset = rng.sample(sorted(graph.edges), rng.randint(0, len(graph.edges)))
        sub = graph.subgraph_with_edges(subset)
        reference = SensitiveGraph(graph.node_count, subset, graph.sensitive)
        assert graph_view(sub) == graph_view(reference)
        assert graph_view(graph) == graph_view(self.parent())
        assert graph_view(pickle.loads(pickle.dumps(sub))) == graph_view(reference)

    def test_pooled_adjacency_is_the_union_of_the_groups(self):
        graph = self.parent()
        pooled = {}
        for u, v in graph.edges:
            pooled.setdefault(u, set()).add(v)
            pooled.setdefault(v, set()).add(u)
        assert graph.adjacency() == pooled
        for group, edges in graph.edges_by_group().items():
            assert sum(map(len, graph.adjacency(group).values())) == 2 * len(edges)
        assert graph.adjacency(GroupId.of(1, 2)) == {}

    def test_each_call_returns_the_callers_own_table(self):
        # A caller may change its table; the graph's next table is still built from its edges.
        graph = self.parent()
        brute = {}
        for u, v in graph.edges:
            for group in (None, edge_group(graph, u, v)):
                brute.setdefault(group, {}).setdefault(u, set()).add(v)
                brute[group].setdefault(v, set()).add(u)
        for group in (None, *graph.group_universe()):
            first = graph.adjacency(group)
            assert first == brute.get(group, {}) and first is not graph.adjacency(group)
            for row in first.values():
                row.clear()
            first[graph.node_count] = {0}
            assert graph.adjacency(group) == brute.get(group, {})

    def test_full_and_empty_subsets(self):
        graph = self.parent()
        assert graph_view(graph.subgraph_with_edges(graph.edges)) == graph_view(graph)
        empty = graph.subgraph_with_edges([])
        assert empty.edges == frozenset() and empty.edges_by_group() == {}
        assert empty.group_universe() == graph.group_universe()

    def test_foreign_edge_rejected(self, triangle_graph):
        path = triangle_graph.subgraph_with_edges([(0, 1), (2, 1)])
        for foreign, first in (
            ([(0, 2)], (0, 2)),
            ([(0, 1), (1, 1)], (1, 1)),
            ([(0, 3)], (0, 3)),
            ([(2, 0), (5, 7)], (0, 2)),
        ):
            with pytest.raises(DataError, match=exactly(f"{first} is not an edge of the graph")):
                path.subgraph_with_edges(foreign)

    @pytest.mark.parametrize(
        "edges, error, node",
        [
            ([(0, 1), (2, 2)], SelfLoopError, 2),
            ([(9, 9)], SelfLoopError, 9),
            ([(0, 9)], UnknownNodeError, 9),
            ([(1, 3)], MissingAttributeError, 3),
            # Both endpoints invalid: the first one given is reported.
            ([(9, 3)], UnknownNodeError, 9),
            ([(3, 9)], MissingAttributeError, 3),
            ([(0, 1), (1, 0), (3, 0)], MissingAttributeError, 3),
        ],
    )
    def test_constructor_errors(self, edges, error, node):
        # Node 3 is a node without an attribute; 9 is out of range.
        with pytest.raises(error) as exc:
            SensitiveGraph(4, edges, {0: 0, 1: 0, 2: 1})
        assert exc.value.node == node

    def test_constructor_checks_each_attribute(self):
        with pytest.raises(UnknownNodeError, match=exactly("unknown node id 9")) as exc:
            SensitiveGraph(4, [], {0: 0, 9: 1})
        assert exc.value.node == 9
        message = "attribute for node 1 must be non-negative"
        with pytest.raises(ConfigError, match=exactly(message)):
            SensitiveGraph(4, [], {0: 0, 1: -1})


class TestEmpiricalDistribution:
    def test_point_mass(self):
        graph = SensitiveGraph(3, [(0, 1), (1, 2)], {0: 1, 1: 1, 2: 1})
        dist = empirical_distribution(graph)
        assert dist.mass(G11) == 1.0

    def test_direct_count(self):
        graph = graph_with_group_edge_counts({G00: 5, G01: 3, G11: 2})
        dist = empirical_distribution(graph)
        assert dist.mass(G00) == pytest.approx(0.5)
        assert dist.mass(G01) == pytest.approx(0.3)
        assert dist.mass(G11) == pytest.approx(0.2)

    def test_absent_group_stays_listed_with_zero(self):
        graph = SensitiveGraph(3, [(0, 1)], {0: 0, 1: 0, 2: 1})
        dist = empirical_distribution(graph)
        assert dist.mass(G01) == 0.0
        assert G01 in dist.probabilities and G11 in dist.probabilities

    def test_empty_edges(self, triangle_graph):
        with pytest.raises(EmptyEdgeSetError):
            empirical_distribution(triangle_graph.subgraph_with_edges([]))


class TestGroupDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GroupDistribution({G00: 0.5, G01: 0.6})

    def test_no_negative_mass(self):
        with pytest.raises(ConfigError):
            GroupDistribution({G00: 1.2, G01: -0.2})

    def test_smoothed_keeps_sum(self):
        dist = GroupDistribution({G00: 1.0, G01: 0.0})
        smoothed = dist.smoothed()
        assert math.fsum(smoothed.probabilities.values()) == pytest.approx(1.0, abs=1e-15)
        assert smoothed.mass(G01) > 0

    def test_label_dict_names_each_group_once(self):
        dist = GroupDistribution.from_label_dict({"0-0": 0.5, "1-0": 0.5})
        assert dist.probabilities == {G00: 0.5, G01: 0.5}
        for repeated in ({"0-1": 0.5, "1-0": 0.5}, {"0-0": 0.4, "00-0": 0.4, "0-1": 0.2}):
            with pytest.raises(ConfigError, match="given twice"):
                GroupDistribution.from_label_dict(repeated)

    def test_label_dict_masses_are_numbers(self):
        for mass in ("1", True, None, [1.0]):
            with pytest.raises(ConfigError):
                GroupDistribution.from_label_dict({"0-0": mass})

    def test_masses_are_finite(self):
        for masses in (
            {G00: math.nan, G01: 1.0},
            {G00: math.nan, G01: 0.5, G11: 0.5},
            {G00: math.inf, G01: -math.inf, G11: 1.0},
            {G00: math.inf, G01: 0.0},
        ):
            with pytest.raises(ConfigError, match="mass of"):
                GroupDistribution(masses)
            labels = {g.label(): p for g, p in masses.items()}
            with pytest.raises(ConfigError, match="mass of"):
                GroupDistribution.from_label_dict(labels)

    def test_masses_stored_as_floats(self):
        dist = GroupDistribution({G00: 1, G01: 0})
        assert dist.probabilities == {G00: 1.0, G01: 0.0}
        assert all(type(p) is float for p in dist.probabilities.values())


class TestApportion:
    def test_exact_total(self):
        assert sum(apportion(97, [0.5, 0.3, 0.2])) == 97

    def test_largest_remainder(self):
        assert apportion(10, [0.5, 0.3, 0.2]) == [5, 3, 2]
        assert apportion(4, [0.5, 0.5]) == [2, 2]

    def test_zero_total_needs_no_weight(self):
        assert apportion(0, [0.0, 0.0]) == [0, 0]
        assert apportion(0, [0.0], caps=[0]) == [0]

    def test_caps_respected(self):
        parts = apportion(10, [0.9, 0.1], caps=[4, 10])
        assert parts[0] <= 4 and sum(parts) == 10

    def test_zero_weight_gets_nothing_even_with_spare_cap(self):
        # The capped first entry's unit goes past the zero-weight middle one.
        assert apportion(4, [0.5, 0.0, 0.5], caps=[1, 5, 5]) == [1, 0, 3]

    @pytest.mark.parametrize(
        "total, weights, caps, message",
        [
            (-1, [1.0], None, "total must be >= 0"),
            (5, [0.0, 0.0], None, "weights must have positive sum"),
            (5, [1.0, 1.0], [2, 2], "positive-weight caps sum to 4, cannot hold 5"),
            # A zero-weight entry's cap holds nothing.
            (5, [1.0, 0.0], [2, 10], "positive-weight caps sum to 2, cannot hold 5"),
        ],
    )
    def test_rejected(self, total, weights, caps, message):
        with pytest.raises(ValueError, match=exactly(message)):
            apportion(total, weights, caps)


class TestStratifiedSplit:
    def test_single_group_sizes(self):
        graph = graph_with_group_edge_counts({G00: 100})
        split = stratified_split(graph, (0.7, 0.1, 0.2), seed=1)
        assert (len(split.train), len(split.valid), len(split.test)) == (70, 10, 20)

    def test_deterministic(self):
        graph = graph_with_group_edge_counts({G00: 40, G01: 25, G11: 15})
        a = stratified_split(graph, (0.7, 0.1, 0.2), seed=9)
        b = stratified_split(graph, (0.7, 0.1, 0.2), seed=9)
        assert a == b
        c = stratified_split(graph, (0.7, 0.1, 0.2), seed=10)
        assert a != c

    def test_disjoint_and_covering(self):
        graph = graph_with_group_edge_counts({G00: 33, G01: 21, G11: 11})
        split = stratified_split(graph, (0.7, 0.1, 0.2), seed=3)
        union = split.train | split.valid | split.test
        assert union == graph.edges
        assert len(split.train) + len(split.valid) + len(split.test) == len(graph.edges)
        # Each subset is kept as cut: one sorted slice per group, of apportion's size.
        assert list(split.slices) == ["train", "valid", "test"]
        for group, edges in graph.edges_by_group().items():
            parts = apportion(len(edges), (0.7, 0.1, 0.2))
            for part, by_group in zip(parts, split.slices.values()):
                got = by_group.get(group, ())
                assert len(got) == part
                assert list(got) == sorted(got)
                assert all(edge_group(graph, u, v) == group for u, v in got)
        for name, by_group in split.slices.items():
            assert all(by_group.values())
            assert frozenset().union(*by_group.values()) == getattr(split, name)

    def test_group_proportions_preserved(self):
        # Exhaustively recount the test subset's per-group proportions.
        graph = graph_with_group_edge_counts({G00: 500, G01: 300, G11: 200})
        split = stratified_split(graph, (0.7, 0.1, 0.2), seed=4)
        target = empirical_distribution(graph)
        for subset in (split.train, split.valid, split.test):
            by_group = graph.subgraph_with_edges(subset).edges_by_group()
            for group in graph.group_universe():
                got = len(by_group.get(group, []))
                want = target.mass(group) * len(subset)
                assert abs(got - want) <= 1.0

    def test_group_too_small(self):
        graph = graph_with_group_edge_counts({G00: 10, G01: 2})
        with pytest.raises(InfeasibleError, match=exactly("group 0-1 has 2 edges, need at least 3")):
            stratified_split(graph, (0.7, 0.1, 0.2), seed=0)

    def test_bad_ratios(self, triangle_graph):
        with pytest.raises(ConfigError):
            stratified_split(triangle_graph, (0.5, 0.5, 0.5), seed=0)
        message = "ratios must be three positive numbers, got (0.5, 0.5)"
        with pytest.raises(ConfigError, match=exactly(message)):
            stratified_split(triangle_graph, (0.5, 0.5), seed=0)


def union(keyed: dict) -> frozenset:
    """All pairs of a group-keyed sample."""
    return frozenset().union(*keyed.values())


class TestSampleNegatives:
    def test_negative_request_rejected(self, triangle_graph):
        message = "negative request -1 for group 0-1"
        with pytest.raises(ConfigError, match=exactly(message)):
            sample_negatives(triangle_graph, {G01: -1}, seed=0)

    def test_complete_graph_has_no_non_edges(self):
        nodes = {i: 0 for i in range(5)}
        graph = SensitiveGraph(5, list(itertools.combinations(range(5), 2)), nodes)
        message = exactly("group 0-0 has only 0 non-edges, 1 requested")
        with pytest.raises(InfeasibleError, match=message):
            sample_negatives(graph, {G00: 1}, seed=0)

    def test_only_candidate_pair(self):
        graph = SensitiveGraph(4, [], {0: 1, 1: 1, 2: 0, 3: 0})
        got = union(sample_negatives(graph, {G11: 1}, seed=0))
        assert got == frozenset({(0, 1)})

    def test_membership_recheck_oracle(self):
        # Every returned pair re-verified non-edge and group-correct by lookup.
        rnd = random.Random(11)
        attrs = {i: rnd.randint(0, 1) for i in range(1000)}
        edges = set()
        while len(edges) < 3000:
            u, v = rnd.sample(range(1000), 2)
            edges.add((min(u, v), max(u, v)))
        graph = SensitiveGraph(1000, edges, attrs)
        request = {G00: 500, G01: 500, G11: 500}
        got = union(sample_negatives(graph, request, seed=21))
        assert len(got) == 1500
        counts = {g: 0 for g in request}
        for u, v in got:
            assert u < v
            assert (u, v) not in graph.edges
            counts[edge_group(graph, u, v)] += 1
        assert counts == request

    def test_deterministic(self):
        graph = graph_with_group_edge_counts({G00: 20, G01: 10})
        a = sample_negatives(graph, {G00: 7, G11: 3}, seed=5)
        b = sample_negatives(graph, {G00: 7, G11: 3}, seed=5)
        assert a == b

    @staticmethod
    def random_graph(seed: int, nodes: int, edges: int, values: int) -> SensitiveGraph:
        rnd = random.Random(seed)
        attrs = {i: rnd.randrange(values) for i in range(nodes)}
        chosen = set()
        while len(chosen) < edges:
            u, v = rnd.sample(range(nodes), 2)
            chosen.add((min(u, v), max(u, v)))
        return SensitiveGraph(nodes, chosen, attrs)

    # sha256 prefixes of repr(sorted(pairs)) for the frozenset that
    # sample_negatives returned before it keyed its pairs by group. Case 0
    # samples by rejection; case 1 enumerates 0-0 and 0-1, rejects for
    # 1-2 and requests nothing of 2-2.
    PINNED = {
        (0, 0): "2e55377d70b39aa3",
        (0, 1): "4435d5e69725a39e",
        (0, 17): "8c33843af5ad5ae4",
        (1, 0): "fae034c7a02a4429",
        (1, 1): "931582d4afa57bb5",
        (1, 17): "bfbb41986f176429",
    }

    def pinned_cases(self):
        return [
            (self.random_graph(11, 1000, 3000, 2), {G00: 500, G01: 500, G11: 500}),
            (
                self.random_graph(12, 60, 700, 3),
                {G00: 100, G01: 150, GroupId.of(1, 2): 40, GroupId.of(2, 2): 0},
            ),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_keyed_union_matches_the_flat_draws(self, seed):
        for case, (graph, request) in enumerate(self.pinned_cases()):
            got = sample_negatives(graph, request, seed=seed)
            digest = hashlib.sha256(repr(sorted(union(got))).encode()).hexdigest()[:16]
            assert digest == self.PINNED[case, seed]
            assert got.keys() == request.keys()
            for group, pairs in got.items():
                assert len(pairs) == request[group]
                assert all(edge_group(graph, u, v) == group for u, v in pairs)

    @staticmethod
    def bucket_graph(sizes, edges: int, seed: int) -> SensitiveGraph:
        """Attribute value i on ``sizes[i]`` consecutive nodes, and ``edges`` random edges."""
        rnd = random.Random(seed)
        attrs = {}
        for value, size in enumerate(sizes):
            attrs.update(dict.fromkeys(range(len(attrs), len(attrs) + size), value))
        chosen = set()
        while len(chosen) < edges:
            u, v = rnd.sample(range(len(attrs)), 2)
            chosen.add((min(u, v), max(u, v)))
        return SensitiveGraph(len(attrs), chosen, attrs)

    # Intra draws by rejection from buckets of 5, 21 and 22 nodes: the two
    # sides of the 21-item line where Random.sample changes method.
    PINNED_SMALL_BUCKETS = {0: "02e6028fefb34b49", 1: "0acf1e7bc239283c", 17: "2ffa6b87b99f06d1"}

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_small_bucket_intra_draws_are_pinned(self, seed):
        graph = self.bucket_graph((5, 21, 22), 60, seed=3)
        request = {G00: 2, G11: 40, GroupId.of(2, 2): 40, GroupId.of(0, 2): 10}
        for group, requested in request.items():
            available = graph.group_pair_capacity(group) - len(graph._edge_groups.get(group, ()))
            assert requested * 3 <= available  # the rejection path
        got = sample_negatives(graph, request, seed=seed)
        digest = hashlib.sha256(repr(sorted(union(got))).encode()).hexdigest()[:16]
        assert digest == self.PINNED_SMALL_BUCKETS[seed]
        for group, pairs in got.items():
            assert len(pairs) == request[group]
            assert all(edge_group(graph, u, v) == group for u, v in pairs)

    @pytest.mark.parametrize(
        "seed, pairs",
        # Rejection finds (40, 41) for seed 0 and nothing for seed 2 before it stalls.
        [(0, [(40, 41), (100, 299)]), (2, [(0, 1), (40, 41)])],
    )
    def test_stalled_rejection_falls_back_to_enumeration(self, seed, pairs):
        # 300 nodes of one value and every pair an edge but six: 2 of 6 non-edges
        # pass the rejection test, but 10,200 draws over 44,850 pairs rarely find both.
        missing = {(0, 1), (5, 77), (40, 41), (100, 299), (150, 151), (200, 250)}
        edges = [p for p in itertools.combinations(range(300), 2) if p not in missing]
        graph = SensitiveGraph(300, edges, dict.fromkeys(range(300), 0))
        assert sorted(sample_negatives(graph, {G00: 2}, seed=seed)[G00]) == pairs

    def test_exhaustive_request_succeeds(self):
        # Request every available non-edge; forces the enumeration path.
        graph = SensitiveGraph(6, [(0, 1)], {i: 0 for i in range(6)})
        available = 6 * 5 // 2 - 1
        got = union(sample_negatives(graph, {G00: available}, seed=2))
        assert len(got) == available


class TestSplitFiles:
    def test_roundtrip_and_manifest(self, tmp_path):
        graph = graph_with_group_edge_counts({G00: 30, G01: 12, G11: 8})
        split = stratified_split(graph, (0.7, 0.1, 0.2), seed=13)
        paths = write_split(tmp_path, graph, split)
        for name in ("train", "valid", "test"):
            edges = frozenset(read_edge_list(paths[name]))
            assert edges == getattr(split, name)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["seed"] == 13
        assert manifest["ratios"] == [0.7, 0.1, 0.2]
        total = sum(sum(v.values()) for v in manifest["per_group_counts"].values())
        assert total == len(graph.edges)

    def test_manifest_counts_match_a_recount(self, tmp_path):
        # Three 1-1 edges split 0.7/0.1/0.2 leave the valid subset none of them.
        graph = graph_with_group_edge_counts({G00: 30, G01: 12, G11: 3})
        split = stratified_split(graph, (0.7, 0.1, 0.2), seed=13)
        paths = write_split(tmp_path, graph, split)
        recount: dict[str, dict[str, int]] = {}
        for name in ("train", "valid", "test"):
            for u, v in getattr(split, name):
                counts = recount.setdefault(edge_group(graph, u, v).label(), {})
                counts[name] = counts.get(name, 0) + 1
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["per_group_counts"] == recount
        assert "valid" not in manifest["per_group_counts"]["1-1"]

import math
import random

import pytest

from fairlink.errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicatePairError,
    MalformedLineError,
    MissingAttributeError,
    MissingEmbeddingError,
    SelfLoopError,
    UnknownNodeError,
)
from fairlink.graphs import GroupId, SensitiveGraph, canonical_edge, edge_group, stratified_split
from fairlink.pipeline import RunConfig, build_candidates
from fairlink.scorers import (
    embedding_dot,
    ingest_scores,
    load_embeddings,
    score_candidates,
)
from fairlink.synth import biased_block_graph

from conftest import G00, G01, G11
from reference import (
    adamic_adar,
    check_chain_candidates,
    common_neighbors,
    reference_score_candidates,
)


class TestCommonNeighbors:
    def test_triangle_pair(self, triangle_graph):
        assert common_neighbors(triangle_graph, 0, 1) == 1.0

    def test_disconnected_pair(self):
        graph = SensitiveGraph(4, [(0, 1)], {i: 0 for i in range(4)})
        assert common_neighbors(graph, 2, 3) == 0.0

    def test_star_graph(self, star_graph):
        assert common_neighbors(star_graph, 0, 1) == 0.0  # center-leaf
        assert common_neighbors(star_graph, 1, 2) == 1.0  # leaf-leaf via hub

    def test_unknown_node(self, triangle_graph):
        with pytest.raises(UnknownNodeError):
            common_neighbors(triangle_graph, 0, 99)


class TestAdamicAdar:
    def test_no_shared_neighbors(self, star_graph):
        assert adamic_adar(star_graph, 0, 1) == 0.0

    def test_single_shared_neighbor_degree_two(self):
        # Path 0-1-2: node 1 has degree 2.
        graph = SensitiveGraph(3, [(0, 1), (1, 2)], {i: 0 for i in range(3)})
        assert adamic_adar(graph, 0, 2) == pytest.approx(1.4427, abs=1e-4)

    def test_two_shared_neighbors_degrees_two_three(self):
        # Shared neighbors of (0, 1): node 2 with degree 2, node 3 with degree 3.
        graph = SensitiveGraph(
            5, [(0, 2), (1, 2), (0, 3), (1, 3), (3, 4)], {i: 0 for i in range(5)}
        )
        expected = 1 / math.log(2) + 1 / math.log(3)
        assert adamic_adar(graph, 0, 1) == pytest.approx(expected, abs=1e-12)
        assert adamic_adar(graph, 0, 1) == pytest.approx(2.3530, abs=1e-3)


class TestEmbeddingDot:
    def test_basis_vectors(self):
        emb = {0: (1.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}
        assert embedding_dot(emb, 0, 1) == 1.0
        assert embedding_dot(emb, 0, 2) == 0.0

    def test_hand_arithmetic(self):
        emb = {0: (1.0, 2.0), 1: (3.0, -1.0)}
        assert embedding_dot(emb, 0, 1) == 1.0

    def test_missing_and_mismatch(self):
        emb = {0: (1.0,), 1: (1.0, 2.0)}
        with pytest.raises(MissingEmbeddingError):
            embedding_dot(emb, 0, 9)
        with pytest.raises(DimensionMismatchError):
            embedding_dot(emb, 0, 1)

    def test_load_embeddings(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\n0 1.0 0.0 2.0\n1 0.5 0.5 0.5\n")
        emb = load_embeddings(path)
        assert emb[0] == (1.0, 0.0, 2.0)
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3\n0 1.0\n")
        with pytest.raises(MalformedLineError):
            load_embeddings(bad)


def mixed_graph() -> SensitiveGraph:
    """Two attribute-1 nodes and two attribute-0 nodes, plus bridges.

    Edges: (0,1) in G11, (2,3) in G00, (0,2) and (1,3) in G01.
    """
    return SensitiveGraph(
        4, [(0, 1), (2, 3), (0, 2), (1, 3)], {0: 1, 1: 1, 2: 0, 3: 0}
    )


def keyed(graph: SensitiveGraph, pairs) -> dict[GroupId, list]:
    """Pairs, canonical, filed under their own groups, in input order."""
    out: dict[GroupId, list] = {}
    for u, v in pairs:
        out.setdefault(edge_group(graph, u, v), []).append(canonical_edge(u, v))
    return out


def scored(graph: SensitiveGraph, pairs, scorer, *, positives=frozenset(), **kwargs):
    """``score_candidates`` on ``pairs``, those in ``positives`` keyed as the positives."""
    relevant = [p for p in pairs if canonical_edge(*p) in positives]
    others = [p for p in pairs if canonical_edge(*p) not in positives]
    return score_candidates(graph, keyed(graph, relevant), keyed(graph, others), scorer, **kwargs)


class TestScoreCandidates:
    def test_empty_candidates(self, triangle_graph):
        result = score_candidates(triangle_graph, {}, {}, "adamic_adar", decoupled=False)
        assert result.total() == 0

    def test_routing_and_sorting(self):
        graph = mixed_graph()
        result = scored(graph, [(0, 1), (2, 3), (0, 3)], "common_neighbors", decoupled=False)
        for group, bucket in result.lists.items():
            scores = [c.score for c in bucket]
            assert scores == sorted(scores, reverse=True)
            assert all(c.group == group for c in bucket)

    def test_decoupled_noop_when_groups_disconnected(self):
        # Components per attribute: no cross-group edges at all.
        graph = SensitiveGraph(
            6, [(0, 1), (1, 2), (3, 4), (4, 5)], {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        )
        pairs = [(0, 2), (3, 5)]
        plain = scored(graph, pairs, "common_neighbors", decoupled=False)
        restricted = scored(graph, pairs, "common_neighbors", decoupled=True)
        for group in plain.groups():
            assert [c.score for c in plain.lists[group]] == [
                c.score for c in restricted.lists[group]
            ]

    def test_decoupled_counts_same_group_edges_only(self):
        # Hand-restricted subgraph: keeping only G11 edges of this graph
        # leaves 4-5 and 5-6, so (4, 6) has exactly one shared neighbor;
        # the full graph adds a second path through node 0.
        graph = SensitiveGraph(
            7,
            [(4, 5), (5, 6), (4, 0), (0, 6), (0, 1)],
            {0: 0, 1: 0, 4: 1, 5: 1, 6: 1, 2: 0, 3: 0},
        )
        plain = scored(graph, [(4, 6)], "common_neighbors", decoupled=False)
        restricted = scored(graph, [(4, 6)], "common_neighbors", decoupled=True)
        assert plain.lists[G11][0].score == 2.0
        assert restricted.lists[G11][0].score == 1.0

    def test_decoupled_inter_pairs_have_no_mono_attribute_paths(self):
        # With a binary attribute a shared neighbor cannot be reached from
        # both endpoints of an inter pair using inter edges alone.
        graph = mixed_graph()
        restricted = scored(graph, [(0, 3), (1, 2)], "adamic_adar", decoupled=True)
        assert all(c.score == 0.0 for c in restricted.lists[G01])

    def test_relevance_flags(self):
        graph = mixed_graph()
        result = score_candidates(
            graph, {G01: [(0, 3)]}, {G11: [(0, 1)]}, "adamic_adar", decoupled=False
        )
        flags = {c.pair: c.relevance for c in result.all_candidates()}
        assert flags == {(0, 1): False, (0, 3): True}

    def test_purity(self):
        graph = mixed_graph()
        pairs = [(0, 1), (2, 3), (0, 3), (1, 2)]
        first = scored(graph, pairs, "adamic_adar", decoupled=True)
        second = scored(graph, pairs, "adamic_adar", decoupled=True)
        assert first.all_candidates() == second.all_candidates()

    def test_unknown_scorer(self, triangle_graph):
        with pytest.raises(ConfigError):
            score_candidates(triangle_graph, {}, {G11: [(0, 1)]}, "katz", decoupled=False)

    def test_duplicate_candidates_rejected(self, triangle_graph):
        # (0, 1) filed as a positive and as a negative: its relevance is ambiguous.
        with pytest.raises(DuplicatePairError):
            score_candidates(
                triangle_graph, {G11: [(0, 1)]}, {G11: [(0, 1)]}, "adamic_adar", decoupled=False
            )

    def test_tie_break_is_lexicographic(self):
        graph = SensitiveGraph(5, [], {i: 0 for i in range(5)})
        result = score_candidates(
            graph, {}, {G00: [(2, 3), (0, 1), (1, 4)]}, "common_neighbors", decoupled=False
        )
        pairs = [c.pair for c in result.lists[G00]]
        assert pairs == [(0, 1), (1, 4), (2, 3)]  # all scores 0, sorted by pair


def seeded_instance(seed: int):
    """A random graph over three attribute values, and candidate pairs drawn from it.

    Two nodes carry no attribute and no edge. The pairs mix edges and
    non-edges in random orientation; about a third are positives.
    """
    rnd = random.Random(seed)
    nodes = rnd.randint(20, 80)
    attrs = {i: rnd.randrange(3) for i in range(nodes)}
    edges = set()
    for _ in range(rnd.randint(nodes, 6 * nodes)):
        u, v = rnd.sample(range(nodes), 2)
        edges.add(canonical_edge(u, v))
    graph = SensitiveGraph(nodes + 2, edges, attrs)
    pairs = set()
    for _ in range(rnd.randint(1, 4 * nodes)):
        u, v = rnd.sample(range(nodes), 2)
        pairs.add(canonical_edge(u, v))
    pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in sorted(pairs)]
    positives = frozenset(p for p in pairs if rnd.random() < 0.3)
    embeddings = {i: tuple(rnd.uniform(-1, 1) for _ in range(4)) for i in range(nodes)}
    return graph, pairs, positives, embeddings


class TestScoringDifferential:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "scorer, decoupled",
        [
            ("common_neighbors", False),
            ("common_neighbors", True),
            ("adamic_adar", False),
            ("adamic_adar", True),
            ("embedding", False),
        ],
    )
    def test_equals_reference(self, seed, scorer, decoupled):
        graph, pairs, positives, embeddings = seeded_instance(seed)
        want = reference_score_candidates(
            graph, pairs, scorer, decoupled=decoupled, positives=positives, embeddings=embeddings
        )
        got = scored(
            graph,
            pairs,
            scorer,
            decoupled=decoupled,
            positives={canonical_edge(*p) for p in positives},
            embeddings=embeddings,
        )
        assert got == want

    @pytest.mark.parametrize("seed", range(4))
    def test_single_pair_functions_agree(self, seed):
        graph, pairs, _, _ = seeded_instance(seed)
        got = scored(graph, pairs, "adamic_adar", decoupled=False)
        cn = scored(graph, pairs, "common_neighbors", decoupled=False)
        for cand in got.all_candidates():
            assert cand.score == adamic_adar(graph, cand.u, cand.v)
        for cand in cn.all_candidates():
            assert cand.score == common_neighbors(graph, cand.u, cand.v)


class TestChainCandidates:
    """``build_candidates`` on split, seeded graphs: the set it hands on holds
    every invariant that ``score_candidates`` no longer checks, and equals the
    reference scoring of the same pairs."""

    @staticmethod
    def chain(seed: int, scorer: str, decoupled: bool):
        rnd = random.Random(seed)
        counts = {value: rnd.randint(10, 25) for value in range(rnd.randint(2, 4))}
        probs = {
            GroupId.of(a, b): rnd.uniform(0.2, 0.4) for a in counts for b in counts if a <= b
        }
        graph = biased_block_graph(counts, probs, seed=seed)
        embeddings = {i: tuple(rnd.uniform(-1, 1) for _ in range(4)) for i in graph.sensitive}
        config = RunConfig(
            edges_path="edges.tsv",
            attrs_path="attrs.tsv",
            scorer=scorer,
            decoupled=decoupled,
            embeddings_path="embeddings.txt",
            negatives_per_positive=rnd.choice([0.5, 1.0, 2.0]),
        )
        split = stratified_split(graph, seed=seed)
        train = split.train_graph(graph)
        test = split.slices["test"]
        got = build_candidates(config, graph, train, test, seed, embeddings=embeddings)
        return graph, train, split.test, embeddings, got

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "scorer, decoupled",
        [
            ("common_neighbors", False),
            ("common_neighbors", True),
            ("adamic_adar", False),
            ("adamic_adar", True),
            ("embedding", False),
            ("embedding", True),
        ],
    )
    def test_invariants_and_reference(self, seed, scorer, decoupled):
        graph, train, test_edges, embeddings, got = self.chain(seed, scorer, decoupled)
        check_chain_candidates(got, graph, test_edges)
        assert {c.pair for c in got.all_candidates() if c.relevance} == test_edges
        want = reference_score_candidates(
            train,
            [c.pair for c in got.all_candidates()],
            scorer,
            decoupled=decoupled,
            positives=test_edges,
            embeddings=embeddings,
        )
        assert got == want


class TestKeyedCandidates:
    # Node 3 is unattributed, node 9 does not exist; (0, 1) is a 1-1 pair.
    GRAPH = SensitiveGraph(5, [(0, 1), (1, 2), (2, 4)], {0: 1, 1: 1, 2: 0, 4: 0})

    def test_empty_group_gets_no_list(self):
        result = score_candidates(
            self.GRAPH, {G00: []}, {G11: [(0, 1)]}, "common_neighbors", decoupled=False
        )
        assert result.groups() == (G11,)

    # The second copy of (0, 1) is another positive, or a negative.
    @pytest.mark.parametrize("second", [([(0, 1)], []), ([], [(0, 1)])])
    def test_pair_filed_twice(self, second):
        more_positives, negatives = second
        with pytest.raises(DuplicatePairError) as exc:
            score_candidates(
                self.GRAPH, {G11: [(0, 1), *more_positives]}, {G11: negatives},
                "common_neighbors", decoupled=False,
            )
        assert str(exc.value) == "duplicate pair (0, 1)"

    def test_non_finite_embedding_score(self, tmp_path):
        # 1e200 * 1e200 overflows to inf: the pair (0, 1) scores non-finite.
        path = tmp_path / "emb.txt"
        path.write_text("5 2\n0 1e200 0.0\n1 1e200 1.0\n2 1.0 0.0\n3 0.0 1.0\n4 1.0 0.0\n")
        embeddings = load_embeddings(path)
        with pytest.raises(ConfigError, match=r"non-finite score for \(0, 1\)"):
            score_candidates(
                self.GRAPH, {G11: [(0, 1)]}, {}, "embedding", decoupled=False, embeddings=embeddings
            )

    @pytest.mark.parametrize(
        "embeddings, error",
        [
            (None, ConfigError),
            ({0: (1.0,), 1: (1.0,), 2: (1.0,)}, MissingEmbeddingError),
            ({0: (1.0,), 1: (1.0, 2.0), 2: (1.0,), 4: (1.0,)}, DimensionMismatchError),
        ],
    )
    def test_embedding_errors_still_raise(self, embeddings, error):
        # No vectors at all, none for node 4, or vectors of two lengths.
        with pytest.raises(error):
            score_candidates(
                self.GRAPH, {}, {G00: [(2, 4)], G11: [(0, 1)]}, "embedding",
                decoupled=False, embeddings=embeddings,
            )


class TestIngestScores:
    def test_single_line_with_relevance(self, tmp_path, triangle_graph):
        path = tmp_path / "scores.tsv"
        path.write_text("0\t1\t0.9\n")
        result = ingest_scores(path, triangle_graph, [(0, 1)])
        (cand,) = result.all_candidates()
        assert cand.relevance and cand.score == 0.9 and cand.group == G11

    def test_duplicate_pair(self, tmp_path, triangle_graph):
        path = tmp_path / "scores.tsv"
        path.write_text("0\t1\t0.9\n1\t0\t0.3\n")
        with pytest.raises(DuplicatePairError):
            ingest_scores(path, triangle_graph, [])

    def test_groups_partition_file(self, tmp_path):
        graph = mixed_graph()
        path = tmp_path / "scores.tsv"
        lines = ["0\t1\t0.9", "2\t3\t0.8", "0\t2\t0.7", "0\t3\t0.6", "1\t2\t0.5", "1\t3\t0.4"]
        path.write_text("\n".join(lines) + "\n")
        result = ingest_scores(path, graph, [])
        assert sum(len(b) for b in result.lists.values()) == 6
        assert set(result.groups()) == {G00, G01, G11}

    def test_malformed_and_unknown(self, tmp_path, triangle_graph):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\n")
        with pytest.raises(MalformedLineError):
            ingest_scores(bad, triangle_graph, [])
        unknown = tmp_path / "unknown.tsv"
        unknown.write_text("0\t42\t1.0\n")
        with pytest.raises(UnknownNodeError):
            ingest_scores(unknown, triangle_graph, [])

    def test_self_loop_names_its_line(self, tmp_path, triangle_graph):
        path = tmp_path / "loop.tsv"
        path.write_text("# header\n0\t1\t0.9\n2\t2\t0.5\n")
        with pytest.raises(SelfLoopError) as exc:
            ingest_scores(path, triangle_graph, [])
        assert exc.value.node == 2 and exc.value.line_no == 3

    @pytest.mark.parametrize(
        "bad, error, node",
        [("42\t0\t0.5", UnknownNodeError, 42), ("0\t3\t0.5", MissingAttributeError, 3)],
    )
    def test_unknown_or_unattributed_node_names_its_line(self, tmp_path, bad, error, node):
        # Node 3 exists but has no attribute; node 42 does not exist.
        graph = SensitiveGraph(4, [(0, 1), (1, 2)], {0: 1, 1: 1, 2: 0})
        path = tmp_path / "scores.tsv"
        path.write_text(f"# header\n0\t1\t0.9\n{bad}\n")
        with pytest.raises(error) as exc:
            ingest_scores(path, graph, [])
        assert exc.value.node == node and exc.value.line_no == 3
        assert "(line 3)" in str(exc.value)

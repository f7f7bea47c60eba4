"""The synthetic block-graph generator: its draws, its blocks and its boundary."""

import itertools
import math
import random

import pytest

from fairlink.errors import ConfigError
from fairlink.graphs import GroupId
from fairlink.synth import biased_block_graph

from conftest import G00, G01, G11

G02, G12, G22 = GroupId.of(0, 2), GroupId.of(1, 2), GroupId.of(2, 2)


def reference_edges(counts, probs, seed):
    """The documented draw order written out: each block's pairs listed by pair index k."""
    rng = random.Random(seed)
    ids, next_id = {}, 0
    for value in sorted(counts):
        ids[value] = range(next_id, next_id + counts[value])
        next_id += counts[value]
    edges = set()
    for a, b in itertools.combinations_with_replacement(sorted(counts), 2):
        if a == b:  # k = j(j-1)/2 + i
            pairs = [(ids[a][i], ids[a][j]) for j in range(counts[a]) for i in range(j)]
        else:  # k = i * |b| + j
            pairs = [(u, v) for u in ids[a] for v in ids[b]]
        p, k = probs.get(GroupId.of(a, b), 0.0), -1
        if p == 1.0:
            edges.update(pairs)
        while 0.0 < p < 1.0:
            k += 1 + math.floor(math.log(1.0 - rng.random()) / math.log1p(-p))
            if k >= len(pairs):
                break
            edges.add(pairs[k])
    return edges


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draw_order_matches_the_written_out_reference(seed):
    counts = {2: 9, 0: 12, 1: 7}
    probs = {G00: 0.3, G01: 0.1, G02: 1.0, G11: 0.0, G12: 0.6, G22: 0.45}
    assert biased_block_graph(counts, probs, seed=seed).edges == reference_edges(counts, probs, seed)


def test_p_one_takes_every_pair_of_every_block():
    counts = {2: 5, 0: 4, 1: 3}
    graph = biased_block_graph(counts, dict.fromkeys([G00, G01, G02, G11, G12, G22], 1.0), seed=3)
    # Ids are contiguous in ascending attribute order.
    nodes = {0: range(0, 4), 1: range(4, 7), 2: range(7, 12)}
    assert graph.node_count == 12
    assert graph.sensitive == {node: value for value, ids in nodes.items() for node in ids}
    expected = {}
    for a, b in itertools.combinations_with_replacement(sorted(nodes), 2):
        if a == b:
            pairs = itertools.combinations(nodes[a], 2)
        else:
            pairs = itertools.product(nodes[a], nodes[b])
        expected[GroupId.of(a, b)] = sorted(pairs)
    assert graph.edges_by_group() == expected
    for group, edges in expected.items():
        na, nb = counts[group.lo], counts[group.hi]
        assert len(edges) == (na * (na - 1) // 2 if group.is_intra else na * nb)


def test_p_zero_or_absent_block_draws_nothing():
    counts = {0: 60, 1: 40}
    probs = {G00: 0.2, G01: 0.05, G11: 0.3}
    for silent in probs:
        assert biased_block_graph(counts, probs, seed=11).edges_by_group()[silent]
        zero = biased_block_graph(counts, {**probs, silent: 0.0}, seed=11)
        absent = biased_block_graph(counts, {g: p for g, p in probs.items() if g != silent}, seed=11)
        assert silent not in zero.edges_by_group()
        assert zero.edges == absent.edges
    # 0-0 and 0-1 are drawn before 1-1; taking no draw, they leave its edges as drawn alone.
    alone = biased_block_graph({1: 40}, {G11: 0.3}, seed=11)
    for silent in ({G00: 0.0, G01: 0.0}, {}):
        graph = biased_block_graph(counts, {**silent, G11: 0.3}, seed=11)
        assert graph.edges == {(u + 60, v + 60) for u, v in alone.edges}


def test_same_seed_same_edges():
    counts, probs = {0: 90, 1: 60}, {G00: 0.10, G01: 0.02, G11: 0.09}
    first = biased_block_graph(counts, probs, seed=5)
    assert biased_block_graph(counts, probs, seed=5).edges == first.edges
    assert biased_block_graph(counts, probs, seed=6).edges != first.edges


@pytest.mark.parametrize("p", [0.01, 0.3, 0.9])
def test_block_edge_counts_are_binomial(p):
    # A gap off by one shifts the count by far more than four standard deviations.
    counts = {0: 150, 1: 100}
    graph = biased_block_graph(counts, {G00: p, G01: p, G11: p}, seed=2)
    for group, edges in graph.edges_by_group().items():
        pairs = graph.group_pair_capacity(group)
        assert abs(len(edges) - pairs * p) <= 4 * math.sqrt(pairs * p * (1 - p))


@pytest.mark.parametrize(
    "counts, probs, message",
    [
        ({0: 2.5, 1: 3}, {}, "node count for attribute 0 must be an integer"),
        ({0: True, 1: 3}, {}, "node count for attribute 0 must be an integer"),
        ({0: -1, 1: 3}, {}, "node count for attribute 0 must be an integer >= 0"),
        ({0: 3, 1: 3}, {G01: "0.5"}, "edge probability for .* must be a number"),
        ({0: 3, 1: 3}, {G01: math.nan}, "edge probability for .* must be a number"),
        ({0: 3, 1: 3}, {G01: True}, "edge probability for .* must be a number"),
        ({0: 3, 1: 3}, {G01: 1.5}, r"must be in \[0, 1\]"),
        ({0: 3, 1: 3}, {G01: -0.1}, r"must be in \[0, 1\]"),
        ({0: 3, 1: 3}, {G02: 0.5}, "names a value with no node count"),
        ({0: 3}, {G11: 0.5}, "names a value with no node count"),
    ],
)
def test_bad_counts_and_probabilities_raise_config_error(counts, probs, message):
    with pytest.raises(ConfigError, match=message):
        biased_block_graph(counts, probs)

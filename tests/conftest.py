import itertools

import pytest

from fairlink.graphs import GroupDistribution, GroupId, SensitiveGraph

G00 = GroupId.of(0, 0)
G01 = GroupId.of(0, 1)
G11 = GroupId.of(1, 1)


def graph_with_group_edge_counts(counts: dict[GroupId, int]) -> SensitiveGraph:
    """Deterministic graph holding exactly the requested edges per group.

    Enough nodes per attribute value are allocated to host the largest
    intra request; edges are the first pairs in lexicographic order.
    """
    values = sorted({v for g in counts for v in (g.lo, g.hi)})
    per_value = max(2, *(int((2 * c) ** 0.5) + 2 for c in counts.values()))
    while any(
        g.is_intra and per_value * (per_value - 1) // 2 < c for g, c in counts.items()
    ) or any(not g.is_intra and per_value * per_value < c for g, c in counts.items()):
        per_value += 1

    sensitive = {}
    buckets: dict[int, list[int]] = {}
    next_id = 0
    for value in values:
        buckets[value] = list(range(next_id, next_id + per_value))
        for node in buckets[value]:
            sensitive[node] = value
        next_id += per_value

    edges = []
    for group, count in sorted(counts.items()):
        if group.is_intra:
            pairs = itertools.combinations(buckets[group.lo], 2)
        else:
            pairs = itertools.product(buckets[group.lo], buckets[group.hi])
        edges.extend(itertools.islice(pairs, count))
    return SensitiveGraph(next_id, edges, sensitive)


@pytest.fixture
def triangle_graph() -> SensitiveGraph:
    # Nodes 0,1 share attribute 1; node 2 has attribute 0.
    return SensitiveGraph(3, [(0, 1), (1, 2), (0, 2)], {0: 1, 1: 1, 2: 0})


@pytest.fixture
def star_graph() -> SensitiveGraph:
    # Node 0 is the hub of a 4-leaf star, all same attribute.
    return SensitiveGraph(5, [(0, i) for i in range(1, 5)], {i: 0 for i in range(5)})


@pytest.fixture
def uniform_pair_target() -> GroupDistribution:
    return GroupDistribution({G00: 0.5, G01: 0.5})


@pytest.fixture
def three_group_target() -> GroupDistribution:
    return GroupDistribution({G00: 0.5, G01: 0.3, G11: 0.2})

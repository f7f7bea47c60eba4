"""Seeded synthetic graphs with attribute-correlated block structure.

Nodes are partitioned by attribute value; each group of node pairs gets
its own independent edge probability, so group proportions (and the
degree of homophily) are directly controllable. Generation is vectorized
and deterministic per seed.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ConfigError
from .graphs import GroupId, SensitiveGraph, write_edge_list
from .io import atomic_write


def biased_block_graph(
    node_counts: Mapping[int, int],
    edge_probs: Mapping[GroupId, float],
    seed: int = 0,
) -> SensitiveGraph:
    """Random graph whose edge density varies by attribute pairing.

    ``node_counts`` maps attribute value -> number of nodes (ids are
    assigned contiguously in attribute order); ``edge_probs`` maps a
    group to its independent edge probability, defaulting to 0.
    """
    for value, count in node_counts.items():
        if count < 0:
            raise ConfigError(f"negative node count for attribute {value}")
    for group, p in edge_probs.items():
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"edge probability for {group} must be in [0, 1], got {p}")

    sensitive: dict[int, int] = {}
    buckets: dict[int, np.ndarray] = {}
    next_id = 0
    for value in sorted(node_counts):
        ids = np.arange(next_id, next_id + node_counts[value])
        buckets[value] = ids
        for node in ids:
            sensitive[int(node)] = value
        next_id += node_counts[value]

    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    values = sorted(buckets)
    for i, a in enumerate(values):
        for b in values[i:]:
            p = edge_probs.get(GroupId.of(a, b), 0.0)
            if p <= 0.0:
                continue
            if a == b:
                us, vs = np.triu_indices(len(buckets[a]), k=1)
                us, vs = buckets[a][us], buckets[a][vs]
            else:
                grid_u, grid_v = np.meshgrid(buckets[a], buckets[b], indexing="ij")
                us, vs = grid_u.ravel(), grid_v.ravel()
            mask = rng.random(len(us)) < p
            edges.extend(zip(us[mask].tolist(), vs[mask].tolist()))

    return SensitiveGraph(next_id, edges, sensitive)


def write_graph_files(graph: SensitiveGraph, edges_path, attrs_path) -> None:
    """Dump a graph to the edge-list / attribute-list file formats, atomically."""
    write_edge_list(edges_path, graph.edges)
    with atomic_write(attrs_path) as fh:
        for node in sorted(graph.sensitive):
            fh.write(f"{node}\t{graph.sensitive[node]}\n")

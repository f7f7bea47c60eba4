"""Seeded synthetic graphs with attribute-correlated block structure.

Nodes are partitioned by attribute value; each group of node pairs gets
its own independent edge probability, so group proportions (and the
degree of homophily) are directly controllable. Generation takes time
and memory linear in the edge count and is deterministic per seed.
"""

from __future__ import annotations

import math
import random
from typing import Mapping

from .errors import ConfigError, _check_number
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
    group of two of those values to its independent edge probability,
    defaulting to 0. Blocks are drawn in sorted group order from one
    ``random.Random(seed)``, each by geometric skipping over its pair
    index (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).
    """
    for value, count in node_counts.items():
        _check_number(count, f"node count for attribute {value}", integer=True, minimum=0)
    for group, p in edge_probs.items():
        if not set(group) <= node_counts.keys():
            raise ConfigError(f"edge probability for {group} names a value with no node count")
        if not 0.0 <= _check_number(p, f"edge probability for {group}") <= 1.0:
            raise ConfigError(f"edge probability for {group} must be in [0, 1], got {p}")

    first: dict[int, int] = {}
    sensitive: dict[int, int] = {}
    for value in sorted(node_counts):
        first[value] = len(sensitive)
        sensitive.update((first[value] + n, value) for n in range(node_counts[value]))

    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    values = sorted(node_counts)
    for i, a in enumerate(values):
        for b in values[i:]:
            p, size = edge_probs.get(GroupId.of(a, b), 0.0), node_counts[b]
            pairs = size * (size - 1) // 2 if a == b else node_counts[a] * size
            log_q, k = math.log1p(-p) if p < 1.0 else 0.0, -1
            # Pair index k is kept with probability p (at p = 1 every k, with no draw):
            # the gap to the next kept k is 1 + floor(ln(1 - r) / ln(1 - p)), capped at tiny p.
            while p > 0.0:
                k += 1 if p == 1.0 else 1 + int(min(math.log(1.0 - rng.random()) / log_q, pairs))
                if k >= pairs:
                    break
                if a == b:  # k = j(j-1)/2 + i with i < j
                    j = (1 + math.isqrt(8 * k + 1)) // 2
                    edges.append((first[a] + k - j * (j - 1) // 2, first[a] + j))
                else:  # k = i * size + j
                    edges.append((first[a] + k // size, first[b] + k % size))

    return SensitiveGraph(len(sensitive), edges, sensitive)


def write_graph_files(graph: SensitiveGraph, edges_path, attrs_path) -> None:
    """Dump a graph to the edge-list / attribute-list file formats, atomically."""
    write_edge_list(edges_path, graph.edges)
    with atomic_write(attrs_path) as fh:
        for node in sorted(graph.sensitive):
            fh.write(f"{node}\t{graph.sensitive[node]}\n")

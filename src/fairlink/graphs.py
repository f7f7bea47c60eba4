"""Attributed undirected graphs, edge groups, splits, and negative sampling.

Every node carries a small categorical sensitive attribute. An unordered
node pair belongs to exactly one *group*: the canonical (sorted) pair of
its endpoint attribute values. Group proportions over an edge set are the
fairness reference used throughout the package.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import random
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    ConfigError,
    EmptyEdgeSetError,
    GroupTooSmallError,
    MalformedLineError,
    MissingAttributeError,
    NotEnoughNonEdgesError,
    SelfLoopError,
    UnknownEdgeError,
    UnknownNodeError,
    _check_number,
)
from .io import atomic_write, is_comment_or_blank, write_json

Edge = tuple[int, int]

SUM_TOLERANCE = 1e-12


class GroupId(NamedTuple):
    """Canonical unordered pair of sensitive attribute values."""

    lo: int
    hi: int

    @classmethod
    def of(cls, a: int, b: int) -> "GroupId":
        return cls(a, b) if a <= b else cls(b, a)

    @property
    def is_intra(self) -> bool:
        return self.lo == self.hi

    def label(self) -> str:
        return f"{self.lo}-{self.hi}"

    __str__ = label

    @classmethod
    def parse(cls, text: str) -> "GroupId":
        lo, _, hi = text.partition("-")
        return cls.of(int(lo), int(hi))


# Guards every graph's lazily built adjacency. One lock for all graphs keeps
# a graph copyable and picklable; the builds are pure Python, so the
# interpreter lock would serialize them anyway.
_ADJACENCY_LOCK = threading.Lock()


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


class SensitiveGraph:
    """Undirected graph with a categorical sensitive attribute per node.

    Immutable after construction and safe to share across concurrent
    readers. Sorted edges per group and sorted nodes per value are
    computed once, at construction; a subgraph reuses its parent's
    attributes and groups. The adjacency of each group's edges, and the
    pooled adjacency derived from those, are built on first use, under a
    lock, so at most once per graph; each is published by one assignment
    of a complete table. A graph used only for its groups builds no
    adjacency.
    """

    __slots__ = (
        "node_count",
        "edges",
        "sensitive",
        "_edge_groups",
        "_value_nodes",
        "_group_adjacency",
        "_adjacency",
    )

    def __init__(
        self,
        node_count: int,
        edges: Iterable[Edge],
        sensitive: Mapping[int, int],
    ):
        self.node_count = int(node_count)
        self.sensitive = dict(sensitive)
        value_nodes: dict[int, list[int]] = {}
        for node, value in self.sensitive.items():
            if not (0 <= node < self.node_count):
                raise UnknownNodeError(node)
            if value < 0:
                raise ConfigError(f"attribute for node {node} must be non-negative")
            value_nodes.setdefault(value, []).append(node)
        self._value_nodes = {v: sorted(value_nodes[v]) for v in sorted(value_nodes)}

        canonical: set[Edge] = set()
        grouped: dict[GroupId, list[Edge]] = {}
        for u, v in edges:
            e = canonical_edge(u, v)
            if e not in canonical:
                canonical.add(e)
                grouped.setdefault(edge_group(self, u, v), []).append(e)
        self._index({g: sorted(grouped[g]) for g in sorted(grouped)}, canonical)

    def _index(self, grouped: Mapping[GroupId, Sequence[Edge]], edges: Iterable[Edge]):
        """Store the non-empty groups' edges (given sorted) and the edge set; return the graph."""
        self._edge_groups = {g: bucket for g, bucket in grouped.items() if bucket}
        self.edges = frozenset(edges)
        self._group_adjacency = self._adjacency = None
        return self

    def adjacency(self, group: GroupId | None = None) -> Mapping[int, set[int]]:
        """Neighbor sets by node, over ``group``'s edges alone or (``None``) all edges.

        Nodes without such an edge are absent. Treat as read-only.
        """
        with _ADJACENCY_LOCK:
            if self._group_adjacency is None:
                self._group_adjacency = {
                    g: _neighbor_sets(bucket) for g, bucket in self._edge_groups.items()
                }
            if group is not None:
                return self._group_adjacency.get(group, {})
            if self._adjacency is None:
                pooled = defaultdict(set)
                for table in self._group_adjacency.values():
                    for node, neighbors in table.items():
                        pooled[node] |= neighbors
                self._adjacency = dict(pooled)
            return self._adjacency

    def __repr__(self) -> str:
        return (
            f"SensitiveGraph(nodes={self.node_count}, edges={len(self.edges)}, "
            f"groups={len(self.group_universe())})"
        )

    def attribute(self, v: int) -> int:
        try:
            return self.sensitive[v]
        except KeyError:
            if 0 <= v < self.node_count:
                raise MissingAttributeError(v) from None
            raise UnknownNodeError(v) from None

    def group_universe(self) -> tuple[GroupId, ...]:
        """All groups expressible with this graph's attribute values."""
        pairs = itertools.combinations_with_replacement(self._value_nodes, 2)
        return tuple(GroupId.of(a, b) for a, b in pairs)

    def nodes_with_attribute(self, value: int) -> list[int]:
        return list(self._value_nodes.get(value, ()))

    def group_pair_capacity(self, group: GroupId) -> int:
        """Number of unordered node pairs (edges or not) in ``group``."""
        na = len(self._value_nodes.get(group.lo, ()))
        if group.is_intra:
            return na * (na - 1) // 2
        nb = len(self._value_nodes.get(group.hi, ()))
        return na * nb

    def edges_by_group(self) -> dict[GroupId, list[Edge]]:
        """Each non-empty group's sorted edges, as fresh lists the caller may reorder."""
        return {group: list(bucket) for group, bucket in self._edge_groups.items()}

    def subgraph_with_edges(self, edges: Iterable[Edge]) -> "SensitiveGraph":
        """Same nodes and attributes, restricted to ``edges``, each an edge of this graph."""
        subset = {canonical_edge(u, v) for u, v in edges}
        if foreign := subset - self.edges:
            raise UnknownEdgeError(min(foreign))
        # Filtering a sorted bucket keeps it sorted.
        grouped = {g: [e for e in b if e in subset] for g, b in self._edge_groups.items()}
        return copy.copy(self)._index(grouped, subset)


def _neighbor_sets(edges: Iterable[Edge]) -> dict[int, set[int]]:
    table = defaultdict(set)
    for a, b in edges:
        table[a].add(b)
        table[b].add(a)
    return dict(table)


# One GroupId per ordered pair of attribute values, shared by every edge and
# candidate that has it; attributes are small categories, so it stays small.
_interned_group = functools.cache(GroupId.of)


def edge_group(graph: SensitiveGraph, u: int, v: int) -> GroupId:
    """Group of the unordered pair (u, v); symmetric in its arguments.

    The ``GroupId`` is cached, not allocated per call. A self-loop, then
    an unknown or unattributed ``u``, then such a ``v`` raises.
    """
    if u == v:
        raise SelfLoopError(u)
    try:
        return _interned_group(graph.sensitive[u], graph.sensitive[v])
    except KeyError:
        graph.attribute(u)  # raises the exact error, for u before v
        graph.attribute(v)
        raise


@dataclass(frozen=True)
class GroupDistribution:
    """Probability vector over groups; entries sum to 1 and are >= 0.

    Groups with zero probability stay listed so downstream code has to
    face the zero-mass case explicitly instead of silently dropping it.
    """

    probabilities: Mapping[GroupId, float]

    def __post_init__(self):
        probs = {
            g: float(_check_number(p, f"mass of {g.label()}", minimum=0))
            for g, p in self.probabilities.items()
        }
        total = math.fsum(probs.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ConfigError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_counts(cls, counts: Mapping[GroupId, int]) -> "GroupDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise EmptyEdgeSetError()
        return cls({g: c / total for g, c in counts.items()})

    def mass(self, group: GroupId) -> float:
        return self.probabilities.get(group, 0.0)

    def items(self) -> list[tuple[GroupId, float]]:
        return sorted(self.probabilities.items())

    def positive(self) -> "GroupDistribution":
        """Restriction to strictly positive entries (mass is unchanged)."""
        return GroupDistribution({g: p for g, p in self.probabilities.items() if p > 0})

    def smoothed(self) -> "GroupDistribution":
        """Add 1e-9 to every listed entry and renormalize."""
        bumped = {g: p + 1e-9 for g, p in self.probabilities.items()}
        norm = math.fsum(bumped.values())
        return GroupDistribution({g: p / norm for g, p in bumped.items()})

    def as_label_dict(self) -> dict[str, float]:
        return {g.label(): p for g, p in self.items()}

    @classmethod
    def from_label_dict(cls, mapping: Mapping[str, float]) -> "GroupDistribution":
        """Parse ``{"0-1": 0.2, ...}``; ``"1-0"`` and ``"0-1"`` name one group, once."""
        try:
            probabilities = {GroupId.parse(label): p for label, p in mapping.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse distribution {dict(mapping)!r}: {exc}") from None
        if len(probabilities) < len(mapping):
            raise ConfigError(f"a group is given twice in distribution {dict(mapping)!r}")
        return cls(probabilities)


def empirical_distribution(graph: SensitiveGraph) -> GroupDistribution:
    """Fraction of the graph's edges in each group of its universe.

    Groups that receive no edges are kept with probability 0.
    """
    return GroupDistribution.from_counts(
        {g: len(graph._edge_groups.get(g, ())) for g in graph.group_universe()}
    )


# --- stratified splitting ---------------------------------------------------


def apportion(
    total: int,
    weights: Sequence[float],
    caps: Sequence[int] | None = None,
) -> list[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder rounding; remainder ties go to the earlier index.
    With ``caps``, no part exceeds its cap and overflow is redistributed
    to positive-weight entries with spare capacity.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if total == 0:
        return [0] * len(weights)
    if caps is not None and sum(caps) < total:
        raise ValueError(f"caps sum to {sum(caps)}, cannot hold {total}")
    weight_sum = math.fsum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must have positive sum")

    quotas = [total * w / weight_sum for w in weights]
    parts = [math.floor(q) for q in quotas]
    if caps is not None:
        parts = [min(p, c) for p, c in zip(parts, caps)]
    remainder = total - sum(parts)
    # Hand out the leftover units by descending fractional remainder.
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - math.floor(quotas[i])), i))
    while remainder > 0:
        progressed = False
        for i in order:
            if remainder == 0:
                break
            if weights[i] <= 0:
                continue
            if caps is not None and parts[i] >= caps[i]:
                continue
            parts[i] += 1
            remainder -= 1
            progressed = True
        if not progressed:
            # Positive-weight entries are all capped; spill anywhere legal.
            for i in order:
                if remainder == 0:
                    break
                if caps is None or parts[i] < caps[i]:
                    parts[i] += 1
                    remainder -= 1
    return parts


@dataclass(frozen=True)
class SplitResult:
    """Disjoint train/valid/test edge subsets covering the input edge set, kept as cut.

    ``slices[name][group]`` is the sorted tuple of ``group``'s edges in subset
    ``name`` (absent when empty); the flat subsets are derived from it.
    """

    slices: Mapping[str, Mapping[GroupId, tuple[Edge, ...]]]
    seed: int
    ratios: tuple[float, float, float]

    train = property(lambda self: frozenset().union(*self.slices["train"].values()))
    valid = property(lambda self: frozenset().union(*self.slices["valid"].values()))
    test = property(lambda self: frozenset().union(*self.slices["test"].values()))

    def train_graph(self, graph: SensitiveGraph) -> SensitiveGraph:
        """``graph`` (the graph split) restricted to the train edges, indexed from the slices."""
        return copy.copy(graph)._index(self.slices["train"], self.train)


MIN_GROUP_EDGES = 3


def check_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    """Validated train/valid/test fractions: three positive numbers summing to 1."""
    if not isinstance(ratios, (list, tuple)):
        raise ConfigError(f"ratios must be three positive numbers, got {ratios!r}")
    ratios = tuple(_check_number(r, "each ratio") for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"ratios must be three positive numbers, got {ratios}")
    if abs(math.fsum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {ratios}")
    return ratios


def stratified_split(
    graph: SensitiveGraph,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> SplitResult:
    """Per-group random split of the graph's edges into train/valid/test.

    Each group's edges are shuffled and cut independently so every subset
    preserves the graph's group proportions to within one edge per group;
    each cut part is kept, sorted, as that group's slice of the subset.
    Deterministic for a fixed seed: one ``random.Random(seed)`` shuffles
    each group in sorted order.
    """
    ratios = check_ratios(ratios)
    rng = random.Random(seed)
    slices: dict[str, dict[GroupId, tuple[Edge, ...]]] = {"train": {}, "valid": {}, "test": {}}
    for group, bucket in sorted(graph._edge_groups.items()):
        if len(bucket) < MIN_GROUP_EDGES:
            raise GroupTooSmallError(group, len(bucket), MIN_GROUP_EDGES)
        # Positions shuffle as the edges would; sorted, they give sorted edges.
        order = list(range(len(bucket)))
        rng.shuffle(order)
        cuts = [0, *itertools.accumulate(apportion(len(bucket), ratios))]
        for parts, start, stop in zip(slices.values(), cuts, cuts[1:]):
            if stop > start:
                parts[group] = tuple(map(bucket.__getitem__, sorted(order[start:stop])))
    return SplitResult(slices=slices, seed=seed, ratios=ratios)


# --- negative sampling ------------------------------------------------------

_ENUMERATION_LIMIT = 2_000_000


def sample_negatives(
    graph: SensitiveGraph,
    per_group: Mapping[GroupId, int],
    seed: int = 0,
) -> dict[GroupId, frozenset[Edge]]:
    """Uniformly sample the requested number of non-edges for each group.

    Returns each requested group's canonical non-edges, each pair once and
    keyed by its group (an empty set for a request of 0); ``score_candidates``
    checks none of this again. Deterministic per seed: groups draw from one
    ``random.Random(seed)`` in sorted order. Rejection sampling serves a
    request that is a small fraction of the available non-edges; otherwise
    the group's non-edges are enumerated and sampled directly.
    """
    rng = random.Random(seed)
    chosen: dict[GroupId, frozenset[Edge]] = {}

    for group, requested in sorted(per_group.items()):
        if requested < 0:
            raise ConfigError(f"negative request {requested} for group {group}")
        if requested == 0:
            chosen[group] = frozenset()
            continue
        capacity = graph.group_pair_capacity(group)
        available = capacity - len(graph._edge_groups.get(group, ()))
        if requested > available:
            raise NotEnoughNonEdgesError(group, available, requested)

        bucket_lo = graph.nodes_with_attribute(group.lo)
        bucket_hi = bucket_lo if group.is_intra else graph.nodes_with_attribute(group.hi)

        if capacity <= _ENUMERATION_LIMIT and requested * 3 > available:
            pool = _enumerate_non_edges(graph, group, bucket_lo, bucket_hi)
            chosen[group] = frozenset(rng.sample(pool, requested))
            continue

        picked: set[Edge] = set()
        n, randrange = len(bucket_lo), rng.randrange
        for _ in range(100 * requested + 10_000):
            if group.is_intra:
                # rng.sample(bucket_lo, 2)'s own draws: above 21 items it redraws a
                # repeated index, else it moves the last item into the first one's place.
                i = randrange(n)
                if n > 21:
                    while (j := randrange(n)) == i:
                        pass
                elif (j := randrange(n - 1)) == i:
                    j = n - 1
                u, v = bucket_lo[i], bucket_lo[j]
            else:
                u, v = rng.choice(bucket_lo), rng.choice(bucket_hi)
            pair = canonical_edge(u, v)
            if pair not in graph.edges and pair not in picked:
                picked.add(pair)
                if len(picked) == requested:
                    break
        else:  # rejection stalled against a dense group: fall back to enumeration
            pool = _enumerate_non_edges(graph, group, bucket_lo, bucket_hi)
            picked.update(rng.sample([p for p in pool if p not in picked], requested - len(picked)))
        chosen[group] = frozenset(picked)

    return chosen


def _enumerate_non_edges(
    graph: SensitiveGraph, group: GroupId, bucket_lo: Sequence[int], bucket_hi: Sequence[int]
) -> list[Edge]:
    if group.is_intra:
        pairs = itertools.combinations(bucket_lo, 2)
    else:
        pairs = itertools.product(bucket_lo, bucket_hi)
    return [e for e in itertools.starmap(canonical_edge, pairs) if e not in graph.edges]


# --- file formats -----------------------------------------------------------


class _NodeIndex(dict):
    """Id text to ``(node, value)``; an unlisted id's canonical text parses once, to value None."""
    def __missing__(self, text: str) -> tuple[int, None]:
        if (node := int(text)) < 0 or str(node) != text:
            raise KeyError(text)
        return self.setdefault(text, (node, None))


def _int_pair(path: Path, line_no: int, line: str) -> tuple[int, int]:
    """The two ``int`` fields of a data line, split on tabs, commas or spaces."""
    if len(tokens := line.replace(",", " ").split()) != 2:
        raise MalformedLineError(path, line_no, f"expected two fields, got {len(tokens)}") from None
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise MalformedLineError(path, line_no, f"non-integer field in {line.strip()!r}") from None


def read_edge_list(path: str | Path) -> list[Edge]:
    """Read `u<TAB>v` (or comma- or space-separated) edge lines, canonicalized.

    Comment lines starting with ``#`` and blank lines are skipped;
    duplicates, in either orientation, are collapsed, input order
    otherwise preserved. Each node id is one ``int`` object in all edges.
    """
    edges: list[Edge] = []
    # No node has a value here, so each distinct edge lands in this one list.
    _read_edges(Path(path), _NodeIndex(), {None: {None: edges}})
    return edges


def _read_edges(path: Path, index: _NodeIndex, buckets: Mapping) -> tuple[set[Edge], Edge | None]:
    """Parse an edge file in one pass, each distinct canonical edge into its bucket.

    Edge (u, v), u < v, goes to ``buckets[a][b]``, a and b the values ``index``
    gives its ids. Returns the distinct edges and the first edge of no bucket, or None.
    """
    seen: set[Edge] = set()
    unattributed = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                x, y = line.replace(",", " ").split()
                (u, a), (v, b) = index[x], index[y]
            except (ValueError, KeyError):
                if is_comment_or_blank(line):
                    continue
                u, v = _int_pair(path, line_no, line)
                if u < 0 or v < 0:
                    raise MalformedLineError(path, line_no, "negative node id") from None
                (u, a), (v, b) = index[str(u)], index[str(v)]
            if u > v:
                u, v = v, u
            elif u == v:
                raise SelfLoopError(u, line_no)
            e = (u, v)
            if e not in seen:
                seen.add(e)
                try:
                    buckets[a][b].append(e)
                except KeyError:  # an endpoint without attribute
                    if unattributed is None:
                        unattributed = e
    return seen, unattributed


def read_attributes(path: str | Path) -> dict[int, int]:
    """Read `node<TAB>value` lines; a node may repeat only with the same value."""
    path = Path(path)
    attrs: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                node, value = map(int, line.replace(",", " ").split())
            except ValueError:
                if is_comment_or_blank(line):
                    continue
                node, value = _int_pair(path, line_no, line)
            if node < 0:
                raise MalformedLineError(path, line_no, "negative node id")
            if value < 0:
                raise MalformedLineError(path, line_no, "negative attribute value")
            if attrs.setdefault(node, value) != value:
                raise MalformedLineError(path, line_no, f"conflicting attribute for node {node}")
    return attrs


def load_graph(edge_file: str | Path, attribute_file: str | Path) -> SensitiveGraph:
    """Build a graph from an edge list file and a node attribute file.

    The attribute file defines the node set; node_count is one past the
    largest attributed id. Every edge endpoint must carry an attribute,
    and is that table's own key object. The edge file is read as
    ``read_edge_list`` reads it, each distinct edge filed into its group.
    Every line error wins over an unknown or unattributed endpoint, which
    is reported as ``edge_group`` reports it, for the first such edge.
    """
    attrs = read_attributes(attribute_file)
    if not attrs:
        raise EmptyEdgeSetError()
    graph = SensitiveGraph(max(attrs) + 1, (), attrs)  # its edges are indexed below
    values = list(graph._value_nodes)
    grouped = {_interned_group(a, b): [] for i, a in enumerate(values) for b in values[i:]}
    # buckets[a][b] is the list of group (a, b), shared by both orders of the values.
    buckets = {a: {b: grouped[_interned_group(a, b)] for b in values} for a in values}
    index = _NodeIndex(zip(map(str, attrs), graph.sensitive.items()))
    seen, unattributed = _read_edges(Path(edge_file), index, buckets)
    if unattributed is not None:
        edge_group(graph, *unattributed)  # raises for that edge's first bad endpoint
    for bucket in grouped.values():
        bucket.sort()
    return graph._index(grouped, seen)


def write_edge_list(path: str | Path, edges: Iterable[Edge]) -> None:
    """Write edges as sorted `u<TAB>v` lines, atomically."""
    with atomic_write(path) as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in sorted(edges))


def write_split(
    out_dir: str | Path,
    graph: SensitiveGraph,
    split: SplitResult,
) -> dict[str, Path]:
    """Write train/valid/test edge files plus a JSON manifest, all from the split's slices.

    ``graph`` is not read; it stays so that positional callers keep working.
    """
    out = Path(out_dir)
    paths: dict[str, Path] = {}
    per_group: dict[str, dict[str, int]] = {}
    for name, parts in split.slices.items():
        paths[name] = out / f"{name}.tsv"
        write_edge_list(paths[name], itertools.chain.from_iterable(parts.values()))
        for group, part in parts.items():
            per_group.setdefault(group.label(), {})[name] = len(part)
    manifest = {"seed": split.seed, "ratios": list(split.ratios), "per_group_counts": per_group}
    paths["manifest"] = out / "split.json"
    write_json(paths["manifest"], manifest)
    return paths

"""Per-group scored candidate lists.

Candidates are node pairs scored either by built-in topological
heuristics, by dot products over ingested embeddings, or by scores read
from an external file. Each candidate is routed to the list of its edge
group; lists are kept sorted by descending score. Scores from different
groups are never assumed comparable: with per-group ("decoupled")
scoring each group's statistics come from that group's edges alone, so
the scales are incommensurable by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    ConfigError,
    DataError,
    DuplicatePairError,
    MalformedLineError,
    MissingAttributeError,
    SelfLoopError,
    UnknownNodeError,
)
from .graphs import Edge, GroupId, SensitiveGraph, _interned_group, edge_group
from .io import atomic_write, is_comment_or_blank

HEURISTIC_SCORERS = ("common_neighbors", "adamic_adar")
SCORERS = HEURISTIC_SCORERS + ("embedding",)


class ScoredCandidate(NamedTuple):
    u: int
    v: int
    score: float
    group: GroupId
    relevance: bool

    @property
    def pair(self) -> Edge:
        return (self.u, self.v)


def _sort_key(candidate: ScoredCandidate):
    # Descending score, ties broken by lexicographic pair for determinism.
    return (-candidate.score, candidate.u, candidate.v)


@dataclass
class GroupedCandidateSet:
    """Score-sorted candidate lists, one per group.

    Four invariants hold: each candidate is in its own group's list, its
    score is finite, each list is sorted by descending score (ties by
    pair), and no pair appears twice across the lists. The constructor
    checks none of them; each is made true once, where it can fail.
    ``ingest_scores`` checks them as it reads a file and sorts.
    ``score_candidates`` sorts, its scores are finite (a heuristic's by
    construction, an embedding's by ``embedding_dot``'s check), its
    groups come from the split and the sampler that made its pairs, and
    one set per group finds a repeated pair. ``synthetic_candidate_set``
    makes fresh pairs with descending scores. ``from_candidates`` files
    each candidate by its group and sorts; ``cli eval`` gives it the
    entries of a ranking that ``read_ranking`` (finite scores, no
    repeated pair) and ``check_ranking_groups`` (each label its pair's
    group) have checked. ``tests/reference.py``'s
    ``check_chain_candidates`` asserts all four.
    """

    lists: dict[GroupId, list[ScoredCandidate]] = field(default_factory=dict)

    @classmethod
    def from_candidates(cls, candidates: Iterable[ScoredCandidate]) -> "GroupedCandidateSet":
        lists: dict[GroupId, list[ScoredCandidate]] = {}
        for cand in candidates:
            lists.setdefault(cand.group, []).append(cand)
        for bucket in lists.values():
            bucket.sort(key=_sort_key)
        return cls(lists)

    def groups(self) -> tuple[GroupId, ...]:
        return tuple(sorted(self.lists))

    def total(self) -> int:
        return sum(len(bucket) for bucket in self.lists.values())

    def all_candidates(self) -> list[ScoredCandidate]:
        out: list[ScoredCandidate] = []
        for group in self.groups():
            out.extend(self.lists[group])
        return out


# --- topological heuristics --------------------------------------------------


def _pair_scorer(scorer: str, adjacency: Mapping[int, set[int]]) -> Callable[[int, int], float]:
    """Common-neighbors count or Adamic-Adar sum of a pair, over ``adjacency``.

    A shared neighbor is adjacent to both endpoints, so its degree is at
    least 2 and the logarithm is strictly positive: the Adamic-Adar weight
    1/ln(deg) is taken once per node of degree 2 or more. ``math.fsum`` is
    exactly rounded, so the sum does not depend on set iteration order.
    """
    empty: frozenset[int] = frozenset()
    if scorer == "common_neighbors":
        return lambda u, v: float(len(adjacency.get(u, empty) & adjacency.get(v, empty)))
    weight = {w: 1.0 / math.log(len(ns)) for w, ns in adjacency.items() if len(ns) > 1}.__getitem__
    return lambda u, v: math.fsum(map(weight, adjacency.get(u, empty) & adjacency.get(v, empty)))


# --- embedding scoring --------------------------------------------------------


def embedding_dot(embeddings: Mapping[int, Sequence[float]], u: int, v: int) -> float:
    """Inner product of the two node embeddings; one that overflows raises ``DataError``."""
    for node in (u, v):
        if node not in embeddings:
            raise DataError(f"no embedding for node {node}")
    a, b = embeddings[u], embeddings[v]
    if len(a) != len(b):
        raise DataError(f"embedding dimension mismatch: {len(a)} vs {len(b)}")
    if not math.isfinite(value := math.fsum(x * y for x, y in zip(a, b))):
        raise DataError(f"non-finite score for {(u, v)}")
    return value


def load_embeddings(path: str | Path) -> dict[int, tuple[float, ...]]:
    """Read embeddings: header `n dim`, then `node_id v1 ... vdim` rows.

    A non-finite value, or a node given a second time, is a
    ``MalformedLineError`` naming its line.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise MalformedLineError(path, 1, "expected header `n dim`")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError:
            raise MalformedLineError(path, 1, "non-integer header") from None
        embeddings: dict[int, tuple[float, ...]] = {}
        for line_no, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != dim + 1:
                raise MalformedLineError(path, line_no, f"expected {dim + 1} fields")
            try:
                node = int(tokens[0])
                vector = tuple(float(t) for t in tokens[1:])
            except ValueError:
                raise MalformedLineError(path, line_no, "non-numeric field") from None
            if not all(map(math.isfinite, vector)):
                raise MalformedLineError(path, line_no, "non-finite value")
            if node in embeddings:
                raise MalformedLineError(path, line_no, f"node {node} given twice")
            embeddings[node] = vector
    if len(embeddings) != n:
        raise MalformedLineError(path, 1, f"header declares {n} rows, found {len(embeddings)}")
    return embeddings


# --- candidate set construction ----------------------------------------------


def score_candidates(
    graph: SensitiveGraph,
    positives: Mapping[GroupId, Collection[Edge]],
    negatives: Mapping[GroupId, Collection[Edge]],
    scorer: str,
    *,
    decoupled: bool,
    embeddings: Mapping[int, Sequence[float]] | None = None,
) -> GroupedCandidateSet:
    """Score each group's positive and negative pairs into that group's sorted list.

    ``positives`` and ``negatives`` map a group to its pairs, relevant when
    positive. Precondition, made true where the pairs are made and not
    checked here: each pair is canonical and of its key's group
    (``stratified_split`` and ``subgraph_with_edges`` give edges grouped at
    load, ``sample_negatives`` canonical non-edges per group). A pair given
    twice in a group, an unknown scorer, missing embeddings and
    ``embedding_dot``'s errors raise. Lists sort by descending score, ties by
    pair. Heuristics read ``graph`` (pass the training graph), with
    ``decoupled=True`` only its edges of the pair's group; embeddings ignore it.
    """
    if scorer not in SCORERS:
        raise ConfigError(f"unknown scorer {scorer!r}; choose one of {SCORERS}")
    if scorer == "embedding" and embeddings is None:
        raise ConfigError("scorer 'embedding' requires embeddings")

    groups = sorted({*positives, *negatives})
    # One scorer for every group, or (None) each group's own, over its own table.
    shared = None
    if scorer == "embedding":
        shared = lambda u, v: embedding_dot(embeddings, u, v)
    elif not decoupled:
        shared = _pair_scorer(scorer, graph.adjacency())
    lists: dict[GroupId, list[ScoredCandidate]] = {}
    for group in groups:
        score = shared or _pair_scorer(scorer, graph.adjacency(group))
        bucket = [
            tuple.__new__(ScoredCandidate, (u, v, score(u, v), group, relevant))
            for relevant, keyed in ((True, positives), (False, negatives))
            for u, v in keyed.get(group, ())
        ]
        if bucket:
            if len({*positives.get(group, ()), *negatives.get(group, ())}) < len(bucket):
                raise DuplicatePairError(Counter(c.pair for c in bucket).most_common(1)[0][0])
            bucket.sort(key=_sort_key)
            lists[group] = bucket
    return GroupedCandidateSet(lists)


def ingest_scores(
    score_file: str | Path,
    graph: SensitiveGraph,
    test_edges: Iterable[Edge],
) -> GroupedCandidateSet:
    """Read `u<TAB>v<TAB>score` (or comma- or space-separated) lines into a grouped candidate set.

    Relevance is membership in ``test_edges``. Duplicate pairs, in
    either orientation, are an error: externally produced score files
    must be unambiguous. Each line is checked once, here, and its error
    names the line; an unknown or unattributed endpoint is reported as
    ``edge_group`` reports it. Each id's text is looked up in an index of
    the graph's attribute table, so a candidate's ``u`` and ``v`` are the
    table's own keys; only a line that misses is parsed with ``int``.
    The per-group lists are filled directly and sorted.
    """
    path = Path(score_file)
    relevant = {e if e[0] <= e[1] else (e[1], e[0]) for e in test_edges}
    index = dict(zip(map(str, graph.sensitive), graph.sensitive.items()))
    # groups[a][b]: the group of a pair whose endpoints have values a and b.
    values = graph._value_nodes
    groups = {a: {b: _interned_group(a, b) for b in values} for a in values}
    seen: set[Edge] = set()
    lists: dict[GroupId, list[ScoredCandidate]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                x, y, score = line.replace(",", " ").split()
                (u, a), (v, b), value = index[x], index[y], float(score)
            except (ValueError, KeyError):  # a skipped or faulty line, or an id that misses
                if is_comment_or_blank(line):
                    continue
                if len(tokens := line.replace(",", " ").split()) != 3:
                    reason = f"expected 3 fields, got {len(tokens)}"
                    raise MalformedLineError(path, line_no, reason) from None
                try:
                    u, v, value = int(tokens[0]), int(tokens[1]), float(tokens[2])
                except ValueError:
                    raise MalformedLineError(path, line_no, "non-numeric field") from None
                # An id outside the table gets no value, so its group lookup below fails.
                (u, a), (v, b) = index.get(str(u), (u, None)), index.get(str(v), (v, None))
            if not math.isfinite(value):
                raise MalformedLineError(path, line_no, "non-finite score")
            if u > v:
                u, v, a, b = v, u, b, a
            elif u == v:
                raise SelfLoopError(u, line_no)
            pair = (u, v)
            if pair in seen:
                raise DuplicatePairError(pair, line_no)
            seen.add(pair)
            try:
                group = groups[a][b]
            except KeyError:  # an endpoint without attribute: edge_group raises its error
                try:
                    edge_group(graph, u, v)
                except (UnknownNodeError, MissingAttributeError) as exc:
                    raise type(exc)(exc.node, line_no) from None
            bucket = lists.get(group)
            if bucket is None:
                bucket = lists[group] = []
            bucket.append(tuple.__new__(ScoredCandidate, (u, v, value, group, pair in relevant)))
    for bucket in lists.values():
        bucket.sort(key=_sort_key)
    return GroupedCandidateSet(lists)


def write_scores(path: str | Path, candidates: GroupedCandidateSet) -> None:
    """Write candidates as `u<TAB>v<TAB>score` lines (atomic)."""
    with atomic_write(path) as fh:
        for cand in sorted(candidates.all_candidates(), key=lambda c: c.pair):
            fh.write(f"{cand.u}\t{cand.v}\t{cand.score!r}\n")

"""Plain reference models of the package, written from the definitions.

Slow and obvious on purpose: each model states a documented behaviour
in the most direct code, shares no code with the function it models,
and tests compare the two with ``==``. From the package a model takes
only its record types, the error classes of ``fairlink.errors`` (the
vocabulary both sides speak) and the steps it does not model, such as
``edge_group``; neighbor sets come from a graph's edges, not from its
``adjacency``.

It holds one model per quantity:

- the input file readers, ``load_graph`` and ``load_embeddings``. A
  reader either returns its records or raises the error of the first
  faulty line, carrying that line's number; ``load_graph`` reports an
  unknown or unattributed endpoint (with no line) only after the whole
  edge file has parsed;
- the prefix divergence and NDKL of a label sequence, each prefix
  scored from its group counts alone, and the exact NDKL extremes with
  every ordering of a multiset (``multiset_permutations``) scored on
  its own;
- the KL-greedy merge, scoring every available group at every position;
- a ``decimal`` model (``DecimalModel``) of the prefix divergence, the
  NDKL curve and the merge's per-step objectives, to ``DIGITS``
  significant digits. It is the one model compared within a bound, not
  with ``==``: it measures how far the package's floats stand from the
  exact values, and whether each merge choice is an exact argmin;
- the single-pair neighbourhood heuristics and the candidate scoring
  built on them, and the invariants of a candidate set the chain built
  (``check_chain_candidates``);
- rankings made from a group label sequence, and reports read back from
  ``report.json``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from decimal import Context, Decimal, localcontext
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from fairlink.errors import (
    ConfigError,
    DuplicatePairError,
    EmptyEdgeSetError,
    MalformedLineError,
    MissingAttributeError,
    SelfLoopError,
    UnknownNodeError,
    ZeroTargetMassError,
)
from fairlink.fairness import Ranking
from fairlink.graphs import GroupDistribution, GroupId, SensitiveGraph, canonical_edge, edge_group
from fairlink.oracle import ExtremeResult, MultisetSpec
from fairlink.pipeline import EvalReport, MetricsAtK
from fairlink.scorers import GroupedCandidateSet, ScoredCandidate, embedding_dot


def numbered_data_lines(path) -> list[tuple[int, str]]:
    """``(line_no, stripped_line)`` of each line that is neither blank nor a ``#`` comment."""
    text = Path(path).read_text(encoding="utf-8")  # turns CRLF and CR into LF
    out = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            out.append((line_no, line))
    return out


def fields(line: str) -> list[str]:
    """The fields of a line separated by tabs, commas or spaces."""
    return line.replace(",", " ").split()


def read_attributes(path) -> dict[int, int]:
    attrs: dict[int, int] = {}
    for line_no, line in numbered_data_lines(path):
        parts = fields(line)
        if len(parts) != 2:
            raise MalformedLineError(path, line_no)
        try:
            node, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(path, line_no) from None
        if node < 0 or value < 0:
            raise MalformedLineError(path, line_no)
        if node in attrs and attrs[node] != value:
            raise MalformedLineError(path, line_no)
        attrs[node] = value
    return attrs


def read_edge_list(path) -> list[tuple[int, int]]:
    """Distinct canonical edges in order of first appearance."""
    edges: list[tuple[int, int]] = []
    for line_no, line in numbered_data_lines(path):
        parts = fields(line)
        if len(parts) != 2:
            raise MalformedLineError(path, line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(path, line_no) from None
        if u < 0 or v < 0:
            raise MalformedLineError(path, line_no)
        if u == v:
            raise SelfLoopError(u, line_no)
        edge = (min(u, v), max(u, v))
        if edge not in edges:
            edges.append(edge)
    return edges


def check_node(attrs: dict[int, int], node_count: int, node: int, line_no=None) -> None:
    """Raise for a node the attribute table does not know."""
    if node not in attrs:
        if 0 <= node < node_count:
            raise MissingAttributeError(node, line_no)
        raise UnknownNodeError(node, line_no)


def load_graph(edge_file, attribute_file) -> dict:
    """The loaded graph as plain data: node count, attributes, edge set, sorted edges per group."""
    attrs = read_attributes(attribute_file)
    if not attrs:
        raise EmptyEdgeSetError()
    node_count = max(attrs) + 1
    edges = read_edge_list(edge_file)
    for u, v in edges:
        check_node(attrs, node_count, u)
        check_node(attrs, node_count, v)
    groups: dict[GroupId, list[tuple[int, int]]] = {}
    for u, v in edges:
        groups.setdefault(GroupId.of(attrs[u], attrs[v]), []).append((u, v))
    return {
        "node_count": node_count,
        "sensitive": attrs,
        "edges": frozenset(edges),
        "groups": [(g, sorted(groups[g])) for g in sorted(groups)],
    }


def ingest_scores(score_file, attrs: dict[int, int], node_count: int, test_edges) -> dict:
    """Each group's candidates, sorted by descending score, then pair."""
    relevant = {(min(u, v), max(u, v)) for u, v in test_edges}
    seen = set()
    lists: dict[GroupId, list[ScoredCandidate]] = {}
    for line_no, line in numbered_data_lines(score_file):
        parts = fields(line)
        if len(parts) != 3:
            raise MalformedLineError(score_file, line_no)
        try:
            u, v, score = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MalformedLineError(score_file, line_no) from None
        if not math.isfinite(score):
            raise MalformedLineError(score_file, line_no)
        if u == v:
            raise SelfLoopError(u, line_no)
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise DuplicatePairError(pair, line_no)
        seen.add(pair)
        check_node(attrs, node_count, pair[0], line_no)
        check_node(attrs, node_count, pair[1], line_no)
        group = GroupId.of(attrs[pair[0]], attrs[pair[1]])
        lists.setdefault(group, []).append(
            ScoredCandidate(pair[0], pair[1], score, group, pair in relevant)
        )
    return {g: sorted(b, key=lambda c: (-c.score, c.u, c.v)) for g, b in lists.items()}


def read_ranking(path) -> list[ScoredCandidate]:
    """Tab-separated `rank u v group score relevance` entries, pairs canonical."""
    entries: list[ScoredCandidate] = []
    for line_no, line in numbered_data_lines(path):
        parts = line.split("\t")
        if len(parts) != 6:
            raise MalformedLineError(path, line_no)
        try:
            rank, u, v = int(parts[0]), int(parts[1]), int(parts[2])
            lo, _, hi = parts[3].partition("-")
            group = GroupId.of(int(lo), int(hi))
            score, relevance = float(parts[4]), int(parts[5])
        except ValueError:
            raise MalformedLineError(path, line_no) from None
        if rank != len(entries) + 1 or not math.isfinite(score) or relevance not in (0, 1):
            raise MalformedLineError(path, line_no)
        if u == v:
            raise SelfLoopError(u, line_no)
        pair = (min(u, v), max(u, v))
        if any(entry.pair == pair for entry in entries):
            raise DuplicatePairError(pair, line_no)
        entries.append(ScoredCandidate(pair[0], pair[1], score, group, relevance == 1))
    return entries


def load_embeddings(path) -> dict[int, tuple[float, ...]]:
    """Header `n dim`, then `node v1 ... vdim` rows separated by whitespace; blank rows skipped.

    Every value is finite and every node is given once; the header's
    ``n`` is the number of rows, and a wrong count is reported at line 1.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedLineError(path, 1)
    try:
        n, dim = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedLineError(path, 1) from None
    embeddings: dict[int, tuple[float, ...]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != dim + 1:
            raise MalformedLineError(path, line_no)
        try:
            node, vector = int(tokens[0]), tuple(float(t) for t in tokens[1:])
        except ValueError:
            raise MalformedLineError(path, line_no) from None
        if not all(math.isfinite(x) for x in vector) or node in embeddings:
            raise MalformedLineError(path, line_no)
        embeddings[node] = vector
    if len(embeddings) != n:
        raise MalformedLineError(path, 1)
    return embeddings


# --- divergence of a label sequence --------------------------------------------


def prefix_divergence(counts: Mapping[GroupId, int], k: int, target: GroupDistribution) -> float:
    """KL divergence from ``target`` of the proportions ``counts / k``.

    The definition, the sum of q ln(q / p) over the groups with q > 0.
    The terms are added in sorted group order and the sum is clamped at
    0, as the package does, so both give the same float.
    """
    total = 0.0
    for group in sorted(counts):
        if counts[group] > 0:
            p = target.mass(group)
            if p <= 0.0:
                raise ZeroTargetMassError(group)
            q = counts[group] / k
            total += q * math.log(q / p)
    return max(0.0, total)


def sequence_ndkl_curve(labels: Sequence[GroupId], target: GroupDistribution) -> list[float]:
    """NDKL of every prefix of a label sequence, each prefix's divergence from its counts alone.

    Entry k-1 is the sum over j <= k of ``prefix_divergence`` at j times
    1 / log2(j + 1), added in order of j, over the sum of those
    discounts, added in the same order.
    """
    if not labels:
        raise ConfigError("label sequence is empty")
    counts: Counter[GroupId] = Counter()
    weighted = 0.0
    normalizer = 0.0
    curve = []
    for k, group in enumerate(labels, start=1):
        counts[group] += 1
        discount = 1.0 / math.log2(k + 1)
        normalizer += discount
        weighted += discount * prefix_divergence(counts, k, target)
        curve.append(weighted / normalizer)
    return curve


def sequence_ndkl(labels: Sequence[GroupId], target: GroupDistribution) -> float:
    """NDKL of a label sequence: the last entry of ``sequence_ndkl_curve``."""
    return sequence_ndkl_curve(labels, target)[-1]


def ranking_from_groups(labels: Sequence[GroupId], *, relevant: bool = True) -> Ranking:
    """Ranking with the given group label sequence and synthetic pairs."""
    entries = []
    for i, group in enumerate(labels):
        entries.append(ScoredCandidate(2 * i, 2 * i + 1, 1.0 - i / (len(labels) + 1), group, relevant))
    return Ranking(tuple(entries))


def multiset_permutations(counts: Mapping[GroupId, int]) -> Iterator[tuple[GroupId, ...]]:
    """All distinct orderings of the multiset, in lexicographic order.

    A depth-first walk with an explicit stack (a self-referencing
    generator would leave a reference cycle per call): ``choice[d]`` is
    the index of the group at position d, advanced to the next group
    with items left.
    """
    items = sorted(g for g, c in counts.items() if c > 0)
    limits = [counts[g] for g in items]
    width, total = len(items), sum(limits)
    if total == 0:
        yield ()
        return
    placed = [0] * width
    choice = [-1] * total
    depth = 0
    while True:
        g = choice[depth]
        if g >= 0:
            placed[g] -= 1
        g += 1
        while g < width and placed[g] == limits[g]:
            g += 1
        if g == width:
            choice[depth] = -1
            if depth == 0:
                return
            depth -= 1
            continue
        choice[depth] = g
        placed[g] += 1
        if depth + 1 < total:
            depth += 1
        else:
            yield tuple(map(items.__getitem__, choice))


def permutation_count(counts: Mapping[GroupId, int]) -> int:
    """Number of distinct orderings of the multiset: the multinomial coefficient."""
    count = 1
    remaining = sum(counts.values())
    for c in counts.values():
        count *= math.comb(remaining, c)
        remaining -= c
    return count


def reference_extremes(spec: MultisetSpec, target: GroupDistribution) -> ExtremeResult:
    """Exact NDKL extremes, every ordering scored from scratch; ties keep the first ordering."""
    best = worst = None
    argmin = argmax = None
    examined = 0
    for sequence in multiset_permutations(spec.group_counts):
        value = sequence_ndkl(sequence, target)
        examined += 1
        if best is None or value < best:
            best = value
            argmin = sequence
        if worst is None or value > worst:
            worst = value
            argmax = sequence
    return ExtremeResult(best, worst, argmin, argmax, examined)


# --- the merge -------------------------------------------------------------------


def normalized_scores(bucket: Sequence[ScoredCandidate]) -> list[float]:
    """A group list's min-max normalized scores, in floats; all 1.0 when its scores are equal."""
    if bucket and bucket[0].score != bucket[-1].score:
        high, low = bucket[0].score, bucket[-1].score
        return [(c.score - low) / (high - low) for c in bucket]
    return [1.0] * len(bucket)


def reference_merge(candidates, target, n, lam=1.0):
    """The merge with every available group scored at every position.

    Returns the entries and the 1-based positions where two or more
    groups' objectives were equal.
    """
    groups = candidates.groups()
    lists = {g: candidates.lists[g] for g in groups}
    normalized = {g: normalized_scores(lists[g]) for g in groups}
    heads = {g: 0 for g in groups}
    counts = {g: 0 for g in groups}
    entries, ties = [], []
    for t in range(1, n + 1):
        available = [g for g in groups if heads[g] < len(lists[g])]
        if not available:
            break
        objectives = {}
        for g in available:
            kl = prefix_divergence({**counts, g: counts[g] + 1}, t, target)
            shat = normalized[g][heads[g]]
            objectives[g] = lam * kl + (1.0 - lam) * (1.0 - shat)
        best = min(available, key=lambda g: (objectives[g], -normalized[g][heads[g]], g))
        if sum(1 for g in available if objectives[g] == objectives[best]) > 1:
            ties.append(t)
        entries.append(lists[best][heads[best]])
        heads[best] += 1
        counts[best] += 1
    return tuple(entries), tuple(ties)


# --- a high-precision model ------------------------------------------------------

DIGITS = 50


class DecimalModel:
    """The prefix divergence, the NDKL curve and the merge's objectives, to ``DIGITS`` digits.

    Every float it is given (a target mass, a normalized score, the
    weight) enters at its exact value, so the model errs only by
    ``decimal``'s rounding, near 1e-49 relative. ``ln`` of each integer
    and of each target mass is computed once and cached: with counts c
    over k items,
    sum_g (c_g / k) ln(c_g / (k p_g)) = (sum_g c_g (ln c_g - ln p_g)) / k - ln k,
    so a term costs multiplications only. The discount 1 / log2(j + 1) is
    ln 2 / ln(j + 1), and ln 2 cancels in the NDKL ratio.
    """

    def __init__(self, target: GroupDistribution):
        self.target = target
        self.context = Context(prec=DIGITS)
        self._ln_int: dict[int, Decimal] = {}
        self._ln_mass: dict[GroupId, Decimal] = {}

    def ln_int(self, n: int) -> Decimal:
        if n not in self._ln_int:
            self._ln_int[n] = self.context.ln(Decimal(n))
        return self._ln_int[n]

    def ln_mass(self, group: GroupId) -> Decimal:
        if group not in self._ln_mass:
            p = self.target.mass(group)
            if p <= 0.0:
                raise ZeroTargetMassError(group)
            self._ln_mass[group] = self.context.ln(Decimal(p))
        return self._ln_mass[group]

    def divergence(self, counts: Mapping[GroupId, int]) -> Decimal:
        """KL divergence from the target of the proportions ``counts / sum(counts)``."""
        with localcontext(self.context):
            k = sum(counts.values())
            total = sum(
                (c * (self.ln_int(c) - self.ln_mass(g)) for g, c in counts.items() if c > 0),
                Decimal(0),
            )
            return total / k - self.ln_int(k)

    def ndkl_curve(self, labels: Sequence[GroupId]) -> list[Decimal]:
        """NDKL of every prefix of a label sequence, as ``sequence_ndkl_curve`` defines it."""
        counts: Counter[GroupId] = Counter()
        weighted = normalizer = Decimal(0)
        curve = []
        with localcontext(self.context):
            for k, group in enumerate(labels, start=1):
                counts[group] += 1
                weight = 1 / self.ln_int(k + 1)
                weighted += weight * self.divergence(counts)
                normalizer += weight
                curve.append(weighted / normalizer)
        return curve

    def merge_objectives(
        self, counts: Mapping[GroupId, int], shat: Mapping[GroupId, float], lam: float
    ) -> dict[GroupId, Decimal]:
        """lam * KL + (1 - lam) * (1 - shat) for each group of ``shat``: KL is the
        divergence of ``counts`` with one more item of that group, and ``shat`` the
        normalized score of that group's head."""
        with localcontext(self.context):
            weight = Decimal(lam)
            return {
                g: weight * self.divergence({**counts, g: counts.get(g, 0) + 1})
                + (1 - weight) * (1 - Decimal(s))
                for g, s in shat.items()
            }


# --- neighbourhood scores ----------------------------------------------------------


def neighbors(graph: SensitiveGraph, v: int) -> set[int]:
    """Neighbor set of ``v``, read from the graph's edges."""
    if not 0 <= v < graph.node_count:
        raise UnknownNodeError(v)
    return {b if a == v else a for a, b in graph.edges if v in (a, b)}


def common_neighbors(graph: SensitiveGraph, u: int, v: int) -> float:
    """Number of shared neighbors of u and v."""
    edge_group(graph, u, v)
    return float(len(neighbors(graph, u) & neighbors(graph, v)))


def adamic_adar(graph: SensitiveGraph, u: int, v: int) -> float:
    """Sum of 1/ln(deg(w)) over shared neighbors w of u and v."""
    edge_group(graph, u, v)
    shared = neighbors(graph, u) & neighbors(graph, v)
    return math.fsum(1.0 / math.log(len(neighbors(graph, w))) for w in shared)


def reference_score_candidates(graph, pairs, scorer, *, decoupled, positives, embeddings=None):
    """Scoring with pairs flat, each grouped through ``edge_group`` and scored alone.

    A heuristic scores one pair at a time with ``common_neighbors`` or
    ``adamic_adar``; decoupled, on a graph of the pair's group's edges
    alone, built from ``edges_by_group``.
    """
    heuristic = {"common_neighbors": common_neighbors, "adamic_adar": adamic_adar}.get(scorer)
    positives = {canonical_edge(u, v) for u, v in positives}
    restricted = {}
    if decoupled:
        for group, edges in graph.edges_by_group().items():
            restricted[group] = SensitiveGraph(graph.node_count, edges, graph.sensitive)
    edgeless = SensitiveGraph(graph.node_count, (), graph.sensitive)
    scored = []
    for u, v in pairs:
        pair = canonical_edge(u, v)
        group = edge_group(graph, *pair)
        if scorer == "embedding":
            value = embedding_dot(embeddings, *pair)
        elif decoupled:
            value = heuristic(restricted.get(group, edgeless), *pair)
        else:
            value = heuristic(graph, *pair)
        scored.append(ScoredCandidate(pair[0], pair[1], value, group, pair in positives))
    return GroupedCandidateSet.from_candidates(scored)


def check_chain_candidates(candidates: GroupedCandidateSet, graph: SensitiveGraph, test_edges):
    """Assert what ``score_candidates`` takes on trust from the pairs' makers.

    The four ``GroupedCandidateSet`` invariants: each candidate is in the
    group of its list (by ``edge_group`` on ``graph``, the graph that was
    split), its score is finite, each list is sorted by descending score
    and then by pair, and no pair appears twice. Also: each pair is
    canonical, a candidate is relevant exactly when it is in
    ``test_edges``, and every other candidate is a non-edge of ``graph``.
    """
    test_edges = {canonical_edge(u, v) for u, v in test_edges}
    seen = set()
    for group, bucket in candidates.lists.items():
        for u, v, score, cand_group, relevance in bucket:
            assert u < v, (u, v)
            assert cand_group == group == edge_group(graph, u, v), (u, v, group)
            assert math.isfinite(score), (u, v, score)
            assert (u, v) not in seen, (u, v)
            seen.add((u, v))
            assert relevance == ((u, v) in test_edges), (u, v)
            assert relevance or (u, v) not in graph.edges, (u, v)
        keys = [(-c.score, c.u, c.v) for c in bucket]
        assert keys == sorted(keys), group


# --- reports ---------------------------------------------------------------------


def eval_report(data: Mapping) -> EvalReport:
    """The ``EvalReport`` whose ``to_dict()`` is ``data``."""
    return EvalReport(
        method=data["method"],
        per_k=tuple(MetricsAtK(**row) for row in data["per_k"]),
        ap=data["ap"],
        delta_dp_selection=data["delta_dp_selection"],
        delta_dp_score=data["delta_dp_score"],
        delta_max=data["delta_max"],
        target=dict(data["target"]),
        bound=data["bound"],
    )


def load_seed_report(path) -> dict[str, EvalReport]:
    """The reports of one seed's ``report.json``, by method."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {name: eval_report(d) for name, d in data["methods"].items()}

"""Plain reference models of the package, written from the definitions.

Slow and obvious on purpose: each model states a documented behaviour
in the most direct code, shares no code with the module under test, and
tests compare the two with ``==``. The error classes come from
``fairlink.errors``, which is the vocabulary both sides speak.

So far this holds the input file readers. A reader either returns its
records or raises the error of the first faulty line, carrying that
line's number; ``load_graph`` reports an unknown or unattributed
endpoint (with no line) only after the whole edge file has parsed.
"""

from __future__ import annotations

import math
from pathlib import Path

from fairlink.errors import (
    DuplicatePairError,
    EmptyEdgeSetError,
    MalformedLineError,
    MissingAttributeError,
    SelfLoopError,
    UnknownNodeError,
)
from fairlink.graphs import GroupId
from fairlink.scorers import ScoredCandidate


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

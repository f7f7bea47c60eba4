"""Differential tests of the input file readers against ``reference``.

Each seed writes an attribute file, an edge file, a score file and a
ranking file with comments, blank lines, commas, spaces, CRLF line ends
and pairs repeated in both orientations, then plants fault kinds at
random lines; in the edge and score files some ids are written as
numerals ``int`` reads but ``str`` does not write (``007``, ``+7``,
``7_0``, non-ASCII digits). An embedding file per seed gets blank lines, tabs, CRLF
line ends and its own fault kinds. Every reader must return what the reference returns
(``==``), or raise the same error class for the same node, pair and
line.
"""

import random
from dataclasses import dataclass, field

import pytest

import reference
from fairlink.errors import (
    DataError,
    DuplicatePairError,
    EmptyEdgeSetError,
    MalformedLineError,
    MissingAttributeError,
    SelfLoopError,
    UnknownNodeError,
)
from fairlink.graphs import load_graph, read_attributes, read_edge_list
from fairlink.rerank import read_ranking
from fairlink.scorers import ScoredCandidate, ingest_scores, load_embeddings

SEEDS = range(30)
SEPARATORS = ("\t", ",", " ", ", ", " \t ")
# Ids that ``int`` reads but that are not written as ``str`` writes them.
NUMERALS = ["zeros", "plus", "underscore", "digits"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def noncanonical(kind: str, text: str) -> str:
    """``text`` as a numeral of ``kind``: ``007``, ``+7``, ``7_0``, or in non-ASCII digits."""
    if kind == "zeros":
        return "00" + text
    if kind == "plus":
        return "+" + text
    if kind == "underscore":
        return text[0] + "_" + text[1:] if len(text) > 1 else "0_" + text
    return text.translate(ARABIC_INDIC)


def rewrite_an_id(rng, kind, rows, i) -> None:
    """Write one of the two ids of row ``i`` as a numeral of ``kind``."""
    row = list(rows[i])
    j = rng.randrange(2)
    row[j] = noncanonical(kind, row[j])
    rows[i] = row


@dataclass
class Files:
    attrs: dict[int, int]
    node_count: int
    test_edges: list[tuple[int, int]]
    paths: dict[str, object] = field(default_factory=dict)


def _render(rng, rows, sep=None, crlf=False) -> bytes:
    """Rows of fields as lines, with comments, blank lines and mixed separators."""
    lines = []
    for row in rows:
        if rng.random() < 0.1:
            lines.append(rng.choice(["# comment", "", "   ", "\t# indented comment"]))
        lines.append((sep or rng.choice(SEPARATORS)).join(row))
    return ("\r\n" if crlf else "\n").join(lines).encode() + (b"\r\n" if crlf else b"\n")


def _plant(rng, rows, kinds, fault) -> None:
    """Apply ``fault(kind, rows, i)`` for each kind at a random row index."""
    for kind in kinds:
        if rows:
            fault(kind, rows, rng.randrange(len(rows)))


def _pick_faults(rng, seed, kinds) -> list[str]:
    """One kind per seed in turn (none on some seeds), sometimes a second at random."""
    chosen = [kinds[seed % len(kinds)]] if seed % (len(kinds) + 1) != len(kinds) else []
    if rng.random() < 0.3:
        chosen.append(rng.choice(kinds))
    return chosen


def write_files(tmp_path, seed) -> Files:
    rng = random.Random(seed)
    n = rng.randint(10, 30)
    values = rng.randint(2, 4)
    attrs = {v: rng.randrange(values) for v in range(n) if v == n - 1 or rng.random() > 0.15}
    node_count = max(attrs) + 1
    nodes = sorted(attrs)
    gaps = [v for v in range(node_count) if v not in attrs]
    crlf = rng.random() < 0.3

    def some_pairs(count):
        pairs = set()
        while len(pairs) < count:
            u, v = rng.sample(nodes, 2)
            pairs.add((min(u, v), max(u, v)))
        return sorted(pairs)

    def oriented(pair):
        return pair if rng.random() < 0.5 else pair[::-1]

    # Attributes: shuffled, some lines repeated with the same value.
    attr_rows = [[str(v), str(a)] for v, a in attrs.items()]
    attr_rows += [list(row) for row in rng.sample(attr_rows, 3)]
    rng.shuffle(attr_rows)

    def attr_fault(kind, rows, i):
        node = rows[i][0]
        rows.insert(i, {
            "fields": [node],
            "nonint": [node, "x"],
            "negative_node": ["-3", "1"],
            "negative_value": [node, "-1"],
            "conflict": [node, str(values + 1)],
        }[kind])

    attr_kinds = ["fields", "nonint", "negative_node", "negative_value", "conflict"]
    _plant(rng, attr_rows, _pick_faults(rng, seed, attr_kinds), attr_fault)

    # Edges: each pair once, some repeated later in either orientation.
    edge_pairs = some_pairs(min(3 * n, len(nodes) * (len(nodes) - 1) // 2))
    edge_rows = [list(map(str, oriented(p))) for p in edge_pairs]
    for pair in rng.sample(edge_pairs, 5):
        edge_rows.insert(rng.randrange(len(edge_rows) + 1), list(map(str, oriented(pair))))

    def edge_fault(kind, rows, i):
        if kind in NUMERALS:
            return rewrite_an_id(rng, kind, rows, i)
        u = rows[i][0]
        if kind == "unattributed" and not gaps:
            kind = "unknown"
        rows.insert(i, {
            "fields": [u, u, "1"],
            "nonint": [u, "1.5"],
            "negative": [u, "-2"],
            "selfloop": [u, u],
            "unknown": [u, str(node_count + 4)],
            "unattributed": [str(gaps[0]) if gaps else u, u],
            # Both endpoints bad, the higher one first: the lower one is reported.
            "both": [str(node_count + 2), str(gaps[-1]) if gaps else str(node_count + 3)],
        }[kind])

    edge_kinds = ["fields", "nonint", "negative", "selfloop", "unknown", "unattributed", "both",
                  *NUMERALS]
    _plant(rng, edge_rows, _pick_faults(rng, seed, edge_kinds), edge_fault)

    # Scores: distinct pairs in either orientation, with ties.
    score_pairs = some_pairs(min(2 * n, len(nodes) * (len(nodes) - 1) // 2))
    score_rows = [
        [*map(str, oriented(p)), repr(round(rng.random(), rng.choice([1, 3, 17])))]
        for p in score_pairs
    ]

    def score_fault(kind, rows, i):
        if kind in NUMERALS:
            return rewrite_an_id(rng, kind, rows, i)
        u, v, s = rows[i]
        rows.insert(i + (kind == "duplicate"), {
            "fields": [u, v],
            "nonnumeric": [u, v, "high"],
            "nonfinite": [u, v, rng.choice(["nan", "inf", "-inf"])],
            "selfloop": [u, u, s],
            "duplicate": [v, u, s],
            "unknown": [str(node_count + 2), u, s],
            "unattributed": [u, str(gaps[0]) if gaps else str(-1), s],
            "both": [str(node_count + 2), str(gaps[-1]) if gaps else str(node_count + 3), s],
        }[kind])

    score_kinds = ["fields", "nonnumeric", "nonfinite", "selfloop", "duplicate", "unknown",
                   "unattributed", "both", *NUMERALS]
    _plant(rng, score_rows, _pick_faults(rng, seed, score_kinds), score_fault)

    # Ranking: tab-separated, pairs and group labels in either orientation.
    ranking_rows = []
    for rank, pair in enumerate(rng.sample(score_pairs, len(score_pairs) // 2), start=1):
        a, b = attrs[pair[0]], attrs[pair[1]]
        u, v = oriented(pair)
        ranking_rows.append([
            str(rank), str(u), str(v), f"{a}-{b}" if rng.random() < 0.5 else f"{b}-{a}",
            repr(rng.random()), str(rng.randint(0, 1)),
        ])

    def ranking_fault(kind, rows, i):
        if kind == "rank":
            rows[i][0] = str(int(rows[i][0]) + 1)
            return
        row = list(rows[i])
        if kind == "fields":
            row = row[:5]
        elif kind == "nonparse":
            row[3] = "a-1"
        elif kind == "nonfinite":
            row[4] = rng.choice(["nan", "inf", "-inf"])
        elif kind == "relevance":
            row[5] = rng.choice(["7", "-1", "2"])
        elif kind == "selfloop":
            row[2] = row[1]
        elif kind == "duplicate" and i > 0:
            row[1], row[2] = rows[i - 1][2], rows[i - 1][1]
        rows[i] = row

    ranking_kinds = ["fields", "nonparse", "rank", "nonfinite", "relevance", "selfloop",
                     "duplicate"]
    _plant(rng, ranking_rows, _pick_faults(rng, seed, ranking_kinds), ranking_fault)

    files = Files(attrs, node_count, [oriented(p) for p in rng.sample(score_pairs, n // 3)])
    for name, rows, sep in (
        ("attrs", attr_rows, None),
        ("edges", edge_rows, None),
        ("scores", score_rows, None),
        ("ranking", ranking_rows, "\t"),
    ):
        files.paths[name] = tmp_path / f"{name}.tsv"
        files.paths[name].write_bytes(_render(rng, rows, sep, crlf))
    # The same data without planted faults, for readers that take a graph.
    files.paths["clean_attrs"] = tmp_path / "clean_attrs.tsv"
    files.paths["clean_attrs"].write_text("".join(f"{v}\t{a}\n" for v, a in attrs.items()))
    return files


EMBEDDING_FAULTS = ["fields", "nonnumeric", "nan", "inf", "repeat", "count"]


def write_embeddings(path, seed) -> list[str]:
    """An embedding file with planted faults; returns the fault kinds planted.

    ``repeat`` gives a node a second row, so the file holds one row more
    than its header declares, but as many distinct nodes.
    """
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    nodes = rng.sample(range(40), rng.randint(3, 20))
    rows = [[str(node), *(repr(rng.uniform(-1, 1)) for _ in range(dim))] for node in nodes]
    declared = len(rows)

    def fault(kind, rows, i):
        nonlocal declared
        row = list(rows[i])
        if kind == "fields":
            rows[i] = row[:-1]
        elif kind == "nonnumeric":
            row[rng.randrange(len(row))] = "x"
            rows[i] = row
        elif kind in ("nan", "inf"):
            values = ["nan", "NaN"] if kind == "nan" else ["inf", "-inf", "Infinity", "1e999"]
            row[rng.randrange(1, len(row))] = rng.choice(values)
            rows[i] = row
        elif kind == "repeat":
            again = [row[0], *(repr(rng.uniform(-1, 1)) for _ in range(dim))]
            rows.insert(rng.randint(i + 1, len(rows)), again)
        else:
            declared += rng.choice([-1, 1])

    kinds = _pick_faults(rng, seed, EMBEDDING_FAULTS)
    _plant(rng, rows, kinds, fault)
    lines = [f"{declared} {dim}"]
    for row in rows:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   "]))
        lines.append(rng.choice([" ", "\t", "  "]).join(row))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    path.write_bytes((end.join(lines) + end).encode())
    return kinds


def outcome(read, *args):
    """``("ok", value)``, or ``("error", (class, node, pair, line_no))`` for a data error."""
    try:
        return "ok", read(*args)
    except DataError as exc:
        detail = tuple(getattr(exc, name, None) for name in ("node", "pair", "line_no"))
        return "error", (type(exc), *detail)


def graph_data(graph) -> dict:
    assert type(graph.edges) is frozenset
    return {
        "node_count": graph.node_count,
        "sensitive": graph.sensitive,
        "edges": graph.edges,
        "groups": list(graph.edges_by_group().items()),
    }


@pytest.fixture(params=SEEDS)
def files(request, tmp_path):
    return write_files(tmp_path, request.param)


def test_read_attributes_matches_reference(files):
    path = files.paths["attrs"]
    assert outcome(read_attributes, path) == outcome(reference.read_attributes, path)


def test_read_edge_list_matches_reference(files):
    path = files.paths["edges"]
    assert outcome(read_edge_list, path) == outcome(reference.read_edge_list, path)


def test_load_graph_matches_reference(files):
    for attrs in (files.paths["attrs"], files.paths["clean_attrs"]):
        expected = outcome(reference.load_graph, files.paths["edges"], attrs)
        kind, got = outcome(load_graph, files.paths["edges"], attrs)
        assert (kind, graph_data(got) if kind == "ok" else got) == expected


def test_ingest_scores_matches_reference(files):
    edges = files.paths["scores"].with_name("no_edges.tsv")
    edges.write_text("")
    graph = load_graph(edges, files.paths["clean_attrs"])
    expected = outcome(
        reference.ingest_scores, files.paths["scores"], files.attrs, files.node_count,
        files.test_edges,
    )
    kind, got = outcome(ingest_scores, files.paths["scores"], graph, files.test_edges)
    assert (kind, got.lists if kind == "ok" else got) == expected
    if kind == "ok":
        assert {type(c) for bucket in got.lists.values() for c in bucket} <= {ScoredCandidate}


def test_read_ranking_matches_reference(files):
    path = files.paths["ranking"]
    kind, got = outcome(read_ranking, path)
    assert (kind, list(got.entries) if kind == "ok" else got) == outcome(
        reference.read_ranking, path
    )


def test_every_fault_kind_is_planted(tmp_path):
    # Across the seeds, the reference meets every error each reader can raise.
    seen = {name: set() for name in ("attrs", "edges", "graph", "scores", "ranking")}
    for seed in SEEDS:
        (tmp_path / str(seed)).mkdir()
        files = write_files(tmp_path / str(seed), seed)
        for name, read, args in (
            ("attrs", reference.read_attributes, (files.paths["attrs"],)),
            ("edges", reference.read_edge_list, (files.paths["edges"],)),
            ("graph", reference.load_graph, (files.paths["edges"], files.paths["clean_attrs"])),
            ("scores", reference.ingest_scores,
             (files.paths["scores"], files.attrs, files.node_count, files.test_edges)),
            ("ranking", reference.read_ranking, (files.paths["ranking"],)),
        ):
            kind, got = outcome(read, *args)
            seen[name].add(got[0] if kind == "error" else None)
    assert seen["attrs"] == {None, MalformedLineError}
    assert seen["edges"] == {None, MalformedLineError, SelfLoopError}
    assert seen["graph"] == {
        None, MalformedLineError, SelfLoopError, UnknownNodeError, MissingAttributeError
    }
    assert seen["scores"] == {
        None, MalformedLineError, SelfLoopError, DuplicatePairError, UnknownNodeError,
        MissingAttributeError,
    }
    assert seen["ranking"] == {None, MalformedLineError, SelfLoopError, DuplicatePairError}


def test_parse_error_wins_over_an_earlier_unattributed_endpoint(tmp_path):
    # Node 2 has no attribute (line 2); line 5 cannot be parsed.
    edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
    edges.write_text("0\t1\n0\t2\n# comment\n1\t3\n1\tx\n")
    attrs.write_text("0\t0\n1\t1\n3\t0\n")
    with pytest.raises(MalformedLineError) as exc:
        load_graph(edges, attrs)
    assert exc.value.line_no == 5
    edges.write_text("0\t1\n0\t2\n# comment\n1\t3\n")
    with pytest.raises(MissingAttributeError) as exc:
        load_graph(edges, attrs)
    assert (exc.value.node, exc.value.line_no) == (2, None)


def test_each_node_id_is_one_int_object(tmp_path):
    # Ids from 1000 up: CPython shares the ints up to 256 whichever way they are built.
    rng = random.Random(7)
    nodes = range(1000, 1060)
    attrs, edges, scores = (tmp_path / name for name in ("attrs.tsv", "edges.tsv", "scores.tsv"))
    attrs.write_text("".join(f"{v}\t{v % 3}\n" for v in nodes))

    def id_text(node):
        return noncanonical(rng.choice(NUMERALS), str(node)) if rng.random() < 0.3 else str(node)

    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(300)]
    edges.write_text("".join(f"{id_text(u)}\t{id_text(v)}\n" for u, v in pairs))
    distinct = {(min(p), max(p)) for p in pairs}
    scores.write_text("".join(f"{id_text(u)},{id_text(v)},{rng.random()!r}\n" for u, v in distinct))

    graph = load_graph(edges, attrs)
    key = {node: node for node in graph.sensitive}
    assert graph.edges == distinct
    assert all(u is key[u] and v is key[v] for u, v in graph.edges)
    assert all(
        u is key[u] and v is key[v] for bucket in graph.edges_by_group().values() for u, v in bucket
    )
    candidates = ingest_scores(scores, graph, list(distinct)[:20])
    assert candidates.total() == len(distinct)
    assert all(
        c.u is key[c.u] and c.v is key[c.v] for bucket in candidates.lists.values() for c in bucket
    )
    first: dict[int, int] = {}
    assert all(first.setdefault(x, x) is x for edge in read_edge_list(edges) for x in edge)


def test_noncanonical_ids_keep_every_error(tmp_path):
    # An id that misses the index is checked as int reads it: a self-loop, a
    # negative, an unattributed or unknown id, or a repeated pair is still found.
    edges, attrs, scores = (tmp_path / name for name in ("edges.tsv", "attrs.tsv", "scores.tsv"))
    attrs.write_text("".join(f"{v}\t{v % 2}\n" for v in range(300, 310)))
    for text, error, detail in [
        ("300\t0300\n", SelfLoopError, (300, None, 1)),
        ("# c\n301 +301\n", SelfLoopError, (301, None, 2)),
        ("300\t-0301\n", MalformedLineError, (None, None, 1)),
        ("300\t3_0_9\n300\t0299\n", MissingAttributeError, (299, None, None)),
        ("300\t0311\n", UnknownNodeError, (311, None, None)),
    ]:
        edges.write_text(text)
        assert outcome(load_graph, edges, attrs) == ("error", (error, *detail)), text
    edges.write_text("")
    graph = load_graph(edges, attrs)
    for text, error, detail in [
        ("300 301 0.5\n+301 0300 0.25\n", DuplicatePairError, (None, (300, 301), 2)),
        ("302 0302 0.5\n", SelfLoopError, (302, None, 1)),
        ("300 -0301 0.5\n", UnknownNodeError, (-301, None, 1)),
        ("300 0311 0.5\n", UnknownNodeError, (311, None, 1)),
    ]:
        scores.write_text(text)
        assert outcome(ingest_scores, scores, graph, []) == ("error", (error, *detail)), text


def test_empty_attribute_file_is_an_empty_graph(tmp_path):
    edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
    edges.write_text("0\t1\n")
    attrs.write_text("# no nodes\n")
    with pytest.raises(EmptyEdgeSetError):
        load_graph(edges, attrs)



@pytest.mark.parametrize("seed", SEEDS)
def test_load_embeddings_matches_reference(tmp_path, seed):
    path = tmp_path / "embeddings.txt"
    write_embeddings(path, seed)
    assert outcome(load_embeddings, path) == outcome(reference.load_embeddings, path)


def test_every_embedding_fault_is_planted(tmp_path):
    planted, seen = set(), set()
    for seed in SEEDS:
        path = tmp_path / f"{seed}.txt"
        planted.update(write_embeddings(path, seed))
        kind, got = outcome(reference.load_embeddings, path)
        seen.add(got[0] if kind == "error" else None)
    assert planted == set(EMBEDDING_FAULTS)
    assert seen == {None, MalformedLineError}

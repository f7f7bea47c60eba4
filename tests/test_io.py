import os
import stat
from types import SimpleNamespace

import pytest

from fairlink.io import atomic_write
from fairlink.rerank import read_ranking, write_ranking
from fairlink.synth import write_graph_files

from conftest import G00, G01
from reference import ranking_from_groups


@pytest.fixture
def ranking():
    return ranking_from_groups([G00, G01, G00])


def test_failed_rename_leaves_no_temp_file(tmp_path, ranking):
    target = tmp_path / "ranking.tsv"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        write_ranking(target, ranking)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ranking.tsv"]
    assert target.is_dir()


def test_other_writers_temp_file_untouched(tmp_path, ranking):
    foreign = tmp_path / "ranking.tsv.tmp"
    foreign.write_text("half-written by another process\n", encoding="utf-8")
    write_ranking(tmp_path / "ranking.tsv", ranking)
    assert foreign.read_text(encoding="utf-8") == "half-written by another process\n"
    assert read_ranking(tmp_path / "ranking.tsv").entries == ranking.entries
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ranking.tsv", "ranking.tsv.tmp"]


def test_concurrent_writers_use_separate_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    with atomic_write(target) as first, atomic_write(target) as second:
        assert first.name != second.name
        first.write("first\n")
        second.write("second\n")
    # The outer writer closes last, so its content wins.
    assert target.read_text(encoding="utf-8") == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_error_in_body_keeps_old_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("new\n")
            raise RuntimeError("interrupted")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_missing_parent_directory_created(tmp_path, ranking):
    target = tmp_path / "a" / "b" / "ranking.tsv"
    write_ranking(target, ranking)
    assert read_ranking(target).entries == ranking.entries


class _AttrsFailingAt(dict):
    """Attribute map whose lookup of the last node fails mid-write."""

    def __getitem__(self, node):
        if node == max(self):
            raise RuntimeError("write interrupted")
        return super().__getitem__(node)


def test_graph_attribute_file_written_atomically(tmp_path):
    edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
    attrs.write_text("0\t1\n1\t1\n", encoding="utf-8")
    graph = SimpleNamespace(edges=[(0, 1)], sensitive=_AttrsFailingAt({0: 0, 1: 0}))
    with pytest.raises(RuntimeError):
        write_graph_files(graph, edges, attrs)
    assert attrs.read_text(encoding="utf-8") == "0\t1\n1\t1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["attrs.tsv", "edges.tsv"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_output_mode_follows_umask(tmp_path, ranking, umask):
    previous = os.umask(umask)
    try:
        write_ranking(tmp_path / "ranking.tsv", ranking)
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "ranking.tsv").stat().st_mode)
    assert mode == 0o666 & ~umask

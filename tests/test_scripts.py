"""Every experiment script imports and parses its arguments; the pipeline,
merge and oracle benchmarks also run, small, so that their own checks do."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script: Path, *args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_help_exits_zero(script):
    result = run_script(script, "--help")
    assert result.returncode == 0, result.stderr


def test_bench_pipeline_times_every_stage():
    # The stage times are the load, run_single's own, and the seed's writes;
    # the loaded graph's memory comes from one more load, traced.
    result = run_script(ROOT / "scripts" / "bench_pipeline.py", "--nodes", "200", "--repeats", "1")
    assert result.returncode == 0, result.stderr
    [row] = json.loads(result.stdout)["rows"]
    assert (row["nodes"], row["edges"]) == (200, 3931)
    assert list(row["seconds"]) == [
        "load", "split", "subgraphs", "negatives", "scoring", "merges", "evaluation", "writes"
    ]
    assert all(value >= 0 for value in row["seconds"].values())
    memory = row["load_memory_mb"]
    assert list(memory) == ["retained", "peak"]
    assert 0 < memory["retained"] <= memory["peak"]
    assert len(row["outputs_sha256"]) == 64


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_pipeline_repeats_below_one_exit_two(repeats):
    # No seed would run: the best time of each stage would be Infinity, not JSON.
    result = run_script(
        ROOT / "scripts" / "bench_pipeline.py", "--nodes", "200", "--repeats", repeats
    )
    assert result.returncode == 2, result.stderr
    assert "--repeats" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_synthetic_pipeline_repeats_zero_exit_two_before_writing(tmp_path):
    script = ROOT / "scripts" / "run_synthetic_pipeline.py"
    result = run_script(script, "--repeats", "0", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "repeats" in result.stderr and "Traceback" not in result.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "script", ["run_synthetic_pipeline.py", "bench_pipeline.py"], ids=lambda name: name
)
def test_too_few_nodes_exit_two(script, tmp_path):
    # 40 nodes cannot hold about 20 edges per node: the 0-0 density would exceed 1.
    result = run_script(ROOT / "scripts" / script, "--nodes", "40", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "--nodes" in result.stderr and "40 nodes" in result.stderr
    assert "Traceback" not in result.stderr
    assert not any(tmp_path.iterdir())


def test_bench_merge_traces_verify():
    # The script exits non-zero when verify_trace flags a step of any cell.
    result = run_script(
        ROOT / "scripts" / "bench_merge.py", "--groups", "3", "21", "--n", "200", "--repeats", "1"
    )
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)["rows"]
    assert [(r["groups"], r["lam"]) for r in rows] == [(3, 1.0), (3, 0.5), (21, 1.0), (21, 0.5)]
    assert all(list(r) == ["groups", "n", "lam", "seconds", "ndkl_seconds", "ties"] for r in rows)
    assert all(r["ndkl_seconds"] >= 0 for r in rows)
    # Rational masses (g + 1)/231 tie objectives exactly at G = 21.
    assert rows[2]["ties"] > 0


def test_bench_oracle_counts_states_and_orderings():
    # The script asserts that the oracle certifies every ordering of the multiset.
    result = run_script(ROOT / "scripts" / "bench_oracle.py", "--counts", "2/2/1", "--repeats", "1")
    assert result.returncode == 0, result.stderr
    [row] = json.loads(result.stdout)["rows"]
    assert list(row) == ["counts", "states", "orderings", "seconds"]
    assert (row["counts"], row["states"], row["orderings"]) == ("2/2/1", 18, 30)
    assert row["seconds"] >= 0

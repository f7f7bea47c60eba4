"""Smoke test of the benchmark itself, on tiny inputs.

Run from the repository root:
  python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TIMED_UNITS = {"s", "us", "1/s", "ratio"}


def run_bench(workload: str, trace: int, root: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), f"--workload={workload}",
         "--seed=3", "--seconds=0.1", f"--trace={trace}", "--size=tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(done) -> tuple[list[str], dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    lines, result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(expected) | {"failed_share", "op_s.p90"} <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(run_bench(workload, 1))[1]["metrics"] for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in metrics.items() if m["unit"] not in TIMED_UNITS}
        for metrics in runs
    ]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""fairlink benchmark: one workload, one seed, one closed-loop client.

Generates the workload's inputs in one process, times set-up in several
fresh processes, then runs the operations in a separate measuring process
(untraced, or traced with --trace 1). Prints each metric by name with its
unit, and as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Usage (from the repository root):
  python3 perfbench/run.py --workload pipeline_binary --seed 0 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Relative to ROOT, the working directory of every child process: a
# pipeline report's config hash covers its input paths, so absolute paths
# would tie the pinned digests to where the checkout lives.
WORK_DIR = Path(".perfbench-work")
BUDGET_S = 170
SETUP_PROBES = 7
# Work unit of work_per_s on each workload.
WORK_UNITS = {
    "pipeline_binary": "graph edges",
    "rerank_multigroup": "ranked positions emitted",
    "certify": "orderings certified",
}
P90_MIN_OPS = 100


def drift_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: a reading of host speed, never a divisor."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - started


class Runner:
    """Runs the benchmark's child processes within one overall time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def run(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time budget exhausted")
        # subprocess.run kills and reaps the child when the timeout expires.
        done = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"{Path(args[0]).name} exited with code {done.returncode}")
        return done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=sorted(SIZES), help="tiny: smoke test only"
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "fairlink" / "__init__.py").is_file():
        print(f"no fairlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK_DIR / args.size / args.workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    runner = Runner()
    drift_before = drift_loop_s()
    try:
        runner.run(
            str(HERE / "generate.py"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--out={inputs}",
            f"--size={args.size}",
        )
        probe = [str(HERE / "probe.py")]
        if args.workload != "certify":
            probe.append(str(inputs))
        runner.run(*probe)  # warm-up: file cache and bytecode, not timed
        setup_s = [float(runner.run(*probe)) for _ in range(SETUP_PROBES)]
        printed = runner.run(
            str(HERE / "worker.py"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--inputs={inputs}",
            f"--out={out}",
            f"--size={args.size}",
        )
        result = json.loads(printed.splitlines()[-1])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    drift_after = drift_loop_s()

    op_s = result["op_s"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"operations {len(op_s)} timed, {attempted} attempted, {failed} failed")
    print(f"failed_share {failed / attempted:.4f} (ratio)")
    print(f"op_s.p50 {statistics.median(op_s):.6f} s (not gated, see perfbench/README.md)")
    if len(op_s) >= P90_MIN_OPS:
        print(f"op_s.p90 {statistics.quantiles(op_s, n=10)[8]:.6f} s (samples {len(op_s)})")
    else:
        print(f"op_s.p90 not reported: {len(op_s)} samples, fewer than {P90_MIN_OPS}")
    print(f"work unit: {WORK_UNITS[args.workload]}")
    print(f"setup_s samples {[round(s, 4) for s in setup_s]}")
    print(f"drift_loop_s before {drift_before:.4f} after {drift_after:.4f}")
    checked = "checked against pinned value" if result["digest_checked"] else "not pinned"
    print(f"first output digest {result['digest']} ({checked})")

    if args.trace:
        values = result["layers"]
    else:
        # The fastest operation is gated, not the median: see perfbench/README.md.
        values = {
            "op_s.min": min(op_s),
            "work_per_s": max(w / t for w, t in zip(result["work"], op_s)),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

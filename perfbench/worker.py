"""The measuring process: runs one workload's operations in a closed loop.

One client, one operation at a time, no extra threads. Prints one JSON
object with the per-operation timings, failures, digest, peak RSS and,
for a traced run, the per-layer metrics.

Usage:
  python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
      --inputs DIR --out DIR [--size tiny]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import fairlink

from spec import DEFAULT_SEED, SIZES, TRACED_OPS, WORKLOADS
from tracing import Tracer
from workloads import WORKLOADS as OPERATIONS
from workloads import Outcome

DIGESTS = Path(__file__).with_name("digests.json")


class Run:
    """Timings and outcomes of the operations in one run."""

    def __init__(self, workload, expected_digest: str | None):
        self.workload = workload
        self.expected_digest = expected_digest
        self.op_s: list[float] = []
        self.work: list[int] = []
        self.failed = 0
        self.first_digest: str | None = None
        self.outcomes: list[Outcome] = []

    def measure(self, op: int, call) -> None:
        """Time ``call()`` (operation ``op``), then check its outputs."""
        # Every operation starts from the same collector state, so garbage
        # left by the previous one is not collected on this one's clock.
        gc.collect()
        elapsed = None
        started = time.perf_counter()
        try:
            produced = call()
            elapsed = time.perf_counter() - started
            outcome = self.workload.check(produced)
        except Exception as exc:  # a failed operation is counted, not fatal
            if elapsed is None:
                elapsed = time.perf_counter() - started
            outcome = Outcome(work=0, problems=[f"{type(exc).__name__}: {exc}"])
        if self.first_digest is None:
            self.first_digest = outcome.digest
            if self.expected_digest is not None and outcome.digest != self.expected_digest:
                outcome.problems.append("outputs differ from the pinned digest")
        if outcome.problems:
            self.failed += 1
            print(f"operation {op} failed: {outcome.problems[:3]}", file=sys.stderr)
        self.op_s.append(elapsed)
        self.work.append(outcome.work)
        self.outcomes.append(outcome)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(fairlink.__file__).resolve().parents:
        print(f"fairlink imported from {fairlink.__file__}, not from {src}", file=sys.stderr)
        return 2

    expected = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
    make = OPERATIONS[args.workload]
    inputs, out = Path(args.inputs), Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    size = SIZES[args.size]

    layers = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload = make(inputs, out, args.seed, size)
        tracer.uninstall()
        untraced, traced = Run(workload, expected), Run(workload, None)
        # Alternate untraced and traced runs of the same operation, so that
        # host drift affects both sides of the overhead ratio alike.
        for op in range(TRACED_OPS):
            untraced.measure(op, lambda: workload.run(op))
            tracer.install()
            try:
                traced.measure(op, lambda: tracer.run_op(op, lambda: workload.run(op)))
            finally:
                tracer.uninstall()
        tracer.write_spans(out / "spans.jsonl")
        fastest = min(range(TRACED_OPS), key=traced.op_s.__getitem__)
        layers = tracer.layer_metrics(TRACED_OPS, fastest, workload.graph_edges)
        layers["trace.overhead"] = min(traced.op_s) / min(untraced.op_s)
        layers["oracle.greedy_above_min"] = sum(o.greedy_above_min for o in traced.outcomes)
        layers["oracle.worst_shortfall"] = sum(o.worst_shortfall for o in traced.outcomes)
        timed, attempted, failed = untraced, 2 * TRACED_OPS, untraced.failed + traced.failed
    else:
        workload = make(inputs, out, args.seed, size)
        timed = Run(workload, expected)
        deadline = time.perf_counter() + args.seconds
        op = 0
        while op == 0 or time.perf_counter() < deadline:
            timed.measure(op, lambda: workload.run(op))
            op += 1
        attempted, failed = len(timed.op_s), timed.failed

    result = {
        "op_s": timed.op_s,
        "work": timed.work,
        "attempted": attempted,
        "failed": failed,
        "digest": timed.first_digest,
        "digest_checked": expected is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Time the KL-greedy merge as a function of group count G and output length n.

Runs ``kl_greedy_merge`` on synthetic candidate lists for every
G x n x lambda on the grid and prints one JSON object with the best wall
time of each cell. Group g of G has target mass proportional to g + 1
(rational masses, so exact ties occur) and about twice as many
candidates as the merge takes from it, so no list runs out. Each
cell's trace is then checked with ``oracle.verify_trace``, outside the
timed region; the script exits 1 if any step breaks the merge's rule.
Standard library only; the code timed is whichever ``fairlink`` is on
the path.

Usage (from the repository root):
  PYTHONPATH=src python scripts/bench_merge.py
  PYTHONPATH=src python scripts/bench_merge.py --groups 3 21 --n 1000 --repeats 5
"""

import argparse
import json
import math
import platform
import sys
import time

from fairlink.graphs import GroupDistribution, GroupId
from fairlink.oracle import verify_trace
from fairlink.rerank import kl_greedy_merge, synthetic_candidate_set


def groups_of(count: int) -> list[GroupId]:
    """The first ``count`` groups over enough attribute values to hold them."""
    values = 1
    while values * (values + 1) // 2 < count:
        values += 1
    every = [GroupId.of(a, b) for a in range(values) for b in range(a, values)]
    return every[:count]


def instance(group_count: int, n: int):
    groups = groups_of(group_count)
    weight_total = group_count * (group_count + 1) // 2
    target = GroupDistribution({g: (i + 1) / weight_total for i, g in enumerate(groups)})
    sizes = {g: math.ceil(2 * n * target.mass(g)) + 10 for g in groups}
    return synthetic_candidate_set(sizes), target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", type=int, nargs="+", default=[3, 21, 55])
    parser.add_argument("--n", type=int, nargs="+", default=[1_000, 10_000])
    parser.add_argument("--lam", type=float, nargs="+", default=[1.0, 0.5])
    parser.add_argument("--repeats", type=int, default=3, help="runs per cell; the best is kept")
    args = parser.parse_args()

    rows, failed = [], 0
    for group_count in args.groups:
        for n in args.n:
            candidates, target = instance(group_count, n)
            for lam in args.lam:
                best = math.inf
                for _ in range(args.repeats):
                    started = time.perf_counter()
                    ranking, trace = kl_greedy_merge(candidates, target, n, lam)
                    best = min(best, time.perf_counter() - started)
                assert len(ranking) == n
                violation = verify_trace(trace, target).first_violation
                if violation is not None:
                    failed += 1
                    print(f"G={group_count} n={n} lam={lam}: {violation}", file=sys.stderr)
                rows.append({"groups": group_count, "n": n, "lam": lam, "seconds": round(best, 4)})
    print(
        json.dumps(
            {"python": platform.python_version(), "repeats": args.repeats, "rows": rows},
            indent=2,
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

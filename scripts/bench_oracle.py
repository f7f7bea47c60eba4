#!/usr/bin/env python3
"""Time the oracle's exact NDKL extremes on three-group multisets.

Runs ``enumerate_ndkl_extremes`` on each multiset of the grid (counts of
groups 0-0, 0-1 and 1-1 under the target 0.5 / 0.3 / 0.2) and prints one
JSON object with the best wall time of each. Each row also gives the
states of the multiset's count lattice (the product of count + 1 over
the groups), which is what the walk's time grows with, and the number
of orderings its result certifies. The default grid runs past the
14-item default guard, up to 40/30/20. Standard library only; the code
timed is whichever ``fairlink`` is on the path.

Usage (from the repository root):
  PYTHONPATH=src python scripts/bench_oracle.py
  PYTHONPATH=src python scripts/bench_oracle.py --counts 5/4/2 40/30/20 --repeats 5
"""

import argparse
import json
import math
import platform
import time

from fairlink.graphs import GroupDistribution, GroupId
from fairlink.oracle import MultisetSpec, enumerate_ndkl_extremes

GROUPS = (GroupId.of(0, 0), GroupId.of(0, 1), GroupId.of(1, 1))
TARGET = GroupDistribution(dict(zip(GROUPS, (0.5, 0.3, 0.2))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--counts", nargs="+", default=["5/4/2", "6/5/3", "10/8/6", "20/15/10", "40/30/20"],
        help="multisets as A/B/C counts of groups 0-0, 0-1 and 1-1",
    )
    parser.add_argument("--repeats", type=int, default=3, help="runs per multiset; the best is kept")
    args = parser.parse_args()

    rows = []
    for text in args.counts:
        spec = MultisetSpec(dict(zip(GROUPS, (int(c) for c in text.split("/")))))
        best = math.inf
        for _ in range(args.repeats):
            started = time.perf_counter()
            result = enumerate_ndkl_extremes(spec, TARGET, guard=spec.total)
            best = min(best, time.perf_counter() - started)
        counts = list(spec.group_counts.values())
        orderings = math.prod(math.comb(sum(counts[i:]), c) for i, c in enumerate(counts))
        assert result.permutations_examined == orderings
        rows.append({
            "counts": text,
            "states": math.prod(c + 1 for c in counts),
            "orderings": result.permutations_examined,
            "seconds": round(best, 4),
        })
    print(
        json.dumps(
            {"python": platform.python_version(), "repeats": args.repeats, "rows": rows},
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

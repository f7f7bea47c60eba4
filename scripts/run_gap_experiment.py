#!/usr/bin/env python3
"""Trace the greedy-vs-worst exposure gap for the six reference targets.

For each target the top-k intra/inter split is fixed at its
parity-optimal value, so the two curves per target share the exact same
dyadic parity gap and perfect precision; only the exposure order
differs. One CSV per target lands in the output directory.

Usage:
  python scripts/run_gap_experiment.py --out results/gap
  python scripts/run_gap_experiment.py --k-grid 10 100 1000 --out results/gap
"""

import argparse
from pathlib import Path

from fairlink.graphs import GroupDistribution, GroupId
from fairlink.rerank import default_gap_pools, gap_experiment

G00, G01, G11 = GroupId.of(0, 0), GroupId.of(0, 1), GroupId.of(1, 1)

# Edge-group shares (inter, majority-intra, minority-intra) measured on
# six public attributed graphs.
REFERENCE_PROPORTIONS = {
    "facebook": {G01: 0.42, G00: 0.44, G11: 0.14},
    "german": {G01: 0.20, G00: 0.61, G11: 0.19},
    "nba": {G01: 0.27, G00: 0.63, G11: 0.10},
    "pokec_n": {G01: 0.05, G00: 0.66, G11: 0.29},
    "pokec_z": {G01: 0.05, G00: 0.58, G11: 0.37},
    "credit": {G01: 0.12, G00: 0.86, G11: 0.02},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/gap", help="output directory")
    parser.add_argument(
        "--k-grid", type=int, nargs="+", default=[10, 50, 100, 500, 1000]
    )
    args = parser.parse_args()

    out_dir = Path(args.out)
    for name, masses in REFERENCE_PROPORTIONS.items():
        target = GroupDistribution(masses)
        curve = gap_experiment(target, default_gap_pools(target, args.k_grid), args.k_grid)
        path = out_dir / f"gap_{name}.csv"
        curve.write_csv(path)
        last = curve.rows()[-1]
        print(
            f"{name:>9}: wrote {path}  "
            f"(k={last['k']}: greedy={last['greedy_ndkl']:.4f}, "
            f"worst={last['worst_ndkl']:.4f}, delta_dp={last['delta_dp']:.4f})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Time a fresh process's set-up: ``import fairlink`` plus loading the reused graph.

Prints the seconds taken. With no input directory, times the import alone.

Usage:
  python3 perfbench/probe.py [INPUT_DIR]
"""

import sys
import time

started = time.perf_counter()

import fairlink.graphs  # noqa: E402  (the import is what is timed)

if len(sys.argv) > 1:
    fairlink.graphs.load_graph(f"{sys.argv[1]}/edges.tsv", f"{sys.argv[1]}/attrs.tsv")
print(repr(time.perf_counter() - started))

"""Workload names, input sizes and fixed parameters shared by every benchmark process.

Stdlib only: the orchestrator and the input generator import this module
without importing fairlink.
"""

WORKLOADS = ("pipeline_binary", "rerank_multigroup", "certify")

# Outputs of the first operation are compared against perfbench/digests.json
# when a full-size run uses this seed.
DEFAULT_SEED = 0

# Operations are kept to 0.2-0.3 s: on a shared host the fastest of many
# short operations repeats from run to run, the fastest of a few long ones
# does not (see perfbench/README.md).
_FULL = {
    # 60/40 nodes and 60/20/20 edge groups, the recipe of
    # scripts/run_synthetic_pipeline.py, at 1,000 nodes / 20k edges.
    "pipeline_nodes": (600, 400),
    "pipeline_edges": {"0-0": 12_000, "0-1": 4_000, "1-1": 4_000},
    "pipeline_k": (100, 1000),
    "pipeline_output": 1000,
    # Six attribute values (21 groups), homophilic.
    "rerank_nodes": (900, 700, 500, 400, 300, 200),
    "rerank_edges": 30_000,
    "rerank_test_share": 0.2,
    "rerank_candidates": 10_000,
    "rerank_n": 500,
    "rerank_k": (10, 100, 500),
    # Items of groups 0-0, 0-1, 1-1 in the oracle's multiset. Unequal on
    # purpose: with equal counts the block-ordered worst case is always the
    # exact maximum, and its known shortfall would never be counted.
    "certify_counts": (5, 4, 2),
    "certify_k": (10, 50, 100, 500, 1000),
}
# "full" is what the benchmark measures; "tiny" only exercises the code
# paths (smoke test).
SIZES = {
    "full": _FULL,
    "tiny": {
        **_FULL,
        "pipeline_nodes": (300, 200),
        "pipeline_edges": {"0-0": 3000, "0-1": 1000, "1-1": 1000},
        "rerank_nodes": (90, 70, 50, 40, 30, 20),
        "rerank_edges": 1500,
        "rerank_candidates": 1000,
        "rerank_n": 200,
        "certify_counts": (2, 2, 1),
        "certify_k": (10, 50),
    },
}

RERANK_LAMBDA = 0.5
# Exponent applied to each group's candidate count to form the skewed
# rerank target: larger groups get more than their share.
RERANK_TARGET_SKEW = 1.5

# Edge-group shares (inter "0-1", majority-intra "0-0", minority-intra
# "1-1") of six public attributed graphs, as in scripts/run_gap_experiment.py.
# Copied so that inputs never depend on files outside the benchmark.
REFERENCE_PROPORTIONS = (
    ("facebook", {"0-1": 0.42, "0-0": 0.44, "1-1": 0.14}),
    ("german", {"0-1": 0.20, "0-0": 0.61, "1-1": 0.19}),
    ("nba", {"0-1": 0.27, "0-0": 0.63, "1-1": 0.10}),
    ("pokec_n", {"0-1": 0.05, "0-0": 0.66, "1-1": 0.29}),
    ("pokec_z", {"0-1": 0.05, "0-0": 0.58, "1-1": 0.37}),
    ("credit", {"0-1": 0.12, "0-0": 0.86, "1-1": 0.02}),
)

# Operations per side (untraced and traced) of a traced run. Fixed, so that
# two traced runs with the same seed count exactly the same work.
TRACED_OPS = 5

"""Group-exposure fairness evaluation and re-ranking for link prediction.

The package turns per-group scored candidate lists into a single ranking
whose prefix group proportions track a target distribution, and measures
how far any ranking drifts from that target with a rank-discounted KL
divergence, alongside standard utility metrics and demographic-parity
diagnostics. An enumeration oracle certifies the greedy merge on small
instances; the block ordering is a heuristic lower bound on the worst case.
"""

from .errors import (
    ConfigError,
    DataError,
    FairlinkError,
    InfeasibleError,
    ZeroTargetMassError,
)
from .fairness import (
    INTER,
    INTRA,
    Ranking,
    delta_dp_score,
    delta_dp_selection,
    delta_max,
    kl_divergence,
    ndkl,
    ndkl_curve,
    ndkl_upper_bound,
    position_discount,
    top_k_proportions,
)
from .graphs import (
    GroupDistribution,
    GroupId,
    SensitiveGraph,
    SplitResult,
    apportion,
    canonical_edge,
    edge_group,
    empirical_distribution,
    load_graph,
    read_edge_list,
    sample_negatives,
    stratified_split,
    write_split,
)
from .oracle import (
    ExtremeResult,
    MultisetSpec,
    enumerate_ndkl_extremes,
    multiset_permutations,
    sequence_ndkl,
    verify_trace,
)
from .pipeline import (
    EvalReport,
    MetricsAtK,
    RunConfig,
    evaluate_ranking,
    run_pipeline,
    run_single,
)
from .rank_metrics import (
    RelevanceVector,
    average_precision,
    hits_at_k,
    ndcg_at_k,
    precision_at_k,
)
from .rerank import (
    AggregationTrace,
    GapCurve,
    GapPoint,
    gap_experiment,
    gap_point,
    kl_greedy_merge,
    kl_greedy_merge_weighted,
    merge_by_score,
    optimal_dp_proportions,
    ranking_from_groups,
    read_ranking,
    synthetic_candidate_set,
    worst_case_ranking,
    write_ranking,
)
from .scorers import (
    GroupedCandidateSet,
    ScoredCandidate,
    adamic_adar,
    common_neighbors,
    embedding_dot,
    ingest_scores,
    load_embeddings,
    score_candidates,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

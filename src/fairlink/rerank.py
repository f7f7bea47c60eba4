"""Exposure-aware aggregation of per-group candidate lists.

``kl_greedy_merge`` builds one ranking out of per-group score-sorted
lists: at each position it tentatively places the head of every
non-exhausted list, measures the KL divergence of the resulting prefix
proportions from the target distribution, and commits the head whose
group attains the minimum. Because only heads are ever taken, the
relative order within a group is preserved, and raw scores are never
compared across groups (their scales are not assumed commensurable).

A weight lam below 1 trades the per-step divergence against the head's
within-group normalized score; weight 0 is per-step score greediness.

The tentative divergence has a closed form. With counts c over the t-1
items placed and S = sum_h c_h ln(c_h / p_h), placing one more item of
group g gives KL_t(g) = (S + delta_g)/t - ln t, where
delta_g = ln(c_g + 1) + c_g log1p(1/c_g) - ln p_g (the log1p form keeps
precision at large c_g). Only the chosen group's delta changes per step,
so a position costs one O(G) scan of lam*delta_g/t + (1-lam)*(1-shat_g),
whose argmin is the objective's. Groups within ``NEAR_TIE`` of that
minimum are re-scored with ``kl_divergence``, which keeps every choice
and tie of scoring each group with it. The trace records decisions, not
divergences; ``oracle.verify_trace`` recomputes every step's objectives
from the merge's inputs, which the trace carries.

Also here: the exact integer solver for the dyadic-parity-optimal
intra/inter selection split, the block ordering (rarest target mass
first; a heuristic whose NDKL is a lower bound on the worst case), and
the gap experiment that contrasts it with the greedy ranking.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    ConfigError,
    DataError,
    DuplicatePairError,
    InfeasibleKError,
    MalformedLineError,
    RankingEntryError,
    SelfLoopError,
    ZeroTargetMassError,
    _check_number,
)
from .fairness import INTER, INTRA, Ranking, kl_divergence, ndkl
from .graphs import (
    GroupDistribution,
    GroupId,
    SensitiveGraph,
    _interned_group,
    apportion,
    edge_group,
)
from .io import atomic_write, is_comment_or_blank, write_csv
from .rank_metrics import RelevanceVector, precision_at_k
from .scorers import GroupedCandidateSet, ScoredCandidate, _sort_key

logger = logging.getLogger(__name__)

# Approximate objectives within this distance of the best are re-scored
# with kl_divergence. The closed form and kl_divergence's G-term sum each
# err by at most about (G + 4)·ε·(ln G + ln(1/p_min) + 2) in the objective,
# with ε = 2.2e-16 and p_min the least target mass of a non-empty group:
# 7e-14 at G = 21 and p_min = 1e-3, 3.5e-13 at G = 55 and the 1e-9
# smoothing floor. A group outside the window then scores worse than the
# best in both computations as long as the window exceeds twice the sum of
# the two bounds (1.4e-12 in the second case); where it would not, the merge
# widens the window to that.
NEAR_TIE = 1e-11


class TraceStep(NamedTuple):
    position: int
    chosen_group: GroupId
    chosen: ScoredCandidate
    tie_break_used: bool


@dataclass(frozen=True)
class AggregationTrace:
    """The greedy merge's per-step decisions, and its candidate set (not a
    copy) and weight, so that the steps can be re-checked."""

    steps: tuple[TraceStep, ...]
    candidates: GroupedCandidateSet = field(repr=False)
    lam: float
    truncated: bool = False


def _normalized_scores(candidates: Sequence[ScoredCandidate]) -> list[float]:
    """Min-max normalize a non-empty group's scores to [0, 1]; 1.0 when all equal."""
    high = candidates[0].score
    low = candidates[-1].score
    if high == low:
        return [1.0] * len(candidates)
    return [(c.score - low) / (high - low) for c in candidates]


def check_lambda(lam: float) -> float:
    """The merge weight, which must lie in [0, 1]."""
    if not 0.0 <= _check_number(lam, "weight") <= 1.0:
        raise ConfigError(f"weight must lie in [0, 1], got {lam}")
    return lam


def kl_greedy_merge(
    candidates: GroupedCandidateSet,
    target: GroupDistribution,
    n: int,
    lam: float = 1.0,
) -> tuple[Ranking, AggregationTrace]:
    """Merge per-group lists by the per-step objective lam*KL + (1-lam)*(1-shat).

    KL is the tentative prefix divergence from the target, shat the head's
    within-group normalized score; lam=1 is the pure divergence greedy.
    Ties prefer the higher shat, then the lower group id. Returns the
    ranking (length min(n, total candidates)) and the per-step trace.
    A non-empty group of zero target mass raises ``ZeroTargetMassError``;
    pass ``target.smoothed()`` to give every listed group a tiny mass.

    Each position costs O(G) for G groups: KL comes from the closed form
    (module docstring), and only groups within ``NEAR_TIE`` of the best
    are re-scored with ``kl_divergence``, so choices, ties and
    ``tie_break_used`` are those of scoring every group with it.
    """
    check_lambda(lam)
    if candidates.total() == 0:
        raise DataError("candidate set is empty")
    _check_number(n, "output size", integer=True, minimum=1)
    groups = candidates.groups()
    lists = {g: candidates.lists[g] for g in groups}
    for g in groups:
        if lists[g] and target.mass(g) <= 0.0:
            raise ZeroTargetMassError(g)
    available = [g for g in groups if lists[g]]
    normalized = {g: _normalized_scores(lists[g]) for g in available}
    # counts[g] items of g are placed, so it is also the index of g's head.
    counts: dict[GroupId, int] = {g: 0 for g in groups}
    log_mass = {g: math.log(target.mass(g)) for g in available}
    # delta[g] is what S gains when g gets one more item; rest[g] is the
    # head's score term.
    delta = {g: -log_mass[g] for g in available}
    rest = {g: (1.0 - lam) * (1.0 - normalized[g][0]) for g in available}
    size, log_inv_p_min = len(available), max(-v for v in log_mass.values())
    bound = (size + 4) * sys.float_info.epsilon * (math.log(size) + log_inv_p_min + 2)
    window = max(NEAR_TIE, 4 * bound)

    entries: list[ScoredCandidate] = []
    steps: list[TraceStep] = []
    for t in range(1, n + 1):
        if not available:
            break
        # KL_t(g) = (S + delta_g)/t - ln t, so lam*KL + rest ranks as below.
        approx = [lam * delta[g] / t + rest[g] for g in available]
        cutoff = min(approx) + window
        near = [g for g, a in zip(available, approx) if a <= cutoff]
        best_group, tie = near[0], False
        if len(near) > 1:
            objectives: dict[GroupId, float] = {}
            for g in near:
                # counts sum to t-1, so incrementing one group makes the
                # tentative fractions a proper distribution over t items.
                fractions = {
                    h: (c + (1 if h == g else 0)) / t
                    for h, c in counts.items()
                    if c > 0 or h == g
                }
                objectives[g] = lam * kl_divergence(fractions, target) + rest[g]
            # Ties on the objective prefer the better-scored head, then the
            # lower group id, keeping the merge fully deterministic.
            best_group = min(near, key=lambda g: (objectives[g], -normalized[g][counts[g]], g))
            tie = sum(1 for g in near if objectives[g] == objectives[best_group]) > 1
        chosen = lists[best_group][counts[best_group]]
        counts[best_group] = c = counts[best_group] + 1
        delta[best_group] = math.log(c + 1) + c * math.log1p(1 / c) - log_mass[best_group]
        if c < len(lists[best_group]):
            rest[best_group] = (1.0 - lam) * (1.0 - normalized[best_group][c])
        else:
            available.remove(best_group)
        entries.append(chosen)
        steps.append(TraceStep(t, best_group, chosen, tie))

    truncated = len(entries) < n
    if truncated:
        logger.warning("candidates exhausted at %d of %d requested positions", len(entries), n)
    return Ranking(tuple(entries)), AggregationTrace(tuple(steps), candidates, lam, truncated)


# Second name of the same function; the benchmark harness (perfbench/)
# calls the weighted merge by it.
kl_greedy_merge_weighted = kl_greedy_merge


def merge_by_score(candidates: GroupedCandidateSet, n: int | None = None) -> Ranking:
    """Naive single ranking: all groups merged by raw score.

    The reference point the greedy merge is compared against; comparing
    raw scores across groups is exactly what it does. Descending score,
    ties by pair: a heap merge of the group lists, which the scorers
    sort on this same key, takes the first n in O(n log G) for G groups.
    (A list built by hand may order its equal scores otherwise; they
    keep that order, as in the greedy merge.)
    """
    merged = heapq.merge(*candidates.lists.values(), key=_sort_key)
    return Ranking(tuple(itertools.islice(merged, n)))


# --- parity-optimal proportions ------------------------------------------------


def optimal_dp_proportions(k: int, pool_intra: int, pool_inter: int) -> tuple[int, float]:
    """Intra-count x in the top-k minimizing the selection-rate gap.

    Exhaustive over the feasible x range; ties go to the smaller x.
    Returns (x, gap) where gap = |x/pool_intra - (k-x)/pool_inter| with a
    zero-sized pool contributing rate 0.
    """
    if k < 0 or pool_intra < 0 or pool_inter < 0:
        raise ConfigError("counts must be non-negative")
    if k > pool_intra + pool_inter:
        raise InfeasibleKError(k, pool_intra + pool_inter)
    if k == 0:
        return 0, 0.0
    best_x = None
    best_gap = math.inf
    for x in range(max(0, k - pool_inter), min(k, pool_intra) + 1):
        rate_intra = x / pool_intra if pool_intra > 0 else 0.0
        rate_inter = (k - x) / pool_inter if pool_inter > 0 else 0.0
        gap = abs(rate_intra - rate_inter)
        if gap < best_gap:
            best_gap = gap
            best_x = x
    return best_x, best_gap


# --- synthetic candidates and worst-case construction ---------------------------


def synthetic_candidate_set(group_counts: Mapping[GroupId, int]) -> GroupedCandidateSet:
    """Fabricated candidates with the requested count per group.

    Pairs are fresh synthetic node ids; scores descend within each group,
    and every candidate is relevant.
    Useful wherever only the group labels matter (worst-case rankings,
    gap experiments, oracle cross-checks).
    """
    lists: dict[GroupId, list[ScoredCandidate]] = {}
    next_node = 0
    for group in sorted(group_counts):
        count = group_counts[group]
        if count < 0:
            raise ConfigError(f"negative count for group {group}")
        bucket = []
        for i in range(count):
            u, v = next_node, next_node + 1
            next_node += 2
            bucket.append(ScoredCandidate(u, v, 1.0 - i / (count + 1), group, True))
        lists[group] = bucket
    return GroupedCandidateSet(lists)


def worst_case_ranking(group_counts: Mapping[GroupId, int], target: GroupDistribution) -> Ranking:
    """Block ordering, a heuristic for the worst prefix divergence at fixed proportions.

    Emits each group as a contiguous block, rarest target mass first, so
    early prefixes are dominated by the most over-exposed group. Its NDKL
    never exceeds the exact maximum but often falls short of it (see the
    oracle): it is a lower bound on the true worst case. Its entries are
    those of ``synthetic_candidate_set(group_counts)``.
    """
    positive_counts = {g: c for g, c in group_counts.items() if c > 0}
    for group in positive_counts:
        if target.mass(group) <= 0.0:
            raise ZeroTargetMassError(group)
    order = sorted(positive_counts, key=lambda g: (target.mass(g), g))
    lists = synthetic_candidate_set(positive_counts).lists
    return Ranking(tuple(entry for group in order for entry in lists[group]))


# --- gap experiment --------------------------------------------------------------


@dataclass(frozen=True)
class GapPoint:
    """One cutoff of the gap experiment: both rankings, shared statistics."""

    group_counts: dict[GroupId, int]
    delta_dp: float
    greedy: Ranking
    worst: Ranking


@dataclass(frozen=True)
class GapCurve:
    """Greedy vs block-ordering (``worst_ndkl``) divergence at parity-optimal proportions."""

    k_grid: tuple[int, ...]
    greedy_ndkl: tuple[float, ...]
    worst_ndkl: tuple[float, ...]
    delta_dp: tuple[float, ...]
    prec: tuple[float, ...]

    def __post_init__(self):
        # A self-check of the construction: an internal fault, not a FairlinkError.
        for greedy, worst in zip(self.greedy_ndkl, self.worst_ndkl):
            if greedy > worst + 1e-12:
                raise AssertionError(
                    f"greedy divergence {greedy} above worst-case {worst}; "
                    f"the worst-case construction is broken"
                )

    def rows(self) -> list[dict[str, float]]:
        return [
            {
                "k": k,
                "greedy_ndkl": g,
                "worst_ndkl": w,
                "delta_dp": d,
                "prec": p,
            }
            for k, g, w, d, p in zip(
                self.k_grid, self.greedy_ndkl, self.worst_ndkl, self.delta_dp, self.prec
            )
        ]

    def write_csv(self, path: str | Path) -> None:
        write_csv(path, self.rows(), ["k", "greedy_ndkl", "worst_ndkl", "delta_dp", "prec"])


def _split_by_class(pools: Mapping[GroupId, int]) -> tuple[dict[GroupId, int], dict[GroupId, int]]:
    intra = {g: c for g, c in pools.items() if g.is_intra}
    inter = {g: c for g, c in pools.items() if not g.is_intra}
    return intra, inter


def gap_point(target: GroupDistribution, pools: Mapping[GroupId, int], k: int) -> GapPoint:
    """Build the greedy and worst-case rankings for one cutoff.

    The intra/inter split of the top-k comes from the exact parity
    solver; within each dyadic class the count is apportioned across
    groups proportionally to the target, capped by the pools. Candidates
    are synthetic and all relevant, isolating exposure from utility.
    """
    for group, pool in pools.items():
        if pool < 0 or pool != int(pool):
            raise ConfigError(f"pool for group {group} must be a non-negative integer: {pool!r}")
        if pool > 0 and target.mass(group) <= 0.0:
            raise ZeroTargetMassError(group)
    capacity = sum(pools.values())
    if k < 1 or k > capacity:
        raise InfeasibleKError(k, capacity)

    intra_pools, inter_pools = _split_by_class(pools)
    x, gap = optimal_dp_proportions(k, sum(intra_pools.values()), sum(inter_pools.values()))

    group_counts: dict[GroupId, int] = {}
    for class_pools, class_total in ((intra_pools, x), (inter_pools, k - x)):
        groups = sorted(class_pools)
        parts = apportion(
            class_total,
            [target.mass(g) for g in groups],
            caps=[class_pools[g] for g in groups],
        )
        for group, part in zip(groups, parts):
            if part > 0:
                group_counts[group] = part

    greedy, _ = kl_greedy_merge(synthetic_candidate_set(group_counts), target, n=k)
    worst = worst_case_ranking(group_counts, target)
    return GapPoint(group_counts=group_counts, delta_dp=gap, greedy=greedy, worst=worst)


def default_gap_pools(target: GroupDistribution, k_grid: Sequence[int]) -> dict[GroupId, int]:
    """Pools of twice the largest cutoff, split by target mass; a zero-mass group gets none."""
    return {g: max(1, round(2 * max(k_grid) * p)) for g, p in target.items() if p > 0}


def gap_experiment(
    target: GroupDistribution,
    pools: Mapping[GroupId, int],
    k_grid: Sequence[int],
) -> GapCurve:
    """Trace the greedy-vs-worst divergence gap across cutoffs.

    Both rankings at each cutoff carry identical group counts, so their
    dyadic parity gap is identical by construction, and all candidates
    are relevant, so precision is 1 throughout; only the exposure order
    differs.
    """
    greedy_values = []
    worst_values = []
    gaps = []
    precs = []
    for k in k_grid:
        point = gap_point(target, pools, k)
        greedy_values.append(ndkl(point.greedy, target))
        worst_values.append(ndkl(point.worst, target))
        gaps.append(point.delta_dp)
        precs.append(precision_at_k(RelevanceVector.from_ranking(point.greedy), k))
    return GapCurve(
        k_grid=tuple(k_grid),
        greedy_ndkl=tuple(greedy_values),
        worst_ndkl=tuple(worst_values),
        delta_dp=tuple(gaps),
        prec=tuple(precs),
    )


# --- ranking file format ----------------------------------------------------------


def write_ranking(path: str | Path, ranking: Ranking) -> None:
    """Write `rank u v group score relevance` tab-separated lines (atomic)."""
    with atomic_write(path) as fh:
        for rank, cand in enumerate(ranking, start=1):
            fh.write(
                f"{rank}\t{cand.u}\t{cand.v}\t{cand.group.label()}\t"
                f"{cand.score!r}\t{int(cand.relevance)}\n"
            )


def read_ranking(path: str | Path) -> Ranking:
    """Read `rank u v group score relevance` tab-separated lines, as ``write_ranking`` writes them.

    Ranks count up from 1, the score is finite and the relevance is 0 or
    1. A pair may be given in either orientation and is stored
    canonically; a self-loop or a pair given twice is an error. Every
    error names its line.
    """
    path = Path(path)
    entries: list[ScoredCandidate] = []
    seen: set[tuple[int, int]] = set()
    groups: dict[str, GroupId] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.strip().split("\t")
            try:
                rank, u, v, label, score, relevance = tokens
                rank, u, v = int(rank), int(u), int(v)
                group = groups.get(label)
                if group is None:
                    lo, _, hi = label.partition("-")
                    group = groups[label] = _interned_group(int(lo), int(hi))
                score, relevance = float(score), int(relevance)
            except ValueError:
                if is_comment_or_blank(line):
                    continue
                reason = "cannot parse fields"
                if len(tokens) != 6:
                    reason = f"expected 6 fields, got {len(tokens)}"
                raise MalformedLineError(path, line_no, reason) from None
            if rank != len(entries) + 1:
                raise MalformedLineError(path, line_no, f"rank {rank} out of order")
            if not math.isfinite(score):
                raise MalformedLineError(path, line_no, "non-finite score")
            if relevance != 0 and relevance != 1:
                raise MalformedLineError(path, line_no, f"relevance must be 0 or 1, got {relevance}")
            if u > v:
                u, v = v, u
            elif u == v:
                raise SelfLoopError(u, line_no)
            pair = (u, v)
            if pair in seen:
                raise DuplicatePairError(pair, line_no)
            seen.add(pair)
            entries.append(tuple.__new__(ScoredCandidate, (u, v, score, group, relevance == 1)))
    return Ranking(tuple(entries))


def check_ranking_groups(ranking: Ranking, graph: SensitiveGraph) -> None:
    """Raise ``RankingEntryError`` for the first entry whose group label is not its pair's group.

    An entry whose node is unknown to ``graph`` or has no attribute
    raises it too. The error names the entry's rank.
    """
    for rank, (u, v, _, group, _) in enumerate(ranking, start=1):
        try:
            actual = edge_group(graph, u, v)
        except DataError as exc:
            raise RankingEntryError(rank, str(exc)) from None
        if actual != group:
            raise RankingEntryError(
                rank, f"pair {(u, v)} is in group {actual.label()}, labelled {group.label()}"
            )


def pool_statistics(
    candidates: GroupedCandidateSet,
) -> tuple[dict[str, int], dict[str, list[float]], dict[GroupId, list[float]], int]:
    """Dyadic pool sizes, per-class and per-group score lists, and the positive count."""
    sizes = {INTRA: 0, INTER: 0}
    class_scores: dict[str, list[float]] = {INTRA: [], INTER: []}
    group_scores: dict[GroupId, list[float]] = {}
    positives = 0
    for group in candidates.groups():
        cls = INTRA if group.is_intra else INTER
        bucket = candidates.lists[group]
        sizes[cls] += len(bucket)
        # By index: fields 2 and 4 of a ScoredCandidate are score and relevance.
        group_scores[group] = [c[2] for c in bucket]
        class_scores[cls].extend(group_scores[group])
        positives += sum(c[4] for c in bucket)
    return sizes, class_scores, group_scores, positives

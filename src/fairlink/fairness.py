"""Exposure fairness metrics over ranked candidate lists.

The central quantity is the divergence between the group proportions of
every ranking prefix and a target distribution. Summing those prefix
divergences with a position discount (earlier positions weigh more) and
normalizing by the total discount yields a rank-aware score, here called
NDKL: it is 0 when every prefix matches the target exactly and is capped
by max_i ln(1/pi_i) for any ranking over groups with target mass pi.

Demographic-parity style diagnostics (selection-rate and score-mean
gaps over the intra/inter dyadic classes, and the max pairwise group
gap) are included for comparison; they are blind to ranking order,
which is exactly the weakness the prefix-divergence metric addresses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    ConfigError,
    DataError,
    EmptyGroupError,
    EmptyRankingError,
    KOutOfRangeError,
    ZeroTargetMassError,
)
from .graphs import GroupDistribution, GroupId
from .scorers import ScoredCandidate

INTRA = "intra"
INTER = "inter"


@dataclass(frozen=True)
class Ranking:
    """Ordered candidate sequence; position 1 is the top.

    ``entries`` is a tuple in which no pair appears twice. Nothing here
    checks that; it is made true where rankings are made. The merges
    (``kl_greedy_merge``, ``merge_by_score``) and ``worst_case_ranking``
    take entries from a ``GroupedCandidateSet``'s lists, which hold each
    pair once, and ``read_ranking`` rejects a repeated pair, naming its
    line.
    """

    entries: tuple[ScoredCandidate, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def group_sequence(self) -> tuple[GroupId, ...]:
        return tuple(cand.group for cand in self.entries)

    def relevance_flags(self) -> tuple[bool, ...]:
        return tuple(cand.relevance for cand in self.entries)


# --- divergences -------------------------------------------------------------


def _masses(dist) -> Mapping[GroupId, float]:
    if isinstance(dist, GroupDistribution):
        return dist.probabilities
    return dist


def kl_divergence(q, p) -> float:
    """KL divergence sum_i q_i ln(q_i / p_i), natural log, 0*ln(0) = 0.

    ``q`` and ``p`` are GroupDistributions or plain group->mass mappings
    over the same group set. A group with q_i > 0 but p_i = 0 is an error;
    pass ``p.smoothed()`` to give every listed group a tiny positive mass.
    """
    q_masses = _masses(q)
    p_masses = _masses(p)
    total = 0.0
    for group in sorted(q_masses):
        q_i = q_masses[group]
        if q_i <= 0.0:
            continue
        p_i = p_masses.get(group, 0.0)
        if p_i <= 0.0:
            raise ZeroTargetMassError(group)
        total += q_i * math.log(q_i / p_i)
    # Mathematically >= 0; guard against float dust from near-equal inputs.
    return max(0.0, total)


# --- prefix divergence ---------------------------------------------------------


def position_discount(k: int) -> float:
    """Exposure weight of rank position k (1-based): 1 / log2(k + 1)."""
    return 1.0 / math.log2(k + 1)


def ndkl_curve(
    ranking: Ranking, target: GroupDistribution, k_max: int | None = None
) -> list[float]:
    """``ndkl`` at every cutoff k = 1..k_max (default: the whole ranking).

    One pass over the prefix; entry k-1 is ``ndkl(ranking, target, k)``.
    The groups seen so far are kept sorted, and each prefix's divergence
    sums q ln(q/p) over them in that order, as ``kl_divergence`` does, so
    every value is the one it gives. A group of zero target mass raises
    ``ZeroTargetMassError`` at the first prefix that holds it; pass
    ``target.smoothed()`` to give every listed group a tiny mass.
    """
    if len(ranking) == 0:
        raise EmptyRankingError()
    limit = len(ranking) if k_max is None else k_max
    if not 1 <= limit <= len(ranking):
        raise KOutOfRangeError(limit, len(ranking))

    target_masses = _masses(target)
    counts: dict[GroupId, int] = {}
    seen: list[GroupId] = []
    weighted = 0.0
    normalizer = 0.0
    curve: list[float] = []
    for k, cand in enumerate(ranking.entries[:limit], start=1):
        group = cand.group
        if group not in counts:
            if target_masses.get(group, 0.0) <= 0.0:
                raise ZeroTargetMassError(group)
            bisect.insort(seen, group)
        counts[group] = counts.get(group, 0) + 1
        total = 0.0
        for g in seen:
            q = counts[g] / k
            total += q * math.log(q / target_masses[g])
        discount = position_discount(k)
        normalizer += discount
        # As in kl_divergence, float dust below 0 is clamped.
        weighted += discount * max(0.0, total)
        curve.append(weighted / normalizer)
    return curve


def ndkl(ranking: Ranking, target: GroupDistribution, k_max: int | None = None) -> float:
    """Discount-weighted average divergence of prefix proportions from target.

    Sums kl_divergence(prefix_k, target) * 1/log2(k+1) over positions
    k = 1..k_max (default: the whole ranking) and divides by the sum of
    the discounts, so the result depends only on the top-k_max entries.
    It is the last entry of ``ndkl_curve``.
    """
    return ndkl_curve(ranking, target, k_max)[-1]


def ndkl_upper_bound(target: GroupDistribution) -> float:
    """max_i ln(1 / pi_i) over the listed target masses.

    Caps the prefix divergence of any ranking over these groups, hence
    also their discounted average. All listed masses must be positive.
    """
    bound = 0.0
    for group, mass in _masses(target).items():
        if mass <= 0.0:
            raise ZeroTargetMassError(group)
        bound = max(bound, math.log(1.0 / mass))
    return bound


def top_k_proportions(ranking: Ranking, k: int) -> GroupDistribution:
    """Group proportions among the top-k entries, as a distribution."""
    if len(ranking) == 0:
        raise EmptyRankingError()
    if not 1 <= k <= len(ranking):
        raise KOutOfRangeError(k, len(ranking))
    counts: dict[GroupId, int] = {}
    for cand in ranking.entries[:k]:
        counts[cand.group] = counts.get(cand.group, 0) + 1
    return GroupDistribution({g: c / k for g, c in counts.items()})


# --- parity diagnostics --------------------------------------------------------


def delta_dp_selection(
    ranking: Ranking,
    k: int,
    pools: Mapping[str, int],
) -> float:
    """Absolute gap between the intra and inter selection rates in the top-k.

    A class's rate is (its entries in the top-k) / (its candidate pool
    size); a group is intra when both endpoints share a value. Blind to
    how the top-k is ordered internally.
    """
    if k == 0:
        return 0.0
    if not 1 <= k <= len(ranking):
        raise KOutOfRangeError(k, len(ranking))
    selected = {INTRA: 0, INTER: 0}
    for cand in ranking.entries[:k]:
        selected[INTRA if cand.group.is_intra else INTER] += 1
    rates = {}
    for cls in (INTRA, INTER):
        pool = pools.get(cls, 0)
        if selected[cls] > pool:
            raise ConfigError(f"{cls} pool has {pool} candidates but {selected[cls]} were selected")
        rates[cls] = selected[cls] / pool if pool > 0 else 0.0
    return abs(rates[INTRA] - rates[INTER])


def delta_dp_score(scores_intra: Sequence[float], scores_inter: Sequence[float]) -> float:
    """Absolute difference of mean scores between the dyadic classes."""
    if len(scores_intra) == 0:
        raise EmptyGroupError(INTRA)
    if len(scores_inter) == 0:
        raise EmptyGroupError(INTER)
    mean_intra = math.fsum(scores_intra) / len(scores_intra)
    mean_inter = math.fsum(scores_inter) / len(scores_inter)
    return abs(mean_intra - mean_inter)


def delta_max(scores_by_group: Mapping[GroupId, Sequence[float]]) -> float:
    """Maximum pairwise gap between per-group mean scores.

    Unlike the dyadic gap this sees every group separately, so a
    disparity between two same-class groups cannot cancel out.
    """
    means = [
        math.fsum(scores) / len(scores)
        for _, scores in sorted(scores_by_group.items())
        if len(scores) > 0
    ]
    if len(means) < 2:
        raise DataError("need at least two non-empty groups")
    return max(means) - min(means)

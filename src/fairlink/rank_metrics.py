"""Ranking utility metrics over binary relevance."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, KOutOfRangeError, NoPositivesError
from .fairness import Ranking, _discount_table


@dataclass(frozen=True)
class RelevanceVector:
    """Binary relevance flags aligned to ranking positions.

    ``total_positives`` counts the held-out true edges in the whole
    candidate pool, which can exceed the flags set inside a truncated
    ranking.
    """

    flags: tuple[bool, ...]
    total_positives: int

    def __post_init__(self):
        object.__setattr__(self, "flags", tuple(bool(f) for f in self.flags))
        if self.total_positives < sum(self.flags):
            raise ConfigError(
                f"total_positives={self.total_positives} below the {sum(self.flags)} set flags"
            )

    def __len__(self) -> int:
        return len(self.flags)

    @classmethod
    def from_ranking(cls, ranking: Ranking, total_positives: int | None = None) -> "RelevanceVector":
        flags = ranking.relevance_flags()
        return cls(flags, sum(flags) if total_positives is None else total_positives)


def _check_k(rel: RelevanceVector, k: int) -> None:
    if not 1 <= k <= len(rel):
        raise KOutOfRangeError(k, len(rel))


def precision_at_k(rel: RelevanceVector, k: int) -> float:
    """Fraction of the first k positions that are relevant."""
    _check_k(rel, k)
    return sum(rel.flags[:k]) / k


def hits_at_k(rel: RelevanceVector, k: int) -> float:
    """Fraction of the pool's positives recovered in the first k positions."""
    if rel.total_positives == 0:
        raise NoPositivesError()
    if k == 0:
        return 0.0
    k = min(k, len(rel))
    return min(1.0, sum(rel.flags[:k]) / rel.total_positives)


def ndcg_at_k(rel: RelevanceVector, k: int) -> float:
    """Binary-gain NDCG: discounted gain over the ideal front-loaded order."""
    if rel.total_positives == 0:
        raise NoPositivesError()
    _check_k(rel, k)
    discounts = _discount_table(k)[0]
    dcg = math.fsum(d for d, flag in zip(discounts[1 : k + 1], rel.flags) if flag)
    ideal = math.fsum(discounts[1 : min(k, rel.total_positives) + 1])
    return dcg / ideal


def average_precision(rel: RelevanceVector) -> float:
    """Mean of precision@i over relevant positions i, per pool positive."""
    if rel.total_positives == 0:
        raise NoPositivesError()
    hits = 0
    acc = 0.0
    for i, flag in enumerate(rel.flags, start=1):
        if flag:
            hits += 1
            acc += hits / i
    return acc / rel.total_positives

"""Exhaustive ground truth on small ranking instances.

Given the multiset of group labels a ranking is made of, every distinct
ordering is scored, yielding the exact minimum and maximum achievable
divergence. Enumeration walks the orderings as a prefix tree and scores
each shared prefix once. A prefix is scored with one plain formula,
``_prefix_kl``, which shares no code with the incremental
implementation in ``fairness``; agreement between the two is itself a
checked property.

``verify_trace`` certifies each step of a greedy merge under the merge's
own rule at any weight lam, from the merge's inputs alone: a per-step
certificate, not global optimality.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import ConfigError, TooLargeError, ZeroTargetMassError
from .graphs import GroupDistribution, GroupId
from .rerank import AggregationTrace

ENUMERATION_GUARD = 14


@dataclass(frozen=True)
class MultisetSpec:
    """How many ranking slots each group occupies."""

    group_counts: Mapping[GroupId, int]

    def __post_init__(self):
        if any(c < 0 or c != int(c) for c in self.group_counts.values()):
            raise ConfigError("group counts must be non-negative integers")
        counts = {g: int(c) for g, c in self.group_counts.items()}
        if sum(counts.values()) == 0:
            raise ConfigError("at least one group must have a positive count")
        object.__setattr__(self, "group_counts", counts)

    @property
    def total(self) -> int:
        return sum(self.group_counts.values())


@dataclass(frozen=True)
class ExtremeResult:
    min_value: float
    max_value: float
    argmin: tuple[GroupId, ...]
    argmax: tuple[GroupId, ...]
    permutations_examined: int

    def as_dict(self) -> dict:
        return {
            "min": self.min_value,
            "max": self.max_value,
            "argmin": [g.label() for g in self.argmin],
            "argmax": [g.label() for g in self.argmax],
            "examined": self.permutations_examined,
        }


def _prefix_kl(counts: Mapping[GroupId, int], k: int, target: GroupDistribution) -> float:
    """KL divergence from ``target`` of the proportions ``counts / k``.

    The sum of q ln(q / p) over the groups in sorted order, zero counts
    skipped, clamped at 0: the one formula every path of this module
    scores a prefix with.
    """
    kl = 0.0
    for g in sorted(counts):
        c = counts[g]
        if c:
            q = c / k
            p = target.mass(g)
            if p <= 0.0:
                raise ZeroTargetMassError(g)
            kl += q * math.log(q / p)
    return max(0.0, kl)


def enumerate_ndkl_extremes(
    spec: MultisetSpec,
    target: GroupDistribution,
    *,
    guard: int = ENUMERATION_GUARD,
) -> ExtremeResult:
    """Exact divergence extremes over all orderings of the multiset.

    One depth-first walk visits every ordering in lexicographic order
    and carries each prefix's discounted divergence sum down to the
    orderings below it, so a shared prefix is scored once, not once per
    ordering. A prefix's term depends only on its group counts, so it
    is computed once per count vector: ``_prefix_kl`` of the prefix of
    length k, times the discount ``1 / log2(k + 1)``. An ordering's
    value is its terms summed in order of k, divided by the sum of the
    discounts: the same float as scoring each prefix of that ordering
    from scratch and summing in the same order.

    Guarded at ``guard`` total items (default 14); pass a larger guard
    explicitly to force bigger enumerations. Ties keep the first
    (lexicographically smallest) sequence found.
    """
    if spec.total > guard:
        raise TooLargeError(spec.total, guard)
    for group, count in spec.group_counts.items():
        if count > 0 and target.mass(group) <= 0.0:
            raise ZeroTargetMassError(group)

    groups = sorted(g for g, c in spec.group_counts.items() if c > 0)
    limits = [spec.group_counts[g] for g in groups]
    width, n = len(groups), spec.total
    discounts = [1.0 / math.log2(k + 1) for k in range(1, n + 1)]
    normalizer = 0.0
    for discount in discounts:  # not sum(): from Python 3.12 it compensates rounding
        normalizer += discount
    # Count vectors are numbered in mixed radix; `terms` holds each one's
    # discounted divergence once computed. Every vector within the limits
    # is some prefix, so the table is never larger than the tree walked.
    strides = []
    size = 1
    for limit in limits:
        strides.append(size)
        size *= limit + 1
    terms: list[float | None] = [None] * size

    counts = [0] * width
    choice = [-1] * n  # group index placed at each position; -1 before the first
    vector = [0] * (n + 1)  # count-vector number of each prefix length
    weighted = [0.0] * (n + 1)  # discounted sum over each prefix length
    best = worst = None
    argmin = argmax = None
    examined = 0
    depth = 0
    while True:
        g = choice[depth]
        if g >= 0:
            counts[g] -= 1
        g += 1
        while g < width and counts[g] == limits[g]:
            g += 1
        if g == width:
            choice[depth] = -1
            if depth == 0:
                break
            depth -= 1
            continue
        choice[depth] = g
        counts[g] += 1
        k = depth + 1
        here = vector[k] = vector[depth] + strides[g]
        term = terms[here]
        if term is None:
            term = terms[here] = discounts[depth] * _prefix_kl(dict(zip(groups, counts)), k, target)
        weighted[k] = weighted[depth] + term
        if k < n:
            depth = k
            continue
        value = weighted[n] / normalizer
        examined += 1
        if best is None or value < best:
            best = value
            argmin = tuple(groups[j] for j in choice)
        if worst is None or value > worst:
            worst = value
            argmax = tuple(groups[j] for j in choice)
    return ExtremeResult(
        min_value=best,
        max_value=worst,
        argmin=argmin,
        argmax=argmax,
        permutations_examined=examined,
    )


# --- trace verification -------------------------------------------------------


class TraceViolation(NamedTuple):
    """A step that broke the merge's rule.

    ``chosen_kl`` and ``best_kl`` hold the objective
    lam*KL + (1-lam)*(1-shat) of the chosen and of the best available
    group, which at lam = 1 is the KL divergence itself; ``chosen_kl`` is
    infinite when the chosen group had no candidate left.
    """

    position: int
    chosen_group: GroupId
    chosen_kl: float
    best_group: GroupId
    best_kl: float


@dataclass(frozen=True)
class TraceVerification:
    steps_checked: int
    violations: tuple[TraceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> TraceViolation | None:
        return self.violations[0] if self.violations else None


KL_TOLERANCE = 1e-9


def verify_trace(
    trace: AggregationTrace,
    target: GroupDistribution,
    *,
    smoothing: bool = False,
) -> TraceVerification:
    """Re-check every step of a merge against the merge's own rule.

    Only the inputs the trace carries are trusted, its candidate lists and
    lam; the counts are this function's own. At each step, every group
    with candidates left scores lam*KL + (1-lam)*(1-shat), with KL the
    divergence of the prefix plus that group's head and shat the head's
    min-max normalized score within its group (1.0 when all are equal).
    A step is a violation when the chosen group had no candidate left,
    the chosen candidate is not its group's head, or the chosen group's
    objective is worse than the best by more than ``KL_TOLERANCE``.
    """
    masses = target.smoothed() if smoothing else target
    lam, lists = trace.lam, trace.candidates.lists
    ranges = {g: (max(c.score for c in b), min(c.score for c in b)) for g, b in lists.items() if b}
    counts: Counter[GroupId] = Counter()
    violations: list[TraceViolation] = []
    for t, step in enumerate(trace.steps, start=1):
        objective: dict[GroupId, float] = {}
        for g, (high, low) in ranges.items():
            head = counts[g]
            if head < len(lists[g]):
                shat = 1.0 if high == low else (lists[g][head].score - low) / (high - low)
                kl = _prefix_kl({**counts, g: head + 1}, t, masses)
                objective[g] = lam * kl + (1.0 - lam) * (1.0 - shat)
        group = step.chosen_group
        best = min(objective, key=lambda g: (objective[g], g), default=group)
        chosen_value = objective.get(group, math.inf)
        best_value = objective.get(best, math.inf)
        if (
            group not in objective
            or step.chosen != lists[group][counts[group]]
            or chosen_value > best_value + KL_TOLERANCE
        ):
            violations.append(TraceViolation(t, group, chosen_value, best, best_value))
        counts[group] += 1
    return TraceVerification(steps_checked=len(trace.steps), violations=tuple(violations))

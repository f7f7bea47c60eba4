"""Exhaustive ground truth on small ranking instances.

Given the multiset of group labels a ranking is made of, every distinct
permutation is enumerated and scored, yielding the exact minimum and
maximum achievable divergence. Enumeration walks the permutations as a
prefix tree and scores each shared prefix once, with the plain formula
of ``sequence_ndkl``; neither shares code with the incremental
implementation in ``fairness``, and agreement between the paths is
itself a checked property. ``sequence_ndkl`` remains the from-scratch
scorer of one sequence, recounting every prefix.

``verify_trace`` independently re-derives every step of a greedy merge
trace and confirms the recorded choice attained the minimal divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

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

    def permutation_count(self) -> int:
        total = self.total
        count = 1
        remaining = total
        for c in self.group_counts.values():
            count *= math.comb(remaining, c)
            remaining -= c
        return count


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


def multiset_permutations(counts: Mapping[GroupId, int]) -> Iterator[tuple[GroupId, ...]]:
    """All distinct orderings of the multiset, in lexicographic order.

    A depth-first walk with an explicit stack, as in
    ``enumerate_ndkl_extremes``: ``choice[d]`` is the index of the group
    at position d, advanced to the next group with items left.
    """
    items = sorted(g for g, c in counts.items() if c > 0)
    limits = [counts[g] for g in items]
    width, total = len(items), sum(limits)
    if total == 0:
        yield ()
        return
    placed = [0] * width
    choice = [-1] * total
    depth = 0
    while True:
        g = choice[depth]
        if g >= 0:
            placed[g] -= 1
        g += 1
        while g < width and placed[g] == limits[g]:
            g += 1
        if g == width:
            choice[depth] = -1
            if depth == 0:
                return
            depth -= 1
            continue
        choice[depth] = g
        placed[g] += 1
        if depth + 1 < total:
            depth += 1
        else:
            yield tuple(map(items.__getitem__, choice))


def sequence_ndkl(labels: Sequence[GroupId], target: GroupDistribution) -> float:
    """Divergence score of a label sequence, from scratch at every prefix.

    Intentionally naive: each prefix is re-counted in full. This is the
    oracle's independent path, kept free of the incremental bookkeeping
    used by the production metric.
    """
    if not labels:
        raise ConfigError("label sequence is empty")
    weighted = 0.0
    normalizer = 0.0
    for k in range(1, len(labels) + 1):
        tally: dict[GroupId, int] = {}
        for g in labels[:k]:
            tally[g] = tally.get(g, 0) + 1
        kl = 0.0
        for g in sorted(tally):
            q = tally[g] / k
            p = target.mass(g)
            if p <= 0.0:
                raise ZeroTargetMassError(g)
            kl += q * math.log(q / p)
        discount = 1.0 / math.log2(k + 1)
        normalizer += discount
        weighted += discount * max(0.0, kl)
    return weighted / normalizer


def enumerate_ndkl_extremes(
    spec: MultisetSpec,
    target: GroupDistribution,
    *,
    guard: int = ENUMERATION_GUARD,
) -> ExtremeResult:
    """Exact divergence extremes over all orderings of the multiset.

    One depth-first walk visits every ordering in the lexicographic
    order of ``multiset_permutations`` and carries each prefix's
    discounted divergence sum down to the orderings below it, so a
    shared prefix is scored once, not once per ordering. A prefix's
    term depends only on its group counts, so it is computed once per
    count vector, with ``sequence_ndkl``'s arithmetic: groups in sorted
    order, ``q * ln(q / p)``, clamped at 0, discounted by
    ``1 / log2(k + 1)`` and summed in order of k. Each ordering thus
    scores the same float as under ``sequence_ndkl``.

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
    masses = [target.mass(g) for g in groups]
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
            kl = 0.0
            for c, p in zip(counts, masses):
                if c:
                    q = c / k
                    kl += q * math.log(q / p)
            term = terms[here] = discounts[depth] * max(0.0, kl)
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

    def as_dict(self) -> dict:
        return {
            "steps_checked": self.steps_checked,
            "ok": self.ok,
            "violations": [
                {
                    "position": v.position,
                    "chosen_group": v.chosen_group.label(),
                    "chosen_kl": v.chosen_kl,
                    "best_group": v.best_group.label(),
                    "best_kl": v.best_kl,
                }
                for v in self.violations
            ],
        }


KL_TOLERANCE = 1e-9


def verify_trace(
    trace: AggregationTrace,
    target: GroupDistribution,
    *,
    smoothing: bool = False,
) -> TraceVerification:
    """Recompute each step's tentative divergences and check minimality.

    Group counts are reconstructed from the chosen groups alone; the
    recorded divergence values are not trusted. A step violates the
    greedy rule when some available group's recomputed divergence beats
    the chosen group's by more than a small tolerance.
    """
    masses = target.smoothed() if smoothing else target
    counts: dict[GroupId, int] = {}
    violations: list[TraceViolation] = []
    for step in trace.steps:
        t = step.position
        recomputed: dict[GroupId, float] = {}
        for g in step.tentative_kl:
            kl = 0.0
            for h in sorted(set(counts) | {g}):
                c = counts.get(h, 0) + (1 if h == g else 0)
                if c == 0:
                    continue
                q = c / t
                p = masses.mass(h)
                if p <= 0.0:
                    raise ZeroTargetMassError(h)
                kl += q * math.log(q / p)
            recomputed[g] = max(0.0, kl)
        best_group = min(recomputed, key=lambda g: (recomputed[g], g))
        chosen_kl = recomputed[step.chosen_group]
        if chosen_kl > recomputed[best_group] + KL_TOLERANCE:
            violations.append(
                TraceViolation(t, step.chosen_group, chosen_kl, best_group, recomputed[best_group])
            )
        counts[step.chosen_group] = counts.get(step.chosen_group, 0) + 1
    return TraceVerification(steps_checked=len(trace.steps), violations=tuple(violations))

"""Exact ground truth for ranking instances.

Given the multiset of group labels a ranking is made of, the exact
minimum and maximum divergence over all its orderings are found as a
shortest and a longest path through the lattice of prefix count
vectors, without visiting any ordering. Every divergence here is built
from one plain term, ``_kl_term``, q ln(q / p) of one group, which
shares no code with ``fairness`` or the merge: ``_prefix_kl`` adds a
prefix's terms in sorted group order, and ``verify_trace`` sums a
step's terms once with ``math.fsum`` and swaps in each candidate
group's incremented term. Agreement with the implementations in
``fairness`` and ``rerank`` is itself a checked property.

``verify_trace`` certifies each step of a greedy merge under the merge's
own rule at any weight lam, from the merge's inputs alone: a per-step
certificate, not global optimality. A step costs O(G) for G groups.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import ConfigError, InfeasibleError, ZeroTargetMassError
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
    """The exact extremes, the first ordering reaching each, and the number
    of orderings certified (the multinomial coefficient: computed, not counted)."""

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


def _kl_term(count: int, k: int, group: GroupId, target: GroupDistribution) -> float:
    """q ln(q / p) of a group with ``count`` of ``k`` items, q = count / k and p its mass."""
    p = target.mass(group)
    if p <= 0.0:
        raise ZeroTargetMassError(group)
    q = count / k
    return q * math.log(q / p)


def _prefix_kl(counts: Mapping[GroupId, int], k: int, target: GroupDistribution) -> float:
    """KL divergence from ``target`` of the proportions ``counts / k``.

    The groups' ``_kl_term`` added left to right in sorted group order,
    zero counts skipped, and clamped at 0.
    """
    kl = 0.0
    for g in sorted(counts):
        if counts[g]:
            kl += _kl_term(counts[g], k, g, target)
    return max(0.0, kl)


def enumerate_ndkl_extremes(
    spec: MultisetSpec,
    target: GroupDistribution,
    *,
    guard: int = ENUMERATION_GUARD,
) -> ExtremeResult:
    """Exact divergence extremes over all orderings of the multiset.

    An ordering's value is its prefixes' terms summed in order of k and
    divided by the sum of the discounts; the term of the prefix of
    length k is ``_prefix_kl`` of its counts times ``1 / log2(k + 1)``.
    A term depends only on the prefix's count vector, so the extremes
    are a shortest and a longest path through the lattice of count
    vectors, which has prod(c_g + 1) states. The walk keeps, for each
    vector of the current length, the smallest and the largest
    left-to-right float sum reaching it. Adding a term is monotone in
    the sum it is added to, so these are the floats of scoring each
    ordering in full. Sums are compared after the term is added; of two
    equal sums, the lexicographically smaller path wins, so ties keep
    the first ordering in lexicographic order.

    Guarded at ``guard`` total items (default 14). The time grows with
    the number of states, and with n items the worst case is n
    singleton groups, 2^n states: on a shared 2-vCPU host, about 0.5 s
    at 14, 2 s at 16 and 11 s at 18. Pass a larger guard explicitly for
    multisets of few groups; 40/30/20 items take about 0.3 s there.
    """
    if spec.total > guard:
        raise InfeasibleError(
            f"instance size {spec.total} exceeds the oracle's item guard {guard}; "
            f"pass a larger guard explicitly to force it"
        )
    for group, count in spec.group_counts.items():
        if count > 0 and target.mass(group) <= 0.0:
            raise ZeroTargetMassError(group)

    groups = sorted(g for g, c in spec.group_counts.items() if c > 0)
    limits = [spec.group_counts[g] for g in groups]
    normalizer = 0.0
    # Each count vector maps to (sum, path) of its smallest sum and
    # (-sum, path) of its largest: min() of either picks the extreme
    # sum and, among equal sums, the lexicographically first path.
    layer = {(0,) * len(groups): ((0.0, ()), (0.0, ()))}
    for k in range(1, spec.total + 1):
        discount = 1.0 / math.log2(k + 1)
        normalizer += discount  # not sum(): from Python 3.12 it compensates rounding
        arrivals = defaultdict(list)
        for vector, ends in layer.items():
            for g, limit in enumerate(limits):
                if vector[g] < limit:
                    arrivals[vector[:g] + (vector[g] + 1,) + vector[g + 1 :]].append((g, ends))
        layer = {}
        for vector, steps in arrivals.items():
            term = discount * _prefix_kl(dict(zip(groups, vector)), k, target)
            low, low_path, low_g = min((s + term, path, g) for g, ((s, path), _) in steps)
            high, high_path, high_g = min((s - term, path, g) for g, (_, (s, path)) in steps)
            layer[vector] = ((low, low_path + (low_g,)), (high, high_path + (high_g,)))
    (low, argmin), (high, argmax) = layer.popitem()[1]
    return ExtremeResult(
        min_value=low / normalizer,
        max_value=-high / normalizer,
        argmin=tuple(groups[g] for g in argmin),
        argmax=tuple(groups[g] for g in argmax),
        permutations_examined=math.prod(
            math.comb(sum(limits[: i + 1]), c) for i, c in enumerate(limits)
        ),
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


def verify_trace(trace: AggregationTrace, target: GroupDistribution) -> TraceVerification:
    """Re-check every step of a merge, position t of its ranking, against its rule.

    Only the inputs the trace carries are trusted, its candidate lists and
    lam; the counts are this function's own, and ``ties`` is not read. At
    each step, every group with candidates left scores
    lam*KL + (1-lam)*(1-shat), with KL the divergence of the prefix plus
    that group's head and shat the head's min-max normalized score within
    its group (1.0 when all are equal; halved first when the finite range
    overflows, as the merge does).
    KL is the ``math.fsum`` of the placed groups' terms with the group's
    own term swapped for its incremented one, clamped at 0: O(G) per step.
    A step is a violation when the chosen group had no candidate left,
    the chosen candidate is not its group's head, or the chosen group's
    objective is worse than the best by more than ``KL_TOLERANCE``.
    ``target`` is the one the merge was given: for a merge made with
    ``target.smoothed()``, pass ``target.smoothed()`` here too.
    """
    lam, lists = trace.lam, trace.candidates.lists
    shats: dict[GroupId, list[float]] = {}
    for g, bucket in lists.items():
        if bucket:
            high, low = max(c.score for c in bucket), min(c.score for c in bucket)
            if high == low:
                shats[g] = [1.0] * len(bucket)
            elif math.isinf(high - low):
                shats[g] = [(c.score / 2 - low / 2) / (high / 2 - low / 2) for c in bucket]
            else:
                shats[g] = [(c.score - low) / (high - low) for c in bucket]
    counts: Counter[GroupId] = Counter()
    violations: list[TraceViolation] = []
    for t, chosen in enumerate(trace.ranking, start=1):
        terms = {g: _kl_term(c, t, g, target) for g, c in counts.items()}
        total = math.fsum(terms.values())
        objective: dict[GroupId, float] = {}
        for g, shat in shats.items():
            head = counts[g]
            if head < len(shat):
                kl = total - terms.get(g, 0.0) + _kl_term(head + 1, t, g, target)
                objective[g] = lam * max(0.0, kl) + (1.0 - lam) * (1.0 - shat[head])
        group = chosen.group
        best = min(objective, key=lambda g: (objective[g], g), default=group)
        chosen_value = objective.get(group, math.inf)
        best_value = objective.get(best, math.inf)
        if (
            group not in objective
            or chosen != lists[group][counts[group]]
            or chosen_value > best_value + KL_TOLERANCE
        ):
            violations.append(TraceViolation(t, group, chosen_value, best, best_value))
        counts[group] += 1
    return TraceVerification(steps_checked=len(trace.ranking), violations=tuple(violations))

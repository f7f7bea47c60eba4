"""Exception types shared across the package.

Three broad families matter to callers (and to the CLI exit codes):
configuration problems, unusable input data, and requests that are
infeasible for the given instance. Concrete subclasses carry enough
context (node id, group, line number) to make failures actionable.
Numeric, boolean and path configuration values go through one type
check each, here.
"""

from __future__ import annotations

import math


class FairlinkError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FairlinkError):
    """Invalid configuration: bad ratios, weights, targets, or selectors."""


class DataError(FairlinkError):
    """Unusable input data: parse failures, unknown ids, empty inputs."""


class InfeasibleError(FairlinkError):
    """The request cannot be satisfied by the given instance."""


# --- data errors -----------------------------------------------------------


class MalformedLineError(DataError):
    def __init__(self, path, line_no: int, reason: str = "cannot parse"):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class SelfLoopError(DataError):
    def __init__(self, node: int, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"self-loop on node {node}{where}")
        self.node = node
        self.line_no = line_no


class MissingAttributeError(DataError):
    def __init__(self, node: int, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"node {node} has no sensitive attribute{where}")
        self.node = node
        self.line_no = line_no


class UnknownNodeError(DataError):
    def __init__(self, node: int, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"unknown node id {node}{where}")
        self.node = node
        self.line_no = line_no


class UnknownEdgeError(DataError):
    def __init__(self, edge):
        super().__init__(f"{edge} is not an edge of the graph")
        self.edge = edge


class DuplicatePairError(DataError):
    def __init__(self, pair, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"duplicate pair {pair}{where}")
        self.pair = pair
        self.line_no = line_no


class RankingEntryError(DataError):
    """A ranking entry that does not fit the graph: an unknown or
    unattributed node, or a group label other than its pair's group."""

    def __init__(self, rank: int, reason: str):
        super().__init__(f"ranking entry at rank {rank}: {reason}")
        self.rank = rank
        self.reason = reason


class MissingEmbeddingError(DataError):
    def __init__(self, node: int):
        super().__init__(f"no embedding for node {node}")
        self.node = node


class DimensionMismatchError(DataError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"embedding dimension mismatch: {expected} vs {got}")
        self.expected = expected
        self.got = got


class EmptyEdgeSetError(DataError):
    def __init__(self):
        super().__init__("edge set is empty")


class EmptyRankingError(DataError):
    def __init__(self):
        super().__init__("ranking is empty")


class EmptyInputError(DataError):
    def __init__(self, what: str = "input"):
        super().__init__(f"{what} is empty")


class EmptyGroupError(DataError):
    def __init__(self, which: str):
        super().__init__(f"score sequence for {which} is empty")
        self.which = which


class FewerThanTwoGroupsError(DataError):
    def __init__(self):
        super().__init__("need at least two non-empty groups")


class NoPositivesError(DataError):
    def __init__(self):
        super().__init__("relevance vector has no positives in the pool")


# --- configuration errors --------------------------------------------------


class ZeroTargetMassError(ConfigError):
    """A group that occurs in the data has zero mass in the target."""

    def __init__(self, group):
        super().__init__(
            f"group {group} has zero target mass (enable smoothing or fix the target)"
        )
        self.group = group


class LambdaOutOfRangeError(ConfigError):
    def __init__(self, value: float):
        super().__init__(f"weight must lie in [0, 1], got {value}")
        self.value = value


def _check_number(value, name: str, *, integer: bool = False, minimum=None):
    """``value`` if it is an int or a finite float (only an int with ``integer``), >= ``minimum``.

    Raises ConfigError otherwise; ``bool`` is rejected although Python
    counts it as an int, and a string is not parsed.
    """
    kind = int if integer else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or not (isinstance(value, int) or math.isfinite(value))
        or (minimum is not None and value < minimum)
    ):
        what = "an integer" if integer else "a number"
        at_least = f" >= {minimum}" if minimum is not None else ""
        raise ConfigError(f"{name} must be {what}{at_least}, got {value!r}")
    return value


def _check_bool(value, name: str) -> bool:
    """``value`` if it is ``True`` or ``False``; a number or a string raises ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _check_path(value, name: str) -> str:
    """``value`` if it is a string, as every path option must be; raises ConfigError otherwise."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return value


class KOutOfRangeError(ConfigError):
    def __init__(self, k: int, limit: int):
        super().__init__(f"cutoff k={k} outside valid range 1..{limit}")
        self.k = k
        self.limit = limit


class PoolSmallerThanSelectedError(ConfigError):
    def __init__(self, which: str, pool: int, selected: int):
        super().__init__(
            f"{which} pool has {pool} candidates but {selected} were selected"
        )
        self.which = which
        self.pool = pool
        self.selected = selected


# --- infeasibility ---------------------------------------------------------


class GroupTooSmallError(InfeasibleError):
    def __init__(self, group, size: int, needed: int):
        super().__init__(f"group {group} has {size} edges, need at least {needed}")
        self.group = group
        self.size = size
        self.needed = needed


class NotEnoughNonEdgesError(InfeasibleError):
    def __init__(self, group, available: int, requested: int):
        super().__init__(
            f"group {group} has only {available} non-edges, {requested} requested"
        )
        self.group = group
        self.available = available
        self.requested = requested


class InfeasibleKError(InfeasibleError):
    def __init__(self, k: int, capacity: int):
        super().__init__(f"k={k} exceeds available capacity {capacity}")
        self.k = k
        self.capacity = capacity


class TooLargeError(InfeasibleError):
    def __init__(self, n: int, guard: int):
        super().__init__(
            f"instance size {n} exceeds the oracle's item guard {guard}; "
            f"pass a larger guard explicitly to force it"
        )
        self.n = n
        self.guard = guard

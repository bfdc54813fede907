"""Coin systems, representations, and the greedy / optimal change makers.

A coin system is written (1, c2, ..., cn) with strictly increasing values and
an unlimited supply of each coin.  Optimal counts come from an unbounded
dynamic program over 0..v; the greedy algorithm repeatedly takes the largest
coin that fits.  Representations of the same length compare lexicographically
with the leftmost (smallest-coin) count dominant.  Optimal forms are walked
down the optimal paths from v, looking up optimal counts below v.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

# Coin values and query amounts must leave headroom so that pairwise sums
# still fit in unsigned 64-bit arithmetic.
MAX_COIN_VALUE = 2**63 - 1

# Ceiling on DP table size; optimal-count queries above it are refused
# instead of silently allocating huge tables.
DEFAULT_VALUE_CAP = 10**7


class ResourceLimitError(RuntimeError):
    """A query or a sweep could need a DP table past DEFAULT_VALUE_CAP."""


@dataclass(frozen=True)
class CoinSystem:
    """Strictly increasing denominations (1, c2, ..., cn)."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("coin system needs at least one value")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"coin value {v!r} is not an integer")
        if values[0] != 1:
            raise ValueError("smallest coin must be 1")
        for a, b in zip(values, values[1:]):
            if b <= a:
                raise ValueError("coin values must be strictly increasing")
        if values[-1] > MAX_COIN_VALUE:
            raise ValueError(f"coin value {values[-1]} out of supported range")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, index: int) -> int:
        return self.values[index]

    def prefix(self, length: int) -> "CoinSystem":
        """The coin system formed by the first ``length`` values."""
        if not 1 <= length <= len(self.values):
            raise ValueError(f"prefix length {length} out of range")
        return CoinSystem(self.values[:length])

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True)
class Representation:
    """Per-coin counts for one amount under a fixed coin system."""

    system: CoinSystem
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != len(self.system):
            raise ValueError("counts length must match the coin system")
        for x in counts:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError(f"count {x!r} is not a nonnegative integer")

    def value(self) -> int:
        return sum(c * x for c, x in zip(self.system.values, self.counts))

    def size(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class Pattern:
    """Orderliness marks, one per prefix length, '+' orderly and '-' not."""

    marks: str

    def __post_init__(self) -> None:
        if not self.marks:
            raise ValueError("pattern must not be empty")
        if set(self.marks) - {"+", "-"}:
            raise ValueError("pattern marks must be '+' or '-'")
        # 1- and 2-value systems are always orderly.
        if self.marks[0] != "+" or (len(self.marks) > 1 and self.marks[1] != "+"):
            raise ValueError("patterns always start '++'")

    def __str__(self) -> str:
        return self.marks

    def __len__(self) -> int:
        return len(self.marks)


def _check_amount(v: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"amount {v!r} is not a nonnegative integer")
    if v > MAX_COIN_VALUE:
        raise ValueError(f"amount {v} out of supported range")


# ---------- tuple-level workers ----------
#
# The heavy enumeration code paths operate on plain value tuples; the public
# functions below wrap them for CoinSystem inputs.


def _greedy_counts(values: tuple[int, ...], v: int) -> list[int]:
    counts = [0] * len(values)
    rem = v
    for i in range(len(values) - 1, -1, -1):
        c = values[i]
        if c <= rem:
            counts[i], rem = divmod(rem, c)
            if rem == 0:
                break
    return counts


def _greedy_count(values: tuple[int, ...], v: int) -> int:
    total = 0
    rem = v
    for i in range(len(values) - 1, -1, -1):
        c = values[i]
        if c <= rem:
            q, rem = divmod(rem, c)
            total += q
            if rem == 0:
                break
    return total


def _opt_table(values: tuple[int, ...], limit: int) -> list[int]:
    """Minimal coin counts for every amount 0..limit."""
    coins = values[1:]
    dp = [0] * (limit + 1)
    for v in range(1, limit + 1):
        best = dp[v - 1] + 1
        for c in coins:
            if c > v:
                break
            cand = dp[v - c] + 1
            if cand < best:
                best = cand
        dp[v] = best
    return dp


def _optimal_forms(
    values: tuple[int, ...], v: int, opt: Callable[[int], int], lex: bool
) -> set[tuple[int, ...]]:
    """Every optimal representation of v, or with lex only the smallest.

    opt(u) is the optimal count of every u < v.  An optimal form of u less
    any one of its coins d is an optimal form of u - d, and d is a step of
    u: opt(u - d) is least.  So the walk visits the amounts the steps reach
    from v, then fills them upward: the forms of u - d plus e_d, over steps.
    """
    steps: dict[int, list[int]] = {}
    todo = [v]
    while todo:
        u = todo.pop()
        if u in steps:
            continue
        sizes = [opt(u - c) for c in values[: bisect_right(values, u)]]
        least = min(sizes, default=0)
        steps[u] = [i for i, s in enumerate(sizes) if s == least]
        todo += [u - values[i] for i in steps[u]]
    forms = {0: {(0,) * len(values)}}
    for u in sorted(steps)[1:]:
        out = {f[:i] + (f[i] + 1,) + f[i + 1 :] for i in steps[u] for f in forms[u - values[i]]}
        forms[u] = {min(out)} if lex else out
    return forms[v]


def _lex_smallest_counts(
    values: tuple[int, ...], v: int, opt: Callable[[int], int]
) -> list[int]:
    """Counts of the lexicographically smallest optimal representation.

    opt(u) is the optimal count of every u < v.  Remove any coin d from the
    smallest optimal form L of u: what is left is the smallest optimal form
    of u - d, since a smaller one plus e_d would be an optimal form of u
    below L.  So L is the smallest of (smallest form of u - d) + e_d over
    the steps of u, and keeping one form per amount of the walk is exact.
    """
    (form,) = _optimal_forms(values, v, opt, lex=True)
    return list(form)


# ---------- public operations ----------


def greedy_count(system: CoinSystem, v: int) -> int:
    """Number of coins the greedy algorithm spends on amount v."""
    _check_amount(v)
    return _greedy_count(system.values, v)


def _check_cap(v: int) -> None:
    """Refuse a DP table over 0..v beyond the cap, read at call time."""
    if v > DEFAULT_VALUE_CAP:
        raise ResourceLimitError(f"amount {v} exceeds the DP table cap {DEFAULT_VALUE_CAP}")


def opt_count(system: CoinSystem, v: int) -> int:
    """Minimal number of coins representing amount v."""
    _check_amount(v)
    _check_cap(v)
    return _opt_table(system.values, v)[v]

"""Deciding orderliness: oracle scan, candidate test, and structural checks.

A coin system is *orderly* when the greedy representation is optimal for
every amount.  The oracle scans amounts upward keeping greedy counts, which
equal optimal ones below the first counterexample; that lies below c(n-1)+cn
(Kozen & Zaks), so the scan is finite.  What is left of a long stretch of
amounts to check, past its first _LOOP amounts, is compared a block at a
time over table slices: each comparison reads only amounts below the
largest coin in play, all already tabulated, so a block needs none of its
own entries, and a coin d is compared only where v - d >= c2: below, greedy
pays v - d in ones, more coins than v - p takes, so d cannot beat greedy.
The stretch's length alone picks the path.  A one-shot scan, whose table
nobody resumes, builds only the entries its checks read.  The fast test
instead derives a small candidate set from greedy representations of ck-1:
the minimal counterexample of a non-orderly system always appears among the
candidates, so checking only those decides the verdict in O(n^3) coin
operations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import lt

from .core import (
    CoinSystem,
    Representation,
    _check_cap,
    _greedy_count,
    _greedy_counts,
    _lex_smallest_counts,
    _optimal_forms,
)


class InternalDisagreementError(RuntimeError):
    """Two verdict routes disagreed on the same system."""


def _ceil_div(a: int, b: int) -> int:
    return (a + b - 1) // b


# ---------- oracle scan ----------


_CHUNK = 1 << 14  # amounts appended per list built where no amount can fail
# amounts of a check region tried one by one before the blocks: large check
# scans time alike from 16 to 128, and 64 keeps every region of the sweeps
# (at most 39 amounts at their bounds) on the loop; slicing every region
# made the sweeps 1.5-2.9x slower
_LOOP = 64


def _scan_from(values: tuple[int, ...], grd: list[int], *, keep: bool = True) -> int | None:
    """Resume the oracle scan of values where grd ends; the first counterexample.

    grd holds greedy counts of values from amount 0 up, none failing: [0], or
    a parent's table cut at most at the new coin, which changes no count
    below it.  It grows in place up to the returned amount; None means no
    failure below c(n-1)+cn: the system is orderly.  With p the largest coin
    <= v, v fails iff some coin d has grd[v-d] < grd[v-p].  A coin d <= v-p
    repeats the comparison made at v-p (greedy on v-d starts with p) and d = p
    ties, so only v-p < d < p is tried, and the amounts from p plus the coin
    below p up to the next coin cannot fail: they are filled, not checked.

    The check region of p, the amounts p + m below p plus the coin below p,
    is tried one amount at a time for its first _LOOP amounts; what is left
    of a long region goes in blocks of offsets m that double from _LOOP up
    to _CHUNK.  Such a check reads grd[p-d+m] and grd[m], both below p, so a
    block is checked whole before its entries are appended: for each coin d
    above the block's first offset, in descending order, the first m below d
    with grd[p-d+m] < grd[m] is found over table slices (searched for only
    when any m fails), and the smallest such m over all coins is the first
    failure.  Which path runs depends only on the region's length.  The
    amounts below c2 are paid in ones, so they are appended as u itself, and
    a block compares a coin d only from m = c2 + d - p, as below it
    grd[p-d+m] = p-d+m > m >= grd[m]; a coin left with no m is skipped, not
    the last tried, since a smaller coin starts lower.

    keep=False says the caller discards grd, and the scan then builds only
    what its checks read.  The top coin's checks read grd below c(n-1) and
    from cn-c(n-1) to cn: its blocks append nothing, and the fill under cn
    builds only that last stretch, as u // c(n-1) + grd[u mod c(n-1)], over
    a placeholder.  Entries the scan never reads are unspecified.
    """
    hi = values[-2] + values[-1]
    if len(grd) < values[1]:
        grd += range(len(grd), values[1])
    v = len(grd)
    k = bisect_right(values, v) - 1
    while True:
        p = values[k]
        end = values[k + 1] if k + 1 < len(values) else hi
        below = values[k - 1 : 0 : -1]
        top = min(p + values[k - 1], end)
        long = top - v > _LOOP
        for v in range(v, v + _LOOP if long else top):
            m = v - p
            g = grd[m]
            grd.append(g + 1)
            for d in below:
                if d <= m:
                    break
                if grd[v - d] < g:
                    return v
        if long:
            m0, size = len(grd) - p, _LOOP
            while m0 < top - p:
                m1 = hit = min(m0 + size, top - p)
                for d in below:
                    lim = min(d, hit)
                    if lim <= m0:
                        break
                    a = max(m0, values[1] + d - p)
                    if a >= lim:
                        continue
                    shifted, block = grd[p - d + a : p - d + lim], grd[a:lim]
                    if any(map(lt, shifted, block)):
                        hit = next(compress(range(a, lim), map(lt, shifted, block)))
                if keep or end < hi:
                    grd += [g + 1 for g in grd[m0 : min(hit + 1, m1)]]
                if hit < m1:
                    return p + hit
                m0, size = m1, min(2 * size, _CHUNK)
        if end == hi:
            return None
        if not keep and end == values[-1] and len(grd) < end - p:
            # the top coin's checks read only grd[:p] and grd[end - p : end]
            q, r = divmod(end - p, p)
            grd.extend(repeat(0, end - p - len(grd)))
            grd += [x + q for x in grd[r:p]] + [x + q + 1 for x in grd[:r]]
        while len(grd) < end:
            # greedy on u < end spends u // p coins of p, so u copies u - t*p plus t
            t = max(1, min(len(grd), _CHUNK) // p)
            s = len(grd) - t * p
            grd += [x + t for x in grd[s : min(s + _CHUNK, end - t * p)]]
        v = end
        k += 1


def _min_counterexample(values: tuple[int, ...]) -> int | None:
    """Smallest amount where greedy is not optimal, or None when orderly.

    Scans from amount 1 over the window below c(n-1)+cn, which holds the
    minimal counterexample of every non-orderly system; the cap bounds that
    window.  The table is thrown away, so only what the checks read is
    built; the sweeps resume _scan_from from a parent's full table instead.
    """
    if len(values) <= 2:
        return None
    _check_cap(values[-2] + values[-1] - 1)
    return _scan_from(values, [0], keep=False)


def min_counterexample_oracle(system: CoinSystem) -> int | None:
    """Smallest counterexample to greedy optimality, or None when orderly."""
    return _min_counterexample(system.values)


# ---------- candidate test ----------


def _level_candidates(values: tuple[int, ...]) -> list[tuple[int, int]]:
    """The candidates from the greedy vector of c - 1 for the top coin c:
    its entries below p zeroed and entry p raised by one, for p = 1, 2, ...,
    as (amount, coins in the candidate vector); amounts are at least c and
    depend on no coin above c.  One greedy pass from the top gives them all:
    once c - 1 has paid its coins down to values[p], what it has paid is
    that vector with entries below p zeroed, and rem is what they held."""
    c = values[-1]
    rem, size, out = c - 1, 1, []
    for p in range(len(values) - 2, 0, -1):
        d = values[p]
        if d <= rem:
            q, rem = divmod(rem, d)
            size += q
        out.append((c - 1 - rem + d, size))
    return out


def _candidate_step(
    values: tuple[int, ...], f: int | None, pending: list[tuple[int, int]]
) -> tuple[int | None, list[tuple[int, int]]]:
    """Extend the candidate state of values[:-1] by its top coin c, with
    greedy counts only: f is the smallest failing candidate so far, pending
    the sorted candidates at or above the parent's top coin.  No greedy
    count below c changes in a descendant, so an f below c is final and any
    other candidate below c has passed for good."""
    c = values[-1]
    if f is not None and f < c:
        return f, pending
    pending = sorted(pending[bisect_left(pending, (c,)) :] + _level_candidates(values))
    for amount, size in pending:
        if _greedy_count(values, amount) > size:
            return amount, pending
    return None, pending


def _failing_candidates(values: tuple[int, ...]) -> list[int | None]:
    """Smallest failing candidate of every prefix, None where it is orderly.
    A failing candidate's vector beats greedy, and the minimal counterexample
    is a candidate whose vector is optimal, so each entry is the minimal one."""
    f, pending, out = None, [], [None] * min(len(values), 2)
    for k in range(3, len(values) + 1):
        f, pending = _candidate_step(values[:k], f, pending)
        out.append(f)
    return out


def _candidate_verdict(values: tuple[int, ...]) -> bool:
    """True iff orderly, checking greedy only at the candidate amounts."""
    return _failing_candidates(values)[-1] is None


# ---------- reports ----------


@dataclass(frozen=True)
class CounterexampleWitness:
    """A failing amount with its greedy and lex-smallest optimal forms."""

    value: int
    greedy: Representation
    optimal: Representation
    greedy_count: int
    opt_count: int


@dataclass(frozen=True)
class CanonicalityReport:
    orderly: bool
    witness: CounterexampleWitness | None


def _witness(system: CoinSystem, w: int) -> CounterexampleWitness:
    """Greedy and lex-smallest optimal forms of w, which must be the minimal
    counterexample: greedy is optimal below it, so the optimal form is
    walked down greedy counts and no DP table is built."""
    values = system.values
    greedy = Representation(system, tuple(_greedy_counts(values, w)))
    counts = _lex_smallest_counts(values, w, partial(_greedy_count, values))
    optimal = Representation(system, tuple(counts))
    return CounterexampleWitness(
        value=w,
        greedy=greedy,
        optimal=optimal,
        greedy_count=greedy.size(),
        opt_count=optimal.size(),
    )


def is_orderly(system: CoinSystem) -> CanonicalityReport:
    """Decide orderliness by the candidate test; witness the failure if any.

    The verdict comes from the candidate set alone.  For a non-orderly
    system the smallest failing candidate is the minimal counterexample M,
    so the witness's optimal form is walked down the greedy counts below M,
    and the cap bounds M, and with it the walk, rather than the scan window.
    """
    m = _failing_candidates(system.values)[-1]
    if m is None:
        return CanonicalityReport(orderly=True, witness=None)
    _check_cap(m)
    witness = _witness(system, m)
    if witness.greedy_count <= witness.opt_count:
        raise InternalDisagreementError(f"candidate {m} of {system} is not a counterexample")
    return CanonicalityReport(orderly=False, witness=witness)


# ---------- one-point extension check ----------


@dataclass(frozen=True)
class OnePointVerdict:
    """Outcome of the single greedy evaluation deciding an extension.

    For an orderly prefix ending in c(n-1) and a new largest coin cn, the
    extended system is orderly iff greedy spends at most m = ceil(cn/c(n-1))
    coins on the amount m*c(n-1).
    """

    m: int
    target: int
    greedy_count: int
    orderly: bool


def _one_point(values: tuple[int, ...]) -> tuple[bool, int, int]:
    """One-point test of values, whose prefix values[:-1] is orderly.

    Returns (orderly, m, g): greedy spends g coins on m*c(n-1), where
    m = ceil(cn/c(n-1)).  values is orderly iff g <= m; otherwise m*c(n-1)
    is a counterexample.
    """
    m = _ceil_div(values[-1], values[-2])
    g = _greedy_count(values, m * values[-2])
    return g <= m, m, g


def one_point_check(prefix: CoinSystem, c_new: int) -> OnePointVerdict:
    """Decide whether appending c_new to an orderly prefix stays orderly.

    The prefix must be orderly for the verdict to mean anything, so it is
    checked here.
    """
    values = prefix.values
    if c_new <= values[-1]:
        raise ValueError(f"new coin {c_new} must exceed the current largest {values[-1]}")
    if not _candidate_verdict(values):
        raise ValueError(f"prefix {prefix} is not orderly")
    orderly, m, g = _one_point(values + (c_new,))
    return OnePointVerdict(m=m, target=m * values[-1], greedy_count=g, orderly=orderly)


# ---------- necessary-condition filters ----------


def _pair_counterexample(bits: int, y: int, c: int) -> int | None:
    """Smallest sum x + y, over coins x <= y with x + y above the top coin c,
    that greedy overpays; None when there is none.

    bits has bit x set for each coin x up to y, y among them, and c is the
    only coin above y that matters.  Bit i of bits >> (c - y) is set iff
    x = i + c - y is a coin; then x + y = c + i, and i = 0 is the sum c
    itself.  Clearing i = 0 and every i that is a coin (i < y, so bits
    knows) leaves the failing sums, the lowest first.

    Lemma (two-coin sums).  Let c be the top coin and s = x + y > c for
    coins x <= y < c, so s < 2c.  No coin lies above c, so opt(s) = 2.
    Greedy takes c once and then pays greedy(s - c), with 0 < s - c < c, and
    that is one coin iff s - c is a coin.  So s is a counterexample iff
    s - c is not a coin; it need not be the minimal one.

    With y = t = c(n-1) and g = c - t this is a shift by the top gap: for a
    coin x > g, greedy pays x + t as c plus greedy(x - g), so x + t fails
    unless x - g is a coin.  Taking x = t, an orderly system has c >= 2t or
    c = 2t - p for a coin p.  An amount returned lies below c(n-1) + c and
    proves the system is not orderly; None proves nothing.
    """
    t = (bits >> (c - y)) & ~1 & ~bits
    return c + (t & -t).bit_length() - 1 if t else None


def gap_filter(system: CoinSystem) -> bool:
    """Tag systems with a gap narrower than c2 - 1, which are conjectured
    not orderly.

    Only the top gap's bound is proved: a top gap g <= c2 - 2 makes
    c2 + c(n-1) a counterexample by _pair_counterexample's lemma with
    x = c2, since c2 - g lies strictly between 1 and c2.  The inner gaps
    rest on tested evidence alone (the filters' property test and the
    structural acceptance suites), not on a proof, so no sweep prunes by
    this filter.
    """
    values = system.values
    if len(values) < 2:
        return True
    floor = values[1] - 1
    return all(b - a >= floor for a, b in zip(values[1:], values[2:]))


def jump_filter(system: CoinSystem) -> bool:
    """Necessary for orderliness: gaps never shrink after two doublings.

    Whenever two consecutive coins each more than double their predecessor,
    every later gap must be at least as wide as the gap between those two.
    A False verdict proves the system is not orderly; True says nothing.
    """
    values = system.values
    n = len(values)
    for m in range(2, n):  # 0-based index of the second doubling coin
        if values[m - 1] > 2 * values[m - 2] and values[m] > 2 * values[m - 1]:
            width = values[m] - values[m - 1]
            for t in range(m, n - 1):
                if values[t + 1] - values[t] < width:
                    return False
    return True


# ---------- support disjointness at the minimal counterexample ----------


@dataclass(frozen=True)
class SupportCheck:
    """Whether greedy and every optimal form of the minimal counterexample
    use disjoint coin sets.  Status is 'vacuous' for orderly systems,
    otherwise 'holds' or 'violated' with the offending optimal form."""

    status: str
    value: int | None = None
    greedy: Representation | None = None
    conflicting: Representation | None = None


def _optimal_count_vectors(values: tuple[int, ...], w: int) -> list[tuple[int, ...]]:
    """Every representation of the minimal counterexample w that attains
    the minimal coin count, in lexicographic order; greedy is optimal below
    w, so the walk looks up greedy counts."""
    return sorted(_optimal_forms(values, w, partial(_greedy_count, values), lex=False))


def disjoint_support_check(system: CoinSystem) -> SupportCheck:
    """At the minimal counterexample, greedy and optimal never share a coin.

    Verified against every optimal representation by exhaustive enumeration.
    """
    w = _min_counterexample(system.values)
    if w is None:
        return SupportCheck(status="vacuous")
    return _support_at(system, w)


def _support_at(system: CoinSystem, w: int) -> SupportCheck:
    """disjoint_support_check at w, the system's minimal counterexample."""
    values = system.values
    greedy_counts = _greedy_counts(values, w)
    greedy = Representation(system, tuple(greedy_counts))
    for opt_counts in _optimal_count_vectors(values, w):
        if any(x and y for x, y in zip(greedy_counts, opt_counts)):
            return SupportCheck(
                status="violated",
                value=w,
                greedy=greedy,
                conflicting=Representation(system, opt_counts),
            )
    return SupportCheck(status="holds", value=w, greedy=greedy)

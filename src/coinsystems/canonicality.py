"""Deciding orderliness: oracle scan, candidate test, and structural checks.

A coin system is *orderly* when the greedy representation is optimal for
every amount.  The oracle scans amounts upward keeping greedy counts, which
equal optimal ones below the first counterexample; that lies below c(n-1)+cn
(Kozen & Zaks), so the scan is finite.  The list scan tries the amounts
it checks one at a time; only the lanes below compare blocks of them.

A one-shot scan of a large window, whose table nobody resumes, holds its
greedy counts as B-byte little-endian lanes of one bytearray and checks a
coin over a whole block in a few big-int operations.  The stretch: below
cn, greedy pays u >= c(n-1) with u // c(n-1) coins c(n-1) and then the
greedy count of u mod c(n-1), so the amounts from cn - c(n-1) up to cn,
which only the top coin's checks read, are q + grd[u mod c(n-1)] with
q = u // c(n-1), and the table stops at E = min(cn, c(n-2) + c(n-1)),
past which nothing below cn can fail.  The width: an amount u below E
with largest coin ck is paid u // ck <= (min(c(k+1), E) - 1) // ck coins
ck and then greedy(u mod ck), u mod ck < ck, and an amount below c2 in at
most c2 - 1 ones.  So G, which is c2 - 1 plus that quotient for each coin
ck < E, clamped at E - 1 as greedy(u) <= u, bounds every count in the
table.  A read past the table with q >= G is at least G, never below a
count it is compared with, however large q is, so capping q at G changes
no comparison, and every read past the table holds at most G + G + 1,
the +1 where it wraps past a multiple of c(n-1).  B is the smallest
width with 2G+1 below 2^(8B-1).  Guard bits: setting bit 8B-1 in each
lane of grd[p-d+m] and subtracting grd[m] <= G leaves each lane
2^(8B-1) + grd[p-d+m] - grd[m], strictly between 0 and 2^(8B); no lane
borrows from the next, and a lane's bit 8B-1 is cleared exactly where
grd[p-d+m] < grd[m].

The fast test instead derives a small candidate set from greedy
representations of ck-1: the minimal counterexample of a non-orderly
system always appears among the candidates, so checking only those
decides the verdict in O(n^3) coin operations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial

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
# offsets in the first block of a lane scan's check region; later blocks
# double: 64 to 4,096 timed alike on the lanes' windows
_LOOP = 64
# one-shot windows c(n-1)+cn of at least this many amounts go to the lanes:
# on the benchmark's check systems the lanes took 1.4-1.5x the list scan's
# time from 256 to 512 amounts, 1.1-1.2x from 512 to 768, 0.95-1.03x from
# 768 to 1,024, and 0.8-0.87x, 0.6-0.67x, 0.45-0.49x and 0.3x from 1,024,
# 2,048, 4,096 and 10,000 amounts up
_LANES = 1 << 10


def _scan_from(values: tuple[int, ...], grd: list[int]) -> int | None:
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
    is tried one amount at a time.  The amounts below c2 are paid in ones,
    so they are appended as u itself.
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
        for v in range(v, min(p + values[k - 1], end)):
            m = v - p
            g = grd[m]
            grd.append(g + 1)
            for d in below:
                if d <= m:
                    break
                if grd[v - d] < g:
                    return v
        if end == hi:
            return None
        while len(grd) < end:
            # greedy on u < end spends u // p coins of p, so u copies u - t*p plus t
            t = max(1, min(len(grd), _CHUNK) // p)
            s = len(grd) - t * p
            grd += [x + t for x in grd[s : min(s + _CHUNK, end - t * p)]]
        v = end
        k += 1


def _lane_width(values: tuple[int, ...]) -> tuple[int, int]:
    """(G, B) for the lanes of values: G bounds every greedy count below the
    table end E = min(cn, c(n-2)+c(n-1)), and B, the bytes of a lane, is
    the smallest with 2G+1 < 2^(8B-1) (see the module docstring)."""
    e = min(values[-1], values[-3] + values[-2])
    g = values[1] - 1
    for c, nxt in zip(values[1:], values[2:]):
        if c >= e:
            break
        g += (min(nxt, e) - 1) // c
    g = min(g, e - 1)
    return g, ((2 * g + 1).bit_length() + 8) // 8


def _lanes(x: int, n: int, b: int) -> int:
    """n b-byte lanes that each hold x, as one int."""
    return int.from_bytes(x.to_bytes(b, "little") * n, "little")


def _lane_fill(grd: bytearray, p: int, end: int, b: int) -> None:
    """Append to the b-byte lanes of grd the greedy counts up to amount end,
    p being the largest coin below end: u copies u - q*p plus q, for the
    largest q whose copy is already in the table, so each step at most
    doubles it.  The counts lie below E, so G bounds them and no lane
    overflows."""
    size = len(grd) // b
    while size < end:
        q = size // p
        n = min(q * p, end - size)
        s = size - q * p
        x = int.from_bytes(grd[b * s : b * (s + n)], "little") + _lanes(q, n, b)
        grd += x.to_bytes(b * n, "little")
        size += n


def _greedy_lanes(grd: bytearray, t: int, u: int, n: int, g: int, b: int) -> int:
    """b-byte lanes of the greedy counts of the n amounts from u on, which
    lie below the top coin: read from the table where it holds them all,
    and past it built by the stretch rule as q + grd[u mod t], with t the
    coin below the top, n <= t and q = u // t capped at G = g, so a lane
    holds at most 2G+1 (see the module docstring)."""
    if b * (u + n) <= len(grd):
        return int.from_bytes(grd[b * u : b * (u + n)], "little")
    q, r = divmod(u, t)
    q, k = min(q, g), min(n, t - r)
    x = int.from_bytes(grd[b * r : b * (r + k)], "little") + _lanes(q, k, b)
    if k < n:
        x |= (int.from_bytes(grd[: b * (n - k)], "little") + _lanes(q + 1, n - k, b)) << 8 * b * k
    return x


def _first_below(x: int, grd: bytearray, m: int, n: int, guard: int, b: int) -> int:
    """The first j < n where b-byte lane j of x is below lane m + j of grd,
    else n.  guard sets bit 8b-1 in n lanes or more, a block's worth: past
    lane n it meets no lane of grd and stays set (see the module docstring
    for why the guard bits decide).  One over twice n lanes long is cut to
    n first, so a short comparison in a long block costs about its own
    lanes."""
    bits = 8 * b
    if 2 * bits * n < guard.bit_length():
        guard >>= guard.bit_length() - bits * n
    f = ((x | guard) - int.from_bytes(grd[b * m : b * (m + n)], "little")) & guard ^ guard
    return ((f & -f).bit_length() - 1) // bits if f else n


def _scan_lanes(values: tuple[int, ...], grd: bytearray) -> int | None:
    """One-shot oracle scan of values over the empty bytearray grd; the
    first counterexample, or None when orderly.

    The lanes are B bytes wide, B and the stretch's cap G taken from
    _lane_width.  The regions and the coins tried are _scan_from's, but a
    check region goes in blocks of offsets m = v - p that double from
    _LOOP.  A check reads grd[p-d+m] and grd[m], both below p, so a block
    is checked whole before its entries are appended: for each coin d
    above the block's first offset, in descending order, one _first_below
    finds the first m below d with grd[p-d+m] < grd[m], and the smallest
    such m over the coins is the first failure.  A coin d is compared only
    from m = c2 + d - p: the amounts below c2 are paid in ones, so below it
    grd[p-d+m] = p-d+m > m >= grd[m].  A coin left with no m is skipped,
    not the last tried, since a smaller coin starts lower.  A region is
    appended by _lane_fill once all its blocks pass, with the amounts after
    it up to the next coin; the scan ends where it fails.  The coin below
    the top fills only its check region, which ends by c(n-2)+c(n-1): the
    top coin's checks read what lies past it through _greedy_lanes, so grd
    ends with at most min(cn, c(n-2)+c(n-1)) lanes of greedy counts from
    amount 0 up.
    """
    c2, t, top = values[1], values[-2], values[-1]
    last = len(values) - 1
    g, b = _lane_width(values)
    grd += bytes(b)
    _lane_fill(grd, 1, c2, b)
    for k in range(1, last + 1):
        p, below = values[k], values[k - 1 : 0 : -1]
        if k < last:
            end = values[k + 1] if k + 1 < last else min(top, t + values[k - 1])
        size = min(values[k - 1], end - p) if k < last else t
        m0, span = 0, _LOOP
        while m0 < size:
            m1 = hit = min(m0 + span, size)
            guard = 0
            for d in below:
                lim = min(d, hit)
                if lim <= m0:
                    break
                a = max(m0, c2 + d - p)
                if a < lim:
                    guard = guard or _lanes(1 << 8 * b - 1, m1 - m0, b)
                    x = _greedy_lanes(grd, t, p - d + a, lim - a, g, b)
                    j = _first_below(x, grd, a, lim - a, guard, b)
                    if j < lim - a:
                        hit = a + j
            if hit < m1:
                return p + hit
            m0, span = m1, 2 * span
        if k < last:
            _lane_fill(grd, p, end, b)
    return None


def _min_counterexample(values: tuple[int, ...]) -> int | None:
    """Smallest amount where greedy is not optimal, or None when orderly.

    Scans from amount 1 over the window below c(n-1)+cn, which holds the
    minimal counterexample of every non-orderly system.  A window of
    _LANES amounts or more goes to the lanes, as narrow as the bound G on
    the system's greedy counts allows, and the cap bounds how many lanes
    they hold, whatever their width: the table below min(cn, c(n-2)+c(n-1))
    and up to c(n-1) lanes for a block of the top coin's checks.  A smaller
    one is scanned by _scan_from, and the cap bounds its table, the window.
    The sweeps resume _scan_from from a parent's table instead.
    """
    if len(values) <= 2:
        return None
    t, top = values[-2:]
    if t + top < _LANES:
        _check_cap(t + top - 1)
        return _scan_from(values, [0])
    _check_cap(min(top, values[-3] + t) + t - 1)
    return _scan_lanes(values, bytearray())


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
    walked down greedy counts and no DP table is built.  The cap bounds w,
    and with it the walk, whichever route found w."""
    _check_cap(w)
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

    The lemma as a mask (search._lemma_masks).  For coins C with top y, let
    S hold each s >= 1 such that every coin x > s has x - s in C.  Bit
    i >= 1 of bits >> s is set exactly for a coin i + s, so this returns
    None for c = y + s iff s is in S.  A new top coin z keeps each old
    coin's condition, as x - s < z, and adds only that z - s, below z, be
    a coin when s < z: S' = S & ({z - x : x in C} | [z, inf)).  With bit
    M - x of R set for each coin x <= M, R >> (M - z) holds the z - x.
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
    use disjoint coin sets: status 'holds', or 'violated' with the
    offending optimal form."""

    status: str
    value: int | None = None
    greedy: Representation | None = None
    conflicting: Representation | None = None


def _optimal_count_vectors(values: tuple[int, ...], w: int) -> list[tuple[int, ...]]:
    """Every representation of the minimal counterexample w that attains
    the minimal coin count, in lexicographic order; greedy is optimal below
    w, so the walk looks up greedy counts."""
    return sorted(_optimal_forms(values, w, partial(_greedy_count, values), lex=False))


def _support_at(system: CoinSystem, w: int) -> SupportCheck:
    """At w, the system's minimal counterexample, greedy and optimal never
    share a coin: checked against every optimal form, by exhaustive walk."""
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

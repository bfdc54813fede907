"""Independent reference for the benchmark's correctness checks.

Written from the definitions and importing nothing from ``coinsystems``:

* the greedy algorithm takes the largest coin that fits, then makes greedy
  change for the rest;
* the optimal count comes from the plain unbounded dynamic program
  ``opt(u) = 1 + min(opt(u - c))`` over coins ``c <= u``;
* the minimal counterexample is the smallest amount where greedy spends more
  coins than the optimum.  When one exists it lies below c(n-1) + cn
  (Kozen & Zaks 1994), so a scan up to there decides orderliness;
* the lexicographically smallest optimal representation has the fewest coins
  of value 1, then the fewest of value c2, and so on;
* the fixed-gap families D, E and F and the six-value templates are built
  from their stated formulas.

Everything is plain Python on value tuples ``(1, c2, ..., cn)``.
"""

from __future__ import annotations

from itertools import combinations

INF = float("inf")


def greedy_counts(values, v):
    """Per-coin counts greedy uses for amount v, largest coin first."""
    counts = [0] * len(values)
    rest = v
    for i in range(len(values) - 1, -1, -1):
        counts[i], rest = divmod(rest, values[i])
    return tuple(counts)


def greedy_count(values, v):
    return sum(greedy_counts(values, v))


def min_counterexample(values):
    """Smallest amount where greedy beats optimal, or None when orderly.

    Amounts are scanned upward from 1 and the scan stops at the first
    counterexample, so only the amounts below it are ever tabulated.
    """
    if len(values) < 3:
        return None
    opt = [0]
    grd = [0]
    usable = []  # the coins <= u
    for u in range(1, values[-2] + values[-1]):
        if len(usable) < len(values) and values[len(usable)] <= u:
            usable.append(values[len(usable)])
        # greedy takes the largest coin that fits and makes greedy change
        # for the rest
        grd.append(1 + grd[u - usable[-1]])
        best = u
        for c in usable:
            prev = opt[u - c]
            if prev < best:
                best = prev
        opt.append(best + 1)
        if grd[u] > best + 1:
            return u
    return None


def is_orderly(values):
    return min_counterexample(values) is None


def pattern(values):
    """'+' or '-' for each prefix length 1..n."""
    return "".join(
        "+" if is_orderly(values[:k]) else "-" for k in range(1, len(values) + 1)
    )


def target_pattern(n):
    """The (+++-...-+) pattern for n values."""
    return "+++" + "-" * (n - 4) + "+"


def lex_smallest_optimal(values, v):
    """Counts of the lex-smallest optimal representation of v.

    ``rest[i][u]`` is the fewest coins making u from values[i:]; position by
    position the smallest count is taken that still lets the later coins
    finish within the optimal total.
    """
    n = len(values)
    rest = [None] * (n + 1)
    rest[n] = [0] + [INF] * v
    for i in range(n - 1, -1, -1):
        row = list(rest[i + 1])
        c = values[i]
        for u in range(c, v + 1):
            if row[u - c] + 1 < row[u]:
                row[u] = row[u - c] + 1
        rest[i] = row
    budget = rest[0][v]
    counts = []
    u = v
    for i, c in enumerate(values):
        t = 0
        while rest[i + 1][u - t * c] != budget - t:
            t += 1
        counts.append(t)
        u -= t * c
        budget -= t
    return tuple(counts)


def representation_value(values, counts):
    return sum(c * x for c, x in zip(values, counts))


# ---------- fixed-gap families ----------


def fixed_gap(n, ell, x, d1, d2):
    """(1, x, ...) with gap d1 at odd and d2 at even indices up to ell, then
    gap d1 + d2 up to n values."""
    values = [1, x]
    for i in range(3, n + 1):
        if i <= ell:
            values.append(values[-1] + (d1 if i % 2 else d2))
        else:
            values.append(values[-1] + d1 + d2)
    return tuple(values)


def family_system(family, r, a, m=None):
    """The member of family D (r >= 1, a >= 2), E (r >= 2, 1 < m < a) or
    F (r >= 2, 1 < m <= a) with the given parameters."""
    if family == "D":
        return fixed_gap(3 * r + 2, 2 * r + 2, 2, a, 1)
    q = 2 * a - 1
    if family == "E":
        return fixed_gap(3 * r, 2 * r + 1, a, a - 1, (m - 1) * q - (a - 1))
    if family == "F":
        return fixed_gap(3 * r, 2 * r + 1, a, a, (m - 1) * q - a)
    raise ValueError(f"unknown family {family!r}")


def family_members(lengths, max_cn):
    """Every D/E/F member with a length in ``lengths`` and top coin at most
    max_cn, as {values: (family, r, a, m)}."""
    out = {}
    for n in lengths:
        if n >= 5 and n % 3 == 2:
            r = (n - 2) // 3
            a = 2
            while family_system("D", r, a)[-1] <= max_cn:
                out[family_system("D", r, a)] = ("D", r, a, None)
                a += 1
        if n >= 6 and n % 3 == 0:
            r = n // 3
            for family, lo_a in (("E", 3), ("F", 2)):
                a = lo_a
                while family_system(family, r, a, 2)[-1] <= max_cn:
                    top_m = a - 1 if family == "E" else a
                    for m in range(2, top_m + 1):
                        values = family_system(family, r, a, m)
                        if values[-1] <= max_cn:
                            out[values] = (family, r, a, m)
                    a += 1
    return out


# ---------- six-value templates ----------

# the prefix pattern each six-value case label stands for
SIX_VALUE_PATTERNS = {
    "1a": "++++-+",
    "1b": "++++-+",
    "1c": "++++-+",
    "2a": "+++--+",
    "2b": "+++--+",
    "3-totally": "++++++",
    "3-plusminusplus": "+++-++",
}


def six_value_template(label, a, b=None, m=None):
    """The system a parametric six-value case describes."""
    q = 2 * a - 1
    if label == "1a":
        return (1, 2, 3, a, a + 1, 2 * a)
    if label == "1b":
        return (1, a, 2 * a, b, b + a, 2 * b)
    if label == "1c":
        return (1, a, q, b, b + a - 1, 2 * b - 1)
    if label == "2a":
        return (1, a, q, m * q - (a - 1), m * q, (2 * m - 1) * q)
    if label == "2b":
        return (1, a, 2 * a, m * q - (a - 1), m * q + 1, (2 * m - 1) * q + 1)
    raise ValueError(f"case {label!r} has no template")


# ---------- exhaustive enumerations ----------


class PatternCache:
    """Prefix verdicts shared across the systems of one enumeration."""

    def __init__(self):
        self.orderly = {}

    def mark(self, values):
        if len(values) < 3:
            return "+"
        verdict = self.orderly.get(values)
        if verdict is None:
            verdict = self.orderly[values] = is_orderly(values)
        return "+" if verdict else "-"

    def pattern(self, values):
        return "".join(self.mark(values[:k]) for k in range(1, len(values) + 1))


def census(n, max_cn):
    """{pattern: count} over every n-value system with top coin <= max_cn."""
    cache = PatternCache()
    counts = {}
    for combo in combinations(range(2, max_cn + 1), n - 1):
        marks = cache.pattern((1,) + combo)
        counts[marks] = counts.get(marks, 0) + 1
    return counts


def target_systems(n, max_cn):
    """Every n-value system with top coin <= max_cn and pattern (+++-...-+),
    in lexicographic order.  A prefix whose marks already leave the target
    is not extended."""
    want = target_pattern(n)
    cache = PatternCache()
    found = []

    def extend(values):
        k = len(values)
        if cache.mark(values) != want[k - 1]:
            return
        if k == n:
            found.append(values)
            return
        for c in range(values[-1] + 1, max_cn - (n - k - 1) + 1):
            extend(values + (c,))

    for c2 in range(2, max_cn - n + 3):
        extend((1, c2))
    return found

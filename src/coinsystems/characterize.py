"""Closed-form orderliness tests for 3 to 6 values, and prefix patterns.

Three values reduce to a band inequality on c3 - c2.  Four values are
orderly exactly when every prefix is.  Five values add a single parametric
family (1, 2, a, a+1, 2a).  Six values split into named cases, each a
parametric template plus at most one greedy evaluation; the case label also
pins down the orderliness pattern of the system's prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonicality import _ceil_div, _failing_candidates, _one_point
from .core import CoinSystem, Pattern, _greedy_count


def orderly3(c2: int, c3: int) -> bool:
    """Whether (1, c2, c3) is orderly.

    Holds exactly when c3 - c2 falls in the union of bands
    [m*c2 - m, m*c2] over m >= 1; only m = ceil((c3-c2)/c2) can work,
    so one band inequality decides.
    """
    if not 1 < c2 < c3:
        raise ValueError("need 1 < c2 < c3")
    return _orderly3(c2, c3)


def _orderly3(c2: int, c3: int) -> bool:
    d = c3 - c2
    m = _ceil_div(d, c2)
    return m * c2 - m <= d


def orderly4(system: CoinSystem) -> bool:
    """Whether a 4-value system is orderly (equivalently: totally orderly)."""
    values = system.values
    if len(values) != 4:
        raise ValueError("need exactly four coin values")
    return _orderly4(values)


def _orderly4(values: tuple[int, ...]) -> bool:
    return _orderly3(values[1], values[2]) and _one_point(values)[0]


def orderly5(system: CoinSystem) -> bool:
    """Whether a 5-value system is orderly.

    Either the single family (1, 2, a, a+1, 2a) with a >= 4, or totally
    orderly.
    """
    values = system.values
    if len(values) != 5:
        raise ValueError("need exactly five coin values")
    return _orderly5(values)


def _orderly5(values: tuple[int, ...]) -> bool:
    a = values[2]
    if values[1] == 2 and a >= 4 and values[3] == a + 1 and values[4] == 2 * a:
        return True
    return _orderly4(values[:4]) and _one_point(values)[0]


def is_totally_orderly(system: CoinSystem) -> bool:
    """Whether every prefix (1, c2, ..., ck) is orderly.

    Checked by chaining extension verdicts, each valid because the prefix
    below it was just confirmed orderly.
    """
    values = system.values
    for k in range(3, len(values) + 1):
        if not _one_point(values[:k])[0]:
            return False
    return True


# ---------- six-value classification ----------

NOT_ORDERLY = "not-orderly"

# pattern of the five prefix verdicts plus the full-system verdict,
# determined by the case label
_CASE_PATTERNS = {
    "1a": "++++-+",
    "1b": "++++-+",
    "1c": "++++-+",
    "2a": "+++--+",
    "2b": "+++--+",
    "3-totally": "++++++",
    "3-plusminusplus": "+++-++",
}


@dataclass(frozen=True)
class SixValueClass:
    """Classification of a 6-value system: a case label and, for the
    parametric cases, the parameters that regenerate the system."""

    case_label: str
    params: dict[str, int] | None = None

    @property
    def orderly(self) -> bool:
        return self.case_label != NOT_ORDERLY


def implied_pattern(case_label: str) -> str | None:
    """The orderliness pattern a case label forces, None for not-orderly."""
    return _CASE_PATTERNS.get(case_label)


def regenerate_six_value(case_label: str, params: dict[str, int]) -> CoinSystem:
    """Rebuild the 6-value system a parametric case label describes."""
    a = params["a"]
    if case_label == "1a":
        return CoinSystem((1, 2, 3, a, a + 1, 2 * a))
    if case_label == "1b":
        b = params["b"]
        return CoinSystem((1, a, 2 * a, b, b + a, 2 * b))
    if case_label == "1c":
        b = params["b"]
        return CoinSystem((1, a, 2 * a - 1, b, b + a - 1, 2 * b - 1))
    if case_label in ("2a", "2b"):
        q = 2 * a - 1
        m = params["m"]
        if case_label == "2a":
            return CoinSystem((1, a, q, m * q - (a - 1), m * q, (2 * m - 1) * q))
        return CoinSystem(
            (1, a, 2 * a, m * q - (a - 1), m * q + 1, (2 * m - 1) * q + 1)
        )
    raise ValueError(f"case {case_label!r} has no generating formula")


def classify6(system: CoinSystem) -> SixValueClass:
    """Classify a 6-value system; the label is not-orderly or names the case.

    Cases are tested in the fixed order 1a, 2a, 2b, 1b, 1c, 3 and the first
    match wins.  The exact-shape cases 2a and 2b come before the one-greedy-
    evaluation cases 1b and 1c because every 2a/2b system also satisfies the
    1c/1b template together with its side condition, while its fourth prefix
    is not orderly; testing the exact shapes first keeps each label's
    pattern claim true.
    """
    values = system.values
    if len(values) != 6:
        raise ValueError("need exactly six coin values")
    label, params = _classify6(values)
    return SixValueClass(case_label=label, params=params)


def _classify6(values: tuple[int, ...]) -> tuple[str, dict[str, int] | None]:
    c1, c2, c3, c4, c5, c6 = values
    a = c2

    # 1a: (1, 2, 3, a, a+1, 2a), a >= 5
    if c2 == 2 and c3 == 3 and c4 >= 5 and c5 == c4 + 1 and c6 == 2 * c4:
        return "1a", {"a": c4}

    q = 2 * a - 1

    # 2a: (1, a, 2a-1, m*q-(a-1), m*q, (2m-1)*q), 1 < m < a
    if c3 == q and c5 % q == 0:
        m = c5 // q
        if 1 < m < a and c4 == m * q - (a - 1) and c6 == (2 * m - 1) * q:
            return "2a", {"a": a, "m": m}

    # 2b: (1, a, 2a, m*q-(a-1), m*q+1, (2m-1)*q+1), 1 < m <= a
    if c3 == 2 * a and (c5 - 1) % q == 0:
        m = (c5 - 1) // q
        if 1 < m <= a and c4 == m * q - (a - 1) and c6 == (2 * m - 1) * q + 1:
            return "2b", {"a": a, "m": m}

    # 1b: (1, a, 2a, b, b+a, 2b), b >= 3a-1, b != 3a, one greedy evaluation
    if c3 == 2 * a:
        b = c4
        if c5 == b + a and c6 == 2 * b and b >= 3 * a - 1 and b != 3 * a:
            m = _ceil_div(b, 2 * a)
            if _greedy_count(values, 2 * m * a) <= m:
                return "1b", {"a": a, "b": b}

    # 1c: (1, a, 2a-1, b, b+a-1, 2b-1), b >= 3a-1, one greedy evaluation
    if c3 == q:
        b = c4
        if c5 == b + a - 1 and c6 == 2 * b - 1 and b >= 3 * a - 1:
            m = _ceil_div(b, q)
            if _greedy_count(values, m * q) <= m:
                return "1c", {"a": a, "b": b}

    # 3: orderly 5-prefix extended by one more coin
    if _orderly5(values[:5]) and _one_point(values)[0]:
        if _orderly4(values[:4]):
            return "3-totally", None
        return "3-plusminusplus", None

    return NOT_ORDERLY, None


# ---------- prefix patterns ----------


def pattern(system: CoinSystem) -> Pattern:
    """Orderliness mark for every prefix, '+' orderly and '-' not, from one
    candidate-test pass over the prefixes."""
    return Pattern("".join("+" if f is None else "-" for f in _failing_candidates(system.values)))

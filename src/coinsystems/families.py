"""Fixed-gap coin systems and the three families with pattern (+++-...-+).

A fixed-gap system alternates two gap widths up to a pivot index and then
repeats their sum.  Three parameter choices produce infinite families whose
prefixes are orderly for the first three lengths, non-orderly for every
middle length, and orderly again at the full length; the prefix check
confirms the middle failures together with their named counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonicality import _min_counterexample
from .characterize import pattern
from .core import CoinSystem, _greedy_count


@dataclass(frozen=True)
class FixedGapSpec:
    """Parameters of a fixed-gap system: length n, pivot ell, start x, and
    the two alternating gaps."""

    n: int
    ell: int
    x: int
    delta1: int
    delta2: int

    def __post_init__(self) -> None:
        if not 3 < self.ell < self.n:
            raise ValueError("need 3 < ell < n")
        if self.x < 2:
            raise ValueError("need x >= 2")
        if self.delta1 < 1 or self.delta2 < 1:
            raise ValueError("gaps must be positive")
        if self.delta1 == self.delta2:
            raise ValueError("gaps must differ")


def gen_fixed_gap(spec: FixedGapSpec) -> CoinSystem:
    """Build the fixed-gap system: c2 = x, then alternating gaps delta1 at
    odd indices and delta2 at even indices up to ell, then delta1+delta2."""
    values = [1, spec.x]
    for i in range(3, spec.n + 1):
        if i <= spec.ell:
            gap = spec.delta1 if i % 2 == 1 else spec.delta2
        else:
            gap = spec.delta1 + spec.delta2
        values.append(values[-1] + gap)
    system = CoinSystem(tuple(values))
    assert len(system) == spec.n
    return system


# ---------- the three families ----------


@dataclass(frozen=True)
class FamilyParams:
    """A family name with its parameters; m is unused for family D."""

    family: str
    r: int
    a: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.family == "D":
            if self.r < 1 or self.a < 2 or self.m is not None:
                raise ValueError("family D needs r >= 1, a >= 2 and no m")
        elif self.family == "E":
            if self.r < 2 or self.m is None or not 1 < self.m < self.a:
                raise ValueError("family E needs r >= 2 and 1 < m < a")
        elif self.family == "F":
            if self.r < 2 or self.m is None or not 1 < self.m <= self.a:
                raise ValueError("family F needs r >= 2 and 1 < m <= a")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def spec(self) -> FixedGapSpec:
        if self.family == "D":
            return FixedGapSpec(
                n=3 * self.r + 2, ell=2 * self.r + 2, x=2, delta1=self.a, delta2=1
            )
        if self.family == "E":
            return FixedGapSpec(
                n=3 * self.r,
                ell=2 * self.r + 1,
                x=self.a,
                delta1=self.a - 1,
                delta2=(self.m - 1) * (2 * self.a - 1) - (self.a - 1),
            )
        return FixedGapSpec(
            n=3 * self.r,
            ell=2 * self.r + 1,
            x=self.a,
            delta1=self.a,
            delta2=(self.m - 1) * (2 * self.a - 1) - self.a,
        )

    def generate(self) -> CoinSystem:
        return gen_fixed_gap(self.spec())


def gen_D(r: int, a: int) -> CoinSystem:
    """Family D: 3r+2 values starting (1, 2), gaps a and 1 alternating."""
    return FamilyParams(family="D", r=r, a=a).generate()


def gen_E(r: int, m: int, a: int) -> CoinSystem:
    """Family E: 3r values starting (1, a), gaps a-1 and (m-1)(2a-1)-(a-1)."""
    return FamilyParams(family="E", r=r, a=a, m=m).generate()


def gen_F(r: int, m: int, a: int) -> CoinSystem:
    """Family F: 3r values starting (1, a), gaps a and (m-1)(2a-1)-a."""
    return FamilyParams(family="F", r=r, a=a, m=m).generate()


def _target_marks(n: int) -> str:
    """The pattern (+++-...-+) of n values."""
    return "+++" + "-" * (n - 4) + "+"


def verify_target_pattern(system: CoinSystem) -> bool:
    """Whether the system's pattern is (+++-...-+): the first three prefixes
    orderly, every middle prefix not, and the full system orderly."""
    if len(system) < 5:
        raise ValueError("need at least five coin values")
    return pattern(system).marks == _target_marks(len(system))


# ---------- prefix counterexamples for fixed-gap systems ----------


@dataclass(frozen=True)
class FixedGapPrefixCheck:
    """One middle prefix: its named witness and what the oracle found."""

    length: int
    witness: int
    witness_is_counterexample: bool
    min_counterexample: int | None

    @property
    def ok(self) -> bool:
        return self.witness_is_counterexample and self.min_counterexample is not None


@dataclass(frozen=True)
class FixedGapPrefixReport:
    system: CoinSystem
    checks: tuple[FixedGapPrefixCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def fixed_gap_prefix_check(spec: FixedGapSpec) -> FixedGapPrefixReport:
    """Confirm the guaranteed non-orderly middle prefixes of a fixed-gap
    system, each against the oracle and against its named witness.

    For odd ell the guarantee covers prefix lengths 5..(3*ell-5)/2; for even
    ell it requires x + delta1 > delta2 + 1 and covers 5..(3*ell-4)/2.  The
    witness is twice the next-to-largest coin of the prefix for lengths up
    to ell, and twice c(ell-1) beyond.  As twice a coin, it is paid
    optimally with at most two coins, and with one only if it is a coin,
    which greedy pays with one too: it fails exactly when greedy pays it
    with more than two.
    """
    if spec.ell % 2 == 0 and spec.x + spec.delta1 <= spec.delta2 + 1:
        raise ValueError("even pivot needs x + delta1 > delta2 + 1")
    system = gen_fixed_gap(spec)
    values = system.values
    top = (3 * spec.ell - 4) // 2  # (3*ell-5)/2 when ell is odd
    checks = []
    for k in range(5, min(spec.n, top) + 1):
        prefix = values[:k]
        w = _min_counterexample(prefix)
        witness = 2 * prefix[-2] if k <= spec.ell else 2 * values[spec.ell - 2]
        checks.append(
            FixedGapPrefixCheck(
                length=k,
                witness=witness,
                witness_is_counterexample=_greedy_count(prefix, witness) > 2,
                min_counterexample=w,
            )
        )
    return FixedGapPrefixReport(system=system, checks=tuple(checks))


# ---------- membership ----------


def family_membership(system: CoinSystem) -> FamilyParams | None:
    """Identify the system as gen_D / gen_E / gen_F output, if it is one.

    Parameters are read off the first values and the last gap, then checked
    by regenerating the system exactly.
    """
    values = system.values
    n = len(values)
    if n >= 5 and n % 3 == 2:
        r = (n - 2) // 3
        a = values[2] - 2
        if values[1] == 2 and a >= 2:
            params = FamilyParams(family="D", r=r, a=a)
            if params.generate().values == values:
                return params
    if n >= 6 and n % 3 == 0:
        r = n // 3
        a = values[1]
        q = 2 * a - 1
        last_gap = values[-1] - values[-2]  # equals (m-1)(2a-1) for E and F
        if a >= 2 and last_gap % q == 0:
            m = last_gap // q + 1
            if 1 < m < a and values[2] == q:
                params = FamilyParams(family="E", r=r, a=a, m=m)
                if params.generate().values == values:
                    return params
            if 1 < m <= a and values[2] == 2 * a:
                params = FamilyParams(family="F", r=r, a=a, m=m)
                if params.generate().values == values:
                    return params
    return None

"""Tests for the fixed-gap generators, prefix checks, and membership."""

from collections import Counter
from itertools import product

import pytest

from coinsystems import families
from coinsystems import (
    CoinSystem,
    FamilyParams,
    FixedGapSpec,
    ResourceLimitError,
    family_membership,
    fixed_gap_prefix_check,
    gen_D,
    gen_E,
    gen_F,
    gen_fixed_gap,
    verify_target_pattern,
)

from coinsystems.core import _opt_table

from bruteforce import ref_greedy_count, ref_pattern


# ---------- fixed-gap construction ----------


def test_fixed_gap_spec_validation():
    with pytest.raises(ValueError):
        FixedGapSpec(n=5, ell=5, x=2, delta1=1, delta2=2)
    with pytest.raises(ValueError):
        FixedGapSpec(n=6, ell=3, x=2, delta1=1, delta2=2)
    with pytest.raises(ValueError):
        FixedGapSpec(n=6, ell=4, x=1, delta1=1, delta2=2)
    with pytest.raises(ValueError):
        FixedGapSpec(n=6, ell=4, x=2, delta1=0, delta2=2)
    with pytest.raises(ValueError):
        FixedGapSpec(n=6, ell=4, x=2, delta1=2, delta2=2)


def test_gen_fixed_gap_known_values():
    """Odd positions take delta1, even take delta2, the tail their sum."""
    spec = FixedGapSpec(n=6, ell=5, x=3, delta1=2, delta2=7)
    assert gen_fixed_gap(spec).values == (1, 3, 5, 12, 14, 23)


# ---------- the three families ----------


def test_gen_D_known_values():
    assert gen_D(1, 2).values == (1, 2, 4, 5, 8)
    assert gen_D(1, 4).values == (1, 2, 6, 7, 12)
    assert gen_D(3, 3).values == (1, 2, 5, 6, 9, 10, 13, 14, 18, 22, 26)


def test_gen_E_known_values():
    assert gen_E(2, 2, 3).values == (1, 3, 5, 8, 10, 15)
    assert gen_E(2, 3, 4).values == (1, 4, 7, 18, 21, 35)
    assert gen_E(4, 3, 4).values == (1, 4, 7, 18, 21, 32, 35, 46, 49, 63, 77, 91)


def test_gen_F_known_values():
    assert gen_F(2, 2, 2).values == (1, 2, 4, 5, 7, 10)
    assert gen_F(2, 3, 4).values == (1, 4, 8, 18, 22, 36)
    assert gen_F(4, 3, 4).values == (1, 4, 8, 18, 22, 32, 36, 46, 50, 64, 78, 92)


def test_family_param_validation():
    with pytest.raises(ValueError):
        gen_D(0, 2)
    with pytest.raises(ValueError):
        gen_D(1, 1)
    with pytest.raises(ValueError):
        FamilyParams(family="D", r=1, a=2, m=2)
    with pytest.raises(ValueError):
        gen_E(1, 2, 3)
    with pytest.raises(ValueError):
        gen_E(2, 3, 3)
    with pytest.raises(ValueError):
        gen_E(2, 1, 3)
    with pytest.raises(ValueError):
        gen_F(2, 4, 3)
    with pytest.raises(ValueError):
        FamilyParams(family="G", r=2, a=3, m=2)


def test_family_shapes():
    """Lengths and the leading values the three families promise."""
    for r in range(1, 5):
        for a in range(2, 7):
            values = gen_D(r, a).values
            assert len(values) == 3 * r + 2
            assert values[1] == 2 and values[2] == 2 + a
    for r in range(2, 5):
        for a in range(3, 7):
            for m in range(2, a):
                values = gen_E(r, m, a).values
                assert len(values) == 3 * r
                assert values[1] == a and values[2] == 2 * a - 1
                assert values[-1] - values[-2] == (m - 1) * (2 * a - 1)
    for r in range(2, 5):
        for a in range(2, 7):
            for m in range(2, a + 1):
                values = gen_F(r, m, a).values
                assert len(values) == 3 * r
                assert values[1] == a and values[2] == 2 * a
                assert values[-1] - values[-2] == (m - 1) * (2 * a - 1)


# ---------- target pattern ----------


def test_verify_target_pattern_known_values():
    assert verify_target_pattern(gen_D(3, 3))
    assert verify_target_pattern(gen_E(2, 3, 4))
    assert verify_target_pattern(gen_F(2, 2, 2))
    assert not verify_target_pattern(CoinSystem((1, 5, 10, 25, 50)))
    assert not verify_target_pattern(CoinSystem((1, 2, 3, 5, 6, 10)))
    with pytest.raises(ValueError):
        verify_target_pattern(CoinSystem((1, 2, 5, 6)))


def test_family_patterns_match_reference():
    """Small members reproduce (+++-...-+) under the naive oracle too."""
    assert ref_pattern(gen_D(1, 3).values) == "+++-+"
    assert ref_pattern(gen_F(2, 2, 2).values) == "+++--+"
    assert ref_pattern(gen_E(2, 2, 3).values) == "+++--+"


# ---------- guaranteed prefix counterexamples ----------


def test_fixed_gap_prefix_check_family_D():
    """Every covered prefix of (1,2,5,...,26) fails at its named witness."""
    report = fixed_gap_prefix_check(FamilyParams(family="D", r=3, a=3).spec())
    assert report.system.values == gen_D(3, 3).values
    assert report.ok
    assert [c.length for c in report.checks] == [5, 6, 7, 8, 9, 10]
    assert [c.witness for c in report.checks] == [12, 18, 20, 26, 26, 26]
    assert [c.min_counterexample for c in report.checks] == [12, 14, 16, 18, 22, 26]
    assert all(c.witness_is_counterexample for c in report.checks)


def test_fixed_gap_prefix_check_family_E():
    report = fixed_gap_prefix_check(FamilyParams(family="E", r=4, a=4, m=3).spec())
    assert report.ok
    assert [c.length for c in report.checks] == [5, 6, 7, 8, 9, 10, 11]


def test_fixed_gap_prefix_check_even_pivot_hypothesis():
    """An even pivot needs the first gap pair to outweigh delta2."""
    with pytest.raises(ValueError):
        fixed_gap_prefix_check(FixedGapSpec(n=7, ell=6, x=2, delta1=1, delta2=5))


def test_fixed_gap_prefix_check_refuses_a_prefix_over_the_cap_before_its_table(monkeypatch):
    """(1,40,41,44,45,49) has the 5-prefix window 88 and witness 88 = 2*44:
    with a cap of 50 the check raises before its witness is evaluated."""
    monkeypatch.setattr("coinsystems.core.DEFAULT_VALUE_CAP", 50)
    greedy_count, amounts = families._greedy_count, []

    def greedy(values, amount):
        amounts.append(amount)
        return greedy_count(values, amount)

    monkeypatch.setattr(families, "_greedy_count", greedy)
    with pytest.raises(ResourceLimitError):
        fixed_gap_prefix_check(FixedGapSpec(n=6, ell=5, x=40, delta1=1, delta2=3))
    assert all(amount <= 50 for amount in amounts)
    # the prefixes of (1,2,5,6,9,10,13,14,18,...) under a cap of 30 are still
    # checked at their witnesses; the 9-prefix's window, 31, is refused
    monkeypatch.setattr("coinsystems.core.DEFAULT_VALUE_CAP", 30)
    amounts.clear()
    with pytest.raises(ResourceLimitError):
        fixed_gap_prefix_check(FamilyParams(family="D", r=3, a=3).spec())
    assert amounts == [12, 18, 20, 26]


def test_fixed_gap_prefix_check_witness_verdict_matches_the_dp_table():
    """A witness is twice a coin, so it fails exactly when greedy pays it
    with more than two coins.  On all 18,648 middle prefixes with n <= 11,
    x <= 7 and gaps <= 7 that rule gives the DP table's verdict; the
    check's verdict is the table's on the 16,464 it takes, all failing, and
    the rule holds on the even-pivot prefixes it refuses too, some of whose
    witnesses greedy pays optimally with one or two coins."""
    seen, paid = Counter(), set()
    for n, x, delta1, delta2 in product(range(5, 12), range(2, 8), range(1, 8), range(1, 8)):
        for ell in range(4, n):
            if delta1 == delta2:
                continue
            spec = FixedGapSpec(n=n, ell=ell, x=x, delta1=delta1, delta2=delta2)
            values = gen_fixed_gap(spec).values
            taken = not (ell % 2 == 0 and x + delta1 <= delta2 + 1)
            checks = fixed_gap_prefix_check(spec).checks if taken else ()
            for k in range(5, min(n, (3 * ell - 4) // 2) + 1):
                prefix = values[:k]
                witness = 2 * values[min(k, ell) - 2]
                greedy = ref_greedy_count(prefix, witness)
                fails = greedy > _opt_table(prefix, witness)[witness]
                assert (greedy > 2) == fails, (prefix, witness)
                if taken:
                    check = checks[k - 5]
                    assert (check.witness, check.witness_is_counterexample) == (witness, fails)
                elif not fails:
                    paid.add(greedy)
                seen[taken] += 1
    assert seen == {True: 16_464, False: 2_184} and paid == {1, 2}


# ---------- membership ----------


def test_family_membership_known_values():
    assert family_membership(gen_D(3, 3)) == FamilyParams(family="D", r=3, a=3)
    assert family_membership(gen_E(2, 3, 4)) == FamilyParams(
        family="E", r=2, a=4, m=3
    )
    assert family_membership(gen_F(2, 2, 2)) == FamilyParams(
        family="F", r=2, a=2, m=2
    )
    assert family_membership(CoinSystem((1, 5, 10, 25))) is None
    assert family_membership(CoinSystem((1, 2, 3, 4, 5, 6, 7, 8))) is None
    assert family_membership(CoinSystem((1, 2, 4, 5, 7, 9, 12, 17))) is None


def test_family_membership_round_trips():
    """Generated members come back with exactly their parameters."""
    for r in range(1, 5):
        for a in range(2, 8):
            params = FamilyParams(family="D", r=r, a=a)
            assert family_membership(params.generate()) == params
    for r in range(2, 5):
        for a in range(3, 8):
            for m in range(2, a):
                params = FamilyParams(family="E", r=r, a=a, m=m)
                assert family_membership(params.generate()) == params
    for r in range(2, 5):
        for a in range(2, 8):
            for m in range(2, a + 1):
                params = FamilyParams(family="F", r=r, a=a, m=m)
                assert family_membership(params.generate()) == params


def test_membership_bridges_to_classification():
    """Six-value family members land in the matching closed-form case."""
    from coinsystems import classify6

    for a in range(3, 7):
        for m in range(2, a):
            cls = classify6(gen_E(2, m, a))
            assert (cls.case_label, cls.params) == ("2a", {"a": a, "m": m})
    for a in range(2, 7):
        for m in range(2, a + 1):
            cls = classify6(gen_F(2, m, a))
            assert (cls.case_label, cls.params) == ("2b", {"a": a, "m": m})

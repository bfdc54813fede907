"""Acceptance sweeps, one test per criterion, exhaustive within their bounds.

These are the heavy end-to-end checks: exact named examples, full
enumerations comparing the fast verdicts against the brute-force oracle,
the closed-form characterizations over large value ranges, the family
generators with their guaranteed prefix counterexamples, and the
pattern-(+++-...-+) scan with family coverage.  The module took 14-21 s on
a shared 2-core machine with CPython 3.11.7, criteria 5 and 7 under 0.3 s
each.  Criteria 3, 4 and 8 take each system's oracle verdict from the
agreement sweep's prefix-tree walk (search._oracle_walk), where each child
resumes its parent's oracle table.
"""

import time
from math import comb

import pytest

from coinsystems import (
    CoinSystem,
    FamilyParams,
    agreement_sweep,
    classify6,
    conjecture_scan,
    fixed_gap_prefix_check,
    gap_filter,
    greedy_count,
    implied_pattern,
    is_totally_orderly,
    jump_filter,
    min_counterexample_oracle,
    one_point_check,
    opt_count,
    orderly3,
    orderly4,
    orderly5,
    pattern,
    pattern_census,
    summarize_findings,
    verify_target_pattern,
)
from coinsystems.canonicality import _support_at
from coinsystems.cli import main
from coinsystems.search import _oracle_walk


def _oracle_systems(n: int, max_cn: int):
    """(values, w) for every system with n values bounded by max_cn, in
    lexicographic order, w being its minimal counterexample or None; the
    oracle walk is checked against the reference in tests/test_search.py."""
    for c2 in range(2, max_cn - n + 3):
        for values, w in _oracle_walk(n, max_cn, c2):
            if len(values) == n:
                yield values, w


@pytest.mark.acceptance
def test_criterion_1_named_examples():
    """The worked examples reproduce exactly, well under a second."""
    t0 = time.perf_counter()
    assert greedy_count(CoinSystem((1, 5, 15, 20)), 30) == 3
    assert opt_count(CoinSystem((1, 5, 15, 20)), 30) == 2
    assert min_counterexample_oracle(CoinSystem((1, 3, 4))) == 6
    assert min_counterexample_oracle(CoinSystem((1, 2, 5, 6))) == 10
    assert is_totally_orderly(CoinSystem((1, 5, 10, 25)))
    assert is_totally_orderly(CoinSystem((1, 2, 5, 10, 20, 50, 100, 200)))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance
def test_criterion_2_verdict_agreement():
    """Candidate test equals the oracle on every system with n <= 6, cn <= 40."""
    expected = {3: comb(39, 2), 4: comb(39, 3), 5: comb(39, 4), 6: comb(39, 5)}
    for n in (3, 4, 5, 6):
        checked, disagreements = agreement_sweep(n, 40)
        assert checked == expected[n]
        assert disagreements == [], (n, disagreements[:5])


@pytest.mark.acceptance
def test_criterion_3_six_value_classification():
    """classify6 is orderly exactly on the oracle-orderly set, with the
    right pattern, over every 6-value system with cn <= 40."""
    orderly_count = checked = 0
    for values, w in _oracle_systems(6, 40):
        system = CoinSystem(values)
        cls = classify6(system)
        assert cls.orderly == (w is None), values
        checked += 1
        if cls.orderly:
            orderly_count += 1
            assert implied_pattern(cls.case_label) == pattern(system).marks, (
                system.values,
                cls.case_label,
            )
    assert orderly_count == 2545
    assert checked == comb(39, 5)


@pytest.mark.acceptance
def test_criterion_4_closed_forms():
    """The 3-, 4- and 5-value characterizations match the oracle for
    c3 <= 200, c4 <= 100 and c5 <= 60 respectively."""
    checked = 0
    for (_, c2, c3), w in _oracle_systems(3, 200):
        assert orderly3(c2, c3) == (w is None), (1, c2, c3)
        checked += 1
    assert checked == comb(199, 2)

    checked = 0
    for values, w in _oracle_systems(4, 100):
        assert orderly4(CoinSystem(values)) == (w is None), values
        checked += 1
    assert checked == comb(99, 3)

    checked = 0
    for values, w in _oracle_systems(5, 60):
        assert orderly5(CoinSystem(values)) == (w is None), values
        checked += 1
    assert checked == comb(59, 4)


@pytest.mark.acceptance
def test_criterion_5_no_plus_minus_plus_minus_plus():
    """No 7-value system with c7 <= 30 has pattern (+++-+-+)."""
    census = pattern_census(7, 30)
    assert sum(census.values()) == comb(29, 6)
    assert census.get("+++-+-+", 0) == 0
    # two frozen entries guarding against silent under-enumeration
    assert census["+++++++"] == 862
    assert census["++-----"] == 237284


def _confirm_target_pattern_by_oracle(system: CoinSystem) -> None:
    """Each prefix verdict of a (+++-...-+) system, straight from the oracle."""
    n = len(system)
    for k in range(3, n + 1):
        prefix_orderly = min_counterexample_oracle(system.prefix(k)) is None
        assert prefix_orderly == (k <= 3 or k == n), (system.values, k)


@pytest.mark.acceptance
def test_criterion_6_family_grids():
    """Every generated family member has exactly the target pattern, and
    the named witnesses fail every covered prefix."""
    grid = [FamilyParams(family="D", r=r, a=a) for r in range(1, 6) for a in range(2, 9)]
    grid += [
        FamilyParams(family="E", r=r, a=a, m=m)
        for r in range(2, 5)
        for a in range(3, 9)
        for m in range(2, a)
    ]
    grid += [
        FamilyParams(family="F", r=r, a=a, m=m)
        for r in range(2, 5)
        for a in range(2, 9)
        for m in range(2, a + 1)
    ]
    assert len(grid) == 35 + 63 + 84
    for params in grid:
        system = params.generate()
        assert verify_target_pattern(system), params
        _confirm_target_pattern_by_oracle(system)
        report = fixed_gap_prefix_check(params.spec())
        assert report.ok, params
        # the covered range 5..(3*ell-4)/2 is empty only for D with r = 1
        assert report.checks or params == FamilyParams(family="D", r=1, a=params.a)


@pytest.mark.acceptance
def test_criterion_7_conjecture_family_coverage():
    """Scan n in {5,6,7,8} with cn <= 40: the n=7 list is empty, a violation
    drives the exit status nonzero, and every finding should belong to one
    of the three families."""
    findings = conjecture_scan([5, 6, 7, 8], 40)
    by_length: dict[int, list] = {}
    for finding in findings:
        by_length.setdefault(len(finding.system), []).append(finding)

    assert by_length.get(7, []) == []

    summary = summarize_findings(findings)
    assert summary.forbidden_length == ()
    if not summary.ok:
        # the CLI surfaces violations through its exit status
        assert main(["conjecture", "--n", "8", "--max", "18"]) == 1

    outsiders = [f.system.values for f in summary.without_membership]
    assert outsiders == [], (
        f"findings with pattern (+++-...-+) outside the three families: {outsiders}"
    )


@pytest.mark.acceptance
def test_criterion_8_structural_suites():
    """Structural invariants hold on every system with n <= 5, cn <= 40:
    the minimal-counterexample window, support disjointness, two-coin
    subsystem orderliness, filter soundness, and one-point agreement."""
    orderly_cache: dict[tuple[int, ...], bool] = {}
    checked = 0
    for n in (3, 4, 5):
        for values, w in _oracle_systems(n, 40):
            system = CoinSystem(values)
            orderly_cache[values] = w is None
            checked += 1

            if w is None:
                # every two-coin subsystem (1, c2, ck) of an orderly system
                for k in range(2, n):
                    assert orderly3(values[1], values[k]), (values, k)
            else:
                assert values[2] < w < values[-2] + values[-1], (values, w)
                assert _support_at(system, w).status == "holds", (values, w)

            if not gap_filter(system) or not jump_filter(system):
                assert w is not None, values

            prefix = values[:-1]
            if len(prefix) == 2 or orderly_cache[prefix]:
                verdict = one_point_check(CoinSystem(prefix), values[-1])
                assert verdict.orderly == (w is None), values
    assert checked == comb(39, 2) + comb(39, 3) + comb(39, 4)

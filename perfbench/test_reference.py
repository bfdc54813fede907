"""The benchmark's reference against the test suite's brute-force module.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_reference.py

Exhaustive over small systems, so both sides stay cheap.
"""

import os
import sys
from itertools import combinations
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

import bruteforce as bf  # noqa: E402
import reference as ref  # noqa: E402


def small_systems(max_n=5, max_cn=14):
    for n in range(1, max_n + 1):
        for combo in combinations(range(2, max_cn + 1), n - 1):
            yield (1,) + combo


def test_greedy_counts():
    for values in small_systems(max_n=4, max_cn=12):
        for v in range(2 * values[-1] + 1):
            assert ref.greedy_counts(values, v) == bf.ref_greedy_counts(values, v)
            assert ref.greedy_count(values, v) == bf.ref_greedy_count(values, v)


def test_min_counterexample_and_pattern():
    for values in small_systems():
        assert ref.min_counterexample(values) == bf.ref_min_counterexample(values), values
        assert ref.pattern(values) == bf.ref_pattern(values), values


def test_lex_smallest_optimal():
    for values in small_systems(max_n=4, max_cn=10):
        for v in range(2 * values[-1]):
            assert ref.lex_smallest_optimal(values, v) == bf.ref_lex_smallest_optimal(values, v)


def test_family_members_have_the_target_pattern():
    members = ref.family_members(range(5, 9), 24)
    assert {len(values) for values in members} == {5, 6, 8}
    for values, (family, r, a, m) in members.items():
        assert ref.family_system(family, r, a, m) == values
        assert bf.ref_pattern(values) == ref.target_pattern(len(values)), (family, r, a, m)


def test_six_value_templates_have_their_patterns():
    cases = [("1a", {"a": a}) for a in range(5, 12)]
    cases += [("2a", {"a": a, "m": m}) for a in range(3, 6) for m in range(2, a)]
    cases += [("2b", {"a": a, "m": m}) for a in range(2, 5) for m in range(2, a + 1)]
    for label, params in cases:
        values = ref.six_value_template(label, **params)
        assert bf.ref_pattern(values) == ref.SIX_VALUE_PATTERNS[label], (label, params)


def test_enumerations_match_a_plain_filter():
    counts = ref.census(6, 13)
    assert sum(counts.values()) == comb(12, 5)
    expected = {}
    for combo in combinations(range(2, 14), 5):
        marks = bf.ref_pattern((1,) + combo)
        expected[marks] = expected.get(marks, 0) + 1
    assert counts == expected
    for n in (5, 6):
        plain = [
            (1,) + combo
            for combo in combinations(range(2, 15), n - 1)
            if bf.ref_pattern((1,) + combo) == ref.target_pattern(n)
        ]
        assert ref.target_systems(n, 14) == plain

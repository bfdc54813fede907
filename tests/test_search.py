"""Tests for the pattern census, the conjecture scan, and the agreement sweep."""

import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from coinsystems import (
    CoinSystem,
    ConjectureFinding,
    FamilyParams,
    InternalDisagreementError,
    ResourceLimitError,
    agreement_sweep,
    conjecture_scan,
    pattern_census,
    summarize_findings,
)

from coinsystems import search
from coinsystems.canonicality import _candidate_step, _candidate_verdict, _pair_counterexample
from coinsystems.cli import main
from coinsystems.families import _target_marks

from bruteforce import ref_greedy_count, ref_is_orderly, ref_min_counterexample, ref_opt_count
from bruteforce import ref_pattern


# ---------- pattern census ----------


def pair_lemma(values, j):
    """The two-coin-sum lemma on values in column j: coins up to values[j]
    as a bitmask, the sums x + values[j] above the top coin."""
    return _pair_counterexample(sum(1 << x for x in values[: j + 1]), values[j], values[-1])


def ref_pair_amount(values, y):
    """The lemma's amount by brute force: the smallest sum x + y over coins
    x <= y of values, above the top coin, that greedy overpays."""
    sums = sorted(x + y for x in values if x <= y and x + y > values[-1])
    return next((s for s in sums if ref_greedy_count(values, s) > ref_opt_count(values, s)), None)


def census_walks(values):
    """Whether the census computes a verdict for the prefix values: none of
    its coins exceeds the minimal counterexample of the prefix below it."""
    for k in range(3, len(values) + 1):
        w = search._min_counterexample(values[: k - 1])
        if w is not None and values[k - 1] > w:
            return False
    return True


@lru_cache(maxsize=None)
def census_leaf_verdicts(n, max_cn):
    """The leaves the census computes a verdict for, by the brute-force
    lemma and oracle.  Under a walked orderly (n-1)-prefix v with top coin
    p, these are all the leaves up to max_cn.  Under a non-orderly one they
    are the leaves 2p - x for a coin x, in ascending order: up to
    min(w, max_cn) if the lemma passes v, and if it rejects v with amount a,
    up to min(a, max_cn) until the first that the lemma passes, at which v
    is scanned, and from there up to min(w, max_cn)."""
    leaves = []
    for combo in combinations(range(2, max_cn), n - 2):
        v = (1,) + combo
        if not census_walks(v):
            continue
        p, w, a = v[-1], ref_min_counterexample(v), ref_pair_amount(v, v[-2])
        if w is None:
            leaves += [v + (c,) for c in range(p + 1, max_cn + 1)]
            continue
        hi, scanned = min(w if a is None else a, max_cn), a is None
        for c in sorted(2 * p - x for x in v[:-1]):
            if c <= hi and not scanned and ref_pair_amount(v + (c,), p) is None:
                hi, scanned = min(w, max_cn), True
            if c > hi:
                break
            leaves.append(v + (c,))
    return tuple(leaves)


def test_lemma_masks_match_the_lemma_exhaustively():
    """The lemma's mask S, carried by _lemma_masks from (1,) down every prefix
    of every system with n <= 7 and cn <= 22, has bit s for s in 1..22
    exactly when _pair_counterexample passes p + s over the top coin p."""
    max_cn = 22
    stack = [((1,), 2, -2, 1 << max_cn - 1)]
    nodes = 0
    while stack:
        values, bits, S, R = stack.pop()
        p = values[-1]
        shifts = range(1, max_cn + 1)
        passed = sum(1 << s for s in shifts if _pair_counterexample(bits, p, p + s) is None)
        assert S & (2 << max_cn) - 2 == passed, values
        nodes += 1
        if len(values) < 7:
            for c in range(p + 1, max_cn + 1):
                stack.append((values + (c,), bits | 1 << c, *search._lemma_masks(S, R, max_cn, c)))
    assert nodes == sum(comb(21, k) for k in range(7))


def test_orderly_leaves_match_the_reference_exhaustively(monkeypatch):
    """_orderly_leaves on every node of 3 to 6 values with cn <= 20 that
    the census walks, against brute force: scanned, with its own table, and,
    where the lemma rejects it with amount a, unscanned, with a and its
    parent's table.  Its leaves are the orderly ones in [lo, cap], and an
    unscanned node is scanned exactly when a survivor 2p - x in
    [lo, min(a, cap)] passes the lemma."""
    max_cn = 20
    scan_from = search._scan_from
    scanned = []

    def scan(values, grd):
        scanned.append(values)
        return scan_from(values, grd)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    nodes, rejected, deferred = 0, 0, 0
    for k in range(3, 7):
        for combo in combinations(range(2, max_cn), k - 1):
            v = (1,) + combo
            if not census_walks(v):
                continue
            nodes += 1
            p, bits, a = v[-1], sum(1 << x for x in v), pair_lemma(v, k - 2)
            orderly = [c for c in range(p + 1, max_cn + 1) if ref_is_orderly(v + (c,))]
            for lo, cap in (p + 1, max_cn), ((p + max_cn) // 2 + 1, max_cn - 2):
                expected = [v + (c,) for c in orderly if lo <= c <= cap]
                grd = [0]
                w = scan_from(v, grd)
                assert search._orderly_leaves(v, bits, w, grd, True, lo, cap, False) == expected
                if a is None:
                    continue
                parent_grd = [0]
                if k > 3:
                    scan_from(v[:-1], parent_grd)
                rejected += 1
                scanned.clear()
                leaves = search._orderly_leaves(v, bits, a, parent_grd, False, lo, cap, False)
                assert leaves == expected, (v, lo, cap)
                survivors = [2 * p - x for x in v[:-1] if lo <= 2 * p - x <= min(a, cap)]
                passed = any(ref_pair_amount(v + (c,), p) is None for c in survivors)
                assert (v in scanned) == passed, (v, lo, cap)
                deferred += passed
    assert (nodes, rejected, deferred) == (6_639, 12_136, 77)


def test_pattern_census_validation():
    with pytest.raises(ValueError):
        pattern_census(2, 10)
    with pytest.raises(ValueError):
        pattern_census(5, 4)


def test_jobs_never_exceed_partitions_or_cores(monkeypatch):
    """However many jobs are asked for, the pool gets at most one worker per
    c2 partition and per core; the fake pool maps serially, so no process
    starts."""
    requested = []

    class SerialPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, args):
            return [worker(a) for a in args]

    monkeypatch.setattr(search, "multiprocessing", SimpleNamespace(Pool=SerialPool))
    serial = pattern_census(3, 6)
    for cores, expected in [(64, 4), (2, 2)]:
        monkeypatch.setattr(search, "os", SimpleNamespace(cpu_count=lambda c=cores: c))
        assert pattern_census(3, 6, jobs=10_000) == serial
        assert requested.pop() == expected
    assert requested == []


def test_pattern_census_known_values():
    assert pattern_census(3, 4) == {"+++": 2, "++-": 1}
    census = pattern_census(4, 10)
    assert census == {"++++": 21, "+++-": 28, "++--": 35}
    assert sum(census.values()) == comb(9, 3)


def test_pattern_census_matches_reference():
    """Six values reach oracle scans resumed three levels below a full one."""
    for n, max_cn in [(3, 12), (6, 14)]:
        expected = {}
        for combo in combinations(range(2, max_cn + 1), n - 1):
            marks = ref_pattern((1,) + combo)
            expected[marks] = expected.get(marks, 0) + 1
        assert pattern_census(n, max_cn) == expected


def test_pattern_census_is_deterministic_across_jobs():
    assert pattern_census(4, 12, jobs=1) == pattern_census(4, 12, jobs=2)


def test_pattern_census_full_sampling():
    """sample_rate=1.0 re-verifies every system and changes nothing."""
    assert pattern_census(4, 10, sample_rate=1.0) == pattern_census(4, 10)
    with pytest.raises(ValueError):
        pattern_census(4, 10, sample_rate=1.5)


@pytest.mark.parametrize("planted", [None, 5])
def test_pattern_census_spot_checks_catch_a_planted_wrong_verdict(capsys, monkeypatch, planted):
    """A scan that calls the non-orderly (1, 3, 4), whose w is 6, orderly, or
    that gives it the amount 5, which greedy pays optimally as 4 + 1, is
    caught at sample rate 1: the census raises and enumerate exits 3.  At
    sample rate 0 nothing checks it."""
    scan_from = search._scan_from

    def scan(values, grd):
        w = scan_from(values, grd)
        return planted if values == (1, 3, 4) else w

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    pattern_census(5, 12, sample_rate=0.0)
    with pytest.raises(InternalDisagreementError):
        pattern_census(5, 12, sample_rate=1.0)
    assert main(["enumerate", "--n", "5", "--max", "12", "--sample", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "internal disagreement" in captured.err
    assert ("witness 5" in captured.err) == (planted == 5)


def test_spot_check_certifies_exactly_the_failing_amounts_exhaustively():
    """_spot_check on every system of 3 to 5 values with cn <= 16, against
    brute force.  It accepts every amount a sweep computes (the minimal
    counterexample, the two-coin-sum lemma's amount, and the one-point
    amount under an orderly prefix), refuses every amount of the window
    below c(n-1) + cn that greedy pays optimally, and refuses the verdict
    orderly exactly for the systems that are not orderly."""
    swept = refused = 0
    for n in range(3, 6):
        for combo in combinations(range(2, 17), n - 1):
            v = (1,) + combo
            w = ref_min_counterexample(v)
            amounts = {w, pair_lemma(v, n - 2)}
            if ref_is_orderly(v[:-1]):
                amounts.add(search._extend_verdict(v))
            amounts.discard(None)
            for a in range(1, v[-2] + v[-1]):
                if a in amounts:
                    assert ref_greedy_count(v, a) > ref_opt_count(v, a), (v, a)
                    search._spot_check(v, a)
                    swept += 1
                elif ref_greedy_count(v, a) == ref_opt_count(v, a):
                    with pytest.raises(InternalDisagreementError, match=f"witness {a} "):
                        search._spot_check(v, a)
                    refused += 1
            if w is None:
                search._spot_check(v, None)
            else:
                with pytest.raises(InternalDisagreementError, match="orderly disagrees"):
                    search._spot_check(v, None)
    assert swept and refused


def test_pattern_census_runs_the_oracle_only_on_orderly_verdicts(monkeypatch):
    """At sample rate 1 the census spot-checks every verdict it computes, and
    it runs the oracle once for each orderly one and for no other: a failing
    amount is certified by greedy counts alone."""
    spot_check, min_counterexample = search._spot_check, search._min_counterexample
    spotted, oracle = [], []

    def spot(values, w):
        spotted.append((values, w))
        return spot_check(values, w)

    def scan(values):
        oracle.append(values)
        return min_counterexample(values)

    monkeypatch.setattr("coinsystems.search._spot_check", spot)
    monkeypatch.setattr("coinsystems.search._min_counterexample", scan)
    pattern_census(6, 16, sample_rate=1.0)
    orderly = [values for values, w in spotted if w is None]
    assert orderly and len(orderly) < len(spotted)
    assert oracle == orderly


def test_pattern_census_leaves_take_the_lemma_amount(monkeypatch):
    """Under a non-orderly parent, every leaf the census computes a verdict
    for is marked by the two-coin-sum lemma's amount when there is one, with
    no scan, and by its resumed scan otherwise; at sample rate 1 every such
    amount is spot-checked as a counterexample."""
    n, max_cn = 6, 16
    scan_from, spot_check = search._scan_from, search._spot_check
    scanned, spotted = [], {}

    def scan(values, grd):
        scanned.append(values)
        return scan_from(values, grd)

    def spot(values, w):
        spotted[values] = w
        return spot_check(values, w)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    monkeypatch.setattr("coinsystems.search._spot_check", spot)
    assert pattern_census(n, max_cn, sample_rate=1.0) == pattern_census(n, max_cn, sample_rate=0.0)
    leaves = [v for v in scanned if len(v) == n]
    assert leaves
    assert all(pair_lemma(v, n - 2) is None for v in leaves)

    by_lemma = 0
    for values in census_leaf_verdicts(n, max_cn):
        if ref_min_counterexample(values[:-1]) is None:
            continue
        amount = pair_lemma(values, n - 2)
        by_lemma += amount is not None
        expected = ref_min_counterexample(values) if amount is None else amount
        assert spotted[values] == expected, values
    assert by_lemma


@pytest.mark.parametrize("n, max_cn", [(7, 18), (8, 17)])
def test_pattern_census_matches_a_flat_oracle_loop(n, max_cn):
    """The walk, with the leaves under a coin above w counted rather than
    visited (over half of them at these bounds), gives every system its
    oracle marks; at sample rate 1 every verdict it computes, each survivor
    leaf of an unscanned node among them, is checked against the oracle."""
    expected = Counter(
        search._oracle_marks((1,) + combo)
        for combo in combinations(range(2, max_cn + 1), n - 1)
    )
    assert pattern_census(n, max_cn, sample_rate=0.0) == dict(expected)
    assert pattern_census(n, max_cn, sample_rate=1.0) == dict(expected)


def census_interior(n, max_cn):
    """The prefixes of length 3 to n - 1 that the census walks: none of
    their coins exceeds the minimal counterexample of the prefix below it."""
    return [
        (1,) + combo
        for k in range(3, n)
        for combo in combinations(range(2, max_cn - (n - k) + 1), k - 1)
        if census_walks((1,) + combo)
    ]


def census_deferred(n, max_cn):
    """The walked (n-1)-prefixes that the lemma rejects with amount a and
    _orderly_leaves scans: a survivor 2p - x in (p, min(a, max_cn)] passes
    the lemma.  Each maps to (a, w)."""
    deferred = {}
    for v in census_interior(n, max_cn):
        a, p = pair_lemma(v, n - 3) if len(v) == n - 1 else None, v[-1]
        if a is None:
            continue
        survivors = [2 * p - x for x in v[:-1] if p < 2 * p - x <= min(a, max_cn)]
        if any(ref_pair_amount(v + (c,), p) is None for c in survivors):
            deferred[v] = (a, ref_min_counterexample(v))
    return deferred


def test_pattern_census_spot_checks_exactly_the_walked_children(monkeypatch):
    """At sample rate 1 every child the walk computes a verdict for is
    spot-checked once, and each deferred node twice: on the lemma's amount,
    then on the w of its late scan.  Those children are the prefixes that
    census_interior lists and the leaves that census_leaf_verdicts derives:
    a leaf under a non-orderly node is checked only if it is a survivor that
    the walk tries.  At (5, 16), 8 leaves up to w of scanned non-orderly
    nodes, such as (1, 2, 6, 13, 14), are no survivors and get no verdict."""
    spot_check = search._spot_check
    spotted = []

    def spot(values, w):
        spotted.append((values, w))
        return spot_check(values, w)

    monkeypatch.setattr("coinsystems.search._spot_check", spot)
    for n, max_cn, walked, checked in [(6, 16, 983, 1_864), (5, 16, 384, 870)]:
        spotted.clear()
        pattern_census(n, max_cn, sample_rate=1.0)
        interior = census_interior(n, max_cn)
        expected = interior + list(census_leaf_verdicts(n, max_cn))
        assert len(interior) == walked
        assert len(spotted) == checked
        values = [v for v, _ in spotted]
        assert sorted(set(values)) == sorted(expected)
        deferred = census_deferred(n, max_cn)
        assert deferred
        assert Counter(values) - Counter(expected) == Counter(list(deferred))
        for v, amounts in deferred.items():
            assert tuple(w for u, w in spotted if u == v) == amounts


def assert_one_sample(spots, scans, walked, mod):
    """The sample rule both sweeps share, at modulus mod: the spots of at
    most four coins are exactly the walked prefixes of at most four coins
    whose fingerprint is a multiple of mod, every longer spot lies under
    such a 4-prefix, and every system scanned under one is spot-checked."""
    hits = {v for v in walked if len(v) <= 4 and search._fingerprint(v) % mod == 0}
    assert hits
    assert {v for v in spots if len(v) <= 4} == hits
    heads = {v for v in hits if len(v) == 4}
    below = {v for v in spots if len(v) > 4}
    assert below and all(v[:4] in heads for v in below)
    assert {v for v in scans if len(v) > 4 and v[:4] in heads} <= below


@pytest.mark.parametrize(
    "lengths, max_cn, sample_rate",
    [(7, 20, 0.05), (6, 16, 0.05), (5, 16, 0.1), ([5, 6, 7, 8], 24, 0.05)],
)
def test_both_sweeps_sample_by_one_rule(monkeypatch, lengths, max_cn, sample_rate):
    """At a rate strictly between 0 and 1 the census (one length) and the
    scan (a list) sample by one rule: walked 3- and 4-prefixes by their own
    fingerprints, and below a sampled 4-prefix every verdict, the w of a
    deferred node included.  The scan walks every 3-prefix and the
    4-prefixes below an orderly 3-prefix, each leaving room for five values."""
    scan_from, spot_check = search._scan_from, search._spot_check
    spots, scans = [], []

    def scan(values, grd):
        scans.append(values)
        return scan_from(values, grd)

    def spot(values, w):
        spots.append(values)
        return spot_check(values, w)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    monkeypatch.setattr("coinsystems.search._spot_check", spot)
    if isinstance(lengths, int):
        pattern_census(lengths, max_cn, sample_rate=sample_rate)
        walked = census_interior(lengths, max_cn)
    else:
        conjecture_scan(lengths, max_cn, sample_rate=sample_rate)
        walked = [(1,) + combo for combo in combinations(range(2, max_cn - 1), 2)] + [
            (1,) + combo
            for combo in combinations(range(2, max_cn), 3)
            if ref_is_orderly((1,) + combo[:2])
        ]
    assert_one_sample(spots, scans, walked, search._sample_modulus(sample_rate))


def test_pattern_census_spot_checks_the_w_of_a_deferred_node(capsys, monkeypatch):
    """A scan that gives the deferred (1, 2, 4, 8, 10), whose lemma amount
    and w are both 16, the amount 11, which greedy pays optimally as 10 + 1,
    is caught at sample rate 1: the node's late scan in _orderly_leaves is
    spot-checked, so the census raises and enumerate exits 3 naming the
    witness.  At sample rate 0 nothing checks it."""
    scan_from = search._scan_from

    def scan(values, grd):
        w = scan_from(values, grd)
        return 11 if values == (1, 2, 4, 8, 10) else w

    assert census_deferred(6, 16)[(1, 2, 4, 8, 10)] == (16, 16)
    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    pattern_census(6, 16, sample_rate=0.0)
    with pytest.raises(InternalDisagreementError, match="witness 11 "):
        pattern_census(6, 16, sample_rate=1.0)
    assert main(["enumerate", "--n", "6", "--max", "16", "--sample", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "witness 11 " in captured.err
    assert main(["enumerate", "--n", "6", "--max", "16", "--sample", "0"]) == 0


def count_sweep_work(monkeypatch):
    """Count the sweeps' oracle scans, two-coin-sum lemma amounts,
    _orderly_leaves calls and spot-checks."""
    calls = Counter()
    for name, key in [
        ("_scan_from", "scan"),
        ("_pair_counterexample", "lemma"),
        ("_orderly_leaves", "settle"),
        ("_spot_check", "spot"),
    ]:

        def counted(*args, _kernel=getattr(search, name), _key=key):
            calls[_key] += 1
            return _kernel(*args)

        monkeypatch.setattr(f"coinsystems.search.{name}", counted)
    return calls


def test_pattern_census_work_at_the_benchmark_bound(monkeypatch):
    """Work counters for the census benchmark's walk, n = 7 with c7 <= 30, at
    the default 1% sample: the oracle scans, the lemma amounts, the nodes
    whose leaves _orderly_leaves settles and the spot-checks.  A walk that
    visited all 475,020 leaves, with a one-point test and a rescan from 1
    under an orderly parent, ran 42,137 scans and 96,668 lemma calls; one
    that scanned every walked 6-prefix and tried the lemma on each leaf up to
    w ran 44,989 scans and 102,344 lemma calls; one that tried every leaf up
    to w of a scanned non-orderly 6-prefix, not only its survivors, ran
    13,506 scans and 73,312 lemma calls."""
    calls = count_sweep_work(monkeypatch)
    assert sum(pattern_census(7, 30).values()) == comb(29, 6)
    assert calls == {"scan": 13_506, "lemma": 73_121, "settle": 22_797, "spot": 516}


@pytest.mark.parametrize("n, max_cn, above_w", [(7, 18, 4), (6, 16, 0), (6, 20, 0)])
def test_pattern_census_scans_an_all_leaf_node_only_for_a_survivor_the_lemma_passes(
    monkeypatch, n, max_cn, above_w
):
    """A walked (n-1)-prefix that the lemma rejects is scanned exactly when
    one of its survivor leaves 2p - x up to min(a, max_cn) passes the lemma,
    and the first such leaf is then scanned only if it lies at or below the
    node's w.  At (7, 18), (1,2,3,6,7,8) has a = 13 and w = 12: its survivor
    13 = 2*8 - 3 sets off its scan and is then dropped, at one of 4 such
    nodes."""
    scan_from = search._scan_from
    scanned = set()

    def scan(values, grd):
        scanned.add(values)
        return scan_from(values, grd)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    pattern_census(n, max_cn, sample_rate=0.0)

    deferred, dropped = set(), []
    for combo in combinations(range(2, max_cn), n - 2):
        v = (1,) + combo
        a = ref_pair_amount(v, v[-2])
        if a is None or not census_walks(v):
            continue
        p, w = v[-1], ref_min_counterexample(v)
        survivors = sorted(2 * p - x for x in v[:-1] if 2 * p - x <= min(a, max_cn))
        first = next((c for c in survivors if ref_pair_amount(v + (c,), p) is None), None)
        if first is not None:
            deferred.add(v)
            assert (v + (first,) in scanned) == (first <= w), v
            if first > w:
                dropped.append((v, first, a, w))
    assert {v for v in scanned if len(v) == n - 1 and pair_lemma(v, n - 3) is not None} == deferred
    assert deferred
    assert len(dropped) == above_w
    if n == 7:
        assert ((1, 2, 3, 6, 7, 8), 13, 13, 12) in dropped


def test_pattern_census_is_identical_across_jobs_and_sampling():
    """Neither the worker processes nor a spot-check of every verdict
    changes the counts."""
    assert pattern_census(7, 20, jobs=2, sample_rate=1.0) == pattern_census(
        7, 20, sample_rate=0.0
    )


# ---------- agreement sweep ----------


def test_agreement_sweep_small():
    checked, disagreements = agreement_sweep(4, 20)
    assert checked == comb(19, 3)
    assert disagreements == []
    with pytest.raises(ValueError):
        agreement_sweep(2, 20)
    with pytest.raises(ValueError):
        agreement_sweep(5, 4)


@pytest.mark.parametrize("n, max_cn", [(3, 16), (4, 14), (5, 14), (6, 14)])
def test_agreement_sweep_matches_flat_loop(monkeypatch, n, max_cn):
    """The tree walk gives every system the reference oracle's verdict."""
    orderly = {
        (1,) + combo: ref_is_orderly((1,) + combo)
        for combo in combinations(range(2, max_cn + 1), n - 1)
    }
    systems = list(orderly)
    expected = [v for v in systems if _candidate_verdict(v) != orderly[v]]
    assert agreement_sweep(n, max_cn) == (len(systems), expected)
    # a candidate test that calls everything orderly disagrees exactly on the
    # systems the reference rejects
    monkeypatch.setattr(
        "coinsystems.search._candidate_step", lambda values, f, pending: (None, pending)
    )
    rejected = [v for v in systems if not orderly[v]]
    assert rejected
    assert agreement_sweep(n, max_cn) == (len(systems), rejected)


def test_agreement_sweep_reports_planted_disagreements(monkeypatch):
    """(1,3,4) fails at 6: its child under 7 inherits that failure without a
    scan, its child under 5 resumes the scan.  A candidate step that reports
    a bogus failure on both must surface exactly both, in lexicographic
    order."""
    assert ref_min_counterexample((1, 3, 4)) == 6
    planted = {(1, 3, 4, 7), (1, 3, 4, 5)}
    monkeypatch.setattr(
        "coinsystems.search._candidate_step",
        lambda values, f, pending: (
            (-1, pending) if values in planted else _candidate_step(values, f, pending)
        ),
    )
    assert agreement_sweep(4, 10) == (comb(9, 3), [(1, 3, 4, 5), (1, 3, 4, 7)])


def test_agreement_sweep_carries_the_minimal_counterexample(monkeypatch):
    """At every node of the walk, resumed or inherited, the candidate state
    carries that node's minimal counterexample."""
    carried = {}

    def step(values, f, pending):
        out = _candidate_step(values, f, pending)
        carried[values] = out[0]
        return out

    monkeypatch.setattr("coinsystems.search._candidate_step", step)
    max_cn = 16
    for n in range(3, 7):
        assert agreement_sweep(n, max_cn) == (comb(max_cn - 1, n - 1), [])
    assert len(carried) == sum(comb(max_cn - 1, k - 1) for k in range(3, 7))
    assert all(f == ref_min_counterexample(values) for values, f in carried.items())


def test_agreement_sweep_is_deterministic_across_jobs():
    assert agreement_sweep(5, 20, jobs=1) == agreement_sweep(5, 20, jobs=2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_oracle_walk_matches_a_flat_reference_loop(n):
    """Chained over c2, the walk yields every prefix of length 3..n of the
    systems with n values and cn <= 20, in lexicographic order, each with
    the reference's minimal counterexample."""
    max_cn = 20
    walked = [
        node
        for c2 in range(2, max_cn - n + 3)
        for node in search._oracle_walk(n, max_cn, c2)
    ]
    prefixes = sorted(
        {
            (1,) + combo[: k - 1]
            for combo in combinations(range(2, max_cn + 1), n - 1)
            for k in range(3, n + 1)
        }
    )
    assert walked == [(v, ref_min_counterexample(v)) for v in prefixes]
    assert len(walked) == {3: 171, 4: 1122, 5: 4828, 6: 15488}[n]


# ---------- conjecture scan ----------


def test_conjecture_scan_five_values():
    """Within c5 <= 20 the target pattern appears exactly on (1,2,a+2,a+3,2a+4)."""
    findings = conjecture_scan([5], 20)
    assert [f.system.values for f in findings] == [
        (1, 2, 4, 5, 8),
        (1, 2, 5, 6, 10),
        (1, 2, 6, 7, 12),
        (1, 2, 7, 8, 14),
        (1, 2, 8, 9, 16),
        (1, 2, 9, 10, 18),
        (1, 2, 10, 11, 20),
    ]
    for a, finding in enumerate(findings, start=2):
        assert ref_pattern(finding.system.values) == "+++-+"
        assert finding.membership == FamilyParams(family="D", r=1, a=a)


def test_conjecture_scan_matches_reference():
    expected = [
        (1,) + combo
        for n in (5, 6, 7)
        for combo in combinations(range(2, 17), n - 1)
        if ref_pattern((1,) + combo) == "+++" + "-" * (n - 4) + "+"
    ]
    assert [f.system.values for f in conjecture_scan([5, 6, 7], 16)] == expected


def test_conjecture_scan_bounds():
    with pytest.raises(ValueError):
        conjecture_scan([4], 20)
    assert conjecture_scan([9], 8) == []


def test_conjecture_scan_is_deterministic_across_jobs():
    one = conjecture_scan([6], 25, jobs=1)
    two = conjecture_scan([6], 25, jobs=2)
    assert one == two
    assert len(one) == 5
    assert all(f.membership is not None for f in one)


def test_conjecture_scan_eight_values_finds_an_outsider():
    """Within c8 <= 18 one finding sits outside the known families."""
    findings = conjecture_scan([8], 18)
    assert [f.system.values for f in findings] == [
        (1, 2, 4, 5, 7, 8, 11, 14),
        (1, 2, 4, 5, 7, 9, 12, 17),
        (1, 2, 5, 6, 9, 10, 14, 18),
    ]
    memberships = [f.membership for f in findings]
    assert memberships[0] == FamilyParams(family="D", r=2, a=2)
    assert memberships[1] is None
    assert memberships[2] == FamilyParams(family="D", r=2, a=3)

    summary = summarize_findings(findings)
    assert summary.total == 3
    assert [f.system.values for f in summary.without_membership] == [
        (1, 2, 4, 5, 7, 9, 12, 17)
    ]
    assert summary.forbidden_length == ()
    assert not summary.ok


def test_conjecture_scan_fails_fast_on_a_bad_length(monkeypatch):
    """A bad length is rejected before any partition is walked."""

    def no_scan(values, grd):
        raise AssertionError(f"scanned {values} before the lengths were checked")

    monkeypatch.setattr("coinsystems.search._scan_from", no_scan)
    with pytest.raises(ValueError):
        conjecture_scan([5, 4], 20)


@pytest.mark.parametrize("lengths", [[8, 5, 6], [5, 5, 6], [6, 21, 5]])
def test_conjecture_scan_lengths_share_one_walk(lengths):
    """Several lengths in one walk give each length's own scan, in the order
    the lengths were given, repeats included."""
    expected = [f for n in lengths for f in conjecture_scan([n], 20)]
    assert len(expected) > 7
    assert conjecture_scan(lengths, 20) == expected


def test_conjecture_scan_visits_each_prefix_once(monkeypatch):
    """The lengths 5..8 share one walk: every oracle scan and every sampled
    spot-check runs exactly once, and the walk scans what the four
    single-length walks scan.  The sample is each 3- and 4-prefix whose hash
    hits the modulus and, below them, every verdict under a sampled
    4-prefix, which the shared and single-length walks compute differently:
    there each walk spot-checks every system it scans, and nothing else."""
    lengths, max_cn, sample_rate = [5, 6, 7, 8], 24, 0.05
    scan_from, spot_check = search._scan_from, search._spot_check
    scans, spots = [], []

    def scan(values, grd):
        scans.append((values, len(grd)))
        return scan_from(values, grd)

    def spot(values, w):
        spots.append(values)
        return spot_check(values, w)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    monkeypatch.setattr("coinsystems.search._spot_check", spot)
    conjecture_scan(lengths, max_cn, sample_rate=sample_rate)
    shared_scans, shared_spots = list(scans), list(spots)
    assert len(set(shared_scans)) == len(shared_scans)
    assert len(set(shared_spots)) == len(shared_spots)

    scans.clear()
    spots.clear()
    for n in lengths:
        conjecture_scan([n], max_cn, sample_rate=sample_rate)
    assert set(shared_scans) == set(scans)
    assert {v for v in shared_spots if len(v) <= 4} == {v for v in spots if len(v) <= 4}

    # the head's sample: every 3-prefix and every 4-prefix below an orderly
    # 3-prefix that leaves room for five values, whose hash hits the modulus
    prefixes = [
        (1,) + combo for combo in combinations(range(2, max_cn - 1), 2)
    ] + [
        (1,) + combo
        for combo in combinations(range(2, max_cn), 3)
        if ref_is_orderly((1,) + combo[:2])
    ]
    sampled = [v for v in prefixes if search._fingerprint(v) % 20 == 0]
    assert sampled
    assert sorted(v for v in shared_spots if len(v) <= 4) == sorted(sampled)
    sampled_heads = {v for v in sampled if len(v) == 4}
    for walk_spots, walk_scans in (shared_spots, shared_scans), (spots, scans):
        below = {v for v in walk_spots if len(v) > 4}
        assert below and all(v[:4] in sampled_heads for v in below)
        assert {v for v, _ in walk_scans if v[:4] in sampled_heads} <= set(walk_spots)


def test_conjecture_scan_spot_checks_catch_a_planted_wrong_verdict(capsys, monkeypatch):
    """A scan that gives the orderly (1, 2, 4, 5, 8), a finding under the
    non-orderly (1, 2, 4, 5), the amount 7 loses that finding.  Below a
    sampled 4-prefix every verdict is spot-checked, so at sample rate 1
    conjecture exits 3 naming the witness; at sample rate 0 nothing checks
    it and the scan reports one finding fewer."""
    scan_from = search._scan_from

    def scan(values, grd):
        w = scan_from(values, grd)
        return 7 if values == (1, 2, 4, 5, 8) else w

    assert (1, 2, 4, 5, 8) in [f.system.values for f in conjecture_scan([5], 12)]
    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    assert main(["conjecture", "--n", "5", "--max", "12", "--sample", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "witness 7 " in captured.err
    assert main(["conjecture", "--n", "5", "--max", "12", "--sample", "0"]) == 0
    assert "1, 2, 4, 5, 8" not in capsys.readouterr().out


def test_conjecture_scan_spot_checks_the_w_of_a_deferred_node(capsys, monkeypatch):
    """A scan that gives the deferred (1, 2, 4, 5, 7, 9, 12), whose w is 18,
    the amount 16 loses the finding (1, 2, 4, 5, 7, 9, 12, 17).  The node's
    late scan in _orderly_leaves is spot-checked under its 4-prefix's flag,
    so at sample rate 1 the scan raises and conjecture exits 3 naming the
    witness; at sample rate 0 nothing checks it."""
    lengths, finding = [5, 6, 7, 8], (1, 2, 4, 5, 7, 9, 12, 17)
    scan_from = search._scan_from

    def scan(values, grd):
        w = scan_from(values, grd)
        return 16 if values == finding[:-1] else w

    assert finding in [f.system.values for f in conjecture_scan(lengths, 24)]
    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    assert finding not in [f.system.values for f in conjecture_scan(lengths, 24, sample_rate=0)]
    with pytest.raises(InternalDisagreementError, match="witness 16 "):
        conjecture_scan(lengths, 24, sample_rate=1.0)
    assert main(["conjecture", "--n", "5,6,7,8", "--max", "24", "--sample", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "witness 16 " in captured.err
    assert main(["conjecture", "--n", "5,6,7,8", "--max", "24", "--sample", "0"]) == 0


def test_conjecture_scan_takes_the_one_point_test_only_under_an_orderly_node(monkeypatch):
    """The one-point test is exact only on a child of an orderly node, so
    the scan calls it on the children of (1, c2) and of the orderly
    3-prefixes alone, once on each such child within the bounds."""
    max_cn = 24
    extend_verdict, extended = search._extend_verdict, []

    def extend(child):
        extended.append(child)
        return extend_verdict(child)

    monkeypatch.setattr("coinsystems.search._extend_verdict", extend)
    conjecture_scan([5, 6, 7, 8], max_cn)
    assert all(len(v) == 3 or ref_is_orderly(v[:3]) for v in extended)
    # room for five values: c3 <= max_cn - 2 and c4 <= max_cn - 1
    expected = [(1,) + combo for combo in combinations(range(2, max_cn - 1), 2)] + [
        (1,) + combo
        for combo in combinations(range(2, max_cn), 3)
        if ref_is_orderly((1,) + combo[:2])
    ]
    assert sorted(extended) == sorted(expected)


def test_conjecture_scan_at_the_benchmark_bound():
    """The scan benchmark's walk, lengths 5..8 with c8 <= 36: the findings
    per length and the one outside the fixed-gap families."""
    findings = conjecture_scan([5, 6, 7, 8], 36)
    per_length = Counter(len(f.system) for f in findings)
    assert [per_length[n] for n in (5, 6, 7, 8)] == [15, 12, 0, 7]
    assert [f.system.values for f in findings if f.membership is None] == [
        (1, 2, 4, 5, 7, 9, 12, 17)
    ]


def test_conjecture_scan_scans_no_rejected_leaf(monkeypatch):
    """A system no longer requested length can grow from (length 8, or a top
    coin at the bound) is scanned only if the two-coin-sum lemma passes it."""
    max_cn = 24
    scan_from = search._scan_from
    scanned = []

    def scan(values, grd):
        scanned.append(values)
        return scan_from(values, grd)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    findings = conjecture_scan([5, 6, 7, 8], max_cn)
    leaves = [v for v in scanned if len(v) == 8 or v[-1] == max_cn]
    assert {f.system.values for f in findings if len(f.system) == 8} <= set(leaves)
    assert all(pair_lemma(v, len(v) - 2) is None for v in leaves)


def test_conjecture_scan_matches_a_flat_oracle_loop():
    """The walk, whose nodes with only leaf children take the two-coin-sum
    lemma before a scan and stay unscanned while it rejects them and their
    leaves, finds exactly the systems of five to eight values with cn <= 20
    whose oracle marks form the target pattern."""
    expected = [
        (1,) + combo
        for n in (5, 6, 7, 8)
        for combo in combinations(range(2, 21), n - 1)
        if search._oracle_marks((1,) + combo) == _target_marks(n)
    ]
    assert [f.system.values for f in conjecture_scan([5, 6, 7, 8], 20)] == expected


def scan_reaches(values, w_of):
    """Whether the conjecture scan walks the prefix values of five or more
    coins: its 3-prefix is orderly, and each prefix from its 4-prefix up to
    its parent is not orderly and has a minimal counterexample no smaller
    than the coin after it."""
    if w_of(values[:3]) is not None:
        return False
    ws = [w_of(values[:k]) for k in range(4, len(values))]
    return all(w is not None and c <= w for w, c in zip(ws, values[4:]))


def test_conjecture_scan_defers_a_rejected_node_until_a_child_needs_it(monkeypatch):
    """At sample rate 0, a walked node that the two-coin-sum lemma rejects
    with amount a is deferred when its children are all leaves, or all
    leaves and nodes with only leaf children.  With lengths 5..8 and
    c8 <= 24 the first are the 7-prefixes and the nodes with top coin 23,
    the second the 6-prefixes with top coin at most 22 and the 5-prefixes
    with top coin 22.  A deferred node is scanned exactly when a child up to
    a needs its table, and before any child: a leaf needs it when the lemma
    passes it, and a node when the lemma passes it or, rejecting it with
    amount b, passes one of its leaves up to b.  No child above the node's
    true w is scanned."""
    max_cn = 24
    scan_from = search._scan_from
    scanned = []

    def scan(values, grd):
        scanned.append(values)
        return scan_from(values, grd)

    def passes(values):
        return pair_lemma(values, len(values) - 2) is None

    def needs_table(child):
        b = pair_lemma(child, len(child) - 2)
        leaves = range(child[-1] + 1, min(max_cn, b or max_cn) + 1)
        return b is None or any(passes(child + (c,)) for c in leaves)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    conjecture_scan([5, 6, 7, 8], max_cn, sample_rate=0)
    order = {values: i for i, values in enumerate(scanned)}
    scanned_children: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for values in scanned:
        scanned_children.setdefault(values[:-1], []).append(values)

    w_of = lru_cache(maxsize=None)(search._min_counterexample)
    counts = Counter()
    for k in (5, 6, 7):
        for combo in combinations(range(2, max_cn), k - 1):
            v = (1,) + combo
            all_leaf = k == 7 or v[-1] == max_cn - 1
            a = pair_lemma(v, k - 2) if all_leaf or k == 6 or v[-1] == max_cn - 2 else None
            if a is None or not scan_reaches(v, w_of):
                continue
            if all_leaf:
                need = any(passes(v + (c,)) for c in range(v[-1] + 1, min(a, max_cn) + 1))
            else:
                children = range(v[-1] + 1, min(a, max_cn - 1) + 1)
                need = any(needs_table(v + (c,)) for c in children)
                need = need or a >= max_cn and passes(v + (max_cn,))
            assert (v in order) == need, v
            counts[all_leaf, need] += 1
            below = scanned_children.get(v, [])
            assert all(order[v] < order[u] and u[-1] <= w_of(v) for u in below), v
    # keyed by (its children are all leaves, scanned)
    assert counts == {
        (False, False): 3_008,
        (False, True): 9,
        (True, False): 7_864,
        (True, True): 4,
    }


def test_conjecture_scan_tries_the_lemma_only_where_every_child_is_a_leaf(monkeypatch):
    """The two-coin-sum lemma's amount is computed, before a scan, only for a
    node whose children are all leaves or nodes with only leaf children, and
    for a leaf.  With c8 <= 24 a node of fewer than six values takes it only
    at the top coins 22 and 23, whose children are such nodes or the leaf
    24, while 6-prefixes take it at any top coin; every other node is
    scanned, and scanned after its parent, which passes it its table."""
    max_cn = 24
    scan_from, lemma = search._scan_from, search._pair_counterexample
    scanned, tried = [], []

    def scan(values, grd):
        scanned.append(values)
        return scan_from(values, grd)

    def pair(bits, y, c):
        tried.append(tuple(x for x in range(y + 1) if bits >> x & 1) + (c,))
        return lemma(bits, y, c)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    monkeypatch.setattr("coinsystems.search._pair_counterexample", pair)
    conjecture_scan([5, 6, 7, 8], max_cn)
    assert [v for v in tried if len(v) < 6 and v[-1] < max_cn - 2] == []
    assert {len(v) for v in tried if v[-1] < max_cn - 2} == {6, 7, 8}
    order = {values: i for i, values in enumerate(scanned)}
    # the 4-prefixes start the walk, decided by the one-point test above them
    assert all(order[v[:-1]] < i for v, i in order.items() if len(v) > 4)


def test_conjecture_scan_stops_at_w_when_a_leaf_triggers_the_scan(monkeypatch):
    """A deferred node that is scanned for its first leaf the lemma passes
    may find its w below that leaf, which then keeps w and is not scanned.
    At length 10 with c10 <= 23, (1,2,4,5,7,8,10,12,15) has lemma amount 24
    and w = 18, and 23 is the only leaf up to 24 that the lemma passes."""
    node = (1, 2, 4, 5, 7, 8, 10, 12, 15)
    assert pair_lemma(node, 7) == 24 and ref_min_counterexample(node) == 18
    assert [c for c in range(16, 25) if pair_lemma(node + (c,), 8) is None] == [23]
    scan_from = search._scan_from
    scanned = []

    def scan(values, grd):
        scanned.append(values)
        return scan_from(values, grd)

    monkeypatch.setattr("coinsystems.search._scan_from", scan)
    assert conjecture_scan([10], 23) == []
    assert node in scanned and node + (23,) not in scanned


def test_conjecture_scan_work_at_the_benchmark_bound(monkeypatch):
    """Work counters for the scan benchmark's walk, lengths 5..8 with
    c8 <= 36, at the default 1% sample: the oracle scans, the lemma amounts,
    the nodes whose leaves _orderly_leaves settles and the spot-checks.  A
    walk that tried the lemma one leaf at a time, with no mask, and scanned
    every node with children that are not all leaves ran 31,689 scans,
    179,452 lemma calls and 70,130 _orderly_leaves calls."""
    calls = count_sweep_work(monkeypatch)
    conjecture_scan([5, 6, 7, 8], 36)
    assert calls == {"scan": 8_161, "lemma": 27_507, "settle": 838, "spot": 1_722}


def test_the_walks_need_no_frame_per_coin():
    """The census and the scan walk the prefix tree on explicit stacks, so
    systems of 300 values are walked under a recursion limit of only 60
    frames above the caller's, in process and in worker processes."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert conjecture_scan([300], 301, jobs=2) == []
        assert pattern_census(300, 300, sample_rate=0) == {"+" * 300: 1}
    finally:
        sys.setrecursionlimit(limit)


def test_the_sweeps_refuse_a_window_past_the_table_cap(monkeypatch):
    """A sweep with coins up to max_cn may scan the window c(n-1) + cn - 1 up
    to 2 max_cn - 2; past the DP table cap every sweep is refused before any
    walk starts, and up to it the census runs."""
    monkeypatch.setattr("coinsystems.core.DEFAULT_VALUE_CAP", 100)
    with pytest.raises(ResourceLimitError):
        pattern_census(3, 52)
    with pytest.raises(ResourceLimitError):
        agreement_sweep(3, 52)
    with pytest.raises(ResourceLimitError):
        conjecture_scan([5], 52)
    assert sum(pattern_census(3, 51).values()) == comb(50, 2)


def test_conjecture_scan_lengths_are_deterministic_across_jobs():
    one = conjecture_scan([5, 6, 7, 8], 24, jobs=1)
    assert len(one) == 18
    assert conjecture_scan([5, 6, 7, 8], 24, jobs=2) == one


# ---------- summaries ----------


def test_summarize_findings_empty_is_ok():
    summary = summarize_findings([])
    assert summary.total == 0
    assert summary.ok


def test_summarize_findings_flags_forbidden_lengths():
    """Lengths 3r+1 (r >= 2) are flagged even with a membership-free pass."""
    inside = ConjectureFinding(
        system=CoinSystem((1, 2, 4, 5, 8)),
        membership=FamilyParams(family="D", r=1, a=2),
    )
    outsider = ConjectureFinding(
        system=CoinSystem((1, 2, 4, 5, 7, 8, 11)),
        membership=None,
    )
    summary = summarize_findings([inside, outsider])
    assert summary.total == 2
    assert summary.without_membership == (outsider,)
    assert summary.forbidden_length == (outsider,)
    assert not summary.ok

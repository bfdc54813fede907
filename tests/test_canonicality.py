"""Tests for orderliness verdicts, witnesses, and the structural checks."""

import tracemalloc
from itertools import accumulate, combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinsystems import (
    CoinSystem,
    disjoint_support_check,
    gap_filter,
    is_orderly,
    jump_filter,
    min_counterexample_oracle,
    one_point_check,
    pattern,
)
from coinsystems.canonicality import (
    _candidate_step,
    _candidate_verdict,
    _failing_candidates,
    _greedy_lanes,
    _lane_width,
    _level_candidates,
    _min_counterexample,
    _optimal_count_vectors,
    _pair_counterexample,
    _scan_from,
    _scan_lanes,
    _witness,
)
from coinsystems.core import _greedy_count, _opt_table

from bruteforce import (
    coin_values,
    coin_values_exact,
    ref_all_optimal,
    ref_greedy_count,
    ref_greedy_counts,
    ref_is_orderly,
    ref_lex_smallest_optimal,
    ref_min_counterexample,
    ref_opt_count,
)


# ---------- the oracle ----------


def lane_scan(values):
    """The lane kernel's first counterexample and the greedy counts its
    table ends with, one per lane."""
    lanes = bytearray()
    w = _scan_lanes(values, lanes)
    b = _lane_width(values)[1]
    assert len(lanes) % b == 0
    return w, [int.from_bytes(lanes[i : i + b], "little") for i in range(0, len(lanes), b)]


def test_oracle_known_values():
    assert min_counterexample_oracle(CoinSystem((1, 3, 4))) == 6
    assert min_counterexample_oracle(CoinSystem((1, 5, 10, 25))) is None
    assert min_counterexample_oracle(CoinSystem((1, 5, 15, 20))) == 30


def test_oracle_short_systems_are_orderly():
    assert min_counterexample_oracle(CoinSystem((1,))) is None
    assert min_counterexample_oracle(CoinSystem((1, 7))) is None


@pytest.mark.property_based
@given(coin_values(max_value=30))
@settings(max_examples=100, deadline=None)
def test_oracle_matches_reference(values):
    assert min_counterexample_oracle(CoinSystem(values)) == ref_min_counterexample(
        values
    )


@pytest.mark.property_based
@given(st.integers(3, 6).flatmap(lambda n: coin_values_exact(n, max_value=30)), st.data())
@settings(max_examples=100, deadline=None)
def test_resumed_scan_matches_reference(values, data):
    """A child whose new coin c is at most the parent's minimal counterexample
    resumes the parent's table cut at c and finds its own."""
    grd = [0]
    w = _scan_from(values, grd)
    assume(w is not None and w > values[-1])
    c = data.draw(st.integers(values[-1] + 1, w))
    child = values + (c,)
    assert _scan_from(child, grd[:c]) == ref_min_counterexample(child)


@pytest.mark.parametrize("loop", [None, 1])
def test_scan_matches_reference_exhaustively(loop, monkeypatch):
    """Every system with n <= 5 and cn <= 24, scanned from scratch and, as
    the sweeps do, resumed from its parent's table whenever the parent is
    orderly or its new coin c is at most the parent's w; the table holds
    greedy counts up to w, or over the whole window when orderly.  Up to
    cn <= 18, every cut of the system's own table resumes to the same w and
    table too.  With one amount checked one by one, every longer check
    region goes through the blocks, and the lanes' blocks start at one
    offset.  The one-shot oracle, sent to the lanes whatever the window,
    finds the same w, and its table holds greedy counts and stops by
    min(cn, c(n-2)+c(n-1)), past which the top coin's checks read the
    stretch rule."""
    if loop:
        monkeypatch.setattr("coinsystems.canonicality._LOOP", loop)
    monkeypatch.setattr("coinsystems.canonicality._LANES", 0)
    tables = {}
    for n in range(3, 6):
        for rest in combinations(range(2, 25), n - 1):
            values = (1,) + rest
            w = ref_min_counterexample(values)
            grd = [0]
            assert _scan_from(values, grd) == w, values
            stop = values[-2] + values[-1] if w is None else w + 1
            assert grd == [ref_greedy_count(values, u) for u in range(stop)], values
            lw, table = lane_scan(values)
            assert lw == w == _min_counterexample(values), values
            s, t, c = values[-3:]
            assert len(table) <= min(c, s + t) and table == grd[: len(table)], values
            if values[-1] <= 18:
                for cut in range(1, len(grd)):
                    cgrd = grd[:cut]
                    assert _scan_from(values, cgrd) == w, (values, cut)
                    assert cgrd == grd, (values, cut)
            if values[:-1] in tables:
                pw, pgrd = tables[values[:-1]]
                c = values[-1]
                if pw is None or c <= pw:
                    cgrd = pgrd[:c]
                    assert _scan_from(values, cgrd) == w, values
                    assert cgrd == grd, values
            tables[values] = (w, grd)


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize(
    "values",
    [
        (1, 2, 999),
        (1, 3, 4, 500),
        (1, 2, 999, 1000),
        (1, 5, 10, 25, 50, 100, 2990),
        (1, 5, 21, 81, 297, 1237, 4857),  # grown coin by coin by the one-point test
        # long check regions, with the default _LOOP of 64 (blocks of offsets
        # 64-127, 128-255, 256-511, ...): first failures at p + m = 300 + 100,
        # past the amounts checked one by one; 900 + 300, past a doubled
        # block; 273 + 127, on a block's last offset; and an orderly system
        # with four coins above m for the first 300 offsets of 1500's region
        (1, 200, 300),
        (1, 600, 900),
        (1, 200, 273),
        (1, 300, 600, 900, 1200, 1500),
        # top coin above 2c(n-1) + c(n-2), so the lanes' top coin reads the
        # stretch past their table: first failures in the top coin's blocks
        # at 500 + 100 and 700 + 100, and an orderly system
        (1, 200, 500),
        (1, 3, 200, 700),
        (1, 200, 800),
        # a coin d is compared only from offset c2 + d - p: the first failure
        # 1068 = 699 + 369 lies exactly on that bound for d = 534, and in the
        # block of offsets 64-127 of 432's region 357 has no offset left
        # while 252 fails at 504 = 432 + 72
        (1, 534, 579, 589, 590, 604, 699),
        (1, 252, 357, 432),
    ],
)
def test_scan_fills_wide_gaps(values, chunk, monkeypatch):
    """Amounts past p plus the coin below p are filled, not checked, in
    chunks of any size; the scan still finds the first amount where greedy
    beats the full DP.  A block of a long check region tries only the coins
    that can still lower its first failure, each over at least one offset,
    and a coin d only from offset c2 + d - p on: below it p - d + m < c2 is
    paid in ones, so grd[p-d+m] = p - d + m > m >= grd[m] cannot fail.  A
    coin with no offset left is skipped while a smaller coin, whose bound is
    lower, is still tried.  The lanes find the same amount, and their table
    holds greedy counts and stops by min(cn, c(n-2)+c(n-1))."""
    if chunk:
        monkeypatch.setattr("coinsystems.canonicality._CHUNK", chunk)

    def nonempty_any(comparisons):
        comparisons = list(comparisons)
        assert comparisons
        return any(comparisons)

    monkeypatch.setattr("coinsystems.canonicality.any", nonempty_any, raising=False)
    hi = values[-2] + values[-1]
    opt = _opt_table(values, hi - 1)
    greedy = [ref_greedy_count(values, u) for u in range(hi)]
    w = next((v for v in range(hi) if greedy[v] > opt[v]), None)
    grd = [0]
    assert _scan_from(values, grd) == w
    assert grd == greedy[: hi if w is None else w + 1]
    lw, table = lane_scan(values)
    assert lw == w == _min_counterexample(values)
    assert len(table) <= min(values[-1], values[-3] + values[-2])
    assert table == greedy[: len(table)]


def test_block_comparisons_start_where_greedy_stops_paying_in_ones(monkeypatch):
    """The blocks compare a coin d only where v - d >= c2, so the slowest
    check of the benchmark's queries stream makes a handful of comparisons
    (292,567 with every coin compared from the block's first offset), and a
    system with c2 = 3, where the bound never passes a block's first offset,
    makes as many as without it.  The lanes take the same bound: a coin is
    compared over a block in one operation, 5 of them on the first system
    and 110 on the second, each over the whole stretch of the block it
    checks.  Counts repeat exactly; times do not."""
    import coinsystems.canonicality as canonicality

    count = lanes = 0
    first_below = canonicality._first_below

    def counting_lt(a, b):
        nonlocal count
        count += 1
        return a < b

    def counting_first_below(x, grd, m, n, guard, b):
        nonlocal count, lanes
        count, lanes = count + 1, lanes + n
        return first_below(x, grd, m, n, guard, b)

    slow = (1, 53350, 57904, 58860, 58901, 60348, 69817)
    small_c2 = (1, 3, 9, 32, 86, 254, 721, 2290, 8888, 24120, 91179)
    monkeypatch.setattr("coinsystems.canonicality.lt", counting_lt)
    assert _scan_from(slow, [0]) == 106_700
    assert count <= 100
    count = 0
    assert _scan_from(small_c2, [0]) is None
    assert count == 52_092
    monkeypatch.setattr("coinsystems.canonicality._first_below", counting_first_below)
    count = 0
    assert _min_counterexample(slow) == 106_700
    assert (count, lanes) == (5, 23_465)
    count = lanes = 0
    assert _min_counterexample(small_c2) is None
    assert (count, lanes) == (110, 53_759)


@pytest.mark.parametrize(
    "values, w",
    [
        ((1, 3, 9, 25, 65, 177, 529, 1697, 4385, 12913, 36513, 68641), None),
        ((1, 21923, 55129, 82173), 65_769),
        ((1, 3, 4, 9_999_999), 6),
        ((1, 2, 10**15), None),
    ],
)
def test_lanes_known_values(values, w):
    """Large windows go to the lanes, whose table holds greedy counts and
    stops by min(cn, c(n-2)+c(n-1)) lanes: an orderly system of twelve
    coins, a failure in the top coin's stretch, and two top coins far past
    the cap, whose windows the cap once refused; (1, 2, 10**15) reads q up
    to 5 * 10**14 past its table, capped at G = 2 to fit its 1-byte lanes."""
    lw, table = lane_scan(values)
    assert _min_counterexample(values) == lw == w
    assert len(table) <= min(values[-1], values[-3] + values[-2])
    if values[-1] < 10**6:
        grd = [0]
        assert _scan_from(values, grd) == w
        assert table == grd[: len(table)]
    else:
        assert table == [ref_greedy_count(values, u) for u in range(len(table))]


def test_lanes_hold_a_few_bytes_per_amount():
    """The lanes of an orderly system of twelve coins, the table's 49,426
    amounts and the blocks of its top coin's checks, peak under 10 bytes
    per amount of c(n-2) + 2c(n-1) (about 7 on CPython 3.11); the list
    tables take about 40."""
    values = (1, 3, 9, 25, 65, 177, 529, 1697, 4385, 12913, 36513, 68641)
    tracemalloc.start()
    try:
        assert _min_counterexample(values) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * (values[-3] + 2 * values[-2])


# systems whose G lies on each side of each lane-width edge, G = 63 | 64
# (1 | 2 bytes), 16383 | 16384 (2 | 3) and 4194303 | 4194304 (3 | 4), and
# inside the bands where one bit less would pick the narrower width; with
# three coins G = c2, and the top coin's checks read amounts with q past G
_WIDTH_EDGES = [
    (1, 63, 63 * 67 + 5),
    (1, 64, 64 * 68 + 5),
    (1, 100, 100 * 104 + 7),
    (1, 127, 127 * 131 + 3),
    (1, 2, 122, 124, 8019),  # G = 63, fails at 244
    (1, 2, 123, 7878),  # G = 63
    (1, 2, 125, 8151),  # G = 64
    (1, 16383, 40000),  # fails at 49,149
    (1, 16384, 40000),
    (1, 16383, 16383 * 16386 + 5),
    (1, 16384, 16384 * 16387 + 5),
    (1, 20000, 20000 * 20003 + 3),
    (1, 4194303, 4194303 * 4194306 + 7),
    (1, 5_000_000, 5_000_000 * 5_000_003 + 3),
    (1, 2, 10**15),
]


@pytest.mark.parametrize("values", _WIDTH_EDGES)
def test_lanes_match_the_dp_across_width_edges(values):
    """Either side of each width edge the lanes find the DP's first failure
    (the candidate test's, where the window is too large for the DP), and
    their table holds the greedy counts.  The top coin's reads past the
    table are exact greedy counts while q = u // c(n-1) is at most G, and
    past it lie from G, above every count the table holds, up to 2G+1,
    below the guard bit."""
    g, b = _lane_width(values)
    assert 2 * g + 1 < 1 << 8 * b - 1 and (b == 1 or 2 * g + 1 >= 1 << 8 * b - 9)
    grd = bytearray()
    w = _scan_lanes(values, grd)
    if values[-2] + values[-1] <= 20_000:
        assert w == _dp_first_failure(values)
    else:
        assert w == _failing_candidates(values)[-1]
    head = grd[: 20_000 * b]
    counts = (_greedy_count(values, u) for u in range(len(head) // b))
    assert head == b"".join(c.to_bytes(b, "little") for c in counts)
    t, top = values[-2:]
    e = min(top, values[-3] + t)
    if top <= (g + 3) * t or e > 20_000:
        return
    for u in ((g - 1) * t + t // 2, g * t, g * t + t // 2, (g + 1) * t + 1, top - t):
        x = _greedy_lanes(grd, t, u, t, g, b).to_bytes(b * t, "little")
        for j in range(t):
            lane = int.from_bytes(x[b * j : b * (j + 1)], "little")
            if (u + j) // t <= g:
                assert lane == _greedy_count(values, u + j), (u, j)
            else:
                assert g <= lane <= 2 * g + 1, (u, j)


def test_greedy_bound_covers_the_table_exhaustively():
    """For every system with n <= 5 and cn <= 60, G is at least every
    greedy count below E = min(cn, c(n-2)+c(n-1)), the table the lanes
    hold.  Those counts are the prefix's: a prefix's greedy counts up to
    60 are its parent's below its top coin c, and 1 + grd[u - c] above."""
    stack = [((1,), list(range(61)))]
    while stack:
        prefix, grd = stack.pop()
        if len(prefix) >= 2:
            most = list(accumulate(grd, max))
            s, t = prefix[-2:]
            for c in range(t + 1, 61):
                assert _lane_width(prefix + (c,))[0] >= most[min(c, s + t) - 1], prefix + (c,)
        if len(prefix) < 4:
            for c in range(prefix[-1] + 1, 60):
                child = grd[:c]
                for u in range(c, 61):
                    child.append(child[u - c] + 1)
                stack.append((prefix + (c,), child))


def _dp_first_failure(values):
    hi = values[-2] + values[-1]
    opt = _opt_table(values, hi - 1)
    return next((v for v in range(hi) if ref_greedy_count(values, v) > opt[v]), None)


@pytest.mark.property_based
@given(
    st.integers(65, 400).flatmap(
        lambda c2: st.sets(st.integers(c2 + 1, 1400), min_size=1, max_size=4).map(
            lambda rest: (1, c2, *sorted(rest))
        )
    ),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_long_regions_match_the_dp_and_resume(parent, data):
    """With c2 >= 65 the check regions outlast the amounts tried one by one,
    so the blocks and their bound c2 + d - p decide.  The full scan, the
    one-shot oracle and the lanes find the DP's first failure, and a child
    resumed from its parent's table cut at its new coin builds the same w
    and table as a scan from amount 0."""
    grd = [0]
    pw = _scan_from(parent, grd)
    assert pw == _min_counterexample(parent) == lane_scan(parent)[0] == _dp_first_failure(parent)
    cap = 1500 if pw is None else min(pw, 1500)
    if cap > parent[-1]:
        child = parent + (data.draw(st.integers(parent[-1] + 1, cap)),)
        full = [0]
        w = _scan_from(child, full)
        assert w == _min_counterexample(child) == lane_scan(child)[0] == _dp_first_failure(child)
        resumed = grd[: child[-1]]
        assert _scan_from(child, resumed) == w
        assert resumed == full


def test_oracle_near_the_cap_tabulates_only_what_it_scans():
    system = CoinSystem((1, 3, 4, 9999997))
    tracemalloc.start()
    try:
        assert min_counterexample_oracle(system) == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_memory_per_scanned_amount():
    """An orderly scan keeps one table.  A table built for resuming costs
    about 40 bytes per amount, a list slot and an int object; the one-shot
    scan here builds less."""
    system = CoinSystem((1, 2, 999_999))
    tracemalloc.start()
    try:
        assert min_counterexample_oracle(system) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * (2 + 999_999)


def test_one_shot_oracle_builds_only_what_it_reads():
    """(1, 2, 999999) checks only the amounts from 999999 up, which read the
    table below 2 and, by the stretch rule, from 999997: the lanes hold the
    three counts below c(n-2) + c(n-1) = 3."""
    system = CoinSystem((1, 2, 999_999))
    tracemalloc.start()
    try:
        assert min_counterexample_oracle(system) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * (2 + 999_999)


# ---------- candidate amounts ----------


@pytest.mark.property_based
@given(coin_values(max_n=7, max_value=40))
@settings(max_examples=150, deadline=None)
def test_failing_candidates_are_minimal_counterexamples(values):
    """One pass of the candidate step gives every prefix's minimal
    counterexample; is_orderly's witness is the last of them."""
    expected = [ref_min_counterexample(values[:k]) for k in range(1, len(values) + 1)]
    assert _failing_candidates(values) == expected
    witness = is_orderly(CoinSystem(values)).witness
    assert (witness.value if witness else None) == expected[-1]


def test_level_candidates_match_their_definition():
    """The one greedy pass gives, in some order, c - 1's greedy vector with
    its entries below p zeroed and entry p raised, for p = 1..n-2."""
    for n in range(3, 7):
        for rest in combinations(range(2, 21), n - 1):
            values = (1, *rest)
            base = ref_greedy_counts(values, values[-1] - 1)
            expected = []
            for p in range(1, n - 1):
                vec = [0] * p + [base[p] + 1] + list(base[p + 1 :])
                expected.append((sum(k * d for k, d in zip(vec, values)), sum(vec)))
            assert sorted(_level_candidates(values)) == sorted(expected), values


def test_candidate_step_keeps_the_pending_suffix_at_or_above_c():
    """Pending becomes the parent's candidates with amount >= c, those equal
    to c included, merged with the level's (10, 2) and (11, 4); the smallest
    pending amount that greedy pays with more coins is the failure."""
    parent = [(6, 3), (9, 5), (10, 3), (10, 4), (12, 3), (13, 1)]
    f, pending = _candidate_step((1, 2, 5, 10), None, parent)
    assert pending == [(10, 2), (10, 3), (10, 4), (11, 4), (12, 3), (13, 1)]
    assert f == 13


def test_candidate_route_uses_no_dp_table(monkeypatch):
    """The candidate step, its folds and is_orderly's witness run on greedy
    counts alone: with every oracle scan and DP table made unusable they
    give the same results."""
    import coinsystems.canonicality as canonicality
    import coinsystems.core as core

    systems = [(1, 3, 4), (1, 2, 5, 6), (1, 5, 10, 25), (1, 2, 4, 5, 7, 9, 12, 17)]
    expected = [
        (
            _failing_candidates(v),
            pattern(CoinSystem(v)),
            is_orderly(CoinSystem(v)),
        )
        for v in systems
    ]

    def boom(*args):
        raise AssertionError("DP table or oracle scan used")

    for module in (core, canonicality):
        for name in ("_scan_from", "_scan_lanes", "_min_counterexample", "_opt_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    for v, (fails, marks, report) in zip(systems, expected):
        assert _failing_candidates(v) == fails
        assert _candidate_verdict(v) == (fails[-1] is None)
        assert pattern(CoinSystem(v)) == marks
        assert is_orderly(CoinSystem(v)) == report


# ---------- verdicts and witnesses ----------


def test_is_orderly_known_values():
    assert is_orderly(CoinSystem((1, 5, 10, 25))).orderly
    assert is_orderly(CoinSystem((1, 5, 10, 25))).witness is None
    assert is_orderly(CoinSystem((1, 2, 3, 5, 6, 10))).orderly
    assert not is_orderly(CoinSystem((1, 3, 4))).orderly


def test_witness_fields():
    report = is_orderly(CoinSystem((1, 2, 5, 6)))
    assert not report.orderly
    w = report.witness
    assert w.value == 10
    assert w.greedy.counts == (0, 2, 0, 1)
    assert w.greedy_count == 3
    assert w.optimal.counts == (0, 0, 2, 0)
    assert w.opt_count == 2


def test_witness_forms_match_reference_exhaustively():
    """Every non-orderly system of three to five coins up to 16: at the
    minimal counterexample the walk down greedy counts gives the reference's
    lex-smallest optimal form and every optimal form, in order."""
    for n in range(3, 6):
        for rest in combinations(range(2, 17), n - 1):
            values = (1, *rest)
            m = min_counterexample_oracle(CoinSystem(values))
            if m is None:
                continue
            assert _witness(CoinSystem(values), m).optimal.counts == ref_lex_smallest_optimal(
                values, m
            )
            assert _optimal_count_vectors(values, m) == sorted(ref_all_optimal(values, m))


def test_large_witness_needs_no_table():
    """M = 5,000,000 of (1, 2500000, 2500001) is witnessed in well under a
    megabyte: the optimal form is walked, not tabulated."""
    tracemalloc.start()
    try:
        report = is_orderly(CoinSystem((1, 2_500_000, 2_500_001)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness.value == 5_000_000
    assert report.witness.optimal.counts == (0, 2, 0)
    assert peak < 1 << 20


@pytest.mark.property_based
@given(coin_values(max_value=30))
@settings(max_examples=100, deadline=None)
def test_is_orderly_matches_reference(values):
    report = is_orderly(CoinSystem(values))
    assert report.orderly == ref_is_orderly(values)
    if not report.orderly:
        w = report.witness
        assert w.value == ref_min_counterexample(values)
        assert w.greedy_count > w.opt_count
        assert w.greedy.value() == w.value == w.optimal.value()


@pytest.mark.property_based
@given(coin_values(max_value=25))
@settings(max_examples=100, deadline=None)
def test_witness_supports_are_disjoint(values):
    """Greedy and optimal never share a coin at the minimal counterexample."""
    report = is_orderly(CoinSystem(values))
    if report.witness is not None:
        pairs = zip(report.witness.greedy.counts, report.witness.optimal.counts)
        assert all(g == 0 or o == 0 for g, o in pairs)


# ---------- one-point extension ----------


def test_one_point_known_values():
    verdict = one_point_check(CoinSystem((1, 5, 10)), 25)
    assert (verdict.m, verdict.target, verdict.greedy_count) == (3, 30, 2)
    assert verdict.orderly

    verdict = one_point_check(CoinSystem((1, 3)), 4)
    assert (verdict.m, verdict.target, verdict.greedy_count) == (2, 6, 3)
    assert not verdict.orderly

    verdict = one_point_check(CoinSystem((1, 2)), 4)
    assert (verdict.m, verdict.greedy_count) == (2, 1)
    assert verdict.orderly


def test_one_point_preconditions():
    with pytest.raises(ValueError):
        one_point_check(CoinSystem((1, 5, 10)), 10)
    with pytest.raises(ValueError):
        one_point_check(CoinSystem((1, 3, 4)), 9)


@pytest.mark.property_based
@given(coin_values(max_n=4, max_value=30), st.integers(31, 60))
@settings(max_examples=100, deadline=None)
def test_one_point_matches_oracle(values, c_new):
    """On orderly prefixes the single greedy evaluation equals a full scan."""
    if not ref_is_orderly(values):
        return
    verdict = one_point_check(CoinSystem(values), c_new)
    assert verdict.orderly == ref_is_orderly(values + (c_new,))


# ---------- necessary-condition filters ----------


def pair_lemma(values, j):
    """The two-coin-sum lemma on values in column j: coins up to values[j]
    as a bitmask, the sums x + values[j] above the top coin."""
    return _pair_counterexample(sum(1 << x for x in values[: j + 1]), values[j], values[-1])


def test_pair_counterexample_is_sound_exhaustively():
    """Every amount the two-coin-sum lemma returns, in any column, is a
    counterexample inside the scan window, so no orderly system is ever
    rejected.  In the top column (the sweeps' leaf test) it rejects 14,847
    of the 16,644 systems with 3 to 6 values and cn <= 20."""
    systems = rejected = 0
    for n in range(3, 7):
        for combo in combinations(range(2, 21), n - 1):
            values = (1,) + combo
            systems += 1
            amounts = [pair_lemma(values, j) for j in range(1, n - 1)]
            rejected += amounts[-1] is not None
            if ref_is_orderly(values):
                assert amounts == [None] * (n - 2), values
            for s in amounts:
                if s is not None:
                    assert values[-1] < s < values[-2] + values[-1], (values, s)
                    assert ref_greedy_count(values, s) > ref_opt_count(values, s), (values, s)
    assert (systems, rejected) == (16_644, 14_847)


def test_pair_counterexample_known_values():
    # (1,2,4,5,8) is orderly: 4 + 5 and 5 + 5 leave the coins 1 and 2 after 8
    assert pair_lemma((1, 2, 4, 5, 8), 3) is None
    # (1,3,4): 3 + 3 leaves 2 after 4, its minimal counterexample 6
    assert pair_lemma((1, 3, 4), 1) == 6
    # (1,2,5,6): 2 + 5 leaves the coin 1, but 5 + 5 leaves 4
    assert pair_lemma((1, 2, 5, 6), 2) == 10
    # a top gap of c2 - 2 = 2 makes c2 + c(n-1) fail; 4 + 4 leaves the coin 1
    assert pair_lemma((1, 4, 5, 7), 2) == 9
    assert pair_lemma((1, 4, 5, 7), 1) is None
    # no two coins below the top sum past it
    assert pair_lemma((1, 2, 3, 7), 2) is None


def test_pair_counterexample_bounds_the_children_and_their_leaves():
    """The two facts the conjecture scan walks by, on every system with 4 to
    6 values and cn <= 18 that the lemma rejects at an amount a: the minimal
    counterexample w is at most a, and a child with a coin above a keeps w.
    Also, the lemma passes a child c in (p, 2p) of the top coin p only if
    2p - c is a coin, as the sum p + p fails otherwise."""
    nodes = above = survivors = 0
    for n in range(4, 7):
        for combo in combinations(range(2, 19), n - 1):
            values = (1,) + combo
            a = pair_lemma(values, n - 2)
            if a is None:
                continue
            nodes += 1
            w = _min_counterexample(values)
            assert w <= a, values
            for c in range(a + 1, 26):
                above += 1
                assert _min_counterexample(values + (c,)) == w, (values, c)
            p = values[-1]
            for c in range(p + 1, 2 * p):
                if pair_lemma(values + (c,), n - 1) is None:
                    survivors += 1
                    assert 2 * p - c in values, (values, c)
    assert (nodes, above, survivors) == (8_221, 39_015, 15_265)


def test_gap_filter_known_values():
    assert not gap_filter(CoinSystem((1, 5, 8)))
    assert gap_filter(CoinSystem((1, 5, 10, 25)))
    assert gap_filter(CoinSystem((1, 2, 3)))
    assert gap_filter(CoinSystem((1,)))


def test_jump_filter_known_values():
    assert not jump_filter(CoinSystem((1, 3, 7, 9)))
    assert jump_filter(CoinSystem((1, 2, 4, 8)))
    assert jump_filter(CoinSystem((1, 3, 7, 12, 17)))


@pytest.mark.property_based
@given(coin_values(max_value=25))
@settings(max_examples=100, deadline=None)
def test_filters_never_reject_orderly_systems(values):
    """False from a filter proves non-orderliness."""
    system = CoinSystem(values)
    if not gap_filter(system) or not jump_filter(system):
        assert not ref_is_orderly(values)


# ---------- support disjointness ----------


def test_disjoint_support_known_values():
    check = disjoint_support_check(CoinSystem((1, 3, 4)))
    assert check.status == "holds"
    assert check.value == 6

    check = disjoint_support_check(CoinSystem((1, 5, 10, 25)))
    assert check.status == "vacuous"
    assert check.value is None

    check = disjoint_support_check(CoinSystem((1, 5, 15, 20)))
    assert check.status == "holds"
    assert check.value == 30
    assert check.greedy.counts == (0, 2, 0, 1)
    assert check.conflicting is None


@pytest.mark.property_based
@given(coin_values(max_value=25))
@settings(max_examples=100, deadline=None)
def test_disjoint_support_over_every_optimal(values):
    """The check covers all optimal vectors, not one arbitrary choice."""
    check = disjoint_support_check(CoinSystem(values))
    w = ref_min_counterexample(values)
    if w is None:
        assert check.status == "vacuous"
        return
    assert check.status == "holds"
    greedy = check.greedy.counts
    for opt in ref_all_optimal(values, w):
        assert all(g == 0 or o == 0 for g, o in zip(greedy, opt))

"""Exhaustive sweeps: the pattern census, the conjecture scan, and the
agreement sweep.

Each sweep covers the systems (1, c2, ..., cn) with coins drawn from
2..max_cn, walked depth first on an explicit stack as a prefix tree with one
partition per c2; the order of the walk changes no finding or count.  Under
jobs > 1 the partitions run in worker processes, no more than there are
partitions or cores, and merge in order.

The census takes each verdict from the parent's table of greedy counts, the
one the oracle scan keeps: over the whole window of an orderly node, up to
the minimal failing amount w of a non-orderly one, and [0] at the root
(1, c2).  A child with coin c resumes the scan from the table cut at c,
since c changes no count below c.  A node with only leaf children takes the
two-coin-sum lemma (canonicality._pair_counterexample) before any scan, and
_orderly_leaves settles its leaves; a node the lemma rejects is deferred,
scanned once a leaf needs its table.  Under a non-orderly node the walk
stops at w: a prefix under a larger coin keeps w, which no amount below the
coin can use, so the leaves of those subtrees are all '-' and are counted.

The conjecture scan looks for systems whose pattern is (+++-...-+).  A
pattern is a property of the chain of prefixes, so one walk of each c2
partition, on one stack from (1, c2), serves every requested length.  An
orderly node, (1, c2) or an orderly 3-prefix, decides its children by the
one-point test, exact there, and pushes only the orderly 3-prefixes and the
non-orderly 4-prefixes, each scanned from [0].  Below them a non-orderly
node is descended while a longer length is requested, and an orderly node at
a requested length is a finding.  A subtree whose added coins all exceed the
inherited w keeps w at every leaf, so it holds no finding and is skipped.
As in the census, a node whose children are all leaves, nodes no longer
length can grow from, takes the lemma before its scan, and _orderly_leaves
settles those leaves.  Here the lemma is a bit of a mask carried down the
tree (_lemma_masks) whose bits name the leaves it passes, so a node it
rejects with each leaf is dropped at once.  A node whose children are all
such nodes or leaves takes it too: rejected, it keeps its lemma amount as w
until a child needs its table, and then the children above w are dropped.

Both sweeps spot-check the verdicts they compute for one sample: a prefix of
at most four coins when its _fingerprint is a multiple of the sample
modulus, a longer one when its 4-prefix is.  A deferred node is checked on
its lemma amount and on its w; in the sample the scan drops no node by its
mask and defers only nodes with only leaf children.  An orderly verdict is
checked by the oracle from amount 1, a failing amount by greedy counts alone
(_spot_check).

The agreement sweep iterates _oracle_walk, which yields each prefix in
preorder with its first failure w (a child inherits w under a larger coin,
else resumes its parent's oracle table), and keeps the candidate test's
state (f, pending) per depth, extended from the level above by greedy counts
alone; every leaf's f must equal w.  Neither side calls the other's test.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .canonicality import InternalDisagreementError, _candidate_step, _min_counterexample
from .canonicality import _one_point, _pair_counterexample, _scan_from
from .core import CoinSystem, _check_cap, _greedy_count
from .families import FamilyParams, _target_marks, family_membership


# ---------- shared tree machinery ----------


def _fingerprint(values: tuple[int, ...]) -> int:
    h = 2166136261
    for v in values:
        h = ((h ^ v) * 16777619) & 0xFFFFFFFF
    return h


def _extend_verdict(child: tuple[int, ...]) -> int | None:
    """None if child = an orderly parent + one coin is orderly, else a
    failing amount of child (not necessarily minimal)."""
    orderly, m, _ = _one_point(child)
    return None if orderly else m * child[-2]


def _spot_check(values: tuple[int, ...], w: int | None) -> None:
    """Check a sweep verdict: orderly against the oracle, and a failing
    amount w by a coin d <= w with greedy(w - d) + 1 < greedy(w), which
    proves w fails as opt(w) <= opt(w - d) + 1 <= greedy(w - d) + 1.

    Every w a sweep computes has such a d.  At a minimal counterexample, d
    is a coin of an optimal form of w, and greedy is optimal on w - d < w.
    At the two-coin-sum lemma's x + y, d = x, as greedy(y) = 1; the sweeps
    take y = c(n-1), so d = c(n-1) serves too.  At the one-point amount
    m*c(n-1) of _extend_verdict, d = c(n-1): greedy pays (m - 1)*c(n-1) < cn
    with m - 1 coins, and m*c(n-1) with more than m.  So coins are tried
    from the top down.
    """
    if w is None:
        if _min_counterexample(values) is not None:
            raise InternalDisagreementError(
                f"sweep verdict orderly disagrees with the oracle on {values}"
            )
        return
    g = _greedy_count(values, w) - 1
    if not any(_greedy_count(values, w - d) < g for d in reversed(values) if d <= w):
        raise InternalDisagreementError(f"sweep witness {w} is not a counterexample of {values}")


def _lemma_masks(S: int, R: int, max_cn: int, c: int) -> tuple[int, int]:
    """(S, R) after the coin c, from a prefix's own: S has bit s iff the lemma
    passes the leaf p + s over the top coin p, R bit max_cn - x per coin x
    (proof: _pair_counterexample); (1,) has (-2, 1 << (max_cn - 1))."""
    return S & (R >> (max_cn - c) | -(1 << c)), R | 1 << (max_cn - c)


def _sample_modulus(sample_rate: float) -> int:
    if not 0.0 <= sample_rate <= 1.0:
        raise ValueError("sample rate must be within [0, 1]")
    # k = round(1 / rate) samples 1/k of the fingerprints; all lie below 2**32
    return round(min(1.0 / sample_rate, 2.0**32)) if sample_rate else 0


def _orderly_leaves(values, bits, w, grd, scanned, lo, cap, sampled) -> list[tuple]:
    """The orderly leaves values + (c,) with c in [lo, min(w, cap)], for a
    node whose children are all leaves; bits has bit x set per coin x.

    w is None if values is orderly.  Else it is the minimal counterexample,
    with grd reaching it, once values is scanned, and before that the
    two-coin-sum lemma's amount a (canonicality._pair_counterexample), with
    grd the parent's table.  Scans resume at the end of grd.  A leaf takes
    the lemma's failing amount if any and is scanned only otherwise.  As
    w <= a < c(k-1) + p < 2p for the top coin p (Kozen & Zaks), and the lemma
    with x = y = p rejects a leaf c < 2p unless 2p - c is a coin, a
    non-orderly node tries only c = 2p - x for its coins x.  Unscanned, it is
    scanned at the first that the lemma passes, which is dropped if it lies
    above the new w.  The conjecture scan, outside its sample, sends a node
    here only if its lemma mask (_lemma_masks) passes a leaf in range.  If
    sampled, each verdict found here, a new w too, is spot-checked.  Leaves
    take the flag, even in a census of three or four.
    """
    p = values[-1]
    p2 = 2 * p
    hi = cap if w is None or w > cap else w
    leaves = []
    for x in range(p2 - lo, p2 - hi - 1, -1) if w is None else values[-2::-1]:
        c = p2 - x
        if c > hi:
            break
        if c < lo:
            continue
        cw = _pair_counterexample(bits, p, c)
        if cw is None:
            if not scanned:
                grd = grd[:p]
                w, scanned = _scan_from(values, grd), True
                if sampled:
                    _spot_check(values, w)
                hi = w if w < cap else cap
                if c > hi:
                    break
            leaf = values + (c,)
            cw = _scan_from(leaf, grd[:c])
            if cw is None:
                leaves.append(leaf)
        if sampled:
            _spot_check(values + (c,), cw)
    return leaves


# ---------- pattern census ----------


def _census_partition(args: tuple[int, int, int, int]) -> dict[str, int]:
    n, max_cn, c2, sample_mod = args
    counts: dict[str, int] = {}

    def settle(values, marks, w, grd, sampled, bits, scanned=True) -> None:
        p = values[-1]
        plus = len(_orderly_leaves(values, bits, w, grd, scanned, p + 1, max_cn, sampled))
        for mark, count in ("+", plus), ("-", max_cn - p - plus):
            if count:
                counts[marks + mark] = counts.get(marks + mark, 0) + count

    hit = sample_mod > 0 and _fingerprint((1, c2)) % sample_mod == 0
    stack = [((1, c2), "++", None, [0], hit, 2 | 1 << c2)]
    if n == 3:
        settle(*stack.pop())
    while stack:
        # w is None when values is orderly; otherwise it is the minimal
        # counterexample, above every coin (each is at most its parent's w),
        # and grd reaches it.  bits has bit x set for each coin x.
        values, marks, w, grd, sampled, bits = stack.pop()
        head = sample_mod > 0 and len(values) < 4  # children of <= 4 coins: by fingerprint
        remaining = n - len(values) - 1
        top = max_cn - remaining
        p = values[-1]
        for c in range(p + 1, (top if w is None else min(w, top)) + 1):
            child = values + (c,)
            cgrd = grd
            cw = None if remaining > 1 else _pair_counterexample(bits, p, c)
            if cw is None:
                cgrd = grd[:c]
                cw = _scan_from(child, cgrd)
            hit = _fingerprint(child) % sample_mod == 0 if head else sampled
            if hit:
                _spot_check(child, cw)
            cmarks = marks + ("+" if cw is None else "-")
            if remaining > 1:
                stack.append((child, cmarks, cw, cgrd, hit, bits | 1 << c))
            elif cw is not None and 2 * c - p > min(cw, max_cn):  # no survivor leaf to try
                counts[cmarks + "-"] = counts.get(cmarks + "-", 0) + max_cn - c
            else:
                settle(child, cmarks, cw, cgrd, hit, bits | 1 << c, cgrd is not grd)
        if w is not None and w < top:
            # every prefix under a coin above w keeps w: its leaves are all
            # '-', one per choice of the remaining + 1 coins from w + 1 up
            tail = marks + "-" * (remaining + 1)
            counts[tail] = counts.get(tail, 0) + comb(max_cn - w, remaining + 1)
    return counts


def _check_bounds(n: int, max_cn: int) -> None:
    """The census and the agreement sweep take n >= 3 values up to max_cn,
    and no table past the widest window c(n-1) + cn - 1."""
    if n < 3:
        raise ValueError("need n >= 3")
    if max_cn < n:
        raise ValueError("max_cn must be at least n, otherwise no systems exist")
    _check_cap(2 * max_cn - 2)


def pattern_census(
    n: int, max_cn: int, *, jobs: int = 1, sample_rate: float = 0.01
) -> dict[str, int]:
    """Count the systems with n values bounded by max_cn by orderliness
    pattern, identically for any job count: partitions are split by c2 and
    merged in order."""
    _check_bounds(n, max_cn)
    mod = _sample_modulus(sample_rate)
    args = [(n, max_cn, c2, mod) for c2 in range(2, max_cn - n + 3)]
    partials = _run_partitions(_census_partition, args, jobs)
    return dict(sorted(sum(map(Counter, partials), Counter()).items()))


def _run_partitions(worker, args: list, jobs: int) -> list:
    processes = min(jobs, len(args), os.cpu_count() or 1)
    if processes <= 1:
        return [worker(a) for a in args]
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(worker, args)


# ---------- conjecture scan ----------


@dataclass(frozen=True)
class ConjectureFinding:
    """A system whose pattern is (+++-...-+), oracle-verified, with its
    family identification when one exists."""

    system: CoinSystem
    membership: FamilyParams | None


@dataclass(frozen=True)
class ConjectureSummary:
    total: int
    without_membership: tuple[ConjectureFinding, ...]
    forbidden_length: tuple[ConjectureFinding, ...]

    @property
    def ok(self) -> bool:
        return not self.without_membership and not self.forbidden_length


def summarize_findings(findings: Iterable[ConjectureFinding]) -> ConjectureSummary:
    """Tally conjecture violations: findings outside the known families, and
    findings with 3r+1 values for r >= 2."""
    findings = list(findings)
    missing = tuple(f for f in findings if f.membership is None)
    bad_len = tuple(f for f in findings if len(f.system) % 3 == 1 and len(f.system) >= 7)
    return ConjectureSummary(len(findings), missing, bad_len)


def _scan_partition(
    args: tuple[tuple[int, ...], int, int, int]
) -> dict[int, list[tuple[int, ...]]]:
    lengths, max_cn, c2, sample_mod = args
    # top[d], the largest coin at depth d, leaves room for the shortest
    # requested length >= d; a child at depth d from top[d + 1] up leaves no
    # room for a longer length, so it is a leaf (past the deepest length, 0,
    # three times over, as a node's loop reads top[depth + 3])
    top = [max_cn - min(n for n in lengths if n >= d) + d for d in range(lengths[-1] + 1)] + [0] * 3
    found: dict[int, list[tuple[int, ...]]] = {n: [] for n in lengths}
    masks = _lemma_masks(-2, 1 << max_cn - 1, max_cn, c2)
    stack = [((1, c2), 2 | 1 << c2, *masks, None, None, False, True)]
    while stack:
        values, bits, S, R, w, grd, sampled, scanned = stack.pop()
        depth = len(values) + 1
        p = values[-1]
        if w is None:
            # (1, c2) or an orderly 3-prefix, so the one-point test is exact
            # on its children: the first three marks must be '+', the fourth '-'
            for c in range(p + 1, top[depth] + 1):
                child, masks = values + (c,), _lemma_masks(S, R, max_cn, c)
                cw = _extend_verdict(child)
                hit = sample_mod > 0 and _fingerprint(child) % sample_mod == 0
                if cw is None and depth == 3:
                    stack.append((child, bits | 1 << c, *masks, None, None, False, True))
                elif cw is not None and depth == 4:
                    cgrd = [0]
                    cw = _scan_from(child, cgrd)
                    stack.append((child, bits | 1 << c, *masks, cw, cgrd, hit, True))
                if hit:
                    _spot_check(child, cw)
            continue
        # values is not orderly, w is its minimal counterexample and grd
        # reaches it (unscanned: its lemma amount, and its parent's table).  A
        # child above w keeps it, so the children stop at w.  A child from
        # lo - 1 up has only leaf children, one from lo2 - 2 up only those
        # and all-leaf children.
        leaf_from, lo, lo2 = top[depth + 1 : depth + 4]
        for c in range(p + 1, (w if w < leaf_from else leaf_from - 1) + 1):
            cS, cR = _lemma_masks(S, R, max_cn, c)
            leafy, cw = c + 1 >= lo, None
            if (leafy or not sampled and c + 2 >= lo2) and not S >> c - p & 1:
                # the lemma rejects child: if leafy, dropped if cS passes no leaf
                if leafy and not (sampled or cS & (2 << leaf_from - c) - 2):
                    continue
                cw = _pair_counterexample(bits, p, c)
                if not leafy:  # deferred: scanned once a child needs its table
                    stack.append((values + (c,), bits | 1 << c, cS, cR, cw, grd, False, False))
                    continue
                if not (sampled or cS & (2 << min(cw, leaf_from) - c) - 2):
                    continue  # or none up to the lemma's amount
            if not scanned:
                grd = grd[:p]
                w, scanned = _scan_from(values, grd), True
            if c > w:
                break
            child, cgrd = values + (c,), grd
            if cw is None or not leafy:
                cgrd = grd[:c]
                cw = _scan_from(child, cgrd)
            if sampled:
                _spot_check(child, cw)
            if cw is None:
                if depth in found:
                    found[depth].append(child)
            elif not leafy:
                stack.append((child, bits | 1 << c, cS, cR, cw, cgrd, sampled, True))
            elif sampled or cS & (2 << min(cw, leaf_from) - c) - 2:  # a survivor leaf
                found[depth + 1] += _orderly_leaves(
                    child, bits | 1 << c, cw, cgrd, cgrd is not grd, lo, leaf_from, sampled
                )
        if depth in found and leaf_from <= w:
            # its own leaves p + s, s from first to last, if the lemma passes one
            first, last = max(leaf_from - p, 1), min(w, top[depth]) - p
            if sampled or S & (2 << last) - (1 << first):
                found[depth] += _orderly_leaves(
                    values, bits, w, grd, scanned, leaf_from, top[depth], sampled
                )
    # the walk pops nodes out of lexicographic order
    return {n: sorted(found[n]) for n in found}


def _oracle_marks(values: tuple[int, ...]) -> str:
    marks = ["+"] * min(len(values), 2)
    for k in range(3, len(values) + 1):
        marks.append("+" if _min_counterexample(values[:k]) is None else "-")
    return "".join(marks)


def conjecture_scan(
    lengths: Iterable[int], max_cn: int, *, jobs: int = 1, sample_rate: float = 0.01
) -> list[ConjectureFinding]:
    """Find every system with pattern (+++-...-+) within the bounds.

    One walk of each c2 partition serves every requested length.  Findings
    come per requested length, in the order the lengths are given (a repeated
    length repeats its findings), and in lexicographic order within a length.
    Each finding is re-verified prefix by prefix against the oracle and
    looked up in the fixed-gap families.  The verdicts in the module's sample
    are spot-checked, a deferred node's lemma amount and w both.
    """
    lengths = list(lengths)
    mod = _sample_modulus(sample_rate)
    if any(n < 5 for n in lengths):
        raise ValueError("the target pattern needs at least five values")
    walked = tuple(sorted({n for n in lengths if n <= max_cn}))
    if not walked:
        return []
    _check_cap(2 * max_cn - 2)
    args = [(walked, max_cn, c2, mod) for c2 in range(2, max_cn - walked[0] + 3)]
    partials = _run_partitions(_scan_partition, args, jobs)
    findings: list[ConjectureFinding] = []
    for n in lengths:
        for part in partials:
            for values in part.get(n, ()):
                if _oracle_marks(values) != _target_marks(n):
                    raise InternalDisagreementError(
                        f"scan emitted {values} but the oracle rejects its pattern"
                    )
                system = CoinSystem(values)
                findings.append(ConjectureFinding(system, family_membership(system)))
    return findings


# ---------- verdict agreement sweep ----------


def _oracle_walk(n: int, max_cn: int, c2: int):
    """Yield (values, w), w the minimal counterexample or None, for every
    prefix of length 3..n under (1, c2) of the systems with n values bounded
    by max_cn, in preorder (lexicographic order).  A child above w inherits
    w; any other resumes its parent's table, [0] at the root."""
    stack = [((1, c2), None, [0])]
    while stack:
        values, w, grd = stack.pop()
        depth = len(values) + 1
        if depth > 3:
            yield values, w
        cs = range(values[-1] + 1, max_cn - (n - depth) + 1)
        for c in cs if depth == n else reversed(cs):
            child = values + (c,)
            cgrd, cw = grd, w
            if w is None or c <= w:
                cgrd = grd[:c]
                cw = _scan_from(child, cgrd)
            if depth == n:
                yield child, cw
            else:
                stack.append((child, cw, cgrd))


def _agreement_partition(args: tuple[int, int, int]) -> tuple[int, list[tuple[int, ...]]]:
    n = args[0]
    checked = 0
    disagreements: list[tuple[int, ...]] = []
    # state[k] is the candidate state (f, pending) of the current k-prefix
    state = [(None, [])] * (n + 1)
    for values, w in _oracle_walk(*args):
        k = len(values)
        f, _ = state[k] = _candidate_step(values, *state[k - 1])
        if k == n:
            checked += 1
            if f != w:
                disagreements.append(values)
    return checked, disagreements


def agreement_sweep(
    n: int, max_cn: int, *, jobs: int = 1
) -> tuple[int, list[tuple[int, ...]]]:
    """Compare the candidate test against the oracle on every system with n
    values bounded by max_cn, walked as a prefix tree on which both routes
    resume from their parents' state.  A system disagrees unless both find
    the same minimal counterexample.  Returns (systems checked,
    disagreements), the latter in lexicographic order for any jobs."""
    _check_bounds(n, max_cn)
    args = [(n, max_cn, c2) for c2 in range(2, max_cn - n + 3)]
    partials = _run_partitions(_agreement_partition, args, jobs)
    return sum(c for c, _ in partials), [v for _, bad in partials for v in bad]

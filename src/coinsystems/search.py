"""Exhaustive sweeps: the pattern census, the conjecture scan, and the
agreement sweep.

Each sweep covers the systems (1, c2, ..., cn) with coins drawn from
2..max_cn, walked in lexicographic order as a prefix tree with one partition
per c2.  Under jobs > 1 the partitions run in worker processes, no more than
there are partitions or cores, and merge in order.

The census takes each verdict from the parent's oracle table, the scan's one
table of greedy counts: over the whole window of an orderly node, up to the
minimal failing amount w of a non-orderly one, and [0] at the root (1, c2).
A child with coin c resumes the scan at c, or at the table's end if that
comes first, since c changes no count below c.  A leaf needs a failing
amount, not the minimal one, so it takes the two-coin-sum lemma's amount a
(canonicality._pair_counterexample) when there is one and is scanned only
otherwise.  A node (..., ck) with only leaf children does the same and
tallies them; if the lemma rejects it, w <= a < c(k-1) + ck < 2ck, and the
lemma with x = y = ck rejects each leaf below 2ck but 2ck - x for a coin x,
so only those are tried, and the node is scanned at the first that the lemma
passes.  Under a non-orderly node the walk stops at w: a prefix under a
larger coin keeps w (no amount below the new coin can use it), so the leaves
of those subtrees are all '-' and are counted, not walked.  A deterministic
sample of the verdicts computed is re-checked from scratch.

The conjecture scan looks for systems whose pattern is (+++-...-+).  A
pattern is a property of the chain of prefixes, so one walk of each c2
partition serves every requested length: below an orderly 3-prefix and a
non-orderly 4-prefix, a non-orderly node is descended while a longer length
is requested, and an orderly node at a requested length is a finding.  Each
non-orderly 4-prefix is scanned once and the walk resumes below it as the
census does.  Inside a subtree where every added coin exceeds the inherited
w, all leaves stay non-orderly, so no finding can appear and the subtree is
skipped.  A node no longer length can grow from is a leaf: only its own
verdict matters, so it is scanned only if the two-coin-sum lemma finds no
counterexample among the sums of c(n-1) and a coin.  The children c of a
node (..., ck) lie below 2ck (see below), where 2ck fails unless 2ck - c
is a coin, so only those leaves are tried.  A node with children that the
lemma rejects is proved not orderly, so it is no finding and is descended
unscanned.  Its amount a is a counterexample, so w <= a, and until the
scan no child above a can matter; a leaf child the lemma rejects reads no
table, so the node is scanned at its first child that does, an interior
child or a leaf the lemma passes, and from there the children stop at w as
usual.  Both w and a lie below c(k-1) + ck < 2ck (Kozen & Zaks).  Every
emitted finding is re-verified per prefix by the oracle.

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
from .core import CoinSystem, _greedy_count, _opt_table
from .families import FamilyParams, _target_marks, family_membership


# ---------- shared tree machinery ----------


def _fingerprint(values: tuple[int, ...]) -> int:
    h = 2166136261
    for v in values:
        h = ((h ^ v) * 16777619) & 0xFFFFFFFF
    return h


def _extend_verdict(child: tuple[int, ...]) -> tuple[bool, int | None]:
    """Orderliness of child = an orderly parent + one coin, with a failing
    amount (not necessarily minimal) whenever child is not orderly."""
    orderly, m, _ = _one_point(child)
    return orderly, None if orderly else m * child[-2]


def _spot_check(values: tuple[int, ...], orderly: bool, w: int | None) -> None:
    oracle_w = _min_counterexample(values)
    if (oracle_w is None) != orderly:
        raise InternalDisagreementError(
            f"sweep verdict {'orderly' if orderly else 'not orderly'} "
            f"disagrees with the oracle on {values}"
        )
    if w is not None:
        if _greedy_count(values, w) <= _opt_table(values, w)[w]:
            raise InternalDisagreementError(
                f"sweep witness {w} is not a counterexample of {values}"
            )


def _sample_modulus(sample_rate: float) -> int:
    if not 0.0 <= sample_rate <= 1.0:
        raise ValueError("sample rate must be within [0, 1]")
    if sample_rate == 0.0:
        return 0
    # fingerprints lie below 2**32, so any larger modulus samples the same
    return max(1, round(min(1.0 / sample_rate, 2.0**32)))


# ---------- pattern census ----------


def _census_partition(args: tuple[int, int, int, int]) -> dict[str, int]:
    n, max_cn, c2, sample_mod = args
    counts: dict[str, int] = {}

    def settle(values, marks, w, grd, h, bits, scanned=True) -> None:
        # values has only leaf children.  Unless scanned, w is the lemma's amount a and
        # grd the parent's table: as w <= a < c(k-1) + p < 2p, only leaves 2p - x are tried.
        p = values[-1]
        hi = max_cn if w is None or w > max_cn else w
        plus = 0
        for c in range(p + 1, hi + 1) if scanned else [2 * p - x for x in values[-2::-1]]:
            if c > hi:
                break
            cw = _pair_counterexample(bits, p, c)
            if cw is None:
                if not scanned:
                    grd = grd[:p]
                    w, scanned = _scan_from(values, grd, min(p, len(grd))), True
                    hi = w if w < max_cn else max_cn
                    if c > hi:
                        break
                cw = _scan_from(values + (c,), grd[:c], c if c < len(grd) else len(grd))
                plus += cw is None
            ch = ((h ^ c) * 16777619) & 0xFFFFFFFF
            if sample_mod and ch % sample_mod == 0:
                _spot_check(values + (c,), cw is None, cw)
        for mark, count in ("+", plus), ("-", max_cn - p - plus):
            if count:
                counts[marks + mark] = counts.get(marks + mark, 0) + count

    def rec(values, marks, w, grd, h, bits) -> None:
        # w is None when values is orderly; otherwise it is the minimal
        # counterexample, above every coin (each is at most its parent's w),
        # and grd reaches it.  bits has bit x set for each coin x.
        remaining = n - len(values) - 1
        top = max_cn - remaining
        p = values[-1]
        for c in range(p + 1, (top if w is None else min(w, top)) + 1):
            child = values + (c,)
            cgrd = grd
            cw = None if remaining > 1 else _pair_counterexample(bits, p, c)
            if cw is None:
                cgrd = grd[:c]
                cw = _scan_from(child, cgrd, min(c, len(grd)))
            # FNV-1a of child, folded on from the parent's hash
            ch = ((h ^ c) * 16777619) & 0xFFFFFFFF
            if sample_mod and ch % sample_mod == 0:
                _spot_check(child, cw is None, cw)
            cmarks = marks + ("+" if cw is None else "-")
            if remaining > 1:
                rec(child, cmarks, cw, cgrd, ch, bits | 1 << c)
            elif cgrd is grd and 2 * c - p > min(cw, max_cn):  # unscanned, no leaf to try
                counts[cmarks + "-"] = counts.get(cmarks + "-", 0) + max_cn - c
            else:
                settle(child, cmarks, cw, cgrd, ch, bits | 1 << c, cgrd is not grd)
        if w is not None and w < top:
            # every prefix under a coin above w keeps w: its leaves are all
            # '-', one per choice of the remaining + 1 coins from w + 1 up
            tail = marks + "-" * (remaining + 1)
            counts[tail] = counts.get(tail, 0) + comb(max_cn - w, remaining + 1)

    (settle if n == 3 else rec)((1, c2), "++", None, [0], _fingerprint((1, c2)), 2 | 1 << c2)
    return counts


def _check_bounds(n: int, max_cn: int) -> None:
    """The census and the agreement sweep take n >= 3 values up to max_cn."""
    if n < 3:
        raise ValueError("need n >= 3")
    if max_cn < n:
        raise ValueError("max_cn must be at least n, otherwise no systems exist")


def pattern_census(
    n: int, max_cn: int, *, jobs: int = 1, sample_rate: float = 0.01
) -> dict[str, int]:
    """Count the systems with n values bounded by max_cn by orderliness
    pattern.

    The result is identical for any job count; partitions are split by c2
    and merged in order.
    """
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
    bad_len = tuple(
        f for f in findings if len(f.system) % 3 == 1 and len(f.system) >= 7
    )
    return ConjectureSummary(
        total=len(findings), without_membership=missing, forbidden_length=bad_len
    )


def _scan_partition(
    args: tuple[tuple[int, ...], int, int, int]
) -> dict[int, list[tuple[int, ...]]]:
    lengths, max_cn, c2, sample_mod = args
    deepest = lengths[-1]
    # a coin at depth d leaves room for the shortest requested length >= d
    slack = [min(n for n in lengths if n >= d) - d for d in range(deepest + 1)]
    found: dict[int, list[tuple[int, ...]]] = {n: [] for n in lengths}

    def rec(values, bits, w, grd, h, scanned=True) -> None:
        # bits has bit x set for each coin x.  w is None while values is an
        # orderly 2- or 3-prefix.  Otherwise values is not orderly and w is a
        # counterexample: once values is scanned, the minimal one, with the
        # greedy counts up to w in grd; before that, the two-coin-sum lemma's
        # amount, with grd the parent's table.  The minimal counterexample is
        # at most w either way, and a child above it keeps it (no amount below
        # the new coin can use it), so every leaf below that child stays '-':
        # the children stop at w.
        depth = len(values) + 1
        top = max_cn - slack[depth]
        # a child from this coin up leaves no room for a longer length
        leaf_from = 0 if depth == deepest else max_cn - slack[depth + 1]
        p = values[-1]
        if depth <= 4:
            for c in range(p + 1, top + 1):
                # the first three marks must be '+', the fourth '-'
                child = values + (c,)
                orderly, cw = _extend_verdict(child)
                ch = ((h ^ c) * 16777619) & 0xFFFFFFFF
                if sample_mod and ch % sample_mod == 0:
                    _spot_check(child, orderly, cw)
                if orderly and depth == 3:
                    rec(child, bits | 1 << c, None, None, ch)
                elif not orderly and depth == 4:
                    cgrd = [0]
                    rec(child, bits | 1 << c, _scan_from(child, cgrd, 1), cgrd, ch)
            return
        hi = w if w < top else top  # not min(), whose call costs at every node
        if p + 1 < leaf_from:
            if not scanned:
                # an interior child reads the table, so scan before the first
                grd = grd[:p]
                w, scanned = _scan_from(values, grd, p), True
                hi = w if w < top else top
            for c in range(p + 1, (hi if hi < leaf_from else leaf_from - 1) + 1):
                child = values + (c,)
                cw = _pair_counterexample(bits, p, c)
                if cw is not None:
                    rec(child, bits | 1 << c, cw, grd, h, False)
                    continue
                cgrd = grd[:c]
                cw = _scan_from(child, cgrd, c)
                if cw is not None:
                    rec(child, bits | 1 << c, cw, cgrd, h)
                elif depth in found:
                    found[depth].append(child)
        # every child lies below w < c(k-1) + p < 2p, and the lemma with
        # x = y = p passes a leaf c < 2p only if 2p - c is a coin
        for x in values[-2::-1]:
            c = 2 * p - x
            if c > hi:
                break
            if c < leaf_from or _pair_counterexample(bits, p, c) is not None:
                continue
            if not scanned:
                grd = grd[:p]
                w, scanned = _scan_from(values, grd, p), True
                hi = min(w, top)
            cgrd = grd[:c]
            if c <= hi and _scan_from(values + (c,), cgrd, c) is None:
                found[depth].append(values + (c,))

    rec((1, c2), 2 | 1 << c2, None, None, _fingerprint((1, c2)))
    return found


def _oracle_marks(values: tuple[int, ...]) -> str:
    marks = ["+"] * min(len(values), 2)
    for k in range(3, len(values) + 1):
        marks.append("+" if _min_counterexample(values[:k]) is None else "-")
    return "".join(marks)


def conjecture_scan(
    lengths: Iterable[int],
    max_cn: int,
    *,
    jobs: int = 1,
    sample_rate: float = 0.01,
) -> list[ConjectureFinding]:
    """Find every system with pattern (+++-...-+) within the bounds.

    One walk of each c2 partition serves every requested length.  Findings
    come per requested length, in the order the lengths are given (a repeated
    length repeats its findings), and in lexicographic order within a length.
    Each finding is re-verified prefix by prefix against the oracle and
    looked up in the fixed-gap families; each sampled 3- or 4-prefix is
    spot-checked once.
    """
    lengths = list(lengths)
    mod = _sample_modulus(sample_rate)
    if any(n < 5 for n in lengths):
        raise ValueError("the target pattern needs at least five values")
    walked = tuple(sorted({n for n in lengths if n <= max_cn}))
    if not walked:
        return []
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
                cw = _scan_from(child, cgrd, min(c, len(grd)))
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

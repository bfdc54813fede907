"""The benchmark's workloads: what each one runs, made from the seed.

Every workload is a *round*, a fixed list of operations run in order and
repeated whole a fixed number of times (``rounds``), plus *extra* operations run once after
the measurement to give the correctness checks something small enough for
the reference to redo.  An operation is either a CLI command line, run
in-process through ``coinsystems.cli.main``, or the library's
``agreement_sweep(n, max_cn)``, which has no CLI command.

The sweeps are fixed-size enumerations, so their inputs do not depend on the
seed.  The ``queries`` stream is drawn from the seed, stratified so that
every seed gives the same mix of commands, lengths and top-coin sizes.
"""

from __future__ import annotations

import math
import random
from math import comb

# The program's default DP table cap (coinsystems.core.DEFAULT_VALUE_CAP):
# the oracle refuses a window c(n-1) + cn - 1 above it.
DP_CAP = 10**7

SCAN_LENGTHS = (5, 6, 7, 8)
SCAN_MAX = 36
CENSUS_N, CENSUS_MAX = 7, 30
AGREEMENT_N, AGREEMENT_MAX = 6, 40

# smaller bounds the reference redoes in full
SCAN_CHECK_LENGTHS, SCAN_CHECK_MAX = (5, 6), 24
CENSUS_CHECK_MAX = 16

# Wall time of one untraced round of each workload on a 2.1 GHz Xeon.  A
# run measures rounds(name, seconds) whole rounds: about ``seconds`` of work,
# and the same number of rounds in every run of a given length.  Were the
# count instead "as many as fit", a round that lasts about as long as the
# run would give one round on some runs and two on others, and the metrics
# would follow the count.
ROUND_S = {"scan": 7.0, "census": 2.7, "agreement": 8.5, "queries": 10.5}


def rounds(name, seconds):
    return max(1, round(seconds / ROUND_S[name]))


# systems in each sweep's bounded enumeration: (1, c2, ..., cn) with
# 2 <= c2 < ... < cn <= max
SWEEP_SIZES = {
    "scan": sum(comb(SCAN_MAX - 1, n - 1) for n in SCAN_LENGTHS),
    "census": comb(CENSUS_MAX - 1, CENSUS_N - 1),
    "agreement": comb(AGREEMENT_MAX - 1, AGREEMENT_N - 1),
}

# seeded queries per round: the same number of each command
QUERY_COMMANDS = ("check", "check --pearson", "pattern", "classify", "family")
QUERIES_PER_COMMAND = 600
QUERY_TOP_RANGE = (20, 10**5)
QUERY_LENGTHS = range(3, 13)

# check --pearson on systems whose window exceeds DP_CAP: the verdict comes
# from the candidate test, but the witness is located by an oracle scan of
# the whole window, which refuses with ResourceLimitError although the
# minimal counterexample is tiny.  Fixed inputs, so the failed share is the
# same for every seed.
OVER_CAP_SYSTEMS = (
    (1, 3, 4, 100_000_000),
    (1, 2, 5, 6, 20_000_000),
    (1, 5, 15, 20, 30_000_000),
)


def cli_op(argv, ok_exits=(0,), expect_failure=False):
    return {
        "cli": [str(a) for a in argv],
        "ok_exits": list(ok_exits),
        "expect_failure": expect_failure,
    }


def system_arg(values):
    return ",".join(str(v) for v in values)


def build(name, seed):
    """(round, extra) operation lists for workload ``name``."""
    if name == "scan":
        lengths = ",".join(str(n) for n in SCAN_LENGTHS)
        check_lengths = ",".join(str(n) for n in SCAN_CHECK_LENGTHS)
        # exit status 1 reports the non-family finding (1,2,4,5,7,9,12,17)
        return (
            [cli_op(["conjecture", "--n", lengths, "--max", SCAN_MAX], (0, 1))],
            [cli_op(["conjecture", "--n", check_lengths, "--max", SCAN_CHECK_MAX], (0, 1))],
        )
    if name == "census":
        return (
            [cli_op(["enumerate", "--n", CENSUS_N, "--max", CENSUS_MAX])],
            [cli_op(["enumerate", "--n", CENSUS_N, "--max", CENSUS_CHECK_MAX])],
        )
    if name == "agreement":
        return [{"agreement": [AGREEMENT_N, AGREEMENT_MAX]}], []
    if name == "queries":
        return query_stream(random.Random(seed)), []
    raise ValueError(f"unknown workload {name!r}")


# ---------- the queries stream ----------


def _stratified_tops(rng, count):
    """``count`` top coins, log-uniform over QUERY_TOP_RANGE, one drawn from
    each of ``count`` equal slices of the log range."""
    lo, hi = (math.log(x) for x in QUERY_TOP_RANGE)
    return [round(math.exp(lo + (j + rng.random()) / count * (hi - lo))) for j in range(count)]


def _stratified_lengths(rng, count, lengths):
    """Lengths cycling through ``lengths`` in a fresh shuffled order per
    block, so each block of neighbouring tops sees every length once."""
    out = []
    while len(out) < count:
        block = list(lengths)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def random_system(rng, n, top):
    return (1,) + tuple(sorted(rng.sample(range(2, top), n - 2))) + (top,)


def _extends_orderly(values, c):
    """One-point test (Magazine, Nemhauser & Trotter): an orderly system
    with largest coin p stays orderly with new coin c exactly when greedy
    spends at most m = ceil(c/p) coins on m*p."""
    p = values[-1]
    m = -(-c // p)
    rest, used = m * p, 0
    for coin in reversed(values + (c,)):
        q, rest = divmod(rest, coin)
        used += q
    return used <= m


def orderly_system(rng, n, top):
    """A totally orderly system of n values whose coins grow roughly
    geometrically towards ``top``; the last coin lands near it."""
    values = (1,)
    for k in range(1, n):
        ratio = (top / values[-1]) ** (1 / (n - k))
        c = max(values[-1] + 1, round(values[-1] * ratio * rng.uniform(0.85, 1.15)))
        while not _extends_orderly(values, c):
            c += 1
        values += (c,)
    return values


def _six_value_template(rng):
    """A system from one of the parametric six-value cases, by its formula."""
    label = rng.choice(["1a", "1b", "1c", "2a", "2b"])
    if label == "1a":
        a = rng.randint(5, 400)
        return (1, 2, 3, a, a + 1, 2 * a)
    a = rng.randint(2, 40)
    q = 2 * a - 1
    if label in ("1b", "1c"):
        b = rng.randint(3 * a - 1, 30 * a)
        if label == "1b":
            if b == 3 * a:
                b += 1
            return (1, a, 2 * a, b, b + a, 2 * b)
        return (1, a, q, b, b + a - 1, 2 * b - 1)
    a = max(a, 3)
    q = 2 * a - 1
    if label == "2a":
        m = rng.randint(2, a - 1)
        return (1, a, q, m * q - (a - 1), m * q, (2 * m - 1) * q)
    m = rng.randint(2, a)
    return (1, a, 2 * a, m * q - (a - 1), m * q + 1, (2 * m - 1) * q + 1)


def _family_args(rng, j):
    family = "DEF"[j % 3]
    if family == "D":
        return ["family", "D", "--r", rng.randint(1, 3), "--a", rng.randint(2, 30)]
    a = rng.randint(3 if family == "E" else 2, 30)
    m = rng.randint(2, a - 1 if family == "E" else a)
    return ["family", family, "--r", rng.randint(2, 4), "--a", a, "--m", m]


def _near_cap_system(rng):
    """A small non-orderly prefix topped so the oracle window is exactly
    DP_CAP amounts; the minimal counterexample stays that of the prefix."""
    prefix = rng.choice([(1, 3, 4), (1, 2, 5, 6), (1, 5, 15, 20), (1, 4, 6, 9)])
    return prefix + (DP_CAP + 1 - prefix[-1],)


def query_stream(rng):
    """One round of the queries workload: single-system commands in a
    seeded order.  Per round: QUERIES_PER_COMMAND of each of QUERY_COMMANDS,
    one ``check`` and one ``check --pearson`` on a system at the DP cap, and
    one ``check --pearson`` on each OVER_CAP_SYSTEMS entry.

    For ``check``, ``check --pearson`` and ``pattern``, half the systems
    have random coins below the top coin: almost all are non-orderly with a
    small counterexample, so the oracle stops early and the witness is built.
    The other half are totally orderly, so the oracle scans the whole
    Kozen-Zaks window; ``check`` on these makes most of the slow end.
    ``classify`` takes random, orderly and six-value template systems in
    turn, so that the parametric labels are reached.  Each kind of system draws its
    lengths stratified on its own, so that the slow end sees every length
    equally often in every seed."""
    ops = []
    count = QUERIES_PER_COMMAND
    for command in QUERY_COMMANDS:
        if command == "family":
            ops += [cli_op(_family_args(rng, j)) for j in range(count)]
            continue
        tops = _stratified_tops(rng, count)
        kinds = 3 if command == "classify" else 2
        lengths = [
            _stratified_lengths(rng, -(-count // kinds), range(3, 7) if kinds == 3 else QUERY_LENGTHS)
            for _ in range(kinds)
        ]
        for j, top in enumerate(tops):
            kind = j % kinds
            n = lengths[kind][j // kinds]
            if kind == 0:
                values = random_system(rng, n, top)
            elif kind == 1:
                values = orderly_system(rng, n, top)
            else:
                values = _six_value_template(rng)
            ops.append(cli_op(command.split()[:1] + [system_arg(values)] + command.split()[1:]))
    near = _near_cap_system(rng)
    ops.append(cli_op(["check", system_arg(near)]))
    ops.append(cli_op(["check", system_arg(near), "--pearson"]))
    ops += [
        cli_op(["check", system_arg(values), "--pearson"], expect_failure=True)
        for values in OVER_CAP_SYSTEMS
    ]
    rng.shuffle(ops)
    return ops

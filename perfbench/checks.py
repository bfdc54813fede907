"""Correctness checks of each workload's outputs against the reference.

Each ``check_<workload>`` takes the round's operations, the outputs of its
first round and the outputs of its extra operations, and returns a list of
problems; an empty list means every output is right.  Failed operations are
not checked here: they are counted by the caller.
"""

from __future__ import annotations

import json
import subprocess
import sys
from math import comb

import children
import reference as ref
import workloads as wl


def _records(output):
    return [json.loads(line) for line in output["stdout"].splitlines() if line.strip()]


def _values(text):
    """A comma-separated system or count vector as a tuple."""
    return tuple(int(v) for v in text.split(","))


# ---------- scan ----------


def _check_findings(output, lengths, max_cn):
    """Problems with one conjecture command's output."""
    problems = []
    *records, summary = _records(output)
    summary = summary.get("summary", {})
    members = ref.family_members(lengths, max_cn)
    found = set()
    outside = forbidden = 0
    for rec in records:
        values = _values(rec["system"])
        found.add(values)
        if ref.pattern(values) != ref.target_pattern(len(values)):
            problems.append(f"scan emitted {values} with pattern {ref.pattern(values)}")
        if rec.get("pattern") != ref.target_pattern(len(values)) or rec.get("orderly") is not True:
            problems.append(f"scan record for {values} misstates its pattern: {rec}")
        member = members.get(values)
        if member is None:
            outside += 1
            if "family" in rec:
                problems.append(f"scan names a family for non-member {values}")
        else:
            family, r, a, m = member
            params = f"r={r},a={a}" + ("" if m is None else f",m={m}")
            if rec.get("family") != family or rec.get("params") != params:
                problems.append(f"scan misnames {values}: {rec}, expected {family} {params}")
        if len(values) % 3 == 1 and len(values) >= 7:
            forbidden += 1
    for values in members:
        if values not in found:
            problems.append(f"scan misses family member {values}")
    expected = {"findings": len(records), "without_membership": outside, "forbidden_length": forbidden}
    if summary != expected:
        problems.append(f"scan summary {summary}, expected {expected}")
    want_exit = 1 if outside or forbidden else 0
    if output["exit"] != want_exit:
        problems.append(f"scan exited {output['exit']}, expected {want_exit}")
    return problems, found


def check_scan(ops, outputs, extras):
    problems, _ = _check_findings(outputs[0], wl.SCAN_LENGTHS, wl.SCAN_MAX)
    small, found = _check_findings(extras[0], wl.SCAN_CHECK_LENGTHS, wl.SCAN_CHECK_MAX)
    problems += small
    expected = {
        values
        for n in wl.SCAN_CHECK_LENGTHS
        for values in ref.target_systems(n, wl.SCAN_CHECK_MAX)
    }
    if found != expected:
        problems.append(
            f"scan at max {wl.SCAN_CHECK_MAX}: missing {sorted(expected - found)}, "
            f"extra {sorted(found - expected)}"
        )
    return problems


# ---------- census ----------


def _census(output):
    return {rec["pattern"]: rec["count"] for rec in _records(output)}


def check_census(ops, outputs, extras):
    problems = []
    counts = _census(outputs[0])
    total = comb(wl.CENSUS_MAX - 1, wl.CENSUS_N - 1)
    if sum(counts.values()) != total:
        problems.append(f"census counts sum to {sum(counts.values())}, expected {total}")
    if counts.get("+++-+-+", 0) != 0:
        problems.append(f"census finds {counts['+++-+-+']} systems with pattern +++-+-+")
    for marks in counts:
        if len(marks) != wl.CENSUS_N or not marks.startswith("++") or set(marks) - set("+-"):
            problems.append(f"census reports impossible pattern {marks!r}")
    small = _census(extras[0])
    expected = ref.census(wl.CENSUS_N, wl.CENSUS_CHECK_MAX)
    if small != expected:
        problems.append(f"census at max {wl.CENSUS_CHECK_MAX} is {small}, expected {expected}")
    return problems


# ---------- agreement ----------


def check_agreement(ops, outputs, extras):
    out = outputs[0]
    expected = comb(wl.AGREEMENT_MAX - 1, wl.AGREEMENT_N - 1)
    problems = []
    if out["checked"] != expected:
        problems.append(f"agreement checked {out['checked']} systems, expected {expected}")
    if out["disagreements"]:
        problems.append(f"agreement reports disagreements {out['disagreements'][:5]}")
    return problems


# ---------- queries ----------


def _check_witness(values, rec):
    """A check record against the reference verdict and witness."""
    problems = []
    m = ref.min_counterexample(values)
    if rec.get("orderly") != (m is None):
        return [f"check {values}: orderly={rec.get('orderly')}, reference counterexample {m}"]
    if m is None:
        return []
    if rec.get("min_counterexample") != m:
        problems.append(f"check {values}: counterexample {rec.get('min_counterexample')}, expected {m}")
    greedy = _values(rec["greedy_repr"])
    optimal = _values(rec["optimal_repr"])
    if ref.representation_value(values, greedy) != m or sum(greedy) != rec["greedy_count"]:
        problems.append(f"check {values}: greedy form {greedy} does not make {m} with {rec['greedy_count']} coins")
    if ref.representation_value(values, optimal) != m or sum(optimal) != rec["opt_count"]:
        problems.append(f"check {values}: optimal form {optimal} does not make {m} with {rec['opt_count']} coins")
    if greedy != ref.greedy_counts(values, m):
        problems.append(f"check {values}: greedy form {greedy}, expected {ref.greedy_counts(values, m)}")
    if optimal != ref.lex_smallest_optimal(values, m):
        problems.append(
            f"check {values}: optimal form {optimal}, expected lex-smallest "
            f"{ref.lex_smallest_optimal(values, m)}"
        )
    return problems


def _check_classify(values, rec):
    verdict = ref.is_orderly(values)
    if rec.get("orderly") != verdict:
        return [f"classify {values}: orderly={rec.get('orderly')}, reference {verdict}"]
    if len(values) != 6:
        return []
    label = rec.get("case_label")
    if not verdict:
        return [] if label == "not-orderly" else [f"classify {values}: label {label} for a non-orderly system"]
    problems = []
    if ref.SIX_VALUE_PATTERNS.get(label) != ref.pattern(values):
        problems.append(f"classify {values}: label {label} but pattern {ref.pattern(values)}")
    if "params" in rec:
        params = dict(kv.split("=") for kv in rec["params"].split(","))
        params = {k: int(v) for k, v in params.items()}
        if ref.six_value_template(label, **params) != values:
            problems.append(f"classify {values}: {label} {params} regenerates something else")
    return problems


def _check_family(argv, rec):
    family = argv[1]
    opts = {argv[i].lstrip("-"): int(argv[i + 1]) for i in range(2, len(argv), 2)}
    values = ref.family_system(family, opts["r"], opts["a"], opts.get("m"))
    problems = []
    if _values(rec["system"]) != values:
        problems.append(f"family {argv[1:]}: system {rec['system']}, expected {values}")
    marks = ref.pattern(values)
    if rec.get("pattern") != ref.target_pattern(len(values)) or rec.get("pattern") != marks:
        problems.append(f"family {argv[1:]}: pattern {rec.get('pattern')}, reference {marks}")
    return problems


def check_query(argv, output):
    """Problems with the output of one single-system command."""
    (rec,) = _records(output)
    command = argv[0]
    if command == "family":
        return _check_family(argv, rec)
    values = _values(argv[1])
    if _values(rec["system"]) != values:
        return [f"{command} {argv[1]}: record is for {rec['system']}"]
    if command == "check":
        return _check_witness(values, rec)
    if command == "pattern":
        marks = ref.pattern(values)
        if rec.get("pattern") != marks or rec.get("orderly") != (marks[-1] == "+"):
            return [f"pattern {values}: {rec}, reference {marks}"]
        return []
    if command == "classify":
        return _check_classify(values, rec)
    return [f"unexpected command {argv}"]


def _check_queries(pairs):
    return [p for argv, output in pairs for p in check_query(argv, output)]


def check_queries(ops, outputs, extras):
    """Every command that did not fail, split over two child processes: the
    reference redoes each oracle scan, as slow as the program's own.  The
    children are plain ``checks.py`` processes, each killed if it is still
    running on the way out, and waited for."""
    pairs = [
        (op["cli"], output)
        for op, output in zip(ops, outputs)
        if "error" not in output and output["exit"] in op["ok_exits"]
    ]
    procs = []
    try:
        for half in (pairs[0::2], pairs[1::2]):
            proc = children.popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            procs.append(proc)
            proc.stdin.write(json.dumps(half))
            proc.stdin.close()
        problems = []
        for proc in procs:
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"query check process failed with exit {proc.returncode}")
            problems += json.loads(out)
        return problems
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


CHECKS = {
    "scan": check_scan,
    "census": check_census,
    "agreement": check_agreement,
    "queries": check_queries,
}


if __name__ == "__main__":
    # one half of the queries check: pairs on stdin, problems on stdout
    json.dump(_check_queries(json.load(sys.stdin)), sys.stdout)

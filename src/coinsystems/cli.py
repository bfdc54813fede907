"""Command-line front end.

Examples:
    coinsystems check 1,2,5,6
    coinsystems pattern 1,2,5,6,10
    coinsystems classify 1,4,7,18,21,35
    coinsystems family D --r 3 --a 3
    coinsystems enumerate --n 4 --max 20 --csv
    coinsystems conjecture --n 5,6 --max 25 --jobs 2

Records go to standard output, one JSON object per line, or CSV rows with a
fixed header under --csv.  Standard error gets usage errors, internal
disagreements and, under --csv, the conjecture summary; no progress is
reported.
Exit codes: 0 success, 1 conjecture violation, 2 usage error (including a
request past the DP table cap), 3 internal disagreement between two verdict
routes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Sequence

from .canonicality import _failing_candidates, _witness, is_orderly, min_counterexample_oracle
from .characterize import classify6, orderly3, orderly4, orderly5, pattern
from .core import CoinSystem, Representation, ResourceLimitError
from .families import FamilyParams, _target_marks
from .search import (
    InternalDisagreementError,
    conjecture_scan,
    pattern_census,
    summarize_findings,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3

_SAMPLE_HELP = "share of verdicts checked, rounded to 1/k: 0.75 checks all, 0.4 half, 0.3 a third"

# fixed column order for per-system records
_COLUMNS = [
    "system",
    "orderly",
    "pattern",
    "min_counterexample",
    "greedy_count",
    "opt_count",
    "greedy_repr",
    "optimal_repr",
    "case_label",
    "family",
    "params",
]


def _parse_system(text: str) -> CoinSystem:
    try:
        values = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
        return CoinSystem(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(sorted({int(tok) for tok in text.split(",") if tok}))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not lengths:
        raise argparse.ArgumentTypeError("no lengths given")
    return lengths


def _fmt_counts(rep: Representation) -> str:
    return ",".join(str(x) for x in rep.counts)


def _fmt_params(params: dict | None) -> str | None:
    if not params:
        return None
    return ",".join(f"{k}={v}" for k, v in params.items())


def _target_record(system: CoinSystem, params: FamilyParams | None) -> dict:
    """Record of an orderly system with pattern (+++-...-+), and its family."""
    record = {
        "system": ",".join(str(v) for v in system),
        "orderly": True,
        "pattern": _target_marks(len(system)),
    }
    if params is not None:
        fields = {"r": params.r, "a": params.a}
        if params.m is not None:
            fields["m"] = params.m
        record.update(family=params.family, params=_fmt_params(fields))
    return record


class _Writer:
    """JSON-lines or fixed-header CSV on standard output."""

    def __init__(self, use_csv: bool, columns: Sequence[str]) -> None:
        self.columns = list(columns)
        self._csv = csv.writer(sys.stdout) if use_csv else None
        if self._csv:
            self._csv.writerow(self.columns)

    def write(self, record: dict) -> None:
        if self._csv:
            row = []
            for col in self.columns:
                v = record.get(col)
                if v is None:
                    row.append("")
                elif isinstance(v, bool):
                    row.append("true" if v else "false")
                else:
                    row.append(v)
            self._csv.writerow(row)
        else:
            clean = {k: v for k, v in record.items() if v is not None}
            print(json.dumps(clean))


# ---------- subcommands ----------


def _cmd_check(args: argparse.Namespace) -> int:
    system: CoinSystem = args.system
    record: dict = {"system": ",".join(str(v) for v in system)}
    if args.pearson:
        report = is_orderly(system)
        orderly, witness = report.orderly, report.witness
    else:
        oracle_w = min_counterexample_oracle(system)
        orderly = oracle_w is None
        candidate_w = oracle_w if args.oracle else _failing_candidates(system.values)[-1]
        if candidate_w != oracle_w:
            said = [f"counterexample {w}" if w else "orderly" for w in (candidate_w, oracle_w)]
            raise InternalDisagreementError(
                f"candidate test says {said[0]}, oracle says {said[1]}"
            )
        witness = None if orderly else _witness(system, oracle_w)

    record["orderly"] = orderly
    if witness:
        record["min_counterexample"] = witness.value
        record["greedy_count"] = witness.greedy_count
        record["opt_count"] = witness.opt_count
        record["greedy_repr"] = _fmt_counts(witness.greedy)
        record["optimal_repr"] = _fmt_counts(witness.optimal)

    _Writer(args.csv, _COLUMNS).write(record)
    return EXIT_OK


def _cmd_pattern(args: argparse.Namespace) -> int:
    system: CoinSystem = args.system
    marks = pattern(system).marks
    record = {
        "system": ",".join(str(v) for v in system),
        "orderly": marks[-1] == "+",
        "pattern": marks,
    }
    _Writer(args.csv, _COLUMNS).write(record)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    system: CoinSystem = args.system
    n = len(system)
    record: dict = {"system": ",".join(str(v) for v in system)}
    if n == 3:
        record["orderly"] = orderly3(system[1], system[2])
    elif n == 4:
        record["orderly"] = orderly4(system)
    elif n == 5:
        record["orderly"] = orderly5(system)
    elif n == 6:
        verdict = classify6(system)
        record["orderly"] = verdict.orderly
        record["case_label"] = verdict.case_label
        record["params"] = _fmt_params(verdict.params)
    else:
        raise argparse.ArgumentTypeError("classify handles 3 to 6 coin values")
    _Writer(args.csv, _COLUMNS).write(record)
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    try:
        params = FamilyParams(family=args.family, r=args.r, a=args.a, m=args.m)
        system = params.generate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    marks = pattern(system).marks
    if marks != _target_marks(len(system)):
        raise InternalDisagreementError(
            f"generated {system} has pattern {marks}, expected (+++-...-+)"
        )
    _Writer(args.csv, _COLUMNS).write(_target_record(system, params))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    census = pattern_census(args.n, args.max, jobs=args.jobs, sample_rate=args.sample)
    writer = _Writer(args.csv, ["pattern", "count"])
    for marks, count in census.items():
        writer.write({"pattern": marks, "count": count})
    return EXIT_OK


def _cmd_conjecture(args: argparse.Namespace) -> int:
    findings = conjecture_scan(
        args.lengths, args.max, jobs=args.jobs, sample_rate=args.sample
    )
    summary = summarize_findings(findings)
    writer = _Writer(args.csv, _COLUMNS)
    for finding in findings:
        writer.write(_target_record(finding.system, finding.membership))
    summary_record = {
        "findings": summary.total,
        "without_membership": len(summary.without_membership),
        "forbidden_length": len(summary.forbidden_length),
    }
    if args.csv:
        print(
            "summary: "
            + " ".join(f"{k}={v}" for k, v in summary_record.items()),
            file=sys.stderr,
        )
    else:
        print(json.dumps({"summary": summary_record}))
    return EXIT_OK if summary.ok else EXIT_VIOLATION


# ---------- parser ----------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinsystems",
        description="Orderliness tools for coin systems under greedy change-making.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--csv", action="store_true", help="CSV output instead of JSON lines")

    p_check = sub.add_parser("check", help="orderliness verdict with witness")
    p_check.add_argument("system", type=_parse_system, help="comma-separated values, e.g. 1,2,5,6")
    route = p_check.add_mutually_exclusive_group()
    route.add_argument("--oracle", action="store_true", help="use only the brute-force scan")
    route.add_argument("--pearson", action="store_true", help="use only the candidate test")
    add_output_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_pattern = sub.add_parser("pattern", help="orderliness mark for every prefix")
    p_pattern.add_argument("system", type=_parse_system)
    add_output_flags(p_pattern)
    p_pattern.set_defaults(func=_cmd_pattern)

    p_classify = sub.add_parser("classify", help="closed-form verdict for 3 to 6 values")
    p_classify.add_argument("system", type=_parse_system)
    add_output_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_family = sub.add_parser("family", help="generate a family member and verify its pattern")
    p_family.add_argument("family", choices=["D", "E", "F"])
    p_family.add_argument("--r", type=int, required=True)
    p_family.add_argument("--a", type=int, required=True)
    p_family.add_argument("--m", type=int, default=None)
    add_output_flags(p_family)
    p_family.set_defaults(func=_cmd_family)

    p_enum = sub.add_parser("enumerate", help="pattern census over an enumeration")
    p_enum.add_argument("--n", type=int, required=True, help="number of coin values")
    p_enum.add_argument("--max", type=int, required=True, help="largest allowed coin")
    p_enum.add_argument("--jobs", type=int, default=1)
    p_enum.add_argument("--sample", type=float, default=0.01, help=_SAMPLE_HELP)
    add_output_flags(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_conj = sub.add_parser("conjecture", help="scan for pattern (+++-...-+) systems")
    p_conj.add_argument(
        "--n", dest="lengths", type=_parse_lengths, required=True,
        help="comma-separated lengths, e.g. 5,6,7",
    )
    p_conj.add_argument("--max", type=int, required=True, help="largest allowed coin")
    p_conj.add_argument("--jobs", type=int, default=1)
    p_conj.add_argument("--sample", type=float, default=0.01, help=_SAMPLE_HELP)
    add_output_flags(p_conj)
    p_conj.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    try:
        return args.func(args)
    except InternalDisagreementError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))  # exits with status 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

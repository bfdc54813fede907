"""Tests for the command-line front end: records, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

import coinsystems
from coinsystems import InternalDisagreementError, canonicality, search
from coinsystems.cli import _build_parser, main

from bruteforce import ref_greedy_counts, ref_lex_smallest_optimal, ref_min_counterexample


def run_json(capsys, argv):
    """Run main, parse stdout as JSON lines, return (code, records)."""
    code = main(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


# ---------- check ----------


def test_check_not_orderly(capsys):
    code, records = run_json(capsys, ["check", "1,5,15,20"])
    assert code == 0
    assert records == [
        {
            "system": "1,5,15,20",
            "orderly": False,
            "min_counterexample": 30,
            "greedy_count": 3,
            "opt_count": 2,
            "greedy_repr": "0,2,0,1",
            "optimal_repr": "0,0,2,0",
        }
    ]


def test_check_orderly_drops_empty_fields(capsys):
    code, records = run_json(capsys, ["check", "1,5,10,25"])
    assert code == 0
    assert records == [{"system": "1,5,10,25", "orderly": True}]
    assert list(records[0]) == ["system", "orderly"]


def test_check_single_value_system(capsys):
    code, records = run_json(capsys, ["check", "1"])
    assert code == 0
    assert records[0]["orderly"] is True


def test_check_single_route_flags(capsys):
    for flag in ["--oracle", "--pearson"]:
        code, records = run_json(capsys, ["check", "1,3,4", flag])
        assert code == 0
        assert records[0]["orderly"] is False
        assert records[0]["min_counterexample"] == 6


def test_check_scans_the_oracle_once(capsys, monkeypatch):
    import coinsystems.canonicality as canonicality

    scan = canonicality._min_counterexample
    calls = []
    monkeypatch.setattr(
        canonicality, "_min_counterexample", lambda *a: calls.append(a) or scan(*a)
    )
    for flags in [[], ["--oracle"]]:
        calls.clear()
        code, records = run_json(capsys, ["check", "1,5,15,20"] + flags)
        assert code == 0
        assert records[0]["min_counterexample"] == 30
        assert records[0]["optimal_repr"] == "0,0,2,0"
        assert len(calls) == 1


def test_check_oracle_never_runs_the_candidate_test(capsys, monkeypatch):
    code, expected = run_json(capsys, ["check", "--oracle", "1,5,15,20"])

    def boom(values):
        raise AssertionError("candidate test called")

    monkeypatch.setattr("coinsystems.canonicality._candidate_verdict", boom)
    monkeypatch.setattr("coinsystems.canonicality._failing_candidates", boom)
    monkeypatch.setattr("coinsystems.cli._failing_candidates", boom)
    assert run_json(capsys, ["check", "--oracle", "1,5,15,20"]) == (0, expected)


def test_check_tolerates_spaces(capsys):
    code, records = run_json(capsys, ["check", "1, 2, 5, 6"])
    assert code == 0
    assert records[0]["system"] == "1,2,5,6"


def test_check_csv_has_fixed_header(capsys):
    code = main(["check", "1,5,15,20", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    header = [
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
    assert rows[0] == header
    row = dict(zip(header, rows[1]))
    assert row["system"] == "1,5,15,20"
    assert row["orderly"] == "false"
    assert row["min_counterexample"] == "30"
    assert row["pattern"] == ""


# ---------- pattern ----------


def test_pattern_subcommand(capsys):
    code, records = run_json(capsys, ["pattern", "1,2,5,6,10"])
    assert code == 0
    assert records == [
        {"system": "1,2,5,6,10", "orderly": True, "pattern": "+++-+"}
    ]


# ---------- classify ----------


def test_classify_three_to_six(capsys):
    code, records = run_json(capsys, ["classify", "1,3,4"])
    assert code == 0 and records[0]["orderly"] is False

    code, records = run_json(capsys, ["classify", "1,5,10,25"])
    assert code == 0 and records[0]["orderly"] is True

    code, records = run_json(capsys, ["classify", "1,2,5,6,10"])
    assert code == 0 and records[0]["orderly"] is True

    code, records = run_json(capsys, ["classify", "1,4,7,18,21,35"])
    assert code == 0
    assert records[0]["case_label"] == "2a"
    assert records[0]["params"] == "a=4,m=3"


def test_classify_rejects_other_lengths(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify", "1,2,4,8,16,32,64"])
    assert err.value.code == 2


# ---------- family ----------


def test_family_subcommand(capsys):
    code, records = run_json(capsys, ["family", "D", "--r", "3", "--a", "3"])
    assert code == 0
    assert records == [
        {
            "system": "1,2,5,6,9,10,13,14,18,22,26",
            "orderly": True,
            "pattern": "+++-------+",
            "family": "D",
            "params": "r=3,a=3",
        }
    ]

    code, records = run_json(capsys, ["family", "E", "--r", "2", "--m", "2", "--a", "3"])
    assert code == 0
    assert records[0]["system"] == "1,3,5,8,10,15"
    assert records[0]["pattern"] == "+++--+"


def test_family_rejects_bad_parameters(capsys):
    assert main(["family", "E", "--r", "2", "--a", "3"]) == 2
    assert main(["family", "D", "--r", "3", "--a", "3", "--m", "2"]) == 2
    assert main(["family", "D", "--r", "0", "--a", "3"]) == 2
    capsys.readouterr()


# ---------- enumerate ----------


def test_enumerate_subcommand(capsys):
    code, records = run_json(capsys, ["enumerate", "--n", "3", "--max", "4"])
    assert code == 0
    assert records == [
        {"pattern": "+++", "count": 2},
        {"pattern": "++-", "count": 1},
    ]


def test_enumerate_csv(capsys):
    code = main(["enumerate", "--n", "3", "--max", "4", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["pattern", "count"]
    assert ["+++", "2"] in rows


# ---------- conjecture ----------


def test_conjecture_without_findings(capsys):
    code, records = run_json(capsys, ["conjecture", "--n", "7", "--max", "20"])
    assert code == 0
    assert records == [
        {"summary": {"findings": 0, "without_membership": 0, "forbidden_length": 0}}
    ]


def test_conjecture_violation_exit_code(capsys):
    """A finding outside the families turns the exit code to 1."""
    code, records = run_json(capsys, ["conjecture", "--n", "8", "--max", "18"])
    assert code == 1
    systems = [r["system"] for r in records if "system" in r]
    assert systems == [
        "1,2,4,5,7,8,11,14",
        "1,2,4,5,7,9,12,17",
        "1,2,5,6,9,10,14,18",
    ]
    families = [r.get("family") for r in records if "system" in r]
    assert families == ["D", None, "D"]
    assert records[-1] == {
        "summary": {"findings": 3, "without_membership": 1, "forbidden_length": 0}
    }


def test_conjecture_csv_summary_on_stderr(capsys):
    code = main(["conjecture", "--n", "8", "--max", "18", "--csv"])
    assert code == 1
    captured = capsys.readouterr()
    assert "findings=3" in captured.err
    assert "without_membership=1" in captured.err


@pytest.mark.parametrize(
    "argv, rate",
    [(["enumerate", "--n", "3", "--max", "6"], "1e-320"),
     (["conjecture", "--n", "5", "--max", "12"], "5e-324")],
)
def test_a_subnormal_sample_rate_samples_nothing(capsys, argv, rate):
    """A rate whose reciprocal overflows a float samples what --sample 0
    samples: no fingerprint below 2**32 is a multiple of a larger modulus."""
    assert main(argv + ["--sample", "0"]) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--sample", rate]) == 0
    assert capsys.readouterr().out == expected


def test_a_sample_rate_rounds_to_one_in_k(capsys):
    """--sample checks 1/k of the verdicts with k = round(1/rate), ties to
    even: 0.75 checks every verdict, 0.4 half and 0.3 a third, and a tiny
    rate stops at 2**32, above every fingerprint.  A rate that is not a
    number in [0, 1] is refused, by the CLI with exit status 2."""
    rates = [1, 0.75, 0.5, 0.4, 0.3, 1e-12, 0]
    assert [search._sample_modulus(r) for r in rates] == [1, 1, 2, 2, 3, 2**32, 0]
    for rate in ["nan", "inf", "-0.1"]:
        with pytest.raises(ValueError):
            search._sample_modulus(float(rate))
        for argv in ["enumerate", "--n", "4"], ["conjecture", "--n", "5"]:
            with pytest.raises(SystemExit) as err:
                main(argv + ["--max", "8", "--sample", rate])
            assert err.value.code == 2
            assert "sample rate must be within [0, 1]" in capsys.readouterr().err


# ---------- exit codes ----------


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "1,2,x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["check", "2,4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    for bounds in [["--n", "2", "--max", "10"], ["--n", "5", "--max", "4"]]:
        with pytest.raises(SystemExit) as err:
            main(["enumerate", *bounds])
        assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["conjecture", "--n", ",", "--max", "10"])
    assert err.value.code == 2
    capsys.readouterr()


def test_check_takes_one_route_flag(capsys):
    """--oracle and --pearson together are a usage error, not the oracle
    alone."""
    with pytest.raises(SystemExit) as err:
        main(["check", "--oracle", "--pearson", "1,3,4"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "coinsystems check: error: argument --pearson: not allowed with argument --oracle"
    ]


def test_internal_disagreement_exits_three(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalDisagreementError("forced for the test")

    monkeypatch.setattr("coinsystems.cli.conjecture_scan", boom)
    assert main(["conjecture", "--n", "5", "--max", "10"]) == 3

    monkeypatch.setattr("coinsystems.cli.min_counterexample_oracle", lambda s: 99)
    assert main(["check", "1,2"]) == 3
    captured = capsys.readouterr()
    assert "internal disagreement" in captured.err


@pytest.mark.parametrize(
    "target, fake, argv, err",
    [
        (
            "min_counterexample_oracle", lambda system: 99, ["check", "1,2"],
            "candidate test says orderly, oracle says counterexample 99",
        ),
        (
            "pattern", lambda system: SimpleNamespace(marks="+" * len(system)),
            ["family", "D", "--r", "1", "--a", "2"],
            "generated (1,2,4,5,8) has pattern +++++, expected (+++-...-+)",
        ),
        (
            "_failing_candidates", lambda values: [None, None, 7], ["check", "1,3,4"],
            "candidate test says counterexample 7, oracle says counterexample 6",
        ),
    ],
)
def test_subcommand_disagreement_is_one_line(capsys, monkeypatch, target, fake, argv, err):
    """check's two routes and family's generated pattern report a
    disagreement through the one exit-3 path: one line, no record.  check
    compares the routes' minimal counterexamples, not only their verdicts."""
    monkeypatch.setattr(f"coinsystems.cli.{target}", fake)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal disagreement: {err}\n"


def test_witness_disagreement_exits_three(capsys, monkeypatch):
    """The candidate test rejects 1,3,4 at 6; an optimal form no better than
    greedy there is a disagreement, reported without a traceback."""
    from coinsystems.core import _greedy_counts

    def greedy_form(values, v, opt):
        return _greedy_counts(values, v)

    monkeypatch.setattr("coinsystems.canonicality._lex_smallest_counts", greedy_form)
    assert main(["check", "1,3,4", "--pearson"]) == 3
    captured = capsys.readouterr()
    assert "internal disagreement" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "1,5000001,5000002"],
        ["check", "--oracle", "1,2,6000000,9000000"],
        ["enumerate", "--n", "3", "--max", "5000002"],
        ["conjecture", "--n", "5", "--max", "5000002"],
    ],
)
def test_resource_limit_is_a_usage_error(capsys, argv):
    """A table beyond the DP table cap exits 2 with one line, no traceback:
    the oracle's lanes for one system, min(cn, c(n-2)+c(n-1)) + c(n-1)
    of them (10,000,003 and 12,000,002 here), or the widest window of a
    sweep."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "values, m",
    [((1, 3, 4, 100000000), 6), ((1, 2, 5, 6, 20000000), 10), ((1, 5, 15, 20, 30000000), 30)],
)
def test_pearson_witness_ignores_the_window(capsys, values, m):
    """--pearson takes the minimal counterexample from the candidates, so a
    window beyond the DP table cap does not stop it."""
    assert ref_min_counterexample(values) == m
    code, records = run_json(capsys, ["check", ",".join(map(str, values)), "--pearson"])
    assert code == 0
    rec = records[0]
    assert rec["orderly"] is False
    assert rec["min_counterexample"] == m
    greedy = ref_greedy_counts(values, m)
    optimal = ref_lex_smallest_optimal(values, m)
    assert rec["greedy_repr"] == ",".join(map(str, greedy))
    assert rec["optimal_repr"] == ",".join(map(str, optimal))
    assert (rec["greedy_count"], rec["opt_count"]) == (sum(greedy), sum(optimal))


def test_pearson_walks_a_deep_chain(capsys):
    """M = 6,002,000 = 2000 * 3001: its optimal form is reached through 2000
    amounts in a row, each with one optimal step."""
    code, records = run_json(capsys, ["check", "1,3001,5999500", "--pearson"])
    assert code == 0
    assert records[0]["min_counterexample"] == 6_002_000
    assert records[0]["optimal_repr"] == "0,2000,0"
    assert records[0]["opt_count"] == 2000


def test_pearson_and_pattern_never_scan_the_oracle(capsys, monkeypatch):
    """check --pearson and pattern give the same records with the oracle
    scan made unusable."""
    argvs = [
        ["check", system, "--pearson"] for system in ["1,3,4", "1,5,15,20", "1,5,10,25"]
    ] + [["pattern", system] for system in ["1,2,5,6,10", "1,2,4,5,7,8,11,14"]]
    expected = [run_json(capsys, argv) for argv in argvs]

    def boom(*args):
        raise AssertionError("oracle scan called")

    monkeypatch.setattr("coinsystems.canonicality._scan_from", boom)
    monkeypatch.setattr("coinsystems.canonicality._min_counterexample", boom)
    assert [run_json(capsys, argv) for argv in argvs] == expected


@pytest.mark.parametrize("command", [["enumerate", "--n", "3"], ["conjecture", "--n", "5"]])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(capsys, command, jobs):
    with pytest.raises(SystemExit) as err:
        main(command + ["--max", "10", "--jobs", jobs])
    assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "system, w",
    [("1,3,4,9999999", 6), ("1,3,4,100000000", 6), ("1,2,1000000000000000", None)],
)
@pytest.mark.parametrize("flags", [[], ["--oracle"]])
def test_oracle_answers_past_its_window(capsys, system, w, flags):
    """The oracle's lanes stop below c(n-2)+c(n-1) and read the top coin's
    stretch by rule, so a top coin far past the cap is answered."""
    code, records = run_json(capsys, ["check", system, *flags])
    assert code == 0
    assert records[0]["orderly"] is (w is None)
    assert records[0].get("min_counterexample") == w


@pytest.mark.parametrize(
    "system, width",
    [
        ("1,3,9,25,65,177,529,1697,4385,12913,36513,68641", 1),
        ("1,199,1250,5000", 2),
        ("1,21923,55129,82173", 3),
        ("1,4194304,12582912", 4),
    ],
)
def test_check_routes_agree_on_every_lane_width(capsys, system, width):
    """check, check --oracle and check --pearson print the same record on a
    lane-route system of each lane width."""
    values = tuple(int(v) for v in system.split(","))
    assert values[-2] + values[-1] >= canonicality._LANES
    assert canonicality._lane_width(values)[1] == width
    flags = ([], ["--oracle"], ["--pearson"])
    runs = [run_json(capsys, ["check", system, *f]) for f in flags]
    assert runs[0][0] == 0 and len(runs[0][1]) == 1
    assert runs[1] == runs[2] == runs[0]


@pytest.mark.parametrize("flags", [[], ["--oracle"], ["--pearson"]])
def test_check_caps_the_witness_walk(capsys, monkeypatch, flags):
    """(1, 6, 25) fails at 30, while the oracle's lanes come to 13: a table
    of 7 and a block of 6 for the top coin.  At a cap of 20 the oracle
    routes still scan, and every route refuses the walk to 30's optimal
    form."""
    monkeypatch.setattr("coinsystems.core.DEFAULT_VALUE_CAP", 20)
    monkeypatch.setattr("coinsystems.canonicality._LANES", 0)
    assert main(["check", "1,6,25", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: amount 30 exceeds the DP table cap 20\n"


def test_help_formats_in_a_fresh_interpreter():
    """--help of the program and of each subcommand exits 0 with its usage
    on stdout; a help string argparse cannot format fails here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coinsystems.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    commands = ["check", "pattern", "classify", "family", "enumerate", "conjecture"]
    for argv in [[], *([c] for c in commands)]:
        run = subprocess.run(
            [sys.executable, "-m", "coinsystems", *argv, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stderr) == (0, ""), argv
        assert run.stdout.startswith(f"usage: coinsystems {' '.join(argv)}".rstrip()), argv


# ---------- several commands in one process ----------


def _run_captured(argv):
    """(exit code, stdout, stderr) of main in this process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_commands_in_one_process_match_fresh_runs():
    """Commands run one after another in a process give what each gives
    alone, in a fresh interpreter, usage errors included."""
    argvs = [
        ["check", "1,5,15,20"],
        ["check", "1,2,x"],
        ["pattern", "1,2,5,6,10"],
        ["check", "1,5,15,20", "--pearson"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(coinsystems.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in argvs:
        alone = subprocess.run(
            [sys.executable, "-m", "coinsystems", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert _run_captured(argv) == (alone.returncode, alone.stdout, alone.stderr)


def test_the_cached_parser_carries_no_state_between_calls():
    """main reuses one parser; a usage error through it leaves the next
    commands printing what a fresh interpreter prints."""
    assert _build_parser() is _build_parser()
    assert _run_captured(["check", "1,3,4", "--oracle", "--pearson"])[0] == 2
    src = os.path.dirname(os.path.dirname(os.path.abspath(coinsystems.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in [["check", "1,3,4"], ["pattern", "1,2,5,6,10"]]:
        alone = subprocess.run(
            [sys.executable, "-m", "coinsystems", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert _run_captured(argv)[:2] == (alone.returncode, alone.stdout)
        assert alone.stdout

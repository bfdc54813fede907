"""Benchmark of the coinsystems package: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,census,agreement,queries}
        --seed N --seconds S --trace {0,1}

Untraced (``--trace 0``) it measures the set-up time of a fresh CLI
process, then runs the workload in a process of its own for about
``--seconds`` seconds (``workloads.rounds`` whole rounds), checks every output against the independent reference, and prints
the end-to-end metrics.  Traced (``--trace 1``) it runs one round untraced
and one under cProfile and prints the per-layer metrics.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import children  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 10  # timed set-up probes before and again after the workload
SETUP_SAMPLES = 3  # calibration samples on each side of a set-up probe
# a run must end within 180 s; this leaves room for the checks
WORKER_TIMEOUT_S = 150


def setup_probe(src):
    """Wall time of ``coinsystems --help`` in a fresh interpreter: importing
    what the CLI imports and building its parser.  It is scaled for the
    machine's speed like the workload's operations, by the sample scan timed
    in this process just before and just after the probe."""
    before = [worker.sample_scan_s() for _ in range(SETUP_SAMPLES)]
    t0 = time.perf_counter()
    children.run(
        [sys.executable, "-m", "coinsystems", "--help"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
        check=True,
    )
    wall_s = time.perf_counter() - t0
    after = [worker.sample_scan_s() for _ in range(SETUP_SAMPLES)]
    return wall_s * worker.NOMINAL_SAMPLE_S / statistics.mean(before + after)


def run_worker(job):
    proc = children.run(
        [sys.executable, WORKER],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"workload process failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def calibrated_op_s(rnd):
    """Each op's time in one round, scaled for the machine's speed."""
    return [t * scale for t, scale in zip(rnd["op_s"], rnd["scale"])]


def end_to_end(name, report):
    """systems_per_s, latency_p50_ms and latency_p99_ms from the rounds, in
    calibrated time.

    A sweep is timed by its median round, and both latencies read that one
    sweep.  A single command is short enough to fall inside a burst of load
    from other tenants, which only ever slows it down, so each command is
    timed by its fastest round.
    """
    rounds = [calibrated_op_s(r) for r in report["rounds"]]
    if name in workloads.SWEEP_SIZES:
        sweep_s = statistics.median(r[0] for r in rounds)
        return {
            "systems_per_s": (workloads.SWEEP_SIZES[name] / sweep_s, "systems/s"),
            "latency_p50_ms": (sweep_s * 1000, "ms"),
            "latency_p99_ms": (sweep_s * 1000, "ms"),
        }
    failed = [r["failed"] for r in report["rounds"]]
    best = [
        min(r[i] for r in rounds)
        for i in range(len(rounds[0]))
        if not any(f[i] for f in failed)
    ]
    return {
        "systems_per_s": (len(best) / sum(best), "systems/s"),
        "latency_p50_ms": (statistics.median(best) * 1000, "ms"),
        "latency_p99_ms": (statistics.quantiles(best, n=100)[98] * 1000, "ms"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    children.exit_on_signals()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "coinsystems", "cli.py")):
        sys.exit("run from the root of a coinsystems checkout: src/coinsystems/cli.py not found")

    ops, extra = workloads.build(args.workload, args.seed)
    job = {
        "src": src,
        "round": ops,
        "extra": extra,
        "rounds": workloads.rounds(args.workload, args.seconds),
        "trace": args.trace,
    }
    if args.trace:
        report = run_worker(job)
    else:
        # one untimed probe caches the compiled bytecode, as an installed
        # package has it; the timed probes sit on both sides of the workload
        setup_probe(src)
        probes = [setup_probe(src) for _ in range(SETUP_PROBES)]
        report = run_worker(job)
        probes += [setup_probe(src) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(probes)

    flags = [bad for r in report["rounds"] for bad in r["failed"]]
    if args.trace:
        flags += report["traced"]["failed"]
    expected = [op.get("expect_failure", False) for op in ops]
    problems = []
    if any(bad and not exp for bad, exp in zip(flags, expected * (len(flags) // len(ops)))):
        problems.append("an operation failed that is expected to succeed")
    if report["repeat_mismatches"]:
        problems.append(f"{report['repeat_mismatches']} outputs changed between rounds")
    try:
        problems += checks.CHECKS[args.workload](ops, report["outputs"], report["extra_outputs"])
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in report["layers"].items()
        }
        if report["missing"]:
            print(f"missing counters: {', '.join(report['missing'])}", file=sys.stderr)
    else:
        values = end_to_end(args.workload, report)
        values["setup_s"] = (setup_s, "s")
        values["peak_rss_mb"] = (report["peak_rss_kb"] / 1024, "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(flags),
                "failed": sum(flags),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()

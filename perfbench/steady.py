"""Steadiness of the benchmark: repeated runs in two sets.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

Runs every workload RUNS times in each of two sets, each run with its own
seed (set 1 uses seeds 1..RUNS, set 2 the next RUNS seeds), with the run
length from BENCHMARK.json.  For each end-to-end metric and workload it
prints the median and quartiles of each set, the spread (third quartile
minus first, as a share of the median) and how far the second set's median
lies from the first's, in either direction, both against the metric's bound.
It then makes two traced runs per workload with seed 1 and checks that
every count repeats exactly.  Exits 1 if any figure is outside its bound,
any run is incorrect, the failed share differs between sets, or a count
differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction

import children

RUNS = 10  # runs per workload in each set
SETS = 2


def run_once(command, workload, seed, seconds, trace):
    proc = children.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    children.exit_on_signals()
    ok = True

    results = {}  # (set, workload) -> list of run results
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for name in names:
                res = run_once(bench["command"], name, seed, bench["run_seconds"], 0)
                results.setdefault((s, name), []).append(res)
                line = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} seed {seed} {name}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {line}", flush=True)
                ok &= res["correct"]

    print("\nworkload metric: set median [q1, q3] spread | ... | drift (bound)")
    for name in names:
        shares = [
            Fraction(sum(r["failed"] for r in results[(s, name)]),
                     sum(r["attempted"] for r in results[(s, name)]))
            for s in range(SETS)
        ]
        if len(set(shares)) > 1:
            print(f"{name}: failed share differs between sets: {shares}")
            ok = False
        for metric, spec in e2e.items():
            cells, medians = [], []
            for s in range(SETS):
                q1, med, q3, sp = spread([r["metrics"][metric]["value"] for r in results[(s, name)]])
                medians.append(med)
                flag = "" if sp <= spec["bound"] else " OVER"
                ok &= not flag
                cells.append(f"set {s + 1} {med:.6g} [{q1:.6g}, {q3:.6g}] {sp:.2%}{flag}")
            line = f"{name} {metric}: " + " | ".join(cells)
            drift = (medians[1] - medians[0]) / medians[0]
            flag = " OVER" if abs(drift) > spec["bound"] else ""
            ok &= not flag
            line += f" | drift {drift:+.2%}{flag}"
            print(f"{line} (bound {spec['bound']:.0%})")

    print("\ntraced pairs (seed 1):")
    for name in names:
        a, b = (run_once(bench["command"], name, 1, bench["run_seconds"], 1) for _ in range(2))
        counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
        differ = [k for k in counts if a["metrics"][k]["value"] != b["metrics"].get(k, {}).get("value")]
        ok &= a["correct"] and b["correct"] and not differ
        overhead = [r["metrics"]["trace_overhead_s"]["value"] for r in (a, b)]
        print(f"{name}: {len(counts)} counts, differing: {differ or 'none'}; "
              f"trace overhead {overhead[0]:.3f} s, {overhead[1]:.3f} s")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

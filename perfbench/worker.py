"""Runs one workload in a process of its own and reports what happened.

Reads a JSON job on standard input: {"src", "round", "extra", "rounds",
"trace"}.  Untraced, it runs the round ``rounds`` times, then reads its
own peak resident memory, then runs the extra operations once.  Traced,
it runs the round once untraced and once under cProfile, and aggregates the
profile by the ``coinsystems`` module that defines each function.  Prints one JSON line with the timings, the outputs
of the first round and of the extras, and any per-layer figures.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import signal
import sys
import time

import reference

LAYERS = ("core", "canonicality", "characterize", "families", "search", "cli")

# kernel metric prefix -> (module, functions whose calls are counted,
# helper functions whose self time is added)
KERNELS = {
    "canonicality.oracle": ("canonicality", ("_min_counterexample",), ()),
    "canonicality.candidate": ("canonicality", ("_candidate_verdict",), ()),
    "search.extend": ("search", ("_extend_verdict",), ()),
    "search.fingerprint": ("search", ("_fingerprint",), ()),
    "search.spot_check": ("search", ("_spot_check",), ()),
    "core.greedy": ("core", ("_greedy_count", "_greedy_counts"), ()),
    "core.lex_optimal": ("core", ("_lex_smallest_counts",), ("_suffix_opt_tables",)),
    "core.opt_table": ("core", ("_opt_table",), ()),
}


def run_op(op):
    """Run one operation; returns (failed, output)."""
    from coinsystems import cli, search

    if "agreement" in op:
        try:
            checked, bad = search.agreement_sweep(*op["agreement"])
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            return True, {"error": f"{type(exc).__name__}: {exc}"}
        return False, {"checked": checked, "disagreements": bad}
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op["cli"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        return True, {"error": f"{type(exc).__name__}: {exc}"}
    return code not in op["ok_exits"], {"exit": code, "stdout": out.getvalue()}


# ---------- machine-speed calibration ----------

# Other tenants of a shared host slow a core down by up to half, in bursts
# of a fraction of a second and in phases of minutes.  While a round runs, a
# timer interrupts it every SAMPLE_EVERY_S to time one fixed pure-Python DP
# scan from the reference; the scan slows down with the workload.  Each
# operation's time, less the time spent in samples, is scaled by
# NOMINAL_SAMPLE_S over the mean sample taken within WINDOW_S of it.  That
# cancels the drift while any change to the program still shows in full.
SAMPLE_SYSTEM = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4_000)
NOMINAL_SAMPLE_S = 0.004  # one scan on an unloaded 2.1 GHz Xeon
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5


def sample_scan_s():
    t0 = time.perf_counter()
    reference.min_counterexample(SAMPLE_SYSTEM)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the sample scan on a SIGALRM timer; ``taken`` holds
    (start, seconds) per sample and ``spent`` the total time in samples."""

    def __init__(self):
        self.taken = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.taken.append((t0, sample_scan_s()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        sample_scan_s()  # the first scan also grows the heap; keep it out
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        """NOMINAL_SAMPLE_S over the mean sample within WINDOW_S of
        [start, end]."""
        near = [s for t, s in self.taken if start - WINDOW_S <= t <= end + WINDOW_S]
        return NOMINAL_SAMPLE_S * len(near) / sum(near)


def peak_rss_kb():
    """Peak resident memory of this process image.  ``ru_maxrss`` would not
    do: across fork and exec it keeps the parent's peak, which here is the
    benchmark's own."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(ops, sampler=None):
    """One pass over ops: seconds per op (less time spent in samples), the
    calibration scale per op when sampled, failed flags and outputs."""
    times, spans, failed, outputs = [], [], [], []
    for op in ops:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        bad, output = run_op(op)
        t1 = time.perf_counter()
        times.append(t1 - t0 - ((sampler.spent - spent) if sampler else 0.0))
        spans.append((t0, t1))
        failed.append(bad)
        outputs.append(output)
    scales = [sampler.scale(*span) for span in spans] if sampler else []
    return times, scales, failed, outputs


# ---------- amount counters ----------


def _window_counter(counts):
    """Wraps the oracle scan: the window it tabulates and how far it got."""

    def wrap(orig):
        def counted(values, *args, **kwargs):
            w = orig(values, *args, **kwargs)
            if len(values) > 2:
                window = values[-2] + values[-1]
                counts["canonicality.oracle.amounts_allocated"] += window
                counts["canonicality.oracle.amounts_scanned"] += window - 1 if w is None else w
            return w

        return counted

    return wrap


def _lex_counter(counts):
    """Wraps the lex-smallest optimal kernel: amounts 0..v it tabulates."""

    def wrap(orig):
        def counted(values, v, *args, **kwargs):
            counts["core.lex_optimal.amounts"] += v + 1
            return orig(values, v, *args, **kwargs)

        return counted

    return wrap


# kernel function -> (defining module, counter names, wrapper factory)
COUNTED = {
    "_min_counterexample": (
        "canonicality",
        ("canonicality.oracle.amounts_scanned", "canonicality.oracle.amounts_allocated"),
        _window_counter,
    ),
    "_lex_smallest_counts": ("core", ("core.lex_optimal.amounts",), _lex_counter),
}


@contextlib.contextmanager
def amount_counters(counts, missing):
    """Route every module's reference to each counted kernel through its
    wrapper for the duration; a kernel that no longer exists leaves its
    counters missing."""
    modules = [m for name, m in sys.modules.items() if name.startswith("coinsystems")]
    patched = []
    for func, (home, names, factory) in COUNTED.items():
        orig = getattr(sys.modules[f"coinsystems.{home}"], func, None)
        if orig is None:
            missing.extend(names)
            continue
        for name in names:
            counts[name] = 0
        wrapper = factory(counts)(orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, orig))
    try:
        yield
    finally:
        for module, attr, orig in patched:
            setattr(module, attr, orig)


def layer_metrics(profile, src_pkg, missing):
    """Calls and self time per module and per kernel from a profile."""
    by_func = {}
    for (filename, _line, func), (_cc, calls, self_s, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        if os.path.dirname(os.path.abspath(filename)) != src_pkg:
            continue
        module = os.path.splitext(os.path.basename(filename))[0]
        total = by_func.setdefault((module, func), [0, 0.0])
        total[0] += calls
        total[1] += self_s
    metrics = {}
    for layer in LAYERS:
        rows = [v for (m, _f), v in by_func.items() if m == layer]
        metrics[f"{layer}.calls"] = sum(r[0] for r in rows)
        metrics[f"{layer}.self_s"] = sum(r[1] for r in rows)
    for prefix, (module, counted, helpers) in KERNELS.items():
        mod = sys.modules[f"coinsystems.{module}"]
        if not any(hasattr(mod, f) for f in counted):
            missing.extend([f"{prefix}.calls", f"{prefix}.self_s"])
            continue
        zero = [0, 0.0]
        metrics[f"{prefix}.calls"] = sum(by_func.get((module, f), zero)[0] for f in counted)
        metrics[f"{prefix}.self_s"] = sum(
            by_func.get((module, f), zero)[1] for f in counted + helpers
        )
    return metrics


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import coinsystems.cli  # noqa: F401 - import before timing

    src_pkg = os.path.join(os.path.abspath(job["src"]), "coinsystems")
    if os.path.dirname(os.path.abspath(coinsystems.cli.__file__)) != src_pkg:
        sys.exit(f"coinsystems was imported from {coinsystems.cli.__file__}, not {src_pkg}")

    ops = job["round"]
    report = {"rounds": [], "repeat_mismatches": 0}
    first = None
    for _ in range(1 if job["trace"] else job["rounds"]):
        t0 = time.perf_counter()
        if job["trace"]:
            times, scales, failed, outputs = run_round(ops)
        else:
            with SpeedSampler() as sampler:
                times, scales, failed, outputs = run_round(ops, sampler)
        report["rounds"].append(
            {"wall_s": time.perf_counter() - t0, "op_s": times, "scale": scales, "failed": failed}
        )
        if first is None:
            first = outputs
        else:
            report["repeat_mismatches"] += sum(a != b for a, b in zip(first, outputs))
    report["peak_rss_kb"] = peak_rss_kb()

    if job["trace"]:
        counts, missing = {}, []
        profile = cProfile.Profile()
        with amount_counters(counts, missing):
            t0 = time.perf_counter()
            profile.enable()
            _times, _scales, failed, outputs = run_round(ops)
            profile.disable()
            traced_s = time.perf_counter() - t0
        report["traced"] = {"wall_s": traced_s, "failed": failed}
        report["repeat_mismatches"] += sum(a != b for a, b in zip(first, outputs))
        layers = layer_metrics(profile, src_pkg, missing)
        layers.update(counts)
        layers["trace_overhead_s"] = traced_s - report["rounds"][0]["wall_s"]
        report["layers"] = layers
        report["missing"] = missing

    report["outputs"] = first
    report["extra_outputs"] = [run_op(op)[1] for op in job["extra"]]
    print(json.dumps(report))


if __name__ == "__main__":
    main()

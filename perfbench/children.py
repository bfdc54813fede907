"""Child processes that cannot outlive the benchmark.

Every process the benchmark starts goes through ``run`` or ``popen``.  Each
child asks the kernel to send it SIGKILL when the benchmark process dies,
however it dies, so that a killed benchmark leaves nothing running.  On the
ordinary ways out, and on SIGTERM or SIGHUP once ``exit_on_signals`` has
turned those into ``SystemExit``, the caller kills and waits for its
children itself.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys

PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)
_BENCHMARK_PID = os.getpid()


def _die_with_benchmark():
    _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != _BENCHMARK_PID:  # it died before the request took hold
        os._exit(1)


def run(argv, **kwargs):
    """``subprocess.run``: it kills and waits for the child on any exception."""
    return subprocess.run(argv, preexec_fn=_die_with_benchmark, **kwargs)


def popen(argv, **kwargs):
    """``subprocess.Popen``; the caller kills and waits for it."""
    return subprocess.Popen(argv, preexec_fn=_die_with_benchmark, **kwargs)


def exit_on_signals():
    def leave(signum, _frame):
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, leave)

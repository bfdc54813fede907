"""The benchmark's per-layer hooks name functions the package still has.

A traced benchmark run looks each hooked kernel up by name; one that was
renamed or removed only leaves its counters missing, and the run still
exits 0.  These tests make that a failure here.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("worker")


def test_every_counted_kernel_exists(worker):
    """Each function that KERNELS counts calls of and each that COUNTED
    wraps is defined in the coinsystems module the table names."""
    hooks = [(module, f) for module, counted, _ in worker.KERNELS.values() for f in counted]
    hooks += [(module, f) for f, (module, _, _) in worker.COUNTED.items()]
    assert hooks
    missing = [
        f"coinsystems.{module}.{f}"
        for module, f in hooks
        if not callable(getattr(importlib.import_module(f"coinsystems.{module}"), f, None))
    ]
    assert missing == []

"""What the benchmark in perfbench/ uses of the program keeps working.

The benchmark's worker wraps the suites' tracker to count non-finite
residuals per suite, times a chain of eight library functions at single
samples, and gates each battery's JSON report on its own recomputation of
the verdicts.  These tests read perfbench/ and change nothing there.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import dwfinsler as dw
from dwfinsler import suites
from dwfinsler.engine import LIFT_ORDER, EnginePoint, workspace
from dwfinsler.runspec import fixture_runspec, parse_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in perfbench/
    return importlib.import_module("worker")


def test_the_residual_guard_counts_a_nan_at_one_sample(worker, monkeypatch):
    # The guard replaces _Tracker.feed and the entries of the suite table;
    # both are restored when the test ends.
    monkeypatch.setattr(suites._Tracker, "feed", suites._Tracker.feed)
    monkeypatch.setattr(suites, "SUITES", dict(suites.SUITES))
    guard = worker.ResidualGuard(suites)
    spec = fixture_runspec("FIX-1D", count=6)
    ws = workspace(spec.config)
    real = EnginePoint.horizontal_values

    def poisoned(self):
        out = real(self)
        if self.engine is ws.product and self.order == LIFT_ORDER and self.lead:
            out = out.copy()
            out[2] = np.nan
        return out

    ws.clear()
    monkeypatch.setattr(EnginePoint, "horizontal_values", poisoned)
    try:
        report = suites.run_suites(spec)
    finally:
        ws.clear()
    assert guard.counts.get("yF=G", 0) >= 1
    assert guard.counts.get("closed-form-blocks", 0) >= 1
    assert "homogeneity" not in guard.counts
    assert not report.ok


def test_the_chain_keeps_its_names_and_shapes(worker, p4):
    for step in worker.CHAIN_STEPS:
        module, name = step.split(".")
        fn = getattr(importlib.import_module(f"dwfinsler.{module}"), name)
        assert callable(fn), step
        # The tracer times a function only in the module that defines it.
        assert fn.__module__ == f"dwfinsler.{module}", step
        assert getattr(dw, name) is fn, step
    cfg = dw.fixture("FIX-R")
    n = cfg.n
    out = worker.chain(dw, cfg, p4)
    shapes = {"g": (n, n), "ginv": (n, n), "G": (n,), "N": (n, n), "R": (n, n, n),
              "Gf": (n, n, n), "H": (n, n, n), "B": (n, n, n, n), "hh": (n, n, n, n),
              "Rm": (n, n)}
    assert {k: v.shape for k, v in out.items()} == shapes
    assert all(v.dtype == np.float64 for v in out.values())
    assert worker.check_point(out, p4.y + p4.v) is None


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name", ["battery-randers", "battery-1d-wide"])
def test_the_benchmark_gate_passes_the_batteries(worker, name, seed):
    doc = importlib.import_module("workloads").document(name, seed, 4)
    report = dw.emit_report(dw.run_suites(parse_spec(doc)), "json")
    assert worker.check_report(json.loads(report), doc["expected_failures"]) == []

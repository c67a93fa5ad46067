"""Self-checks of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The end-to-end checks run the real workloads, as the benchmark's users do, and
take about six minutes.  The checks of the correctness gate run in this
process, on small documents from ``workloads.document``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hostspeed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import product_macs  # noqa: E402
from worker import ResidualGuard, chain, check_point, check_report  # noqa: E402
from workloads import SUITES, WORKLOADS, document  # noqa: E402


@functools.cache
def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def result(workload: str, trace: int, seed: int = 3) -> dict:
    code, out, err = bench(workload, trace, seed)
    assert code == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(workload, trace)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert {k: v["unit"] for k, v in res["metrics"].items()} == want
            assert all(math.isfinite(v["value"]) for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    def counts(res):
        return {k: v["value"] for k, v in res["metrics"].items()
                if k.startswith(("jets.", "engine.")) and v["unit"] in ("count", "ratio")}

    first = counts(result("battery-1d-wide", 1))
    bench.cache_clear()
    again = counts(result("battery-1d-wide", 1))
    assert first == again
    assert first["jets.mul_calls"] > 0 and first["engine.lift_requests"] > 0


def test_trace_reports_its_overhead():
    m = {k: v["value"] for k, v in result("stream-randers", 1)["metrics"].items()}
    assert m["trace.untraced_run_s"] > 0 and m["trace.traced_run_s"] > 0
    assert math.isclose(m["trace.overhead_frac"],
                        m["trace.traced_run_s"] / m["trace.untraced_run_s"] - 1.0)


def test_without_the_program_it_fails_without_a_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out, _ = bench("stream-randers", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0
    assert '"correct"' not in out


def _report(expected=()):
    return {"suites": [
        {"name": name, "passed": name not in expected, "as_expected": True,
         "max_residual": 2.0 if name in expected else 1e-12,
         "entries": [{"residual": 2.0 if name in expected else 1e-12, "tolerance": 1e-8}]}
        for name in SUITES]}


def test_gate_recomputes_verdicts():
    assert check_report(_report(), ()) == []
    assert check_report(_report(["reinhart"]), ["reinhart"]) == []
    # A declared expected failure that passes is an unexpected verdict.
    assert len(check_report(_report(), ["reinhart"])) == 1
    doc = _report()
    doc["suites"][3]["entries"][0]["residual"] = float("nan")
    assert check_report(doc, ()) == [f"{SUITES[3]}: non-finite residual or tolerance"]
    doc = _report()
    doc["suites"][5]["entries"][0]["residual"] = 1e-3  # fails, but flagged as passed
    assert len(check_report(doc, ())) == 1
    doc = _report()
    doc["suites"][5]["passed"] = False  # flags disagree with the residuals
    assert len(check_report(doc, ())) == 1
    doc = _report()
    del doc["suites"][0]
    assert check_report(doc, ()) == [f"{SUITES[0]}: missing from the report"]


@functools.cache
def program():
    """dwfinsler, imported once, with the residual guard installed."""
    import dwfinsler

    return dwfinsler, ResidualGuard(dwfinsler.suites)


def test_guard_counts_nan_the_tracker_drops():
    dw, guard = program()
    guard.counts.clear()
    tracker = dw.suites._Tracker()
    guard.suite = "con1"
    tracker.feed(float("nan"), None)
    assert tracker.value == 0.0  # the program's tracker drops the NaN
    tracker.feed(float("-inf"), None)
    guard.suite = None
    assert guard.counts == {"con1": 2}
    assert check_report(_report(), (), guard.counts) == [
        "con1: 2 non-finite residual(s) fed to its trackers"]
    guard.counts.clear()


def test_small_battery_passes_the_gate_and_recomputes_identically():
    dw, guard = program()
    guard.counts.clear()
    doc = document("battery-1d-wide", 11, 20, SUITES)  # totally-geodesic needs 20
    spec = dw.parse_spec(doc)
    text = dw.emit_report(dw.run_suites(spec), "json")
    assert check_report(json.loads(text), doc["expected_failures"], guard.counts) == []
    dw.engine.workspace(spec.config).clear()
    assert dw.emit_report(dw.run_suites(spec), "json") == text
    assert guard.counts == {}


def test_chain_identities_hold_and_catch_a_shifted_output():
    dw, _ = program()
    spec = dw.parse_spec(document("stream-randers", 11, 2))
    for p in dw.sample_points(spec):
        out = chain(dw, spec.config, p)
        fiber = p.y + p.v
        assert check_point(out, fiber) is None
        for key, msg in (("G", "N.y != 2G"), ("hh", "y.hh != bracket curvature"),
                         ("Rm", "R.y != 0")):
            shifted = dict(out, **{key: out[key] + 1e-3})
            assert check_point(shifted, fiber) == msg
        assert check_point(dict(out, B=out["B"] * math.nan), fiber) == "non-finite ['B']"


def test_host_speed_correction_removes_samples_and_rescales():
    clock = HostSpeed()
    nominal = hostspeed.NOMINAL_S
    # Samples every 0.1 s at half the reference speed, then one far off.
    clock.ticks = [(0.1 * k, 2 * nominal) for k in range(30)] + [(9.0, 5 * nominal)]
    # Ten samples inside: their time is removed and the rest runs at half speed.
    assert math.isclose(clock.corrected(0.95, 1.95), (1.0 - 20 * nominal) / 2)
    # None inside: the three closest samples give the speed.
    assert math.isclose(clock.corrected(5.0, 5.01), 0.005)
    clock.ticks = []
    clock.sample(3)
    assert len(clock.ticks) == 3 and all(d > 0 for _, d in clock.ticks)


def test_product_macs_counts_leibniz_terms():
    for nvars, order in itertools.product(range(5), range(6)):
        exps = [e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order]
        assert product_macs(nvars, order) == sum(math.prod(k + 1 for k in e) for e in exps)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every check, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)

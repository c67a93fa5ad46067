"""dwfinsler benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload battery-randers --seed 1 --seconds 10 --trace 0

Each repetition runs in its own fresh process (``worker.py``), one at a time,
with single-threaded BLAS, so set-up time, peak RSS and the program's global
caches belong to one repetition.  Repetitions continue until their timed
sections add up to ``--seconds``; a battery repetition times two passes.
Set-up is sampled at least five times, by set-up-only processes before and
after the repetitions where needed.  Times are seconds at a reference host
speed (see ``hostspeed.py``): the shared host's own speed changes by up to
half within a minute, and a fixed reference computation sampled during the
run takes that change out; the wall times are printed beside them.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs one untraced and one traced repetition of the same inputs
and prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is the JSON result; the exit code is 1 when an output
fails its check or a worker fails, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0     # a run must end within 180 s
SETUP_SAMPLES = 5
SETUP_PROBES_FIRST = 2   # the rest follow the repetitions, to span the run
MAX_REPS = 50


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before all repetitions ran")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(base: list[str], seconds: float, deadline: float):
    def probe(k: int) -> float:
        return run_worker(base + ["--rep", str(MAX_REPS + k), "--mode", "setup"],
                          deadline)["setup_s"]

    setups = [probe(k) for k in range(SETUP_PROBES_FIRST)]
    reps: list[dict] = []
    measured = 0.0
    last_wall = 0.0
    while not reps or (measured < seconds and len(reps) < MAX_REPS
                       and time.monotonic() + 1.5 * last_wall < deadline):
        t = time.monotonic()
        reps.append(run_worker(base + ["--rep", str(len(reps)), "--mode", "rep"], deadline))
        last_wall = time.monotonic() - t
        measured += sum(reps[-1]["run_s"]) + sum(reps[-1]["point_ms"]) / 1000.0
    setups += [r["setup_s"] for r in reps]
    setups += [probe(k) for k in range(len(setups), SETUP_SAMPLES)]
    point_ms = [x for r in reps for x in r["point_ms"]]
    run_s = [x for r in reps for x in r["run_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "point_p50_ms": percentile(point_ms, 50),
        "point_p90_ms": percentile(point_ms, 90),
    }
    wall = statistics.median(x for r in reps for x in r["run_wall_s"])
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "run_s": f"median of {len(run_s)} pass(es) in {len(reps)} repetition(s); "
                      f"wall {wall:.4g} s",
             "peak_rss_mb": f"median of {len(reps)} repetition(s)",
             "point_p50_ms": f"over {len(point_ms)} points",
             "point_p90_ms": f"over {len(point_ms)} points"}
    return metrics, notes, reps, 0, []


def traced(base: list[str], deadline: float):
    # Both processes run the battery once; comparing their outputs checks that a
    # fresh recomputation repeats them.
    plain = run_worker(base + ["--rep", "0", "--mode", "once", "--trace", "0"], deadline)
    traced_rep = run_worker(base + ["--rep", "0", "--mode", "once", "--trace", "1"], deadline)
    metrics = dict(traced_rep["layers"])
    untraced_s, traced_s = plain["run_wall_s"][0], traced_rep["run_wall_s"][0]
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.traced_run_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    for name in traced_rep["missing"]:
        print(f"warning: {name} not found in the program; its metrics read 0", file=sys.stderr)
    failures = []
    if traced_rep["digest"] != plain["digest"]:
        failures.append("outputs differ between the untraced and the traced process")
    return metrics, {}, [plain, traced_rep], 1, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dwfinsler benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "dwfinsler" / "__init__.py").is_file():
        print(f"dwfinsler sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            metrics, notes, outs, attempted, failures = traced(base, deadline)
        else:
            metrics, notes, outs, attempted, failures = untraced(
                base + ["--trace", "0"], args.seconds, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1

    attempted += sum(o["attempted"] for o in outs)
    failed = len(failures) + sum(o["failed"] for o in outs)
    failures += [f for o in outs for f in o["failures"]]
    correct = failed == 0
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40}{metrics[name]:>16.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<40}{failed / attempted:>16.6g} {'ratio':<6} "
          f"{failed} of {attempted} operations")
    for msg in failures:
        print(f"  FAILED: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

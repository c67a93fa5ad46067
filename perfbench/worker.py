"""One benchmark process: set up a workload, run it once, check it, report.

``run.py`` starts a fresh process of this script for every repetition, e.g.

    PYTHONPATH=src python3 perfbench/worker.py --workload stream-randers \
        --seed 1 --rep 0 --mode rep --trace 0

``--mode setup`` stops after the set-up.  In ``--mode rep`` a battery runs
twice, the second time after the program's caches for the configuration are
cleared, and both reports must match byte for byte; ``--mode once`` runs it
once.  With ``--trace 1`` the layers are wrapped by :mod:`tracer`, the battery
runs once, one suite per ``run_suites`` call, and the per-layer totals are
added to the output.

Untraced, ``setup_s``, ``run_s`` and ``point_ms`` are seconds at the reference
host speed of :mod:`hostspeed`, whose sampler runs from before the set-up
until the outputs are checked; ``setup_wall_s`` and ``run_wall_s`` are the
wall times they come from.  Traced, both are wall times.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from workloads import SUITES, WORKLOADS, derived_seed, document, suite_metric_name

#: The per-point library chain, in dependency order, as traced names.
CHAIN_STEPS = (
    "core.fundamental_tensor", "connection.spray", "connection.nonlinear_connection",
    "connection.frame_brackets", "connection.horizontal_coefficients",
    "curvature.berwald_curvature", "curvature.hh_curvature", "curvature.riemann_map",
)

#: lifted functions whose self time is reported.
LIFTED = ("koszul_levi_civita", "levi_civita_closed_forms", "closedness_check",
          "nijenhuis_tables", "reinhart_defect", "vaisman_connection")

SPAN_DIR = Path(__file__).resolve().parent / "out"


def chain(dw, cfg, p) -> dict:
    """Evaluate the chain at one point; returns its outputs as arrays."""
    g, ginv = dw.fundamental_tensor(cfg, p)
    G = dw.spray(cfg, p).values
    N = dw.nonlinear_connection(cfg, p).matrix
    R, Gf = dw.frame_brackets(cfg, p)
    H = dw.horizontal_coefficients(cfg, p)
    B = dw.berwald_curvature(cfg, p)
    hh = dw.hh_curvature(cfg, p)
    Rm = dw.riemann_map(cfg, p)
    return {"g": g.array, "ginv": ginv.array, "G": G, "N": N, "R": R.array,
            "Gf": Gf.array, "H": H.array, "B": B.array, "hh": hh.array, "Rm": Rm.array}


def check_point(out: dict, fiber) -> str | None:
    """Identities every chain output must satisfy; None when all hold."""
    import numpy as np

    bad = sorted(k for k, a in out.items() if not np.all(np.isfinite(a)))
    if bad:
        return f"non-finite {bad}"
    y = np.asarray(fiber)
    if np.max(np.abs(out["N"] @ y - 2.0 * out["G"])) > 1e-9:
        return "N.y != 2G"
    if np.max(np.abs(np.einsum("b,bacd->acd", y, out["hh"]) - out["R"])) > 1e-7:
        return "y.hh != bracket curvature"
    scale = 1.0 + np.max(np.abs(out["Rm"])) * np.max(np.abs(y))
    if np.max(np.abs(out["Rm"] @ y)) > 1e-9 * scale:
        return "R.y != 0"
    return None


class ResidualGuard:
    """Counts, per suite, the non-finite values fed to the battery's trackers.

    The program's tracker keeps the largest ``abs(value)`` by ``>=``, which is
    false for NaN, so a NaN residual never reaches the report.  The guard wraps
    ``_Tracker.feed`` and every entry of the suite table to see it first.
    """

    def __init__(self, suites_module):
        self.counts: dict[str, int] = {}
        self.suite: str | None = None
        tracker = suites_module._Tracker
        feed = tracker.feed

        def guarded_feed(tr, value, *args, **kwargs):
            if not math.isfinite(float(value)):
                self.counts[self.suite] = self.counts.get(self.suite, 0) + 1
            return feed(tr, value, *args, **kwargs)

        tracker.feed = guarded_feed
        table = suites_module.SUITES
        for name, fn in list(table.items()):
            table[name] = self._within(name, fn)

    def _within(self, name: str, fn):
        def suite(*args, **kwargs):
            self.suite = name
            try:
                return fn(*args, **kwargs)
            finally:
                self.suite = None
        return suite


def check_report(doc: dict, expected_failures, nonfinite_fed=None) -> list[str]:
    """Recompute every verdict of a JSON report; one message per failed suite.

    The harness's own flags are not trusted: each entry passes when it has no
    tolerance or its residual is at most the tolerance, a suite passes when all
    its entries pass, and its verdict is as expected when that differs from
    being declared an expected failure.  Non-finite numbers fail the suite, as
    do non-finite values fed to its trackers (``ResidualGuard.counts``).
    """
    nonfinite_fed = nonfinite_fed or {}
    got = {s.get("name"): s for s in doc.get("suites", [])}
    failures = []
    for name in SUITES:
        s = got.get(name)
        if s is None:
            failures.append(f"{name}: missing from the report")
            continue
        passed, finite = True, _finite(s.get("max_residual"))
        for e in s.get("entries", []):
            res, tol = e.get("residual"), e.get("tolerance")
            finite = finite and _finite(res) and (tol is None or _finite(tol))
            if tol is not None and not (finite and res <= tol):
                passed = False
        as_expected = passed != (name in expected_failures)
        if nonfinite_fed.get(name):
            failures.append(f"{name}: {nonfinite_fed[name]} non-finite residual(s) "
                            "fed to its trackers")
        elif not finite:
            failures.append(f"{name}: non-finite residual or tolerance")
        elif not as_expected:
            failures.append(f"{name}: unexpected verdict (passed={passed})")
        elif (s.get("passed"), s.get("as_expected")) != (passed, True):
            failures.append(f"{name}: report flags disagree with its residuals")
    return failures


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def layer_metrics(setup: dict, run: dict, chain_phase: dict, chain_points: int,
                  suite_s: dict) -> dict:
    """Per-layer metrics from the tracer's phase totals."""
    from tracer import JET_LIFT, LIFT_REQUEST, MUL

    st = run["stats"]

    def calls(name, stats=st):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name, stats=st):
        return stats.get(name, (0, 0.0, 0.0))[2]

    requests = calls(LIFT_REQUEST)
    m = {
        "jets.mul_calls": calls(MUL), "jets.mul_macs": run["mul_macs"],
        "jets.mul_s": self_s(MUL),
        "jets.derive_calls": calls("jets.Jet.derive"),
        "jets.restrict_calls": calls("jets.Jet.restrict"),
        "jets.lift_calls": calls(JET_LIFT), "jets.lift_s": self_s(JET_LIFT),
        "engine.lift_requests": requests,
        "engine.lift_hit_ratio": 1.0 - run["fresh_lifts"] / requests if requests else 0.0,
        "linalg.invert_calls": calls("linalg.invert_matrix"),
        "linalg.invert_s": self_s("linalg.invert_matrix"),
        "closed_forms.self_s": sum(v[2] for k, v in st.items()
                                   if k.startswith("closed_forms.")),
        "suites.emit_report_s": st.get("suites.emit_report", (0, 0.0, 0.0))[1],
        "runspec.parse_s": self_s("runspec.parse_spec", setup["stats"]),
        "runspec.sample_points_s": self_s("runspec.sample_points", setup["stats"]),
    }
    for fn in LIFTED:
        m[f"lifted.{fn}_s"] = self_s(f"lifted.{fn}")
    for step in CHAIN_STEPS:
        total = chain_phase["stats"].get(step, (0, 0.0, 0.0))[1]
        m[f"{step}_ms"] = 1000.0 * total / chain_points if chain_points else 0.0
    for name in SUITES:
        m[suite_metric_name(name)] = suite_s.get(name, 0.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--mode", choices=("rep", "once", "setup"), default="rep")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    battery = wl["kind"] == "battery"
    points, side = wl["points"], wl["side_points"]

    def seed(purpose: str) -> int:
        return derived_seed(args.workload, args.seed, args.rep, purpose)

    # numpy is imported, and the host speed sampler that needs it started, before
    # the set-up is timed: the sampler then covers all of it, and the import of
    # numpy is a constant of the machine that only adds noise.
    import numpy  # noqa: F401
    clock = None
    if not args.trace:
        from hostspeed import HostSpeed
        clock = HostSpeed()
        clock.start()

    # -- set-up: import, parse, draw, one warm-up point outside the sample ----------
    t0 = time.perf_counter()
    import dwfinsler as dw
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    guard = ResidualGuard(dw.suites)
    doc = document(args.workload, seed("sample"), points, SUITES if battery else None)
    spec = dw.parse_spec(doc)
    cfg = spec.config
    sample = dw.sample_points(spec)
    phases = {}
    if tracer:
        phases["setup"] = tracer.take()  # the workload's own parse and draw only
    warm = dw.sample_points(dw.parse_spec(document(args.workload, seed("warm-up"), 1)))[0]
    side_points = (dw.sample_points(dw.parse_spec(document(args.workload, seed("side"), side)))
                   if battery and side else [])
    split = [dw.parse_spec(document(args.workload, seed("sample"), points, [name]))
             for name in SUITES] if battery and tracer else None
    chain(dw, cfg, warm)
    setup_iv = [(t0, time.perf_counter())]

    def seconds(intervals) -> list[float]:
        """Durations at the reference host speed; wall durations when traced."""
        return [clock.corrected(a, b) if clock else b - a for a, b in intervals]

    if args.mode == "setup":
        if clock:
            clock.stop()
            clock.sample(3)  # a short set-up may see fewer samples than it needs
        print(json.dumps({"setup_s": sum(seconds(setup_iv)),
                          "setup_wall_s": sum(b - a for a, b in setup_iv)}))
        return 0

    if tracer:
        tracer.take()  # the benchmark's extra documents and the warm-up point
        tracer.phase = "run"
    digest = hashlib.sha256()
    failures: list[str] = []
    attempted = 0
    suite_s: dict[str, float] = {}

    def stream(pts) -> tuple[list[tuple], list[dict]]:
        """The chain over fresh points: per-point wall intervals and outputs."""
        ivs, outs = [], []
        for p in pts:
            if clock:
                # A point can be shorter than the timer's interval, and host
                # speed changes within it: sample right next to every point.
                clock.sample(1)
            t = time.perf_counter()
            outs.append(chain(dw, cfg, p))
            ivs.append((t, time.perf_counter()))
        if clock and pts:
            clock.sample(1)
        return ivs, outs

    def verify(pts, outs) -> None:
        for p, o in zip(pts, outs):
            for key in sorted(o):
                digest.update(o[key].tobytes())
            bad = check_point(o, p.y + p.v)
            if bad:
                failures.append(f"point {p}: {bad}")

    # -- the timed section ---------------------------------------------------------
    if battery:
        t = time.perf_counter()
        if split:
            results = []
            for name, sub in zip(SUITES, split):
                ts = time.perf_counter()
                part = dw.run_suites(sub)
                suite_s[name] = time.perf_counter() - ts
                results.extend(part.suites)
            report = dw.DiagnosticsReport(part.label, part.seed, part.count, tuple(results))
        else:
            report = dw.run_suites(spec)
        text = dw.emit_report(report, "json")
        run_iv = [(t, time.perf_counter())]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            phases["run"] = tracer.take()
            tracer.phase = "points"
        elif args.mode == "rep":
            # -- a second, timed pass that recomputes everything from the document
            dw.engine.workspace(cfg).clear()
            t = time.perf_counter()
            again = dw.emit_report(dw.run_suites(spec), "json")
            run_iv.append((t, time.perf_counter()))
            attempted += 1
            if again != text:
                failures.append("report bytes differ on a recomputation of the same document")
        # -- correctness: verdicts recomputed from the residuals ------------------------
        failures.extend(check_report(json.loads(text), doc["expected_failures"],
                                     guard.counts))
        attempted += len(SUITES)
        digest.update(text.encode())
        point_iv, outs = stream(side_points)
        if tracer:
            phases["points"] = tracer.take()
        verify(side_points, outs)
        attempted += len(side_points)
    else:
        t = time.perf_counter()
        point_iv, outs = stream(sample)
        run_iv = [(t, time.perf_counter())]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            phases["run"] = phases["points"] = tracer.take()
        verify(sample, outs)
        attempted += len(sample)

    if clock:
        clock.stop()
    out = {"setup_s": sum(seconds(setup_iv)), "run_s": seconds(run_iv),
           "setup_wall_s": sum(b - a for a, b in setup_iv),
           "run_wall_s": [b - a for a, b in run_iv]}
    out.update(peak_rss_mb=peak_kib / 1024.0,
               point_ms=[1000.0 * s for s in seconds(point_iv)],
               attempted=attempted, failed=len(failures), failures=failures[:20],
               digest=digest.hexdigest())
    if tracer:
        out["layers"] = layer_metrics(phases["setup"], phases["run"], phases["points"],
                                      len(point_iv), suite_s)
        out["missing"] = tracer.missing
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"{args.workload}-seed{args.seed}-rep{args.rep}.spans.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "phase"],
                                    "spans": tracer.spans}))
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

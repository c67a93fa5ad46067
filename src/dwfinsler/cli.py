"""Command-line interface: evaluate tensors, run suites, render reports.

Exit codes: 0 when all verdicts are as expected (declared expected failures
included), 1 on an unexpected verdict, 2 on specification or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import DwfError, SchemaError
from .metrics import FIXTURES, TangentSample
from .runspec import (ALL_SUITES, RunSpec, fixture_document, parse_spec,
                      sample_points)
from .suites import emit_report, report_document, report_from_document, run_suites


def _load_runspec(args) -> RunSpec:
    if bool(args.spec) == bool(args.fixture):
        raise SchemaError("exactly one of --spec or --fixture is required")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = fixture_document(args.fixture)
    if args.seed is not None:
        doc.setdefault("sampling", {})["seed"] = args.seed
    if args.points is not None:
        doc.setdefault("sampling", {})["count"] = args.points
    if getattr(args, "suite", None):
        doc["suites"] = list(args.suite)
    if getattr(args, "tol", None):
        tolerances = doc.setdefault("tolerances", {})
        for item in args.tol:
            if "=" not in item:
                raise SchemaError(f"--tol expects name=value, got {item!r}")
            name, _, value = item.partition("=")
            try:
                tolerances[name] = float(value)
            except ValueError:
                raise SchemaError(f"--tol {name}: expected a number, got {value!r}") from None
    return parse_spec(doc)


def _parse_point(text: str, n1: int, n2: int) -> TangentSample:
    groups: dict[str, tuple[float, ...]] = {}
    for chunk in text.split(";"):
        name, _, values = chunk.partition("=")
        name = name.strip()
        if name not in ("x", "u", "y", "v") or not values:
            raise SchemaError(f"--point expects 'x=..;u=..;y=..;v=..', got {text!r}")
        groups[name] = tuple(float(t) for t in values.split(","))
    missing = {"x", "u", "y", "v"} - set(groups)
    if missing:
        raise SchemaError(f"--point is missing groups: {', '.join(sorted(missing))}")
    if len(groups["x"]) != n1 or len(groups["y"]) != n1 \
            or len(groups["u"]) != n2 or len(groups["v"]) != n2:
        raise SchemaError(f"--point dimensions must be x,y: {n1} and u,v: {n2}")
    return TangentSample(groups["x"], groups["u"], groups["y"], groups["v"])


_TENSORS = ("F2", "g", "ginv", "angular", "cartan", "mean-cartan", "matsumoto",
            "spray", "connection", "horizontal", "brackets", "berwald", "hh",
            "riemann-map")


def _evaluate(cfg, p: TangentSample, names) -> dict:
    from . import connection, core, curvature
    out: dict = {}
    for name in names:
        if name == "F2":
            out[name] = core.eval_F2(cfg, p).value
        elif name == "g":
            out[name] = core.fundamental_tensor(cfg, p)[0].array.tolist()
        elif name == "ginv":
            out[name] = core.fundamental_tensor(cfg, p)[1].array.tolist()
        elif name == "angular":
            out[name] = core.angular_metric(cfg, p).array.tolist()
        elif name == "cartan":
            out[name] = core.cartan_tensor(cfg, p).array.tolist()
        elif name == "mean-cartan":
            out[name] = core.mean_cartan(cfg, p).array.tolist()
        elif name == "matsumoto":
            out[name] = core.matsumoto_torsion(cfg, p).array.tolist()
        elif name == "spray":
            out[name] = connection.spray(cfg, p).values.tolist()
        elif name == "connection":
            out[name] = connection.nonlinear_connection(cfg, p).matrix.tolist()
        elif name == "horizontal":
            out[name] = connection.horizontal_coefficients(cfg, p).array.tolist()
        elif name == "brackets":
            r, gf = connection.frame_brackets(cfg, p)
            out[name] = {"curvature": r.array.tolist(), "connection": gf.array.tolist()}
        elif name == "berwald":
            out[name] = curvature.berwald_curvature(cfg, p).array.tolist()
        elif name == "hh":
            out[name] = curvature.hh_curvature(cfg, p).array.tolist()
        elif name == "riemann-map":
            out[name] = curvature.riemann_map(cfg, p).array.tolist()
        else:
            raise SchemaError(f"unknown tensor {name!r}; known: {', '.join(_TENSORS)}")
    return out


def _cmd_eval(args) -> int:
    spec = _load_runspec(args)
    cfg = spec.config
    if args.point:
        points = [_parse_point(t, cfg.n1, cfg.n2) for t in args.point]
    else:
        points = sample_points(spec)[:max(1, args.points or 1)]
    names = args.tensor or ["g", "spray"]
    doc = [{"point": {"x": list(p.x), "u": list(p.u), "y": list(p.y), "v": list(p.v)},
            "tensors": _evaluate(cfg, p, names)} for p in points]
    print(json.dumps({"config": spec.label, "evaluations": doc},
                     sort_keys=True, indent=2))
    return 0


def _cmd_verify(args) -> int:
    spec = _load_runspec(args)
    report = run_suites(spec)
    if args.json:
        doc = {
            "meta": {"tool": "dwfinsler", "version": __version__,
                     "generated_at": datetime.now(timezone.utc).isoformat()},
            "report": report_document(report),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(emit_report(report, "text"))
    return 0 if report.ok else 1


def _cmd_fixtures(_args) -> int:
    descriptions = {
        "FIX-1D": "1D Euclidean factors, quadratic warps on both sides",
        "FIX-E": "2D Euclidean factors, quadratic warps in the first coordinates",
        "FIX-P": "plain product: 2D Euclidean factors, constant warps",
        "FIX-R": "2D Euclidean x 2D Randers (b = (0.3, 0)), quadratic warps",
    }
    for name in sorted(FIXTURES):
        cfg = FIXTURES[name]
        print(f"{name:8s} n1={cfg.n1} n2={cfg.n2} {cfg.classification():14s} "
              f"{descriptions.get(name, '')}")
    return 0


def _cmd_report(args) -> int:
    with open(args.json, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    report = report_from_document(doc["report"] if "report" in doc else doc)
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwfinsler",
        description="Doubly warped product Finsler geometry engine and verifier")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(sp, with_suites: bool):
        sp.add_argument("--spec", help="path to a JSON run document")
        sp.add_argument("--fixture", help="name of a built-in fixture")
        sp.add_argument("--seed", type=int, help="override the sampling seed")
        sp.add_argument("--points", type=int, help="override the sample count")
        if with_suites:
            sp.add_argument("--suite", action="append", choices=ALL_SUITES,
                            help="run only this suite (repeatable)")
            sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                            help="override a tolerance (repeatable)")

    sp = sub.add_parser("eval", help="print tensors at given or sampled points")
    add_spec_flags(sp, with_suites=False)
    sp.add_argument("--point", action="append",
                    help="semicolon-separated groups, e.g. 'x=0,0;u=1,0;y=1,0.3;v=0.2,1'")
    sp.add_argument("--tensor", action="append", choices=_TENSORS,
                    help="tensor to print (repeatable; default: g and spray)")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("verify", help="run verification suites")
    add_spec_flags(sp, with_suites=True)
    sp.add_argument("--json", help="also write the full JSON report to this path")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("fixtures", help="list built-in fixtures")
    sp.set_defaults(func=_cmd_fixtures)

    sp = sub.add_parser("report", help="re-render a stored JSON report")
    sp.add_argument("--json", required=True, help="path to a stored report")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DwfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

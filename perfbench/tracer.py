"""Spans and counters around dwfinsler's layers, installed from outside the program.

:meth:`Tracer.install` wraps every public function of the traced modules, plus
the jet-kernel methods and ``EnginePoint.lift``, and rebinds each wrapper
wherever a dwfinsler module refers to the original.  Each wrapper keeps, per
name, the call count, the total time and the self time (its span minus the
time covered by wrapped calls it made).  Calls that are not :func:`is_hot`
also leave one span record ``(name, start, end, parent, phase)``; the hot ones
are called up to millions of times per run and keep totals only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("jets", "engine", "linalg", "core", "connection", "curvature",
           "closed_forms", "lifted", "runspec", "suites")

MUL = "jets.Jet.__mul__"
LIFT_REQUEST = "engine.EnginePoint.lift"
JET_LIFT = "jets.jet_lift"


def is_hot(name: str) -> bool:
    """Jet-level calls and per-call engine lookups keep totals but no spans."""
    return name.startswith("jets.") or name in (LIFT_REQUEST, "engine.workspace")


#: Methods wrapped besides the public functions: (module, class, attributes).
#: ``__rmul__`` is the same function as ``__mul__`` and shares its wrapper.
METHODS = (("jets", "Jet", ("__mul__", "__rmul__", "derive", "restrict")),
           ("engine", "EnginePoint", ("lift",)))


@functools.cache
def product_macs(nvars: int, order: int) -> int:
    """Multiply-adds of one truncated jet x jet product.

    Output exponent e takes prod(e_i + 1) products, summed over |e| <= order:
    the coefficient sum up to degree `order` of (sum_j (j + 1) t^j)^nvars.
    """
    poly = [1] + [0] * order
    for _ in range(nvars):
        poly = [sum((j + 1) * poly[d - j] for j in range(d + 1)) for d in range(order + 1)]
    return sum(poly)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.spans: list = []
        self.mul_macs = 0
        self.fresh_lifts = 0
        self.phase = "setup"
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child_s, span_id, parent_id]
        self._span_parent = -1

    # -- recording --------------------------------------------------------------
    def _enter(self, name: str, logged: bool) -> list:
        span_id = -1
        if logged:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, time.perf_counter(), 0.0, span_id, self._span_parent]
        if span_id >= 0:
            self._span_parent = span_id
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if span_id >= 0:
            self.spans[span_id] = (name, start, end, parent, self.phase)
            self._span_parent = parent

    def _wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit
        logged = not is_hot(name)

        def wrapper(*args, **kwargs):
            frame = enter(name, logged)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_mul(self, fn, jet_type):
        enter, exit_ = self._enter, self._exit

        def wrapper(a, b):
            frame = enter(MUL, False)
            try:
                out = fn(a, b)
                if isinstance(b, jet_type):
                    self.mul_macs += product_macs(len(out.seeds), out.order)
                return out
            finally:
                exit_(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_jet_lift(self, fn):
        enter, exit_ = self._enter, self._exit
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == LIFT_REQUEST:
                self.fresh_lifts += 1  # EnginePoint.lift missed its memo
            frame = enter(JET_LIFT, False)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layers for the rest of the process; dwfinsler must be imported."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "dwfinsler" or key.startswith("dwfinsler.")]
        for modname in MODULES:
            mod = sys.modules.get(f"dwfinsler.{modname}")
            if mod is None:
                self.missing.append(f"dwfinsler.{modname}")
                continue
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{modname}.{attr}"
                wrapper = (self._wrap_jet_lift(fn) if name == JET_LIFT
                           else self._wrap(name, fn))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
        for modname, clsname, attrs in METHODS:
            cls = getattr(sys.modules.get(f"dwfinsler.{modname}"), clsname, None)
            done = {}
            for attr in attrs:
                fn = inspect.getattr_static(cls, attr, None) if cls is not None else None
                if not inspect.isfunction(fn):
                    self.missing.append(f"{modname}.{clsname}.{attr}")
                    continue
                if fn not in done:
                    name = f"{modname}.{clsname}.{attr}"
                    done[fn] = (self._wrap_mul(fn, cls) if attr in ("__mul__", "__rmul__")
                                else self._wrap(name, fn))
                setattr(cls, attr, done[fn])

    # -- reading ------------------------------------------------------------------
    def take(self) -> dict:
        """Totals since the last take, then start the next phase from zero."""
        out = {"stats": self.stats, "mul_macs": self.mul_macs,
               "fresh_lifts": self.fresh_lifts}
        self.stats, self.mul_macs, self.fresh_lifts = {}, 0, 0
        return out

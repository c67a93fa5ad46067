"""The harness enforces every closed-form transcription of ``closed_forms``, and
reads every other public function of the library."""

import inspect

import pytest

from dwfinsler import closed_forms, connection, core, curvature, lifted, suites
from dwfinsler.runspec import fixture_runspec
from dwfinsler.suites import run_suites
from conftest import ALL_FIXTURES


@pytest.mark.parametrize("family, tensor, block", [
    ("spray_blocks", "spray", "2"),
    ("nonlinear_connection_blocks", "N", "22"),
    ("connection_fiber_blocks", "Gf", "2.22"),
    ("horizontal_blocks", "H", "2.22"),
])
def test_closed_form_blocks_catch_a_scaled_block(family, tensor, block, monkeypatch):
    # A transcription slip of 0.1 % in one nonzero FIX-R block.
    real = getattr(closed_forms, family)

    def slipped(*args, **kwargs):
        out = real(*args, **kwargs)
        return dict(out, **{block: 1.001 * out[block]})

    monkeypatch.setattr(closed_forms, family, slipped)
    rep = run_suites(fixture_runspec("FIX-R", seed=3, count=4, suites=("closed-form-blocks",)))
    suite = rep.suites[0]
    failed = {e.name for e in suite.entries if not e.passed}
    name = f"closed-form-{tensor}.{block}"
    assert not suite.passed and not rep.ok
    assert name in failed
    # The other blocks of the same tensor are untouched; H reads the N blocks.
    assert not {f for f in failed if f.startswith(f"closed-form-{tensor}.")} - {name}


#: Public functions a battery need not call: the per-point chain of the
#: benchmark, the table reader of ``dwfinsler eval`` and the harness's entry
#: points.
ENTRY_POINTS = {
    "core.fundamental_tensor", "core.tensor",
    "connection.spray", "connection.nonlinear_connection", "connection.frame_brackets",
    "connection.horizontal_coefficients",
    "curvature.berwald_curvature", "curvature.hh_curvature", "curvature.riemann_map",
    "suites.run_suites", "suites.emit_report", "suites.report_document",
    "suites.report_from_document",
}


def test_every_public_function_is_read_by_a_suite(monkeypatch):
    public, called = set(), set()
    for module in (core, connection, curvature, lifted, suites, closed_forms):
        prefix = module.__name__.rpartition(".")[2]
        for attr, fn in vars(module).copy().items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            public.add(f"{prefix}.{attr}")

            def counted(*args, _fn=fn, _name=f"{prefix}.{attr}", **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    assert ENTRY_POINTS <= public
    assert {"closed_forms.spray_blocks", "closed_forms.berwald_blocks", "lifted.of",
            "lifted.kahler_verdict"} <= public
    unread = {}
    for name in ALL_FIXTURES:
        called.clear()
        assert run_suites(fixture_runspec(name)).ok
        unread[name] = sorted(public - ENTRY_POINTS - called)
    assert unread == {name: [] for name in ALL_FIXTURES}

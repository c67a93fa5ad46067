"""The harness enforces every closed-form transcription of ``closed_forms``."""

import inspect

import pytest

from dwfinsler import closed_forms
from dwfinsler.runspec import fixture_runspec
from dwfinsler.suites import run_suites


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


def test_every_closed_form_is_read_by_a_suite(monkeypatch):
    calls = {}
    for attr, fn in vars(closed_forms).copy().items():
        if attr.startswith("_") or not inspect.isfunction(fn) \
                or fn.__module__ != closed_forms.__name__:
            continue
        calls[attr] = 0

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(closed_forms, attr, counted)
    assert {"spray_blocks", "nonlinear_connection_blocks", "connection_fiber_blocks",
            "horizontal_blocks", "berwald_blocks"} <= set(calls)
    assert run_suites(fixture_runspec("FIX-R", seed=3, count=3)).ok
    assert not [attr for attr, n in calls.items() if n == 0]

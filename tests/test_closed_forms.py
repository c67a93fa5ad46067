"""The harness enforces every closed-form transcription of ``closed_forms``, and
reads every other public function of the library."""

import inspect
import sys

import pytest

from dwfinsler import (blocks, closed_forms, connection, coords, core, curvature, engine,
                       fd, jets, lifted, linalg, metrics, report, runspec, suites)
from dwfinsler.cli import main
from dwfinsler.runspec import fixture_runspec, parse_spec
from dwfinsler.suites import run_suites
from conftest import ALL_FIXTURES

#: The modules whose public functions every fixture's battery reads, but for
#: those the CLI calls around a battery.
HARNESS = (core, connection, curvature, lifted, suites, closed_forms)
AROUND_A_BATTERY = {"core.tensor", "suites.run_suites", "suites.emit_report"}


@pytest.mark.parametrize("family, tensor, block", [
    ("spray_blocks", "spray", "2"),
    ("nonlinear_connection_blocks", "N", "22"),
    ("connection_fiber_blocks", "Gf", "2.22"),
    ("horizontal_blocks", "H", "2.22"),
    # Factor-1 and mixed blocks, and the Berwald blocks whose factor-2 key
    # swaps the mirrored pattern's first two lower slots.
    ("spray_blocks", "spray", "1"),
    ("nonlinear_connection_blocks", "N", "12"),
    ("connection_fiber_blocks", "Gf", "1.12"),
    ("horizontal_blocks", "H", "1.22"),
    ("berwald_blocks", "B", "2.122"),
    ("berwald_blocks", "B", "2.121"),
])
def test_closed_form_blocks_catch_a_scaled_block(family, tensor, block, monkeypatch):
    # A transcription slip of 0.1 % in one nonzero FIX-R block.
    real = getattr(closed_forms, family)

    def slipped(*args, **kwargs):
        out = real(*args, **kwargs)
        return dict(out, **{block: 1.001 * out[block]})

    monkeypatch.setattr(closed_forms, family, slipped)
    suite_name, prefix = (("berwald-blocks", "block-") if tensor == "B"
                          else ("closed-form-blocks", f"closed-form-{tensor}."))
    rep = run_suites(fixture_runspec("FIX-R", seed=3, count=4, suites=(suite_name,)))
    suite = rep.suites[0]
    failed = {e.name for e in suite.entries if not e.passed}
    name = prefix + block
    assert not suite.passed and not rep.ok
    assert name in failed
    # The other blocks of the same tensor are untouched; H reads the N blocks.
    assert not {f for f in failed if f.startswith(prefix)} - {name}


#: Public names that no battery, document or command below reads, each for a
#: stated reason.
ENTRY_POINTS = {
    # The per-point chain of the benchmark and of library users.
    "core.fundamental_tensor", "connection.spray", "connection.SprayField.values",
    "connection.nonlinear_connection", "connection.frame_brackets",
    "connection.horizontal_coefficients",
    "curvature.berwald_curvature", "curvature.hh_curvature", "curvature.riemann_map",
    # The finite-difference oracle by probe, of one or of many (the battery
    # hands its probes to fd.fd_stencils as arrays), and the fixtures by
    # name, for library users.
    "fd.fd_partial", "fd.fd_partials", "runspec.fixture", "runspec.fixture_runspec",
    # A report as a dict, for library users; the tests hold the JSON writer
    # to its json.dumps.
    "report.report_document",
    # The escape hatch: no run document can name a custom factor.
    "metrics.CustomFactor.f_squared",
}

#: The modules of the library, apart from the engine's internals and the CLI.
MODULES = (core, connection, curvature, lifted, suites, report, closed_forms,
           fd, jets, metrics, runspec, linalg, blocks, coords)


def _public(module):
    """(name, owner, attribute, value) of each public function of ``module``
    and each public method, property and class method of its public classes."""
    prefix = module.__name__.rpartition(".")[2]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{prefix}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for name, member in sorted(vars(obj).items()):
                if not name.startswith("_") and (inspect.isfunction(member) or isinstance(
                        member, (property, classmethod, staticmethod))):
                    yield f"{prefix}.{attr}.{name}", obj, name, member


def _counted(member, name, seen):
    """``member`` wrapped so that each call adds ``name`` to the last set of ``seen``."""
    if isinstance(member, property):
        return property(_counted(member.fget, name, seen))
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(_counted(member.__func__, name, seen))

    def counted(*args, **kwargs):
        seen[-1].add(name)
        return member(*args, **kwargs)

    return counted


def _runs(tmp_path):
    """(name, call) of every run the guard watches: the battery on each
    fixture, the documents of the asymmetric and byte-pinned tests, and each
    command of the CLI."""
    from test_asymmetric import ASYM_1x3, ASYM_3x2
    from test_report_bytes import CUBIC_2x2
    report = tmp_path / "report.json"
    for name in ALL_FIXTURES:
        yield name, lambda name=name: run_suites(fixture_runspec(name)).ok
    for doc in (ASYM_1x3, ASYM_3x2, CUBIC_2x2):
        yield doc["label"], lambda doc=doc: run_suites(parse_spec(doc)).ok
    yield "cli", lambda: (
        main(["fixtures"]) == 0
        and main(["eval", "--fixture", "FIX-R", *(f"--tensor={t}" for t in core.TENSORS)]) == 0
        and main(["eval", "--fixture", "FIX-1D", "--point", "x=0;u=1;y=1;v=1"]) == 0
        and main(["verify", "--fixture", "FIX-P", "--points", "2", "--suite", "yF=G",
                  "--json", str(report)]) == 0
        and main(["report", "--json", str(report)]) == 0
        and main(["report", "--json", str(report), "--format", "json"]) == 0)


def test_every_public_function_is_read_by_a_suite(monkeypatch, tmp_path):
    # Each run starts from a fresh workspace, so nothing read is a leftover.
    monkeypatch.setattr(engine, "_last", None)
    namespaces = [m for key, m in sys.modules.items() if key.startswith("dwfinsler")]
    public, harness, seen = set(), set(), [set()]
    for module in MODULES:
        for name, owner, attr, member in _public(module):
            public.add(name)
            if owner is module and module in HARNESS:
                harness.add(name)
            wrapper = _counted(member, name, seen)
            monkeypatch.setattr(owner, attr, wrapper)
            if owner is module:  # also where another module imported the function
                for ns in namespaces:
                    if vars(ns).get(attr) is member:
                        monkeypatch.setattr(ns, attr, wrapper)
    assert ENTRY_POINTS <= public
    assert {"closed_forms.spray_blocks", "lifted.of", "jets.support_lift",
            "metrics.RandersFactor.f_squared", "fd.fd_stencils",
            "blocks.max_abs"} <= public
    for name, run in _runs(tmp_path):
        seen.append(set())
        assert run(), name
        if name in ALL_FIXTURES:
            # Every fixture's battery reads every function of the harness.
            assert sorted(harness - ENTRY_POINTS - AROUND_A_BATTERY - seen[-1]) == [], name
    assert sorted(public - ENTRY_POINTS - set().union(*seen)) == []

import os
import subprocess
import sys

import pytest

import dwfinsler
from dwfinsler import TangentSample, fixture
from dwfinsler.jets import context, support_lift
from dwfinsler.runspec import fixture_runspec, sample_points
from dwfinsler.suites import run_suites

ALL_FIXTURES = ("FIX-1D", "FIX-E", "FIX-P", "FIX-R")


def jet_lift(field, point, seeds, order: int):
    """The dense lift: ``field`` lifted at ``point`` over all of ``seeds`` up
    to ``order``, its partials along the seeds it does not read exactly zero.
    The reference of the lift by support, which the engine runs."""
    return support_lift(field, point, seeds, order).embed(context(seeds, order))


def engine_point(wp, name: str):
    """The engine point ``name`` of a work point: "product", "factor1" or "factor2"."""
    return wp.product if name == "product" else wp.factors[int(name[-1]) - 1]


def fresh_python(code: str) -> str:
    """The standard output of ``code`` run in a new interpreter that imports
    this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwfinsler.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def region(name: str, count: int = 8, seed: int = 7):
    """Deterministic sample points for a built-in fixture."""
    return sample_points(fixture_runspec(name, seed=seed, count=count))


@pytest.fixture(scope="session")
def reports():
    """A full verification run per built-in fixture at 25 points, shared by all tests."""
    return {name: run_suites(fixture_runspec(name)) for name in ALL_FIXTURES}


def entries(reports, fixture_name, suite, prefix=""):
    suite_result = next(s for s in reports[fixture_name].suites if s.name == suite)
    return [e for e in suite_result.entries if e.name.startswith(prefix)]


@pytest.fixture(scope="session")
def fix1d():
    return fixture("FIX-1D")


@pytest.fixture(scope="session")
def fixe():
    return fixture("FIX-E")


@pytest.fixture(scope="session")
def fixp():
    return fixture("FIX-P")


@pytest.fixture(scope="session")
def fixr():
    return fixture("FIX-R")


@pytest.fixture(scope="session")
def p1d():
    return TangentSample((0.0,), (1.0,), (1.0,), (1.0,))


@pytest.fixture(scope="session")
def p4():
    """A generic admissible point for the 2+2-dimensional fixtures."""
    return TangentSample((0.4, -0.2), (0.5, 0.3), (1.0, 0.3), (0.2, 1.0))

import numpy as np
import pytest

from dwfinsler import TangentSample, closed_forms, fixture
from dwfinsler.blocks import max_abs
from dwfinsler.connection import (frame_brackets, horizontal_coefficients,
                                  nonlinear_connection, spray)
from dwfinsler.engine import workspace
from conftest import entries, jet_lift, region


def adapted_derivatives(cfg, p, field):
    """delta f / delta x^b = d f / d x^b - N^c_b d f / d fiber^c at ``p``, along
    every base direction b, by the engine's adapted derivative."""
    ep = workspace(cfg).at(p).product
    return ep.delta(jet_lift(field, p, ep.engine.coords, 1))


def worst_closed_form(reports, name, tensor, count):
    """The worst ``closed-form-<tensor>.*`` residual of a fixture's report."""
    found = entries(reports, name, "closed-form-blocks", f"closed-form-{tensor}.")
    assert len(found) == count
    return max(e.residual for e in found)


def test_spray_vanishes_on_flat_product(fixp):
    for p in region("FIX-P", 3):
        assert np.max(np.abs(spray(fixp, p).values)) == 0.0


def test_spray_hand_values(fix1d, p1d):
    blocks = closed_forms.spray_blocks(workspace(fix1d).at(p1d))
    for values in (spray(fix1d, p1d).values, np.concatenate([blocks["1"], blocks["2"]])):
        assert values[0] == pytest.approx(0.5, abs=1e-9)
        assert values[1] == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_spray_decomposition_agreement(reports, name):
    assert worst_closed_form(reports, name, "spray", 2) <= 1e-9


def test_spray_two_homogeneity(fixe):
    for p in region("FIX-E", 4):
        a = spray(fixe, p).values
        scaled = TangentSample(p.x, p.u, tuple(2.0 * t for t in p.y),
                               tuple(2.0 * t for t in p.v))
        b = spray(fixe, scaled).values
        assert np.max(np.abs(b - 4.0 * a)) <= 1e-9


def test_nonlinear_connection_hand_values(fix1d, p1d):
    N = nonlinear_connection(fix1d, p1d).matrix
    assert np.allclose(N, [[0.5, 0.5], [-1.0, 0.0]], atol=1e-9)


def test_nonlinear_connection_vanishes_on_product(fixp, p4):
    assert np.max(np.abs(nonlinear_connection(fixp, p4).matrix)) == 0.0


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-R"])
def test_nonlinear_connection_closed_blocks(reports, name):
    assert worst_closed_form(reports, name, "N", 4) <= 1e-8


def test_connection_degree_identity(fixe):
    # fiber contraction of the second derivative reproduces the connection
    for p in region("FIX-E", 6):
        ep = workspace(fixe).at(p).product
        lhs = np.einsum("abc,c->ab", ep.connection_fiber_values(), ep.fiber_values())
        assert np.max(np.abs(lhs - ep.nonlinear_connection_values())) <= 1e-8


def test_adapted_derivative_reduces_to_plain(fixe, p4):
    # A field of the base coordinates alone: x0, x1, u0, u1.
    field = lambda c: c.x[0] ** 2 + 2.0 * c.u[0]
    assert adapted_derivatives(fixe, p4, field) == pytest.approx([2.0 * p4.x[0], 0.0, 2.0, 0.0],
                                                                 abs=1e-12)


def test_norm_is_horizontally_constant(fixe):
    for p in region("FIX-E", 5):
        assert max_abs(adapted_derivatives(fixe, p, fixe.F2)) <= 1e-8


def test_adapted_derivative_on_product_is_plain(fixp, p4):
    field = lambda c: c.y[0] ** 2 * c.x[1]
    got = adapted_derivatives(fixp, p4, field)
    assert got == pytest.approx([0.0, p4.y[0] ** 2, 0.0, 0.0], abs=1e-12)


def test_brackets_on_product(fixp, p4):
    R, G = frame_brackets(fixp, p4)
    assert max_abs(R.array) == 0.0
    assert max_abs(G.array) == 0.0


def test_bracket_antisymmetry(fixr, p4):
    R, _ = frame_brackets(fixr, p4)
    assert np.max(np.abs(R.array + np.transpose(R.array, (0, 2, 1)))) == 0.0


def test_bracket_hand_value(fix1d, p1d):
    _, G = frame_brackets(fix1d, p1d)
    # second-factor fiber response to the first-factor block
    assert G.array[1, 0, 0] == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-R"])
def test_connection_fiber_closed_blocks(reports, name):
    assert worst_closed_form(reports, name, "Gf", 6) <= 1e-8


def test_horizontal_flat_product(fixp, p4):
    assert max_abs(horizontal_coefficients(fixp, p4).array) == 0.0


def test_horizontal_symmetry_and_hand_value(fix1d, p1d, fixr, p4):
    H = horizontal_coefficients(fix1d, p1d).array
    assert H[0, 0, 1] == pytest.approx(0.5, abs=1e-9)
    Hr = horizontal_coefficients(fixr, p4).array
    assert np.max(np.abs(Hr - np.transpose(Hr, (0, 2, 1)))) == 0.0


@pytest.mark.parametrize("name", ["FIX-E", "FIX-R"])
def test_fiber_contraction_recovers_connection(name):
    cfg = fixture(name)
    for p in region(name, 6):
        ep = workspace(cfg).at(p).product
        lhs = np.einsum("c,abc->ab", ep.fiber_values(), ep.horizontal_values())
        assert np.max(np.abs(lhs - ep.nonlinear_connection_values())) <= 1e-8


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-R"])
def test_horizontal_closed_blocks(reports, name):
    assert worst_closed_form(reports, name, "H", 6) <= 1e-8

import numpy as np
import pytest

from dwfinsler import base1, base2, fiber1, fiber2
from dwfinsler.engine import workspace
from dwfinsler.errors import SingularMetricError
from dwfinsler.jets import einsum
from dwfinsler.linalg import invert_matrix


def test_hand_inverse_2x2():
    inv, cond = invert_matrix([[4.0, 7.0], [2.0, 6.0]])
    assert np.allclose(inv, [[0.6, -0.7], [-0.2, 0.4]])
    assert cond >= 1.0


def test_identity_roundtrip():
    a = [[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.5]]
    inv, _ = invert_matrix(a)
    assert np.allclose(np.array(a) @ np.array(inv), np.eye(3), atol=1e-14)


def test_singular_and_ill_conditioned_rejected():
    with pytest.raises(SingularMetricError):
        invert_matrix([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMetricError):
        invert_matrix([[1.0, 1.0], [1.0, 1.0 + 1e-15]])


def test_inverse_metric_jet_times_metric_is_identity(fixr, p4):
    # g^-1 comes from the value inverse plus a nilpotent series; every partial
    # of g^-1 g up to order 3 must vanish, so a series cut short shows here.
    ep = workspace(fixr).at(p4).product
    prod = einsum("ab,bc->ac", ep.ginv(), ep.g())
    # The seeds are F^2's support: FIX-R's warps read x0 and u0 only.
    support = (base1(0), base2(0), fiber1(0), fiber1(1), fiber2(0), fiber2(1))
    assert prod.order == 3 and prod.seeds == support
    assert np.max(np.abs(prod.value - np.eye(fixr.n))) <= 1e-14
    assert np.max(np.abs(prod.c[..., 1:])) <= 1e-13

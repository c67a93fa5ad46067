import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dwfinsler import base1, base2, fiber1, fiber2
from dwfinsler.engine import workspace
from dwfinsler.errors import SingularMetricError
from dwfinsler.jets import einsum
from dwfinsler.linalg import invert


def test_hand_inverse_2x2():
    inv, cond = invert([[4.0, 7.0], [2.0, 6.0]])
    assert np.allclose(inv, [[0.6, -0.7], [-0.2, 0.4]])
    assert isinstance(cond, float) and cond >= 1.0


def test_identity_roundtrip():
    a = [[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.5]]
    inv, _ = invert(a)
    assert np.allclose(np.array(a) @ inv, np.eye(3), atol=1e-14)


def test_singular_and_ill_conditioned_rejected():
    with pytest.raises(SingularMetricError, match="singular matrix"):
        invert([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMetricError, match="ill-conditioned"):
        invert([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    # An inf entry makes the estimate inf.
    with pytest.raises(SingularMetricError, match="condition estimate inf exceeds"):
        invert([[np.inf, 0.0], [0.0, 1.0]])


#: Entries with ties in |value| and exact zeros of both signs, mixed with
#: uniform draws, so pivots tie, rows swap and elimination factors vanish.
_SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -3.0])
#: Non-finite entries and entries whose products underflow or overflow.
_EXTREME = np.array([np.nan, np.inf, -np.inf, 1e-300, -1e-300, 1e300, -1e300])


@st.composite
def _batches(draw):
    n, count = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (count, n, n)
    mats = np.where(rng.random(shape) < 0.7, rng.choice(_SPECIAL, shape),
                    rng.uniform(-4.0, 4.0, shape))
    if draw(st.booleans()):
        # A large entry in each column at a random row, mostly off the
        # diagonal: the batch is mostly invertible and its rows swap.
        for mat in mats:
            mat[rng.permutation(n), np.arange(n)] = rng.choice([8.0, -8.0], n)
    if draw(st.booleans()):
        extreme = rng.random(shape) < 0.15
        mats[extreme] = rng.choice(_EXTREME, extreme.sum())
    return mats


def _bits(x) -> bytes:
    """The bytes of ``x`` with every NaN made the one NaN ``np.nan``: which
    NaN operand an operation passes on is not fixed.  Every other bit is
    compared."""
    x = np.array(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _alone(mat):
    """``invert`` of one matrix, or the message it raises."""
    try:
        return invert(mat)
    except SingularMetricError as exc:
        return str(exc)


@given(_batches())
# NaN entries in and off the first pivot's column, an inf entry, and
# products that overflow or underflow.
@example(np.array([[[1.0, 2.0, 0.0], [np.nan, 1.0, 3.0], [2.0, 0.5, 1.0]],
                   [[1.0, 2.0, 0.0], [3.0, 1.0, 3.0], [2.0, np.nan, 1.0]],
                   [[np.nan, 2.0, 0.0], [3.0, 1.0, 3.0], [2.0, 0.5, 1.0]],
                   [[1.0, 2.0, 0.0], [3.0, np.inf, 3.0], [2.0, 0.5, 1.0]]]))
@example(np.array([[[1e300, 2.0], [3.0, 1e300]], [[1e-300, 0.0], [0.0, 1e-300]],
                   [[2.0, 1.0], [1.0, 3.0]]]))
# LAPACK rejects this NaN matrix: it inverts to NaN with no error, alone and
# in a batch; an inf entry is rejected as ill-conditioned.
@example(np.array([[[np.nan, 1.0], [1.0, 1.0]]]))
@example(np.array([[[2.0, 1.0], [1.0, 3.0]], [[np.nan, 1.0], [1.0, 1.0]],
                   [[2.0, 1.0], [1.0, 3.0]]]))
@example(np.array([[[np.inf, 0.0], [0.0, 1.0]]]))
@settings(max_examples=200, deadline=None)
def test_a_batched_inverse_equals_each_matrix_inverted_alone(mats):
    # Bit for bit, inverse and condition estimate, and the first sample that
    # fails alone fails the batch with its own message.  A matrix with a NaN
    # entry never fails, and inverts to NaN with a NaN estimate.
    alone = [_alone(m) for m in mats]
    for m, got in zip(mats, alone):
        if np.isnan(m).any():
            assert not isinstance(got, str)
            assert np.isnan(got[0]).all() and np.isnan(got[1])
    failed = [got for got in alone if isinstance(got, str)]
    if failed:
        with pytest.raises(SingularMetricError) as info:
            invert(mats)
        assert str(info.value) == failed[0]
    ok = [k for k, got in enumerate(alone) if not isinstance(got, str)]
    if not ok:
        return
    inverses, conds = invert(mats[ok])
    assert inverses.shape == mats[ok].shape and conds.shape == (len(ok),)
    for k, inv, cond in zip(ok, inverses, conds):
        want_inv, want_cond = alone[k]
        assert _bits(inv) == _bits(want_inv)
        assert _bits(cond) == _bits(want_cond)


def test_a_bad_matrix_fails_its_batch_with_its_own_message():
    good = [[2.0, 1.0], [1.0, 3.0]]
    singular = [[1.0, 2.0], [2.0, 4.0]]
    ill = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    for bad in (singular, ill):
        with pytest.raises(SingularMetricError) as alone:
            invert(bad)
        for batch in ([bad, good], [good, bad, good], [good, good, bad]):
            with pytest.raises(SingularMetricError) as batched:
                invert(np.array(batch))
            assert str(batched.value) == str(alone.value)
    # The first bad matrix in sample order decides the message.
    with pytest.raises(SingularMetricError, match="ill-conditioned"):
        invert(np.array([good, ill, singular]))
    with pytest.raises(SingularMetricError, match="zero pivot in its LU factorization"):
        invert(np.array([good, singular, ill]))


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

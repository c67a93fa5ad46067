"""Factor-swap equivariance of the product tensors.

F^2 = f2(u)^2 F1^2(x, y) + f1(x)^2 F2^2(u, v) is the same field when the
factors and the warps trade places, read at (u, x, v, y).  So every tensor of
``core.TENSORS`` at a sample equals the swapped product's tensor at the
swapped sample, with each slot's index permuted to put the second factor's
coordinates first.  The relation needs no theorem: a closed form or an engine
step that treats one factor differently from the other breaks it.
"""

import numpy as np
import pytest

from dwfinsler import core
from dwfinsler.metrics import TangentSample
from dwfinsler.runspec import fixture_document, parse_spec, sample_points

from conftest import ALL_FIXTURES
from test_asymmetric import ASYM_1x3, ASYM_3x2

DOCUMENTS = [fixture_document(name) for name in ALL_FIXTURES] + [ASYM_1x3, ASYM_3x2]

#: Allowed difference, relative to max(1, the tensor's largest |entry|).
SWAP_TOLERANCE = 1e-13


def swapped_document(doc: dict) -> dict:
    """The same product with the factors reversed and the warps f1 and f2 traded."""
    warps = doc["warps"]
    return {**doc, "factors": doc["factors"][::-1],
            "warps": {"f1": warps["f2"], "f2": warps["f1"]}}


def _arrays(cfg, p, name) -> list:
    t = core.tensor(cfg, p, name)
    return [b.array for b in (t if isinstance(t, tuple) else (t,))]


@pytest.mark.parametrize("doc", DOCUMENTS, ids=lambda d: d["label"])
def test_every_product_tensor_is_swap_equivariant(doc):
    spec = parse_spec(doc, count=6)
    cfg, mirror = spec.config, parse_spec(swapped_document(doc)).config
    assert (mirror.n1, mirror.n2) == (cfg.n2, cfg.n1)
    # Index i of the swapped product is index perm[i] of the original.
    perm = np.r_[cfg.n1:cfg.n, :cfg.n1]
    for p in sample_points(spec):
        q = TangentSample(p.u, p.x, p.v, p.y)
        for name in core.TENSORS:
            for got, want in zip(_arrays(cfg, p, name), _arrays(mirror, q, name)):
                permuted = got[np.ix_(*[perm] * got.ndim)]
                scale = max(1.0, float(np.max(np.abs(got))))
                assert np.max(np.abs(permuted - want)) <= SWAP_TOLERANCE * scale, (name, p)

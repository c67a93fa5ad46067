"""The semantics of the library's small objects.

Value classes (coordinates, samples, the factor and warp
specs and the product built from them) are immutable, compare equal by their
fields and hash by them: the engine's workspace and the jet contexts hold
them as keys.  ``CustomFactor`` compares by identity.  Records (tensors,
reports, run documents) are plain objects built positionally or by keyword.
"""

import numpy as np
import pytest

from dwfinsler import (BlockTensor, ConstantWarp, CoordBlock, CoordIndex, CustomFactor,
                       EuclideanFactor, ExponentialWarp, PolyQuadraticWarp,
                       ProductConfig, QuadraticFactor, RandersFactor, TangentSample,
                       base1, base2, fiber1, fiber2, fixture)
from dwfinsler.engine import workspace
from dwfinsler.jets import Jet, context
from dwfinsler.lifted import ComplexStructure
from dwfinsler.report import DiagnosticsReport, SuiteEntry, SuiteResult
from dwfinsler.runspec import (RunSpec, Sampling, fixture_document, parse_spec,
                               sample_points)

from conftest import fresh_python

POLY_ONE = ((1.0, (0, 0)),)


def _quadratic(c=0.5):
    """A Riemannian factor with entries diag(1 + c x0^2, 1)."""
    return QuadraticFactor(2, ((((1.0, (0, 0)), (c, (2, 0))), ()), ((), POLY_ONE)))


#: (name, build): each build(k) gives equal values for equal k, unequal ones
#: for different k.
VALUES = [
    ("CoordIndex", lambda k: CoordIndex(CoordBlock.FIBER1, k)),
    ("TangentSample", lambda k: TangentSample((0.1 * k,), (1.0,), (1.0,), (2.0,))),
    ("EuclideanFactor", lambda k: EuclideanFactor(k + 1)),
    ("QuadraticFactor", lambda k: _quadratic(0.5 + k)),
    ("RandersFactor", lambda k: RandersFactor(2, EuclideanFactor(2), (0.1 * k, 0.2))),
    ("ConstantWarp", lambda k: ConstantWarp(1.0 + k)),
    ("PolyQuadraticWarp", lambda k: PolyQuadraticWarp((1.0, 0.5 * k))),
    ("ExponentialWarp", lambda k: ExponentialWarp(0.3, k)),
    ("ProductConfig", lambda k: ProductConfig(EuclideanFactor(1), EuclideanFactor(1),
                                              PolyQuadraticWarp((1.0 + k,)))),
]


@pytest.mark.parametrize("name, build", VALUES, ids=[n for n, _ in VALUES])
def test_value_classes_compare_and_hash_by_their_fields(name, build):
    a, b, c = build(0), build(0), build(1)
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert {a: "first"}[b] == "first"
    # Another class is never equal, even with the same fields.
    assert a != object() and a != (a,)


def test_a_coordinate_is_not_its_field_tuple():
    assert CoordIndex(CoordBlock.BASE1, 0) != (CoordBlock.BASE1, 0)
    assert CoordIndex(CoordBlock.BASE1, 0) != (0, 0)
    assert ConstantWarp(1.0) != PolyQuadraticWarp(())


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_a_reparsed_fixture_equals_the_fixture_and_shares_its_workspace(name):
    again = parse_spec(fixture_document(name)).config
    assert again is not fixture(name)
    assert again == fixture(name) and hash(again) == hash(fixture(name))
    assert workspace(again) is workspace(fixture(name))
    other = "FIX-E" if name != "FIX-E" else "FIX-P"
    assert again != fixture(other)


def test_coordinates_order_by_block_then_offset_and_print_short():
    coords = [fiber2(1), base2(0), fiber1(0), base1(1), base1(0), fiber2(0)]
    assert sorted(coords) == [base1(0), base1(1), base2(0), fiber1(0), fiber2(0), fiber2(1)]
    assert base1(5) < base2(0) < fiber1(0) < fiber2(0) < fiber2(1)
    assert not fiber2(1) < fiber2(1)
    assert repr(base1(0)) == "x0" and repr(fiber2(1)) == "v1"
    assert repr([base2(3), fiber1(2)]) == "[u3, y2]"
    assert base1(0).block is CoordBlock.BASE1 and fiber2(1).offset == 1
    assert (base1(1).factor, base2(0).factor, fiber1(0).factor, fiber2(2).factor) == (1, 2, 1, 2)
    with pytest.raises(ValueError):
        CoordIndex(CoordBlock.BASE1, -1)


def test_custom_factor_compares_by_identity():
    def evaluator(pos, fib):
        return fib[0] * fib[0]

    a, b = CustomFactor(1, evaluator), CustomFactor(1, evaluator)
    assert a == a and a != b and len({a, b}) == 2
    assert a.is_riemannian is False and CustomFactor(1, evaluator, True).is_riemannian
    cfg = ProductConfig(a, EuclideanFactor(1))
    assert cfg == ProductConfig(a, EuclideanFactor(1))
    assert cfg != ProductConfig(b, EuclideanFactor(1))


@pytest.mark.parametrize("value, field", [
    (base1(0), "offset"),
    (TangentSample((0.0,), (1.0,), (1.0,), (1.0,)), "x"),
    (EuclideanFactor(2), "dim"),
    (_quadratic(), "entries"),
    (RandersFactor(2, EuclideanFactor(2), (0.1, 0.2)), "b"),
    (CustomFactor(1, lambda pos, fib: fib[0] * fib[0]), "dim"),
    (ConstantWarp(2.0), "value"),
    (PolyQuadraticWarp((1.0,)), "coeffs"),
    (ExponentialWarp(0.3), "rate"),
    (fixture("FIX-R"), "label"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_value_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) == before


def test_constructors_take_positions_keywords_and_defaults():
    cfg = ProductConfig(EuclideanFactor(1), EuclideanFactor(2))
    assert (cfg.warp1, cfg.warp2, cfg.label) == (ConstantWarp(), ConstantWarp(), "custom")
    assert ConstantWarp().value == 1.0
    assert ExponentialWarp(0.3).axis == 0 and ExponentialWarp(rate=0.3, axis=1).axis == 1
    assert ProductConfig(factor1=EuclideanFactor(1), factor2=EuclideanFactor(2),
                         warp2=ConstantWarp(2.0), label="k").warp2 == ConstantWarp(2.0)
    p = TangentSample([1, 2], (3,), (1,), (0, 1))
    assert p.x == (1.0, 2.0) and all(type(t) is float for t in p.x + p.u + p.y + p.v)
    assert p.coord(fiber2(1)) == 1.0 and p.coord(base2(0)) == 3.0

    entry = SuiteEntry("yF=G", "contraction", 1e-12, 1e-8, True)
    assert (entry.point, entry.note) == (None, "")
    entry = SuiteEntry(suite="kahler", name="n", residual=0.0, tolerance=None,
                       passed=True, point=[1.0], note="x")
    assert (entry.suite, entry.tolerance, entry.point, entry.note) == ("kahler", None, [1.0], "x")
    result = SuiteResult("kahler", True, False, True, 0.0, (entry,))
    report = DiagnosticsReport(label="L", seed=1, count=2, suites=(result,))
    assert report.ok and report.pass_count == 1 and report.fail_count == 0

    sampling = Sampling(3, 25, box=((-1.0, 1.0),) * 3, radii=(0.5, 2.0))
    assert (sampling.seed, sampling.count, sampling.radii) == (3, 25, (0.5, 2.0))
    a = RunSpec("L", cfg, sampling, ("kahler",))
    b = RunSpec(label="L", config=cfg, sampling=sampling, suites=("kahler",))
    assert a.expected_failures == () and a.tolerances == {}
    assert len(sample_points(a)) == 25
    assert a.tolerances is not b.tolerances  # a fresh dict per instance
    assert RunSpec("L", cfg, sampling, (), (), {"kahler": 1.0}).tolerance("kahler") == 1.0

    assert ComplexStructure(1, 2).matrix().shape == (6, 6)


def test_block_tensor_and_jet_reprs():
    t = BlockTensor(np.zeros((3, 3)), ("low", "up"), 1, 2)
    assert repr(t) == "BlockTensor(rank=2, variance=('low', 'up'), n1=1, n2=2)"
    with pytest.raises(ValueError):
        BlockTensor(np.zeros((3, 3)), ("low",), 1, 2)
    with pytest.raises(ValueError):
        BlockTensor(np.zeros((3, 2)), ("low", "low"), 1, 2)
    jet = Jet.constant(context((fiber1(0), base1(0)), 2), 1.5)
    assert repr(jet) == "Jet(order=2, seeds=(x0, y0), shape=(), value=1.5)"


def test_importing_the_library_leaves_dataclasses_unloaded():
    # The value classes and records are plain slotted classes: an import that
    # pulled in dataclasses would pay again for generating their methods.
    code = "import sys, numpy, dwfinsler; print(sorted({'dataclasses'} & set(sys.modules)))"
    assert fresh_python(code).strip() == "[]"

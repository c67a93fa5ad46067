import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dwfinsler import TangentSample, base1, base2, fiber1, fiber2
from dwfinsler import fd, jets
from dwfinsler.errors import CapabilityError, DomainError
from dwfinsler.engine import LIFT_ORDER, SPRAY_ORDER, VALUE_ORDER
from dwfinsler.fd import fd_partial, fd_partials
from dwfinsler.jets import Jet, context, einsum
from dwfinsler.linalg import invert_matrix
from conftest import engine_point, jet_lift, region

P = TangentSample((3.0,), (1.0,), (1.0,), (2.0,))
X = base1(0)
Y = fiber1(0)
V = fiber2(0)


def test_polynomial_exactness_square():
    jet = jet_lift(lambda c: c.x[0] ** 2, P, (X,), 2)
    assert jet.value == 9.0
    assert jet.partial([X]) == 6.0
    assert jet.partial([X, X]) == 2.0


def test_constant_field():
    jet = jet_lift(lambda c: 5.0, P, (X, Y), 3)
    assert jet.value == 5.0
    assert np.all(jet.c[1:] == 0.0)  # slot 0 is the value


def test_mixed_partial_hand_value():
    # f(y, v) = y^2 v at (y, v) = (1, 2): d^2/dy^2 d/dv f = 2
    p = TangentSample((0.0,), (0.0,), (1.0,), (2.0,))
    jet = jet_lift(lambda c: c.y[0] ** 2 * c.v[0], p, (Y, V), 3)
    assert jet.partial([Y, Y, V]) == pytest.approx(2.0, abs=1e-14)
    assert jet.partial([Y, V]) == pytest.approx(2.0, abs=1e-14)  # 2y at y=1
    assert jet.partial([Y]) == pytest.approx(4.0, abs=1e-14)  # 2yv at (1,2)


def test_sqrt_of_square_is_identity():
    p = TangentSample((2.0,), (1.0,), (1.0,), (1.0,))
    jet = jet_lift(lambda c: c.x[0] ** 2, p, (X,), 2).sqrt()
    assert jet.value == pytest.approx(2.0)
    assert jet.partial([X]) == pytest.approx(1.0, abs=1e-14)
    assert jet.partial([X, X]) == pytest.approx(0.0, abs=1e-14)


def test_mul_identity_and_self_division():
    g = jet_lift(lambda c: c.x[0] ** 3 + 2.0 * c.x[0], P, (X,), 3)
    one = Jet.constant(g.ctx, 1.0)
    assert np.allclose((one * g).c, g.c)
    f = jet_lift(lambda c: 1.0 + c.x[0] ** 2, P, (X,), 3)
    q = f / f
    assert q.value == pytest.approx(1.0)
    assert np.max(np.abs(q.c[1:])) < 1e-14


def test_exp_matches_analytic():
    jet = jet_lift(lambda c: c.x[0], P, (X,), 4).exp()
    for k in range(5):
        assert jet.partial([X] * k if k else []) == pytest.approx(math.exp(3.0), rel=1e-13)


def test_pow_int_matches_factorials():
    jet = jet_lift(lambda c: c.x[0], P, (X,), 4) ** 5
    for k in range(5):
        expect = math.perm(5, k) * 3.0 ** (5 - k)
        assert jet.partial([X] * k if k else []) == pytest.approx(expect, rel=1e-13)


def test_capability_and_domain_errors():
    with pytest.raises(CapabilityError):
        jet_lift(lambda c: c.x[0], P, (X,), 7)
    neg = Jet.constant(context((X,), 2), -1.0)
    with pytest.raises(DomainError):
        neg.sqrt()
    zero = Jet.constant(context((X,), 2), 0.0)
    with pytest.raises(DomainError):
        neg / zero


def test_exp_overflow_is_a_domain_error():
    # exp(710) overflows a float; the largest finite exp keeps math.exp's bits.
    big = Jet.constant(context((X,), 2), 710.0)
    for x in (710.0, np.array([1.0, 710.0]), big):
        with pytest.raises(DomainError, match="exp overflows"):
            jets.exp(x)
    assert jets.exp(709.0) == math.exp(709.0)
    assert jets.exp(np.array([709.0, -1e6])).tolist() == [math.exp(709.0), 0.0]


def test_partial_query_beyond_seeds_rejected():
    jet = jet_lift(lambda c: c.x[0], P, (X,), 2)
    with pytest.raises(ValueError):
        jet.partial([Y])
    with pytest.raises(ValueError):
        jet.partial([X, X, X])


def test_derive_and_restrict_consistency():
    field = lambda c: c.x[0] ** 3 * c.y[0] ** 2
    full = jet_lift(field, P, (X, Y), 4)
    derived = full.grad((X,))[0]
    direct = jet_lift(lambda c: 3.0 * c.x[0] ** 2 * c.y[0] ** 2, P, (X, Y), 3)
    assert np.allclose(derived.c, direct.c)
    small = full.restrict((X,), 2)
    assert small.partial([X, X]) == pytest.approx(full.partial([X, X]))


def test_fd_examples():
    cubic = lambda c: c.x[0] ** 3
    p = TangentSample((1.0,), (1.0,), (1.0,), (1.0,))
    assert fd_partial(cubic, p, [X, X]) == pytest.approx(6.0, abs=1e-6)
    assert fd_partial(lambda c: 4.2, p, [X]) == pytest.approx(0.0, abs=1e-10)
    q = TangentSample((1.0,), (1.0,), (2.0,), (1.0,))
    assert fd_partial(lambda c: c.y[0] ** 2, q, [Y]) == pytest.approx(4.0, abs=1e-8)
    with pytest.raises(CapabilityError):
        fd_partial(cubic, p, [X, X, X, X])


@st.composite
def _poly_coeffs(draw):
    return draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=6, max_size=6))


@given(_poly_coeffs(), st.permutations([X, X, Y]))
@settings(max_examples=40, deadline=None)
def test_mixed_partial_symmetry_bit_identical(coeffs, dirs):
    a, b, c, d, e, f = coeffs

    def field(v):
        x, y = v.x[0], v.y[0]
        return a + b * x + c * y + d * x * y + e * x ** 2 * y + f * x * y ** 2

    jet = jet_lift(field, P, (X, Y), 3)
    reference = jet.partial([X, X, Y])
    assert jet.partial(dirs) == reference  # bit-identical, canonical keying


@given(_poly_coeffs(), _poly_coeffs())
@settings(max_examples=30, deadline=None)
def test_product_chain_consistency(cf, cg):
    def poly(coeffs):
        a, b, c, d, e, f = coeffs

        def field(v):
            x, y = v.x[0], v.y[0]
            return a + b * x + c * y + d * x * y + e * x ** 2 + f * y ** 2

        return field

    f, g = poly(cf), poly(cg)
    jf = jet_lift(f, P, (X, Y), 3)
    jg = jet_lift(g, P, (X, Y), 3)
    combined = jet_lift(lambda v: f(v) * g(v), P, (X, Y), 3)
    assert np.allclose((jf * jg).c, combined.c, atol=1e-12)


@st.composite
def _tensor_jet_pair(draw):
    """A context, a broadcastable pair of random tensor jets and a matrix pair."""
    seeds = draw(st.lists(st.sampled_from([X, Y, V, base2(0)]), min_size=1,
                          max_size=3, unique=True))
    ctx = context(seeds, draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    # the second operand drops leading axes and squeezes some to 1
    cut = draw(st.integers(0, len(shape)))
    other = tuple(1 if draw(st.booleans()) else k for k in shape[cut:])
    i, j, k = (draw(st.integers(1, 3)) for _ in range(3))

    def jet(sh):
        return Jet(ctx, rng.uniform(-2.0, 2.0, sh + (ctx.tables.size,)))

    return jet(shape), jet(other), jet((i, j)), jet((j, k))


def _scalar(jet, idx):
    return Jet(jet.ctx, jet.c[idx])


def _close(got, expected):
    scale = 1.0 + np.max(np.abs(expected), initial=0.0)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * scale)


@given(_tensor_jet_pair())
@settings(max_examples=60, deadline=None)
def test_tensor_jets_match_scalar_jet_products(pair):
    a, b, ma, mb = pair
    prod = a * b
    assert prod.shape == np.broadcast_shapes(a.shape, b.shape)
    for idx in np.ndindex(prod.shape):
        ia = idx[len(idx) - len(a.shape):]
        ib = tuple(t if k > 1 else 0 for t, k in
                   zip(idx[len(idx) - len(b.shape):], b.shape))
        _close(prod.c[idx], (_scalar(a, ia) * _scalar(b, ib)).c)
    mm = einsum("ab,bc->ac", ma, mb)
    for r, c in np.ndindex(mm.shape):
        expected = sum((_scalar(ma, (r, t)) * _scalar(mb, (t, c))
                        for t in range(ma.shape[1])), start=Jet.constant(ma.ctx, 0.0))
        _close(mm.c[r, c], expected.c)


def test_ad_matches_fd_for_all_metric_forms():
    # One product per declarative factor form, exponential warp included.
    from dwfinsler import (ConstantWarp, CustomFactor, EuclideanFactor,
                           ExponentialWarp, ProductConfig, QuadraticFactor,
                           RandersFactor, fixture)
    poly_one = ((1.0, (0, 0)),)
    poly_x0sq = ((1.0, (0, 0)), (0.5, (2, 0)))
    quad = QuadraticFactor(2, ((poly_x0sq, ()), ((), poly_one)))
    configs = [
        fixture("FIX-R"),
        ProductConfig(quad, EuclideanFactor(2), ConstantWarp(1.0),
                      ExponentialWarp(0.3)),
        ProductConfig(
            CustomFactor(2, lambda pos, fib: (fib[0] ** 2 + fib[1] ** 2)
                         * (1.0 + 0.1 * (pos[0] ** 2))),
            RandersFactor(2, EuclideanFactor(2), (0.1, 0.2)),
            ConstantWarp(2.0), ConstantWarp(0.5)),
    ]
    rng = np.random.default_rng(11)
    for cfg in configs:
        coords = list(cfg.base) + list(cfg.fiber)
        for _ in range(6):
            p = TangentSample(tuple(rng.uniform(-0.8, 0.8, cfg.n1)),
                              tuple(rng.uniform(-0.8, 0.8, cfg.n2)),
                              tuple(rng.uniform(0.6, 1.4, cfg.n1)),
                              tuple(rng.uniform(0.6, 1.4, cfg.n2)))
            order = int(rng.integers(1, 4))
            dirs = tuple(coords[i] for i in rng.integers(0, len(coords), order))
            jet = jet_lift(cfg.F2, p, dirs, order).partial(dirs)
            est = fd_partial(cfg.F2, p, dirs)
            assert abs(jet - est) <= 1e-5 * (1.0 + abs(jet))


@st.composite
def _sample_subset_lift(draw):
    from dwfinsler import fixture
    from dwfinsler.runspec import fixture_runspec, sample_points
    name = draw(st.sampled_from(["FIX-R", "FIX-1D"]))
    cfg = fixture(name)
    p = draw(st.sampled_from(sample_points(fixture_runspec(name, count=4))))
    coords = cfg.base + cfg.fiber
    seeds = draw(st.lists(st.sampled_from(coords), min_size=1, max_size=3, unique=True))
    return cfg, p, tuple(seeds), draw(st.integers(0, 5))


@given(_sample_subset_lift())
@settings(max_examples=60, deadline=None)
def test_engine_lift_restricts_to_the_subset_lift(case):
    # The engine's support lift, embedded into every engine coordinate and cut
    # down to a seed subset, is the public lift over that subset.
    from dwfinsler.engine import workspace
    cfg, p, seeds, order = case
    ep = workspace(cfg).at(p).product
    whole = ep.lift().embed(context(ep.engine.coords, ep.order))
    got = whole.restrict(seeds, order)
    want = jet_lift(cfg.F2, p, seeds, order)
    assert got.seeds == want.seeds and got.order == want.order
    assert np.max(np.abs(got.c - want.c)) <= 1e-13 * max(1.0, np.max(np.abs(want.c)))


def test_fd_partial_of_an_array_field_matches_each_component(p4):
    # The field sees the whole stencil at once: a constant component takes
    # the stencil's shape, so the components stack with the stencil axis last.
    def field(view):
        return np.array([view.x[0] * view.y[1] ** 2, view.u[1] * view.v[0],
                         np.full(view.shape, 3.0)])

    dirs = (fiber1(1), base1(0))
    got = fd_partial(field, p4, dirs)
    for k in range(3):
        assert got[k] == fd_partial(lambda view: field(view)[k], p4, dirs)


def test_fd_partial_of_a_constant_vector_field_keeps_its_components(p4):
    # A field that ignores its coordinates gives its components at order 0
    # and exact zeros above, whatever their number: four components are not
    # read as the four points of an order-1 stencil.
    for comps in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0], [3.0, 4.0]]):
        field = lambda view, comps=comps: np.array(comps)
        assert np.array_equal(fd_partial(field, p4, []), comps)
        for dirs in ((fiber1(0),), (base1(0), fiber1(1))):
            got = fd_partial(field, p4, dirs)
            assert got.shape == np.shape(comps) and not got.any()


def test_fd_partial_needs_a_field_acting_entry_by_entry(p4):
    # The stencil reaches the field as one batch: math.* cannot take it, and
    # a field whose result changes shape with its input is refused.
    with pytest.raises(TypeError):
        fd_partial(lambda view: math.exp(view.x[0]), p4, [base1(0)])
    with pytest.raises(ValueError, match="stencil of 4 points"):
        fd_partial(lambda view: np.ravel(view.x[0]), p4, [base1(0)])


def test_fd_partial_gives_the_same_bits_for_any_order_of_directions(p4):
    # A probe's directions nest in sorted order, so a permutation of them is
    # the same stencil; the jet reads the same slot too.
    from dwfinsler import fixture
    cfg = fixture("FIX-R")
    dirs = [base1(0), fiber1(1), base1(0)]
    got = {np.float64(fd_partial(cfg.F2, p4, list(d))).tobytes()
           for d in itertools.permutations(dirs)}
    assert len(got) == 1
    jet = jet_lift(cfg.F2, p4, dirs, 3)
    assert len({jet.partial(list(d)) for d in itertools.permutations(dirs)}) == 1


def test_fd_rejects_a_direction_outside_the_point():
    # x1 is not a coordinate of a point with one x: it used to be read as
    # the next coordinate of the row, u0, and give d/du0 silently.
    p = TangentSample((1.0,), (2.0,), (1.0,), (1.0,))
    with pytest.raises(ValueError, match="x1"):
        fd_partial(lambda c: c.u[0] ** 2, p, [base1(1)])
    with pytest.raises(ValueError, match="v1"):
        fd_partials(lambda batch: batch.x[0], [(p, [X]), (p, [fiber2(1), X])])
    assert fd_partial(lambda c: c.u[0] ** 2, p, [base2(0)]) == pytest.approx(4.0)


def test_fd_partials_of_no_probes_evaluates_nothing():
    def evaluate(batch):
        raise AssertionError("no probe, no evaluation")

    assert fd_partials(evaluate, []) == []
    assert fd.fd_stencils(evaluate, [], 1, 1) == []


def _reference_tables(nvars, order):
    """Slots and Leibniz terms enumerated term by term, as a direct transcription."""
    def compositions(n, total):
        if n == 0:
            return [()] if total == 0 else []
        return [(first,) + rest for first in range(total + 1)
                for rest in compositions(n - 1, total - first)]

    exps = [e for total in range(order + 1) for e in compositions(nvars, total)]
    index = {e: i for i, e in enumerate(exps)}
    terms = []
    for o, e in enumerate(exps):
        for part in itertools.product(*(range(m + 1) for m in e)):
            rest = tuple(m - p for m, p in zip(e, part))
            w = 1.0
            for m, p in zip(e, part):
                w *= math.comb(m, p)
            terms.append((index[part], index[rest], o, w))
    return exps, index, terms


def _fresh_tables(monkeypatch):
    monkeypatch.setattr(jets, "_TABLE_CACHE", {})
    monkeypatch.setattr(jets, "_STORES", {})


def _check_tables(tables, reference):
    nvars, order = tables.nvars, tables.order
    exps, index, terms = reference(nvars, order)
    assert [tuple(e) for e in tables.exps.tolist()] == exps
    assert tables.rank(tables.exps).tolist() == list(range(tables.size))
    ii, jj, starts, ww = tables.mul_table
    assert [ii.tolist(), jj.tolist(), ww.tolist()] == [[t[k] for t in terms] for k in (0, 1, 3)]
    assert starts.tolist() == [k for k, t in enumerate(terms) if k == 0 or t[2] != terms[k - 1][2]]
    lower = exps if order == 0 else reference(nvars, order - 1)[0]
    for pos in range(nvars if order else 0):
        bumped = [e[:pos] + (e[pos] + 1,) + e[pos + 1:] for e in lower]
        assert tables.derive_map(pos).tolist() == [index[e] for e in bumped]
    for positions in itertools.combinations(range(nvars), min(nvars, 2)):
        for suborder in range(order + 1):
            sub = reference(len(positions), suborder)[0]
            full = [tuple(e[positions.index(k)] if k in positions else 0 for k in range(nvars))
                    for e in sub]
            assert tables.restrict_map(positions, suborder).tolist() == [index[e] for e in full]


@pytest.mark.parametrize("nvars,order", [(0, 0), (0, 3), (1, 5), (2, 4), (3, 3),
                                         (4, 5), (5, 2), (6, 5), (3, 6)])
def test_tables_match_a_term_by_term_enumeration(monkeypatch, nvars, order):
    # Lower orders are prefixes of the highest built: made and read from the
    # top down, each reads its arrays off the top table; from the bottom up,
    # each builds its own; made from the top down and read from the bottom
    # up, it shares its exponents but builds its maps.
    reference = functools.cache(_reference_tables)
    down, up = range(order, -1, -1), range(order + 1)
    for made, read in ((down, down), (up, up), (down, up)):
        _fresh_tables(monkeypatch)
        tables = {k: jets._tables(nvars, k) for k in made}
        for k in read:
            _check_tables(tables[k], reference)


@pytest.mark.parametrize("op", [lambda t: 1.0 / t, lambda t: t ** -2,
                                lambda t: t / t, lambda t: t.sqrt(), lambda t: t.exp()])
def test_tensor_jets_act_entry_by_entry(op):
    # Jets of x^2 at x = 2, 0.5 and 3 stacked along a tensor axis: each entry
    # of the result has the bits of the scalar operation on that entry (the
    # nilpotent series zeroes each value slot, not a tensor row).
    scalars = [jet_lift(lambda c: c.x[0] ** 2, TangentSample((x,), (1.0,), (1.0,), (1.0,)),
                        (X,), 3) for x in (2.0, 0.5, 3.0)]
    got = op(Jet.stack(scalars))
    assert got.shape == (3,)
    for k, scalar in enumerate(scalars):
        assert got[k].c.tobytes() == op(scalar).c.tobytes()


@pytest.mark.parametrize("p", [0, 1, 3, -2, np.int64(0), np.int64(2), np.int8(-1), True],
                         ids=lambda p: f"{type(p).__name__}({p})")
def test_integer_powers_keep_the_tensor_shape(p):
    # Any integer is a power, through operator.index; ** 0 is ones of the
    # tensor's shape, not a scalar.
    t = Jet(context((X, Y), 2), np.linspace(0.5, 2.0, 18).reshape(3, 6))
    got = t ** p
    assert got.shape == (3,) and got.ctx is t.ctx
    for k in range(3):
        assert got[k].c.tobytes() == (t[k] ** int(p)).c.tobytes()
    assert got.c.tobytes() == (t ** int(p)).c.tobytes()
    with pytest.raises(TypeError, match="integers"):
        t ** 2.0


# -- lift by seed support -----------------------------------------------------

POOL = (base1(0), base1(1), base2(0), fiber1(0), fiber1(1), fiber2(0))
P6 = TangentSample((0.7, 1.3), (0.9,), (1.1, 0.6), (1.7,))


def _leaf(view, k):
    c = POOL[k]
    return (view.x, view.u, view.y, view.v)[c.block][c.offset]


def _evaluate(tree, view):
    if not isinstance(tree, tuple):
        return _leaf(view, tree) if isinstance(tree, int) else tree
    op, *args = tree
    a = _evaluate(args[0], view)
    if op == "sqrt":
        return jets.sqrt(1.0 + a * a)
    if op == "exp":
        return jets.exp(a)
    if op == "pow":
        return a ** args[1]
    b = _evaluate(args[1], view)
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a / b}[op]()


_trees = st.recursive(
    st.integers(0, len(POOL) - 1) | st.floats(0.5, 2.0),
    lambda sub: (st.tuples(st.sampled_from("+-*/"), sub, sub)
                 | st.tuples(st.sampled_from(["sqrt", "exp"]), sub)
                 | st.tuples(st.just("pow"), sub, st.integers(-3, 3))),
    max_leaves=8)


@given(_trees, st.sets(st.integers(0, len(POOL) - 1)), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_lift_by_seed_support_equals_the_dense_lift(tree, chosen, order):
    # Every coordinate seeded alone and joined by embedding gives, bit for bit,
    # the jet of the same expression with every coordinate in one context.
    seeds = tuple(POOL[k] for k in sorted(chosen))
    full = context(seeds, order)

    class DenseView:
        def __init__(self):
            groups = [[Jet.coordinate(full, c, P6.coord(c)) if c in seeds else P6.coord(c)
                       for c in POOL if c.block == block] for block in range(4)]
            self.x, self.u, self.y, self.v = groups

    try:
        with np.errstate(all="ignore"):
            dense = _evaluate(tree, DenseView())
            got = jet_lift(lambda view: _evaluate(tree, view), P6, seeds, order)
    except (DomainError, OverflowError, ZeroDivisionError):
        assume(False)
    dense = dense if isinstance(dense, Jet) else Jet.constant(full, float(dense))
    assume(np.all(np.isfinite(dense.c)))
    assert got.ctx is full and dense.ctx is full
    np.testing.assert_array_equal(got.c, dense.c)


def test_fix_r_lift_multiplies_jets_over_at_most_three_seeds(monkeypatch, fixr, p4):
    from dwfinsler.engine import EnginePoint, workspace
    spans = []
    mul = Jet.__mul__

    def spy(a, b):
        if isinstance(b, Jet):
            spans.append(len(set(a.seeds) | set(b.seeds)))
        return mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", spy)
    whole = EnginePoint(workspace(fixr).product, p4).lift()
    assert whole.seeds == (base1(0), base2(0), fiber1(0), fiber1(1), fiber2(0), fiber2(1))
    assert whole.order == 5
    assert spans and max(spans) <= 3


def test_lift_over_a_seed_superset_is_exactly_zero_along_unused_seeds():
    field = lambda c: c.x[0] ** 3 * jets.sqrt(c.y[0] ** 2 + c.y[1] ** 2)
    wide = jet_lift(field, P6, POOL, 4)
    narrow = jet_lift(field, P6, (base1(0), fiber1(0), fiber1(1)), 4)
    unused = [wide.ctx.position(c) for c in (base1(1), base2(0), fiber2(0))]
    on_unused = wide.ctx.tables.exps[:, unused].any(1)
    assert np.all(wide.c[on_unused] == 0.0)
    np.testing.assert_array_equal(wide.restrict(narrow.seeds, 4).c, narrow.c)
    assert np.any(narrow.c[1:] != 0.0)


# -- support-sized engine jets --------------------------------------------------

def test_grad_along_non_seeds_is_exactly_zero():
    field = lambda c: c.x[0] ** 3 * jets.sqrt(c.y[0] ** 2 + c.y[1] ** 2)
    support = jets.support_lift(field, P6, POOL, 4)
    assert support.seeds == (base1(0), fiber1(0), fiber1(1))
    dense = jet_lift(field, P6, POOL, 4)
    along = [fiber1(1), base2(0), base1(0), fiber2(0), fiber1(0), base1(1)]
    got = support.grad(along)  # a list, with seeds and non-seeds mixed
    assert got.shape == (len(along),) and got.ctx is context(support.seeds, 3)
    want = dense.grad(tuple(along)).restrict(support.seeds, 3)
    for k, c in enumerate(along):
        if c in support.seeds:
            np.testing.assert_array_equal(got.c[k], want.c[k])
            assert np.any(got.c[k] != 0.0)
        else:
            assert np.all(got.c[k] == 0.0)
    # A partial stays strict about seeds.
    with pytest.raises(ValueError):
        support.partial([base2(0)])
    with pytest.raises(ValueError):
        support.restrict((base2(0),), 2)


def test_a_constant_field_lifts_over_no_seeds():
    lifted = jets.support_lift(lambda c: 2.5, P6, POOL, 3)
    assert lifted.seeds == () and lifted.order == 3 and lifted.value == 2.5
    assert np.all(lifted.grad(POOL[:2]).grad(POOL).c == 0.0)
    np.testing.assert_array_equal(jet_lift(lambda c: 2.5, P6, POOL, 3).c,
                                  Jet.constant(context(POOL, 3), 2.5).c)


@pytest.mark.parametrize("name,which,support", [
    ("FIX-R", "product", (base1(0), base2(0), fiber1(0), fiber1(1), fiber2(0), fiber2(1))),
    ("FIX-R", "factor1", (fiber1(0), fiber1(1))),
    ("FIX-R", "factor2", (fiber2(0), fiber2(1))),
    ("FIX-P", "product", (fiber1(0), fiber1(1), fiber2(0), fiber2(1))),
    ("FIX-1D", "product", (base1(0), base2(0), fiber1(0), fiber2(0))),
])
def test_engine_lift_keeps_the_support_of_F2(name, which, support):
    from dwfinsler import fixture
    from dwfinsler.engine import workspace
    from dwfinsler.runspec import fixture_runspec, sample_points
    cfg = fixture(name)
    for p in sample_points(fixture_runspec(name, count=2)):
        ep = engine_point(workspace(cfg).at(p), which)
        assert ep.lift().seeds == support and ep.lift().order == 5
        for tensor in (ep.g(), ep.ginv(), ep.spray(), ep.delta_g(),
                       ep.horizontal_coefficients()):
            assert tensor.seeds == support
        assert ep.delta_g().order == ep.horizontal_coefficients().order == 1
        assert ep.ginv().order == 3


_CHAIN = ("g_values", "ginv_values", "spray_values", "nonlinear_connection_values",
          "connection_fiber_values", "berwald", "bracket_curvature_values",
          "horizontal_values", "hh_curvature", "riemann_map", "cartan",
          "F2_base_fiber_values")


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_support_lift_chain_is_bit_identical_to_the_whole_point_chain(monkeypatch, name):
    # The reference runs every tensor over all engine coordinates, as the
    # lift embedded into the whole-point context.
    from dwfinsler import fixture
    from dwfinsler.engine import EnginePoint, WorkPoint, workspace
    from dwfinsler.runspec import fixture_runspec, sample_points
    cfg = fixture(name)
    points = sample_points(fixture_runspec(name, count=3))

    def chain():
        out = []
        for p in points:
            wp = WorkPoint(workspace(cfg), p)
            for ep in (wp.product, *wp.factors):
                out.append({m: np.asarray(getattr(ep, m)()) for m in _CHAIN}
                           | {"delta_g": ep.delta_g().value, "seeds": ep.g().seeds})
        return out

    got = chain()
    support_lift = EnginePoint.lift
    monkeypatch.setattr(EnginePoint, "lift", lambda ep: support_lift(ep).embed(
        context(ep.engine.coords, ep.order)))
    want = chain()
    assert all(len(w["seeds"]) == 2 * len(w["g_values"]) for w in want)
    for g, w in zip(got, want):
        for m in _CHAIN + ("delta_g",):
            assert g[m].shape == w[m].shape and np.all(g[m] == w[m]), m


# The engine skips the Leibniz products whose partials no reader uses: the
# reference rebuilds every one of them.

def _full_delta(ep, field):
    """The adapted derivative as a jet over every partial the operands carry."""
    return (field.grad(ep.engine.base)
            - einsum("ce,...c->...e", ep.nonlinear_connection(), field.grad(ep.engine.fiber)))


def _full_ginv(ep):
    """The nilpotent series with each product, constant factors too, on the table."""
    g = ep.g()
    inv0 = Jet.constant(g.ctx, np.array(invert_matrix(g.value)[0]))
    step = -einsum("ab,bc->ac", inv0, g - g.value)
    out = term = inv0
    for _ in range(g.order):
        term = einsum("ab,bc->ac", step, term)
        out = out + term
    return out


def _full_bracket(ep):
    dn = _full_delta(ep, ep.nonlinear_connection())
    return (dn - dn.transpose(0, 2, 1)).value


def _chain_coefficients(ep):
    """Every tensor the point's order allows: jets as coefficients, the rest as values."""
    out = {"ginv": ep.ginv().c, "spray": ep.spray().c}
    if ep.order >= VALUE_ORDER:
        out |= {"N": ep.nonlinear_connection().c, "dg": ep.delta_g().c,
                "H": ep.horizontal_coefficients().c}
    if ep.order >= LIFT_ORDER:
        out |= {"Gf": ep.connection_fiber_derivative().c, "berwald": ep.berwald(),
                "bracket": ep.bracket_curvature_values(), "hh": ep.hh_curvature(),
                "riemann": ep.riemann_map()}
    return out


@pytest.mark.parametrize("name", ["FIX-1D", "FIX-E", "FIX-P", "FIX-R"])
def test_skipped_leibniz_products_change_no_bit(monkeypatch, name):
    from dwfinsler import fixture
    from dwfinsler.engine import EnginePoint, WorkPoint, _once, workspace
    from dwfinsler.runspec import fixture_runspec, sample_points
    cfg = fixture(name)
    cases = [(p, order) for p in sample_points(fixture_runspec(name, count=3))
             for order in (SPRAY_ORDER, VALUE_ORDER, LIFT_ORDER)]

    def chain():
        out = []
        for p, order in cases:
            wp = WorkPoint(workspace(cfg), p, order)
            out += [_chain_coefficients(ep) for ep in (wp.product, *wp.factors)]
        return out

    got = chain()
    monkeypatch.setattr(EnginePoint, "ginv", _once(_full_ginv))
    monkeypatch.setattr(EnginePoint, "delta", lambda ep, field: _full_delta(ep, field).value)
    monkeypatch.setattr(EnginePoint, "delta_g", _once(lambda ep: _full_delta(ep, ep.g())))
    monkeypatch.setattr(EnginePoint, "bracket_curvature_values", _once(_full_bracket))
    want = chain()
    assert [sorted(g) for g in got] == [sorted(w) for w in want]
    for g, w in zip(got, want):
        for key, coeffs in g.items():
            # dg and H keep only the leading partials of the reference: slots
            # run by total order, so those are a prefix.
            assert coeffs.tobytes() == w[key][..., :coeffs.shape[-1]].tobytes(), key
            assert coeffs.shape[:-1] == w[key].shape[:-1], key


@pytest.mark.parametrize("op", [
    lambda j, a: j * a, lambda j, a: a * j, lambda j, a: j / a, lambda j, a: j + a,
    lambda j, a: a + j, lambda j, a: j - a, lambda j, a: a - j,
], ids=["j*a", "a*j", "j/a", "j+a", "a+j", "j-a", "a-j"])
def test_jet_arithmetic_with_an_array_acts_on_the_tensor_axes(op):
    # As many tensor entries as partial slots, so scaling along the partials
    # would pass any shape check.
    t = Jet(context((X, Y), 1), np.arange(1.0, 10.0).reshape(3, 3))
    a = np.array([2.0, -3.0, 0.5])
    got = op(t, a)
    assert isinstance(got, Jet) and got.ctx is t.ctx
    for k in range(3):
        assert got[k].c.tobytes() == op(t[k], float(a[k])).c.tobytes()


def test_jet_division_by_an_array_with_a_zero_entry_fails():
    t = Jet(context((X,), 1), np.ones((3, 2)))
    with pytest.raises(DomainError, match="by zero"):
        t / np.array([2.0, 0.0, 1.0])


@pytest.mark.parametrize("field", [lambda c: c.y[0] ** 2 + c.x[0] ** 2, lambda c: 1.0],
                         ids=["ignores y1", "constant"])
def test_engine_over_a_field_missing_a_fiber_fails_as_singular(field, p4):
    from dwfinsler.engine import EnginePoint, FinslerEngine
    from dwfinsler.errors import SingularMetricError
    engine = FinslerEngine(field, (base1(0), base1(1)), (fiber1(0), fiber1(1)))
    ep = EnginePoint(engine, p4)
    assert ep.g_values()[1].tolist() == [0.0, 0.0]
    for tensor in ("ginv", "spray", "horizontal_coefficients", "hh_curvature", "riemann_map"):
        with pytest.raises(SingularMetricError):
            getattr(ep, tensor)()


#: The tensors of the per-point chain, in its order.
CHAIN = ("g", "ginv", "spray", "connection", "brackets", "horizontal", "berwald", "hh",
         "riemann-map")
#: Coordinate hashes of the warm FIX-R chain at a fresh sample.  Every cache
#: is keyed by value: 16 for the lift's seeds (a set, then each one-seed
#: context), 64 for the gradient plans' coordinate tuples, 6 in the context
#: of dg's restriction and 4 in the spray's fiber jets.
CHAIN_HASHES = 90


def test_a_warm_chain_finds_its_bookkeeping_cached(monkeypatch, fixr):
    # Every slot map lives on a context and every context in the cache, so a
    # fresh sample ranks no exponents, sorts no seeds and hashes few coordinates.
    from collections import Counter
    from dwfinsler.coords import CoordIndex
    from dwfinsler.core import tensor
    warm, fresh = region("FIX-R", count=2)
    for name in CHAIN:
        tensor(fixr, warm, name)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(jets._Tables, "rank", counted("rank", jets._Tables.rank))
    monkeypatch.setattr(jets, "sorted", counted("sorted", sorted), raising=False)
    monkeypatch.setattr(CoordIndex, "__hash__", counted("hash", CoordIndex.__hash__))
    for name in CHAIN:
        tensor(fixr, fresh, name)
    assert calls["rank"] == 0 and calls["sorted"] == 0
    assert 0 < calls["hash"] <= CHAIN_HASHES


def _fresh_jets(monkeypatch, cfg):
    """Empty table and context caches, and no work point kept for ``cfg``."""
    from dwfinsler.engine import workspace
    _fresh_tables(monkeypatch)
    monkeypatch.setattr(jets, "_CONTEXT_CACHE", {})
    workspace(cfg).clear()


@pytest.fixture
def fresh_jets(monkeypatch, fixr):
    from dwfinsler.engine import workspace
    _fresh_jets(monkeypatch, fixr)
    yield
    workspace(fixr).clear()


def _chain_bytes(cfg, p):
    from dwfinsler.core import tensor
    out = []
    for name in CHAIN:
        got = tensor(cfg, p, name)
        out += [t.array.tobytes() for t in (got if isinstance(got, tuple) else (got,))]
    return out


def test_the_table_build_order_moves_no_bit(monkeypatch, fixr, fresh_jets):
    # Every six-seed table built from order 0 up, each array at each order,
    # so the chain reads them all off an order-6 top; by default it builds
    # each at the highest order it reads.
    from dwfinsler.coords import MAX_ORDER
    p, = region("FIX-R", count=1, seed=11)
    default = _chain_bytes(fixr, p)
    _fresh_jets(monkeypatch, fixr)
    for order in range(MAX_ORDER + 1):
        tables = jets._tables(6, order)
        tables.mul_table
        for pos in range(6 if order else 0):
            tables.derive_map(pos)
        for r in range(7):
            for positions in itertools.combinations(range(6), r):
                tables.restrict_map(positions, order)
    assert _chain_bytes(fixr, p) == default


def test_a_cold_chain_builds_one_table_per_seed_count(monkeypatch, fixr, fresh_jets):
    # The lift asks for each seed count's highest order first, so every
    # lower order is a prefix of that one table.
    from collections import Counter
    built = Counter()
    enumerate_ = jets._Tables._enumerate

    def counted(self):
        built[self.nvars] += 1
        return enumerate_(self)

    monkeypatch.setattr(jets._Tables, "_enumerate", counted)
    p, = region("FIX-R", count=1, seed=11)
    _chain_bytes(fixr, p)
    assert built == {1: 1, 2: 1, 3: 1, 6: 1}


def test_a_cold_chain_ranks_each_six_seed_map_once(monkeypatch, fixr, fresh_jets):
    # The chain asks for positions 0 and 1's derive maps at order 4 before
    # order 5; built over every row the store holds, each serves both.  The
    # twelfth map is the slots of g's block over {u0}, which g^-1 runs by.
    from collections import Counter
    ranked = Counter()
    rank = jets._Tables.rank

    def counted(self, rows):
        ranked[self.nvars] += 1
        return rank(self, rows)

    monkeypatch.setattr(jets._Tables, "rank", counted)
    p, = region("FIX-R", count=1, seed=11)
    _chain_bytes(fixr, p)
    assert ranked[6] == 12


def test_a_second_battery_ranks_no_exponents(monkeypatch):
    from dwfinsler.engine import workspace
    from dwfinsler.runspec import fixture_runspec
    from dwfinsler.suites import run_suites
    spec = fixture_runspec("FIX-R")
    run_suites(spec)
    workspace(spec.config).clear()
    ranked = []
    rank = jets._Tables.rank

    def counted(self, rows):
        ranked.append(len(rows))
        return rank(self, rows)

    monkeypatch.setattr(jets._Tables, "rank", counted)
    run_suites(spec)
    assert ranked == []


def test_the_jet_caches_are_bounded_by_value(fixr):
    # Coordinate tuples made afresh but equal find the same plan and the same
    # contexts, so neither cache grows however many the engine hands over;
    # and fresh points find g's block plan of their context, so the engine
    # keeps one plan per context however many points it reads.
    from dwfinsler.core import tensor
    from dwfinsler.engine import workspace
    from dwfinsler.jets import support_lift
    warm, = region("FIX-R", count=1)
    for name in CHAIN:
        tensor(fixr, warm, name)
    engine = workspace(fixr).product
    ctx = workspace(fixr).at(warm).product.lift().ctx
    plan = ctx.grad_map(tuple(engine.fiber))
    grads, contexts = len(ctx._grads), len(jets._CONTEXT_CACHE)
    for _ in range(1000):
        assert ctx.grad_map(tuple(list(engine.fiber))) is plan
        lifted = support_lift(engine.field, warm, tuple(list(engine.coords)), LIFT_ORDER)
        assert lifted.ctx is ctx
    assert len(ctx._grads) == grads
    assert len(jets._CONTEXT_CACHE) == contexts
    workspace(fixr).clear()
    for p in region("FIX-R", count=200, seed=3):
        tensor(fixr, p, "ginv")
    assert list(engine.plans) == [ctx.lowered().lowered()]

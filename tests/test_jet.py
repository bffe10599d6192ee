"""Truncated Taylor jets: frozen values, composition, derivative extraction,
and the closed-form jets of holomorphic charts."""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import isomin.jet as J
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            random_weierstrass_data)
from isomin.errors import (DegenerateValue, DimensionMismatch, InvalidData,
                           OrderExceeded, ShapeMismatch)
from isomin.weierstrass import generate_surface, surface_chart

from oracles import (holomorphic_jets_horner, jet_compose_constant_jets,
                     jet_compose_offset, jet_dot_fancy, jet_mul_fancy,
                     jet_partials_moveaxis, rsqrt_nested)


def _partial(f, idx):
    """Partial derivative for a multi-index, by repeated differentiation."""
    for var, k in enumerate(idx):
        for _ in range(k):
            f = J.jet_partials(f)[var]
    return f.value


def test_space_index_order():
    sp = J.get_space(2, 2)
    assert sp.indices == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert sp.size == 6
    with pytest.raises(InvalidData):
        J.get_space(4, 2)
    with pytest.raises(InvalidData):
        J.get_space(1, -1)


def test_monomial_derivatives():
    # f(u, v) = u^2 v at (1, 2)
    sp = J.get_space(2, 3)
    u = J.jet_variable(sp, 0, 1.0)
    v = J.jet_variable(sp, 1, 2.0)
    f = u * u * v
    assert f.value == pytest.approx(2.0)
    assert _partial(f, (1, 0)) == pytest.approx(4.0)
    assert _partial(f, (0, 1)) == pytest.approx(1.0)
    assert _partial(f, (2, 0)) == pytest.approx(4.0)
    assert _partial(f, (1, 1)) == pytest.approx(2.0)
    assert _partial(f, (0, 2)) == pytest.approx(0.0)


def test_random_polynomial_partials():
    """Jet extraction equals the closed-form partial of a random polynomial."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, size=(4, 4))
        u0, v0 = rng.uniform(-0.8, 0.8, size=2)
        sp = J.get_space(2, 4)
        u = J.jet_variable(sp, 0, u0)
        v = J.jet_variable(sp, 1, v0)
        f = J.jet_constant(sp, 0.0)
        for i in range(4):
            for k in range(4):
                term = J.jet_constant(sp, coeffs[i, k])
                for _ in range(i):
                    term = term * u
                for _ in range(k):
                    term = term * v
                f = f + term

        def partial(a, b):
            tot = 0.0
            for i in range(4):
                for k in range(4):
                    if i >= a and k >= b:
                        fac = (math.factorial(i) // math.factorial(i - a)
                               * math.factorial(k) // math.factorial(k - b))
                        tot += coeffs[i, k] * fac * u0 ** (i - a) * v0 ** (k - b)
            return tot

        for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 2)):
            assert _partial(f, (a, b)) == pytest.approx(partial(a, b),
                                                             abs=1e-10)


def test_sin_coefficients():
    sp = J.get_space(1, 3)
    s = J.jet_compose("sin", J.jet_variable(sp, 0, 0.0))
    assert np.allclose(s.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0])


def test_cos_and_shifted_argument():
    sp = J.get_space(1, 4)
    x = J.jet_variable(sp, 0, 0.7)
    c = J.jet_compose("cos", x)
    assert c.value == pytest.approx(math.cos(0.7))
    assert _partial(c, (1,)) == pytest.approx(-math.sin(0.7))
    assert _partial(c, (2,)) == pytest.approx(-math.cos(0.7))


def test_recip_coefficients():
    sp = J.get_space(1, 2)
    r = J.jet_compose("recip", J.jet_variable(sp, 0, 1.0))
    assert np.allclose(r.coeffs, [1.0, -1.0, 1.0])


def test_sqrt_coefficients():
    sp = J.get_space(1, 2)
    s = J.jet_compose("sqrt", J.jet_variable(sp, 0, 1.0))
    assert np.allclose(s.coeffs, [1.0, 0.5, -0.125])


def test_compose_guards():
    sp = J.get_space(1, 2)
    with pytest.raises(DegenerateValue):
        J.jet_compose("sqrt", J.jet_variable(sp, 0, 0.0))
    with pytest.raises(DegenerateValue):
        J.jet_compose("sqrt", J.jet_variable(sp, 0, -1.0))
    with pytest.raises(DegenerateValue):
        J.jet_compose("recip", J.jet_variable(sp, 0, 0.0))


def test_derivative_shifts():
    sp = J.get_space(2, 3)
    u = J.jet_variable(sp, 0, 0.5)
    v = J.jet_variable(sp, 1, -0.25)
    f = u * u * v + v * v
    fu, fv = J.jet_partials(f)
    assert fu.space.order == 2
    assert fu.value == pytest.approx(2 * 0.5 * -0.25)
    assert _partial(fu, (1, 0)) == pytest.approx(2 * -0.25)
    assert fv.value == pytest.approx(0.5 ** 2 + 2 * -0.25)
    with pytest.raises(OrderExceeded):
        J.jet_partials(J.jet_constant(J.get_space(1, 0), 1.0))


@pytest.mark.parametrize("nvars, order", [(1, 1), (2, 3), (3, 1), (3, 4)])
def test_gradient_is_the_stack_of_derivatives(nvars, order):
    """jet_partials at s = 1 gives the jet_stack of the derivatives in
    each variable, bit for bit, on the leading axis it is asked for: the
    coefficient of m in d_k f is (m_k + 1) times that of m + e_k in f,
    read here one index at a time."""
    sp = J.get_space(nvars, order)
    low = J.get_space(nvars, order - 1)
    rng = np.random.default_rng(nvars * 10 + order)
    f = J.Jet(sp, rng.standard_normal((4, 2, sp.size)))
    derivs = J.Jet(low, np.zeros((nvars, 4, 2, low.size)))
    for k in range(nvars):
        for i, m in enumerate(low.indices):
            up = tuple(x + (j == k) for j, x in enumerate(m))
            derivs.coeffs[k, ..., i] = (m[k] + 1) * f.coeffs[..., sp.pos[up]]
    for axis in (0, 1, 2):
        got = J.jet_partials(f, axis=axis)
        assert got.space is derivs.space
        assert np.array_equal(got.coeffs,
                              np.moveaxis(derivs.coeffs, 0, axis))
    with pytest.raises(OrderExceeded):
        J.jet_partials(J.jet_constant(J.get_space(nvars, 0), 1.0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(1, 3),
       order=st.integers(0, 6), shape=st.sampled_from([(), (3,), (2, 3)]))
def test_partials_gather_every_multi_index(seed, nvars, order, shape):
    """jet_partials(a, s, axis) holds every s-th partial of a, s orders
    lower, on a new leading axis at `axis` (negative too), one per
    multi-index al of degree s in descending lexicographic order: the
    coefficient of mu is (mu + al)! / mu! times that of mu + al in a,
    read here one index at a time, bit for bit. At s = 1 that is the
    variable order, in two variables d_u^(s-k) d_v^k for k = 0..s; s = 0,
    s > order and an axis beyond the result's leading shape raise."""
    rng = np.random.default_rng(seed)
    sp = J.get_space(nvars, order)
    a = _random_jet(rng, sp, shape)
    for s in range(1, order + 1):
        low = J.get_space(nvars, order - s)
        alphas = sorted((m for m in itertools.product(range(s + 1),
                                                      repeat=nvars)
                         if sum(m) == s), reverse=True)
        if s == 1:
            assert alphas == [tuple(np.eye(nvars, dtype=int)[k])
                              for k in range(nvars)]
        if nvars == 2:
            assert alphas == [(s - k, k) for k in range(s + 1)]
        want = np.zeros((len(alphas),) + shape + (low.size,))
        for k, al in enumerate(alphas):
            for i, mu in enumerate(low.indices):
                up = tuple(x + y for x, y in zip(mu, al))
                fac = math.prod(math.factorial(x) // math.factorial(m)
                                for x, m in zip(up, mu))
                want[k, ..., i] = fac * a.coeffs[..., sp.pos[up]]
        n = len(shape)
        for axis in range(-n - 1, n + 1):
            got = J.jet_partials(a, s, axis=axis)
            assert got.space is low
            assert np.array_equal(got.coeffs,
                                  np.moveaxis(want, 0, axis % (n + 1)))
    with pytest.raises(InvalidData):
        J.jet_partials(a, 0)
    with pytest.raises(OrderExceeded):
        J.jet_partials(a, order + 1)
    if order:
        for axis in (len(shape) + 1, -len(shape) - 2):
            with pytest.raises(ShapeMismatch):
                J.jet_partials(a, axis=axis)


def test_product_table_is_built_on_first_use():
    """A space builds its pair table on its first product, once: a space
    whose jets are never multiplied costs only its index lists."""
    sp = J.JetSpace(2, 6)
    assert "_mul_table" not in vars(sp)
    x = J.jet_variable(sp, 0, 0.5)
    table = sp._mul_table
    assert J.jet_mul(x, x).coeffs[sp.pos[(2, 0)]] == 1.0
    assert sp._mul_table is table


def test_truncate_is_prefix():
    sp = J.get_space(3, 4)
    rng = np.random.default_rng(2)
    a = J.Jet(sp, rng.uniform(-1, 1, size=sp.size))
    t = J.jet_truncate(a, 2)
    low = J.get_space(3, 2)
    assert t.space is low
    assert np.array_equal(t.coeffs, a.coeffs[:low.size])
    assert J.jet_truncate(a, 4) is a
    with pytest.raises(OrderExceeded):
        J.jet_truncate(t, 4)


def test_space_mismatch():
    a = J.jet_constant(J.get_space(1, 2), 1.0)
    b = J.jet_constant(J.get_space(1, 3), 1.0)
    with pytest.raises(ShapeMismatch):
        _ = a + b
    with pytest.raises(ShapeMismatch):
        J.jet_mul(a, b)


def test_holomorphic_jets_match_complex_arithmetic():
    coeffs = (1.0, -2.0j, 0.5 + 0.5j)
    p = np.array(coeffs)
    re, im = surface_chart(np.stack([p, p * -1j])).eval_jets([(0.3, -0.2)],
                                                             3)[0]
    zc = complex(0.3, -0.2)
    ref = coeffs[0] + coeffs[1] * zc + coeffs[2] * zc * zc
    dref = coeffs[1] + 2.0 * coeffs[2] * zc
    assert re.value == pytest.approx(ref.real)
    assert im.value == pytest.approx(ref.imag)
    assert _partial(re, (1, 0)) == pytest.approx(dref.real)
    assert _partial(re, (0, 1)) == pytest.approx(-dref.imag)
    # Cauchy-Riemann: d(re)/du = d(im)/dv for a holomorphic jet
    assert _partial(re, (1, 0)) == pytest.approx(
        _partial(im, (0, 1)))
    assert _partial(re, (0, 1)) == pytest.approx(
        -_partial(im, (1, 0)))


def test_holomorphic_jet_guards():
    with pytest.raises(ShapeMismatch):
        J.jet_holomorphic_re(J.get_space(2, 3), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        J.jet_holomorphic_re(J.get_space(1, 1), [1.0, 2.0])


def _assert_matches_horner(components, chart, point):
    """surface_chart jets against Horner's rule in complex jet arithmetic,
    in 2- and 3-variable spaces at orders 0 to 6: coefficients agree within
    1e-12 of the jet's largest coefficient, and every coefficient with a
    power of the third variable is exactly 0."""
    for nvars in (2, 3):
        for order in range(7):
            sp = J.get_space(nvars, order)
            third = [p for p, m in enumerate(sp.indices) if any(m[2:])]
            got = chart.jet_fn(np.array([point], dtype=float), sp)[0]
            ref = holomorphic_jets_horner(components, point, sp)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.space is sp
                np.testing.assert_allclose(
                    g.coeffs, r.coeffs, rtol=1e-12,
                    atol=1e-12 * np.abs(r.coeffs).max())
                assert np.all(g.coeffs[third] == 0.0)


CURVE_1_2_PAD1 = np.array([[0, 1, 0], [0, -1j, 0], [0, 0, 1], [0, 0, -1j],
                           [0, 0, 0]])


@pytest.mark.parametrize("name", ["n4", "n5", "n6", "n7", "n8",
                                  "curve-1-2-pad1"])
def test_holomorphic_jets_match_horner_reference(name):
    if name.startswith("n"):
        rep = generate_surface(demo_weierstrass_data(int(name[1:])))
        components, chart = rep.phi2, rep.chart
    else:
        components, chart = CURVE_1_2_PAD1, make_fixture(name)
    for point in ((0.17, 0.11), (-0.23, 0.31), (0.6, -0.55)):
        _assert_matches_horner(components, chart, point)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       final_integration=st.booleans(),
       point=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_holomorphic_jets_match_horner_on_random_data(seed, n,
                                                      final_integration,
                                                      point):
    data = random_weierstrass_data(np.random.default_rng(seed), n)
    data.final_integration = final_integration
    rep = generate_surface(data)
    components = rep.phi2 if final_integration else rep.alpha2
    _assert_matches_horner(components, rep.chart, point)


def _random_jet(rng, space, shape=()):
    return J.Jet(space, rng.uniform(-1.0, 1.0, size=shape + (space.size,)))


def test_broadcast_mul_matches_componentwise_products():
    """A product of vector jets broadcasts like numpy over the leading
    shapes and equals the scalar product of each pair of components."""
    rng = np.random.default_rng(5)
    for nvars, order in ((1, 3), (2, 4), (3, 2), (3, 5)):
        sp = J.get_space(nvars, order)
        a = _random_jet(rng, sp, (4, 3))
        b = _random_jet(rng, sp, (3,))
        c = _random_jet(rng, sp)
        for x, y in ((a, b), (b, a), (b, c), (c, a), (a, a)):
            got = J.jet_mul(x, y)
            shape = np.broadcast_shapes(x.shape, y.shape)
            assert got.shape == shape and got.space is sp
            xb = np.broadcast_to(x.coeffs, shape + (sp.size,))
            yb = np.broadcast_to(y.coeffs, shape + (sp.size,))
            tol = 1e-14 * np.abs(got.coeffs).max()
            for idx in np.ndindex(shape):
                ref = J.jet_mul(J.Jet(sp, xb[idx]), J.Jet(sp, yb[idx]))
                np.testing.assert_allclose(got.coeffs[idx], ref.coeffs,
                                           rtol=0, atol=tol)
        dot = J.jet_dot(a, b)
        ref = J.jet_mul(a[:, 0], b[0]) + J.jet_mul(a[:, 1], b[1]) \
            + J.jet_mul(a[:, 2], b[2])
        assert dot.shape == (4,)
        np.testing.assert_allclose(dot.coeffs, ref.coeffs, rtol=0,
                                   atol=1e-14 * np.abs(ref.coeffs).max())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(1, 3),
       order=st.integers(0, 6), rows=st.integers(1, 5),
       pick=st.integers(0, 4))
def test_scalar_mul_equals_the_same_product_in_a_batch(seed, nvars, order,
                                                       rows, pick):
    """A product of scalar jets equals, bit for bit, the same product as
    one row of a batch: every shape sums a coefficient's products in the
    same order."""
    rng = np.random.default_rng(seed)
    sp = J.get_space(nvars, order)
    a, b = _random_jet(rng, sp, (rows,)), _random_jet(rng, sp, (rows,))
    i = pick % rows
    assert np.array_equal(J.jet_mul(a[i], b[i]).coeffs,
                          J.jet_mul(a, b).coeffs[i])


def test_vector_jet_indexing_acts_on_the_leading_shape():
    rng = np.random.default_rng(6)
    sp = J.get_space(2, 3)
    v = _random_jet(rng, sp, (3, 2))
    assert v.shape == (3, 2) and len(v) == 3
    assert np.array_equal(v.value, v.coeffs[..., 0])
    assert [w.shape for w in v] == [(2,)] * 3
    assert np.array_equal(v[1, 0].coeffs, v.coeffs[1, 0])
    assert np.array_equal(v[..., 1].coeffs, v.coeffs[:, 1])
    assert np.array_equal(v.T.coeffs, v.coeffs.transpose(1, 0, 2))
    assert v.reshape(-1).shape == (6,)
    d = J.jet_partials(v)[0]
    assert d.shape == (3, 2)
    assert np.array_equal(d[2, 1].coeffs, J.jet_partials(v[2, 1])[0].coeffs)
    assert J.jet_truncate(v, 1).coeffs.shape == (3, 2, 3)
    s = v[0, 0]
    assert isinstance(s.value, float) and not s.shape
    with pytest.raises(ShapeMismatch):
        s[0]
    with pytest.raises(TypeError):
        len(s)
    with pytest.raises(ShapeMismatch):
        J.jet_dot(s, s)
    # numbers and arrays act on values; numpy scalars defer to the jet
    shifted = v + np.array([1.0, 2.0])
    assert np.allclose(shifted.value - v.value, [1.0, 2.0])
    assert np.array_equal((shifted - v).coeffs[..., 1:], 0.0 * v.coeffs[..., 1:])
    assert isinstance(np.float64(2.0) * s, J.Jet)


def test_jet_stack_rejects_mixed_spaces_and_shapes():
    a = J.jet_constant(J.get_space(2, 2), 1.0)
    b = J.jet_constant(J.get_space(2, 3), 1.0)
    stacked = J.jet_stack([a, a, a])
    assert stacked.shape == (3,) and stacked.space is a.space
    with pytest.raises(ShapeMismatch):
        J.jet_stack([a, b])
    with pytest.raises(ShapeMismatch):
        J.jet_stack([a, stacked])
    with pytest.raises(ShapeMismatch):
        J.jet_stack([])


def test_compose_is_elementwise_on_vector_jets():
    """Composition acts on each element of a jet's leading shape as on a
    scalar jet; one degenerate element is still DegenerateValue."""
    sp = J.get_space(2, 3)
    rng = np.random.default_rng(9)
    v = _random_jet(rng, sp, (4, 2))
    v = v - v.value + rng.uniform(0.5, 2.0, size=(4, 2))
    for kind in ("sqrt", "recip", "rsqrt", "sin", "cos"):
        got = J.jet_compose(kind, v)
        assert got.shape == (4, 2)
        for i in range(4):
            for j in range(2):
                want = J.jet_compose(kind, v[i, j])
                np.testing.assert_allclose(got[i, j].coeffs, want.coeffs,
                                           rtol=1e-15, atol=1e-15)
    with pytest.raises(DegenerateValue):
        J.jet_compose("sqrt", v - v.value)


def test_batched_holomorphic_jets_match_per_row_calls():
    rng = np.random.default_rng(8)
    for nvars in (2, 3):
        sp = J.get_space(nvars, 4)
        derivs = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        got = J.jet_holomorphic_re(sp, derivs)
        assert got.shape == (6,)
        for row, d in zip(got, derivs):
            assert np.array_equal(row.coeffs,
                                  J.jet_holomorphic_re(sp, d).coeffs)
        with pytest.raises(ShapeMismatch):
            J.jet_holomorphic_re(sp, derivs[:, :4])


def test_variable_with_array_values_matches_scalar_calls():
    """An array of values gives one coordinate jet per value: the same
    coefficients as one scalar call each, in every space."""
    values = np.array([0.1, 0.2, 0.3])
    for nvars, order in ((1, 2), (2, 2), (3, 3), (2, 0)):
        sp = J.get_space(nvars, order)
        for var in range(nvars):
            got = J.jet_variable(sp, var, values)
            assert got.shape == (3,)
            for row, x in zip(got, values):
                assert np.array_equal(row.coeffs,
                                      J.jet_variable(sp, var, x).coeffs)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(1, 3),
       order=st.integers(0, 5),
       a0=st.one_of(st.floats(1e-3, 1e3),
                    st.sampled_from([-1.0, -0.0, 0.0, 1e-20, 1e-10,
                                     1.0000000000000002e-10, 0.25, 4.0,
                                     16.0, 16.000000000000004])),
       eps=st.sampled_from([0.0, J.EPS_DEG, 0.5, 4.0]))
def test_rsqrt_is_the_reciprocal_square_root(seed, nvars, order, a0, eps):
    """One composition gives recip(sqrt(a)) (`rsqrt_nested`) within 1e-14
    of its largest coefficient, and raises DegenerateValue exactly where
    the two nested compositions do: at a0 <= eps or sqrt(a0) <= eps."""
    sp = J.get_space(nvars, order)
    a = _random_jet(np.random.default_rng(seed), sp, (3,))
    a = a - a.value + np.array([a0, 1.0, 2.5])
    outcomes = []
    for fn in (functools.partial(J.jet_compose, "rsqrt"), rsqrt_nested):
        try:
            outcomes.append(fn(a, eps).coeffs)
        except DegenerateValue:
            outcomes.append(None)
    got, want = outcomes
    assert (got is None) == (want is None)
    if want is not None:
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-14 * scale


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["sqrt", "recip", "rsqrt", "sin", "cos"]),
       nvars=st.integers(1, 3), order=st.integers(0, 6),
       shape=st.sampled_from([(), (3,), (2, 3)]),
       a0=st.one_of(st.floats(-1e3, 1e3),
                    st.sampled_from([-1.0, -0.0, 0.0, 1e-20, 1e-10,
                                     1.0000000000000002e-10, 0.5,
                                     math.pi])),
       zeros=st.floats(0.0, 1.0),
       eps=st.sampled_from([0.0, J.EPS_DEG, 0.5]))
# sin and cos at 0 have zero series coefficients, where the sign of a zero
# coefficient depends on the constant jets
@example(seed=1, kind="cos", nvars=2, order=4, shape=(3,), a0=0.0,
         zeros=0.5, eps=0.0)
@example(seed=2, kind="sin", nvars=3, order=5, shape=(), a0=-0.0,
         zeros=0.5, eps=0.0)
def test_compose_matches_the_constant_jet_horner_loop(seed, kind, nvars,
                                                      order, shape, a0,
                                                      zeros, eps):
    """jet_compose equals, bit for bit (the sign of a zero included), the
    Horner loop that adds a whole constant jet at every step, on scalar
    and batched jets with exact zeros of either sign among their
    coefficients; it raises DegenerateValue with the same message where
    that loop does, and leaves its argument as it was."""
    rng = np.random.default_rng(seed)
    sp = J.get_space(nvars, order)
    c = rng.uniform(-1.0, 1.0, size=shape + (sp.size,))
    c[rng.random(c.shape) < zeros] = 0.0
    c[rng.random(c.shape) < 0.5] *= -1.0
    c[..., 0] = rng.uniform(0.5, 2.0, size=shape)
    c.reshape(-1, sp.size)[-1, 0] = a0
    a = J.Jet(sp, c)
    before = c.tobytes()
    outcomes = []
    for fn in (J.jet_compose, jet_compose_constant_jets):
        try:
            outcomes.append(fn(kind, a, eps).coeffs.tobytes())
        except DegenerateValue as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert a.coeffs.tobytes() == before


KINDS = ("sqrt", "recip", "rsqrt", "sin", "cos")


def _assert_same_bits(got, want, strides=False):
    """Same space, shape and bits (NaN and the sign of a zero included),
    and if asked the same strides."""
    assert got.space is want.space and got.shape == want.shape
    assert np.array_equal(got.coeffs, want.coeffs, equal_nan=True)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert not strides or got.coeffs.strides == want.coeffs.strides


def _outcome(fn, *args):
    """fn's result, or the message of the DegenerateValue or ShapeMismatch
    it raises."""
    try:
        return fn(*args)
    except (DegenerateValue, ShapeMismatch) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        _assert_same_bits(got, want, strides=True)


def _special_coeffs(rng, space, shape):
    """Coefficients uniform in [-1, 1] with exact zeros of either sign,
    NaN and infinities of either sign mixed in."""
    c = rng.uniform(-1.0, 1.0, size=shape + (space.size,))
    pick = rng.random(c.shape)
    for value, lo, hi in ((0.0, 0.0, 0.1), (-0.0, 0.1, 0.2),
                          (np.nan, 0.2, 0.23), (np.inf, 0.23, 0.25),
                          (-np.inf, 0.25, 0.27)):
        c[(pick >= lo) & (pick < hi)] = value
    return c


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(1, 3),
       order=st.integers(0, 6),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                max_side=3),
       a0=st.sampled_from([0.75, -1.0, 0.0, 1e-10, math.nan, math.inf]),
       eps=st.sampled_from([0.0, J.EPS_DEG, 0.5]))
def test_jet_core_matches_the_index_gather_forms(seed, nvars, order, shapes,
                                                 a0, eps):
    """Products, dots, partials (every s, every axis, negative ones
    included) and compositions of every kind equal, bit for bit, the forms
    that gathered by an Ellipsis fancy index, placed the partials' axis by
    `np.moveaxis` and composed through a - a0 (`oracles`), on broadcast
    leading shapes with exact zeros of either sign, NaN and infinities
    among the coefficients; where one raises, the other raises the same
    message. The results also keep the earlier strides: the route, and so
    the bits, of a matrix product of a jet's values (the nullity pass's
    second form, read off partials) depends on them."""
    with np.errstate(all="ignore"):  # NaN and infinities are the point
        _check_index_gather_forms(np.random.default_rng(seed),
                                  J.get_space(nvars, order),
                                  *shapes.input_shapes, a0, eps)


def _check_index_gather_forms(rng, sp, sa, sb, a0, eps):
    a = J.Jet(sp, _special_coeffs(rng, sp, sa))
    b = J.Jet(sp, _special_coeffs(rng, sp, sb))
    _assert_same_bits(J.jet_mul(a, b), jet_mul_fancy(a, b), strides=True)
    _assert_same_bits(J.jet_mul(b, a), jet_mul_fancy(b, a), strides=True)
    _assert_same_outcome(_outcome(J.jet_dot, a, b),
                         _outcome(jet_dot_fancy, a, b))
    n = len(sa)
    for s in range(1, sp.order + 1):
        for axis in range(-n - 1, n + 1):
            _assert_same_bits(J.jet_partials(a, s, axis),
                              jet_partials_moveaxis(a, s, axis), strides=True)
    # constant terms in (0.5, 2), one of them a0: inside and outside the
    # guards of sqrt, recip and rsqrt
    c = a.coeffs.copy()
    c[..., 0] = rng.uniform(0.5, 2.0, size=sa)
    c.reshape(-1, sp.size)[0, 0] = a0
    arg, before = J.Jet(sp, c), c.tobytes()
    for kind in KINDS:
        _assert_same_outcome(_outcome(J.jet_compose, kind, arg, eps),
                             _outcome(jet_compose_offset, kind, arg, eps))
    assert arg.coeffs.tobytes() == before


def _layouts(c):
    """Arrays equal to c laid out in memory in other ways: a contiguous
    copy, transposed leading axes, the coefficient axis outermost, and
    negative strides on the leading and on the coefficient axis."""
    return {"contiguous copy": c.copy(),
            "transposed": c.transpose(1, 0, 2).copy().transpose(1, 0, 2),
            "coefficients outermost": np.moveaxis(
                np.moveaxis(c, -1, 0).copy(), 0, -1),
            "reversed rows": c[::-1].copy()[::-1],
            "reversed coefficients": c[..., ::-1].copy()[..., ::-1]}


@pytest.mark.parametrize("nvars, order", [(1, 5), (2, 4), (3, 2), (3, 4)])
def test_products_and_partials_do_not_depend_on_the_layout(nvars, order):
    """One random operand of shape (4, 3) gives the same product, dot and
    partial bits from a contiguous copy, a transposed view, a view with the
    coefficient axis outermost and negative-stride views, and every slice
    of a broadcast view (`F[:, :, None]`-style, stride 0) the bits of the
    operand itself: the gathers copy values whatever the strides."""
    with np.errstate(all="ignore"):  # NaN and infinities are the point
        _check_layouts(np.random.default_rng(nvars * 10 + order),
                       J.get_space(nvars, order))


def _check_layouts(rng, sp):
    order = sp.order
    c = _special_coeffs(rng, sp, (4, 3))
    other = J.Jet(sp, _special_coeffs(rng, sp, (3,)))

    def ops(x):
        out = [J.jet_mul(x, other), J.jet_mul(other, x), J.jet_mul(x, x),
               J.jet_dot(x, other)]
        n = len(x.shape)
        return out + [J.jet_partials(x, s, axis)
                      for s in range(1, order + 1)
                      for axis in range(-n - 1, n + 1)]

    want = ops(J.Jet(sp, c))
    for name, view in _layouts(c).items():
        assert np.array_equal(view, c, equal_nan=True), name
        for got, ref in zip(ops(J.Jet(sp, view)), want, strict=True):
            _assert_same_bits(got, ref)
    wide = np.broadcast_to(c[:, :, None], (4, 3, 2, sp.size))
    x = J.Jet(sp, wide)
    got = [J.jet_mul(x, other[:, None]), J.jet_mul(other[:, None], x),
           J.jet_mul(x, x), J.jet_dot(J.Jet(sp, np.moveaxis(wide, 1, 2)),
                                      other)]
    for j in range(2):
        for g, ref in zip(got[:3], want[:3]):
            _assert_same_bits(g[:, :, j], ref)
        _assert_same_bits(got[3][:, j], want[3])
    for s in range(1, order + 1):
        # the broadcast axis follows 3 leading axes of the partials at
        # axis 0, and 2 at axis -1
        for axis, lead in ((0, 3), (-1, 2)):
            part = J.jet_partials(x, s, axis)
            ref = J.jet_partials(J.Jet(sp, c), s, axis)
            for j in range(2):
                _assert_same_bits(part[(slice(None),) * lead + (j,)], ref)

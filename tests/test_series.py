"""Truncated power series arithmetic and the jet scalar protocol."""

import math

import numpy as np
import pytest

from regsing import series
from regsing.series import Series
from regsing.errors import SeriesError


def sderiv(s):
    # coefficientwise d/dt, used to state ring identities in the tests
    k = np.arange(1, s.order + 1)
    return Series(s.coeffs[1:] * k if s.order else [0.0], s.t0)


def test_construction_and_order():
    s = Series([1.0, 2.0, 3.0])
    assert s.order == 2
    assert s.t0 == 0.0
    with pytest.raises(SeriesError):
        Series([])
    with pytest.raises(SeriesError):
        Series([[1.0, 2.0]])
    with pytest.raises(SeriesError):
        Series(["a", "b"])


def test_immutability():
    s = Series([1.0, 2.0])
    with pytest.raises(AttributeError):
        s.t0 = 3.0
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_truncate_and_pad():
    s = Series([1.0, 2.0, 3.0, 4.0])
    assert s.truncate(1).coeffs.tolist() == [1.0, 2.0]
    assert s.truncate(9) is s          # never extends
    assert s.pad(5).coeffs.tolist() == [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]
    assert s.pad(2).coeffs.tolist() == [1.0, 2.0, 3.0]


def test_ring_ops_match_convolution():
    a = Series([1.0, -2.0, 0.5, 3.0])
    b = Series([2.0, 1.0, -1.0, 0.25])
    prod = (a * b).coeffs
    want = np.convolve(a.coeffs, b.coeffs)[:4]
    np.testing.assert_allclose(prod, want, rtol=1e-15)
    np.testing.assert_allclose((a + b).coeffs, a.coeffs + b.coeffs)
    np.testing.assert_allclose((a - b).coeffs, a.coeffs - b.coeffs)
    # result order is the weaker operand's order
    assert (a * b.truncate(1)).order == 1
    assert (a + 1.0).coeffs[0] == 2.0
    assert (2.0 - a).coeffs.tolist() == [1.0, 2.0, -0.5, -3.0]


def test_mismatched_centers_rejected():
    with pytest.raises(SeriesError):
        Series([1.0, 1.0], 0.0) + Series([1.0, 1.0], 1.0)


def test_reciprocal_geometric():
    g = series.reciprocal(Series([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(g.coeffs, np.ones(6), rtol=1e-15)
    with pytest.raises(SeriesError):
        series.reciprocal(Series([0.0, 1.0]))
    # a / a == 1
    a = Series([2.0, 0.3, -0.7, 0.1])
    one = a / a
    np.testing.assert_allclose(one.coeffs, [1, 0, 0, 0], atol=1e-16)


def test_product_rule_random():
    rng = np.random.default_rng(99)
    for _ in range(50):
        f = Series(rng.normal(size=7))
        g = Series(rng.normal(size=7))
        lhs = sderiv(f * g)
        rhs = (sderiv(f) * g + f * sderiv(g)).truncate(lhs.order)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs,
                                   rtol=1e-13, atol=1e-13)


def test_elementary_functions_maclaurin():
    t = series.identity(8)
    np.testing.assert_allclose(
        series.exp(t).coeffs, [1 / math.factorial(k) for k in range(9)],
        rtol=0, atol=1e-16)
    np.testing.assert_allclose(
        series.log(1.0 + t).coeffs,
        [0.0] + [(-1.0) ** (k + 1) / k for k in range(1, 9)],
        rtol=1e-15, atol=1e-16)
    s, c = series.sin(t), series.cos(t)
    one = s * s + c * c
    np.testing.assert_allclose(one.coeffs, [1.0] + [0.0] * 8, atol=1e-16)
    # sqrt(1 + t)^2 == 1 + t
    r = series.sqrt(1.0 + t)
    np.testing.assert_allclose((r * r).coeffs, (1.0 + t).coeffs, atol=1e-15)
    from regsing.errors import EvalDomainError
    with pytest.raises(EvalDomainError):
        series.sqrt(t)   # branch point at the expansion center
    with pytest.raises(EvalDomainError):
        series.log(t)


def test_hyperbolic_consistency():
    t = series.identity(10)
    sh, ch, th = series.sinh(t), series.cosh(t), series.tanh(t)
    np.testing.assert_allclose((ch * ch - sh * sh).coeffs,
                               [1.0] + [0.0] * 10, atol=1e-15)
    np.testing.assert_allclose((th * ch).coeffs, sh.coeffs, atol=1e-15)


def test_powi_binomial():
    p = (1.0 + series.identity(6)) ** 5
    np.testing.assert_allclose(p.coeffs, [1, 5, 10, 10, 5, 1, 0], rtol=1e-15)
    q = series.powi(Series([1.0, 1.0, 0, 0]), 0)
    assert q.coeffs.tolist() == [1.0, 0.0, 0.0, 0.0]
    # fractional exponent goes through exp/log
    h = (1.0 + series.identity(6)) ** 0.5
    np.testing.assert_allclose(h.coeffs,
                               series.sqrt(1.0 + series.identity(6)).coeffs,
                               rtol=1e-13, atol=1e-15)


def test_compose():
    outer = series.exp(series.identity(12))         # exp around 0
    inner = series.sin(series.identity(12))         # sin t, value 0 at 0
    comp = series.compose(outer, inner)
    got = series.eval_truncated(comp, 0.1)
    assert got == pytest.approx(math.exp(math.sin(0.1)), rel=1e-12)
    # inner value must sit at the outer expansion point
    with pytest.raises(SeriesError):
        series.compose(outer, Series([1.0, 1.0]))


def test_eval_truncated_sums_rows_as_it_sums_a_series():
    rows = np.array([[1.0, -2.0], [0.5, 3.0], [0.25, -1.0]])
    got = series.eval_truncated(rows, 0.3)
    assert got.tolist() == [series.eval_truncated(Series(rows[:, i]), 0.3)
                            for i in range(2)]
    one = series.eval_truncated(rows[:1], 0.3)
    one[:] = 0.0
    assert rows[0].tolist() == [1.0, -2.0]      # a copy, not a view


def test_identity_order_zero():
    z = series.identity(0)
    assert z.coeffs.tolist() == [0.0]
    c = series.constant(4.0, 0)
    assert c.order == 0 and c.coeffs[0] == 4.0


def test_complex_coefficients():
    t = series.identity(6)
    e = series.exp(1j * t)
    s, c = series.sin(t), series.cos(t)
    np.testing.assert_allclose(e.coeffs, (c + 1j * s).coeffs, atol=1e-15)


def test_numpy_object_array_interop():
    # Series must behave as a scalar inside object ndarrays: elementwise
    # broadcasting against float arrays and matmul must both work.
    t = series.identity(3)
    vec = np.array([1.0 + t, 2.0 * t], dtype=object)
    shifted = np.array([2.0, -1.0]) - vec
    assert isinstance(shifted[0], Series)
    assert shifted[0].coeffs.tolist() == [1.0, -1.0, 0.0, 0.0]
    M = np.array([[1.0, 2.0], [0.0, 3.0]])
    out = M @ vec
    assert isinstance(out[0], Series)
    assert out[0].coeffs.tolist() == [1.0, 5.0, 0.0, 0.0]
    assert out[1].coeffs.tolist() == [0.0, 6.0, 0.0, 0.0]


def test_call_evaluates():
    s = series.exp(series.identity(12))
    assert s(0.2) == pytest.approx(math.exp(0.2), rel=1e-12)


# -- the lean path against the Series-object code it replaced ----------------
#
# Ring operations, compose and scalar coercion now work on raw arrays and
# wrap results with the trusted constructor.  The references below are the
# code they replaced, spelled with the validating constructor only, so the
# results must agree byte for byte.

def ref_coerce(s, other):
    """A scalar operand as ``Series([other], t0).pad(order)`` gave it."""
    base = Series([other], s.t0)
    if s.order == 0:
        return base
    c = np.zeros(s.order + 1, dtype=base.coeffs.dtype)
    c[:1] = base.coeffs
    return Series(c, s.t0)


def ref_add(a, b):
    k = min(a.order, b.order)
    return Series(a.coeffs[: k + 1] + b.coeffs[: k + 1], a.t0)


def ref_sub(a, b):
    k = min(a.order, b.order)
    return Series(a.coeffs[: k + 1] - b.coeffs[: k + 1], a.t0)


def ref_mul(a, b):
    k = min(a.order, b.order)
    return Series(np.convolve(a.coeffs[: k + 1], b.coeffs[: k + 1])[: k + 1],
                  a.t0)


def ref_compose(outer, inner):
    """Horner's scheme on Series objects, as compose computed it."""
    if inner.coeffs[0] != outer.t0:
        raise SeriesError("composition mismatch")
    k = min(outer.order, inner.order)
    trunc = inner if k >= inner.order else Series(inner.coeffs[: k + 1],
                                                  inner.t0)
    u = ref_sub(trunc, ref_coerce(trunc, inner.coeffs[0]))
    value = outer.coeffs[k]
    c = np.zeros(k + 1, dtype=np.complex128 if isinstance(value, complex)
                 else np.float64)
    c[0] = value
    acc = Series(c, inner.t0)
    if np.issubdtype(outer.coeffs.dtype, np.complexfloating):
        acc = Series(acc.coeffs.astype(np.complex128), inner.t0)
    for j in range(k - 1, -1, -1):
        prod = ref_mul(acc, u)
        acc = ref_add(prod, ref_coerce(prod, outer.coeffs[j]))
    return acc


def same_bytes(got, want):
    return (got.coeffs.dtype == want.coeffs.dtype
            and got.coeffs.tobytes() == want.coeffs.tobytes()
            and got.t0 == want.t0)


def random_coeffs(rng, n, complex_):
    """Seeded coefficients with exact zeros of both signs mixed in."""
    c = rng.normal(size=n)
    if complex_:
        c = c + 1j * rng.normal(size=n)
    pick = rng.random(n)
    c[pick < 0.15] = -0.0
    c[(pick >= 0.15) & (pick < 0.25)] = 0.0
    return c


@pytest.mark.parametrize("outer_complex,inner_complex",
                         [(False, False), (True, True), (False, True),
                          (True, False)])
def test_compose_matches_series_object_reference(outer_complex,
                                                 inner_complex):
    rng = np.random.default_rng(20261 + 2 * outer_complex + inner_complex)
    for k in range(31):
        for extra in (0, 3):
            t0 = float(rng.choice([0.0, -0.0, 0.3]))
            ci = random_coeffs(rng, k + 1 + (extra if k % 2 else 0),
                               inner_complex)
            ci[0] = t0
            outer = Series(random_coeffs(rng, k + 1 + (0 if k % 2 else extra),
                                         outer_complex), t0)
            inner = Series(ci, -0.25)
            assert same_bytes(series.compose(outer, inner),
                              ref_compose(outer, inner))


SCALARS = [1.5, -0.0, 0.0, 3, -7, 2.5 - 1j, np.float64(-0.0),
           np.float32(0.1), np.int64(4), np.complex64(1 + 2j),
           np.longdouble(0.2)]


def test_scalar_operands_match_reference():
    rng = np.random.default_rng(7001)
    for k in (0, 1, 5, 30):
        for complex_ in (False, True):
            s = Series(random_coeffs(rng, k + 1, complex_), 0.5)
            for x in SCALARS:
                assert same_bytes(s._coerce(x), ref_coerce(s, x))
                assert same_bytes(s + x, ref_add(s, ref_coerce(s, x)))
                assert same_bytes(x + s, ref_add(s, ref_coerce(s, x)))
                assert same_bytes(s - x, ref_sub(s, ref_coerce(s, x)))
                neg = Series(-s.coeffs, s.t0)
                assert same_bytes(x - s, ref_add(neg, ref_coerce(neg, x)))
                assert same_bytes(s * x, Series(s.coeffs * x, s.t0))
                if x != 0:
                    assert same_bytes(s / x, Series(s.coeffs / x, s.t0))


def test_series_operands_match_reference():
    rng = np.random.default_rng(7002)
    for k in range(31):
        for ca, cb in ((False, False), (True, False), (False, True)):
            a = Series(random_coeffs(rng, k + 1, ca), 0.1)
            b = Series(random_coeffs(rng, k + 1 + k % 3, cb), 0.1)
            assert same_bytes(a + b, ref_add(a, b))
            assert same_bytes(a - b, ref_sub(a, b))
            assert same_bytes(a * b, ref_mul(a, b))


def test_non_numeric_scalars_still_raise():
    from fractions import Fraction
    s = Series([1.0, 2.0])
    with pytest.raises(SeriesError):
        s + Fraction(1, 3)
    with pytest.raises(SeriesError):
        s * Fraction(1, 3)
    with pytest.raises(SeriesError):
        Fraction(1, 3) * s
    with pytest.raises(SeriesError):
        s + True
    with pytest.raises(SeriesError):
        s.truncate(-1)


def test_internal_results_are_readonly_float_arrays():
    t = series.identity(6, 0.0)
    a = 1.5 + t
    z = series.exp(1j * t)
    results = [
        a + t, a - 2, 3 - a, -a, a * t, a * 2, a / 3, a / a, a ** 3,
        a ** -2, a ** 0.5, a.truncate(2), a.pad(9), series.constant(2.0, 4),
        series.constant(1j, 4), t, series.reciprocal(a),
        series.compose(series.exp(t), series.sin(t)), series.exp(a),
        series.log(a), series.sqrt(a), series.sin(a), series.cos(a),
        series.tan(a), series.sinh(a), series.cosh(a), series.tanh(a),
        series.powi(a, 4), z, z * a, series.log(z),
    ]
    for s in results:
        assert s.coeffs.ndim == 1
        assert s.coeffs.dtype in (np.float64, np.complex128)
        assert not s.coeffs.flags.writeable
        assert type(s.t0) is float


def test_series_pickles():
    import pickle
    s = series.exp(series.identity(5, 0.25))
    back = pickle.loads(pickle.dumps(s))
    assert same_bytes(back, s)

"""Truncated power series arithmetic.

A :class:`Series` stores coefficients ``c[0..K]`` of a polynomial in
``(t - t0)`` together with the expansion point ``t0``.  Arithmetic is exact
on the retained coefficients and truncates everything beyond order ``K``;
binary operations carry ``K = min(K_a, K_b)`` and require matching
expansion points.

The module also provides the elementary functions (exp, log, sin, ...) on
series via the standard convolution recurrences, so any function written in
terms of these primitives can be evaluated in Taylor mode by passing Series
arguments instead of floats.  All recurrences propagate from the constant
term, i.e. the expansion is around the argument's own base value, not
around zero.

:func:`eval_truncated` is the one evaluator for truncated power series in
the package: a Horner sum at an offset from the expansion point, of a
Series or of coefficient rows, that returns the value.

``Series(...)`` validates and copies its coefficients.  Results computed
inside this package (ring operations, ``truncate``/``pad``, ``constant``,
``identity``, ``compose`` and the elementary-function recurrences) come
from :meth:`Series._new`, a trusted constructor that only marks its fresh
float64 or complex128 array read-only.  Both give the same coefficients
bit for bit; the trusted one skips the dtype checks and the copy.
"""

from __future__ import annotations

import math
import cmath
import numbers

import numpy as np

from .errors import SeriesError, EvalDomainError

__all__ = [
    "Series", "constant", "identity", "reciprocal", "compose",
    "eval_truncated", "exp", "log", "sqrt", "sin", "cos", "tan",
    "sinh", "cosh", "tanh", "powi",
]


# the coefficient dtypes every Series holds
_TRUSTED_TYPES = (np.float64, np.complex128)


def _as_coeff_array(coeffs):
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise SeriesError("coefficients must be a non-empty 1-d sequence")
    # the test np.issubdtype makes, without its per-call overhead
    if not issubclass(arr.dtype.type, np.number):
        raise SeriesError("coefficients must be numeric")
    if issubclass(arr.dtype.type, np.complexfloating):
        return arr.astype(np.complex128)
    return arr.astype(np.float64)


class Series:
    """Truncated power series in ``(t - t0)`` of order ``K = len(coeffs) - 1``.

    Parameters
    ----------
    coeffs : sequence of real or complex
        ``coeffs[k]`` multiplies ``(t - t0)**k``.
    t0 : float
        Expansion point.

    Series objects are immutable; arithmetic returns new instances.
    Operator overloading accepts plain numbers on either side, which makes
    Series usable as a drop-in scalar type for Taylor-mode evaluation.
    """

    __slots__ = ("coeffs", "t0")

    def __init__(self, coeffs, t0: float = 0.0):
        object.__setattr__(self, "coeffs", _as_coeff_array(coeffs))
        object.__setattr__(self, "t0", float(t0))
        self.coeffs.setflags(write=False)

    @classmethod
    def _new(cls, coeffs: np.ndarray, t0: float) -> "Series":
        """Trusted constructor for results computed in this package.

        ``coeffs`` must be a 1-d, non-empty float64 or complex128 array that
        nothing else writes to (fresh, or a view of a read-only array), and
        ``t0`` a float.  The array is marked read-only and kept, not copied.
        """
        coeffs.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", coeffs)
        object.__setattr__(s, "t0", t0)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        # the default protocol would restore the slots through __setattr__
        return Series, (self.coeffs, self.t0)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"Series({list(self.coeffs)!r}, t0={self.t0!r})"

    def truncate(self, order: int) -> "Series":
        """Drop coefficients above ``order`` (never extends)."""
        if order >= self.order:
            return self
        if order < 0:
            raise SeriesError(f"order must be nonnegative, got {order}")
        return Series._new(self.coeffs[: order + 1], self.t0)

    def pad(self, order: int) -> "Series":
        """Zero-extend up to ``order``.  Changes the claimed accuracy."""
        if order <= self.order:
            return self.truncate(order)
        c = np.zeros(order + 1, dtype=self.coeffs.dtype)
        c[: len(self.coeffs)] = self.coeffs
        return Series._new(c, self.t0)

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            if other.t0 != self.t0:
                raise SeriesError(
                    f"expansion points differ: {self.t0} vs {other.t0}")
            return other
        if isinstance(other, numbers.Number):
            # the coefficients of Series([other]).pad(self.order), with the
            # same validation (bool, Fraction, ... raise SeriesError)
            value = _as_coeff_array((other,))
            c = np.zeros(len(self.coeffs), dtype=value.dtype)
            c[0] = value[0]
            return Series._new(c, self.t0)
        return None

    def _scaled(self, coeffs: np.ndarray) -> "Series":
        """Wrap ``coeffs * scalar`` or ``coeffs / scalar``.

        A scalar of another numeric type (Fraction, longdouble, ...) leaves
        another dtype, which goes through the validating constructor.
        """
        if coeffs.dtype.type in _TRUSTED_TYPES:
            return Series._new(coeffs, self.t0)
        return Series(coeffs, self.t0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        return Series._new(self.coeffs[:n] + o.coeffs[:n], self.t0)

    __radd__ = __add__

    def __neg__(self):
        return Series._new(-self.coeffs, self.t0)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        return Series._new(self.coeffs[:n] - o.coeffs[:n], self.t0)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return self._scaled(self.coeffs * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        # exact Cauchy product, truncated to order n - 1
        return Series._new(np.convolve(self.coeffs[:n], o.coeffs[:n])[:n],
                           self.t0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            return self._scaled(self.coeffs / other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * reciprocal(o)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, n):
        if isinstance(n, numbers.Integral):
            return powi(self, int(n))
        if isinstance(n, numbers.Real):
            return exp(log(self) * float(n))
        return NotImplemented

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t: float):
        return eval_truncated(self, t - self.t0)


def constant(value, order: int, t0: float = 0.0) -> Series:
    c = np.zeros(order + 1, dtype=np.complex128 if isinstance(
        value, complex) else np.float64)
    c[0] = value
    return Series._new(c, float(t0))


def identity(order: int, t0: float = 0.0) -> Series:
    """The series of ``t`` itself around ``t0``: ``t0 + (t - t0)``."""
    c = np.zeros(order + 1)
    c[0] = t0
    if order >= 1:
        c[1] = 1.0
    return Series._new(c, float(t0))


def reciprocal(a: Series) -> Series:
    """Multiplicative inverse; requires a nonzero constant term."""
    c0 = a.coeffs[0]
    if c0 == 0:
        raise SeriesError("reciprocal of a series with zero constant term")
    k = a.order
    out = np.zeros(k + 1, dtype=np.result_type(a.coeffs.dtype, np.float64))
    out[0] = 1.0 / c0
    for n in range(1, k + 1):
        # c0*out[n] + sum_{j=1..n} a[j]*out[n-j] = 0
        acc = np.dot(a.coeffs[1: n + 1], out[n - 1:: -1][: n])
        out[n] = -acc / c0
    return Series._new(out, a.t0)


def compose(outer: Series, inner: Series) -> Series:
    """``outer(inner(t))`` as a series in ``(t - inner.t0)``.

    The constant term of ``inner`` must equal the expansion point of
    ``outer`` so that the composition is a formal power series; the result
    carries ``min`` of the two orders.
    """
    if inner.coeffs[0] != outer.t0:
        raise SeriesError(
            "composition mismatch: inner constant term "
            f"{inner.coeffs[0]} != outer expansion point {outer.t0}")
    k = min(outer.order, inner.order)
    oc = outer.coeffs
    # Horner's scheme on raw arrays, with the operations Series arithmetic
    # would do: u = inner - c0, then acc = acc * u + oc[j], each scalar
    # zero-padded and added as a whole array (``acc[0] += oc[j]`` would
    # keep a -0.0 in a higher coefficient that adding +0.0 clears).
    shift = np.zeros(k + 1, dtype=inner.coeffs.dtype)
    shift[0] = inner.coeffs[0]
    u = inner.coeffs[: k + 1] - shift
    acc = np.zeros(k + 1, dtype=oc.dtype)
    acc[0] = oc[k]
    term = np.zeros(k + 1, dtype=oc.dtype)
    for j in range(k - 1, -1, -1):
        term[0] = oc[j]
        acc = np.convolve(acc, u)[: k + 1] + term
    return Series._new(acc, inner.t0)


def eval_truncated(a, dt):
    """Horner sum of a truncated power series at offset ``dt`` from its
    expansion point; every series sum in the package goes through here.

    ``a`` is a :class:`Series`, whose value is a scalar, or an array of
    coefficient rows with the power on the first axis (row ``h``
    multiplies ``dt**h``), whose value is one row.
    """
    c = a.coeffs if isinstance(a, Series) else np.asarray(a)
    acc = c[-1].copy()      # a one-row sum must not hand out a view of a
    for row in c[-2::-1]:
        acc = acc * dt + row
    return acc


# -- elementary functions -------------------------------------------------
#
# Each routine accepts a Series or a plain number.  On numbers it defers to
# math/cmath, which keeps user-supplied maps generic over both call modes.

def _is_complex(x) -> bool:
    return isinstance(x, complex) or (
        isinstance(x, np.generic) and np.iscomplexobj(x))


def _lift(fn_real, fn_complex, x):
    if _is_complex(x):
        return fn_complex(x)
    return fn_real(x)


def _dmul_sum(g: np.ndarray, f: np.ndarray, k: int):
    """sum_{j=1..k} j * g[j] * f[k-j], the derivative convolution kernel."""
    j = np.arange(1, k + 1)
    return np.dot(j * g[1: k + 1], f[k - 1:: -1][: k])


def exp(x):
    if not isinstance(x, Series):
        return _lift(math.exp, cmath.exp, x)
    g = x.coeffs
    k = x.order
    e0 = cmath.exp(g[0]) if np.iscomplexobj(g) else math.exp(g[0].real)
    out = np.zeros(k + 1, dtype=np.result_type(g.dtype, type(e0)))
    out[0] = e0
    for n in range(1, k + 1):
        out[n] = _dmul_sum(g, out, n) / n
    return Series._new(out, x.t0)


def log(x):
    if not isinstance(x, Series):
        if not _is_complex(x):
            if x <= 0:
                raise EvalDomainError(f"log of nonpositive real {x}")
            return math.log(x)
        if x == 0:
            raise EvalDomainError("log of zero")
        return cmath.log(x)
    g = x.coeffs
    if g[0] == 0:
        raise EvalDomainError("log of series with zero constant term")
    if not np.iscomplexobj(g) and g[0].real < 0:
        raise EvalDomainError(f"log of series with negative base {g[0]}")
    k = x.order
    l0 = log(complex(g[0])) if np.iscomplexobj(g) else math.log(g[0].real)
    out = np.zeros(k + 1, dtype=np.result_type(g.dtype, type(l0)))
    out[0] = l0
    for n in range(1, k + 1):
        # n*l[n]*g[0] = n*g[n] - sum_{j=1..n-1} j*l[j]*g[n-j]
        # (_dmul_sum's j=n term vanishes because out[n] is still zero)
        out[n] = (n * g[n] - _dmul_sum(out, g, n)) / (n * g[0])
    return Series._new(out, x.t0)


def sqrt(x):
    if not isinstance(x, Series):
        if not _is_complex(x):
            if x < 0:
                raise EvalDomainError(f"sqrt of negative real {x}")
            return math.sqrt(x)
        return cmath.sqrt(x)
    g = x.coeffs
    if g[0] == 0:
        raise EvalDomainError("sqrt of series with zero constant term")
    if not np.iscomplexobj(g) and g[0].real < 0:
        raise EvalDomainError(f"sqrt of series with negative base {g[0]}")
    k = x.order
    q0 = sqrt(complex(g[0])) if np.iscomplexobj(g) else math.sqrt(g[0].real)
    out = np.zeros(k + 1, dtype=np.result_type(g.dtype, type(q0)))
    out[0] = q0
    for n in range(1, k + 1):
        acc = np.dot(out[1: n], out[n - 1: 0: -1]) if n >= 2 else 0.0
        out[n] = (g[n] - acc) / (2 * q0)
    return Series._new(out, x.t0)


def _sin_cos(x: Series, hyperbolic: bool = False):
    """``(sin x, cos x)``, or ``(sinh x, cosh x)`` when ``hyperbolic``, by
    the recurrences of ``s' = c x'`` and ``c' = -s x'`` (``+s x'``)."""
    g = x.coeffs
    k = x.order
    if np.iscomplexobj(g):
        mod, g0 = cmath, g[0]
    else:
        mod, g0 = math, g[0].real
    s0, c0 = ((mod.sinh(g0), mod.cosh(g0)) if hyperbolic
              else (mod.sin(g0), mod.cos(g0)))
    dt = np.result_type(g.dtype, type(s0))
    s = np.zeros(k + 1, dtype=dt)
    c = np.zeros(k + 1, dtype=dt)
    s[0], c[0] = s0, c0
    for n in range(1, k + 1):
        s[n] = _dmul_sum(g, c, n) / n
        d = _dmul_sum(g, s, n)
        c[n] = (d if hyperbolic else -d) / n
    return Series._new(s, x.t0), Series._new(c, x.t0)


def sin(x):
    if not isinstance(x, Series):
        return _lift(math.sin, cmath.sin, x)
    return _sin_cos(x)[0]


def cos(x):
    if not isinstance(x, Series):
        return _lift(math.cos, cmath.cos, x)
    return _sin_cos(x)[1]


def tan(x):
    if not isinstance(x, Series):
        return _lift(math.tan, cmath.tan, x)
    s, c = _sin_cos(x)
    if c.coeffs[0] == 0:
        raise EvalDomainError("tan at a pole of the expansion point")
    return s * reciprocal(c)


def sinh(x):
    if not isinstance(x, Series):
        return _lift(math.sinh, cmath.sinh, x)
    return _sin_cos(x, True)[0]


def cosh(x):
    if not isinstance(x, Series):
        return _lift(math.cosh, cmath.cosh, x)
    return _sin_cos(x, True)[1]


def tanh(x):
    if not isinstance(x, Series):
        return _lift(math.tanh, cmath.tanh, x)
    s, c = _sin_cos(x, True)
    return s * reciprocal(c)


def powi(a: Series, n: int) -> Series:
    """Integer power by repeated squaring; negative n via reciprocal."""
    if n == 0:
        return constant(1.0, a.order, a.t0)
    if n < 0:
        return reciprocal(powi(a, -n))
    base = a
    acc = None
    while n:
        if n & 1:
            acc = base if acc is None else acc * base
        base = base * base
        n >>= 1
    return acc

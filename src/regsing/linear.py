"""Linear systems with a regular singular point at the origin.

The stored object is the system ``dY/ds + (1/s) A(s) Y = h(s)`` on
``0 < s < rho`` with ``A`` and ``h`` analytic at 0, which is probed when
the system is built.  Pulling back along ``s = e^z`` removes the pole:
``dY/dz + A(e^z) Y = e^z h(e^z)`` is regular on the half-plane
``Re z < log(rho)``.  One transport carries a solution along a segment of
that half-plane, and fundamental solutions, inhomogeneous solves and
monodromy loops are all calls of it: the loop ``s = sigma * e^{i theta}``
is the segment ``[log sigma, log sigma + 2 pi i]``.  At ``sigma = 0`` the
loop degenerates and the monodromy is the exponential ``exp(-2 pi i
A(0))``.

Where ``A0 = A(0)`` is non-resonant (no two eigenvalues differ by a
positive integer), ``Y(s) = P(s) s^(-A0)`` with ``P`` analytic and ``P(0)
= I`` (Coddington & Levinson 1955, ch. 4; Wasow 1965, sec. 5), so a
source-free transport is ``P(e^z1) exp(-(z1 - z0) A0) P(e^z0)^-1`` and a
loop ``P(sigma) exp(-2 pi i A0) P(sigma)^-1``, with no integration.  The
coefficients ``P_0 .. P_SERIES_ORDER`` are built per system on its first
source-free transport and kept.  The series is declined, and the segment
integrated, where ``n > SERIES_MAX_DIM`` or the resonance scan that
:func:`regsing.singular.check_admissibility` runs would pass ``MAX_SCAN``
(``size``), where that scan finds an ``h I - J`` singular (``resonant at
h = k``), where the series has not converged at an end by
``SERIES_ORDER`` (``tail``), where ``s P' + A P - P A0`` at an end
misses its bound (``residual``), or where the error bound carried through
``P^-1`` misses ``tol (1 + |U|)`` (``conditioning``).  Inhomogeneous solves
always integrate.

Conjugacy invariants are characteristic polynomial coefficients; the
library never asserts conjugacy itself, it only reports the invariants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expr as _expr
from .errors import ValidationError, NumericalError
from .rk import integrate_adaptive
from .singular import _resonance_scan

__all__ = [
    "LinearRSSystem", "MonodromyResult", "Transport", "transport",
    "fundamental_solution", "monodromy_at", "monodromy_generator",
    "solve_inhomogeneous", "conjugacy_invariants", "matrix_exponential",
]

MAX_DIM = 64
SERIES_MAX_DIM = 8          # above it the n^2 x n^2 Sylvester solves decline
SERIES_ORDER = 40           # the order of a system's expansion
SERIES_MARGIN = 1e-3        # tail and residual targets as a share of tol
_EPS = float(np.finfo(float).eps)


@dataclass
class LinearRSSystem:
    """Coefficient data for ``dY/ds + (1/s) A(s) Y = h(s)``.

    Parameters
    ----------
    A : array-like of shape (n, n)
        Entries are Expr trees, expression strings or finite numbers
        (:func:`~regsing.expr.as_expr`, which raises ExprError for anything
        else).  Every entry must be analytic at ``s = 0``: its Taylor
        expansion there is probed at construction, and a failure is a
        ValidationError naming the entry.
    h : array-like of shape (n,), optional
        Inhomogeneity, its entries read and probed as those of ``A``;
        omitted means the zero vector.
    rho : float
        Radius of validity; ``math.inf`` is allowed.
    """

    A: object
    h: object = None
    rho: float = math.inf
    n: int = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=object)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if not 1 <= n <= MAX_DIM:
            raise ValidationError(
                f"dimension {n} outside supported range 1..{MAX_DIM}")
        self.n = n
        self.A = _expr.as_exprs(A)
        if self.h is not None:
            hv = np.asarray(self.h, dtype=object).reshape(-1)
            if hv.shape != (n,):
                raise ValidationError(
                    f"h must have shape ({n},), got {hv.shape}")
            self.h = _expr.as_exprs(hv)
        # compiled on the first pointwise call, not here
        self._A = _expr.ExprArray(self.A)
        self._h = None if self.h is None else _expr.ExprArray(self.h)
        if not (isinstance(self.rho, (int, float)) and self.rho > 0):
            raise ValidationError(f"rho must be positive, got {self.rho!r}")
        self.rho = float(self.rho)
        # analyticity probe at the origin; rejects hidden poles like 1/t
        _expr.probe_at_zero(self.A, "A")
        _expr.probe_at_zero(self.h, "h")
        # the Frobenius series or the reason it declines, on the first
        # source-free transport
        self._frobenius = None

    # -- pointwise evaluation ------------------------------------------------

    def A_at(self, s: complex) -> np.ndarray:
        return self._A.eval_complex(s)

    def h_at(self, s: complex) -> np.ndarray:
        if self._h is None:
            return np.zeros(self.n, dtype=complex)
        return self._h.eval_complex(s)


@dataclass
class MonodromyResult:
    """Monodromy matrix around ``s = sigma`` with diagnostics.

    ``path`` is ``"series"`` where the matrix was read from the Frobenius
    series (``path_steps`` 0, ``est_error`` the bound the series branch
    checked), ``"integrated"`` where the loop was integrated (``est_error``
    the summed local error estimates) and ``"generator"`` at ``sigma = 0``,
    where the matrix is ``exp(-2 pi i A(0))`` and the series is not
    consulted, so that a resonant ``A(0)`` reads no differently there;
    ``declined`` is None, or why the series was declined.
    """

    sigma: float
    matrix: np.ndarray
    charpoly: np.ndarray
    path_steps: int
    est_error: float
    path: str
    declined: str | None


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with a Taylor kernel.

    The argument is scaled until its 1-norm is below 1/2, summed to
    machine precision, then squared back up.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"matrix_exponential needs a square matrix, "
                              f"got shape {M.shape}")
    n = M.shape[0]
    nrm = np.linalg.norm(M, 1)
    if not np.isfinite(nrm):
        raise NumericalError("matrix exponential of non-finite matrix")
    s = max(0, int(math.ceil(math.log2(nrm / 0.5)))) if nrm > 0.5 else 0
    B = M / (2.0 ** s)
    X = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ B / k
        X = X + term
        if np.linalg.norm(term, 1) <= 1e-18 * np.linalg.norm(X, 1):
            break
    for _ in range(s):
        X = X @ X
    return X


def monodromy_generator(A0) -> np.ndarray:
    """exp(-2 pi i A0), the monodromy of the frozen-coefficient system."""
    A0 = np.asarray(A0, dtype=complex)
    return matrix_exponential(-2j * math.pi * A0)


def _hessenberg(M: np.ndarray) -> np.ndarray:
    """Upper Hessenberg matrix similar to ``M``, by Householder reflections."""
    H = np.array(M, dtype=complex)
    n = H.shape[0]
    for k in range(n - 2):
        x = H[k + 1:, k]
        alpha = np.linalg.norm(x)
        if alpha == 0.0:
            continue
        v = x.copy()
        v[0] += (x[0] / abs(x[0]) if x[0] != 0 else 1.0) * alpha
        v /= np.linalg.norm(v)
        H[k + 1:, :] -= 2.0 * np.outer(v, v.conj() @ H[k + 1:, :])
        H[:, k + 1:] -= 2.0 * np.outer(H[:, k + 1:] @ v, v.conj())
    return H


def conjugacy_invariants(M) -> np.ndarray:
    """Characteristic polynomial coefficients ``[1, c1, ..., cn]``.

    ``det(x I - M) = x^n + c1 x^(n-1) + ... + cn``.  ``M`` is reduced to
    upper Hessenberg form by Householder similarities, and La Budde's
    recurrence then builds the characteristic polynomials of the leading
    principal submatrices (Rehman & Ipsen, "La Budde's method for
    computing characteristic polynomials", 2011).  No eigendecomposition
    is involved, so the result is similarity blind by construction.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got {M.shape}")
    n = M.shape[0]
    if n > MAX_DIM:
        raise ValidationError(f"dimension {n} exceeds cap {MAX_DIM}")
    H = _hessenberg(M)
    # polys[i]: coefficients of det(x I - H[:i, :i]), highest power first
    polys = [np.ones(1, dtype=complex)]
    for i in range(1, n + 1):
        p = np.zeros(i + 1, dtype=complex)
        p[:i] = polys[i - 1]
        p[1:] -= H[i - 1, i - 1] * polys[i - 1]
        beta = 1.0
        for m in range(1, i):
            beta = beta * H[i - m, i - m - 1]
            p[m + 1:] -= H[i - m - 1, i - 1] * beta * polys[i - m - 1]
        polys.append(p)
    return polys[n]


class _Frobenius:
    """The series ``P(s) = sum_h P_h s^h`` of ``Y(s) = P(s) s^(-A0)``."""

    __slots__ = ("A0", "P", "norms", "loop")

    def __init__(self, A0: np.ndarray, P: np.ndarray):
        self.A0 = A0                    # A(0), real
        self.P = P                      # (K + 1, n, n) real, P[0] = I;
                                        # K < SERIES_ORDER where one overflowed
        self.norms = np.abs(P).sum(axis=2).max(axis=1)     # |P_h|, inf norm
        # exp(-2 pi i A0), which every loop reads: as dear as a whole
        # warm n = 2 loop, so it is built once per system
        self.loop = monodromy_generator(A0)


def _expand(sys: LinearRSSystem):
    """The order-``SERIES_ORDER`` :class:`_Frobenius` of ``sys``, or the
    reason the series branch declines the system: ``size`` (``n >
    SERIES_MAX_DIM``, or a resonance scan past ``MAX_SCAN``) or ``resonant
    at h = k``.

    ``A`` is expanded entry by entry.  ``h P_h + A0 P_h - P_h A0 = -sum_(j
    >= 1) A_j P_(h-j)`` is the n^2 x n^2 solve ``(h I - J) vec P_h = vec
    rhs`` with ``J = -(A0 (x) I - I (x) A0^T)`` (row-major ``vec``), so
    the series exists iff no ``h I - J`` is singular, which the resonance
    scan of :func:`regsing.singular.check_admissibility` decides.  The
    first coefficient that overflows ends the series.
    """
    n, order = sys.n, SERIES_ORDER
    if n > SERIES_MAX_DIM:
        return "size"
    A = np.empty((order + 1, n, n))
    for (i, j), e in np.ndenumerate(sys.A):
        A[:, i, j] = _expr.taylor(e, 0.0, order).coeffs
    A0, eye = A[0].copy(), np.eye(n)     # a view would keep all of A
    J = -(np.kron(A0, eye) - np.kron(eye, A0.T))
    try:
        offending = _resonance_scan(J)
    except NumericalError:
        return "size"
    if offending:
        return f"resonant at h = {offending[0]}"
    P = np.zeros((order + 1, n, n))
    P[0] = eye
    # row i of A_1 .. A_h side by side, against P_(h-1) .. P_0 stacked
    rows = A[1:].transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(1, order + 1):
            rhs = (rows[:, :h].reshape(n, h * n)
                   @ P[h - 1::-1].reshape(h * n, n))
            P[h] = np.linalg.solve(h * np.eye(n * n) - J,
                                   -rhs.ravel()).reshape(n, n)
            if not np.isfinite(P[h]).all():
                P = P[:h]
                break
    return _Frobenius(A0, P)


def _frobenius_at(sys: LinearRSSystem, fr: _Frobenius, s: complex,
                  tol: float):
    """``(P(s), bound on its error)``, or the reason the series declines
    the point: ``tail`` or ``residual``.

    With ``target = SERIES_MARGIN tol``, the series must have converged by
    its order (its last two terms ``|P_h| |s|^h`` lie below ``target``),
    and the sum stops at ``K``, after the last term above ``target``.  The
    residual ``s P' + A P - P A0``, with ``A`` read through
    :meth:`LinearRSSystem.A_at`, must meet ``(K + 1) target`` plus its own
    rounding, ``4 eps (sum_h h |P_h| |s|^h + (|A(s)| + |A0|) sum_h |P_h|
    |s|^h)`` over ``h <= K``.  The bound adds the terms past ``K``, the last
    two again for those past the order, the residual over ``K + 1`` and the
    rounding of the sum, ``eps sum_h |P_h| |s|^h``.
    """
    target = SERIES_MARGIN * tol
    with np.errstate(over="ignore", invalid="ignore"):
        terms = fr.norms * abs(s) ** np.arange(len(fr.P))
        if not terms[-2:].sum() <= target:
            return "tail"
        above = np.flatnonzero(terms > target)
        K = int(above[-1]) + 1 if above.size else 0
        hs = np.arange(K + 1)
        powers = s ** hs
        Q, sQ1 = np.tensordot(np.stack([powers, powers * hs]),
                              fr.P[:K + 1], axes=1)
        A = sys.A_at(s)
        res = float(np.linalg.norm(sQ1 + A @ Q - Q @ fr.A0, np.inf))
        allowed = (K + 1) * target
        if not res <= allowed:
            # only a miss pays for the rounding term
            norm_A = np.abs(A).sum(1).max() + np.abs(fr.A0).sum(1).max()
            allowed += 4.0 * _EPS * float((hs + norm_A) @ terms[:K + 1])
    if not res <= allowed:
        return "residual"
    return Q, float(terms[K + 1:].sum() + terms[-2:].sum() + res / (K + 1)
                    + _EPS * terms.sum())


def _series_transport(sys: LinearRSSystem, z0: complex, z1: complex,
                      tol: float):
    """``(U, bound)`` with ``U = P(e^z1) exp(-(z1 - z0) A0) P(e^z0)^-1``,
    or the reason the series branch declines the segment.

    The bound carries the error bounds ``e0, e1`` of ``P`` at both ends
    through the product, ``e1 |E P0^-1| + |U| e0 |P0^-1|`` plus its
    rounding, and must meet ``tol (1 + |U|)``; where it does not, the
    reason is ``conditioning``.
    """
    dz = z1 - z0
    # a loop ends where it starts: one evaluation serves both ends
    wound = dz.real == 0.0 and math.remainder(dz.imag, 2.0 * math.pi) == 0.0
    fr = sys._frobenius
    if fr is None:
        fr = sys._frobenius = _expand(sys)
    if isinstance(fr, str):
        return fr
    end0 = _frobenius_at(sys, fr, cmath.exp(z0), tol)
    if isinstance(end0, str):
        return end0
    end1 = end0 if wound else _frobenius_at(sys, fr, cmath.exp(z1), tol)
    if isinstance(end1, str):
        return end1
    (P0, e0), (P1, e1) = end0, end1
    try:
        P0inv = np.linalg.inv(P0)
    except np.linalg.LinAlgError:
        return "conditioning"
    with np.errstate(over="ignore", invalid="ignore"):
        E = fr.loop if dz == 2j * math.pi else \
            matrix_exponential(-dz * fr.A0)
        EP0inv = E @ P0inv
        U = P1 @ EP0inv

        def norm(M):
            return float(np.linalg.norm(M, np.inf))

        n0inv, nU = norm(P0inv), norm(U)
        bound = (e1 * norm(EP0inv) + nU * e0 * n0inv
                 + _EPS * norm(P1) * norm(E) * n0inv)
    if not bound <= tol * (1.0 + nU):
        return "conditioning"
    return U, bound


class Transport(NamedTuple):
    """A transport's end state with the path that produced it.

    ``path`` is ``"series"`` (read from the Frobenius series, ``steps`` 0,
    ``est_error`` the bound the series branch checked), ``"integrated"``
    (``est_error`` the summed local error estimates) or ``"empty"`` (``z1
    = z0``: the start, after no steps and no series); ``declined`` is None,
    or why the series branch declined the segment.
    """

    Y: np.ndarray
    steps: int
    est_error: float
    path: str
    declined: str | None


def _transport(sys: LinearRSSystem, z0, z1, tol: float, Y0=None
               ) -> Transport:
    """``Y(z1)`` along the segment from ``z0`` to ``z1``.

    The module's one transport on the log cover.  Without ``Y0`` it is
    the fundamental matrix ``U(z1)`` of ``dY/dz = -A(e^z) Y`` from ``U(z0)
    = I``, read from the Frobenius series (:func:`_series_transport`)
    unless the series declines.  With ``Y0`` (a vector) the system gains
    the source ``e^z h(e^z)``.  Otherwise, and where the series declines,
    it integrates.  An empty segment returns the start (path ``empty``).
    """
    z0 = complex(z0)
    z1 = complex(z1)
    bound = math.log(sys.rho) if math.isfinite(sys.rho) else math.inf
    for z in (z0, z1):
        if not z.real < bound:
            raise ValidationError(
                f"path point {z!r} leaves the half-plane Re z < log(rho) "
                f"= {bound!r}")
    source = Y0 is not None
    if not source:
        Y0 = np.eye(sys.n, dtype=complex)
    if z1 == z0:
        return Transport(Y0.copy(), 0, 0.0, "empty", None)
    declined = None
    if not source:
        if not 0.0 < tol < math.inf:
            raise ValidationError(
                f"tol must be finite and positive, got {tol}")
        got = _series_transport(sys, z0, z1, tol)
        if not isinstance(got, str):
            return Transport(got[0], 0, got[1], "series", None)
        declined = got
    dz = z1 - z0

    def rhs(s, y):
        # cmath on a Python float: rk's np.float64 s times a complex costs
        # more than the exponential itself
        ez = cmath.exp(z0 + float(s) * dz)
        AY = sys.A_at(ez) @ y.reshape(Y0.shape)
        if source:
            return dz * (-AY + ez * sys.h_at(ez))
        return (-dz * AY).ravel()

    res = integrate_adaptive(rhs, 0.0, Y0.ravel(), 1.0, tol, dense=False)
    return Transport(res.ys[-1].reshape(Y0.shape), res.n_accepted,
                     res.est_error, "integrated", declined)


def transport(sys: LinearRSSystem, z0, z1, tol: float = 1e-10
              ) -> Transport:
    """Fundamental matrix of the log-cover system along a segment, with
    the path that produced it.

    ``U(z1)`` of ``dU/dz + A(e^z) U = 0`` with ``U(z0) = I`` along the
    straight segment from ``z0`` to ``z1``: ``P(e^z1) exp(-(z1 - z0) A0)
    P(e^z0)^-1`` where the Frobenius series holds (see the module
    docstring), integrated otherwise.
    """
    return _transport(sys, z0, z1, tol)


def fundamental_solution(sys: LinearRSSystem, z0, z1, tol: float = 1e-10
                         ) -> np.ndarray:
    """The matrix ``U(z1)`` of :func:`transport`."""
    return transport(sys, z0, z1, tol).Y


def monodromy_at(sys: LinearRSSystem, sigma: float, tol: float = 1e-10
                 ) -> MonodromyResult:
    """Monodromy matrix of the loop ``s = sigma e^{i theta}``.

    On the log cover the loop is the segment ``[log sigma,
    log sigma + 2 pi i]``, the transport ``P(sigma) exp(-2 pi i A0)
    P(sigma)^-1`` where the Frobenius series holds and integrated
    otherwise.  For ``sigma = 0`` it degenerates and the result is the
    matrix exponential of ``-2 pi i A(0)``, whether or not ``A(0)`` is
    resonant (path ``generator``: neither series nor integration).
    """
    sigma = float(sigma)
    if sigma < 0 or not sigma < sys.rho:
        raise ValidationError(
            f"need 0 <= sigma < rho, got sigma={sigma}, rho={sys.rho}")
    if sigma == 0.0:
        t = Transport(monodromy_generator(sys.A_at(0.0)), 0, 0.0,
                      "generator", None)
    else:
        z0 = math.log(sigma)
        t = _transport(sys, z0, z0 + 2j * math.pi, tol)
    return MonodromyResult(sigma, t.Y, conjugacy_invariants(t.Y), t.steps,
                           t.est_error, t.path, t.declined)


def solve_inhomogeneous(sys: LinearRSSystem, z0, z1, Y0, tol: float = 1e-10
                        ) -> np.ndarray:
    """Solution of the log-cover inhomogeneous system along a segment.

    Integrates ``dY/dz = -A(e^z) Y + e^z h(e^z)`` from ``Y(z0) = Y0``;
    the quadrature of the source term rides along in the state, no
    fundamental-matrix inversion is performed.
    """
    Y0 = np.asarray(Y0, dtype=complex).reshape(-1)
    if Y0.shape != (sys.n,):
        raise ValidationError(f"Y0 must have shape ({sys.n},)")
    return _transport(sys, z0, z1, tol, Y0).Y

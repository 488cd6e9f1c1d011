"""Linear systems with a regular singular point at the origin.

The stored object is the system ``dY/ds + (1/s) A(s) Y = h(s)`` on
``0 < s < rho`` with ``A`` and ``h`` analytic at 0, which is probed when
the system is built.  Pulling back along ``s = e^z`` removes the pole:
``dY/dz + A(e^z) Y = e^z h(e^z)`` is regular on the half-plane
``Re z < log(rho)``.  One transport integrates it along a segment of that
half-plane, and fundamental solutions, inhomogeneous solves and monodromy
loops are all calls of it: the loop ``s = sigma * e^{i theta}`` is the
segment ``[log sigma, log sigma + 2 pi i]``.  At ``sigma = 0`` the loop
degenerates and the monodromy is the exponential ``exp(-2 pi i A(0))``.

Conjugacy invariants are characteristic polynomial coefficients; the
library never asserts conjugacy itself, it only reports the invariants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from .errors import ValidationError, NumericalError
from .rk import integrate_adaptive

__all__ = [
    "LinearRSSystem", "MonodromyResult", "fundamental_solution",
    "monodromy_at", "monodromy_generator", "solve_inhomogeneous",
    "conjugacy_invariants", "matrix_exponential",
]

MAX_DIM = 64


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

    # -- pointwise evaluation ------------------------------------------------

    def A_at(self, s: complex) -> np.ndarray:
        return self._A.eval_complex(s)

    def h_at(self, s: complex) -> np.ndarray:
        if self._h is None:
            return np.zeros(self.n, dtype=complex)
        return self._h.eval_complex(s)


@dataclass
class MonodromyResult:
    """Monodromy matrix around ``s = sigma`` with diagnostics."""

    sigma: float
    matrix: np.ndarray
    charpoly: np.ndarray
    path_steps: int
    est_error: float


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


def _transport(sys: LinearRSSystem, z0, z1, Y0: np.ndarray, tol: float,
               source: bool = False):
    """``(Y(z1), steps, est_error)`` along the segment from ``z0`` to ``z1``.

    The module's one integration of the log-cover system
    ``dY/dz = -A(e^z) Y`` (plus ``e^z h(e^z)`` with ``source``) from
    ``Y(z0) = Y0``, a vector or a matrix of columns; an empty segment
    returns a copy of ``Y0`` after no steps.
    """
    z0 = complex(z0)
    z1 = complex(z1)
    bound = math.log(sys.rho) if math.isfinite(sys.rho) else math.inf
    for z in (z0, z1):
        if not z.real < bound:
            raise ValidationError(
                f"path point {z!r} leaves the half-plane Re z < log(rho) "
                f"= {bound!r}")
    if z1 == z0:
        return Y0.copy(), 0, 0.0
    dz = z1 - z0

    def rhs(s, y):
        # cmath on a Python float: rk's np.float64 s times a complex costs
        # more than the exponential itself
        ez = cmath.exp(z0 + float(s) * dz)
        AY = sys.A_at(ez) @ y.reshape(Y0.shape)
        if source:
            return dz * (-AY + ez * sys.h_at(ez))
        return (-dz * AY).ravel()

    res = integrate_adaptive(rhs, 0.0, Y0.ravel(), 1.0, tol)
    return res.ys[-1].reshape(Y0.shape), res.n_accepted, res.est_error


def fundamental_solution(sys: LinearRSSystem, z0, z1, tol: float = 1e-10
                         ) -> np.ndarray:
    """Fundamental matrix of the log-cover system along a segment.

    Integrates ``dU/dz + A(e^z) U = 0`` with ``U(z0) = I`` along the
    straight segment from ``z0`` to ``z1`` and returns ``U(z1)``.
    """
    return _transport(sys, z0, z1, np.eye(sys.n, dtype=complex), tol)[0]


def monodromy_at(sys: LinearRSSystem, sigma: float, tol: float = 1e-10
                 ) -> MonodromyResult:
    """Monodromy matrix of the loop ``s = sigma e^{i theta}``.

    On the log cover the loop is the segment ``[log sigma,
    log sigma + 2 pi i]``.  For ``sigma = 0`` it degenerates and the
    result is the matrix exponential of ``-2 pi i A(0)`` (no integration
    involved).
    """
    sigma = float(sigma)
    if sigma < 0 or not sigma < sys.rho:
        raise ValidationError(
            f"need 0 <= sigma < rho, got sigma={sigma}, rho={sys.rho}")
    if sigma == 0.0:
        M, steps, err = monodromy_generator(sys.A_at(0.0)), 0, 0.0
    else:
        z0 = math.log(sigma)
        M, steps, err = _transport(sys, z0, z0 + 2j * math.pi,
                                   np.eye(sys.n, dtype=complex), tol)
    return MonodromyResult(sigma, M, conjugacy_invariants(M), steps, err)


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
    return _transport(sys, z0, z1, Y0, tol, source=True)[0]

"""Nonlinear initial value problems with a simple pole at the origin.

The problem class is ``dy/dt = M_sing(y)/t + M_reg(t, y)`` on ``0 < t <=
t_end`` with ``y(0) = y0``.  A solution through the pole exists uniquely
once two admissibility conditions hold: the singular part must vanish at
the initial value, ``M_sing(y0) = 0``, and ``h I - J`` must be invertible
for every positive integer ``h``, where ``J`` is the Jacobian of
``M_sing`` at ``y0``.

Solving proceeds in two phases.  A series bootstrap turns the ODE into a
triangular linear recursion for Taylor coefficients ``y_h`` at 0; once the
truncation remainder is believed to be below tolerance at some handoff
time ``t0``, an adaptive Runge-Kutta integrator carries the solution from
``t0`` to ``t_end``.

User-supplied maps are plain callables on numpy vectors.  If they also
accept vectors of :class:`~regsing.series.Series` (use the elementary
functions from :mod:`regsing.series` instead of ``math``), the bootstrap
and Jacobians are computed exactly in Taylor mode at any order; otherwise
finite differences are used and the bootstrap order is capped at 4.

The module also ships the first-order reduction toolkit for systems
written as ``0 = dY/dxi + (1/xi) f(xi, Y)``: the continuation limit check,
the initial derivative formula, the hat-variable reduction onto a new
singular problem, translation to a zero base point, and the weak
nonlinearity test.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

import numpy as np

from . import series as _series
from .series import Series
from .errors import (AdmissibilityError, NumericalError, RegsingError,
                     ValidationError)
from . import rk as _rk

__all__ = [
    "SingularIVP", "AdmissibilityReport", "Trajectory", "AffineSingularMaps",
    "check_admissibility", "bootstrap_series", "choose_handoff", "integrate",
    "solve", "continuation_limit_check", "initial_derivative", "reduce_hat",
    "normalize", "check_weakly_nonlinear", "LimitCheck",
    "WeaklyNonlinearReport",
]

EPS_ADMISSIBLE = 1e-10
EPS_INVERTIBLE = 1e-8
T_FLOOR = 1e-8
DEFAULT_ORDER = 10
MAX_ORDER = 30
BLACKBOX_MAX_ORDER = 4


# -- jet helpers -----------------------------------------------------------

def _as_jet(x, order: int) -> Series:
    """A jet entry lifted to ``order``: a Series is zero padded (or cut),
    a number becomes a constant jet."""
    if isinstance(x, Series):
        return x.pad(order)
    return _series.constant(float(x), order)


def _const_jets(values, order: int) -> np.ndarray:
    return np.array([_as_jet(v, order) for v in values], dtype=object)


def _jet_coeff(x, j: int):
    """Coefficient j of a jet entry; plain numbers are constant jets."""
    if isinstance(x, Series):
        if j > x.order:
            raise NumericalError(
                f"jet order {x.order} too small for coefficient {j}; "
                "user map must not truncate series arguments")
        return float(x.coeffs[j].real)
    if isinstance(x, numbers.Number):
        return float(x) if j == 0 else 0.0
    raise NumericalError(f"map returned non-numeric entry {x!r}")


def _jet_coeffs(vec, j: int) -> np.ndarray:
    vec = np.asarray(vec, dtype=object).reshape(-1)
    return np.array([_jet_coeff(x, j) for x in vec])


def _time_jet_order(tj: Series) -> int:
    """Order of a time jet, which must expand the identity at 0."""
    c = tj.coeffs
    if tj.t0 != 0.0 or c[0] != 0.0 or (tj.order >= 1 and c[1] != 1.0):
        raise ValidationError(
            "time jets must expand the identity at 0 (coefficients [0, 1])")
    return tj.order


def _poly_jets(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Vector jet whose i-th entry is sum_h coeffs[h, i] t^h, zero padded."""
    kdim = coeffs.shape[1]
    out = np.empty(kdim, dtype=object)
    for i in range(kdim):
        c = np.zeros(order + 1)
        m = min(order + 1, coeffs.shape[0])
        c[:m] = coeffs[:m, i]
        out[i] = Series._new(c, 0.0)
    return out


# What a map that cannot take Series arguments is expected to raise; any
# other exception is a fault in the map and propagates.
_PROBE_ERRORS = (TypeError, ValueError, ArithmeticError, AttributeError,
                 RegsingError)


def _probe_jets(*calls) -> str | None:
    """Run each call (a map applied to jet arguments) in turn: None if all
    return jets, else the repr of the first error."""
    try:
        for call in calls:
            _jet_coeffs(call(), 1)
    except _PROBE_ERRORS as exc:
        return repr(exc)
    return None


# -- problem container -----------------------------------------------------

@dataclass
class SingularIVP:
    """``dy/dt = m_sing(y)/t + m_reg(t, y)``, ``y(0) = y0`` on (0, t_end].

    ``jet_capable=None`` probes the maps with Series arguments once and
    caches the answer; when the probe fails, ``jet_probe_error`` keeps the
    repr of the error that made it fail.  ``meta`` is free-form (the
    geometry layer stores its reduction data there).
    """

    m_sing: Callable
    m_reg: Callable
    y0: np.ndarray
    t_end: float
    jet_capable: bool | None = None
    meta: dict = field(default_factory=dict)
    k: int = field(init=False)
    jet_probe_error: str | None = field(default=None, init=False)

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float).reshape(-1)
        self.k = self.y0.size
        if self.k == 0:
            raise ValidationError("empty state vector")
        self.t_end = float(self.t_end)
        if not self.t_end > 0:
            raise ValidationError(f"t_end must be positive, got {self.t_end}")
        if self.jet_capable is None:
            yj = _const_jets(self.y0, 2)
            self.jet_probe_error = _probe_jets(
                lambda: self.m_sing(yj),
                lambda: self.m_reg(_series.identity(2), yj))
            self.jet_capable = self.jet_probe_error is None

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        sing = np.asarray(self.m_sing(y), dtype=float).reshape(-1)
        reg = np.asarray(self.m_reg(t, y), dtype=float).reshape(-1)
        return sing / t + reg


# -- admissibility ---------------------------------------------------------

def _fd_jacobian(fn, y0: np.ndarray) -> np.ndarray:
    k = y0.size
    J = np.empty((k, k))
    for j in range(k):
        h = (np.finfo(float).eps) ** (1 / 3) * (1.0 + abs(y0[j]))
        yp = y0.copy(); yp[j] += h
        ym = y0.copy(); ym[j] -= h
        fp = np.asarray(fn(yp), dtype=float).reshape(-1)
        fm = np.asarray(fn(ym), dtype=float).reshape(-1)
        J[:, j] = (fp - fm) / (2 * h)
    return J


def _jet_jacobian(fn, y0: np.ndarray) -> np.ndarray:
    k = y0.size
    J = np.empty((k, k))
    for j in range(k):
        yj = np.array([Series([y0[i], 1.0 if i == j else 0.0])
                       for i in range(k)], dtype=object)
        out = np.asarray(fn(yj), dtype=object).reshape(-1)
        J[:, j] = _jet_coeffs(out, 1)
    return J


def _jacobian(fn, y0: np.ndarray, jet_capable: bool) -> np.ndarray:
    """Jacobian of ``fn`` at ``y0``: exact in Taylor mode, else central
    differences."""
    return (_jet_jacobian if jet_capable else _fd_jacobian)(fn, y0)


@dataclass
class AdmissibilityReport:
    """Outcome of the two entry conditions at the pole.

    ``verdict`` is True iff ``residual_norm < 1e-10`` and no ``h`` in
    ``1..order`` makes ``h I - J`` numerically singular.  Indices beyond
    ``order`` cannot influence a bootstrap of that order;
    ``tail_certified`` records whether ``|J| < order`` rules them out
    globally as well.
    """

    residual_norm: float
    jacobian: np.ndarray
    offending_h: list
    verdict: bool
    tail_certified: bool
    order: int


def check_admissibility(p: SingularIVP, order: int = DEFAULT_ORDER
                        ) -> AdmissibilityReport:
    """Evaluate both admissibility conditions, never raising on failure."""
    resid = np.asarray(p.m_sing(p.y0), dtype=float).reshape(-1)
    residual_norm = float(np.linalg.norm(resid, np.inf))
    J = _jacobian(p.m_sing, p.y0, p.jet_capable)
    normJ = float(np.linalg.norm(J, 2))
    eye = np.eye(p.k)
    offending = []
    for h in range(1, order + 1):
        smin = float(np.linalg.svd(h * eye - J, compute_uv=False)[-1])
        if smin < EPS_INVERTIBLE * (h + normJ):
            offending.append(h)
    verdict = residual_norm < EPS_ADMISSIBLE and not offending
    return AdmissibilityReport(residual_norm, J, offending, verdict,
                               tail_certified=bool(normJ < order),
                               order=order)


# -- series bootstrap ------------------------------------------------------

def _fd_taylor_coeff(phi, order: int) -> np.ndarray:
    """order-th Taylor coefficient of a vector function at 0 by central FD."""
    stencils = {
        0: ([0], [1.0]),
        1: ([-1, 1], [-0.5, 0.5]),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
        4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
    }
    offs, w = stencils[order]
    h = (np.finfo(float).eps) ** (1.0 / (order + 2))
    acc = None
    for o, c in zip(offs, w):
        val = c * np.asarray(phi(o * h), dtype=float).reshape(-1)
        acc = val if acc is None else acc + val
    return acc / (h ** order * math.factorial(order))


def bootstrap_series(p: SingularIVP, order: int = DEFAULT_ORDER
                     ) -> np.ndarray:
    """Taylor coefficients ``y_0 .. y_order`` of the solution at 0.

    Row ``h`` of the returned ``(order+1, k)`` array is ``y_h``; row 0 is
    the initial value.  Each ``y_h`` solves ``(h I - J) y_h = b_h`` where
    ``b_h`` collects the order-h terms contributed by the lower
    coefficients through both maps (series composition in Taylor mode,
    finite differences for black-box maps).
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if not p.jet_capable and order > BLACKBOX_MAX_ORDER:
        raise ValidationError(
            f"black-box maps support bootstrap order <= {BLACKBOX_MAX_ORDER}")
    k = p.k
    J = _jacobian(p.m_sing, p.y0, p.jet_capable)
    eye = np.eye(k)
    coeffs = np.zeros((order + 1, k))
    coeffs[0] = p.y0

    for h in range(1, order + 1):
        if p.jet_capable:
            # [t^h] of m_sing along the partial sum (top coefficient zero)
            yj = _poly_jets(coeffs[:h], h)
            b = _jet_coeffs(np.asarray(p.m_sing(yj), dtype=object), h)
            yj2 = _poly_jets(coeffs[:h], h - 1)
            tj = _series.identity(h - 1)
            b = b + _jet_coeffs(
                np.asarray(p.m_reg(tj, yj2), dtype=object), h - 1)
        else:
            part = coeffs[:h]

            def y_of(t, _part=part):
                return (_part * (t ** np.arange(_part.shape[0]))[:, None]
                        ).sum(axis=0)

            b = _fd_taylor_coeff(lambda s: p.m_sing(y_of(s)), h)
            b = b + _fd_taylor_coeff(lambda s: p.m_reg(s, y_of(s)), h - 1)
        A = h * eye - J
        try:
            yh = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular linear solve at bootstrap stage h={h}: {exc}"
            ) from exc
        coeffs[h] = yh

    tail = float(np.linalg.norm(coeffs[order], np.inf))
    if tail > 0 and tail ** (1.0 / order) > 1.0 / T_FLOOR:
        warnings.warn(
            "bootstrap coefficients grow so fast that the series radius "
            f"appears below {T_FLOOR}; results are unreliable",
            RuntimeWarning, stacklevel=2)
    return coeffs


def _series_value(coeffs: np.ndarray, t: float) -> np.ndarray:
    acc = coeffs[-1].astype(float).copy()
    for row in coeffs[-2::-1]:
        acc = acc * t + row
    return acc


def _series_derivative(coeffs: np.ndarray, t: float) -> np.ndarray:
    if coeffs.shape[0] == 1:
        return np.zeros_like(coeffs[0])
    return _series_value(np.arange(1, coeffs.shape[0])[:, None] * coeffs[1:],
                         t)


def choose_handoff(coeffs: np.ndarray, tol: float, t_max: float,
                   t_end: float):
    """Largest safe series-to-integrator switch time and the state there.

    The truncation heuristic bounds the first omitted contribution
    componentwise by ``|y_K| t0^K < tol`` and caps the result by
    ``min(t_max, t_end / 2)``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    order = coeffs.shape[0] - 1
    cap = min(float(t_max), float(t_end) / 2.0)
    top = float(np.linalg.norm(coeffs[order], np.inf))
    if top == 0.0:
        t0 = cap
    else:
        t0 = min(cap, (tol / top) ** (1.0 / order))
    if t0 < T_FLOOR:
        raise NumericalError(
            f"no admissible handoff above {T_FLOOR}: series tail "
            f"|y_{order}| = {top:.3e} is too large for tol = {tol:.1e}; "
            "raise the series order")
    return t0, _series_value(coeffs, t0)


# -- integration and trajectories -------------------------------------------

class Trajectory:
    """Piecewise representation of a solution on ``(0, t_end]``.

    Below the handoff time the bootstrap polynomial is used; above it the
    dense output of the adaptive integrator.  ``value`` and ``derivative``
    work anywhere in ``[0, t_end]``; ``residual`` measures how well the
    ODE holds at a point of ``(0, t_end]`` (max norm).  Reads outside
    those intervals raise ValidationError.
    """

    def __init__(self, problem: SingularIVP, coeffs, handoff: float,
                 result: _rk.IntegrationResult, tol: float):
        self.problem = problem
        self.coeffs = None if coeffs is None else np.asarray(coeffs, float)
        self.handoff = float(handoff)
        self.result = result
        self.tol = float(tol)
        self.diagnostics: dict = {}

    @property
    def ts(self) -> np.ndarray:
        return self.result.ts

    @property
    def ys(self) -> np.ndarray:
        return self.result.ys

    def _on_series(self, t: float) -> bool:
        """True at or below the handoff, where the series part is read."""
        if not t >= 0.0:
            raise ValidationError(f"reads need t >= 0, got t = {t}")
        if t > self.handoff:
            return False
        if self.coeffs is None:
            raise ValidationError(
                f"trajectory starts at {self.handoff}; no series part")
        return True

    def value(self, t: float) -> np.ndarray:
        t = float(t)
        if self._on_series(t):
            return _series_value(self.coeffs, t)
        return self.result.value(t)

    __call__ = value

    def derivative(self, t: float) -> np.ndarray:
        t = float(t)
        if self._on_series(t):
            return _series_derivative(self.coeffs, t)
        return self.result.derivative(t)

    def residual(self, t: float) -> float:
        if not t > 0.0:
            raise ValidationError(f"residual needs t > 0, got t = {t}")
        dy = self.derivative(t)
        f = self.problem.rhs(float(t), self.value(t))
        return float(np.linalg.norm(dy - f, np.inf))


def integrate(p: SingularIVP, t0: float, y_t0,
              tol: float = 1e-10) -> Trajectory:
    """Adaptive integration from ``t0 > 0`` to ``t_end``.

    Each step holds its defect at theta* to ``10 tol (1 + max|y|)``, with no
    step cap; ``max_residual`` is the largest accepted defect.
    """
    t0 = float(t0)
    if not 0 < t0 < p.t_end:
        raise ValidationError(f"need 0 < t0 < t_end, got t0={t0}")
    y_t0 = np.asarray(y_t0, dtype=float).reshape(-1)
    res = _rk.integrate_adaptive(p.rhs, t0, y_t0, p.t_end, tol,
                                 check_defect=True)
    traj = Trajectory(p, None, t0, res, tol)
    traj.diagnostics = dict(
        steps_accepted=res.n_accepted, steps_rejected=res.n_rejected,
        steps_defect_rejected=res.n_defect_rejected, est_error=res.est_error,
        max_residual=res.max_defect)
    return traj


def solve(p: SingularIVP, *, tol: float = 1e-10, order: int = DEFAULT_ORDER,
          t_max: float = 0.1, handoff: float | None = None) -> Trajectory:
    """Admissibility check, series bootstrap, handoff, then integration.

    Raises
    ------
    AdmissibilityError
        If either entry condition fails; the report rides on the
        exception.
    """
    if not p.jet_capable and order > BLACKBOX_MAX_ORDER:
        warnings.warn(
            f"black-box maps: bootstrap order capped at {BLACKBOX_MAX_ORDER}",
            RuntimeWarning, stacklevel=2)
        order = BLACKBOX_MAX_ORDER
    report = check_admissibility(p, order)
    if not report.verdict:
        raise AdmissibilityError(
            "problem rejected at the pole: residual "
            f"{report.residual_norm:.3e}, offending indices "
            f"{report.offending_h}", report)
    coeffs = bootstrap_series(p, order)
    if handoff is not None:
        t0 = float(handoff)
        if not 0 < t0 < p.t_end:
            raise ValidationError(f"handoff {t0} outside (0, {p.t_end})")
        y_t0 = _series_value(coeffs, t0)
    else:
        t0, y_t0 = choose_handoff(coeffs, tol, t_max, p.t_end)
    traj = integrate(p, t0, y_t0, tol)
    traj.coeffs = coeffs
    # the integrator's residual cannot see an error in its initial state
    traj.diagnostics.update(admissibility=report, handoff=t0,
                            handoff_residual=traj.residual(t0),
                            series_order=order,
                            jet_probe_error=p.jet_probe_error)
    return traj


# -- expression-backed affine maps ------------------------------------------

class AffineSingularMaps:
    """Maps for ``dy/dt = (C y + c)/t + S(t) y + g(t)``.

    ``C`` and ``c`` are constant; ``S`` and ``g`` have expression entries
    (strings or Expr trees) in the time variable.  Instances expose
    ``m_sing`` and ``m_reg`` working on floats and on jets, which makes
    every problem in this class fully Taylor-capable.
    """

    def __init__(self, C, c=None, S=None, g=None):
        from . import expr as _expr
        self.C = np.asarray(C, dtype=float)
        if self.C.ndim != 2 or self.C.shape[0] != self.C.shape[1]:
            raise ValidationError("C must be a square matrix")
        k = self.C.shape[0]
        self.k = k
        self.c = (np.zeros(k) if c is None
                  else np.asarray(c, dtype=float).reshape(k))

        def parse_one(e):
            return _expr.parse(e) if isinstance(e, str) else e

        self.S = None
        if S is not None:
            S = np.asarray(S, dtype=object)
            if S.shape != (k, k):
                raise ValidationError(f"S must have shape ({k},{k})")
            self.S = np.array([[parse_one(S[i, j]) for j in range(k)]
                               for i in range(k)], dtype=object)
            self._S = _expr.ExprArray(self.S)
        self.g = None
        if g is not None:
            g = np.asarray(g, dtype=object).reshape(-1)
            if g.shape != (k,):
                raise ValidationError(f"g must have shape ({k},)")
            self.g = np.array([parse_one(e) for e in g], dtype=object)
            self._g = _expr.ExprArray(self.g)
        self._expansion = None      # (order, S jets, g jets); see _jets

    def _jets(self, order: int):
        """``S`` and ``g`` (None where absent) in Taylor mode at 0.

        Both are expanded once, at ``max(order, MAX_ORDER)``, and lower
        orders are truncated from that expansion.  Taylor-mode coefficient
        ``h`` depends only on coefficients up to ``h`` and comes from the
        same operations at any order, so the truncation has the bytes of a
        direct expansion.
        """
        if self._expansion is None or self._expansion[0] < order:
            top = max(order, MAX_ORDER)
            self._expansion = (
                top,
                None if self.S is None else self._S.taylor(0.0, top),
                None if self.g is None else self._g.taylor(0.0, top))
        top, S, g = self._expansion
        if top == order:
            return S, g
        return (None if S is None else _truncate_jets(S, order),
                None if g is None else _truncate_jets(g, order))

    def m_sing(self, y):
        y = np.asarray(y)
        return self.C @ y + (self.c if y.dtype != object
                             else _const_jets(self.c, _min_order(y)))

    def m_reg(self, t, y):
        y = np.asarray(y)
        if isinstance(t, Series):
            order = _time_jet_order(t)
            S, g = self._jets(order)
            Sv = 0.0 if S is None else S @ y
            gv = 0.0 if g is None else g
            out = Sv + gv if self.S is not None or self.g is not None \
                else _const_jets(np.zeros(self.k), order)
            return out
        out = np.zeros(self.k)
        if self.S is not None:
            out = out + self._S.eval_real(t) @ y
        if self.g is not None:
            out = out + self._g.eval_real(t)
        return out

    def problem(self, y0, t_end: float, meta=None) -> SingularIVP:
        return SingularIVP(self.m_sing, self.m_reg, y0, t_end,
                           jet_capable=True, meta=meta or {})


def _truncate_jets(jets: np.ndarray, order: int) -> np.ndarray:
    out = np.empty(jets.size, dtype=object)
    out[:] = [s.truncate(order) for s in jets.flat]
    return out.reshape(jets.shape)


def _min_order(jets) -> int:
    orders = [x.order for x in np.asarray(jets, dtype=object).reshape(-1)
              if isinstance(x, Series)]
    return min(orders) if orders else 0


# -- first-order reduction toolkit ------------------------------------------
#
# Convention in this section: the system is 0 = dY/dxi + (1/xi) f(xi, Y),
# equivalently dY/dxi = -(1/xi) f(xi, Y).

class LimitCheck(NamedTuple):
    passed: bool
    residual: float


def continuation_limit_check(f: Callable, Y0) -> LimitCheck:
    """Necessary condition for a continuous solution into the pole:
    ``f(0, Y0) = 0``."""
    Y0 = np.asarray(Y0, dtype=float).reshape(-1)
    val = np.asarray(f(0.0, Y0), dtype=float).reshape(-1)
    r = float(np.linalg.norm(val, np.inf))
    return LimitCheck(r < EPS_ADMISSIBLE, r)


def _pole_data(f, Y0: np.ndarray):
    """Linearization of ``f`` at the pole: ``(a0, A0, B, Y1, probe_error)``.

    Checks ``f(0, Y0) = 0``, takes ``a0 = df/dxi`` and ``A0 = df/dY`` at
    ``(0, Y0)`` in Taylor mode (central differences when the jet probe
    fails), checks that ``B = I + A0`` is invertible and solves for the
    forced derivative ``Y1 = -B^{-1} a0``.
    """
    chk = continuation_limit_check(f, Y0)
    if not chk.passed:
        raise ValidationError(
            f"f(0, Y0) = 0 violated (residual {chk.residual:.3e})")

    def at_jets():
        return f(_series.identity(1), _const_jets(Y0, 1))

    probe_error = _probe_jets(at_jets)
    jet_capable = probe_error is None
    if jet_capable:
        a0 = _jet_coeffs(at_jets(), 1)
    else:
        h = (np.finfo(float).eps) ** (1 / 3)
        fp = np.asarray(f(h, Y0), dtype=float).reshape(-1)
        fm = np.asarray(f(-h, Y0), dtype=float).reshape(-1)
        a0 = (fp - fm) / (2 * h)
    xi0 = _series.constant(0.0, 1) if jet_capable else 0.0
    A0 = _jacobian(lambda y: f(xi0, y), Y0, jet_capable)
    B = np.eye(Y0.size) + A0
    smin = float(np.linalg.svd(B, compute_uv=False)[-1])
    if smin < EPS_INVERTIBLE * (1.0 + float(np.linalg.norm(A0, 2))):
        raise NumericalError(
            "I + A0 is numerically singular; spectrum of A0: "
            f"{np.linalg.eigvals(A0)}")
    return a0, A0, B, np.linalg.solve(B, -a0), probe_error


def initial_derivative(f: Callable, Y0) -> np.ndarray:
    """Forced first derivative ``Y1 = -(I + A0)^{-1} a0`` at the pole.

    ``a0`` and ``A0`` are the partial derivatives of ``f`` at ``(0, Y0)``;
    requires ``f(0, Y0) = 0`` and ``I + A0`` invertible.
    """
    return _pole_data(f, np.asarray(Y0, dtype=float).reshape(-1))[3]


def normalize(f: Callable, Y0) -> Callable:
    """Shift the base point to zero: returns ``(xi, Z) -> f(xi, Z + Y0)``."""
    Y0 = np.asarray(Y0, dtype=float).reshape(-1)

    def shifted(xi, z):
        z = np.asarray(z)
        if z.dtype == object:
            return f(xi, z + _const_jets(Y0, _min_order(z)))
        return f(xi, z + Y0)

    return shifted


_HAT_SWITCH = 1e-2
_HAT_ORDER = 12


def reduce_hat(f: Callable, Y0, t_end: float = 1.0) -> SingularIVP:
    """Reduce ``0 = Y' + f(xi, Y)/xi`` to the hat variable problem.

    With ``Y = Y0 + xi Yhat`` the system becomes ``0 = Yhat' + (1/xi)
    fhat(xi, Yhat)`` with ``fhat(xi, w) = w + f(xi, Y0 + xi w)/xi``, whose
    singular slice is affine: ``fhat(0, w) = a0 + (I + A0) w``.  The result
    is packaged as a :class:`SingularIVP` (``m_sing = -fhat(0, .)``, smooth
    remainder in ``m_reg``) with the admissible initial value ``Yhat(0) =
    -(I + A0)^{-1} a0`` filled in.  Like :func:`initial_derivative`, it
    raises NumericalError when ``I + A0`` is numerically singular.

    ``m_reg(xi, w) = -(fhat(xi, w) - fhat(0, w))/xi`` is evaluated in this
    direct form from ``|xi| >= 1e-2`` on.  Closer to the pole the direct
    form cancels, so ``m_reg`` is summed from the Taylor coefficients of
    ``psi(s) = f(s, Y0 + s w)``: for Taylor-capable maps its own jet
    branch at order 11 (``psi`` to order 12) is summed at ``xi``;
    black-box maps use central-difference stencils of orders 2 to 4.
    """
    Y0 = np.asarray(Y0, dtype=float).reshape(-1)
    k = Y0.size
    a0, A0, B, y_hat0, probe_error = _pole_data(f, Y0)
    jet_capable = probe_error is None

    def fhat_jet(xi_jet: Series, w):
        # psi(s) = f(s, Y0 + s w(s)) as a series in s; fhat = w + psi/s
        order = _time_jet_order(xi_jet)
        w = np.asarray(w, dtype=object).reshape(-1)
        sj = _series.identity(order + 1)
        warg = np.empty(k, dtype=object)
        for i in range(k):
            warg[i] = Y0[i] + sj * _as_jet(w[i], order + 1)
        psi = np.asarray(f(sj, warg), dtype=object).reshape(-1)
        out = np.empty(k, dtype=object)
        for i in range(k):
            ci = psi[i].coeffs if isinstance(psi[i], Series) else \
                np.array([float(psi[i])] + [0.0] * (order + 1))
            shifted = Series(np.asarray(ci)[1:order + 2], 0.0)
            out[i] = _as_jet(w[i], order) + shifted
        return out

    def m_sing(y):
        return -(a0 + B @ np.asarray(y))

    def m_reg(t, y):
        if isinstance(t, Series):
            # Expand one order above the request: the shift below eats one
            # order, and the padded top y-coefficient cancels against the
            # affine part exactly because B = I + A0.
            n = _time_jet_order(t)
            y = np.asarray(y, dtype=object).reshape(-1)
            w_pad = np.array([_as_jet(v, n + 1) for v in y], dtype=object)
            jet = fhat_jet(_series.identity(n + 1), w_pad)
            aff = a0 + B @ w_pad
            out = np.empty(k, dtype=object)
            for i in range(k):
                diff = jet[i] - aff[i]
                out[i] = -Series(diff.coeffs[1:], 0.0)
            return out
        y = np.asarray(y, dtype=float).reshape(-1)
        if abs(t) >= _HAT_SWITCH:
            val = np.asarray(f(t, Y0 + t * y), dtype=float).reshape(-1)
            return -((y + val / t) - (a0 + B @ y)) / t
        if jet_capable:     # the jet branch above, summed at t
            jet = m_reg(_series.identity(_HAT_ORDER - 1), y)
            return np.array([_series.eval_truncated(s, t).value for s in jet])
        # black box near 0: m_reg(t, y) = -(psi_2 + psi_3 t + psi_4 t^2 +
        # ...) where psi(s) = f(s, Y0 + s y); moderate-step stencils avoid
        # the 1/t^2 cancellation of the direct form

        def phi(s, _y=y):
            return np.asarray(f(s, Y0 + s * _y), dtype=float).reshape(-1)

        acc = np.zeros(k)
        for m in (2, 3, 4):
            acc = acc + _fd_taylor_coeff(phi, m) * t ** (m - 2)
        return -acc

    meta = {"kind": "hat_reduction", "a0": a0, "A0": A0, "Y0": Y0}
    prob = SingularIVP(m_sing, m_reg, y_hat0, t_end,
                       jet_capable=jet_capable, meta=meta)
    prob.jet_probe_error = probe_error
    return prob


# -- weak nonlinearity -------------------------------------------------------

@dataclass
class WeaklyNonlinearReport:
    passed: bool
    max_violation: float
    witness: str | None = None
    component: int | None = None


def _monomial_name(alpha) -> str:
    parts = []
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        parts.append(f"y{i + 1}" + (f"^{a}" if a > 1 else ""))
    return "*".join(parts) if parts else "1"


def check_weakly_nonlinear(f: Callable, dim: int,
                           order: int = DEFAULT_ORDER
                           ) -> WeaklyNonlinearReport:
    """Test that all Y-monomials of total degree >= 2 in ``f(0, .)`` vanish.

    Probes the homogeneous parts on coordinate and random directions; on
    failure the lowest violating degree is reconstructed in the monomial
    basis and the first offending monomial is reported as witness.
    Requires Taylor-capable ``f`` (black boxes cannot be expanded).
    """
    if order < 2:
        raise ValidationError("order must be at least 2")
    probe_error = _probe_jets(
        lambda: f(_series.identity(1), _const_jets(np.zeros(dim), 1)))
    if probe_error is not None:
        raise ValidationError(
            "weak nonlinearity test needs a Taylor-capable map; the jet "
            f"probe raised {probe_error}")
    rng = np.random.default_rng(271828)
    dirs = [np.eye(dim)[i] for i in range(dim)]
    dirs += [rng.uniform(-1.0, 1.0, size=dim) for _ in range(8)]
    zero_xi = _series.constant(0.0, order)

    def jet_along(d):
        yj = np.array([Series(np.array([0.0, d[i]] + [0.0] * (order - 1)))
                       for i in range(dim)], dtype=object)
        out = np.asarray(f(zero_xi, yj), dtype=object).reshape(-1)
        return np.array([[_jet_coeff(out[i], m) for m in range(order + 1)]
                         for i in range(dim)])

    worst = 0.0
    first_bad_m = None
    for d in dirs:
        table = jet_along(d)  # (dim, order+1)
        bad = np.abs(table[:, 2:])
        if bad.size and bad.max() >= EPS_ADMISSIBLE:
            m = 2 + int(np.argmax(bad.max(axis=0) >= EPS_ADMISSIBLE))
            first_bad_m = m if first_bad_m is None else min(first_bad_m, m)
        worst = max(worst, float(bad.max()) if bad.size else 0.0)
    if first_bad_m is None:
        return WeaklyNonlinearReport(True, worst)

    # reconstruct the lowest failing homogeneous part in the monomial basis
    m = first_bad_m
    alphas = [tuple(sum(1 for x in comb if x == i) for i in range(dim))
              for comb in combinations_with_replacement(range(dim), m)]
    probe_dirs = [rng.uniform(0.5, 1.5, size=dim) for _ in range(2 * len(alphas))]
    V = np.array([[np.prod(np.asarray(d, float) ** np.asarray(a, float))
                   for a in alphas] for d in probe_dirs])
    vals = np.array([jet_along(d)[:, m] for d in probe_dirs])  # (probe, dim)
    coefs, *_ = np.linalg.lstsq(V, vals, rcond=None)  # (n_alphas, dim)
    flat = np.abs(coefs)
    comp = int(np.argmax(flat.max(axis=0)))
    idx = int(np.argmax(flat[:, comp]))
    # prefer the first monomial in lexicographic enumeration that violates
    for j, a in enumerate(alphas):
        if abs(coefs[j, comp]) >= 0.5 * EPS_ADMISSIBLE and \
                abs(coefs[j, comp]) >= 1e-3 * flat[idx, comp]:
            idx = j
            break
    return WeaklyNonlinearReport(
        False, float(flat.max()), _monomial_name(alphas[idx]), comp)

"""Nonlinear initial value problems with a simple pole at the origin.

The problem class is ``dy/dt = M_sing(y)/t + M_reg(t, y)`` on ``0 < t <=
t_end`` with ``y(0) = y0``.  A solution through the pole exists uniquely
once two admissibility conditions hold: the singular part must vanish at
the initial value, ``M_sing(y0) = 0``, and ``h I - J`` must be invertible
for every positive integer ``h``, where ``J`` is the Jacobian of
``M_sing`` at ``y0``.  ``J`` belongs to the problem:
:attr:`SingularIVP.jacobian` takes it once from ``y0`` and ``m_sing``,
which stay fixed once the problem is built, and the admissibility check,
the bootstrap and the handoff all read it.

Solving proceeds in two phases.  A series bootstrap turns the ODE into a
triangular linear recursion for Taylor coefficients ``y_h`` at 0; from a
handoff ``t0 <= t_end / 2`` where the series is checked to hold the ODE,
an adaptive Runge-Kutta integrator carries the solution to ``t_end``.
Every sum of those coefficients (the series part of a trajectory, its
derivative, the handoff state) and of the other series here is
:func:`regsing.series.eval_truncated`, which returns the value.

User-supplied maps are plain callables on numpy vectors.  If they also
accept vectors of :class:`~regsing.series.Series` (use the elementary
functions from :mod:`regsing.series` instead of ``math``), the bootstrap
and Jacobians are computed exactly in Taylor mode at any order; otherwise
finite differences are used and :func:`solve` bootstraps at order 4.
Each bootstrap stage is one float row ``b_h``; a problem may supply the
function that returns it on coefficient rows (the geometry profile
problems and :class:`AffineSingularMaps` do), and every other problem,
user maps and :func:`reduce_hat` among them, gets it from one adapter
that calls the maps on Series jets.

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
import dataclasses
from dataclasses import dataclass
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
MAX_SCAN = 10_000       # the most indices h the resonance scan takes an SVD at
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


def _time_jet_order(tj) -> int:
    """Order of a time jet, which must be a Series expanding the identity
    at 0; the one check that a map's time argument is a time jet."""
    if not isinstance(tj, Series):
        raise ValidationError(
            f"time argument must be a time jet (a Series), got {tj!r}; the "
            "float right-hand side is the problem's field")
    c = tj.coeffs
    if tj.t0 != 0.0 or c[0] != 0.0 or (tj.order >= 1 and c[1] != 1.0):
        raise ValidationError(
            "time jets must expand the identity at 0 (coefficients [0, 1])")
    return tj.order


def _poly_jets(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Vector jet whose i-th entry is sum_h coeffs[h, i] t^h, zero padded."""
    c = np.zeros((coeffs.shape[1], order + 1))
    m = min(order + 1, coeffs.shape[0])
    c[:, :m] = coeffs[:m].T
    return np.array([Series._new(row, 0.0) for row in c], dtype=object)


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
    repr of the error that made it fail.  :attr:`jacobian`, ``J``, is taken
    once too: both assume ``y0`` and ``m_sing`` stay fixed once the problem
    is built.  ``meta`` is free-form (the geometry layer stores its
    reduction data there).

    The maps serve the pole: the admissibility check, the Jacobian and the
    bootstrap.  ``field``, when given, is the whole right-hand side as one
    float callable ``field(t, y)`` equal to ``m_sing(y)/t + m_reg(t, y)``;
    :meth:`rhs`, which the integrator, the handoff check and
    :meth:`Trajectory.residual` call, returns it.  Without it :meth:`rhs`
    sums the two maps.  So the maps of a Taylor-capable problem with a
    ``field`` are read on floats only as ``m_sing(y0)``, and its ``m_reg``
    may take time jets only; ``m_reg`` is read on floats only for
    black-box maps (the bootstrap's stencils) or when there is no
    ``field``.

    ``stage``, when given, answers each bootstrap stage on float rows:
    ``stage(part, h)`` with ``part`` the ``(h, k)`` coefficients ``y_0 ..
    y_(h-1)`` returns ``b_h = [t^h] m_sing + [t^(h-1)] m_reg`` along
    their sum, a ``(k,)`` float array, and the maps are not called.  The
    geometry profile problems and :meth:`AffineSingularMaps.problem`
    supply one; every other problem, user maps among them, goes through
    the adapter that calls the maps on Series jets (finite-difference
    stencils for black-box maps).
    """

    m_sing: Callable
    m_reg: Callable
    y0: np.ndarray
    t_end: float
    jet_capable: bool | None = None
    meta: dict = dataclasses.field(default_factory=dict)
    field: Callable | None = None
    stage: Callable | None = None
    k: int = dataclasses.field(init=False)
    jet_probe_error: str | None = dataclasses.field(default=None, init=False)
    _jac: np.ndarray | None = dataclasses.field(default=None, init=False)

    @property
    def jacobian(self) -> np.ndarray:
        """``J``, read-only: :func:`_jacobian` on first read, then kept."""
        if self._jac is None:
            self._jac = _jacobian(self.m_sing, self.y0, self.jet_capable)
            self._jac.setflags(write=False)
        return self._jac

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float).reshape(-1)
        self.k = self.y0.size
        if self.k == 0:
            raise ValidationError("empty state vector")
        if not np.isfinite(self.y0).all():
            raise ValidationError(f"y0 must be finite, got {self.y0}")
        self.t_end = float(self.t_end)
        if not 0 < self.t_end < math.inf:
            raise ValidationError(
                f"t_end must be finite and positive, got {self.t_end}")
        if self.jet_capable is None:
            yj = _const_jets(self.y0, 2)
            self.jet_probe_error = _probe_jets(
                lambda: self.m_sing(yj),
                lambda: self.m_reg(_series.identity(2), yj))
            self.jet_capable = self.jet_probe_error is None

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        if self.field is not None:
            return self.field(t, y)
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

    ``verdict`` is True iff ``residual_norm < 1e-10`` and no positive
    integer ``h`` makes ``h I - J`` numerically singular; ``offending_h``
    lists every ``h`` that does, whatever the order.  ``order`` is the
    bootstrap order the check was made for.
    """

    residual_norm: float
    jacobian: np.ndarray
    offending_h: list
    verdict: bool
    order: int


def _resonance_scan(J: np.ndarray) -> list:
    """The indices ``h = 1, 2, ...`` at which ``h I - J`` is numerically
    singular: ``sigma_min(h I - J) < EPS_INVERTIBLE (h + |J|_2)``.

    The scan stops where ``sigma_min(h I - J) >= h - mu(J)`` clears that
    threshold twice over, since no larger ``h`` can then be offending;
    ``mu(J)``, the largest eigenvalue of ``(J + J^T)/2``, is at most
    ``|J|_2``, and the margin covers the rounding of the computed singular
    values.  So it takes one SVD per ``h`` up to ``mu(J)``.  Raises
    NumericalError, before any SVD runs, when ``mu(J)`` would take the scan
    past ``MAX_SCAN`` indices.
    """
    normJ = float(np.linalg.norm(J, 2))
    mu = float(np.linalg.eigvalsh(0.5 * (J + J.T))[-1])

    def clears(h):
        return h - mu > 2.0 * EPS_INVERTIBLE * (h + normJ)

    if not clears(MAX_SCAN + 1):
        raise NumericalError(
            f"mu(J) = {mu:.3e}: the scan for offending indices would take "
            f"one SVD per h up to it, past MAX_SCAN = {MAX_SCAN}")
    eye = np.eye(len(J))
    offending = []
    for h in range(1, MAX_SCAN + 1):
        if clears(h):
            break
        smin = float(np.linalg.svd(h * eye - J, compute_uv=False)[-1])
        if smin < EPS_INVERTIBLE * (h + normJ):
            offending.append(h)
    return offending


def check_admissibility(p: SingularIVP, order: int = DEFAULT_ORDER
                        ) -> AdmissibilityReport:
    """Evaluate both admissibility conditions; a failed condition is
    reported, not raised.

    Raises ValidationError for ``order < 1`` and NumericalError when the
    Jacobian at ``y0`` is not finite, or, before any SVD runs, when
    ``mu(J)`` would take the scan past ``MAX_SCAN`` indices.  The offending
    indices are those of :func:`_resonance_scan`, which does not depend on
    ``order`` and takes one SVD per ``h`` up to ``mu(J)``.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    resid = np.asarray(p.m_sing(p.y0), dtype=float).reshape(-1)
    residual_norm = float(np.linalg.norm(resid, np.inf))
    J = p.jacobian
    if not np.isfinite(J).all():
        raise NumericalError("Jacobian of m_sing at y0 is not finite")
    offending = _resonance_scan(J)
    verdict = residual_norm < EPS_ADMISSIBLE and not offending
    return AdmissibilityReport(residual_norm, J, offending, verdict, order)


# -- series bootstrap ------------------------------------------------------

def _fd_taylor_coeff(phi, order: int) -> np.ndarray:
    """order-th Taylor coefficient of a vector function at 0 by central FD."""
    stencils = {
        0: ([0], [1.0]),
        1: ([-1, 1], [-0.5, 0.5]),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
        4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
        5: ([-3, -2, -1, 1, 2, 3], [-0.5, 2.0, -2.5, 2.5, -2.0, 0.5]),
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
    coefficients through both maps (the problem's ``stage`` where it has
    one, else the maps in Taylor mode, finite differences for black-box
    maps).
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if not p.jet_capable and order > BLACKBOX_MAX_ORDER:
        raise ValidationError(
            f"black-box maps support bootstrap order <= {BLACKBOX_MAX_ORDER}")
    coeffs = _bootstrap_stages(p, p.y0[None, :], order)
    tail = float(np.linalg.norm(coeffs[order], np.inf))
    if tail > 0 and tail ** (1.0 / order) > 1.0 / T_FLOOR:
        warnings.warn(
            "bootstrap coefficients grow so fast that the series radius "
            f"appears below {T_FLOOR}; results are unreliable",
            RuntimeWarning, stacklevel=2)
    return coeffs


def _bootstrap_stages(p: SingularIVP, coeffs: np.ndarray,
                      order: int) -> np.ndarray:
    """The series ``coeffs`` grown to ``order`` by the stages ``h =
    len(coeffs) .. order``.

    Stage ``h`` solves ``(h I - J) y_h = b_h`` for the ``b_h`` that the
    problem's ``stage`` returns, or, without one, :func:`_map_stage`.  It
    reads only the rows below ``h``, so a series continued from a lower
    order has the bytes of a direct bootstrap at ``order``.
    """
    start = len(coeffs)
    coeffs = np.concatenate([coeffs, np.zeros((order + 1 - start, p.k))])
    stage = _map_stage(p) if p.stage is None else p.stage
    eye, J = np.eye(p.k), p.jacobian
    for h in range(start, order + 1):
        b = stage(coeffs[:h], h)
        try:
            coeffs[h] = np.linalg.solve(h * eye - J, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular linear solve at bootstrap stage h={h}: {exc}"
            ) from exc
    return coeffs


def _map_stage(p: SingularIVP) -> Callable:
    """The bootstrap stage of a problem without its own: the adapter from
    coefficient rows to the maps.  A Taylor-capable problem's maps run on
    Series jets of the partial sum, each entry's ``[t^h]`` read back as a
    float; black-box maps get central-difference stencils, which is why
    their order stops at ``BLACKBOX_MAX_ORDER``."""
    if not p.jet_capable:
        def stage(part, h):
            def y_of(t):
                return _series.eval_truncated(part, t)

            b = _fd_taylor_coeff(lambda s: p.m_sing(y_of(s)), h)
            return b + _fd_taylor_coeff(lambda s: p.m_reg(s, y_of(s)), h - 1)

        return stage

    def stage(part, h):
        # [t^h] of m_sing along the partial sum (top coefficient zero)
        b = _jet_coeffs(np.asarray(p.m_sing(_poly_jets(part, h)),
                                   dtype=object), h)
        reg = p.m_reg(_series.identity(h - 1), _poly_jets(part, h - 1))
        return b + _jet_coeffs(np.asarray(reg, dtype=object), h - 1)

    return stage


def _tail_handoff(coeffs: np.ndarray, tol: float, cap: float) -> float:
    """``t0`` with ``|y_K| t0^K = tol`` (max norm), at most ``cap``."""
    order = coeffs.shape[0] - 1
    top = float(np.linalg.norm(coeffs[order], np.inf))
    return cap if top == 0.0 else min(cap, (tol / top) ** (1.0 / order))


def choose_handoff(p: SingularIVP, coeffs: np.ndarray, tol: float):
    """The checked handoff from the series ``coeffs`` of ``p``: ``(t0,
    y(t0), coeffs, handoff_residual, handoff_tries)``.

    The tail estimate ``|y_K| t0^K = tol`` (max norm), capped at ``t_end /
    2``, gives the candidate.  Where it stops short of the cap, a
    Taylor-capable series grows to ``K = round(-ln tol)`` within
    ``DEFAULT_ORDER .. MAX_ORDER``, and on to ``MAX_ORDER`` while the tail
    allows no handoff above ``T_FLOOR``; the grown series is returned.
    Since ``y_K`` alone can miss the tail (an odd solution has ``y_K = 0``
    at even ``K``), the candidate shrinks by 0.8 until the series residual
    ``r = y' - rhs`` meets ``t0 |r| <= (K + 1) tol (1 + |y|)``;
    ``handoff_residual`` is the last ``|r|`` and ``handoff_tries`` the
    number of checks.

    Raises ValidationError for a ``tol`` that is not finite and positive or
    a series of order below 1 or width other than ``p.k``, and
    NumericalError when no handoff above ``T_FLOOR`` passes.
    """
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or len(coeffs) < 2 or coeffs.shape[1] != p.k:
        raise ValidationError(f"need a series of order >= 1 and width {p.k},"
                              f" got coefficients of shape {coeffs.shape}")
    cap = p.t_end / 2.0
    t0 = _tail_handoff(coeffs, tol, cap)
    if t0 < cap and p.jet_capable:
        # K ~ -ln tol puts the tail estimate near radius / e at any tol
        # (Jorba & Zou 2005); MAX_ORDER only while it stays below T_FLOOR
        k_tol = min(MAX_ORDER, max(DEFAULT_ORDER, round(-math.log(tol))))
        for order in (k_tol, MAX_ORDER):
            if order >= len(coeffs):
                coeffs = _bootstrap_stages(p, coeffs, order)
                t0 = _tail_handoff(coeffs, tol, cap)
            if t0 >= T_FLOOR:
                break
    order = len(coeffs) - 1
    if t0 < T_FLOOR:
        raise NumericalError(
            f"the order-{order} series tail |y_{order}| = "
            f"{np.linalg.norm(coeffs[order], np.inf):.3e} allows no handoff "
            f"above T_FLOOR = {T_FLOOR} at tol = {tol:.1e} (t_end = "
            f"{p.t_end}); raise tol, or rescale t so the series radius grows")
    # the integrator's residual cannot see an error in its initial state;
    # reads at or below the handoff never touch the missing RK result
    series, tries = Trajectory(p, coeffs, t0, None, tol), 1
    y_t0, r = series.value(t0), series.residual(t0)
    while not t0 * r <= (order + 1) * tol * (
            1.0 + np.linalg.norm(y_t0, np.inf)):
        t0 = series.handoff = 0.8 * t0
        if t0 < T_FLOOR:
            raise NumericalError(
                f"the order-{order} series holds the ODE to tol = {tol:.1e} "
                f"nowhere above T_FLOOR = {T_FLOOR} (t_end = {p.t_end}); "
                "raise tol")
        y_t0, r, tries = series.value(t0), series.residual(t0), tries + 1
    return t0, y_t0, coeffs, r, tries


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
            return _series.eval_truncated(self.coeffs, t)
        return self.result.value(t)

    __call__ = value

    def derivative(self, t: float) -> np.ndarray:
        t = float(t)
        if self._on_series(t):
            c = self.coeffs
            return _series.eval_truncated(
                np.arange(1, len(c))[:, None] * c[1:], t)
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

    Each step holds its defect at theta* to ``10 tol (1 + max|y|)`` plus
    the rounding of the field, ``16 eps |f|``, with no step cap;
    ``max_residual`` is the largest accepted defect and
    ``rhs_calls`` the number of :meth:`SingularIVP.rhs` calls made.
    """
    t0 = float(t0)
    if not 0 < t0 < p.t_end:
        raise ValidationError(f"need 0 < t0 < t_end, got t0={t0}")
    y_t0 = np.asarray(y_t0, dtype=float).reshape(-1)
    if y_t0.size != p.k:
        raise ValidationError(f"y_t0 must have {p.k} entries, got {y_t0.size}")
    res = _rk.integrate_adaptive(p.rhs, t0, y_t0, p.t_end, tol,
                                 check_defect=True)
    traj = Trajectory(p, None, t0, res, tol)
    traj.diagnostics = dict(
        steps_accepted=res.n_accepted, steps_rejected=res.n_rejected,
        steps_defect_rejected=res.n_defect_rejected, est_error=res.est_error,
        max_residual=res.max_defect, rhs_calls=res.n_calls)
    return traj


def _solve_order(p: SingularIVP) -> int:
    """The series order :func:`solve` bootstraps ``p`` at first."""
    return DEFAULT_ORDER if p.jet_capable else BLACKBOX_MAX_ORDER


def solve(p: SingularIVP, *, tol: float = 1e-10) -> Trajectory:
    """Admissibility check, series bootstrap, handoff, then integration.

    The bootstrap runs at ``DEFAULT_ORDER``, or ``BLACKBOX_MAX_ORDER`` for
    black-box maps; :func:`choose_handoff` grows it where needed and checks
    the handoff.  The diagnostics of :func:`integrate`, which starts the
    integrator at any other time, gain ``handoff``, ``handoff_residual``,
    ``handoff_tries`` and ``series_order``, the final ``K``.

    Raises
    ------
    AdmissibilityError
        If either entry condition fails; the report rides on the
        exception.
    NumericalError
        If no handoff above ``T_FLOOR`` holds the ODE to ``tol``; a larger
        ``tol`` moves the handoff out.  Also if the pole scan would pass
        ``MAX_SCAN`` indices (:func:`check_admissibility`).
    """
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    if not p.t_end > 2.0 * T_FLOOR:
        raise ValidationError(f"t_end = {p.t_end} leaves no handoff above "
                              f"T_FLOOR = {T_FLOOR}")
    report = check_admissibility(p, _solve_order(p))
    if not report.verdict:
        raise AdmissibilityError(
            "problem rejected at the pole: residual "
            f"{report.residual_norm:.3e}, offending indices "
            f"{report.offending_h}", report)
    t0, y_t0, coeffs, r, tries = choose_handoff(
        p, bootstrap_series(p, report.order), tol)
    traj = integrate(p, t0, y_t0, tol)
    traj.coeffs = coeffs
    traj.diagnostics.update(admissibility=report, handoff=t0,
                            handoff_residual=r, handoff_tries=tries,
                            series_order=len(coeffs) - 1,
                            jet_probe_error=p.jet_probe_error)
    return traj


# -- expression-backed affine maps ------------------------------------------

class AffineSingularMaps:
    """Maps for ``dy/dt = (C y + c)/t + S(t) y + g(t)``.

    ``C`` and ``c`` are constant; ``S`` and ``g`` have expression entries
    in the time variable: Expr trees, expression strings or finite numbers
    (:func:`~regsing.expr.as_expr`, which raises ExprError for anything
    else).  Nothing is expanded at construction: ``S`` and ``g`` are
    expanded at 0 once, as float coefficient rows (:meth:`_coeff_rows`),
    when the bootstrap or the jet branch of ``m_reg`` first needs them,
    and an entry with no Taylor expansion at 0 fails there.  Instances
    expose ``m_sing`` and ``m_reg`` working on floats and on jets, which
    makes every problem in this class fully Taylor-capable, and
    :meth:`problem` gives its problem the bootstrap stage :meth:`_stage`,
    a Cauchy sum on those rows that calls neither map.
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

        self.S = self._S = None
        if S is not None:
            S = np.asarray(S, dtype=object)
            if S.shape != (k, k):
                raise ValidationError(f"S must have shape ({k},{k})")
            self.S = _expr.as_exprs(S)
            self._S = _expr.ExprArray(self.S)
        self.g = self._g = None
        if g is not None:
            g = np.asarray(g, dtype=object).reshape(-1)
            if g.shape != (k,):
                raise ValidationError(f"g must have shape ({k},)")
            self.g = _expr.as_exprs(g)
            self._g = _expr.ExprArray(self.g)
        self._rows = None       # (S rows, g rows, order); see _coeff_rows

    def _coeff_rows(self, order: int):
        """``S`` and ``g`` (None where absent) in Taylor mode at 0: read-only
        float arrays of shapes ``(k, k, K + 1)`` and ``(k, K + 1)``, entry
        by entry, for some ``K >= order``.

        Both are expanded once, at ``max(order, MAX_ORDER)``, and again
        only for a higher order.  Taylor-mode coefficient ``h`` depends
        only on coefficients up to ``h`` and comes from the same operations
        at any order, so the first ``order + 1`` coefficients have the
        bytes of a direct expansion at ``order``.  As in
        :func:`regsing.linear._expand`, an entry whose coefficients
        overflow (``exp(1e100*t)``) gives inf or nan there without a numpy
        warning.
        """
        if self._rows is None or self._rows[-1] < order:
            top = max(order, MAX_ORDER)
            with np.errstate(over="ignore", invalid="ignore"):
                rows = [None if a is None else a.taylor_rows(0.0, top)
                        for a in (self._S, self._g)]
            for r in rows:
                if r is not None:
                    r.setflags(write=False)
            self._rows = (*rows, top)
        return self._rows[:2]

    def _stage(self, part, h):
        """The bootstrap stage on coefficient rows: ``b_h = [t^h] m_sing +
        [t^(h-1)] m_reg`` along the partial sum of ``part``, the rows
        ``y_0 .. y_(h-1)``.

        ``[t^h] m_sing`` is ``C`` times the zero top row; ``[t^(h-1)]
        m_reg`` is the Cauchy sum ``sum_(m<h) S_m y_(h-1-m) + g_(h-1)``.
        Each entry ``S_ij`` contributes ``np.correlate`` of its first ``h``
        coefficients with ``y_j`` reversed, which numpy computes as it
        computes ``np.convolve(S_ij, y_j)[h-1]`` in the product the jet
        branch of ``m_reg`` forms.  The terms are added over ``j`` in order
        and ``g`` last, the order in which that branch sums them; starting
        from the 0.0 of ``m_sing`` instead of adding it at the end changes
        only the sign of a zero, which that 0.0 clears anyway.  So ``b_h``
        has the bytes of the maps on Series jets.
        """
        S, g = self._coeff_rows(h - 1)
        b = self.C @ np.zeros(self.k)
        if S is not None:
            rev = part[::-1].T.copy()       # y_(h-1) .. y_0, entry by entry
            for j in range(self.k):
                b += [np.correlate(Si[j, :h], rev[j])[0] for Si in S]
        if g is not None:
            b += g[:, h - 1]
        return b

    def m_sing(self, y):
        return self.C @ np.asarray(y) + self.c

    def m_reg(self, t, y):
        y = np.asarray(y)
        if isinstance(t, Series):
            order = _time_jet_order(t)
            if self.S is None and self.g is None:
                return _const_jets(np.zeros(self.k), order)
            S, g = (None if r is None else _row_jets(r, order)
                    for r in self._coeff_rows(order))
            Sv = 0.0 if S is None else S @ y
            return Sv + (0.0 if g is None else g)
        out = np.zeros(self.k)
        if self.S is not None:
            out = out + self._S.eval_real(t) @ y
        if self.g is not None:
            out = out + self._g.eval_real(t)
        return out

    def problem(self, y0, t_end: float, meta=None) -> SingularIVP:
        return SingularIVP(self.m_sing, self.m_reg, y0, t_end,
                           jet_capable=True, meta=meta or {},
                           stage=self._stage)


def _row_jets(rows: np.ndarray, order: int) -> np.ndarray:
    """Object array of Series over the first ``order + 1`` coefficients of
    each row of the read-only ``rows`` (views, not copies)."""
    flat = rows.reshape(-1, rows.shape[-1])
    out = np.empty(len(flat), dtype=object)
    out[:] = [Series._new(r[:order + 1], 0.0) for r in flat]
    return out.reshape(rows.shape[:-1])


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
    a0 = (_jet_coeffs(at_jets(), 1) if jet_capable
          else _fd_taylor_coeff(lambda xi: f(xi, Y0), 1))
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
        return f(xi, np.asarray(z) + Y0)

    return shifted


def reduce_hat(f: Callable, Y0, t_end: float = 1.0) -> SingularIVP:
    """Reduce ``0 = Y' + f(xi, Y)/xi`` to the hat variable problem.

    With ``Y = Y0 + xi Yhat`` the system becomes ``0 = Yhat' + (1/xi)
    fhat(xi, Yhat)`` with ``fhat(xi, w) = w + f(xi, Y0 + xi w)/xi``, whose
    singular slice is affine: ``fhat(0, w) = a0 + (I + A0) w``.  The result
    is packaged as a :class:`SingularIVP` (``m_sing = -fhat(0, .)``, smooth
    remainder in ``m_reg``) with the admissible initial value ``Yhat(0) =
    -(I + A0)^{-1} a0`` filled in.  Like :func:`initial_derivative`, it
    raises NumericalError when ``I + A0`` is numerically singular.

    The problem's float ``field`` is the whole right-hand side in one
    piece, ``-fhat(xi, w)/xi = -(w + f(xi, Y0 + xi w)/xi)/xi`` for every
    ``xi > 0``, so the integrator never reads the split below, and it
    takes no difference of two nearly equal values near the pole.

    ``m_reg`` takes time jets only: it is the series of ``psi(s) = f(s, Y0
    + s w)`` shifted down by two orders.  A black-box ``f`` gets its own
    bootstrap stage instead, ``b_h = -[s^(h+1)] psi`` along the partial
    sum ``w(s)``: one central-difference stencil of ``f`` per stage.
    """
    Y0 = np.asarray(Y0, dtype=float).reshape(-1)
    k = Y0.size
    a0, A0, B, y_hat0, probe_error = _pole_data(f, Y0)
    jet_capable = probe_error is None

    def m_sing(y):
        return -(a0 + B @ np.asarray(y))

    def m_reg(t, y):
        # fhat = w + psi/s with psi(s) = f(s, Y0 + s w(s)), expanded one
        # order above the request: the shift below eats one order, and the
        # padded top y-coefficient cancels against the affine part exactly
        # because B = I + A0.
        n = _time_jet_order(t) + 1
        w = _const_jets(np.asarray(y, dtype=object).reshape(-1), n)
        sj = _series.identity(n + 1)
        warg = np.array([Y0[i] + sj * w[i].pad(n + 1) for i in range(k)],
                        dtype=object)
        psi = np.asarray(f(sj, warg), dtype=object).reshape(-1)
        aff = a0 + B @ w
        out = []
        for i in range(k):
            fhat = w[i] + Series._new(_as_jet(psi[i], n + 1).coeffs[1:], 0.0)
            out.append(-Series._new((fhat - aff[i]).coeffs[1:], 0.0))
        return np.array(out, dtype=object)

    def stage(part, h):
        # t w' = -w - psi/t puts y_h's own term A0 y_h of [s^(h+1)] psi on
        # the left, so b_h is the rest of that coefficient
        return -_fd_taylor_coeff(
            lambda s: f(s, Y0 + s * _series.eval_truncated(part, s)), h + 1)

    def field(t, y):
        y = np.asarray(y, dtype=float).reshape(-1)
        val = np.asarray(f(t, Y0 + t * y), dtype=float).reshape(-1)
        return -(y + val / t) / t

    meta = {"kind": "hat_reduction", "a0": a0, "A0": A0, "Y0": Y0}
    prob = SingularIVP(m_sing, m_reg, y_hat0, t_end,
                       jet_capable=jet_capable, meta=meta, field=field,
                       stage=None if jet_capable else stage)
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

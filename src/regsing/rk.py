"""Embedded Dormand-Prince 5(4) integrator with dense output.

Internal engine shared by the linear path integrator and the singular IVP
solver.  Works on 1-d numpy arrays with real or complex entries; the
independent variable is always real and increasing.

One tolerance ``tol`` sets the error scale ``tol*(1 + max|y|)`` per
component.  Step size is governed by a PI controller: after a step with
scaled error ``err`` the factor is ``safety * err**(-0.7/p) *
err_prev**(0.4/p)`` with ``p = 5`` and safety 0.9.  The first step comes
from the usual two-probe guess.  Where the state or its slope is ~0 in the
error scale (the reduced state of an exact profile), the probe is 1e-2 of
the span, and where the slope and its change over the probe are both ~0,
the first step is the span; the error test then decides.

An accepted step keeps only its stage increment ``dy``, its stage slopes
and, through the grid, its width.  The five coefficient rows of the quartic
Dormand-Prince continuous extension (endpoint values and slopes plus one
extra stage combination) are built from them in one vectorised pass, as one
``(n_steps, 5, n)`` array, on the first read of the dense output, so a
caller that reads only the end state never builds them; one that passes
``dense=False`` (the linear transports) keeps no step at all.  The rows
hold the stage increment rather than ``y1 - y0``, so the interpolant's
slope carries no rounding of size ``eps |y| / h`` that a short step could
not meet.

With ``check_defect`` a step must also hold its defect at theta* = (3 -
sqrt 3)/6, where the interpolant's slope error th (1 - th) (1 - 2 th)
peaks, at one more ``f`` call; no step cap.  The interpolant's value and
slope there are one ``(2, 7)`` weight block ``W`` times the stage slopes
(``y + h W[0].k`` and ``W[1].k``), so the check builds no rows.  The bound
is ``D*tol*(1 + max|y|) + c*eps*|f|`` per component, ``D`` = 10 and ``c`` =
16: the second term is the rounding level of ``f`` itself, which no step
size clears where ``eps |f|`` exceeds the first.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = ["integrate_adaptive", "IntegrationResult"]

# classic Dormand-Prince coefficients; the nodes are Python floats, so the
# stage times are too
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)

_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]

# 5th order weights coincide with the last A row (FSAL)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])

# difference between the 5th and embedded 4th order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])

# extra stage combination for the quartic interpolant
_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
])

_ORDER = 5
_SAFETY = 0.9
_EXP1 = 0.7 / _ORDER
_EXP2 = 0.4 / _ORDER
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 200_000        # step budget of one integration
_DEFECT = 10.0              # the defect bound D, in units of the error scale
_ROUNDING = 16 * np.finfo(float).eps    # c eps, the defect bound's |f| term
_START = 1e-2               # the probe without a scale, as a share of the span
# interpolant value and slope row weights at theta*, where th (1 - th) = 1/6
_THETA = (3.0 - math.sqrt(3.0)) / 6.0
_AT_THETA = np.array([[1.0, _THETA, 1 / 6, _THETA / 6, 1 / 36],
                      [0.0, 1.0, 3 ** -0.5, 0.5 - _THETA, 3 ** -1.5]])


class IntegrationResult:
    """Accepted grid, dense-output rows and step statistics.

    ``rows[i]`` holds the five coefficient rows of the quartic interpolant
    on ``[ts[i], ts[i + 1]]``: endpoint values and slopes plus one extra
    stage combination, so the value error matches the order of the step.
    ``rows`` is built from the steps on its first read and kept, so edits
    to it reach ``value`` and ``derivative``; an integration run without
    ``dense`` keeps only its end points and has no rows.
    ``n_calls`` counts the calls of the right-hand side.
    """

    def __init__(self, ts, ys, steps, n_accepted, n_rejected, est_error,
                 n_defect_rejected, max_defect, n_calls):
        self.ts = np.array(ts)
        self._grid = ts             # plain floats: fast bisection
        self.ys = np.array(ys)
        self._steps = steps         # (increments, stage slopes, D weights)
        self.n_accepted = n_accepted
        self.n_rejected = n_rejected
        self.est_error = est_error
        self.n_defect_rejected = n_defect_rejected
        self.max_defect = max_defect
        self.n_calls = n_calls

    @functools.cached_property
    def rows(self):
        # c0 = y, c1 = dy, c2 = h k0 - dy, c3 = dy - h k6 - c2, c4 = h D.k:
        # per step the same operations, so the same bytes, as a step-by-step
        # build
        if self._steps is None:
            raise ValidationError("this integration kept no dense output")
        dys, ks, d = self._steps
        dy = np.array(dys)
        k = np.array(ks)
        h = np.diff(self.ts)[:, None]
        rows = np.empty((len(dys), 5, dy.shape[1]), dtype=dy.dtype)
        rows[:, 0] = self.ys[:-1]
        rows[:, 1] = dy
        rows[:, 2] = h * k[:, 0] - dy
        rows[:, 3] = dy - h * k[:, 6] - rows[:, 2]
        rows[:, 4] = h * (d @ k)
        return rows

    def _local(self, t):
        """Rows, local coordinate in [0, 1] and width of the step at ``t``."""
        grid = self._grid
        if not grid[0] <= t <= grid[-1]:
            raise ValidationError(
                f"t = {float(t)} is outside the integrated span "
                f"[{grid[0]}, {grid[-1]}]")
        i = bisect.bisect_left(grid, t, 1) - 1
        t0, t1 = grid[i], grid[i + 1]
        return self.rows[i], (t - t0) / (t1 - t0), t1 - t0

    def value(self, t):
        (c0, c1, c2, c3, c4), th, _ = self._local(t)
        om = 1.0 - th
        return c0 + th * (c1 + om * (c2 + th * (c3 + om * c4)))

    def derivative(self, t):
        (c0, c1, c2, c3, c4), th, h = self._local(t)
        om = 1.0 - th
        dth = (c1 + (1.0 - 2.0 * th) * c2 + th * (2.0 - 3.0 * th) * c3
               + 2.0 * th * om * (1.0 - 2.0 * th) * c4)
        return dth / h


def _rms_norm(x):
    if x.size == 0:
        return 0.0
    if x.dtype.kind == "c":
        x = np.abs(x)
    # np.mean's own reduce and division, without its dispatch overhead
    return math.sqrt(float(np.add.reduce(x * x)) / x.size)


def _theta_weights(d):
    """``(2, 7)`` weights of the interpolant at theta* on the stage slopes:
    value ``y + h W[0].k``, slope ``W[1].k``, for the extra stage row ``d``.

    The rows c1..c4 are ``h`` times ``B``, ``e0 - B``, ``2 B - e0 - e6``
    and ``d`` on the stages (``c1 = dy`` is ``h B.k``, as ``B`` is the last
    stage's row), so ``_AT_THETA`` carries over to the stages.
    """
    e0, e6 = np.eye(7)[[0, 6]]
    return _AT_THETA[:, 1:] @ np.array([_B, e0 - _B, 2 * _B - e0 - e6, d])


def _initial_step(f, t0, y0, f0, t1, tol):
    # standard two-probe guess; where the state or the slope gives no
    # scale, the probe is a fixed share of the span
    span = t1 - t0
    sc = tol + tol * np.abs(y0)
    d0 = _rms_norm(y0 / sc)
    d1 = _rms_norm(f0 / sc)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = _START * span
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = _rms_norm((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = span       # no slope and no change of it: only the span bounds
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100 * h0, h1, span)


def integrate_adaptive(f, t0, y0, t1, tol, check_defect=False, dense=True):
    """Integrate ``dy/dt = f(t, y)`` from ``t0`` to ``t1 > t0``.

    Each accepted step keeps its increment and stage slopes; the result
    builds the dense-output rows from them in one pass when they are first
    read.  Where the start state or slope is ~0 in the error scale, the
    first step is set by the span instead of an absolute size.

    Parameters
    ----------
    f : callable
        Right-hand side returning an array matching ``y``.
    tol : float
        Error scale per component ``tol*(1 + max(|y0|, |y1|))`` of a step.
    check_defect : bool
        Also require ``|p' - f| <= D*tol*(1 + max|y|) + c*eps*|f|`` (D = 10,
        c = 16, ``f`` read at ``(t, p)``) of the step's interpolant ``p`` at
        ``t + theta* h``; ``p`` and ``p'`` there are the theta* weight block
        times the stage slopes.  Without it the result's ``max_defect`` and
        ``n_defect_rejected`` are None.
    dense : bool
        Keep each step for the dense output.  Without it the result holds
        only the end points ``ts = [t0, t1]``, ``ys = [y0, y(t1)]`` and the
        step statistics, and reading ``rows``, ``value`` or ``derivative``
        raises ValidationError; the steps and the end state do not change.

    Raises
    ------
    ValidationError
        Unless ``tol`` is finite and positive.
    NumericalError
        On a span, start value or slope that is not finite, step size
        underflow or step budget exhaustion (the message says where).
    """
    t0 = float(t0)
    t1 = float(t1)
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    if not -math.inf < t0 < t1 < math.inf:
        raise NumericalError(f"integration span is empty: [{t0}, {t1}]")
    y0 = np.atleast_1d(np.asarray(y0))
    f0 = np.atleast_1d(np.asarray(f(t0, y0)))
    if not (np.isfinite(y0).all() and np.isfinite(f0).all()):
        raise NumericalError(
            f"start value or slope is not finite at t = {t0!r}")
    dtype = np.result_type(y0.dtype, f0.dtype, np.float64)
    y = y0.astype(dtype)
    k = np.empty((7, y.size), dtype=dtype)
    k[0] = f0.astype(dtype)
    stages = [(_A[i], k[:i], _C[i]) for i in range(1, 7)]
    d = _D
    if check_defect:
        w = _theta_weights(d)

    h = max(_initial_step(f, t0, y, k[0], t1, tol), 1e-300)
    n_calls = 2         # f0 and the initial step's probe

    t = t0
    ay = np.abs(y)
    ts = [t0]
    ys = [y]
    dys = []
    ks = []
    n_accepted = 0
    n_rejected = 0
    est_error = 0.0
    n_defect_rejected = 0 if check_defect else None
    worst = np.zeros(y.size)    # the largest accepted defect per component
    err_prev = 1e-4
    rejected_last = False

    for _ in range(_MAX_STEPS):
        if t >= t1:
            break
        is_last = h >= t1 - t
        t_next = t1 if is_last else t + h
        h = t_next - t      # the width the rows are read over
        if not h >= 1e-14 * max(abs(t), 1.0):     # a nan h fails here too
            raise NumericalError(
                f"step size underflow at t = {t!r} (h = {h!r}); "
                "problem may be stiff or blowing up")

        for i, (a, k_done, c) in enumerate(stages, 1):
            dy = h * a.dot(k_done)
            yi = y + dy
            k[i] = f(t + c * h, yi)
        n_calls += 6
        # the last stage argument is the 5th order solution (FSAL)
        err_vec = h * _E.dot(k)
        ayi = np.abs(yi)
        sc = tol + tol * np.maximum(ay, ayi)
        with np.errstate(invalid="ignore", over="ignore"):
            err = _rms_norm(err_vec / sc)

        if err == 0.0:      # 0.0 ** -_EXP1 raises
            factor = _MAX_FACTOR
        else:               # a nan err gets the floor: max keeps its first
            factor = _SAFETY * err ** (-_EXP1) * err_prev ** _EXP2
            factor = min(max(_MIN_FACTOR, factor), _MAX_FACTOR)

        accept = err <= 1.0
        if accept and check_defect:
            p, dp = w.dot(k)
            # outside errstate, so that f's own warnings still show
            fp = f(t + _THETA * h, y + h * p)
            n_calls += 1
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                gap = np.abs(dp - fp)
                ratio = (gap / (_DEFECT * sc + _ROUNDING * np.abs(fp))).max()
                # the slope error goes like h**4; a nan ratio gets the floor
                dfactor = float(max(_MIN_FACTOR, _SAFETY * ratio ** -0.25))
            accept = ratio <= 1.0
            if accept:
                factor = min(factor, dfactor)
                np.maximum(worst, gap, out=worst)
            else:
                factor = dfactor
                n_defect_rejected += 1
        if not accept:
            n_rejected += 1
            rejected_last = True
            h *= min(factor, 1.0)
            continue
        if dense:
            # dy, not yi - y: the slope would carry rounding of eps |y| / h
            dys.append(dy)
            ks.append(k.copy())
            ts.append(t_next)
            ys.append(yi)
        t = t_next
        y = yi
        ay = ayi
        k[0] = k[6]
        n_accepted += 1
        est_error += _rms_norm(err_vec)
        if rejected_last:
            factor = min(factor, 1.0)
        rejected_last = False
        err_prev = max(err, 1e-4)
        h *= factor
    else:
        raise NumericalError(
            f"step budget exhausted after {_MAX_STEPS} steps at t = {t!r}")

    max_defect = float(worst.max(initial=0.0)) if check_defect else None
    if not dense:
        ts.append(t)
        ys.append(y)
    return IntegrationResult(ts, ys, (dys, ks, d) if dense else None,
                             n_accepted, n_rejected, est_error,
                             n_defect_rejected, max_defect, n_calls)

"""Rotationally reduced harmonic and biharmonic map equations.

A metric family describes ``g = dt^2 + P(t)`` on ``(0, T) x F`` where the
first ``dim_p`` frame directions collapse at ``t = 0`` like ``t`` (sphere
type) and the remaining ``dim_m`` stay finite.  Writing ``D(t) =
diag(t I_p, I_m)``, the family is usable at the origin when ``P = D R D``
with ``R`` analytic and ``R(0)`` positive definite; the entry series of
``R`` drop ``2 / 1 / 0`` leading coefficients of the pp / pm / mm blocks.

Equivariant maps are profiles ``r(t)`` transplanted along the orbits.  The
harmonic map equation reduces to

    r'' + [drift(t) + weight * alpha'(t)] r' = V(t, r),

with ``drift = Tr(P^-1 P')/2`` and ``V(t, rho) = Tr(P(t)^-1 dP/dt|_rho)/2``;
the optional conformal exponent ``alpha`` models an extra warped factor of
dimension ``weight``.  Biharmonic profiles couple this to the linearized
(Jacobi) equation for the tension ``F`` through the second radial
derivative of ``P``; that path is restricted to diagonal families.  From
``t_switch`` on, the traces of a diagonal family are the closed form
``sum_i X_ii / P_ii``, one generated function of ``(t, rho)`` per family
(:class:`~regsing.expr.HalfTraces`), and a block family solves ``P(t) S =
[P'(rho) | P'(t)]`` once; below ``t_switch`` they come from pole-peeled
series.  ``MetricFamily.t_switch`` is the only switch between the two
branches, for the assembled maps and the public trace functions alike.  A
residual sample evaluates the traces once and reads ``r''`` (and ``F''``)
from the computed trajectory, so it measures that trajectory's defect.

Both reductions have a simple pole at ``t = 0``.  Substituting ``r = t a``
(and ``F = t b``) produces problems in the class handled by
:mod:`regsing.singular`, with singular part ``(0, -(p+2) u)`` and free
initial slope.  One assembler builds both: the biharmonic problem is the
harmonic one with the tension pair ``(b, u_b)`` appended to the state, and
its maps run on floats and on series jets, so the bootstrap there is exact.
Metrics whose odd low-order data does not cancel the order-one residue (for
example ``alpha'(0) != 0``) have no analytic reduction; their series paths
raise StructureError.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import series as _series
from .series import Series
from .errors import (ConfigError, NumericalError, StructureError,
                     ValidationError)
from .singular import (SingularIVP, _as_jet, _time_jet_order,
                       solve as _solve_singular)

__all__ = [
    "MetricFamily", "MetricReport", "build_metric_family", "validate_metric",
    "trace_drift", "trace_potential", "trace_potential2",
    "assemble_harmonic", "assemble_biharmonic",
    "tension_residual", "biharmonic_residual",
    "HarmonicSolution", "BiharmonicSolution",
    "solve_harmonic", "solve_biharmonic",
]

MAX_METRIC_DIM = 16
_SHIFT_TOL = 1e-9
_STRUCT_TOL = 5e-7
_FLOAT_SERIES_ORDER = 12
_differentiate = np.frompyfunc(_expr.differentiate, 1, 1)   # entrywise


def _sderiv(s: Series) -> Series:
    """Coefficientwise derivative, one order lower."""
    if s.order == 0:
        return Series._new(np.array([0.0 * s.coeffs[0]]), s.t0)
    k = np.arange(1, s.order + 1)
    return Series._new(s.coeffs[1:] * k, s.t0)


class MetricFamily:
    """Symmetric matrix family ``P(t)`` with declared collapsing block.

    Parameters
    ----------
    entries : (n, n) array of Expr
        Entries of ``P`` as expressions in the radial variable.
    dim_p : int
        Number of leading directions collapsing at the origin.
    alpha : Expr, str or None
        Conformal exponent of an optional extra warped factor.
    weight : int
        Dimension carried by ``alpha`` in the drift term.
    t_validate : float
        Right end of the interval used by :func:`validate_metric`.
    t_switch : float or None
        The only branch switch: the traces take the direct branch from
        ``t_switch`` on, the series branch below (default ``1e-2``).

    Construction is lenient: pole structure is only enforced when a series
    path is actually used, so families that fail validation can still be
    probed pointwise.
    """

    t_switch = 1e-2

    def __init__(self, entries, dim_p: int, alpha=None, weight: int = 1,
                 t_validate: float = 1.0, t_switch: float | None = None):
        entries = np.asarray(entries, dtype=object)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError("metric entries must form a square matrix")
        n = entries.shape[0]
        if not 1 <= n <= MAX_METRIC_DIM:
            raise ValidationError(f"metric size must be 1..{MAX_METRIC_DIM}")
        if not 1 <= dim_p <= n:
            raise ValidationError(f"dim_p must be in 1..{n}, got {dim_p}")
        self.entries = entries
        self.n = n
        self.dim_p = int(dim_p)
        self.dim_m = n - self.dim_p
        self.alpha = alpha = None if alpha is None else _parse(alpha)
        self.weight = int(weight)
        self.t_validate = float(t_validate)
        if t_switch is not None:
            self.t_switch = float(t_switch)
        self._dentries = _differentiate(entries)
        self._dalpha = None if alpha is None else _expr.differentiate(alpha)
        self.diagonal = all(
            isinstance(e, _expr.Num) and e.value == 0
            for e in entries[~np.eye(n, dtype=bool)])
        # each compiled on its first pointwise call
        self._P = _expr.ExprArray(entries)
        self._alpha_dot = (None if alpha is None
                           else _expr.ExprArray([self._dalpha]))
        self._packs: dict = {}
        # set once check_structure passes (a failure is never remembered)
        self._structure_ok = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_diagonal(cls, diag, dim_p: int, **kw) -> "MetricFamily":
        diag = [_parse(e) for e in diag]
        entries = np.full((len(diag),) * 2, _expr.Num(0.0), dtype=object)
        np.fill_diagonal(entries, diag)
        return cls(entries, dim_p, **kw)

    @classmethod
    def from_entries(cls, rows, dim_p: int, **kw) -> "MetricFamily":
        entries = np.array([[_parse(e) for e in row] for row in rows],
                           dtype=object)
        return cls(entries, dim_p, **kw)

    # -- pointwise evaluation -----------------------------------------------

    def P_at(self, t: float) -> np.ndarray:
        return self._P.eval_real(t)

    def Pdot_at(self, t: float) -> np.ndarray:
        return self._direct[1].eval_real(t)

    def Pddot_at(self, t: float) -> np.ndarray:
        return self._second.eval_real(t)

    @functools.cached_property
    def _direct(self):
        """``[P, P']`` at ``t`` and ``P'`` at ``rho`` (also :meth:`Pdot_at`)
        for a block family's direct branch; built on first use."""
        return (_expr.ExprArray([self.entries, self._dentries]),
                _expr.ExprArray(self._dentries))

    @functools.cached_property
    def _half_traces(self):
        """A diagonal family's direct branch, ``(V, drift)`` and ``(V,
        drift, V2)`` from ``P_ii(t)``, ``P'_ii(t)``, ``P'_ii(rho)`` and
        ``P''_ii(rho)``, each one generated function; built on first use."""
        d0, d1 = np.diagonal(self.entries), np.diagonal(self._dentries)
        rows = [("rho", d1), ("t", d1)]
        return (_expr.HalfTraces(d0, rows), _expr.HalfTraces(
            d0, [*rows, ("rho", [_expr.differentiate(e) for e in d1])]))

    @functools.cached_property
    def _second(self):
        """``P''``; built on first use."""
        return _expr.ExprArray(_differentiate(self._dentries))

    def alpha_dot_at(self, t: float) -> float:
        if self._alpha_dot is None:
            return 0.0
        return float(self._alpha_dot.eval_real(t)[0])

    # -- series data ---------------------------------------------------------

    def pack(self, order: int) -> dict:
        """Cached sandwich series at the origin up to ``order``.

        Raises ValidationError when an entry fails to vanish to the order
        its block position requires.
        """
        if order in self._packs:
            return self._packs[order]
        n = self.n
        R = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                shift = (i < self.dim_p) + (j < self.dim_p)
                full = _expr.taylor(self.entries[i, j], 0.0, order + 1 + shift)
                c = full.coeffs
                scale = 1.0 + float(np.abs(c).max())
                for k in range(shift):
                    if abs(c[k]) > _SHIFT_TOL * scale:
                        raise ValidationError(
                            f"entry ({i},{j}) must vanish to order {shift} "
                            f"at 0; found coefficient {c[k]:.3e} at t^{k}")
                R[i, j] = Series._new(c[shift:], 0.0)   # order + 1
        R0 = np.array([[float(R[i, j].coeffs[0]) for j in range(n)]
                       for i in range(n)])
        try:
            np.linalg.cholesky(0.5 * (R0 + R0.T))
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                "reduced matrix R(0) is not positive definite") from exc
        pack = {"R": R, "R0": R0}
        pack["Rdot"] = np.array([[_sderiv(R[i, j]) for j in range(n)]
                                 for i in range(n)], dtype=object)
        if self.diagonal:
            pack["recip"] = [
                _series.reciprocal(R[i, i].truncate(order))
                for i in range(n)]
        # analytic drift part: Tr(R^-1 R')/2 (+ weight * alpha')
        drift = _trace_solve(R, pack["Rdot"], order) * 0.5
        if self._dalpha is not None:
            drift = drift + _expr.taylor(self._dalpha, 0.0, order) * \
                float(self.weight)
        pack["drift_analytic"] = drift
        self._packs[order] = pack
        return pack


def _parse(e):
    if isinstance(e, str):
        return _expr.parse(e)
    if isinstance(e, numbers.Number):
        return _expr.Num(float(e))
    return e


# -- matrix series helpers ---------------------------------------------------

def _mat_coeff_stack(M: np.ndarray, order: int) -> np.ndarray:
    n = M.shape[0]
    out = np.zeros((order + 1, n, n))
    for i in range(n):
        for j in range(n):
            m = min(order, M[i, j].order)
            out[: m + 1, i, j] = M[i, j].coeffs[: m + 1].real
    return out


def _trace_solve(A: np.ndarray, B: np.ndarray, order: int) -> Series:
    """Trace of ``A(t)^-1 B(t)`` as a series, by coefficient recursion."""
    Ac = _mat_coeff_stack(A, order)
    Bc = _mat_coeff_stack(B, order)
    n = Ac.shape[1]
    X = np.zeros_like(Bc)
    for k in range(order + 1):
        rhs = Bc[k].copy()
        for j in range(1, k + 1):
            rhs -= Ac[j] @ X[k - j]
        X[k] = np.linalg.solve(Ac[0], rhs)
    return Series._new(np.array([np.trace(X[k]) for k in range(order + 1)]),
                       0.0)


# -- reduced series of the trace quantities ----------------------------------

def _tdrift_series(fam: MetricFamily, order: int) -> Series:
    """``t * [drift + weight alpha']`` with the exact constant ``dim_p``."""
    pack = fam.pack(order)
    d = pack["drift_analytic"].truncate(order)
    c = np.zeros(order + 1)
    c[0] = fam.dim_p
    c[1:] = d.coeffs[: order]
    return Series._new(c, 0.0)


def _tpot_series(fam: MetricFamily, a_s: Series, order: int) -> Series:
    """``t * V(t, t a(t))`` as a series; constant term ``dim_p * a(0)``."""
    pack = fam.pack(order)
    t_s = _series.identity(order)
    ta = (t_s * a_s).truncate(order)
    n, p = fam.n, fam.dim_p
    if fam.diagonal:
        acc = _series.constant(0.0, order)
        for i in range(n):
            Ri = pack["R"][i, i]
            Ridot = pack["Rdot"][i, i].truncate(order)
            comp = _series.compose(Ri.truncate(order), ta)
            comp_dot = _series.compose(Ridot, ta)
            if i < p:
                q = 2.0 * a_s * comp + t_s * a_s * a_s * comp_dot
            else:
                q = t_s * comp_dot
            acc = acc + q * pack["recip"][i]
        return 0.5 * acc
    # block family: Qtilde = t * D^-1 P'(ta) D^-1, then Tr(R^-1 Qtilde)
    Q = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comp = _series.compose(pack["R"][i, j].truncate(order), ta)
            comp_dot = _series.compose(
                pack["Rdot"][i, j].truncate(order), ta)
            npp = (i < p) + (j < p)
            if npp == 2:
                Q[i, j] = 2.0 * a_s * comp + t_s * a_s * a_s * comp_dot
            elif npp == 1:
                Q[i, j] = comp + t_s * a_s * comp_dot
            else:
                Q[i, j] = t_s * comp_dot
    return 0.5 * _trace_solve(pack["R"], Q, order)


def _zpot_series(fam: MetricFamily, a_s: Series, order: int) -> Series:
    """``t^2 * V2(t, t a(t))`` for diagonal families; constant ``dim_p``."""
    # one extra order so the second derivative is exact through `order`
    pack = fam.pack(order + 1)
    a_s = a_s.truncate(order)
    t_s = _series.identity(order)
    ta = (t_s * a_s).truncate(order)
    n, p = fam.n, fam.dim_p
    acc = _series.constant(0.0, order)
    for i in range(n):
        Ri = pack["R"][i, i]
        Ridot = pack["Rdot"][i, i]
        Riddot = _sderiv(Ridot).truncate(order)
        comp = _series.compose(Ri.truncate(order), ta)
        comp_d = _series.compose(Ridot.truncate(order), ta)
        comp_dd = _series.compose(Riddot, ta)
        if i < p:
            q = 2.0 * comp + 4.0 * t_s * a_s * comp_d + \
                t_s * t_s * a_s * a_s * comp_dd
        else:
            q = t_s * t_s * comp_dd
        acc = acc + q * pack["recip"][i].truncate(order)
    return 0.5 * acc


def _peel2(w: Series, where: str) -> Series:
    """Divide by ``t^2`` after checking the two dropped coefficients vanish."""
    scale = 1.0 + float(np.abs(w.coeffs).max())
    if abs(w.coeffs[0]) > _STRUCT_TOL * scale or \
            abs(w.coeffs[1]) > _STRUCT_TOL * scale:
        raise StructureError(
            f"{where}: nonzero residue at the pole "
            f"(c0={w.coeffs[0]:.3e}, c1={w.coeffs[1]:.3e}); odd low-order "
            "metric data does not cancel, no analytic reduction exists")
    return Series._new(w.coeffs[2:], 0.0)


def _w_series(fam: MetricFamily, a_s: Series, u_s: Series,
              order: int) -> Series:
    """``u' + (p+2) u / t`` of the harmonic reduction, to ``order - 2``."""
    p = fam.dim_p
    t_s = _series.identity(order)
    tpot = _tpot_series(fam, a_s, order)
    tdrift = _tdrift_series(fam, order)
    return _peel2((tpot - float(p) * a_s)
                  - (tdrift - float(p)) * (a_s + t_s * u_s),
                  "harmonic reduction")


def _wf_series(fam: MetricFamily, a_s: Series, b_s: Series, ub_s: Series,
               order: int) -> Series:
    """``u_b' + (p+2) u_b / t`` of the tension linearization along ``a``;
    diagonal families only."""
    p = fam.dim_p
    t_s = _series.identity(order)
    z = _zpot_series(fam, a_s, order)
    td = _tdrift_series(fam, order)
    return _peel2((z - float(p)) * b_s - (td - float(p)) * (b_s + t_s * ub_s),
                  "tension linearization")


def check_structure(fam: MetricFamily):
    """Probe the pole cancellations needed by the analytic reductions.

    Raises StructureError when odd low-order metric data leaves a residue.
    For constant ``a`` and ``u`` the residue of the harmonic reduction is
    ``c1 t`` with ``c1`` a quadratic in ``a(0)`` alone, so three distinct
    values of ``a(0)`` show that it vanishes for every profile; the residue
    of the tension linearization, ``b dc1/da``, then vanishes too.  Only a
    passing probe is remembered, so a family that fails raises on every
    call.
    """
    if fam._structure_ok:
        return
    for a0, u0 in ((0.83, 0.41), (-0.37, 0.9), (1.61, -0.23)):
        _w_series(fam, _series.constant(a0, 8), _series.constant(u0, 8), 8)
    fam._structure_ok = True


# -- pointwise trace quantities ----------------------------------------------

def _direct_traces(fam: MetricFamily, t: float, rho: float, second: bool):
    """``(V, drift, V2)`` of the direct branch, ``drift = Tr(P^-1 P')/2``
    and ``V2`` None unless ``second``.  A diagonal family makes one call of
    its generated :class:`~regsing.expr.HalfTraces`, which sums ``X_ii /
    P_ii``; a block family solves ``P(t) S = [P'(rho) | P'(t)]`` once.
    Sums run in index order; a singular ``P(t)`` raises NumericalError."""
    try:
        if fam.diagonal:
            traces = fam._half_traces[second](t, rho)
            return traces if second else (*traces, None)
        P, Pdot = fam._direct[0].eval_real(t)
        x = fam._direct[1].eval_real(rho)
        S = np.linalg.solve(P, np.hstack((x, Pdot)))
    except (ZeroDivisionError, np.linalg.LinAlgError):
        raise NumericalError(f"P(t) is singular at t = {t!r}") from None
    traces = []
    for row in (S.diagonal().tolist(), S.diagonal(fam.n).tolist()):
        acc = 0.0
        for v in row:
            acc += v
        traces.append(0.5 * acc)
    return traces[0], traces[1], None


def _traces(fam: MetricFamily, t: float, rho: float, second: bool):
    """``(drift + weight alpha', V, V2)`` at ``t > 0`` and radius ``rho``,
    ``V2`` None unless ``second`` (diagonal families only): one
    :func:`_direct_traces` call from ``t_switch`` on, one order-12
    pole-peeled series evaluation below."""
    if t <= 0:
        raise ValidationError("trace quantities need t > 0")
    if second and not fam.diagonal:
        raise ValidationError(
            "second radial derivative reduction supports diagonal "
            "families only")
    if t >= fam.t_switch:
        V, drift, V2 = _direct_traces(fam, t, rho, second)
        return drift + fam.weight * fam.alpha_dot_at(t), V, V2
    K = _FLOAT_SERIES_ORDER
    a_s = _series.constant(rho / t, K)
    D, V = (float(_series.eval_truncated(s, t).value) / t
            for s in (_tdrift_series(fam, K), _tpot_series(fam, a_s, K)))
    V2 = (float(_series.eval_truncated(_zpot_series(fam, a_s, K), t).value)
          / (t * t) if second else None)
    return D, V, V2


def trace_drift(fam: MetricFamily, t: float) -> float:
    """``Tr(P^-1 P')/2 + weight alpha'`` at ``t > 0``: from ``t_switch`` on
    the closed form ``sum_i P'_ii / P_ii`` (diagonal) or one linear solve
    (block), the pole-peeled series below."""
    return _traces(fam, t, t, False)[0]


def trace_potential(fam: MetricFamily, t: float, rho: float) -> float:
    """``Tr(P(t)^-1 dP/drho)/2`` at radius ``rho``; pole ``dim_p rho/t^2``."""
    return _traces(fam, t, rho, False)[1]


def trace_potential2(fam: MetricFamily, t: float, rho: float) -> float:
    """``Tr(P(t)^-1 d^2P/drho^2)/2``; diagonal families only."""
    return _traces(fam, t, rho, True)[2]


# -- assembled singular problems ----------------------------------------------

def _profile_reg(fam: MetricFamily, t, y) -> np.ndarray:
    """``m_reg`` of both profile problems, for the harmonic state ``(a, u)``
    or the biharmonic one ``(a, u, b, u_b)``, at a time jet or a float
    ``t``; the tension ``F = t b`` forces the profile row.  A float ``t``
    reads the direct traces at ``rho = t a`` from ``t_switch`` on and the
    pole-peeled series below."""
    coupled = len(y) == 4
    if isinstance(t, Series):
        n = _time_jet_order(t)
        s = [_as_jet(v, n + 2) for v in y]
        out = [s[1].truncate(n), _w_series(fam, s[0], s[1], n + 2)]
        if coupled:
            out[1] = out[1] + s[2].truncate(n)
            out += [s[3].truncate(n),
                    _wf_series(fam, s[0], s[2], s[3], n + 2)]
        return np.array(out, dtype=object)
    p, K = fam.dim_p, _FLOAT_SERIES_ORDER
    y = [float(v) for v in y]
    a, u = y[0], y[1]
    if t >= fam.t_switch:
        V, drift, V2 = _direct_traces(fam, t, t * a, coupled)
        d = drift + fam.weight * fam.alpha_dot_at(t) - p / t
        out = [u, (V - p * a / t - d * (a + t * u)) / t]
        if coupled:
            b, ub = y[2:]
            out += [ub, ((V2 - p / (t * t)) * t * b - d * (b + t * ub)) / t]
    else:
        s = [_series.constant(v, K) for v in y]
        w = _w_series(fam, s[0], s[1], K)
        out = [u, float(_series.eval_truncated(w, t).value)]
        if coupled:
            w = _wf_series(fam, s[0], s[2], s[3], K)
            out += [y[3], float(_series.eval_truncated(w, t).value)]
    if coupled:
        out[1] += y[2]
    return np.array(out)


def _profile_sing(p: int):
    """``m_sing`` of the profile reductions: ``(0, -(p+2) u)`` for each
    ``(x, u)`` pair of the state, so each slope is a free parameter."""
    def m_sing(y):
        y = np.asarray(y).reshape(-1)
        out = -(p + 2.0) * y
        out[::2] = y[::2] * 0.0 if y.dtype == object else 0.0
        return out

    return m_sing


def _assemble(fam: MetricFamily, v: float, w: float | None,
              t_end: float) -> SingularIVP:
    """The profile problem with ``r'(0) = v``: harmonic, state ``(a, u)``,
    when ``w`` is None, else biharmonic with ``F'(0) = w`` and the tension
    pair ``(b, u_b)`` appended to the state."""
    if w is not None and not fam.diagonal:
        raise ValidationError(
            "biharmonic reduction supports diagonal families only")
    check_structure(fam)
    y0 = [float(v), 0.0]
    meta = {"kind": "harmonic", "family": fam, "v": float(v)}
    if w is not None:
        y0 += [float(w), 0.0]
        meta.update(kind="biharmonic", w=float(w))
    return SingularIVP(_profile_sing(fam.dim_p),
                       functools.partial(_profile_reg, fam), y0, t_end,
                       jet_capable=True, meta=meta)


def assemble_harmonic(fam: MetricFamily, v: float,
                      t_end: float) -> SingularIVP:
    """Singular IVP for the profile ``r = t a(t)`` with ``r'(0) = v``.

    State ``(a, u)`` with ``u = a'``; the singular part is ``(0, -(p+2)u)``
    so the slope ``v`` is a free shooting parameter.  Raises StructureError
    when the family has no analytic reduction at the pole.
    """
    return _assemble(fam, v, None, t_end)


def assemble_biharmonic(fam: MetricFamily, v: float, w: float,
                        t_end: float) -> SingularIVP:
    """Coupled profile/tension system with ``r'(0) = v``, ``F'(0) = w``.

    State ``(a, u_a, b, u_b)`` for ``r = t a``, ``F = t b``; the tension
    equation is the harmonic one forced by ``F``, and ``F`` satisfies the
    linearization of the potential along the profile.  Diagonal families
    only.
    """
    return _assemble(fam, v, w, t_end)


# -- solutions ----------------------------------------------------------------

class HarmonicSolution:
    """Profile wrapper around a solved harmonic reduction trajectory."""

    def __init__(self, fam: MetricFamily, traj):
        self.family = fam
        self.traj = traj
        self.v = traj.problem.meta.get("v")
        self.t_end = traj.problem.t_end

    def _profile(self, t: float, i: int, second: bool = True):
        """``(x, x', x'')`` at ``t`` for ``x = t y[i]`` (``r``: 0, ``F``: 2);
        ``x''`` reads ``u'`` from the computed trajectory, never from the
        vector field, and ``second=False`` skips that read."""
        x, u = self.traj.value(t)[i:i + 2]
        xddot = (float(2.0 * u + t * self.traj.derivative(t)[i + 1])
                 if second else None)
        return float(t) * float(x), float(x + t * u), xddot

    def r(self, t: float) -> float:
        return self._profile(t, 0, False)[0]

    def rdot(self, t: float) -> float:
        return self._profile(t, 0, False)[1]

    def rddot(self, t: float) -> float:
        return self._profile(t, 0)[2]

    def residual(self, t: float) -> float:
        return tension_residual(self.family, t, *self._profile(t, 0))


class BiharmonicSolution(HarmonicSolution):
    """Profile and tension wrapper for the coupled reduction.

    The inherited ``residual`` is the harmonic tension of the profile,
    which equals ``F`` along a solution; ``residuals`` checks both rows.
    ``F''``, like ``r''``, is read from the computed trajectory.
    """

    def __init__(self, fam: MetricFamily, traj):
        super().__init__(fam, traj)
        self.w = traj.problem.meta.get("w")

    def F(self, t: float) -> float:
        return self._profile(t, 2, False)[0]

    def Fdot(self, t: float) -> float:
        return self._profile(t, 2, False)[1]

    def Fddot(self, t: float) -> float:
        return self._profile(t, 2)[2]

    def residuals(self, t: float):
        return biharmonic_residual(self.family, t, *self._profile(t, 0),
                                   *self._profile(t, 2))


def _solve(fam: MetricFamily, v: float, w: float | None, t_end: float,
           tol: float, order: int, t_max: float) -> HarmonicSolution:
    traj = _solve_singular(_assemble(fam, v, w, t_end), tol=tol, order=order,
                           t_max=t_max)
    return (HarmonicSolution if w is None else BiharmonicSolution)(fam, traj)


def solve_harmonic(fam: MetricFamily, v: float, t_end: float, *,
                   tol: float = 1e-10, order: int = 10,
                   t_max: float = 0.1) -> HarmonicSolution:
    return _solve(fam, v, None, t_end, tol, order, t_max)


def solve_biharmonic(fam: MetricFamily, v: float, w: float, t_end: float, *,
                     tol: float = 1e-10, order: int = 10,
                     t_max: float = 0.1) -> BiharmonicSolution:
    return _solve(fam, v, w, t_end, tol, order, t_max)

# -- residual measurements -----------------------------------------------------

def tension_residual(fam: MetricFamily, t: float, r: float, rdot: float,
                     rddot: float) -> float:
    """``r'' + (drift + weight alpha') r' - V(t, r)``, signed, from one
    trace evaluation."""
    D, V, _ = _traces(fam, t, r, False)
    return float(rddot + D * rdot - V)


def biharmonic_residual(fam: MetricFamily, t: float, r: float, rdot: float,
                        rddot: float, F: float, Fdot: float,
                        Fddot: float):
    """Residuals of the forced tension and Jacobi equations, signed pair,
    from one trace evaluation."""
    D, V, V2 = _traces(fam, t, r, True)
    res_r = rddot + D * rdot - V - F
    res_f = Fddot + D * Fdot - V2 * F
    return float(res_r), float(res_f)


# -- validation ----------------------------------------------------------------

@dataclass
class MetricReport:
    """Outcome of the pointwise and pole checks on a family."""

    symmetric_ok: bool
    spd_ok: bool
    spd_failures: list
    pole_ok: bool
    drift_measured: dict
    series_available: bool
    verdict: bool


def validate_metric(fam: MetricFamily) -> MetricReport:
    """Positivity on a 50-point log grid plus the pole consistency
    measurement.

    ``t Tr(P^-1 P')/2`` must approach ``dim_p`` as ``t`` drops; it is
    measured directly at ``1e-3`` and ``1e-4`` and compared within
    ``1e-2``, which catches wrong ``dim_p`` declarations and entries with
    the wrong vanishing order even when no series data exists.
    """
    ts = np.geomspace(1e-3, fam.t_validate, 50)
    sym_ok = True
    failures = []
    for t in ts:
        P = fam.P_at(float(t))
        if np.abs(P - P.T).max() > 1e-10 * (1.0 + np.abs(P).max()):
            sym_ok = False
        try:
            np.linalg.cholesky(0.5 * (P + P.T))
        except np.linalg.LinAlgError:
            failures.append(float(t))
    spd_ok = not failures
    measured = {}
    for t in (1e-3, 1e-4):
        try:
            measured[t] = t * _direct_traces(fam, t, t, False)[1]
        except NumericalError:
            measured[t] = float("nan")      # fails the check below
    pole_ok = all(abs(v - fam.dim_p) <= 1e-2 for v in measured.values())
    try:
        fam.pack(4)
        series_ok = True
    except (ValidationError, NumericalError):
        series_ok = False
    return MetricReport(sym_ok, spd_ok, failures, pole_ok, measured,
                        series_ok, sym_ok and spd_ok and pole_ok)


# -- config construction --------------------------------------------------------

_METRIC_KEYS = {"diagonal", "entries", "dim_p", "alpha", "weight",
                "t_validate", "t_switch", "name"}


def build_metric_family(cfg: dict) -> MetricFamily:
    """Build a family from a plain dict (the JSON config shape).

    Exactly one of ``diagonal`` (list of entry expressions) or ``entries``
    (full nested matrix) is required, together with ``dim_p``.  Unknown
    keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("metric section must be an object")
    unknown = set(cfg) - _METRIC_KEYS
    if unknown:
        raise ConfigError(f"unknown metric keys: {sorted(unknown)}")
    if ("diagonal" in cfg) == ("entries" in cfg):
        raise ConfigError("give exactly one of 'diagonal' or 'entries'")
    if "dim_p" not in cfg:
        raise ConfigError("metric needs 'dim_p'")
    dim_p = cfg["dim_p"]
    if not isinstance(dim_p, int) or isinstance(dim_p, bool):
        raise ConfigError("'dim_p' must be an integer")
    kw = {}
    if "alpha" in cfg and cfg["alpha"] is not None:
        if not isinstance(cfg["alpha"], str):
            raise ConfigError("'alpha' must be an expression string")
        kw["alpha"] = cfg["alpha"]
    if "weight" in cfg:
        if not isinstance(cfg["weight"], int) or isinstance(
                cfg["weight"], bool):
            raise ConfigError("'weight' must be an integer")
        kw["weight"] = cfg["weight"]
    for key in ("t_validate", "t_switch"):
        if key in cfg:
            if not isinstance(cfg[key], (int, float)) or isinstance(
                    cfg[key], bool) or cfg[key] <= 0:
                raise ConfigError(f"'{key}' must be a positive number")
            kw[key] = float(cfg[key])
    try:
        if "diagonal" in cfg:
            if not isinstance(cfg["diagonal"], list) or not cfg["diagonal"]:
                raise ConfigError("'diagonal' must be a non-empty list")
            return MetricFamily.from_diagonal(cfg["diagonal"], dim_p, **kw)
        rows = cfg["entries"]
        if not isinstance(rows, list) or not all(
                isinstance(r, list) and len(r) == len(rows) for r in rows):
            raise ConfigError("'entries' must be a square nested list")
        return MetricFamily.from_entries(rows, dim_p, **kw)
    except (_expr.ParseError,) as exc:
        raise ConfigError(f"bad metric expression: {exc}") from exc
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

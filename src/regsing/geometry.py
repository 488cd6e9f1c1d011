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
derivative of ``P``; that path is restricted to diagonal families.  At
every ``t > 0`` the traces of a diagonal family are the closed form
``sum_i X_ii / P_ii``, one generated function of ``(t, rho)`` per family
(:class:`~regsing.expr.HalfTraces`), and a block family solves ``P(t) S =
[P'(rho) | P'(t)]`` once, for the assembled maps and the public trace
functions alike.  A residual sample evaluates the traces once and reads
``r''`` (and ``F''``) from the computed trajectory, so it measures that
trajectory's defect.

The series come from :meth:`MetricFamily.pack`, which holds float
coefficient stacks: ``P'`` and ``P''`` of the entries and the series of
``t^2 P^-1``, whose ``R^-1`` is built once per pack by a block recursion.
Along a profile ``rho = t a(t)`` each evaluation builds one table of the
powers of ``t a``; one product with it composes every entry of ``P'`` (and
``P''``), and each trace is one contraction with the pack's inverse series.
These kernels take and return float coefficient arrays.

Both reductions have a simple pole at ``t = 0``.  Substituting ``r = t a``
(and ``F = t b``) produces problems in the class handled by
:mod:`regsing.singular`, with singular part ``(0, -(p+2) u)`` and free
initial slope.  One assembler builds both: the biharmonic problem is the
harmonic one with the tension pair ``(b, u_b)`` appended to the state.  The
bootstrap is exact: the problem's ``stage`` answers each stage from the
coefficient rows through the kernels, with no Series, and ``m_reg`` on
time jets (which it takes only) wraps the same kernels for any other
caller.  The integrator reads the problem's float ``field``, the whole
right-hand side in plain floats: the regular rows from one trace read,
with ``0.0/t`` and ``(-(p+2) u)/t`` added in the order numpy adds the
split form, so the integrator reads the split form's bytes without its
array work.  The field reads no series: a Taylor series in ``t`` at a
frozen state converges only within the metric's radius, which shrinks
like ``1/|a|`` along a steep profile.
Metrics whose odd low-order data does not cancel the order-one residue (for
example ``alpha'(0) != 0``) have no analytic reduction; their series paths
raise StructureError.

Families are built in code (:class:`MetricFamily`), whose entries and
``alpha`` are read by :func:`regsing.expr.as_expr`; the JSON ``metric``
block of a config is read and checked by :mod:`regsing.cli`.  An entry, or
``alpha'``, that has no Taylor expansion at 0 makes :meth:`MetricFamily.pack`
raise ValidationError naming it, so a series path rejects the family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .series import Series, _constant, _identity, _mul
from .errors import NumericalError, StructureError, ValidationError
from .singular import (SingularIVP, _as_jet, _time_jet_order,
                       solve as _solve_singular)

__all__ = [
    "MetricFamily", "MetricReport", "validate_metric",
    "trace_drift", "trace_potential", "trace_potential2",
    "assemble_harmonic", "assemble_biharmonic",
    "tension_residual", "biharmonic_residual",
    "HarmonicSolution", "BiharmonicSolution",
    "solve_harmonic", "solve_biharmonic",
]

MAX_METRIC_DIM = 16
_SHIFT_TOL = 1e-9
_STRUCT_TOL = 5e-7
_differentiate = np.frompyfunc(_expr.differentiate, 1, 1)   # entrywise


class MetricFamily:
    """Symmetric matrix family ``P(t)`` with declared collapsing block.

    Parameters
    ----------
    entries : (n, n) array-like
        Entries of ``P`` in the radial variable: Expr trees, expression
        strings or finite numbers (:func:`~regsing.expr.as_expr`).
    dim_p : int
        Number of leading directions collapsing at the origin.
    alpha : entry or None
        Conformal exponent of an optional extra warped factor.
    weight : int
        Dimension carried by ``alpha`` in the drift term.
    t_validate : float
        Right end of the interval used by :func:`validate_metric`.

    Construction is lenient: pole structure is only enforced when a series
    path is actually used, so families that fail validation can still be
    probed pointwise.
    """

    def __init__(self, entries, dim_p: int, alpha=None, weight: int = 1,
                 t_validate: float = 1.0):
        entries = np.asarray(entries, dtype=object)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError("metric entries must form a square matrix")
        n = entries.shape[0]
        if not 1 <= n <= MAX_METRIC_DIM:
            raise ValidationError(f"metric size must be 1..{MAX_METRIC_DIM}")
        if not 1 <= dim_p <= n:
            raise ValidationError(f"dim_p must be in 1..{n}, got {dim_p}")
        self.entries = entries = _expr.as_exprs(entries)
        self.n = n
        self.dim_p = int(dim_p)
        self.dim_m = n - self.dim_p
        self.alpha = alpha = None if alpha is None else _expr.as_expr(alpha)
        self.weight = int(weight)
        self.t_validate = float(t_validate)
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
        n = len(diag)
        return cls([[diag[i] if i == j else 0.0 for j in range(n)]
                    for i in range(n)], dim_p, **kw)

    @classmethod
    def from_entries(cls, rows, dim_p: int, **kw) -> "MetricFamily":
        return cls(rows, dim_p, **kw)

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
        """Cached series data at the origin up to ``order``.

        Float coefficient stacks with ``M = order + 2`` rows, row ``k`` the
        coefficient of ``t^k``: ``dP``, the series of ``P'`` and of ``P''``
        side by side, each entry flattened (an entry's coefficients below
        its vanishing order count as zero); ``W``, the series of ``t^2
        P^-1 = t^(2-s) R^-1`` entrywise, transposed and flattened; and
        ``tdrift``, the ``order + 1`` coefficients of ``t [Tr(R^-1 R')/2
        + weight alpha']`` with the exact constant ``dim_p``, read-only.
        ``R^-1`` comes from one block recursion against ``R(0)``; ``R'``
        and ``P''`` from ``R`` by coefficient scaling.  As in
        :func:`regsing.linear._expand`, an entry whose coefficients
        overflow (``exp(1e100*t)``) leaves inf or nan in the stacks
        without a numpy warning.

        Raises ValidationError when an entry or ``alpha'`` has no Taylor
        expansion at 0, an entry fails to vanish to the order its block
        position requires, or ``R(0)`` is not positive definite.
        """
        pack = self._packs.get(order)
        if pack is None:
            with np.errstate(over="ignore", invalid="ignore"):
                pack = self._packs[order] = self._build_pack(order)
        return pack

    def _build_pack(self, order: int) -> dict:
        """:meth:`pack` without the cache."""
        n, M = self.n, order + 2
        R = np.empty((M, n, n))
        full = np.zeros((M + 2, n, n))      # P's entries, low terms zeroed
        for i in range(n):
            for j in range(n):
                s = (i < self.dim_p) + (j < self.dim_p)
                c = _expr._taylor_row_at_zero(self.entries[i, j], M - 1 + s,
                                              f"entry ({i},{j})")
                scale = 1.0 + float(np.abs(c).max())
                for k in range(s):
                    if abs(c[k]) > _SHIFT_TOL * scale:
                        raise ValidationError(
                            f"entry ({i},{j}) must vanish to order {s} "
                            f"at 0; found coefficient {c[k]:.3e} at t^{k}")
                R[:, i, j] = full[s:M + s, i, j] = c[s:]
        try:
            np.linalg.cholesky(0.5 * (R[0] + R[0].T))
        except np.linalg.LinAlgError as exc:
            raise ValidationError(
                "reduced matrix R(0) is not positive definite") from exc
        # R^-1 by the block recursion R(0) X_k = -sum_j R_j X_(k-j)
        Rinv = np.empty_like(R)
        Rinv[0] = np.linalg.inv(R[0])
        for k in range(1, M):
            Rinv[k] = -Rinv[0] @ (R[1:k + 1] @ Rinv[k - 1::-1]).sum(0)
        ks = np.arange(1.0, M + 2)[:, None, None]
        Rdot = (R[1:] * ks[:M - 1]).reshape(M - 1, n * n)
        drift = 0.5 * _trace_series(
            Rinv[:M - 1].transpose(0, 2, 1).reshape(M - 1, n * n), Rdot)
        if self._dalpha is not None:
            drift = drift + _expr._taylor_row_at_zero(
                self._dalpha, order, "alpha'") * float(self.weight)
        tdrift = np.empty(order + 1)
        tdrift[0] = self.dim_p
        tdrift[1:] = drift[:order]
        tdrift.setflags(write=False)
        # t^2 P^-1 = t^(2-s) R^-1 entrywise
        W = np.zeros((M, n, n))
        for i in range(n):
            for j in range(n):
                s = (i < self.dim_p) + (j < self.dim_p)
                W[2 - s:, i, j] = Rinv[:M - 2 + s, j, i]
        dP = np.stack((full[1:M + 1] * ks[:M],
                       full[2:] * (ks[:M] * ks[1:M + 1])), axis=1)
        return {"dP": dP.reshape(M, 2 * n * n), "W": W.reshape(M, n * n),
                "tdrift": tdrift}


# -- series kernels -----------------------------------------------------------
#
# Every series here is a float coefficient array, entry ``k`` the
# coefficient of ``t^k``; the kernels take and return such arrays, and only
# the profile problems' ``m_reg`` wraps them as Series.  Constants and
# products are the row kernels of :mod:`regsing.series`.

def _powers(a: np.ndarray, order: int) -> np.ndarray:
    """Table of the powers of ``u = t a(t)``: row ``j`` holds the ``M =
    order + 2`` coefficients of ``u^j``, ``j < M``; ``a`` has at least
    ``M - 1`` coefficients.  Each step multiplies the rows known so far by
    the upper Toeplitz matrix of the top power: ``log2 M`` products."""
    M = order + 2
    T = np.zeros((M, M))
    T[0, 0] = 1.0
    T[1, 1:] = a[:M - 1]
    top = np.zeros(2 * M - 1)
    # U[i, k] = top[M - 1 + k - i], coefficient k - i of the top power
    U = np.lib.stride_tricks.as_strided(
        top[M - 1:], shape=(M, M), strides=(-top.itemsize, top.itemsize))
    m = 1
    while m + 1 < M:
        span = min(m, M - 1 - m)
        top[M - 1:] = T[m]
        np.matmul(T[1:span + 1], U, out=T[m + 1:m + span + 1])
        m += span
    return T


def _trace_series(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``sum_(l+k=j) A[l] . B[k]`` for ``j`` below ``len(A)``: with ``A``
    the transposed and ``B`` the plain coefficient rows of two flattened
    matrix series, ``Tr(A B)`` as a series, summed along the anti-diagonals
    of one contraction."""
    L = len(A)
    Z = np.zeros((L, 2 * L))
    Z[:, :L] = A @ B[:L].T
    # row l of the view is row l of Z shifted right by l
    return Z.ravel()[:L * (2 * L - 1)].reshape(L, 2 * L - 1)[:, :L].sum(0)


# -- reduced series of the trace quantities ----------------------------------

def _tdrift_series(fam: MetricFamily, order: int) -> np.ndarray:
    """``t * [drift + weight alpha']`` with the exact constant ``dim_p``,
    read-only."""
    return fam.pack(order)["tdrift"]


def _tpot_series(fam: MetricFamily, a: np.ndarray, order: int,
                 T: np.ndarray | None = None) -> np.ndarray:
    """``t * V(t, u)`` along ``u = t a(t)`` as a series to ``order``;
    constant term ``dim_p * a(0)`` for a diagonal family.

    ``t V = Tr(t^2 P^-1 P'(u)) / (2 t)``: the power table ``T`` of ``u``
    (built here unless given) composes every entry of ``P'`` in one
    product, and the trace is one contraction with the pack's ``t^2
    P^-1``, whose constant term vanishes."""
    pack = fam.pack(order)
    T = _powers(a, order) if T is None else T
    X = T.T @ pack["dP"][:, :fam.n * fam.n]
    return 0.5 * _trace_series(pack["W"], X)[1:]


def _zpot_series(fam: MetricFamily, a: np.ndarray, order: int,
                 T: np.ndarray | None = None) -> np.ndarray:
    """``t^2 * V2(t, u) = Tr(t^2 P^-1 P''(u)) / 2`` along ``u = t a(t)``
    to ``order``, as :func:`_tpot_series` builds ``t V``; constant term
    ``dim_p`` for the diagonal families it is used on."""
    pack = fam.pack(order)
    T = _powers(a, order) if T is None else T
    X = T.T @ pack["dP"][:, fam.n * fam.n:]
    return 0.5 * _trace_series(pack["W"][:-1], X)


def _peel2(w: np.ndarray, where: str) -> np.ndarray:
    """Divide by ``t^2`` after checking the two dropped coefficients vanish
    against the low-order coefficients, up to the first one kept: the
    higher ones grow like powers of the metric's inverse radius and would
    hide any residue."""
    scale = 1.0 + float(np.abs(w[:3]).max())
    if abs(w[0]) > _STRUCT_TOL * scale or abs(w[1]) > _STRUCT_TOL * scale:
        raise StructureError(
            f"{where}: nonzero residue at the pole "
            f"(c0={w[0]:.3e}, c1={w[1]:.3e}); odd low-order "
            "metric data does not cancel, no analytic reduction exists")
    return w[2:]


def _w_series(fam: MetricFamily, s, order: int) -> list:
    """``u' + (p+2) u / t`` of the harmonic reduction for the state series
    ``s = (a, u)``, each of ``order + 1`` coefficients, to ``order - 2``;
    for ``s = (a, u, b, u_b)`` also ``u_b' + (p+2) u_b / t`` of the tension
    linearization along ``a`` (diagonal families only).  Both rows share
    one power table."""
    p = float(fam.dim_p)
    t_s = _identity(order, 0.0)
    T = _powers(s[0], order)
    d = _tdrift_series(fam, order) - _constant(p, order)
    w = [_peel2((_tpot_series(fam, s[0], order, T) - p * s[0])
                - _mul(d, s[0] + _mul(t_s, s[1])), "harmonic reduction")]
    if len(s) == 4:
        z = _zpot_series(fam, s[0], order, T) - _constant(p, order)
        w.append(_peel2(_mul(z, s[2]) - _mul(d, s[2] + _mul(t_s, s[3])),
                        "tension linearization"))
    return w


def check_structure(fam: MetricFamily):
    """Probe the pole cancellations needed by the analytic reductions.

    Raises StructureError when odd low-order metric data leaves a residue.
    For constant ``a`` and ``u`` the residue of the harmonic reduction is
    ``c1 t`` with ``c1`` a quadratic in ``a(0)`` alone, so three distinct
    values of ``a(0)`` show that it vanishes for every profile; the residue
    of the tension linearization, ``b dc1/da``, then vanishes too.  Only a
    passing probe is remembered, so a family that fails raises on every
    call.

    Raises NumericalError when the probe's series are not finite, as where
    an entry's coefficients overflow (``t^2*(1+1e300*t)``): the probe
    runs without numpy warnings, and no solve goes on to the bootstrap.
    """
    if fam._structure_ok:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        for a0, u0 in ((0.83, 0.41), (-0.37, 0.9), (1.61, -0.23)):
            w = _w_series(fam, [_constant(a0, 8), _constant(u0, 8)], 8)
            if not np.isfinite(w[0]).all():
                raise NumericalError(
                    "the metric's series at the origin are not finite "
                    "(an entry's Taylor coefficients overflow)")
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
    """``(drift + weight alpha', V, V2)`` at a finite ``t > 0`` and radius
    ``rho``, ``V2`` None unless ``second`` (diagonal families only), from
    one :func:`_direct_traces` call."""
    if not 0.0 < t < math.inf:
        raise ValidationError(
            f"trace quantities need a finite t > 0, got t = {t}")
    if second and not fam.diagonal:
        raise ValidationError(
            "second radial derivative reduction supports diagonal "
            "families only")
    V, drift, V2 = _direct_traces(fam, t, rho, second)
    return drift + fam.weight * fam.alpha_dot_at(t), V, V2


def trace_drift(fam: MetricFamily, t: float) -> float:
    """``Tr(P^-1 P')/2 + weight alpha'`` at ``t > 0``: the closed form
    ``sum_i P'_ii / P_ii`` (diagonal) or one linear solve (block)."""
    return _traces(fam, t, t, False)[0]


def trace_potential(fam: MetricFamily, t: float, rho: float) -> float:
    """``Tr(P(t)^-1 dP/drho)/2`` at radius ``rho``; pole ``dim_p rho/t^2``."""
    return _traces(fam, t, rho, False)[1]


def trace_potential2(fam: MetricFamily, t: float, rho: float) -> float:
    """``Tr(P(t)^-1 d^2P/drho^2)/2``; diagonal families only."""
    return _traces(fam, t, rho, True)[2]


# -- assembled singular problems ----------------------------------------------

def _profile_rows(fam: MetricFamily, s, n: int) -> list:
    """The coefficients of ``m_reg`` of both profile problems to order
    ``n``, for the state series ``s``, each of ``n + 3`` coefficients: the
    harmonic state ``(a, u)`` or the biharmonic one ``(a, u, b, u_b)``."""
    w = _w_series(fam, s, n + 2)
    out = [s[1][:n + 1], w[0]]
    if len(s) == 4:
        out[1] = out[1] + s[2][:n + 1]
        out += [s[3][:n + 1], w[1]]
    return out


def _profile_reg(fam: MetricFamily, t: Series, y) -> np.ndarray:
    """``m_reg`` of both profile problems at a time jet ``t``, for Series
    (or number) entries of the state; the float right-hand side is
    :func:`_profile_field` and the bootstrap's stage
    :func:`_profile_stage`."""
    n = _time_jet_order(t)
    rows = _profile_rows(fam, [_as_jet(v, n + 2).coeffs for v in y], n)
    return np.array([Series._new(c, 0.0) for c in rows], dtype=object)


def _profile_stage(fam: MetricFamily, m_sing, k: int):
    """The bootstrap stage of both profile problems, state width ``k``, on
    coefficient rows: ``b_h = [t^h] m_sing + [t^(h-1)] m_reg`` along the
    partial sum of the rows ``y_0 .. y_(h-1)``.  ``m_sing`` is linear, so
    its part is ``m_sing`` of the top row, which is zero."""
    top = m_sing(np.zeros(k))

    def stage(part, h):
        s = np.zeros((k, h + 2))
        s[:, :h] = part.T
        return top + [c[h - 1] for c in _profile_rows(fam, s, h - 1)]

    return stage


def _profile_sing(p: int):
    """``m_sing`` of the profile reductions: ``(0, -(p+2) u)`` for each
    ``(x, u)`` pair of the state, so each slope is a free parameter."""
    def m_sing(y):
        y = np.asarray(y).reshape(-1)
        out = -(p + 2.0) * y
        out[::2] = y[::2] * 0.0 if y.dtype == object else 0.0
        return out

    return m_sing


def _profile_field(fam: MetricFamily):
    """The whole float field ``m_sing(y)/t + m_reg(t, y)`` of both profile
    problems in plain floats.  The regular rows come from one
    :func:`_traces` read at ``rho = t a``; the tension ``F = t b`` forces
    the profile row.  Each ``(x, u)`` pair then gets ``0.0/t`` and
    ``(-(p+2) u)/t`` added as numpy adds the split form's arrays, so the
    bytes are those of the split sum."""
    p = fam.dim_p
    s = -(p + 2.0)

    def field(t, y):
        t = float(t)
        y = np.asarray(y, dtype=float).tolist()
        coupled = len(y) == 4
        a, u = y[0], y[1]
        D, V, V2 = _traces(fam, t, t * a, coupled)
        d = D - p / t
        out = [u, (V - p * a / t - d * (a + t * u)) / t]
        if coupled:
            b, ub = y[2:]
            out[1] += b
            out += [ub, ((V2 - p / (t * t)) * t * b - d * (b + t * ub)) / t]
        for i in range(0, len(y), 2):
            out[i] = 0.0 / t + out[i]
            out[i + 1] = s * y[i + 1] / t + out[i + 1]
        return np.array(out)

    return field


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
    m_sing = _profile_sing(fam.dim_p)
    return SingularIVP(m_sing, functools.partial(_profile_reg, fam), y0,
                       t_end, jet_capable=True, meta=meta,
                       field=_profile_field(fam),
                       stage=_profile_stage(fam, m_sing, len(y0)))


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
           tol: float) -> HarmonicSolution:
    traj = _solve_singular(_assemble(fam, v, w, t_end), tol=tol)
    return (HarmonicSolution if w is None else BiharmonicSolution)(fam, traj)


def solve_harmonic(fam: MetricFamily, v: float, t_end: float, *,
                   tol: float = 1e-10) -> HarmonicSolution:
    """The profile with ``r'(0) = v`` on ``(0, t_end]``: the reduction of
    :func:`assemble_harmonic` solved by :func:`regsing.singular.solve`."""
    return _solve(fam, v, None, t_end, tol)


def solve_biharmonic(fam: MetricFamily, v: float, w: float, t_end: float, *,
                     tol: float = 1e-10) -> BiharmonicSolution:
    """The profile and tension with ``r'(0) = v``, ``F'(0) = w`` on ``(0,
    t_end]``: the system of :func:`assemble_biharmonic` solved by
    :func:`regsing.singular.solve`."""
    return _solve(fam, v, w, t_end, tol)


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

"""Singular initial value problems: admissibility, bootstrap, handoff."""

import math
import warnings

import numpy as np
import pytest

from regsing import geometry, rk, series, singular
from regsing.errors import (AdmissibilityError, NumericalError,
                            ValidationError)
from regsing.series import Series


def linear_forced(forcing, y0=0.0, t_end=2.0):
    # dy/dt = -2y/t + forcing(t); m_sing has Jacobian -2 everywhere
    return singular.SingularIVP(lambda y: -2.0 * y,
                                forcing, np.array([y0]), t_end)


def _affine_demo():
    # the system of demos/configs/affine_singular.json
    return singular.AffineSingularMaps(
        C=[[0.0, 1.0], [0.0, -3.0]], S=[["0", "0"], ["t", "0"]],
        g=["0", "sin(t)"])


def test_jet_capability_probe():
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    assert p.jet_capable
    assert p.jet_probe_error is None

    def blackbox(t, y):
        return np.array([float(t) + float(y[0])])

    q = singular.SingularIVP(lambda y: -2.0 * y, blackbox,
                             np.array([0.0]), 1.0)
    assert not q.jet_capable
    assert q.jet_probe_error.startswith("TypeError(")

    # an error a Series argument cannot explain is a fault in the map
    def faulty(t, y):
        raise LookupError("no such parameter")

    with pytest.raises(LookupError):
        singular.SingularIVP(lambda y: -2.0 * y, faulty, np.array([0.0]), 1.0)


def test_failed_jet_probe_is_reported_by_solve():
    # math.sin rejects a Series: the bootstrap falls back to differences
    p = linear_forced(lambda t, y: np.array([math.sin(t)]))
    assert not p.jet_capable
    assert p.jet_probe_error.startswith("TypeError(")
    with pytest.warns(RuntimeWarning, match="capped"):
        traj = singular.solve(p, tol=1e-10)
    assert traj.diagnostics["jet_probe_error"] == p.jet_probe_error
    assert traj.diagnostics["series_order"] == singular.BLACKBOX_MAX_ORDER
    # t^2 y = integral of s^2 sin s from 0 to t
    t = 0.8
    exact = (2 * t * math.sin(t) + (2 - t * t) * math.cos(t) - 2) / t ** 2
    assert traj.value(t)[0] == pytest.approx(exact, abs=1e-7)
    jet = singular.solve(linear_forced(lambda t, y: y * 0.0 + 1.0))
    assert jet.diagnostics["jet_probe_error"] is None


def test_validation_of_problem_data():
    with pytest.raises(ValidationError):
        singular.SingularIVP(lambda y: y, lambda t, y: y, [], 1.0)
    with pytest.raises(ValidationError):
        singular.SingularIVP(lambda y: y, lambda t, y: y, [1.0], 0.0)


def test_admissibility_pass():
    rep = singular.check_admissibility(linear_forced(lambda t, y: y * 0.0))
    assert rep.verdict
    assert rep.residual_norm == 0.0
    assert rep.offending_h == []
    assert rep.tail_certified          # |J| = 2 < 10
    np.testing.assert_allclose(rep.jacobian, [[-2.0]])


def test_admissibility_residual_failure():
    p = singular.SingularIVP(lambda y: -2.0 * y + 1.0, lambda t, y: y * 0.0,
                             np.array([0.0]), 1.0)
    rep = singular.check_admissibility(p)
    assert not rep.verdict
    assert rep.residual_norm == pytest.approx(1.0)
    with pytest.raises(AdmissibilityError) as ei:
        singular.solve(p)
    assert ei.value.report.residual_norm == pytest.approx(1.0)


@pytest.mark.parametrize("slope,bad", [(1.0, [1]), (2.0, [2])])
def test_admissibility_resonance(slope, bad):
    # J = slope makes h = slope a resonant index
    p = singular.SingularIVP(lambda y: slope * y, lambda t, y: y * 0.0,
                             np.array([0.0]), 1.0)
    rep = singular.check_admissibility(p)
    assert rep.offending_h == bad
    assert not rep.verdict


def test_tail_not_certified_for_large_jacobian():
    p = singular.SingularIVP(lambda y: -40.0 * y, lambda t, y: y * 0.0,
                             np.array([0.0]), 1.0)
    rep = singular.check_admissibility(p, order=10)
    assert rep.verdict            # no resonance: spectrum is negative
    assert not rep.tail_certified  # |J| = 40 >= 10


def test_bootstrap_linear_exact():
    # y' = -2y/t + 1 has the exact solution y = t/3
    coeffs = singular.bootstrap_series(linear_forced(lambda t, y: y * 0.0 + 1.0),
                                       order=6)
    want = np.zeros((7, 1))
    want[1, 0] = 1.0 / 3.0
    np.testing.assert_allclose(coeffs, want, atol=1e-15)


def test_bootstrap_cosine_forcing():
    # y' = -2y/t + cos t: (h+2) y_h = [t^(h-1)] cos t, so
    # y = t/3 - t^3/10 + t^5/168 - ...
    def forcing(t, y):
        if isinstance(t, Series):
            from regsing import series as _s
            return y * 0.0 + _s.cos(t)
        return y * 0.0 + math.cos(t)

    coeffs = singular.bootstrap_series(linear_forced(forcing), order=5)
    want = np.array([0.0, 1.0 / 3.0, 0.0, -0.1, 0.0, 1.0 / 168.0])
    np.testing.assert_allclose(coeffs[:, 0], want, atol=1e-14)


def test_bootstrap_pure_regular_nonlinear():
    # y' = 2y^2, y(0) = 1 solves to 1/(1 - 2t): coefficients 2^h
    p = singular.SingularIVP(lambda y: 0.0 * y, lambda t, y: 2.0 * y * y,
                             np.array([1.0]), 0.4)
    coeffs = singular.bootstrap_series(p, order=8)
    np.testing.assert_allclose(coeffs[:, 0], 2.0 ** np.arange(9), rtol=1e-13)


def test_bootstrap_blackbox_stencils():
    def forcing(t, y):
        return np.array([math.cos(float(t))])

    p = singular.SingularIVP(lambda y: np.array([-2.0 * float(y[0])]),
                             forcing, np.array([0.0]), 1.0,
                             jet_capable=False)
    coeffs = singular.bootstrap_series(p, order=4)
    want = np.array([0.0, 1.0 / 3.0, 0.0, -0.1, 0.0])
    np.testing.assert_allclose(coeffs[:, 0], want, atol=1e-6)
    with pytest.raises(ValidationError):
        singular.bootstrap_series(p, order=5)


def test_choose_handoff_cases():
    # |y_10| = 1 and tol = 1e-10 puts the switch exactly at 0.1
    coeffs = np.zeros((11, 1))
    coeffs[10, 0] = 1.0
    t0, y = singular.choose_handoff(coeffs, 1e-10, t_max=1.0, t_end=4.0)
    assert t0 == pytest.approx(0.1)
    assert y[0] == pytest.approx(0.1 ** 10)

    # geometric growth 2^h: t0 = (tol / 2^10)^(1/10), value is partial sum
    geo = (2.0 ** np.arange(11))[:, None]
    t0, y = singular.choose_handoff(geo, 1e-10, 1.0, 4.0)
    assert t0 == pytest.approx((1e-10 / 2 ** 10) ** 0.1)
    part = sum((2 * t0) ** h for h in range(11))
    assert y[0] == pytest.approx(part, rel=1e-14)

    # zero top coefficient: cap wins, including the t_end/2 clamp
    flat = np.zeros((11, 1))
    flat[0, 0] = 5.0
    t0, y = singular.choose_handoff(flat, 1e-10, 1.0, 0.4)
    assert t0 == pytest.approx(0.2)
    assert y[0] == pytest.approx(5.0)

    # hopeless tail underflows the floor
    bad = np.zeros((2, 1))
    bad[1, 0] = 1e20
    with pytest.raises(NumericalError):
        singular.choose_handoff(bad, 1e-12, 1.0, 4.0)


def test_integrate_from_a_state_at_t0():
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = singular.integrate(p, 0.05, [0.05 / 3.0], tol=1e-10)
    assert traj.value(2.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    with pytest.raises(ValidationError):
        traj.value(0.01)       # no series part below the handoff
    with pytest.raises(ValidationError):
        singular.integrate(p, 3.0, [1.0])  # t0 beyond t_end


def test_solve_piecewise_trajectory():
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = singular.solve(p, tol=1e-10)
    h = traj.diagnostics["handoff"]
    assert 0 < h < p.t_end
    # exact solution y = t/3 on both sides of the handoff
    for t in (h / 7, h / 2, h, 1.3 * h, 0.5, 2.0):
        assert traj.value(t)[0] == pytest.approx(t / 3.0, abs=1e-9)
        assert traj.derivative(t)[0] == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert traj.residual(t) < 1e-7
    d = traj.diagnostics
    assert d["series_order"] == 10
    assert d["admissibility"].verdict
    assert d["steps_accepted"] > 0
    assert d["max_residual"] < 1e-8


def test_trajectory_reads_before_the_pole_raise():
    # y = t/3 from t = 0 on; nothing is defined before the pole
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = singular.solve(p, tol=1e-10)
    assert traj.value(0.0)[0] == 0.0
    assert traj.derivative(0.0)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    for read, t in ((traj.value, -0.5), (traj.derivative, -0.5),
                    (traj.residual, -0.5), (traj.residual, 0.0),
                    (traj.value, math.nan)):
        with pytest.raises(ValidationError):
            read(t)


def test_solve_explicit_handoff_and_bounds():
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = singular.solve(p, handoff=0.03)
    assert traj.diagnostics["handoff"] == pytest.approx(0.03)
    assert traj.value(1.0)[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    with pytest.raises(ValidationError):
        singular.solve(p, handoff=5.0)


def test_solve_blackbox_order_clamp():
    def m_sing(y):
        return np.array([-2.0 * float(y[0])])

    def m_reg(t, y):
        return np.array([1.0 + float(t)])

    p = singular.SingularIVP(m_sing, m_reg, np.array([0.0]), 1.0,
                             jet_capable=False)
    with pytest.warns(RuntimeWarning, match="capped"):
        traj = singular.solve(p, order=10)
    assert traj.diagnostics["series_order"] == 4
    # y' = -2y/t + 1 + t -> y = t/3 + t^2/4
    assert traj.value(0.8)[0] == pytest.approx(0.8 / 3 + 0.16, abs=1e-7)


def test_affine_maps_shapes_and_endpoint():
    aff = singular.AffineSingularMaps(
        C=[[0.0, 1.0], [0.0, -3.0]],
        S=[["0", "0"], ["t", "0"]],
        g=["0", "sin(t)"])
    p = aff.problem([0.0, 0.0], 1.0)
    assert p.jet_capable
    traj = singular.solve(p, tol=1e-10)
    # frozen from an independent high-accuracy run of the same system
    np.testing.assert_allclose(
        traj.value(1.0),
        [0.097728288237128327, 0.19112968359445531], atol=2e-10)
    with pytest.raises(ValidationError):
        singular.AffineSingularMaps(C=[[0.0, 1.0]])
    with pytest.raises(ValidationError):
        singular.AffineSingularMaps(C=[[0.0]], S=[["t", "1"]])


def test_max_residual_samples_where_the_slope_error_peaks():
    # demos/configs/affine_singular.json: the interpolant's slope error
    # vanishes at each step's midpoint, so a midpoint sample reads it
    # ~75x low; the per-step sample must see the quarter-point maximum
    aff = singular.AffineSingularMaps(
        C=[[0.0, 1.0], [0.0, -3.0]], S=[["0", "0"], ["t", "0"]],
        g=["0", "sin(t)"])
    traj = singular.solve(aff.problem([0.0, 0.0], 1.0), tol=1e-10)
    ts = traj.ts.tolist()
    quarters = max(traj.residual(t0 + q * (t1 - t0))
                   for t0, t1 in zip(ts, ts[1:]) for q in (0.25, 0.5, 0.75))
    assert traj.diagnostics["max_residual"] >= 0.5 * quarters


def test_nan_defect_sample_is_rejected_and_retried():
    # planted fault: f reads nan at the defect abscissa of one step (not
    # the first); the step must be rejected and retried with a smaller
    # width, so the nan never reaches an accepted step
    aff = _affine_demo()
    p = aff.problem([0.0, 0.0], 1.0)
    clean = singular.solve(p, tol=1e-8)
    ts = clean.ts.tolist()
    t_bad = ts[3] + rk._THETA * (ts[4] - ts[3])
    rhs, seen = p.rhs, []

    def planted(t, y):
        if t == t_bad:
            seen.append(t)
            return np.full_like(y, math.nan)
        return rhs(t, y)

    p.rhs = planted
    traj = singular.solve(p, tol=1e-8)
    d = traj.diagnostics
    assert seen == [t_bad]
    assert d["steps_defect_rejected"] >= 1
    assert traj.ts[:4].tolist() == ts[:4]
    assert traj.ts[4] < ts[4]           # the retried step is narrower
    assert math.isfinite(d["max_residual"])
    assert d["max_residual"] <= 100 * 1e-8


# -- defect-controlled stepping ----------------------------------------------

# quarter points and both slope-error peaks of the quartic interpolant
_THETAS = (0.25, 0.5, 0.75, rk._THETA, 1.0 - rk._THETA)


def _worst_residual(traj):
    ts = traj.ts.tolist()
    return max(traj.residual(a + q * (b - a))
               for a, b in zip(ts, ts[1:]) for q in _THETAS)


_ROWS = {
    "sphere": lambda: geometry.assemble_harmonic(
        geometry.MetricFamily.from_diagonal(["sin(t)^2", "sin(t)^2"],
                                            dim_p=2), 0.7, 1.5),
    "block": lambda: geometry.assemble_harmonic(
        geometry.MetricFamily.from_entries(
            [["t^2*(1.5 + 0.3*t^2)", "0.2*t^2"],
             ["0.2*t^2", "1.7 + 0.25*t^2"]], dim_p=1), 1.3, 1.0),
    "affine": lambda: _affine_demo().problem([0.0, 0.0], 1.0),
    "flat3": lambda: geometry.assemble_biharmonic(
        geometry.MetricFamily.from_diagonal(["t^2"] * 3, dim_p=3),
        0.8, 0.4, 1.0),
}


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_defect_control_holds_the_residual_within_100_tol(row, tol):
    # a fixed step cap read 193 tol on the affine row at tol 1e-12
    traj = singular.solve(_ROWS[row](), tol=tol)
    assert _worst_residual(traj) <= 100 * tol
    assert traj.diagnostics["max_residual"] <= 100 * tol


def test_defect_check_catches_a_planted_interpolant_fault(monkeypatch):
    # planted fault: the interpolant's extra stage row is 1% off; the
    # step's error estimate cannot see it, only the dense output's slope
    tol = 1e-12
    p = _ROWS["sphere"]()
    y0 = singular._series_value(singular.bootstrap_series(p), 0.1)
    clean = singular.integrate(p, 0.1, y0, tol)
    monkeypatch.setattr(rk, "_D", rk._D * 1.01)
    res = rk.integrate_adaptive(p.rhs, 0.1, y0, p.t_end, tol)
    unchecked = singular.Trajectory(p, None, 0.1, res, tol)
    assert _worst_residual(unchecked) > 100 * tol
    checked = singular.integrate(p, 0.1, y0, tol)
    assert checked.diagnostics["max_residual"] <= 100 * tol
    assert _worst_residual(checked) <= 100 * tol
    assert (checked.diagnostics["steps_accepted"]
            > clean.diagnostics["steps_accepted"])


def test_integrate_reads_the_residual_only_inside_the_step_loop(
        monkeypatch):
    outside = []
    inside = [False]
    real_integrate = rk.integrate_adaptive
    real_rhs, real_residual = (singular.SingularIVP.rhs,
                               singular.Trajectory.residual)

    def integrate(*args, **kwargs):
        inside[0] = True
        try:
            return real_integrate(*args, **kwargs)
        finally:
            inside[0] = False

    def rhs(self, t, y):
        if not inside[0]:
            outside.append(("rhs", t))
        return real_rhs(self, t, y)

    def residual(self, t):
        outside.append(("residual", t))
        return real_residual(self, t)

    monkeypatch.setattr(rk, "integrate_adaptive", integrate)
    monkeypatch.setattr(singular.SingularIVP, "rhs", rhs)
    monkeypatch.setattr(singular.Trajectory, "residual", residual)
    p = _ROWS["affine"]()
    traj = singular.integrate(p, 0.1, [0.0, 0.0], tol=1e-10)
    assert outside == []
    assert traj.diagnostics["steps_accepted"] > 0


def test_handoff_residual_reads_the_series_at_the_handoff():
    # the order-9 series of y' = -y/t + sinh t hands off at t = 1 with a
    # state error of ~2.5e-7; the integrator's residual cannot see it
    aff = singular.AffineSingularMaps([[-1.0]], g=["sinh(t)"])
    p = aff.problem([0.0], 2.0)
    traj = singular.solve(p, tol=1e-10, order=9, t_max=1.0)
    d = traj.diagnostics
    t0 = d["handoff"]
    assert t0 == 1.0
    c = traj.coeffs
    powers = np.arange(c.shape[0])
    dy = (powers[1:, None] * c[1:] * t0 ** (powers[1:, None] - 1)).sum(0)
    y = (c * t0 ** powers[:, None]).sum(0)
    assert d["handoff_residual"] == pytest.approx(
        float(np.max(np.abs(dy - p.rhs(t0, y)))), rel=1e-9)
    assert d["max_residual"] <= 100 * 1e-10
    assert d["handoff_residual"] > 1e4 * 1e-10
    # a handoff chosen where the series holds reads far below tol
    for row in ("sphere", "affine", "flat3"):
        d = singular.solve(_ROWS[row](), tol=1e-10).diagnostics
        assert d["handoff_residual"] <= 0.1 * 1e-10


def test_affine_jets_are_truncations_of_one_expansion():
    aff = singular.AffineSingularMaps(
        C=[[-1.0, 0.5], [0.0, -2.0]],
        S=[["0.7*sin(1.3*t)", "t^2"], ["exp(-0.4*t) - 1", "1/(2 + t)"]],
        g=["cos(t) - 1", "sqrt(1 + t)*log(1 + t^2)"])
    y = np.array([Series([0.3, -1.2, 0.5]), Series([1.1, 0.0, -0.0])],
                 dtype=object)

    def check(order):
        S, g = aff._jets(order)
        for got, want in ((S, aff._S.taylor(0.0, order)),
                          (g, aff._g.taylor(0.0, order))):
            assert got.shape == want.shape
            for a, b in zip(got.flat, want.flat):
                assert a.coeffs.dtype == b.coeffs.dtype
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
        out = aff.m_reg(series.identity(order), y)
        want = aff._S.taylor(0.0, order) @ y + aff._g.taylor(0.0, order)
        for a, b in zip(out, want):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()

    for order in range(singular.MAX_ORDER + 1):
        check(order)
    check(singular.MAX_ORDER + 5)      # expands again, higher
    for order in (0, 1, 7, singular.MAX_ORDER, singular.MAX_ORDER + 5):
        check(order)


def test_affine_jet_map_rejects_non_identity_time_jets():
    # with g = t, a jet claiming t = 7 + 3 s must not be read as t = s
    aff = singular.AffineSingularMaps(C=[[0.0]], g=["t"])
    y = np.array([Series([0.0, 0.0, 0.0, 0.0])], dtype=object)
    out = aff.m_reg(series.identity(3), y)
    assert list(out[0].coeffs) == [0.0, 1.0, 0.0, 0.0]
    for bad in (Series([7.0, 3.0, 0.0, 0.0]), Series([0.0, 2.0]),
                Series([0.0, 1.0], 0.5)):
        with pytest.raises(ValidationError, match="time jets"):
            aff.m_reg(bad, y)


def test_continuation_limit_check():
    good = singular.continuation_limit_check(
        lambda xi, y: y ** 2 + xi * 0.0, [0.0])
    assert good.passed and good.residual == 0.0
    bad = singular.continuation_limit_check(
        lambda xi, y: y + 1.0, [0.0])
    assert not bad.passed
    assert bad.residual == pytest.approx(1.0)


def test_initial_derivative_scalar():
    # 0 = Y' + (2Y - xi)/xi forces Y(0) = 0 and 3 Y'(0) = 1
    f = lambda xi, y: 2.0 * y - xi
    got = singular.initial_derivative(f, [0.0])
    assert got[0] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValidationError):
        singular.initial_derivative(f, [1.0])   # f(0, 1) = 2 != 0


def test_initial_derivative_singular_linearization():
    # A0 = -1 makes I + A0 vanish
    with pytest.raises(NumericalError):
        singular.initial_derivative(lambda xi, y: -y + xi * 0.0, [0.0])


def test_normalize_shifts_base_point():
    f = lambda xi, y: y - 3.0 + xi
    g = singular.normalize(f, [3.0])
    np.testing.assert_allclose(g(0.0, np.array([0.0])), [0.0])
    np.testing.assert_allclose(g(0.5, np.array([0.25])), f(0.5, np.array([3.25])))


def riccati(xi, y):
    # 0 = Y' + (Y^2 + xi)/xi; hat series 0 = xi w' + w + 1 + xi w^2
    return y * y + xi


def test_reduce_hat_riccati_jets():
    p = singular.reduce_hat(riccati, [0.0], t_end=0.5)
    assert p.jet_capable
    assert p.y0[0] == pytest.approx(-1.0)
    coeffs = singular.bootstrap_series(p, order=4)
    want = [-1.0, -0.5, -1.0 / 3.0, -11.0 / 48.0, -19.0 / 120.0]
    np.testing.assert_allclose(coeffs[:, 0], want, atol=1e-13)


def test_reduce_hat_riccati_blackbox():
    def opaque(xi, y):
        return np.array([float(y[0]) ** 2 + float(xi)])

    p = singular.reduce_hat(opaque, [0.0], t_end=0.5)
    assert not p.jet_capable
    assert p.jet_probe_error.startswith("TypeError(")
    assert p.y0[0] == pytest.approx(-1.0, abs=1e-8)
    coeffs = singular.bootstrap_series(p, order=4)
    want = [-1.0, -0.5, -1.0 / 3.0, -11.0 / 48.0, -19.0 / 120.0]
    # top coefficient comes from a depth-4 difference stencil; accuracy
    # degrades to ~1e-4 there
    np.testing.assert_allclose(coeffs[:, 0], want, atol=1e-4)

    # both reductions describe the same vector field away from the pole
    pj = singular.reduce_hat(riccati, [0.0], t_end=0.5)
    for t in (0.05, 0.2):
        w = np.array([-1.0 + 0.3 * t])
        np.testing.assert_allclose(p.rhs(t, w), pj.rhs(t, w),
                                   rtol=1e-6, atol=1e-6)


def test_reduce_hat_rejects_bad_base_point():
    with pytest.raises(ValidationError):
        singular.reduce_hat(lambda xi, y: y + 1.0, [0.0])


@pytest.mark.parametrize("f", [
    lambda xi, y: -y,
    lambda xi, y: np.array([-float(y[0])]),
    lambda xi, y: -(1.0 - 1e-13) * y + xi,
    lambda xi, y: np.array([-(1.0 - 1e-13) * float(y[0]) + float(xi)]),
], ids=["singular-jets", "singular-blackbox", "near-singular-jets",
        "near-singular-blackbox"])
def test_reduce_hat_rejects_singular_linearization(f):
    # I + A0 is 0 or 1e-13: without the check the hat solve raised
    # LinAlgError or returned Yhat(0) ~ -1e13
    with pytest.raises(NumericalError,
                       match=r"^I \+ A0 is numerically singular"):
        singular.reduce_hat(f, [0.0])


def test_reduce_hat_near_pole_jet_remainder():
    # a0 = -1, A0 = 2, and m_reg(t, y) = (sin t - t)/t^2 + t y^2 exactly
    def f(xi, y):
        return 2.0 * y - series.sin(xi) - xi * y * y

    p = singular.reduce_hat(f, [0.0])
    assert p.jet_capable
    for t in (9e-3, 1e-3, 1e-5):        # below the switch to the direct form
        for y in (0.0, 0.7, -1.3):
            want = -t / 6 + t ** 3 / 120 - t ** 5 / 5040 + t * y * y
            assert p.m_reg(t, np.array([y]))[0] == \
                pytest.approx(want, rel=1e-13, abs=1e-300)


def test_reduce_hat_solution_satisfies_original():
    # transport the hat solution back and check the unreduced equation
    p = singular.reduce_hat(riccati, [0.0], t_end=0.5)
    traj = singular.solve(p, tol=1e-11)
    for t in (0.05, 0.2, 0.45):
        w = traj.value(t)[0]
        dw = traj.derivative(t)[0]
        Y, dY = t * w, w + t * dw
        assert abs(dY + (Y * Y + t) / t) < 1e-8


def test_weakly_nonlinear_pass():
    rep = singular.check_weakly_nonlinear(lambda xi, y: y + xi * y * y, 1)
    assert rep.passed
    assert rep.witness is None


def test_weakly_nonlinear_witnesses():
    def cross(xi, y):
        return np.array([y[0] + y[0] * y[1], y[1]], dtype=object)

    rep = singular.check_weakly_nonlinear(cross, 2)
    assert not rep.passed
    assert rep.witness == "y1*y2"
    assert rep.component == 0

    def cubic(xi, y):
        return np.array([y[0], y[1] + y[0] ** 3], dtype=object)

    rep = singular.check_weakly_nonlinear(cubic, 2)
    assert not rep.passed
    assert rep.witness == "y1^3"
    assert rep.component == 1


def test_weakly_nonlinear_guards():
    with pytest.raises(ValidationError):
        singular.check_weakly_nonlinear(lambda xi, y: y, 1, order=1)

    def opaque(xi, y):
        return np.array([float(y[0])])

    with pytest.raises(ValidationError, match="probe raised TypeError"):
        singular.check_weakly_nonlinear(opaque, 1)

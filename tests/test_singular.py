"""Singular initial value problems: admissibility, bootstrap, handoff."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from regsing import cli, geometry, rk, series, singular
from regsing.errors import (AdmissibilityError, EvalDomainError,
                            NumericalError, ValidationError)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def test_a_jacobian_norm_above_the_order_is_admissible():
    # |J| = 40 >= 10: the scan, not the order, rules out every h
    p = singular.SingularIVP(lambda y: -40.0 * y, lambda t, y: y * 0.0,
                             np.array([0.0]), 1.0)
    rep = singular.check_admissibility(p, order=10)
    assert rep.verdict            # no resonance: spectrum is negative


def _resonant_at_3():
    maps = singular.AffineSingularMaps([[3.0]], g=["-1"])
    return maps.problem([0.0], 1.0)


@pytest.mark.parametrize("order", [0, -3])
def test_admissibility_rejects_an_order_that_scans_nothing(order):
    # with no h scanned the resonance at h = 3 went unseen: verdict True
    with pytest.raises(ValidationError, match="order"):
        singular.check_admissibility(_resonant_at_3(), order)


def test_admissibility_scan_stops_where_the_norm_bound_clears(monkeypatch):
    # sigma_min(h I - J) >= h - mu(J) = h - 3, so no h past 3 can be
    # singular; the scan used to run one SVD per h up to the order
    real, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = singular.check_admissibility(_resonant_at_3(), 10 ** 9)
    assert rep.offending_h == [3]
    assert not rep.verdict
    assert rep.order == 10 ** 9
    assert len(calls) == 3
    # mu(J) = -1e5: no h can be offending, so no SVD runs; the |J|_2 bound
    # ran ~1e5 of them
    calls.clear()
    rep = singular.check_admissibility(
        singular.AffineSingularMaps([[-1e5]]).problem([0.0], 1.0), 10 ** 9)
    assert rep.verdict and rep.offending_h == []
    assert calls == []
    # mu(J) = MAX_SCAN + 0.5 takes exactly MAX_SCAN SVDs; one index more
    # raises before any SVD runs, where the scan would have run for hours
    # at mu(J) = 1e9
    top = singular.MAX_SCAN
    rep = singular.check_admissibility(
        singular.AffineSingularMaps([[top + 0.5]]).problem([0.0], 1.0))
    assert rep.verdict and len(calls) == top
    calls.clear()
    with pytest.raises(NumericalError, match="MAX_SCAN"):
        singular.check_admissibility(
            singular.AffineSingularMaps([[top + 1.5]]).problem([0.0], 1.0))
    assert calls == []


def _full_scan(J):
    # the scan that the early stop replaces: every h up to |J|_2 + 2, past
    # which sigma_min(h I - J) >= h - |J|_2 clears the threshold
    normJ = np.linalg.norm(J, 2)
    return [h for h in range(1, int(normJ) + 3)
            if np.linalg.svd(h * np.eye(len(J)) - J, compute_uv=False)[-1]
            < singular.EPS_INVERTIBLE * (h + normJ)]


@pytest.mark.parametrize("C", [
    [[5.0, 0.0], [0.0, 2.0]],              # top eigenvalue is the norm
    [[4.0, 30.0], [0.0, 1.0]],             # non-normal: |J|_2 >> spectrum
    [[3.0 + 1e-9, 0.0], [0.0, -1.0]],      # within the singularity margin
    [[6.0, 1.0], [0.0, 6.0]],              # Jordan block at h = 6
    [[-0.5, 0.0], [0.0, 0.25]],            # nothing offending
])
@pytest.mark.parametrize("order", [1, 4, 7, 40])
def test_admissibility_scan_matches_the_full_scan(C, order):
    # whatever the order: a bootstrap continued past it meets every h
    rep = singular.check_admissibility(
        singular.AffineSingularMaps(C).problem([0.0, 0.0], 1.0), order)
    assert rep.offending_h == _full_scan(np.array(C))


def test_a_jacobian_that_is_not_finite_is_a_numerical_error():
    # it escaped as numpy's LinAlgError ("SVD did not converge")
    p = singular.AffineSingularMaps([[math.nan]], g=["-1"]).problem(
        [0.0], 1.0)
    with pytest.raises(NumericalError, match="not finite"):
        singular.check_admissibility(p)
    # the problem keeps its J, and every check reads it again
    with pytest.raises(NumericalError, match="not finite"):
        singular.solve(p)


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


def _blackbox(m_reg, y0=0.0, t_end=4.0):
    # y' = m_reg(t, y) as a black box: choose_handoff never grows its series
    return singular.SingularIVP(lambda y: y * 0.0, m_reg, [y0], t_end,
                                jet_capable=False)


def test_choose_handoff_cases():
    # |y_10| = 1 and tol = 1e-10 puts the switch exactly at 0.1; y = t^10
    # solves y' = 10 t^9
    coeffs = np.zeros((11, 1))
    coeffs[10, 0] = 1.0
    assert singular._tail_handoff(coeffs, 1e-10, 2.0) == pytest.approx(0.1)
    p = _blackbox(lambda t, y: y * 0.0 + 10.0 * t ** 9)
    t0, y, got, r, tries = singular.choose_handoff(p, coeffs, 1e-10)
    assert t0 == pytest.approx(0.1) and tries == 1
    assert y[0] == pytest.approx(0.1 ** 10)
    assert got.tobytes() == coeffs.tobytes()

    # geometric growth 2^h, the series of y = 1/(1 - 2t), which solves
    # y' = 2 y^2: t0 = (tol / 2^10)^(1/10), value is partial sum
    geo = (2.0 ** np.arange(11))[:, None]
    p = _blackbox(lambda t, y: 2.0 * y * y, y0=1.0)
    t0, y, _, r, tries = singular.choose_handoff(p, geo, 1e-10)
    assert t0 == pytest.approx((1e-10 / 2 ** 10) ** 0.1) and tries == 1
    part = sum((2 * t0) ** h for h in range(11))
    assert y[0] == pytest.approx(part, rel=1e-14)

    # zero top coefficient: cap wins, including the t_end/2 clamp, and the
    # series is not grown
    flat = np.zeros((11, 1))
    flat[0, 0] = 5.0
    p = singular.SingularIVP(lambda y: y * 0.0, lambda t, y: y * 0.0, [5.0],
                             0.1)
    assert p.jet_capable
    t0, y, got, r, tries = singular.choose_handoff(p, flat, 1e-10)
    assert t0 == pytest.approx(0.05)
    assert y[0] == pytest.approx(5.0)
    assert got.shape == (11, 1) and r == 0.0 and tries == 1

    # hopeless tail underflows the floor
    bad = np.zeros((2, 1))
    bad[1, 0] = 1e20
    with pytest.raises(NumericalError, match="order-1 series tail"):
        singular.choose_handoff(_blackbox(lambda t, y: y * 0.0), bad, 1e-12)


def test_choose_handoff_checks_the_state_it_hands_off():
    # planted fault: y_10 = 0, so the tail estimate alone hands off at the
    # cap 0.5 with a state error of 0.144
    p, tol = _parity_fault(), 1e-10
    t0, y, coeffs, r, tries = singular.choose_handoff(
        p, singular.bootstrap_series(p, 10), tol)
    exact = math.sinh(10.0 * t0) / 10.0
    assert abs(y[0] - exact) <= tol * (1.0 + abs(exact))
    assert tries > 1 and t0 < 0.1


@pytest.mark.parametrize("shape", [(1, 2), (11, 1), (11, 3), (11,)],
                         ids=["order-0", "narrow", "wide", "flat"])
def test_choose_handoff_rejects_a_series_of_the_wrong_shape(shape):
    # a one-row series divided by its order 0
    p = _ROWS["sphere"]()                  # k = 2
    coeffs = np.zeros(shape)
    coeffs[0] = 0.35
    with pytest.raises(ValidationError, match="series"):
        singular.choose_handoff(p, coeffs, 1e-10)


def test_solve_calls_each_primitive_once_through_the_module(monkeypatch):
    # the tracer and this counter hook the module's names; a solve that
    # inlines a step reads 0 for it
    names = ("check_admissibility", "bootstrap_series", "choose_handoff",
             "integrate")
    calls = []
    for name in names:
        def counted(*args, _real=getattr(singular, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(singular, name, counted)
    blackbox = singular.SingularIVP(lambda y: -2.0 * y,
                                    lambda t, y: y * 0.0 + math.sin(t),
                                    [0.0], 1.0)
    for p in (_ROWS["sphere"](), _parity_fault(), blackbox):
        calls.clear()
        singular.solve(p, tol=1e-10)
        assert sorted(calls) == sorted(names)


def test_integrate_from_a_state_at_t0():
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = singular.integrate(p, 0.05, [0.05 / 3.0], tol=1e-10)
    assert traj.value(2.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    with pytest.raises(ValidationError):
        traj.value(0.01)       # no series part below the handoff
    with pytest.raises(ValidationError):
        singular.integrate(p, 3.0, [1.0])  # t0 beyond t_end


@pytest.mark.parametrize("y", [[0.0, 0.7, 0.0, 0.0], [0.0]],
                         ids=["four", "one"])
def test_integrate_rejects_a_state_of_the_wrong_width(y):
    # a 4-vector on a harmonic problem (k = 2) integrated the biharmonic
    # rows; a 1-vector raised IndexError
    with pytest.raises(ValidationError, match="y_t0"):
        singular.integrate(_ROWS["sphere"](), 0.5, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_initial_value_is_rejected_up_front(bad):
    # a NaN state bootstrapped a NaN series, and solve then blamed tol
    with pytest.raises(ValidationError, match="y0"):
        singular.SingularIVP(lambda y: y * 0.0, lambda t, y: y * 0.0,
                             [0.0, bad], 1.0)
    sphere = geometry.MetricFamily.from_diagonal(["sin(t)^2"] * 2, dim_p=2)
    with pytest.raises(ValidationError, match="y0"):
        geometry.solve_harmonic(sphere, bad, 1.0)


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


def test_rhs_calls_counts_the_integrator_calls_of_rhs(monkeypatch):
    calls = []
    real_rhs = singular.SingularIVP.rhs

    def rhs(self, t, y):
        calls.append(t)
        return real_rhs(self, t, y)

    monkeypatch.setattr(singular.SingularIVP, "rhs", rhs)
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = singular.integrate(p, 0.05, [0.05 / 3.0], tol=1e-10)
    assert traj.diagnostics["rhs_calls"] == len(calls) > 0
    # solve's handoff check reads the residual, one rhs call per try
    calls.clear()
    traj = singular.solve(p, tol=1e-10)
    d = traj.diagnostics
    assert d["rhs_calls"] == len(calls) - d["handoff_tries"]


def test_solve_explicit_handoff_and_bounds(start_at):
    # solve takes no handoff; the primitives start anywhere in (0, t_end)
    p = linear_forced(lambda t, y: y * 0.0 + 1.0)
    traj = start_at(p, 0.03)
    assert traj.handoff == pytest.approx(0.03)
    assert traj.value(1.0)[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    with pytest.raises(ValidationError):
        start_at(p, 5.0)


def test_solve_blackbox_order_clamp():
    def m_sing(y):
        return np.array([-2.0 * float(y[0])])

    def m_reg(t, y):
        return np.array([1.0 + float(t)])

    p = singular.SingularIVP(m_sing, m_reg, np.array([0.0]), 1.0,
                             jet_capable=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = singular.solve(p)
    assert traj.diagnostics["series_order"] == 4
    # y' = -2y/t + 1 + t -> y = t/3 + t^2/4
    assert traj.value(0.8)[0] == pytest.approx(0.8 / 3 + 0.16, abs=1e-7)


def test_a_default_blackbox_solve_warns_nothing():
    # black-box maps bootstrap at order 4; solve used to warn "order capped
    # at 4" about an order the caller never set
    p = singular.SingularIVP(lambda y: -2.0 * y,
                             lambda t, y: np.array([math.cos(t)]),
                             np.array([0.0]), 1.0)
    assert not p.jet_capable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = singular.solve(p)
    assert traj.diagnostics["series_order"] == 4


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
    y0 = series.eval_truncated(singular.bootstrap_series(p), 0.1)
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


def test_a_defect_below_the_rounding_of_f_does_not_stop_the_solve():
    # y' = (1e15/(1 + 2e7 t) - y)/t from y(0) = 0: at the handoff ~1.4e-8,
    # eps |f| ~ 0.08 exceeds the defect bound 10 tol (1 + |y|) ~ 6e-3, and
    # a bound without the rounding of f failed every step until "step size
    # underflow"
    tol = 1e-10
    p = singular.AffineSingularMaps([[-1]], g=["1e15/(1 + 2e7*t)"]).problem(
        [0.0], 1.0)
    traj = singular.solve(p, tol=tol)
    want = 5e7 - 2.5 * math.log1p(2e7)
    assert traj.value(1.0)[0] == pytest.approx(want, rel=1e-12)
    assert math.isfinite(traj.diagnostics["max_residual"])


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


def test_handoff_residual_reads_the_series_at_the_handoff(start_at):
    # an unchecked start: the order-9 series of y' = -y/t + sinh t at t = 1
    # has a state error of ~2.5e-7, which the integrator's residual cannot
    # see, and the series residual there can
    aff = singular.AffineSingularMaps([[-1.0]], g=["sinh(t)"])
    traj = start_at(aff.problem([0.0], 2.0), 1.0, order=9)
    assert traj.diagnostics["max_residual"] <= 100 * 1e-10
    assert traj.residual(1.0) > 1e4 * 1e-10
    # solve's handoff_residual is that series residual at the handoff it
    # chose, here after more than one candidate
    p = _parity_fault()
    traj = singular.solve(p, tol=1e-10)
    d = traj.diagnostics
    t0 = d["handoff"]
    assert d["handoff_tries"] > 1
    c = traj.coeffs
    powers = np.arange(c.shape[0])
    dy = (powers[1:, None] * c[1:] * t0 ** (powers[1:, None] - 1)).sum(0)
    y = (c * t0 ** powers[:, None]).sum(0)
    assert d["handoff_residual"] == pytest.approx(
        float(np.max(np.abs(dy - p.rhs(t0, y)))), rel=1e-9)
    # a handoff chosen where the series holds reads far below tol
    for row in ("sphere", "affine", "flat3"):
        d = singular.solve(_ROWS[row](), tol=1e-10).diagnostics
        assert d["handoff_residual"] <= 0.1 * 1e-10


def _parity_fault():
    # y' = cosh(10 t), exact y = sinh(10 t)/10: odd, so y_10 = 0 and the
    # last coefficient sees no tail at all
    aff = singular.AffineSingularMaps([[0.0]], g=["cosh(10*t)"])
    return aff.problem([0.0], 1.0)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_handoff_check_catches_a_series_whose_last_coefficient_is_zero(tol):
    # planted fault: the tail estimate alone hands off at the cap, 0.1,
    # with a state error of 2.5e-9 at every tol
    traj = singular.solve(_parity_fault(), tol=tol)
    t0 = traj.diagnostics["handoff"]
    assert t0 < 0.1
    exact = math.sinh(10.0 * t0) / 10.0
    assert abs(traj.value(t0)[0] - exact) <= tol * (1.0 + abs(exact))
    if tol == 1e-12:
        exact = math.sinh(10.0) / 10.0
        assert abs(traj.value(1.0)[0] - exact) <= tol * (1.0 + abs(exact))


def test_handoff_tries_counts_the_candidates_the_check_read():
    assert singular.solve(_parity_fault(),
                          tol=1e-10).diagnostics["handoff_tries"] > 1
    for row in sorted(_ROWS):
        d = singular.solve(_ROWS[row](), tol=1e-10).diagnostics
        assert d["handoff_tries"] == 1, row


def _biharmonic_sphere():
    return geometry.assemble_biharmonic(
        geometry.MetricFamily.from_diagonal(["sin(t)^2", "sin(t)^2"],
                                            dim_p=2), 0.6, 0.3, 1.2)


@pytest.mark.parametrize("make", [_ROWS["sphere"], _ROWS["block"],
                                  _biharmonic_sphere, _ROWS["affine"]],
                         ids=["sphere", "block", "biharmonic", "affine"])
def test_a_continued_series_has_the_bytes_of_a_direct_bootstrap(make):
    # stage h reads only rows below h, so growing the order-10 series that
    # solve bootstraps first costs no second bootstrap
    p = make()
    base = singular.bootstrap_series(p, 10)
    for order in (20, singular.MAX_ORDER):
        got = singular._bootstrap_stages(p, base, order)
        assert got.tobytes() == singular.bootstrap_series(p, order).tobytes()
        assert got[:11].tobytes() == base.tobytes()


def test_solve_continues_the_series_only_where_its_tail_stops_the_handoff():
    # sphere at 1e-12: the order-10 tail hands off near 0.1, so the same
    # series continues to round(-ln 1e-12) = 28 and hands off further out
    p = _ROWS["sphere"]()
    traj = singular.solve(p, tol=1e-12)
    d = traj.diagnostics
    assert d["series_order"] == 28
    assert d["handoff"] > 0.3 and d["handoff_tries"] == 1
    assert traj.coeffs.tobytes() == singular.bootstrap_series(p, 28).tobytes()
    # an exact polynomial series (top coefficient 0) reaches the cap
    # t_end / 2 at order 10 and is not continued
    flat = geometry.assemble_harmonic(
        geometry.MetricFamily.from_diagonal(["t^2", "t^2", "1 + t^2"],
                                            dim_p=2), 1.3, 1.0)
    d = singular.solve(flat, tol=1e-12).diagnostics
    assert d["series_order"] == 10 and d["handoff"] == 0.5


def test_a_problem_takes_its_jacobian_once():
    # the sphere at 1e-12 grows its series to 28 in choose_handoff, and
    # its profile stage calls no map: k jet calls of m_sing (wrapped after
    # the problem is built, as the tracer wraps it) are the one Jacobian
    # that admissibility, the bootstrap and the growth all read
    p = _ROWS["sphere"]()
    m_sing, calls = p.m_sing, []

    def counted(y):
        calls.append(np.asarray(y).dtype == object)
        return m_sing(y)

    p.m_sing = counted
    traj = singular.solve(p, tol=1e-12)
    assert traj.diagnostics["series_order"] == 28
    assert sum(calls) == p.k
    rep = singular.check_admissibility(p)
    singular.bootstrap_series(p, 10)
    assert sum(calls) == p.k
    assert rep.jacobian is p.jacobian
    assert rep.jacobian is traj.diagnostics["admissibility"].jacobian


def test_the_jacobian_is_read_only():
    p = _ROWS["affine"]()
    rep = singular.check_admissibility(p)
    with pytest.raises(ValueError, match="read-only"):
        rep.jacobian[0, 0] = 5.0
    with pytest.raises(AttributeError):
        p.jacobian = np.zeros((2, 2))
    with pytest.raises(TypeError):
        singular.SingularIVP(p.m_sing, p.m_reg, p.y0, p.t_end,
                             jacobian=np.zeros((2, 2)))
    np.testing.assert_array_equal(p.jacobian, [[0.0, 1.0], [0.0, -3.0]])


def test_solve_continues_to_max_order_where_the_tol_order_stops_short():
    # a solution of size 5e6 at t = 1: the absolute tail estimate at order
    # round(-ln 1e-8) = 18 allows no handoff above T_FLOOR, order 30 does,
    # and the residual check accepts that handoff at its first read
    p = singular.AffineSingularMaps([[-1.0]], g=["1e14/(1 + 2e7*t)"]).problem(
        [0.0], 1.0)
    tol = 1e-8
    base = singular.bootstrap_series(p, 18)
    assert singular._tail_handoff(base, tol, 0.5) < singular.T_FLOOR
    # so the handoff rule grows a series handed to it at order 18 to 30
    _, _, grown, _, _ = singular.choose_handoff(p, base, tol)
    assert len(grown) == singular.MAX_ORDER + 1
    traj = singular.solve(p, tol=tol)
    d = traj.diagnostics
    assert d["series_order"] == 30 and d["handoff"] > singular.T_FLOOR
    assert d["handoff_tries"] == 1
    # (t y)' = t g, so y(1) = 5e6 - ln(1 + 2e7) / 4
    want = 5e6 - math.log1p(2e7) / 4.0
    assert traj.value(1.0)[0] == pytest.approx(want, rel=1e-12)


def test_a_tail_too_steep_at_every_order_names_tol_and_t_end():
    # radius 1e-8: even the order-30 tail allows no handoff above T_FLOOR
    aff = singular.AffineSingularMaps([[-1.0]], g=["1/(1 - 1e8*t)"])
    p = aff.problem([0.0], 1.0)
    with pytest.raises(NumericalError, match=r"order-30 series tail") as ei:
        singular.solve(p, tol=1e-10)
    msg = str(ei.value)
    assert "tol = 1.0e-10" in msg and "t_end = 1.0" in msg
    assert "series order" not in msg        # solve takes no order
    # the handoff rule raises it, whoever calls it
    with pytest.raises(NumericalError, match=r"order-30 series tail") as ei:
        singular.choose_handoff(p, singular.bootstrap_series(p, 10), 1e-10)
    msg = str(ei.value)
    assert "tol = 1.0e-10" in msg and "t_end = 1.0" in msg


def test_a_series_that_holds_the_ode_nowhere_names_tol_and_t_end():
    # planted fault: a field 1 off the maps, so the series residual is 1
    # at every candidate
    q = linear_forced(lambda t, y: y * 0.0 + 1.0)
    p = singular.SingularIVP(q.m_sing, q.m_reg, q.y0, q.t_end,
                             field=lambda t, y: q.rhs(t, y) + 1.0)
    with pytest.raises(NumericalError, match="holds the ODE") as ei:
        singular.solve(p, tol=1e-10)
    msg = str(ei.value)
    assert "tol = 1.0e-10" in msg and "t_end = 2.0" in msg
    # the handoff rule raises it, whoever calls it
    with pytest.raises(NumericalError, match="holds the ODE") as ei:
        singular.choose_handoff(p, singular.bootstrap_series(p), 1e-10)
    msg = str(ei.value)
    assert "tol = 1.0e-10" in msg and "t_end = 2.0" in msg


def test_solve_rejects_an_index_resonant_above_the_series_order():
    # h = 7 lies above the black-box order 4, h = 12 above the order 10
    # the bootstrap starts at; both used to solve
    bb = singular.SingularIVP(lambda y: 7.0 * y,
                              lambda t, y: y * 0.0 + math.sin(t), [0.0], 1.0)
    assert not bb.jet_capable
    aff = singular.AffineSingularMaps([[12.0]], g=["sin(t)"]).problem(
        [0.0], 1.0)
    for p, h in ((bb, 7), (aff, 12)):
        assert singular.check_admissibility(p).offending_h == [h]
        with pytest.raises(AdmissibilityError) as ei:
            singular.solve(p)
        assert ei.value.report.offending_h == [h]


def test_a_t_end_below_twice_the_floor_is_blamed_on_t_end():
    # the cap t_end / 2 falls below T_FLOOR; this used to read as a series
    # tail too large for tol
    aff = singular.AffineSingularMaps([[-1.0]], g=["sinh(t)"])
    with pytest.raises(ValidationError, match="t_end"):
        singular.solve(aff.problem([0.0], 1e-8), tol=1e-10)


@pytest.mark.parametrize("tol", [-1e-10, 0.0, math.nan, math.inf])
def test_solve_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # tol = -1e-10 made every defect ratio negative, so the defect check
    # passed every step, and the solve ran out its step budget at t = 0.112
    calls = {"n": 0}

    def forcing(t, y):
        calls["n"] += 1
        return y * 0.0 + 1.0

    p = linear_forced(forcing)
    with pytest.raises(ValidationError, match="tol"):
        singular.solve(p, tol=tol)
    assert calls["n"] <= 20         # the jet probe and the bootstrap
    coeffs = singular.bootstrap_series(p)
    with pytest.raises(ValidationError, match="tol"):
        singular.choose_handoff(p, coeffs, tol)


def test_an_infinite_t_end_is_rejected():
    with pytest.raises(ValidationError, match="finite"):
        linear_forced(lambda t, y: y * 0.0 + 1.0, t_end=math.inf)


_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _config_problem(name):
    cfg = json.loads((_CONFIGS / f"{name}.json").read_text())
    if "C" in cfg:
        maps = singular.AffineSingularMaps(cfg["C"], S=cfg["S"], g=cfg["g"])
        return maps.problem(cfg["y0"], cfg["t_end"])
    fam = cli._metric_family(cfg, name)
    if "w" in cfg:
        return geometry.assemble_biharmonic(fam, cfg["v"], cfg["w"],
                                            cfg["t_end"])
    return geometry.assemble_harmonic(fam, cfg["v"], cfg["t_end"])


def _ref_horner(rows, t):
    # row h multiplies t^h
    acc = rows[-1].astype(float).copy()
    for row in rows[-2::-1]:
        acc = acc * t + row
    return acc


@pytest.mark.parametrize(
    "name", ["sphere_identity", "biharmonic_flat", "affine_singular"])
def test_series_part_reads_match_a_horner_sum_bit_for_bit(name):
    traj = singular.solve(_config_problem(name), tol=1e-10)
    c, t0 = traj.coeffs, traj.handoff
    dc = np.arange(1, len(c))[:, None] * c[1:]
    for t in (0.0, 1e-3, 0.37 * t0, t0):
        y, dy = traj.value(t), traj.derivative(t)
        assert y.tobytes() == _ref_horner(c, t).tobytes()
        assert dy.tobytes() == _ref_horner(dc, t).tobytes()
        y[:] = dy[:] = math.nan      # reads are fresh arrays
    assert np.isfinite(traj.coeffs).all()


def test_affine_jets_are_truncations_of_one_expansion():
    aff = singular.AffineSingularMaps(
        C=[[-1.0, 0.5], [0.0, -2.0]],
        S=[["0.7*sin(1.3*t)", "t^2"], ["exp(-0.4*t) - 1", "1/(2 + t)"]],
        g=["cos(t) - 1", "sqrt(1 + t)*log(1 + t^2)"])
    y = np.array([Series([0.3, -1.2, 0.5]), Series([1.1, 0.0, -0.0])],
                 dtype=object)

    def check(order):
        # the one row cache: its first order + 1 coefficients are a direct
        # expansion at order, and the jet branch of m_reg reads them
        rows = aff._coeff_rows(order)
        for got, want in zip(rows, (aff._S.taylor(0.0, order),
                                    aff._g.taylor(0.0, order))):
            assert got.shape[:-1] == want.shape and got.shape[-1] > order
            for a, b in zip(got.reshape(-1, got.shape[-1]), want.flat):
                assert a.dtype == b.coeffs.dtype
                assert a[:order + 1].tobytes() == b.coeffs.tobytes()
        out = aff.m_reg(series.identity(order), y)
        want = aff._S.taylor(0.0, order) @ y + aff._g.taylor(0.0, order)
        for a, b in zip(out, want):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
        return rows

    first = check(0)
    for order in range(1, singular.MAX_ORDER + 1):
        assert all(a is b for a, b in zip(check(order), first))
    higher = check(singular.MAX_ORDER + 5)      # expands again, higher
    assert higher[0].shape[-1] == singular.MAX_ORDER + 6
    for order in (0, 1, 7, singular.MAX_ORDER, singular.MAX_ORDER + 5):
        assert all(a is b for a, b in zip(check(order), higher))


_STAGE_TERMS = ("{a}*sin({w}*t)", "{a}*t^2", "{a}*cos({w}*t) - {a}",
                "{a}*exp({w}*t)")


def _stage_entries(rng, n):
    # the four term kinds of the jet_bootstrap workload, in turn
    return [_STAGE_TERMS[i % 4].format(a=rng.uniform(-1.0, 1.0),
                                       w=rng.uniform(0.5, 2.0))
            for i in range(n)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("blocks", ["S and g", "S only", "g only", "neither"])
def test_the_affine_row_stage_has_the_bytes_of_the_series_adapter(k, blocks):
    rng = np.random.default_rng(35 + k)
    C = np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1) - np.diag(
        rng.uniform(0.3, 2.5, k))
    y0 = rng.uniform(-1.0, 1.0, k)
    y0[0] = 0.0                 # zero products, signed zeros among them
    S = np.array(_stage_entries(rng, k * k), dtype=object).reshape(k, k)
    g = _stage_entries(rng, k)
    aff = singular.AffineSingularMaps(
        C, c=-C @ y0, S=S if "S" in blocks else None,
        g=g if "g" in blocks else None)
    prob = aff.problem(y0, 1.0)
    calls = {"jet": 0}

    def m_reg(t, y):
        calls["jet"] += isinstance(t, Series)
        return aff.m_reg(t, y)

    # the same maps without the stage field bootstrap through the adapter,
    # which calls m_reg on Series jets
    maps = singular.SingularIVP(aff.m_sing, m_reg, y0, 1.0,
                                jet_capable=True)
    assert prob.stage is not None and maps.stage is None
    for K in range(1, singular.MAX_ORDER + 1):
        got = singular.bootstrap_series(prob, K)
        want = singular.bootstrap_series(maps, K)
        assert got.tobytes() == want.tobytes(), K
    assert calls["jet"] == sum(range(1, singular.MAX_ORDER + 1))


@pytest.mark.parametrize("where", ["S", "g"])
@pytest.mark.parametrize("text,message", [
    ("log(t)", "log of series with zero constant term"),
    ("sqrt(t - 1)", "sqrt of series with negative base -1.0"),
    ("t^(1/0)", "division by zero"),
])
def test_a_non_analytic_affine_entry_fails_at_the_bootstrap(where, text,
                                                            message):
    # nothing is expanded when the problem is built; the bootstrap's first
    # stage expands S and g and raises what the entry's expansion raises
    S = [["0.5*t", "0"], ["1", "0.5*t"]]
    g = ["1", "sin(t)"]
    (S[1] if where == "S" else g)[1] = text
    p = singular.AffineSingularMaps(-np.eye(2), S=S, g=g).problem(
        np.zeros(2), 1.0)
    for run in (lambda: singular.bootstrap_series(p, 10),
                lambda: singular.solve(p)):
        with pytest.raises(EvalDomainError) as ei:
            run()
        assert str(ei.value) == message
    # S is expanded before g, so a bad S entry is the one reported
    both = singular.AffineSingularMaps(
        -np.eye(1), S=[["log(t)"]], g=["sqrt(t - 1)"]).problem([0.0], 1.0)
    with pytest.raises(EvalDomainError, match="log of series"):
        singular.bootstrap_series(both, 10)


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


def test_initial_derivative_blackbox_keeps_its_central_difference():
    # a map that takes no jets gets a0 from the order-1 central difference
    # at h = eps^(1/3): the bytes of (f(h) - f(-h)) / (2 h)
    def f(xi, y):
        xi = float(xi)
        return np.array([3.0 * y[0] - math.sin(xi) + xi * xi * y[1],
                         math.expm1(0.7 * xi) - 0.5 * y[1] + xi * y[0]])

    Y0 = np.zeros(2)
    h = np.finfo(float).eps ** (1 / 3)
    a0 = (f(h, Y0) - f(-h, Y0)) / (2 * h)
    _, _, B, _, probe_error = singular._pole_data(f, Y0)
    assert probe_error is not None
    assert (singular.initial_derivative(f, Y0).tobytes()
            == np.linalg.solve(B, -a0).tobytes())


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
    # top coefficient comes from an order-5 difference stencil of f;
    # accuracy degrades to ~1.5e-5 there
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
    for t in (9e-3, 1e-3, 1e-5):        # where a direct form would cancel
        for y in (0.0, 0.7, -1.3):
            want = -t / 6 + t ** 3 / 120 - t ** 5 / 5040 + t * y * y
            jet = p.m_reg(series.identity(11), np.array([y]))[0]
            assert series.eval_truncated(jet, t) == \
                pytest.approx(want, rel=1e-13, abs=1e-300)


def sine_hat_maps():
    """f = 2Y - sin xi - xi Y^2 as a black box and on jets: a0 = -1, A0 =
    2, and the hat field is (1 - 3 w)/xi + (sin xi - xi)/xi^2 + xi w^2."""
    def blackbox(xi, y):
        x, v = float(xi), float(y[0])
        return np.array([2.0 * v - math.sin(x) - x * v * v])

    def jets(xi, y):
        return 2.0 * y - series.sin(xi) - xi * y * y

    return blackbox, jets


def sine_hat_field(t, w):
    # (sin t - t)/t^2 by its series below 1e-2, where the difference cancels
    reg = (math.sin(t) - t) / (t * t) if t >= 1e-2 else \
        -t / 6 + t ** 3 / 120 - t ** 5 / 5040 + t ** 7 / 362880
    return (1.0 - 3.0 * w) / t + reg + t * w * w


@pytest.mark.parametrize("which", ["blackbox", "jets"])
def test_hat_rhs_is_the_closed_form_on_both_sides_of_the_switch(which):
    # the field is -(w + f(xi, xi w)/xi)/xi at every xi, on both sides of
    # the reference's own switch to its series at 1e-2
    blackbox, jets = sine_hat_maps()
    f = blackbox if which == "blackbox" else jets
    p = singular.reduce_hat(f, [0.0])
    assert p.jet_capable == (which == "jets")
    for t in (1e-5, 1e-3, 5e-3, 9.9e-3, 1.01e-2, 0.05, 0.5):
        for w in (0.0, 0.7, -1.3):
            assert p.rhs(t, np.array([w]))[0] == \
                pytest.approx(sine_hat_field(t, w), rel=1e-14), (t, w)


def test_blackbox_hat_bootstrap_takes_one_stencil_per_stage():
    # f = 2Y - 2 + sin(xi) e^xi + xi Y^2 at Y0 = 1: one order-5 stencil of
    # f puts y_4 within 3.2e-6 of the jets' -0.0555; a difference of a
    # float m_reg that is itself built from stencils misses it by 0.43
    def blackbox(xi, y):
        x, v = float(xi), float(y[0])
        return np.array([2.0 * v - 2.0 + math.sin(x) * math.exp(x)
                         + x * v * v])

    def jets(xi, y):
        return 2.0 * y - 2.0 + series.sin(xi) * series.exp(xi) + xi * y * y

    bb = singular.reduce_hat(blackbox, [1.0])
    assert not bb.jet_capable
    want = singular.bootstrap_series(singular.reduce_hat(jets, [1.0]), 4)
    np.testing.assert_allclose(singular.bootstrap_series(bb, 4), want,
                               rtol=0, atol=1e-5)


@pytest.mark.parametrize("which", ["blackbox", "jets"])
def test_hat_m_reg_takes_time_jets_only(which):
    blackbox, jets = sine_hat_maps()
    p = singular.reduce_hat(blackbox if which == "blackbox" else jets, [0.0])
    for t in (1e-3, 0.5):
        with pytest.raises(ValidationError, match="time jet"):
            p.m_reg(t, np.array([0.7]))


def test_blackbox_hat_solve_agrees_with_the_jet_capable_one():
    blackbox, jets = sine_hat_maps()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bb = singular.solve(singular.reduce_hat(blackbox, [0.0]), tol=1e-10)
    assert bb.diagnostics["series_order"] == 4
    jt = singular.solve(singular.reduce_hat(jets, [0.0]), tol=1e-10)
    ts = np.linspace(0.02, 1.0, 50)
    gap = max(abs(bb.value(t)[0] - jt.value(t)[0]) for t in ts)
    assert gap <= 1e-9
    for traj in (bb, jt):
        assert max(traj.residual(t) for t in ts) <= 1e-7


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

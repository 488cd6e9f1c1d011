"""Rotationally reduced harmonic and biharmonic profile equations."""

import math

import numpy as np
import pytest

from regsing import cli, expr, geometry, series, singular
from regsing.errors import (ConfigError, EvalDomainError, NumericalError,
                            StructureError, ValidationError)
from regsing.series import Series


def flat3():
    # P = diag(t^2, t^2, 1 + t^2): drift 2/t + t/(1+t^2),
    # potential 2 rho/t^2 + rho/(1+t^2)
    return geometry.MetricFamily.from_diagonal(
        ["t^2", "t^2", "1 + t^2"], dim_p=2)


def sphere():
    # round sphere block: drift 2 cot t, potential sin(2 rho)/sin^2 t
    return geometry.MetricFamily.from_diagonal(
        ["sin(t)^2", "sin(t)^2"], dim_p=2)


def test_constructor_validation():
    with pytest.raises(ValidationError):
        geometry.MetricFamily.from_entries([["t^2", "0"]], dim_p=1)
    with pytest.raises(ValidationError):
        geometry.MetricFamily.from_diagonal(["t^2"], dim_p=2)
    with pytest.raises(ValidationError):
        geometry.MetricFamily.from_diagonal(["t^2"], dim_p=0)
    fam = geometry.MetricFamily.from_diagonal(["t^2", "1"], dim_p=1,
                                              alpha="t^2", weight=3)
    assert fam.diagonal and fam.dim_m == 1


def test_pack_rejects_wrong_vanishing_order():
    fam = geometry.MetricFamily.from_diagonal(["t", "1"], dim_p=1)
    with pytest.raises(ValidationError, match="vanish"):
        fam.pack(4)


def test_pack_rejects_indefinite_leading_matrix():
    fam = geometry.MetricFamily.from_diagonal(["-t^2", "1"], dim_p=1)
    with pytest.raises(ValidationError, match="positive definite"):
        fam.pack(4)


def test_trace_quantities_flat_closed_forms():
    fam = flat3()
    for t in (0.5, 1.2):
        assert geometry.trace_drift(fam, t) == pytest.approx(
            2.0 / t + t / (1 + t * t), rel=1e-12)
        for rho in (0.1, 0.8):
            assert geometry.trace_potential(fam, t, rho) == pytest.approx(
                2 * rho / t ** 2 + rho / (1 + t * t), rel=1e-12)
            assert geometry.trace_potential2(fam, t, rho) == pytest.approx(
                2.0 / t ** 2 + 1.0 / (1 + t * t), rel=1e-12)
    # the same closed form near the pole
    t = 1e-3
    assert geometry.trace_drift(fam, t) == pytest.approx(
        2.0 / t + t / (1 + t * t), rel=1e-10)


def test_trace_quantities_sphere_closed_forms():
    fam = sphere()
    assert geometry.trace_drift(fam, 0.7) == pytest.approx(
        2.0 / math.tan(0.7), rel=1e-12)
    assert geometry.trace_potential(fam, 0.5, 0.3) == pytest.approx(
        math.sin(0.6) / math.sin(0.5) ** 2, rel=1e-12)
    assert geometry.trace_potential2(fam, 0.5, 0.3) == pytest.approx(
        2 * math.cos(0.6) / math.sin(0.5) ** 2, rel=1e-12)


def test_trace_read_where_P_underflows_is_a_numerical_error():
    # sin(t)^2 is 0.0 at t = 1e-200; no solve reads below singular.T_FLOOR
    with pytest.raises(NumericalError, match="singular at t = 1e-200"):
        geometry.trace_drift(sphere(), 1e-200)


def test_conformal_factor_enters_drift():
    fam = geometry.MetricFamily.from_diagonal(
        ["sin(t)^2", "sin(t)^2"], dim_p=2, alpha="t^2", weight=3)
    # weight * d(alpha)/dt = 6t on top of 2 cot t
    assert geometry.trace_drift(fam, 0.4) == pytest.approx(
        2.0 / math.tan(0.4) + 2.4, rel=1e-12)
    assert geometry.trace_drift(fam, 0.003) == pytest.approx(
        2.0 / math.tan(0.003) + 0.018, rel=1e-10)


def test_trace_argument_guards():
    fam = flat3()
    with pytest.raises(ValidationError):
        geometry.trace_drift(fam, 0.0)
    with pytest.raises(ValidationError):
        geometry.trace_potential(fam, -1.0, 0.5)
    block = geometry.MetricFamily.from_entries(
        [["t^2", "t^3"], ["t^3", "1"]], dim_p=1)
    with pytest.raises(ValidationError):
        geometry.trace_potential2(block, 0.5, 0.2)
    # t > 0 is checked before the family shape
    for t in (0.0, -0.5):
        with pytest.raises(ValidationError, match="t > 0"):
            geometry.trace_potential2(block, t, 0.2)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0],
                         ids=["nan", "inf", "-inf", "zero"])
def test_trace_quantities_reject_a_non_finite_t(t):
    # nan passed a t <= 0 check and came back as nan; inf reached sin(inf)
    # and raised a bare ValueError
    reads = [lambda fam: geometry.trace_drift(fam, t),
             lambda fam: geometry.trace_potential(fam, t, 0.5),
             lambda fam: geometry.trace_potential2(fam, t, 0.5),
             lambda fam: geometry.tension_residual(fam, t, 0.5, 1.0, 0.0),
             lambda fam: geometry.biharmonic_residual(
                 fam, t, 0.5, 1.0, 0.0, 0.1, 0.2, 0.0)]
    for fam in (sphere(), flat3()):
        for read in reads:
            with pytest.raises(ValidationError, match="finite t > 0"):
                read(fam)


def test_structure_residue_detection():
    # odd term inside the collapsing block leaves a 1/t residue
    bad = geometry.MetricFamily.from_diagonal(["t^2 + t^3", "1"], dim_p=1)
    with pytest.raises(StructureError):
        geometry.check_structure(bad)
    # odd conformal data does the same through the drift
    bad2 = geometry.MetricFamily.from_diagonal(["t^2", "1"], dim_p=1,
                                               alpha="t")
    with pytest.raises(StructureError):
        geometry.check_structure(bad2)
    # even data is fine
    ok = geometry.MetricFamily.from_diagonal(["t^2", "1 + t^2"], dim_p=1,
                                             alpha="t^2")
    geometry.check_structure(ok)
    geometry.check_structure(sphere())


def test_structure_failure_raises_on_every_assembly():
    # the probe result is kept only when it passes
    bad = geometry.MetricFamily.from_diagonal(["t^2", "1"], dim_p=1,
                                              alpha="t")
    for _ in range(3):
        with pytest.raises(StructureError):
            geometry.assemble_harmonic(bad, 1.0, 1.0)
    ok = flat3()
    geometry.assemble_harmonic(ok, 1.0, 1.0)
    geometry.assemble_biharmonic(ok, 1.0, 0.5, 1.0)
    assert ok._structure_ok is True
    assert not bad._structure_ok


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("diag", [["t^2*(1+1e300*t)", "1"],
                                  ["t^2", "exp(1e100*t)"]])
def test_structure_probe_of_overflowed_series_is_a_numerical_error(diag):
    # the pack holds inf there; the probe multiplied it with a numpy
    # warning, and its nan residues passed the cancellation test
    fam = geometry.MetricFamily.from_diagonal(diag, dim_p=1)
    for _ in range(2):
        with pytest.raises(NumericalError, match="not finite"):
            geometry.check_structure(fam)
    assert not fam._structure_ok


def test_structure_probe_catches_family_tuned_to_two_probe_values():
    # the residue coefficient c1 is a quadratic in a(0); this family zeroes
    # it at a(0) = 0.83 and -0.37, and the third probe value catches it
    def tuned():
        return geometry.MetricFamily.from_diagonal(
            ["t^2*(1 + t)", "1 - 0.9213*t"], dim_p=1, alpha="-0.34935*t")

    with pytest.raises(StructureError, match="^harmonic reduction"):
        geometry.assemble_harmonic(tuned(), 0.83, 1.0)
    with pytest.raises(StructureError, match="^harmonic reduction"):
        geometry.assemble_biharmonic(tuned(), 0.83, 0.2, 1.0)


@pytest.mark.parametrize("diag", [["t^2*(1+1000*t)", "1"],
                                  ["t^2/(1+30*t)", "1"]])
def test_structure_residue_is_measured_against_the_low_order_terms(diag):
    # the odd residue c1 (-211.6, 6.35) was measured against the probe
    # series' largest coefficient (2.1e23, 3.2e11) and passed; the
    # bootstrap then raised at its first stage
    fam = geometry.MetricFamily.from_diagonal(diag, dim_p=1)
    with pytest.raises(StructureError, match="nonzero residue"):
        geometry.check_structure(fam)
    with pytest.raises(StructureError, match="^harmonic reduction"):
        geometry.solve_harmonic(fam, 0.7, 1.0)
    assert not fam._structure_ok
    for even in (["t^2/(1+1e6*t^2)"] * 2, ["t^2", "t^2", "1 + t^2"]):
        geometry.check_structure(geometry.MetricFamily.from_diagonal(
            even, dim_p=2))


def test_time_jets_must_expand_the_identity():
    p = geometry.assemble_harmonic(flat3(), 1.0, 1.0)
    y = np.array([Series([1.0, 0.0]), Series([0.0, 0.0])], dtype=object)
    p.m_reg(Series([0.0, 1.0]), y)
    for bad in (Series([0.1, 1.0]), Series([0.0, 2.0]),
                Series([0.0, 1.0], 0.5)):
        with pytest.raises(ValidationError, match="time jets"):
            p.m_reg(bad, y)


def test_harmonic_flat_family_is_exact():
    # r = v t solves the reduced equation for every slope here
    sol = geometry.solve_harmonic(flat3(), 0.8, 2.0, tol=1e-11)
    for t in (0.01, 0.3, 1.0, 2.0):
        assert sol.r(t) == pytest.approx(0.8 * t, abs=1e-9)
        assert sol.rdot(t) == pytest.approx(0.8, abs=1e-8)
        assert abs(sol.residual(t)) < 1e-8
    assert sol.v == 0.8


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("fam_fn", [
    lambda: geometry.MetricFamily.from_diagonal(["t^2"] * 2, dim_p=2),
    lambda: geometry.MetricFamily.from_diagonal(["t^2"] * 4, dim_p=4),
    flat3,
], ids=["flat2", "flat4", "t2t2_1pt2"])
def test_an_exact_profile_crosses_the_integrated_span_in_two_steps(fam_fn,
                                                                   tol):
    # the reduced state of r = v t is constant and its slope ~0 in the
    # error scale; an absolute 1e-6 first step took 7-8 steps over [0.5, 1]
    fam = fam_fn()
    for v in (0.6, 1.3, 1.9):
        sol = geometry.solve_harmonic(fam, v, 1.0, tol=tol)
        assert sol.traj.diagnostics["steps_accepted"] <= 2
        # the profile_exact bound of the benchmark
        err = max(abs(sol.r(1.0) - v), abs(sol.rdot(1.0) - v))
        assert err <= 1e-9 * (1.0 + v)
        assert sol.traj.diagnostics["max_residual"] <= 100 * tol


def test_sphere_series_coefficients():
    # matching orders of r'' + 2 cot t r' = sin 2r / sin^2 t with
    # r = 0.6 t + c3 t^3 + c5 t^5 + c7 t^7 gives the exact rationals
    # c3 = 32/625, c5 = 368/109375, c7 = 1888/41015625
    p = geometry.assemble_harmonic(sphere(), 0.6, 1.5)
    coeffs = singular.bootstrap_series(p, order=6)
    a = coeffs[:, 0]
    np.testing.assert_allclose(
        a, [0.6, 0.0, 32 / 625, 0.0, 368 / 109375, 0.0, 1888 / 41015625],
        atol=1e-13)
    # u column is the derivative of a: u_h = (h+1) a_{h+1}
    np.testing.assert_allclose(coeffs[:6, 1],
                               np.arange(1, 7) * a[1:], atol=1e-12)


def test_sphere_identity_map():
    # v = 1 closes up to the equator and beyond: r(t) = t exactly
    sol = geometry.solve_harmonic(sphere(), 1.0, 1.5, tol=1e-11)
    for t in (0.05, 0.5, 1.0, 1.5):
        assert sol.r(t) == pytest.approx(t, abs=1e-9)
        assert abs(sol.residual(t)) < 1e-7


def test_dense_reads_outside_the_span_raise():
    # reads past t_end used to extrapolate the last step silently
    sol = geometry.solve_harmonic(sphere(), 0.7, 1.2, tol=1e-10)
    res = sol.traj.result
    assert sol.r(1.2) == pytest.approx(float(res.ys[-1][0]) * 1.2)
    with pytest.raises(ValidationError, match="outside the integrated span"):
        sol.r(10.0)
    with pytest.raises(ValidationError):
        sol.traj.value(1.2 + 1e-9)
    with pytest.raises(ValidationError):
        res.derivative(1.5)
    with pytest.raises(ValidationError):
        res.value(res.ts[0] - 1e-9)


def test_harmonic_solution_derivative_consistency():
    sol = geometry.solve_harmonic(sphere(), 0.6, 1.4, tol=1e-11)
    # rddot from the computed trajectory matches a finite difference of rdot
    for t in (0.3, 0.9):
        h = 1e-6
        fd = (sol.rdot(t + h) - sol.rdot(t - h)) / (2 * h)
        assert sol.rddot(t) == pytest.approx(fd, rel=1e-5)


def residual_grid(t_end):
    return [float(t) for t in np.linspace(0.05, t_end, 64)]


def test_residual_reads_the_computed_trajectory():
    # the residual measures the integrator's defect: it is well above
    # rounding at a loose tolerance, yet inside 100 tol
    tol = 1e-6
    sol = geometry.solve_harmonic(sphere(), 0.7, 1.5, tol=tol)
    worst = max(abs(sol.residual(t)) for t in residual_grid(1.5))
    assert 1e-9 < worst < 100 * tol


def test_a_block_profile_ending_in_a_short_step_meets_its_defect_bound(
        start_at):
    # from the order-10 series at 0.1, this block profile's last step is
    # 1.8e-6 long; rounding in the interpolant's slope read 6.2e-11 against
    # the defect bound 1e-11 (1 + |y|), and the rejections shrank the step
    # until it underflowed at t = 0.99999823
    a, d, c = 1.1573568347952792, 1.9011571568504815, -0.3885463946983574
    b0, b1 = 0.39011561142924167, 0.20649317482608734
    fam = geometry.MetricFamily.from_entries(
        [[f"t^2*({a!r} + {b0!r}*t^2)", f"{c!r}*t^2"],
         [f"{c!r}*t^2", f"{d!r} + {b1!r}*t^2"]], dim_p=1)
    tol = 1e-12
    p = geometry.assemble_harmonic(fam, 1.7189946262463622, 1.0)
    sol = geometry.HarmonicSolution(fam, start_at(p, 0.1, tol=tol))
    assert sol.traj.diagnostics["max_residual"] <= 100 * tol
    assert max(abs(sol.residual(t)) for t in (0.5, 0.9, 1.0)) < 100 * tol


# -- steep and small-radius profiles: handoffs near the pole -------------------
#
# A steep profile's series converges only out to ~1/|v|, and the series of
# a metric of radius R only out to ~R, so these solves hand off to the
# integrator well below t = 0.01 and read the float field there.

@pytest.mark.parametrize("v", [100.0, 300.0])
def test_steep_sphere_profiles_agree_across_tolerances(v):
    r = [geometry.solve_harmonic(sphere(), v, 1.5, tol=tol).r(1.5)
         for tol in (1e-10, 1e-12)]
    assert abs(r[0] - r[1]) < 1e-9


def small_radius(R):
    """``diag(t^2/(1 + t^2/R^2))`` twice: ``P_R(t) = R^2 P_1(t/R)``, so the
    profile of slope ``v`` is ``R r_1(t/R)``, ``r_1`` that of ``R = 1``."""
    return geometry.MetricFamily.from_diagonal(
        [f"t^2/(1 + t^2/{R!r}^2)"] * 2, dim_p=2)


@pytest.mark.parametrize("R", [1e-2, 1e-3])
def test_small_radius_profiles_match_the_rescaled_unit_profile(R):
    T, v = 0.5, 1.3
    exact = R * geometry.solve_harmonic(small_radius(1.0), v, T / R,
                                        tol=1e-12).r(T / R)
    for tol, bound in ((1e-8, 1e-9), (1e-10, 1e-11)):
        sol = geometry.solve_harmonic(small_radius(R), v, T, tol=tol)
        assert abs(sol.r(T) - exact) < bound, tol


@pytest.mark.parametrize("R", [1e-2, 1e-3])
def test_small_radius_biharmonic_residuals_stay_within_tol(R):
    for tol in (1e-8, 1e-10):
        sol = geometry.solve_biharmonic(small_radius(R), 1.3, 0.4, 0.5,
                                        tol=tol)
        worst = max(max(map(abs, sol.residuals(float(t))))
                    for t in np.linspace(0.05, 0.5, 19))
        assert worst < 100 * tol, tol


def test_residuals_catch_a_planted_interpolant_fault():
    # scaling one coefficient row of the dense output bends the computed
    # profile between the nodes; a residual built from the vector field
    # would still read rounding
    tol = 1e-10
    sol = geometry.solve_harmonic(sphere(), 0.7, 1.5, tol=tol)
    bi = geometry.solve_biharmonic(sphere(), 0.6, 0.3, 1.5, tol=tol)
    ts = [t for t in residual_grid(1.5) if t > sol.traj.handoff]
    assert max(abs(sol.residual(t)) for t in ts) < 100 * tol
    assert max(max(map(abs, bi.residuals(t))) for t in ts) < 100 * tol
    sol.traj.result.rows[:, 2] *= 1.01
    bi.traj.result.rows[:, 2] *= 1.01
    assert max(abs(sol.residual(t)) for t in ts) > 100 * tol
    assert max(max(map(abs, bi.residuals(t))) for t in ts) > 100 * tol


def test_one_trace_evaluation_per_residual_sample(monkeypatch):
    sol = geometry.solve_harmonic(sphere(), 0.7, 1.5, tol=1e-8)
    bi = geometry.solve_biharmonic(sphere(), 0.6, 0.3, 1.5, tol=1e-8)
    calls = []
    direct = geometry._direct_traces

    def counted(*args):
        calls.append(args[1])
        return direct(*args)

    monkeypatch.setattr(geometry, "_direct_traces", counted)
    ts = [0.004, 0.2, 0.7, 1.4]
    for t in ts:
        sol.residual(t)
    assert calls == ts
    calls.clear()
    for t in ts:
        bi.residuals(t)
    assert calls == ts


def test_block_family_solves():
    fam = geometry.MetricFamily.from_entries(
        [["t^2*(1 + t^2)", "t^2"], ["t^2", "1 + 2*t^2"]], dim_p=1)
    assert not fam.diagonal
    sol = geometry.solve_harmonic(fam, 0.4, 1.0, tol=1e-10)
    for t in (0.02, 0.2, 0.7, 1.0):
        assert abs(sol.residual(t)) < 1e-7
    assert sol.r(1e-3) == pytest.approx(0.4e-3, rel=1e-4)


def test_biharmonic_flat_closed_family():
    # with P = diag(t^2, t^2, t^2): r = v t + w t^3 / 12, F = w t
    fam = geometry.MetricFamily.from_diagonal(["t^2"] * 3, dim_p=3)
    sol = geometry.solve_biharmonic(fam, 1.0, 0.5, 1.0, tol=1e-11)
    for t in (0.05, 0.4, 1.0):
        assert sol.r(t) == pytest.approx(t + 0.5 * t ** 3 / 12.0, abs=1e-9)
        assert sol.F(t) == pytest.approx(0.5 * t, abs=1e-9)
        assert sol.Fdot(t) == pytest.approx(0.5, abs=1e-8)
        res_r, res_f = sol.residuals(t)
        assert abs(res_r) < 1e-7 and abs(res_f) < 1e-7
    assert sol.rdot(1.0) == pytest.approx(1.125, abs=1e-9)
    assert sol.v == 1.0 and sol.w == 0.5


def test_biharmonic_sphere_runs():
    sol = geometry.solve_biharmonic(sphere(), 0.6, 0.25, 1.2, tol=1e-10)
    for t in (0.1, 0.6, 1.2):
        res_r, res_f = sol.residuals(t)
        assert abs(res_r) < 1e-6 and abs(res_f) < 1e-6
    # F inherits the slope at the pole
    assert sol.F(1e-3) == pytest.approx(0.25e-3, rel=1e-6)
    h = 1e-6
    fd = (sol.Fdot(0.5 + h) - sol.Fdot(0.5 - h)) / (2 * h)
    assert sol.Fddot(0.5) == pytest.approx(fd, rel=1e-5)


def test_biharmonic_needs_diagonal():
    block = geometry.MetricFamily.from_entries(
        [["t^2", "t^3"], ["t^3", "1"]], dim_p=1)
    with pytest.raises(ValidationError):
        geometry.assemble_biharmonic(block, 1.0, 0.0, 1.0)


def test_validate_metric_good_family():
    rep = geometry.validate_metric(sphere())
    assert rep.verdict and rep.symmetric_ok and rep.spd_ok and rep.pole_ok
    assert rep.series_available
    assert rep.drift_measured[1e-3] == pytest.approx(2.0, abs=1e-5)
    assert rep.drift_measured[1e-4] == pytest.approx(2.0, abs=1e-7)


def test_validate_metric_wrong_pole_order():
    # one block collapses too slowly: measured limit 1.5, declared 2
    fam = geometry.MetricFamily.from_diagonal(["t^2", "t"], dim_p=2)
    rep = geometry.validate_metric(fam)
    assert not rep.pole_ok and not rep.verdict
    assert rep.drift_measured[1e-4] == pytest.approx(1.5, abs=1e-3)


def test_validate_metric_spd_failure():
    fam = geometry.MetricFamily.from_diagonal(["t^2", "t^2 - 0.25"], dim_p=1)
    rep = geometry.validate_metric(fam)
    assert not rep.spd_ok and rep.spd_failures
    assert not rep.verdict


@pytest.mark.parametrize("fam_fn", [
    lambda: geometry.MetricFamily.from_diagonal(
        ["t^2", "(1 - t^2)^2"], dim_p=1),
    lambda: geometry.MetricFamily.from_entries(
        [["t^2", "t^2*(1 - t^2)"], ["t^2*(1 - t^2)", "(1 - t^2)^2"]],
        dim_p=1)])
def test_singular_metric_raises_numerical_error(fam_fn):
    # P(1) is exactly singular: diag(1, 0), and [[1, 0], [0, 0]]
    fam = fam_fn()
    for fn, args in ((geometry.trace_drift, (1.0,)),
                     (geometry.trace_potential, (1.0, 0.5))):
        with pytest.raises(NumericalError, match="singular at t = 1.0"):
            fn(fam, *args)


def test_validate_metric_reads_singular_pole_probe_as_failure():
    # P(1e-3) = diag(1e-6, 0): the pole measurement there reads nan
    fam = geometry.MetricFamily.from_diagonal(["t^2", "(t - 0.001)^2"],
                                              dim_p=1)
    rep = geometry.validate_metric(fam)
    assert math.isnan(rep.drift_measured[1e-3])
    assert not rep.pole_ok and not rep.verdict


def test_tension_residual_signed():
    # residual of a deliberately wrong profile has the predicted value
    fam = flat3()
    t, r, rdot, rddot = 0.5, 0.2, 0.1, 0.0
    D = 2.0 / t + t / (1 + t * t)
    V = 2 * r / t ** 2 + r / (1 + t * t)
    want = rddot + D * rdot - V
    assert geometry.tension_residual(fam, t, r, rdot, rddot) == \
        pytest.approx(want, rel=1e-12)


# the config reader of the metric block lives in cli; these cases pin it

def _metric_family(block):
    return cli._metric_family({"metric": block}, "test")


def test_build_metric_family_from_config():
    fam = _metric_family(
        {"diagonal": ["sin(t)^2", "sin(t)^2"], "dim_p": 2,
         "t_validate": 0.8})
    assert fam.dim_p == 2
    assert fam.t_validate == 0.8
    fam2 = _metric_family(
        {"entries": [["t^2", "0"], ["0", "1"]], "dim_p": 1,
         "alpha": "t^2", "weight": 2})
    assert fam2.weight == 2


@pytest.mark.parametrize("cfg", [
    {"dim_p": 1},                                          # no entries
    {"diagonal": ["t^2"], "entries": [["t^2"]], "dim_p": 1},  # both
    {"diagonal": ["t^2"]},                                 # dim_p missing
    {"diagonal": ["t^2"], "dim_p": 1, "colour": 3},        # unknown key
    {"diagonal": ["t^2"], "dim_p": True},                  # bool dim_p
    {"diagonal": ["t^2"], "dim_p": 1, "t_switch": -1.0},
    {"diagonal": ["t^2"], "dim_p": 1, "t_validate": True},
    "not a dict",
])
def test_build_metric_family_rejects(cfg):
    with pytest.raises(ConfigError):
        _metric_family(cfg)


def test_config_expression_errors_are_config_errors():
    with pytest.raises((ConfigError, ValidationError)):
        _metric_family({"diagonal": ["sin(t", "1"], "dim_p": 1})


# -- the shared reduction core against the code it replaced -------------------
#
# The biharmonic maps now reuse the harmonic half, the tension linearization
# has one builder, and the two solution wrappers share one profile helper.
# The references below are the separate implementations they replaced, with
# the direct trace formulas written out, so results must agree byte for
# byte, errors included.

def ref_as_series(x, order):
    if isinstance(x, Series):
        return x.pad(order)
    return series.constant(float(x), order)


def ref_peel2(w, where):
    scale = 1.0 + float(np.abs(w.coeffs[:3]).max())
    if abs(w.coeffs[0]) > geometry._STRUCT_TOL * scale or \
            abs(w.coeffs[1]) > geometry._STRUCT_TOL * scale:
        raise StructureError(
            f"{where}: nonzero residue at the pole "
            f"(c0={w.coeffs[0]:.3e}, c1={w.coeffs[1]:.3e}); odd low-order "
            "metric data does not cancel, no analytic reduction exists")
    return Series(w.coeffs[2:], 0.0)


def ref_w_series(fam, a_s, u_s, order):
    p = fam.dim_p
    t_s = series.identity(order)
    tpot = Series(geometry._tpot_series(fam, a_s.coeffs, order))
    tdrift = Series(geometry._tdrift_series(fam, order))
    return (tpot - float(p) * a_s) - (tdrift - float(p)) * (a_s + t_s * u_s)


def ref_wf_series(fam, a_s, b_s, ub_s, order):
    p = fam.dim_p
    t_s = series.identity(order)
    z = Series(geometry._zpot_series(fam, a_s.coeffs, order))
    td = Series(geometry._tdrift_series(fam, order))
    return (z - float(p)) * b_s - (td - float(p)) * (b_s + t_s * ub_s)


def ref_check_structure(fam, with_z):
    for a0, u0 in ((0.83, 0.41), (-0.37, 0.9)):
        a_s = series.constant(a0, 8)
        u_s = series.constant(u0, 8)
        ref_peel2(ref_w_series(fam, a_s, u_s, 8), "harmonic reduction")
        if with_z:
            ref_peel2(ref_wf_series(fam, a_s, a_s, u_s, 8),
                      "tension linearization")


def ref_direct_traces(fam, t, rho, second):
    """Halved traces of ``P(t)^-1 X`` for X = P'(rho), P'(t) (and P''(rho)):
    entry by entry for a diagonal family, one solve against the stacked
    right-hand sides for a block one, each summed in index order."""
    P, n = fam.P_at(t), fam.n
    Xs = [fam.Pdot_at(rho), fam.Pdot_at(t)]
    if second:
        Xs.append(fam.Pddot_at(rho))
    if fam.diagonal:
        diags = [[X[i, i] / P[i, i] for i in range(n)] for X in Xs]
    else:
        S = np.linalg.solve(P, np.hstack(Xs))
        diags = [[S[i, j * n + i] for i in range(n)] for j in range(len(Xs))]
    out = []
    for d in diags:
        acc = 0.0
        for x in d:
            acc += float(x)
        out.append(0.5 * acc)
    return out


def ref_harmonic_reg(fam, t, y):
    p = fam.dim_p
    if isinstance(t, Series):
        n = t.order
        m = n + 2
        a_s = ref_as_series(y[0], m)
        u_s = ref_as_series(y[1], m)
        reg_u = ref_peel2(ref_w_series(fam, a_s, u_s, m),
                          "harmonic reduction")
        return np.array([u_s.truncate(n), reg_u], dtype=object)
    a, u = float(y[0]), float(y[1])
    V, drift = ref_direct_traces(fam, t, t * a, False)
    d = drift + fam.weight * fam.alpha_dot_at(t) - p / t
    return np.array([u, (V - p * a / t - d * (a + t * u)) / t])


def ref_biharmonic_reg(fam, t, y):
    p = fam.dim_p
    if isinstance(t, Series):
        n = t.order
        m = n + 2
        a_s, ua_s, b_s, ub_s = (ref_as_series(y[i], m) for i in range(4))
        w_a = ref_w_series(fam, a_s, ua_s, m)
        reg_a = ref_peel2(w_a, "harmonic reduction") + b_s.truncate(n)
        w_b = ref_wf_series(fam, a_s, b_s, ub_s, m)
        reg_b = ref_peel2(w_b, "tension linearization")
        return np.array([ua_s.truncate(n), reg_a,
                         ub_s.truncate(n), reg_b], dtype=object)
    a, ua, b, ub = (float(y[i]) for i in range(4))
    V, drift, V2 = ref_direct_traces(fam, t, t * a, True)
    d = drift + fam.weight * fam.alpha_dot_at(t) - p / t
    reg_a = (V - p * a / t - d * (a + t * ua)) / t + b
    reg_b = ((V2 - p / (t * t)) * t * b - d * (b + t * ub)) / t
    return np.array([ua, reg_a, ub, reg_b])


def ref_sing(p, y):
    y = np.asarray(y).reshape(-1)
    if y.dtype == object:
        return np.array([v * 0.0 if i % 2 == 0 else -(p + 2.0) * v
                         for i, v in enumerate(y)], dtype=object)
    return np.array([0.0 if i % 2 == 0 else -(p + 2.0) * float(v)
                     for i, v in enumerate(y)])


class RefHarmonicSolution:
    def __init__(self, fam, traj):
        self.family, self.traj = fam, traj

    def r(self, t):
        return float(t) * float(self.traj.value(t)[0])

    def rdot(self, t):
        a, u = self.traj.value(t)[:2]
        return float(a + t * u)

    def rddot(self, t):
        # u' from the computed trajectory, not from the vector field
        y = self.traj.value(t)
        udot = self.traj.derivative(t)[1]
        return float(2.0 * y[1] + t * udot)

    def residual(self, t):
        return geometry.tension_residual(self.family, t, self.r(t),
                                         self.rdot(t), self.rddot(t))


class RefBiharmonicSolution(RefHarmonicSolution):
    def F(self, t):
        return float(t) * float(self.traj.value(t)[2])

    def Fdot(self, t):
        y = self.traj.value(t)
        return float(y[2] + t * y[3])

    def Fddot(self, t):
        y = self.traj.value(t)
        dy = self.traj.derivative(t)
        return float(2.0 * y[3] + t * dy[3])

    def residuals(self, t):
        return geometry.biharmonic_residual(
            self.family, t, self.r(t), self.rdot(t), self.rddot(t),
            self.F(t), self.Fdot(t), self.Fddot(t))


def outcome(fn, *args):
    """Exact bytes of a result (floats, arrays, Series, tuples) or the
    error it raised."""
    def enc(x):
        if isinstance(x, Series):
            return ("S", x.coeffs.dtype.str, x.coeffs.tobytes(), x.t0)
        if isinstance(x, np.ndarray) and x.dtype == object:
            return tuple(enc(v) for v in x)
        if isinstance(x, np.ndarray):
            return ("A", x.dtype.str, x.tobytes())
        if isinstance(x, tuple):
            return tuple(enc(v) for v in x)
        return ("f", type(x).__name__, np.float64(x).tobytes())
    try:
        return enc(fn(*args))
    except Exception as exc:            # compared, never swallowed
        return ("E", type(exc).__name__, str(exc))


PROBE_FAMILIES = {
    "sphere": sphere,
    "flat": flat3,
    "mixed": lambda: geometry.MetricFamily.from_diagonal(
        ["sinh(t)^2", "1 + t^2*cos(t)"], dim_p=1, alpha="t^2", weight=2),
    "block": lambda: geometry.MetricFamily.from_entries(
        [["t^2*(1 + t^2)", "t^2"], ["t^2", "1 + 2*t^2"]], dim_p=1),
}


@pytest.mark.parametrize("name", sorted(PROBE_FAMILIES))
def test_direct_traces_agree_with_solve_then_trace(name):
    # each trace against 0.5 tr(solve(P, X)), within 4 n eps times the
    # sum of the absolute terms 0.5 sum_i |(P^-1 X)_ii|
    fam = PROBE_FAMILIES[name]()
    rng = np.random.default_rng(97 + sorted(PROBE_FAMILIES).index(name))
    eps = np.finfo(float).eps
    for _ in range(200):
        t = float(np.exp(rng.uniform(np.log(1e-5), np.log(1.5))))
        rho = t * float(rng.normal())
        got = geometry._direct_traces(fam, t, rho, fam.diagonal)
        Xs = [fam.Pdot_at(rho), fam.Pdot_at(t)]
        if fam.diagonal:
            Xs.append(fam.Pddot_at(rho))
        for g, X in zip(got, Xs):
            S = np.linalg.solve(fam.P_at(t), X)
            want = 0.5 * float(np.trace(S))
            bound = 4 * fam.n * eps * 0.5 * float(np.abs(np.diagonal(S)).sum())
            assert abs(g - want) <= bound, (t, rho, g, want)


def ref_diagonal_traces(fam, t, rho, second):
    """``(V, drift, V2)`` of a diagonal family from the diagonals of
    ``P_at``/``Pdot_at``/``Pddot_at``, each ``X_ii / P_ii`` summed in index
    order."""
    P, Pt = fam.P_at(t), fam.Pdot_at(t)
    Xs = [fam.Pdot_at(rho), Pt] + ([fam.Pddot_at(rho)] if second else [])
    out = []
    for X in Xs:
        acc = 0.0
        for i in range(fam.n):
            acc += float(X[i, i]) / float(P[i, i])
        out.append(0.5 * acc)
    return out[0], out[1], out[2] if second else None


DIAGONAL_TRACE_FAMILIES = {
    "sphere": sphere,
    "t2t2_1pt2": flat3,
    "flat4": lambda: geometry.MetricFamily.from_diagonal(["t^2"] * 4,
                                                         dim_p=4),
    "alpha": lambda: geometry.MetricFamily.from_diagonal(
        ["sinh(t)^2", "1 + t^2*cos(t)"], dim_p=1, alpha="t^2", weight=2),
    "sqrt_log": lambda: geometry.MetricFamily.from_diagonal(
        ["t^2*sqrt(1 + t)", "log(2 + t^2)", "exp(t)*(1 + t)^0.5"], dim_p=1),
}


@pytest.mark.parametrize("name", sorted(DIAGONAL_TRACE_FAMILIES))
def test_generated_traces_equal_the_diagonal_sums(name):
    # exact: the generated function divides and sums as the reference does
    fam = DIAGONAL_TRACE_FAMILIES[name]()
    rng = np.random.default_rng(31 + sorted(DIAGONAL_TRACE_FAMILIES).index(
        name))
    errors = 0
    for _ in range(150):
        t = float(np.exp(rng.uniform(np.log(1e-5), np.log(1.5))))
        rho = t * float(rng.normal(scale=1.5))
        for second in (False, True):
            want = outcome(ref_diagonal_traces, fam, t, rho, second)
            assert outcome(geometry._direct_traces, fam, t, rho,
                           second) == want, (t, rho, second)
            errors += want[0] == "E"
            if want[0] != "E":
                V, drift, V2 = ref_diagonal_traces(fam, t, rho, second)
                D = drift + fam.weight * fam.alpha_dot_at(t)
                assert geometry._traces(fam, t, rho, second) == (D, V, V2)
    # only the sqrt/log family leaves its domain, and it does so at rho
    assert (errors > 0) == (name == "sqrt_log")


def test_generated_traces_raise_as_the_matrix_reads():
    # log(t) fails at t < 0, sqrt(1 + rho) at rho < -1: t is evaluated first
    fam = geometry.MetricFamily.from_diagonal(
        ["t^2*(2 + log(t))", "sqrt(1 + t)"], dim_p=1)
    for second in (False, True):
        for t, rho, read in ((-0.5, -3.0, lambda: fam.P_at(-0.5)),
                             (0.5, -3.0, lambda: fam.Pdot_at(-3.0))):
            with pytest.raises(EvalDomainError) as want:
                read()
            with pytest.raises(EvalDomainError) as got:
                geometry._direct_traces(fam, t, rho, second)
            assert str(got.value) == str(want.value)
    # a zero diagonal entry: P(1) = diag(1, 0)
    fam = geometry.MetricFamily.from_diagonal(["t^2", "(1 - t^2)^2"],
                                              dim_p=1)
    for second in (False, True):
        with pytest.raises(NumericalError, match="singular at t = 1.0"):
            geometry._direct_traces(fam, 1.0, 0.5, second)


def test_diagonal_rhs_makes_no_expression_array_call(monkeypatch):
    fam = sphere()
    probs = [geometry.assemble_harmonic(fam, 0.7, 1.5),
             geometry.assemble_biharmonic(fam, 0.6, 0.3, 1.5)]
    for p in probs:                     # compile outside the count
        p.rhs(0.5, np.full(p.k, 0.3))
    calls = {"eval_real": 0, "traces": 0}
    eval_real, traces = expr.ExprArray.eval_real, expr.HalfTraces.__call__

    def counted_eval_real(self, t):
        calls["eval_real"] += 1
        return eval_real(self, t)

    def counted_traces(self, t, rho):
        calls["traces"] += 1
        return traces(self, t, rho)

    monkeypatch.setattr(expr.ExprArray, "eval_real", counted_eval_real)
    monkeypatch.setattr(expr.HalfTraces, "__call__", counted_traces)
    for p in probs:
        p.rhs(0.5, np.full(p.k, 0.3))
    assert calls == {"eval_real": 0, "traces": 2}


def probe_problems(fam):
    out = [(geometry.assemble_harmonic(fam, 0.7, 1.2), ref_harmonic_reg)]
    if fam.diagonal:
        out.append((geometry.assemble_biharmonic(fam, 0.6, 0.3, 1.2),
                    ref_biharmonic_reg))
    return out


@pytest.mark.parametrize("name", sorted(PROBE_FAMILIES))
def test_assembled_maps_match_reference_bytes(name):
    fam = PROBE_FAMILIES[name]()
    rng = np.random.default_rng(sorted(PROBE_FAMILIES).index(name))
    for prob, ref_reg in probe_problems(fam):
        k = prob.k
        for _ in range(100):
            # log-uniform from near the pole
            t = float(10.0 ** rng.uniform(-5.0, 0.0))
            y = rng.normal(size=k)
            assert outcome(prob.m_sing, y) == \
                outcome(ref_sing, fam.dim_p, y)
            # the float field has the bytes of the split form
            split = outcome(lambda: ref_sing(fam.dim_p, y) / t
                            + ref_reg(fam, t, y))
            assert split[0] == "A"
            assert outcome(prob.field, t, y) == split, (t, y)
            assert outcome(prob.rhs, t, y) == split, (t, y)
        for order in range(13):
            y = np.array(
                [Series(rng.normal(size=order + 1 + int(rng.integers(3))))
                 if rng.random() < 0.8 else float(rng.normal())
                 for _ in range(k)], dtype=object)
            tj = series.identity(order)
            assert outcome(prob.m_sing, y) == \
                outcome(ref_sing, fam.dim_p, y)
            assert outcome(prob.m_reg, tj, y) == \
                outcome(ref_reg, fam, tj, y), order


@pytest.mark.parametrize("w", [None, 0.3], ids=["harmonic", "biharmonic"])
def test_profile_m_reg_takes_time_jets_only(w):
    # the float right-hand side is the field; a float time given to m_reg
    # is refused near the pole and away from it, not read as a jet
    prob = geometry._assemble(sphere(), 0.7, w, 1.2)
    y = np.full(prob.k, 0.3)
    for t in (1e-3, 0.5, np.float64(0.5)):
        with pytest.raises(ValidationError, match="time jet"):
            prob.m_reg(t, y)
    prob.m_reg(series.identity(3), y)


FIELD_SOLVES = {
    "sphere": (sphere, None, None),
    "mixed": (PROBE_FAMILIES["mixed"], None, None),
    "flat": (flat3, None, None),
    "block": (PROBE_FAMILIES["block"], None, None),
    "biharmonic-flat": (flat3, 0.3, None),
    # a start near the pole
    "sphere-near-pole": (sphere, None, 4e-3),
    "biharmonic-sphere-near-pole": (sphere, 0.3, 4e-3),
}


@pytest.mark.parametrize("name", sorted(FIELD_SOLVES))
def test_solve_with_the_field_has_the_bytes_of_the_split_solve(name,
                                                              start_at):
    make, w, t0 = FIELD_SOLVES[name]
    fam = make()
    fused, split = (geometry._assemble(fam, 0.7, w, 1.2) for _ in range(2))
    ref_reg = ref_harmonic_reg if w is None else ref_biharmonic_reg
    split.field = lambda t, y: ref_sing(fam.dim_p, y) / t + ref_reg(fam, t, y)
    a, b = (singular.solve(p, tol=1e-10) if t0 is None else start_at(p, t0)
            for p in (fused, split))
    assert a.result.ts.tobytes() == b.result.ts.tobytes()
    assert a.result.rows.tobytes() == b.result.rows.tobytes()
    for key, value in b.diagnostics.items():
        if key != "admissibility":
            assert outcome(lambda: a.diagnostics[key]) == \
                outcome(lambda: value), key
    assert a.diagnostics["rhs_calls"] > 6 * a.diagnostics["steps_accepted"]


@pytest.mark.parametrize("name", sorted(PROBE_FAMILIES))
def test_solution_wrappers_match_reference_bytes(name):
    fam = PROBE_FAMILIES[name]()
    ts = [float(t) for t in np.linspace(1e-3, 1.2, 40)]
    sol = geometry.solve_harmonic(fam, 0.7, 1.2, tol=1e-9)
    ref = RefHarmonicSolution(fam, sol.traj)
    for t in ts:
        for m in ("r", "rdot", "rddot", "residual"):
            assert outcome(getattr(sol, m), t) == \
                outcome(getattr(ref, m), t), (m, t)
    if not fam.diagonal:
        return
    bi = geometry.solve_biharmonic(fam, 0.6, 0.3, 1.2, tol=1e-9)
    ref = RefBiharmonicSolution(fam, bi.traj)
    for t in ts:
        for m in ("r", "rdot", "rddot", "F", "Fdot", "Fddot", "residuals"):
            assert outcome(getattr(bi, m), t) == \
                outcome(getattr(ref, m), t), (m, t)


def test_structure_errors_match_reference_message():
    def bad():
        return geometry.MetricFamily.from_diagonal(["t^2", "1"], dim_p=1,
                                                   alpha="t")
    want = outcome(ref_check_structure, bad(), False)
    assert want[:2] == ("E", "StructureError")
    assert outcome(geometry.assemble_harmonic, bad(), 1.0, 1.0) == want
    assert outcome(geometry.assemble_biharmonic, bad(), 1.0, 0.5, 1.0) == \
        outcome(ref_check_structure, bad(), True)


# The potential kernels compose every metric entry through one power table
# and take each trace against a cached inverse series.  The reference below
# is the per-entry algorithm they replaced: `series.compose` per entry of R
# and R', then the block recursion R(0) X_k = B_k - sum_j R_j X_(k-j).  With
# `mag` it runs on absolute values (and |R(0)^-1|), which bounds the sum of
# the magnitudes of the terms behind each coefficient.

EPS = np.finfo(float).eps


def ref_R_entries(fam, order, mag):
    """R(t) and its derivatives to ``order`` as (n, n) object arrays."""
    n = fam.n
    out = [np.empty((n, n), dtype=object) for _ in range(3)]
    for i in range(n):
        for j in range(n):
            shift = (i < fam.dim_p) + (j < fam.dim_p)
            c = expr.taylor(fam.entries[i, j], 0.0, order + 2 + shift).coeffs
            c = np.abs(c[shift:]) if mag else c[shift:]
            k = np.arange(1, order + 3)
            out[0][i, j] = Series(c[:order + 1])
            out[1][i, j] = Series(c[1:order + 2] * k[:order + 1])
            out[2][i, j] = Series(c[2:] * (k * (k + 1))[:order + 1])
    return out


def ref_trace_solve(A, B, order, mag):
    """``Tr(A^-1 B)`` by the coefficient recursion against ``A(0)``."""
    def stack(M):
        return np.array([[M[i, j].coeffs[:order + 1] for j in range(n)]
                         for i in range(n)]).transpose(2, 0, 1)

    n = A.shape[0]
    Ac, Bc = stack(A), stack(B)
    X = np.zeros_like(Bc)
    inv0 = np.abs(np.linalg.inv(Ac[0])) if mag else None
    for k in range(order + 1):
        rhs = Bc[k].copy()
        for j in range(1, k + 1):
            rhs = rhs + Ac[j] @ X[k - j] if mag else rhs - Ac[j] @ X[k - j]
        X[k] = inv0 @ rhs if mag else np.linalg.solve(Ac[0], rhs)
    return Series([np.trace(x) for x in X])


def ref_pot_series(fam, a_s, order, second, mag=False):
    """``t V`` (``second``: ``t^2 V2``) along ``u = t a`` by composition
    per entry; ``second`` covers the diagonal families it is used on."""
    if mag:
        a_s = Series(np.abs(a_s.coeffs))
    a_s = a_s.truncate(order)
    R, Rd, Rdd = ref_R_entries(fam, order, mag)
    t_s = series.identity(order)
    ta = (t_s * a_s).truncate(order)
    n, p = fam.n, fam.dim_p
    Q = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            c, cd, cdd = (series.compose(S[i, j], ta) for S in (R, Rd, Rdd))
            npp = (i < p) + (j < p)
            if second:
                Q[i, j] = (2.0 * c + 4.0 * t_s * a_s * cd
                           + t_s * t_s * a_s * a_s * cdd if npp == 2
                           else t_s * t_s * cdd)
            elif npp == 2:
                Q[i, j] = 2.0 * a_s * c + t_s * a_s * a_s * cd
            elif npp == 1:
                Q[i, j] = c + t_s * a_s * cd
            else:
                Q[i, j] = t_s * cd
    return 0.5 * ref_trace_solve(R, Q, order, mag)


def ref_tdrift_series(fam, order):
    R, Rd, _ = ref_R_entries(fam, order, False)
    d = 0.5 * ref_trace_solve(R, Rd, order, False)
    if fam.alpha is not None:
        d = d + expr.taylor(expr.differentiate(fam.alpha), 0.0,
                            order) * float(fam.weight)
    return Series(np.concatenate(([float(fam.dim_p)], d.coeffs[:order])))


@pytest.mark.parametrize("name", sorted(PROBE_FAMILIES))
def test_potential_kernels_match_per_entry_composition(name):
    fam = PROBE_FAMILIES[name]()
    rng = np.random.default_rng(71 + sorted(PROBE_FAMILIES).index(name))
    kernels = [(geometry._tpot_series, False)]
    if fam.diagonal:
        kernels.append((geometry._zpot_series, True))
    for order in range(3, 34):
        a_s = Series(rng.normal(scale=0.8, size=order + 1 + order % 3))
        for kernel, second in kernels:
            got = kernel(fam, a_s.coeffs, order)
            want = ref_pot_series(fam, a_s, order, second).coeffs
            mag = ref_pot_series(fam, a_s, order, second, mag=True).coeffs
            assert got.shape == want.shape
            err = np.abs(got - want)
            assert np.all(err <= 8 * EPS * mag), (order, second, err / mag)
        got = geometry._tdrift_series(fam, order)
        want = ref_tdrift_series(fam, order).coeffs
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("which", ["sphere", "block", "biharmonic sphere"])
def test_the_array_stage_has_the_bytes_of_the_series_adapter(which):
    # the same maps without the stage field bootstrap through the adapter,
    # which calls m_reg on Series jets
    fam = (PROBE_FAMILIES["block"] if which == "block" else sphere)()
    prob = (geometry.assemble_biharmonic(fam, 0.9, -0.4, 1.0)
            if which.startswith("bi") else
            geometry.assemble_harmonic(fam, 0.9, 1.0))
    jet_orders = []

    def m_reg(t, y):
        jet_orders.append(t.order)
        return prob.m_reg(t, y)

    maps = singular.SingularIVP(prob.m_sing, m_reg, prob.y0, prob.t_end,
                                jet_capable=True, meta=prob.meta,
                                field=prob.field)
    assert prob.stage is not None and maps.stage is None
    for K in (10, 20, 30):
        got = singular.bootstrap_series(prob, K)
        assert got.tobytes() == singular.bootstrap_series(maps, K).tobytes()
        assert jet_orders[-K:] == list(range(K))


@pytest.mark.parametrize("which", ["sphere", "block", "biharmonic sphere"])
def test_bootstrap_matches_per_entry_composition(which, monkeypatch):
    fam = (PROBE_FAMILIES["block"] if which == "block" else sphere)()
    prob = (geometry.assemble_biharmonic(fam, 0.9, -0.4, 1.0)
            if which.startswith("bi") else
            geometry.assemble_harmonic(fam, 0.9, 1.0))
    got = singular.bootstrap_series(prob, 30)
    monkeypatch.setattr(geometry, "_tpot_series",
                        lambda f, a, order, T=None:
                        ref_pot_series(f, Series(a), order, False).coeffs)
    monkeypatch.setattr(geometry, "_zpot_series",
                        lambda f, a, order, T=None:
                        ref_pot_series(f, Series(a), order, True).coeffs)
    monkeypatch.setattr(geometry, "_tdrift_series",
                        lambda f, order: ref_tdrift_series(f, order).coeffs)
    want = singular.bootstrap_series(prob, 30)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

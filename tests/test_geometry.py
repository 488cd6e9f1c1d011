"""Rotationally reduced harmonic and biharmonic profile equations."""

import math

import numpy as np
import pytest

from regsing import geometry, singular
from regsing.errors import ConfigError, StructureError, ValidationError
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
    # series branch kicks in below t_switch = 1e-2
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


def test_conformal_factor_enters_drift():
    fam = geometry.MetricFamily.from_diagonal(
        ["sin(t)^2", "sin(t)^2"], dim_p=2, alpha="t^2", weight=3)
    # weight * d(alpha)/dt = 6t on top of 2 cot t
    assert geometry.trace_drift(fam, 0.4) == pytest.approx(
        2.0 / math.tan(0.4) + 2.4, rel=1e-12)
    assert geometry.trace_drift(fam, 0.003) == pytest.approx(
        2.0 / math.tan(0.003) + 0.018, rel=1e-10)


@pytest.mark.parametrize("fam_fn", [flat3, sphere])
def test_two_path_agreement(fam_fn):
    fam = fam_fn()
    for t in (0.004, 0.009, 0.02):
        for fn, args in ((geometry.trace_drift, (t,)),
                         (geometry.trace_potential, (t, 0.6 * t)),
                         (geometry.trace_potential2, (t, 0.6 * t))):
            a = fn(fam, *args, force_path="direct")
            b = fn(fam, *args, force_path="series")
            assert b == pytest.approx(a, rel=1e-9), (fn.__name__, t)


def test_trace_argument_guards():
    fam = flat3()
    with pytest.raises(ValidationError):
        geometry.trace_drift(fam, 0.0)
    with pytest.raises(ValidationError):
        geometry.trace_potential(fam, -1.0, 0.5)
    with pytest.raises(ValidationError):
        geometry.trace_drift(fam, 1.0, force_path="magic")
    block = geometry.MetricFamily.from_entries(
        [["t^2", "t^3"], ["t^3", "1"]], dim_p=1)
    with pytest.raises(ValidationError):
        geometry.trace_potential2(block, 0.5, 0.2)


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
    assert ok._structure_ok == {False, True}
    assert not bad._structure_ok


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


def test_harmonic_solution_derivative_consistency():
    sol = geometry.solve_harmonic(sphere(), 0.6, 1.4, tol=1e-11)
    # rddot from the vector field matches a finite difference of rdot
    for t in (0.3, 0.9):
        h = 1e-6
        fd = (sol.rdot(t + h) - sol.rdot(t - h)) / (2 * h)
        assert sol.rddot(t) == pytest.approx(fd, rel=1e-5)
    assert geometry.recover_r(sol.traj, 0.7) == pytest.approx(sol.r(0.7))


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


def test_tension_residual_signed():
    # residual of a deliberately wrong profile has the predicted value
    fam = flat3()
    t, r, rdot, rddot = 0.5, 0.2, 0.1, 0.0
    D = 2.0 / t + t / (1 + t * t)
    V = 2 * r / t ** 2 + r / (1 + t * t)
    want = rddot + D * rdot - V
    assert geometry.tension_residual(fam, t, r, rdot, rddot) == \
        pytest.approx(want, rel=1e-12)


def test_build_metric_family_from_config():
    fam = geometry.build_metric_family(
        {"diagonal": ["sin(t)^2", "sin(t)^2"], "dim_p": 2,
         "t_switch": 0.05, "t_validate": 0.8})
    assert fam.dim_p == 2
    assert fam.t_switch == 0.05
    assert fam.t_validate == 0.8
    fam2 = geometry.build_metric_family(
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
        geometry.build_metric_family(cfg)


def test_config_expression_errors_are_config_errors():
    with pytest.raises((ConfigError, ValidationError)):
        geometry.build_metric_family(
            {"diagonal": ["sin(t", "1"], "dim_p": 1})

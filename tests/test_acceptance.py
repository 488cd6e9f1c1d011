"""Release gate: one test per shipped guarantee, run with ``pytest -v``.

Each test prints an ``acceptance NN PASS`` line on success so a plain
``pytest -s`` run reads as a checklist.  Items 7 to 11 register their
trajectories with module fixtures; item 12 replays the independent
residual checkers over all of them.
"""

import cmath
import math

import numpy as np
import pytest

from regsing import expr, geometry, linear, singular
from regsing.errors import AdmissibilityError


def sphere_metric():
    return geometry.MetricFamily.from_diagonal(
        ["sin(t)^2", "sin(t)^2"], dim_p=2)


# -- shared trajectories ------------------------------------------------------

@pytest.fixture(scope="module")
def flat_runs():
    runs = []
    for p in (1, 2, 5):
        fam = geometry.MetricFamily.from_diagonal(["t^2"] * p, dim_p=p)
        for v in (-1.0, 0.5, 3.0):
            runs.append((geometry.solve_harmonic(fam, v, 2.0, tol=1e-12),
                         v, 1e-12))
    return runs


@pytest.fixture(scope="module")
def sphere_identity_run():
    return geometry.solve_harmonic(sphere_metric(), 1.0, 1.5, tol=1e-10)


@pytest.fixture(scope="module")
def handoff_runs(start_at):
    # the solve's own handoff and half of it, started from the solve's own
    # series
    fam = sphere_metric()
    base = singular.solve(geometry.assemble_harmonic(fam, 0.6, 1.5),
                          tol=1e-10)
    t0 = base.diagnostics["handoff"]
    sols = []
    for h in (t0, t0 / 2.0):
        traj = start_at(geometry.assemble_harmonic(fam, 0.6, 1.5), h,
                        tol=1e-10, order=base.diagnostics["series_order"])
        sols.append(geometry.HarmonicSolution(fam, traj))
    return sols


@pytest.fixture(scope="module")
def lipschitz_runs():
    fam = sphere_metric()
    out = {}
    for tol in (1e-9, 1e-10):
        out[tol] = [geometry.solve_harmonic(fam, float(v), 1.5, tol=tol)
                    for v in np.linspace(0.5, 2.0, 10)]
    return out


@pytest.fixture(scope="module")
def biharmonic_run():
    fam = geometry.MetricFamily.from_diagonal(["t^2", "t^2"], dim_p=2)
    return geometry.solve_biharmonic(fam, 1.0, 1.0, 1.0, tol=1e-10)


# -- gate items ---------------------------------------------------------------

def test_monodromy_small_loop_limit():
    # constant coefficient 1/2: the loop limit is exp(-2 pi i / 2) = -1
    sys = linear.LinearRSSystem([[0.5]], rho=1.0)
    gaps = []
    for sigma in (1e-1, 1e-2, 1e-3):
        M = linear.monodromy_at(sys, sigma, tol=1e-11).matrix
        gaps.append(abs(M[0, 0] + 1.0))
    assert all(g < 1e-8 for g in gaps)
    assert gaps[-1] < 1e-8
    generator = linear.monodromy_at(sys, 0.0).matrix
    assert abs(generator[0, 0] + 1.0) < 1e-12
    print("acceptance 01 PASS monodromy loop limit")


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_monodromy_nilpotent_closed_form(lam, sigma):
    sys = linear.LinearRSSystem([[lam, "t"], [0.0, lam + 1.0]], rho=2.0)
    M = linear.monodromy_at(sys, sigma, tol=1e-11).matrix
    phase = cmath.exp(-2j * math.pi * lam)
    want = phase * np.array([[1.0, -2j * math.pi * sigma], [0.0, 1.0]])
    assert np.abs(M - want).max() < 1e-8
    print("acceptance 02 PASS nilpotent closed form")


def test_charpoly_independent_of_loop_radius():
    rng = np.random.default_rng(99)

    def rand_entry():
        c = [float(x) for x in 0.4 * rng.standard_normal(3)]
        return f"{c[0]!r} + {c[1]!r}*t + {c[2]!r}*t^2"

    for _ in range(5):
        sys = linear.LinearRSSystem(
            [[rand_entry() for _ in range(3)] for _ in range(3)], rho=2.0)
        polys = [linear.monodromy_at(sys, s).charpoly
                 for s in (0.2, 0.5, 0.9)]
        for p in polys[1:]:
            assert np.abs(p - polys[0]).max() < 1e-7
    print("acceptance 03 PASS charpoly conjugacy invariance")


def test_transport_cocycle_identity():
    rng = np.random.default_rng(1717)
    z0 = -1.2 + 0.0j
    for _ in range(5):

        def rand_entry():
            c = [float(x) for x in 0.5 * rng.standard_normal(3)]
            return f"{c[0]!r} + {c[1]!r}*t + {c[2]!r}*t^2"

        sys = linear.LinearRSSystem(
            [[rand_entry() for _ in range(2)] for _ in range(2)], rho=3.0)
        z = complex(rng.uniform(-1.5, 0.5), rng.uniform(-1.0, 1.0))
        lhs = linear.fundamental_solution(sys, z0, z + 2j * math.pi)
        rhs = linear.fundamental_solution(sys, z0, z) @ \
            linear.fundamental_solution(sys, z0, z0 + 2j * math.pi)
        assert np.linalg.norm(lhs - rhs) < 1e-7
    print("acceptance 04 PASS transport cocycle")


def test_resonant_problem_is_rejected():
    # y' = y/t - 1 admits no smooth branch: stage h = 1 is resonant
    p = singular.SingularIVP(lambda y: y, lambda t, y: y * 0.0 - 1.0,
                             np.array([0.0]), 1.0)
    with pytest.raises(AdmissibilityError) as ei:
        singular.solve(p)
    assert ei.value.report.offending_h == [1]
    assert not ei.value.report.verdict
    print("acceptance 05 PASS resonance rejected, no trajectory")


def test_scalar_pole_oracle():
    p = singular.SingularIVP(lambda y: -2.0 * y,
                             lambda t, y: y * 0.0 + 1.0,
                             np.array([0.0]), 1.0)
    coeffs = singular.bootstrap_series(p, order=10)
    assert abs(coeffs[1, 0] - 1.0 / 3.0) < 1e-12
    assert np.abs(coeffs[2:, 0]).max() < 1e-12
    traj = singular.solve(p, tol=1e-10)
    assert abs(traj.value(1.0)[0] - 1.0 / 3.0) < 1e-9
    print("acceptance 06 PASS scalar pole oracle y(1) = 1/3")


def test_flat_profiles_exact(flat_runs):
    for sol, v, _ in flat_runs:
        for t in np.linspace(2.0 / 64, 2.0, 64):
            assert abs(sol.r(t) - v * t) < 1e-12 * (1.0 + abs(v))
    print("acceptance 07 PASS flat profiles linear to 1e-12")


def test_sphere_identity_map(sphere_identity_run):
    sol = sphere_identity_run
    ts = np.linspace(1.5 / 64, 1.5, 64)
    assert max(abs(sol.r(t) - t) for t in ts) < 1e-8
    assert max(abs(sol.residual(t)) for t in ts) < 1e-8
    print("acceptance 08 PASS sphere identity profile")


def test_handoff_choice_invariance(handoff_runs):
    a, b = handoff_runs
    assert a.traj.handoff == pytest.approx(2 * b.traj.handoff)
    assert abs(a.r(1.5) - b.r(1.5)) < 50 * 1e-10
    print("acceptance 09 PASS handoff independence")


def test_lipschitz_constant_stable_under_tolerance(lipschitz_runs):
    vs = np.linspace(0.5, 2.0, 10)
    L = {}
    for tol, sols in lipschitz_runs.items():
        ends = np.array([s.r(1.5) for s in sols])
        L[tol] = np.abs(np.diff(ends) / np.diff(vs)).max()
    change = abs(L[1e-9] - L[1e-10]) / L[1e-10]
    assert change < 0.01
    print(f"acceptance 10 PASS Lipschitz constant stable ({change:.2e})")


def test_biharmonic_flat_family(biharmonic_run):
    sol = biharmonic_run
    for t in np.linspace(1.0 / 64, 1.0, 64):
        assert abs(sol.r(t) - (t + t ** 3 / 10.0)) < 1e-9
        assert abs(sol.F(t) - t) < 1e-9
        res_r, res_f = sol.residuals(t)
        assert abs(res_r) < 1e-8 and abs(res_f) < 1e-8
    print("acceptance 11 PASS biharmonic closed family")


def test_residual_checkers_on_all_accepted_runs(
        flat_runs, sphere_identity_run, handoff_runs, lipschitz_runs,
        biharmonic_run):
    def worst_harmonic(sol, t_end):
        return max(abs(sol.residual(t))
                   for t in np.linspace(t_end / 64, t_end, 64))

    for sol, _, tol in flat_runs:
        assert worst_harmonic(sol, 2.0) < 100 * tol
    assert worst_harmonic(sphere_identity_run, 1.5) < 100 * 1e-10
    for sol in handoff_runs:
        assert worst_harmonic(sol, 1.5) < 100 * 1e-10
    for tol, sols in lipschitz_runs.items():
        for sol in sols:
            assert worst_harmonic(sol, 1.5) < 100 * tol
    worst = 0.0
    for t in np.linspace(1.0 / 64, 1.0, 64):
        worst = max(worst, *map(abs, biharmonic_run.residuals(t)))
    assert worst < 100 * 1e-10
    print("acceptance 12 PASS independent residuals everywhere")


def test_series_and_direct_paths_agree():
    rng = np.random.default_rng(7)
    a, d = (float(x) for x in 1.0 + rng.uniform(0.0, 1.0, 2))
    c = float(rng.uniform(-0.4, 0.4))
    b = [float(x) for x in rng.uniform(0.1, 0.5, 2)]
    block = geometry.MetricFamily.from_entries(
        [[f"t^2*({a!r} + {b[0]!r}*t^2)", f"{c!r}*t^2"],
         [f"{c!r}*t^2", f"{d!r} + {b[1]!r}*t^2"]], dim_p=1)
    for fam in (sphere_metric(), block):
        for t in np.geomspace(8e-3, 5e-2, 7):
            t = float(t)
            for fn, args in ((geometry.trace_drift, (t,)),
                             (geometry.trace_potential, (t, 0.4 * t))):
                fam.t_switch = 0.0          # direct branch at every t > 0
                direct = fn(fam, *args)
                fam.t_switch = math.inf     # series branch at every t
                series = fn(fam, *args)
                assert series == pytest.approx(direct, rel=1e-9, abs=1e-12)
    print("acceptance 13 PASS two-path overlap agreement")


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return "t"
        return repr(round(float(rng.uniform(-2.0, 2.0)), 4))
    kind = rng.integers(0, 6)
    a = random_expr(rng, depth - 1)
    b = random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a}) * ({b})"
    if kind == 3:
        fn = ("sin", "cos", "tanh")[rng.integers(0, 3)]
        return f"{fn}({a})"
    if kind == 4:
        return f"exp(0.3 * ({a}))"
    return f"({a})^{rng.integers(2, 4)}"


def test_expression_layer_property_and_maclaurin():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 1000:
        src = random_expr(rng, 3)
        e = expr.parse(src)
        de = expr.differentiate(e)
        x = rng.uniform(-1.5, 1.5)
        h = 1e-6 * (1.0 + abs(x))
        fd = (expr.eval_real(e, x + h) - expr.eval_real(e, x - h)) / (2 * h)
        an = expr.eval_real(de, x)
        assert abs(an - fd) <= 1e-6 * (1.0 + abs(an) + abs(fd)), src
        checked += 1

    k = np.arange(11)
    np.testing.assert_allclose(
        expr.taylor(expr.parse("sin(t)"), 0.0, 10).coeffs,
        [0, 1, 0, -1 / 6, 0, 1 / 120, 0, -1 / 5040, 0, 1 / 362880, 0],
        atol=1e-15)
    np.testing.assert_allclose(
        expr.taylor(expr.parse("exp(t)"), 0.0, 10).coeffs,
        1.0 / np.array([math.factorial(int(i)) for i in k]), atol=1e-15)
    np.testing.assert_allclose(
        expr.taylor(expr.parse("1/(1 - t)"), 0.0, 10).coeffs, np.ones(11), atol=1e-15)
    print("acceptance 14 PASS expression layer properties")

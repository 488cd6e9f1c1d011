"""Linear systems with a simple pole: monodromy, fundamental solutions."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from regsing import linear
from regsing.errors import ValidationError


def nilpotent_family(lam):
    # A(s) = diag(lam, lam+1) + s*[[0,1],[0,0]]; closed-form monodromy
    # M(sigma) = exp(-2 pi i lam) [[1, -2 pi i sigma], [0, 1]]
    return linear.LinearRSSystem([[lam, "t"], [0.0, lam + 1.0]], rho=2.0)


def closed_form_monodromy(lam, sigma):
    phase = cmath.exp(-2j * math.pi * lam)
    return phase * np.array([[1.0, -2j * math.pi * sigma], [0.0, 1.0]])


def test_construction_and_entry_kinds():
    sys = linear.LinearRSSystem([["1 + t", 0.5], [0, "sin(t)"]], rho=1.0)
    A = sys.A_at(0.3)
    assert A[0, 0] == pytest.approx(1.3)
    assert A[0, 1] == 0.5
    assert A[1, 1] == pytest.approx(math.sin(0.3))
    with pytest.raises(ValidationError):
        linear.LinearRSSystem([[0.0, 1.0]], rho=1.0)        # not square
    with pytest.raises(ValidationError):
        linear.LinearRSSystem([["1/t"]], rho=1.0)           # hidden pole
    with pytest.raises(ValidationError):
        linear.LinearRSSystem([[1.0]], rho=-2.0)


def test_h_is_probed_like_A():
    with pytest.raises(ValidationError, match=r"^h\[0\] is not analytic"):
        linear.LinearRSSystem([["0"]], h=["1/t"])
    with pytest.raises(ValidationError, match=r"^h\[1\] is not analytic"):
        linear.LinearRSSystem([["0", "0"], ["0", "1"]], h=["1", "sqrt(t)"])


def test_matrix_exponential_against_scipy():
    rng = np.random.default_rng(314)
    for scale in (0.3, 2.0, 9.0):
        for _ in range(6):
            M = scale * (rng.normal(size=(4, 4)) +
                         1j * rng.normal(size=(4, 4)))
            got = linear.matrix_exponential(M)
            want = scipy.linalg.expm(M)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_monodromy_generator_diagonal():
    M = linear.monodromy_generator(np.diag([0.5, 1.0]))
    np.testing.assert_allclose(M, np.diag([-1.0, 1.0]), atol=1e-14)


def test_charpoly_faddeev_leverrier():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        got = linear.conjugacy_invariants(M)
        want = np.poly(M)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def _faddeev_leverrier(M):
    """The recursion conjugacy_invariants used before La Budde's method."""
    n = M.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = M.copy()
    for k in range(1, n + 1):
        coeffs[k] = -np.trace(Mk) / k
        if k < n:
            Mk = M @ (Mk + coeffs[k] * np.eye(n))
    return coeffs


def test_charpoly_of_spread_spectrum_at_n8():
    # monodromy-like matrices Q diag(exp(-2 pi i lam)) Q^-1 whose
    # eigenvalue moduli exp(2 pi Im lam) span e^-2pi .. e^2pi
    rng = np.random.default_rng(8128)
    n = 8
    for _ in range(4):
        lam = rng.uniform(-1, 1, n) + 1j * np.linspace(-1, 1, n)
        Q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        eig = np.exp(-2j * math.pi * lam)
        M = Q @ np.diag(eig) @ np.linalg.inv(Q)
        want = np.poly(eig)

        def rel_err(c):
            return np.abs(c - want).max() / np.abs(want).max()

        assert rel_err(linear.conjugacy_invariants(M)) <= 1e-9
        # planted fault: the former recursion misses the same bound
        assert rel_err(_faddeev_leverrier(M)) > 1e-9


def test_monodromy_at_zero_equals_generator():
    sys = nilpotent_family(0.25)
    res = sys_mono(sys, 0.0)
    want = linear.monodromy_generator(sys.A_at(0.0))
    np.testing.assert_allclose(res.matrix, want, atol=1e-14)
    assert res.path_steps == 0


def sys_mono(sys, sigma, tol=1e-10):
    return linear.monodromy_at(sys, sigma, tol=tol)


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_monodromy_closed_form(lam, sigma):
    res = sys_mono(nilpotent_family(lam), sigma)
    np.testing.assert_allclose(res.matrix, closed_form_monodromy(lam, sigma),
                               atol=1e-8)


def test_charpoly_constant_in_sigma():
    # the invariants of the matrices themselves: a series loop reports its
    # system's cached charpoly, which cannot move with sigma
    sys = linear.LinearRSSystem(
        [["0.3 + 0.2*t", "t^2"], ["0.1*t", "-0.4 + 0.05*t"]], rho=2.0)
    polys = [linear.conjugacy_invariants(sys_mono(sys, s).matrix)
             for s in (0.2, 0.5, 0.9)]
    for p in polys[1:]:
        np.testing.assert_allclose(p, polys[0], atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monodromy_is_the_transport_along_the_loop(n):
    # the loop of radius sigma is the segment [log sigma, log sigma + 2 pi i]
    # of the log cover, integrated by the one transport
    sys = linear.LinearRSSystem(
        [[f"{0.3 * (i - j) + 0.1} + {0.2 * (j + 1)}*sin(t)" if i <= j
          else f"{0.1 * i}*t^2" for j in range(n)] for i in range(n)],
        rho=2.0)
    for sigma in (0.3, 0.7):
        z0 = math.log(sigma)
        U = linear.fundamental_solution(sys, z0, z0 + 2j * math.pi)
        assert sys_mono(sys, sigma).matrix.tobytes() == U.tobytes()


def test_fundamental_constant_coefficient():
    sys = linear.LinearRSSystem([[1.0]], rho=100.0)
    U = linear.fundamental_solution(sys, 0.0, 1.0)
    assert U[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-10)
    # U(z0 -> z0) is the identity
    np.testing.assert_allclose(
        linear.fundamental_solution(sys, 0.5, 0.5), np.eye(1))


def test_fundamental_group_property():
    sys = nilpotent_family(0.1)
    z0, zm, z1 = -1.0, -0.3 + 0.4j, 0.2 + 0.1j
    direct = linear.fundamental_solution(sys, z0, z1)
    split = linear.fundamental_solution(sys, zm, z1) @ \
        linear.fundamental_solution(sys, z0, zm)
    np.testing.assert_allclose(direct, split, atol=1e-9)


def test_fundamental_periodicity_relation():
    # moving a loop up the cover commutes with transport along it
    sys = nilpotent_family(0.2)
    z0 = -1.5
    for z in (-0.5, 0.1 + 0.7j):
        lhs = linear.fundamental_solution(sys, z0, z + 2j * math.pi)
        rhs = linear.fundamental_solution(sys, z0, z) @ \
            linear.fundamental_solution(sys, z0, z0 + 2j * math.pi)
        assert np.linalg.norm(lhs - rhs) < 1e-7


def test_halfplane_guard():
    sys = linear.LinearRSSystem([[1.0]], rho=1.0)   # log rho = 0
    with pytest.raises(ValidationError):
        linear.fundamental_solution(sys, -1.0, 0.5)
    with pytest.raises(ValidationError):
        linear.monodromy_at(sys, 1.5)
    with pytest.raises(ValidationError):
        linear.monodromy_at(sys, -0.1)


def test_solve_inhomogeneous_smooth_branch():
    # dY/ds + Y/s = 1 has the smooth branch Y = s/2
    sys = linear.LinearRSSystem([[1.0]], h=["1"], rho=100.0)
    z0, z1 = math.log(0.5), 0.0
    got = linear.solve_inhomogeneous(sys, z0, z1, [0.25])
    assert got[0] == pytest.approx(0.5, abs=1e-10)
    # and from another base point on the same branch
    got2 = linear.solve_inhomogeneous(sys, math.log(0.1), math.log(2.0),
                                      [0.05])
    assert got2[0] == pytest.approx(1.0, abs=1e-9)


def test_solve_inhomogeneous_vs_variation_of_constants():
    # cross-check a 2x2 against the fundamental-solution formula
    sys = linear.LinearRSSystem(
        [["0.5", "t"], ["0.2*t", "-0.3"]], h=["cos(t)", "1"], rho=10.0)
    z0, z1 = math.log(0.3), math.log(1.2)
    Y0 = np.array([0.1, -0.2])
    got = linear.solve_inhomogeneous(sys, z0, z1, Y0)

    # dY/dz = -A(e^z) Y + e^z h(e^z): integrate U and the forced term
    import regsing.rk as rk

    def rhs(s, state):
        z = z0 + s * (z1 - z0)
        ez = cmath.exp(z)
        U = state[:4].reshape(2, 2)
        y = state[4:]
        dU = -(sys.A_at(ez) @ U)
        dy = -(sys.A_at(ez) @ y) + ez * sys.h_at(ez)
        return (z1 - z0) * np.concatenate([dU.ravel(), dy])

    state0 = np.concatenate([np.eye(2, dtype=complex).ravel(),
                             Y0.astype(complex)])
    res = rk.integrate_adaptive(rhs, 0.0, state0, 1.0, 1e-12)
    np.testing.assert_allclose(got, res.ys[-1][4:], atol=1e-9)


def test_monodromy_est_error_reported():
    res = sys_mono(nilpotent_family(0.0), 0.5)
    assert res.path_steps > 0
    assert 0 < res.est_error < 1e-6


# -- the Frobenius series branch against a fixed-step RK4 oracle --------------
#
# The oracle reads A(s) from the coefficient arrays in numpy and integrates
# dY/dtheta = -dz A(e^(z0 + theta dz)) Y with classical RK4 at N and 2N
# steps, extrapolated (16 Y_2N - Y_N) / 15.  It makes no regsing call, so it
# also fails on a wrong P, which eigenvalue and cocycle checks cannot see:
# they hold for any conjugate P G P^-1.

def _random_system(rng, n, scale=0.3):
    """``A(s) = C0 + C1 s + C2 sin(w s)`` entrywise: regsing's expression
    strings and the oracle's numpy evaluation of the same entries."""
    C0, C1, C2 = (scale * n * Z / np.linalg.norm(Z)
                  for Z in rng.standard_normal((3, n, n)))
    W = rng.uniform(0.5, 1.5, (n, n))
    text = [[f"{c0!r} + {c1!r}*t + {c2!r}*sin({w!r}*t)"
             for c0, c1, c2, w in zip(*(M.tolist() for M in rows))]
            for rows in zip(C0, C1, C2, W)]

    def A(s):
        return C0 + C1 * s + C2 * np.sin(W * s)

    return text, A


def _rk4_transport(A, z0, z1, steps=1500):
    n = A(0.0).shape[0]
    dz = z1 - z0

    def f(theta, Y):
        return -dz * (A(np.exp(z0 + theta * dz)) @ Y)

    def run(N):
        Y, h = np.eye(n, dtype=complex), 1.0 / N
        for k in range(N):
            t = k * h
            k1 = f(t, Y)
            k2 = f(t + h / 2, Y + h / 2 * k1)
            k3 = f(t + h / 2, Y + h / 2 * k2)
            k4 = f(t + h, Y + h * k3)
            Y = Y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return Y

    return (16 * run(2 * steps) - run(steps)) / 15


def _off_oracle(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n, seed", [(2, 11), (4, 12), (8, 13)])
def test_series_loops_match_an_rk4_oracle(n, seed):
    text, A = _random_system(np.random.default_rng(seed), n)
    sys = linear.LinearRSSystem(text, rho=2.0)
    for sigma in (0.5, 0.9):
        res = linear.monodromy_at(sys, sigma)
        assert (res.path, res.declined, res.path_steps) == ("series", None, 0)
        z0 = math.log(sigma)
        want = _rk4_transport(A, z0, z0 + 2j * math.pi)
        assert _off_oracle(res.matrix, want) <= 1e-9
        assert 0.0 < res.est_error <= 1e-10 * (1 + np.abs(want).sum(1).max())


def test_a_tight_tol_loop_whose_residual_is_rounding_takes_the_series():
    # at tol 1e-12 the residual of this n = 8 series, 4.5e-14, is rounding
    # and lies above (K + 1) 1e-3 tol = 3.1e-14; its rounding term, 5.8e-13,
    # lets the series through
    text, A = _random_system(np.random.default_rng(25), 8)
    sys = linear.LinearRSSystem(text, rho=2.0)
    sigma, tol = 0.7, 1e-12
    res = linear.monodromy_at(sys, sigma, tol=tol)
    assert (res.path, res.declined, res.path_steps) == ("series", None, 0)
    z0 = math.log(sigma)
    want = _rk4_transport(A, z0, z0 + 2j * math.pi)
    assert _off_oracle(res.matrix, want) <= 100 * tol


def test_series_transports_match_an_rk4_oracle():
    text, A = _random_system(np.random.default_rng(14), 4)
    sys = linear.LinearRSSystem(text, rho=2.0)
    z0 = -1.2
    for z1 in (-1.5 + 2.0j, 0.0 - 1.0j, 0.3 + 0.7j, 0.3 + 2j * math.pi):
        t = linear.transport(sys, z0, z1)
        assert (t.path, t.declined, t.steps) == ("series", None, 0)
        assert _off_oracle(t.Y, _rk4_transport(A, z0, z1)) <= 1e-9
        assert linear.fundamental_solution(sys, z0, z1).tobytes() == \
            t.Y.tobytes()


def test_series_loop_of_a_polynomial_p_is_exact():
    # A = [[lam, s], [0, lam + 1/2]] has P = I + [[0, -2], [0, 0]] s, so
    # M(sigma) = exp(-2 pi i lam) [[1, 4 sigma], [0, -1]]
    lam = 1.0 / 3.0
    sys = linear.LinearRSSystem([[lam, "t"], [0.0, lam + 0.5]], rho=2.0)
    for sigma in (0.1, 0.5, 1.0):
        res = linear.monodromy_at(sys, sigma)
        want = cmath.exp(-2j * math.pi * lam) * np.array(
            [[1.0, 4.0 * sigma], [0.0, -1.0]])
        assert res.path == "series"
        assert np.abs(res.matrix - want).max() <= 1e-13


@pytest.mark.parametrize("shift, sign", [(1.0, 1.0), (0.5, -1.0)],
                         ids=["resonant", "non-resonant"])
def test_a_zero_radius_loop_is_the_generator_whatever_the_resonance(shift,
                                                                    sign):
    lam = 0.25
    sys = linear.LinearRSSystem([[lam, "t"], [0.0, lam + shift]], rho=2.0)
    res = linear.monodromy_at(sys, 0.0)
    assert (res.path, res.declined, res.path_steps) == ("generator", None, 0)
    want = cmath.exp(-2j * math.pi * lam) * np.diag([1.0, sign])
    assert np.abs(res.matrix - want).max() <= 1e-13


def test_an_empty_segment_is_the_start_on_neither_path():
    sys = nilpotent_family(0.25)
    t = linear.transport(sys, -0.5 + 1j, -0.5 + 1j)
    assert (t.path, t.declined, t.steps) == ("empty", None, 0)
    assert np.array_equal(t.Y, np.eye(2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_resonant_loop_integrates_and_names_its_index(k):
    # exponents lam and lam + k: the order-k Sylvester solve is singular
    lam, c, sigma = 0.2, 0.7, 0.6
    sys = linear.LinearRSSystem([[lam, f"{c}*t^{k}"], [0.0, lam + k]],
                                rho=2.0)
    res = linear.monodromy_at(sys, sigma)
    assert (res.path, res.declined) == ("integrated", f"resonant at h = {k}")
    assert res.path_steps > 0

    def A(s):
        return np.array([[lam, c * s ** k], [0.0, lam + k]], dtype=complex)

    z0 = math.log(sigma)
    assert _off_oracle(res.matrix, _rk4_transport(A, z0, z0 + 2j * math.pi)) \
        <= 1e-9


def _gap_system(gap):
    """Exponents 0.2 and 1.2 + gap, coupled both ways."""
    text = [["0.2 + 0.3*t", "0.5*t + 0.2*t^2"],
            ["0.7 - 0.4*t", f"{1.2 + gap!r} + sin(t)"]]

    def A(s):
        return np.array([[0.2 + 0.3 * s, 0.5 * s + 0.2 * s * s],
                         [0.7 - 0.4 * s, 1.2 + gap + np.sin(s)]])

    return linear.LinearRSSystem(text, rho=10.0), A


# Inside the scan's singularity threshold, about 1e-8 (1 + |J|), a gap is a
# resonance; just above it the series exists but its P_h grow like 1/gap,
# and the residual or the bound carried through P^-1 must decline it.
@pytest.mark.parametrize("gap, reasons", [
    (1e-9, ("resonant at h = 1",)),
    (1e-7, ("conditioning", "residual")),
    (1e-6, ("conditioning", "residual")),
    (1e-5, ("conditioning", "residual")),
    (1e-4, ("conditioning", "residual")),
])
def test_a_near_resonant_loop_is_declined(gap, reasons):
    sys, A = _gap_system(gap)
    sigma = 0.7
    z0 = math.log(sigma)
    want = _rk4_transport(A, z0, z0 + 2j * math.pi)
    res = linear.monodromy_at(sys, sigma)
    assert res.path == "integrated"
    assert res.declined in reasons
    assert _off_oracle(res.matrix, want) <= 1e-9
    if not reasons[0].startswith("resonant"):
        # planted fault: taken anyway, the series product misses the oracle
        fr = linear._expand(sys)
        P = np.tensordot(sigma ** np.arange(len(fr.P)), fr.P, axes=1)
        G = linear.matrix_exponential(-2j * math.pi * fr.A0)
        assert _off_oracle(P @ G @ np.linalg.inv(P), want) > 1e-9


def test_a_point_past_the_reach_of_the_order_cap_integrates():
    # 1/(1 - s) has radius 1: at sigma = 0.9 the terms fall like 0.9^h
    text = [["0.2", "1/(1 - t)"], ["0.5*t", "-0.3"]]
    sys = linear.LinearRSSystem(text, rho=1.0)
    assert linear.monodromy_at(sys, 0.2).path == "series"
    res = linear.monodromy_at(sys, 0.9)
    assert (res.path, res.declined) == ("integrated", "tail")

    def A(s):
        return np.array([[0.2, 1 / (1 - s)], [0.5 * s, -0.3]])

    z0 = math.log(0.9)
    assert _off_oracle(res.matrix, _rk4_transport(A, z0, z0 + 2j * math.pi,
                                                  steps=3000)) <= 1e-9


def test_a_system_above_the_size_cap_integrates():
    n = linear.SERIES_MAX_DIM + 1
    text, A = _random_system(np.random.default_rng(15), n, scale=0.1)
    sys = linear.LinearRSSystem(text, rho=2.0)
    res = linear.monodromy_at(sys, 0.5)
    assert (res.path, res.declined) == ("integrated", "size")
    z0 = math.log(0.5)
    assert _off_oracle(res.matrix, _rk4_transport(A, z0, z0 + 2j * math.pi)) \
        <= 1e-9


def _charpoly_off(res):
    want = linear.conjugacy_invariants(res.matrix)
    return np.abs(res.charpoly - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n, seed", [(2, 11), (4, 12), (8, 13)])
def test_a_series_loop_reports_the_charpoly_of_its_generator(n, seed):
    text, _ = _random_system(np.random.default_rng(seed), n)
    sys = linear.LinearRSSystem(text, rho=2.0)
    for sigma in (0.5, 0.9):
        res = linear.monodromy_at(sys, sigma)
        assert res.path == "series"
        assert _charpoly_off(res) <= 1e-9
    # planted fault: the invariants of exp(+2 pi i A0) in the cache
    sys._frobenius.charpoly = linear.conjugacy_invariants(
        linear.matrix_exponential(2j * math.pi * sys._frobenius.A0))
    res = linear.monodromy_at(sys, 0.5)
    assert res.path == "series"
    assert _charpoly_off(res) > 1e-9


def test_an_integrated_loop_reports_the_charpoly_of_its_matrix():
    sys = linear.LinearRSSystem([[0.2, "0.7*t"], [0.0, 1.2]], rho=2.0)
    res = linear.monodromy_at(sys, 0.6)
    assert (res.path, res.declined) == ("integrated", "resonant at h = 1")
    want = linear.conjugacy_invariants(res.matrix)
    assert res.charpoly.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_norm_helpers_are_numpys_norms_bit_for_bit(dtype):
    # the series and exponential checks compare these norms with <=, so a
    # nan must come out as numpy's does too
    rng = np.random.default_rng(2718)
    for n in range(1, 9):
        for planted in (None, np.inf, -np.inf, np.nan):
            M = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            if dtype is complex:
                M = M + 1j * rng.standard_normal((n, n))
            if planted is not None:
                M[rng.integers(n), rng.integers(n)] = planted
            for mine, order in ((linear._norm_inf, np.inf),
                                (linear._norm_1, 1)):
                got, want = mine(M), np.linalg.norm(M, order)
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_a_corrupted_series_coefficient_is_declined_on_its_residual():
    text, A = _random_system(np.random.default_rng(16), 3)
    sys = linear.LinearRSSystem(text, rho=2.0)
    sigma = 0.6
    assert linear.monodromy_at(sys, sigma).path == "series"
    sys._frobenius.P[3, 0, 1] += 1e-6        # planted fault in the cache
    res = linear.monodromy_at(sys, sigma)
    assert (res.path, res.declined) == ("integrated", "residual")
    z0 = math.log(sigma)
    assert _off_oracle(res.matrix, _rk4_transport(A, z0, z0 + 2j * math.pi)) \
        <= 1e-9


def test_the_series_is_expanded_on_first_use():
    sys = linear.LinearRSSystem([["0.3", "t"], ["0", "-0.2"]], rho=2.0)
    assert sys._frobenius is None
    linear.monodromy_at(sys, 0.5)
    assert sys._frobenius.P.shape == (linear.SERIES_ORDER + 1, 2, 2)


def test_a_source_free_transport_checks_tol():
    sys = linear.LinearRSSystem([["0.3", "t"], ["0", "-0.2"]], rho=2.0)
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tol must be finite"):
            linear.fundamental_solution(sys, -1.0, 0.2, tol=tol)

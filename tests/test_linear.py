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
    sys = linear.LinearRSSystem(
        [["0.3 + 0.2*t", "t^2"], ["0.1*t", "-0.4 + 0.05*t"]], rho=2.0)
    polys = [sys_mono(sys, s).charpoly for s in (0.2, 0.5, 0.9)]
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

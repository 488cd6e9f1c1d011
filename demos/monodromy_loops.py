"""Walk the linear layer: loops around the pole, monodromy, invariants.

The model system is dY/ds + (1/s) A(s) Y = 0 with

    A(s) = [[lam, s], [0, lam + 1]]

whose monodromy has the closed form e^{-2 pi i lam} [[1, -2 pi i s0],
[0, 1]] at loop radius s0.  The off-diagonal entry keeps growing as the
loop widens even though the eigenvalues never move, which is the whole
point of tracking the matrix and not just its spectrum.

Its exponents lam and lam + 1 are resonant, so its loops are integrated.
The twin A(s) = [[lam, s], [0, lam + 1/2]] is not: its Frobenius series
Y = P(s) s^(-A(0)) stops at P = I + [[0, -2], [0, 0]] s, so its loops are
P(s0) exp(-2 pi i A(0)) P(s0)^-1 = e^{-2 pi i lam} [[1, 4 s0], [0, -1]],
read from the series with no integration.
"""

import cmath
import math

import numpy as np

from regsing import linear


def closed_form(lam, sigma):
    return cmath.exp(-2j * math.pi * lam) * np.array(
        [[1.0, -2j * math.pi * sigma], [0.0, 1.0]])


def twin_closed_form(lam, sigma):
    return cmath.exp(-2j * math.pi * lam) * np.array(
        [[1.0, 4.0 * sigma], [0.0, -1.0]])


def main():
    lam = 1.0 / 3.0
    sys = linear.LinearRSSystem([[lam, "t"], [0.0, lam + 1.0]], rho=2.0)
    twin = linear.LinearRSSystem([[lam, "t"], [0.0, lam + 0.5]], rho=2.0)

    for name, system, exact in (
            ("resonant A(0) = diag(lam, lam + 1)", sys, closed_form),
            ("non-resonant twin A(0) = diag(lam, lam + 1/2)", twin,
             twin_closed_form)):
        print(f"== monodromy vs loop radius: {name} ==")
        for sigma in (1.0, 0.5, 0.1, 0.01, 0.0):
            res = linear.monodromy_at(system, sigma, tol=1e-11)
            err = np.abs(res.matrix - exact(lam, sigma)).max()
            tag = res.path      # "generator" is the radius 0 limit
            if res.path == "integrated":
                tag += f" ({res.declined}), {res.path_steps} path steps"
            print(f"  sigma = {sigma:<5} |M - closed form| = {err:.2e}   "
                  f"{tag}")
        print()

    print("== conjugacy invariants stay put while the matrix moves ==")
    for sigma in (0.2, 0.5, 0.9):
        res = linear.monodromy_at(sys, sigma)
        coeffs = ", ".join(f"{c.real:+.6f}{c.imag:+.6f}i"
                           for c in res.charpoly)
        print(f"  sigma = {sigma}: charpoly [{coeffs}]")

    # transporting around the marked loop commutes with transport along
    # any path on the cover; this is what makes "the" monodromy well
    # defined even though we compute it from one base point
    print("\n== cocycle check on the log cover ==")
    z0 = -1.0
    for z in (-0.5 + 0.0j, 0.2 + 0.7j):
        lhs = linear.fundamental_solution(sys, z0, z + 2j * math.pi)
        rhs = linear.fundamental_solution(sys, z0, z) @ \
            linear.fundamental_solution(sys, z0, z0 + 2j * math.pi)
        print(f"  z = {z}: defect {np.linalg.norm(lhs - rhs):.2e}")

    print("\n== smooth branch of an inhomogeneous problem ==")
    # dY/ds + Y/s = 1 has the branch Y = s/2 through the pole
    forced = linear.LinearRSSystem([[1.0]], h=["1"], rho=100.0)
    got = linear.solve_inhomogeneous(forced, math.log(0.5), 0.0, [0.25])
    print(f"  transported Y(s=1) = {got[0].real:.12f}   (exact 0.5)")


if __name__ == "__main__":
    main()

"""Oracles that check results without the code being measured.

Everything here is closed-form numpy on inputs the benchmark generated
itself; nothing calls into ``regsing``.
"""

import math

import numpy as np


class ClosedFamily:
    """A metric family ``P(t)`` with ``P`` and ``P'`` in closed form.

    The harmonic profile equation is ``r'' + drift(t) r' = V(t, r)`` with
    ``drift = Tr(P^-1 P')/2`` and ``V(t, rho) = Tr(P(t)^-1 P'(rho))/2``.
    """

    def __init__(self, P, dP):
        self.P = P
        self.dP = dP

    def drift(self, t):
        return 0.5 * float(np.trace(np.linalg.solve(self.P(t), self.dP(t))))

    def potential(self, t, rho):
        return 0.5 * float(np.trace(np.linalg.solve(self.P(t), self.dP(rho))))


def fd_tension_residual(fam: ClosedFamily, r, t, h=1e-2):
    """``r'' + drift r' - V(t, r)`` at ``t`` from five values of ``r``.

    Fourth-order central differences with step ``h``; truncation leaves a
    floor near ``h^4 |r^(6)| / 90``, about 1e-10 on these profiles.
    """
    r_m2, r_m1, r_0, r_p1, r_p2 = (r(t + k * h) for k in (-2, -1, 0, 1, 2))
    r1 = (r_m2 - 8.0 * r_m1 + 8.0 * r_p1 - r_p2) / (12.0 * h)
    r2 = ((-r_m2 + 16.0 * r_m1 - 30.0 * r_0 + 16.0 * r_p1 - r_p2)
          / (12.0 * h * h))
    return r2 + fam.drift(t) * r1 - fam.potential(t, r_0)


def poly_value(coeffs, t):
    """Value and derivative at ``t`` of ``sum_h coeffs[h] t^h``."""
    coeffs = np.asarray(coeffs, dtype=float)
    powers = t ** np.arange(coeffs.shape[0])
    value = powers @ coeffs
    dpowers = np.arange(1, coeffs.shape[0]) * powers[:-1]
    return value, dpowers @ coeffs[1:]


def harmonic_series_residual(fam: ClosedFamily, coeffs, t):
    """Residual of the truncated bootstrap series of the harmonic reduction.

    State ``(a, u)`` with ``r = t a`` and ``u = a'``; the profile equation
    becomes ``u' = (V(t, t a) - drift (a + t u) - 2 u) / t``.
    """
    (a, u), (da, du) = poly_value(coeffs, t)
    want_du = (fam.potential(t, t * a) - fam.drift(t) * (a + t * u)
               - 2.0 * u) / t
    return max(abs(da - u), abs(du - want_du))


def affine_series_residual(C, c, S, g, coeffs, t):
    """Residual of ``y' = (C y + c)/t + S(t) y + g(t)`` for the series."""
    y, dy = poly_value(coeffs, t)
    rhs = (C @ y + c) / t + S(t) @ y + g(t)
    return float(np.abs(dy - rhs).max())


def eigenvalue_error(M, want):
    """Largest distance from each wanted eigenvalue to a distinct one of M.

    Greedy nearest matching, relative to the largest wanted modulus.
    """
    got = list(np.linalg.eigvals(M))
    worst = 0.0
    for w in want:
        k = int(np.argmin([abs(x - w) for x in got]))
        worst = max(worst, abs(got.pop(k) - w))
    return worst / max(1.0, float(np.abs(want).max()))


def charpoly_error(charpoly, eigenvalues):
    """Distance of ``charpoly`` from ``np.poly(eigenvalues)``, relative to
    the largest coefficient."""
    want = np.poly(eigenvalues)
    return float(np.abs(np.asarray(charpoly) - want).max()
                 / np.abs(want).max())


def nilpotent_monodromy(lam, c, k, sigma):
    """Monodromy of ``A = [[lam, c t^k], [0, lam + k]]`` on ``|s| = sigma``."""
    phase = complex(math.cos(-2 * math.pi * lam), math.sin(-2 * math.pi * lam))
    return phase * np.array([[1.0, -2j * math.pi * c * sigma ** k],
                             [0.0, 1.0]])

"""The singular IVP pipeline on small worked problems.

Four stops: a solvable scalar problem with a known answer, a rejected
problem where the pole equations have no smooth branch, the hat reduction
that turns an implicit first-order system into a solvable one, and the same
reduction from a map that takes floats only.
"""

import numpy as np

from regsing import singular
from regsing.errors import AdmissibilityError


def main():
    print("== y' = -2y/t + cos t ==")
    p = singular.SingularIVP(
        lambda y: -2.0 * y,
        lambda t, y: y * 0.0 + (np.cos(t) if not hasattr(t, "coeffs")
                                else _cos_jet(t, y)),
        np.array([0.0]), 2.0)
    # jet capability is probed automatically; this forcing handles both
    traj = singular.solve(p, tol=1e-11)
    d = traj.diagnostics
    print(f"  admissible: residual {d['admissibility'].residual_norm:.1e}, "
          f"resonances {d['admissibility'].offending_h}")
    print(f"  series handoff at t0 = {d['handoff']:.4g}, "
          f"{d['steps_accepted']} accepted steps")
    coeffs = singular.bootstrap_series(p, order=5)[:, 0]
    print("  bootstrap coefficients:", np.array2string(coeffs, precision=8))
    print("  exact low ones:         [0, 1/3, 0, -1/10, 0, 1/168]")
    for t in (1e-6, 0.01, 0.5, 2.0):
        print(f"  y({t:g}) = {traj.value(t)[0]: .12e}   "
              f"residual {traj.residual(t):.1e}")

    print("\n== a problem with no smooth branch ==")
    # y' = y/t - 1: the stage-1 equation (1 - J) y_1 = b_1 is singular
    bad = singular.SingularIVP(lambda y: y, lambda t, y: y * 0.0 - 1.0,
                               np.array([0.0]), 1.0)
    try:
        singular.solve(bad)
    except AdmissibilityError as exc:
        print(f"  rejected as expected: {exc}")

    print("\n== hat reduction of 0 = Y' + (Y^2 + xi)/xi ==")
    f = lambda xi, y: y * y + xi
    print("  f(0, 0) residual:",
          singular.continuation_limit_check(f, [0.0]).residual)
    print("  forced derivative Y'(0):",
          singular.initial_derivative(f, [0.0]))
    hat = singular.reduce_hat(f, [0.0], t_end=0.5)
    print("  hat base value (exact -1):", hat.y0)
    hw = singular.bootstrap_series(hat, order=4)[:, 0]
    print("  hat coefficients:", np.array2string(hw, precision=8))
    print("  exact:             [-1, -1/2, -1/3, -11/48, -19/120]")
    traj = singular.solve(hat, tol=1e-11)
    for t in (0.1, 0.5):
        w, dw = traj.value(t)[0], traj.derivative(t)[0]
        Y, dY = t * w, w + t * dw
        print(f"  t = {t}: original-equation defect "
              f"{abs(dY + (Y * Y + t) / t):.1e}")

    print("\n== the same hat reduction from a black-box f ==")
    # float arithmetic only: each bootstrap stage reads one difference
    # stencil of f along the series
    opaque = lambda xi, y: np.array([float(y[0]) ** 2 + float(xi)])
    bb_hat = singular.reduce_hat(opaque, [0.0], t_end=0.5)
    bb = singular.solve(bb_hat, tol=1e-11)
    d = bb.diagnostics
    print(f"  jet capable: {bb_hat.jet_capable}; series order "
          f"{d['series_order']}, handoff at t0 = {d['handoff']:.2g}")
    gap = max(abs(bb.value(t)[0] - traj.value(t)[0])
              for t in np.linspace(0.05, 0.5, 46))
    print(f"  largest gap to the jet solve on [0.05, 0.5]: {gap:.1e}")


def _cos_jet(t, y):
    from regsing import series
    return y * 0.0 + series.cos(t)


if __name__ == "__main__":
    main()

import pytest

from regsing import series, singular


def _start_at(p, t0, tol=1e-10, order=singular.DEFAULT_ORDER):
    """``p`` integrated from a chosen handoff ``t0``: the order-``order``
    series state there starts the integrator, and the series is read below
    ``t0``.  Unlike :func:`regsing.singular.solve`, nothing checks ``t0``."""
    coeffs = singular.bootstrap_series(p, order)
    traj = singular.integrate(p, t0, series.eval_truncated(coeffs, t0), tol)
    traj.coeffs = coeffs
    return traj


@pytest.fixture(scope="session")
def start_at():
    return _start_at

"""Adaptive embedded Runge-Kutta core with dense output."""

import math
import re
import warnings

import numpy as np
import pytest

from regsing import linear, rk
from regsing.errors import NumericalError, ValidationError


def test_exponential_decay_accuracy():
    res = rk.integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]),
                                5.0, 1e-10)
    assert res.ys[-1][0] == pytest.approx(math.exp(-5.0), rel=1e-8)
    assert res.n_accepted > 0
    assert res.est_error < 1e-7


def test_dense_output_between_steps():
    # y' = cos t, y(0) = 0; interpolant must track sin t between nodes
    res = rk.integrate_adaptive(lambda t, y: np.array([math.cos(t)]),
                                0.0, np.array([0.0]), 3.0, 1e-10)
    for t in np.linspace(0.05, 2.95, 37):
        assert res.value(t)[0] == pytest.approx(math.sin(t), abs=5e-10)
        assert res.derivative(t)[0] == pytest.approx(math.cos(t), abs=5e-8)


def test_dense_output_continuous_at_nodes():
    res = rk.integrate_adaptive(lambda t, y: -2.0 * t * y, 0.0,
                                np.array([1.0]), 2.0, 1e-9)
    for t in res.ts[1:-1]:
        left = res.value(t - 1e-13)
        right = res.value(t + 1e-13)
        assert abs(left[0] - right[0]) < 1e-11


def test_defect_check_bounds_and_reports_the_theta_star_residual():
    def f(t, y):
        return np.array([math.cos(t)])

    off = rk.integrate_adaptive(f, 0.0, np.array([0.0]), 3.0, 1e-10)
    assert off.n_defect_rejected is None
    assert off.max_defect is None
    on = rk.integrate_adaptive(f, 0.0, np.array([0.0]), 3.0, 1e-10,
                               check_defect=True)
    assert on.n_defect_rejected >= 0
    # every accepted step: defect within D times the error scale
    assert 0.0 < on.max_defect <= rk._DEFECT * 1e-10 * 2.0
    ts = on.ts.tolist()
    worst = max(abs(on.derivative(s)[0] - math.cos(s))
                for s in (a + rk._THETA * (b - a) for a, b in zip(ts, ts[1:])))
    assert on.max_defect == pytest.approx(worst, rel=1e-3)


def counted(f):
    """``f`` and a list whose length is the number of calls made."""
    calls = []

    def g(t, y):
        calls.append(t)
        return f(t, y)

    return g, calls


@pytest.mark.parametrize("check_defect", [False, True])
def test_n_calls_counts_every_call_of_f(check_defect):
    f, calls = counted(lambda t, y: np.array([math.cos(t) - y[0]]))
    res = rk.integrate_adaptive(f, 0.0, np.array([0.0]), 3.0, 1e-10,
                                check_defect=check_defect)
    assert res.n_calls == len(calls)
    # two start calls, six stages per tried step, one defect read per
    # step that passed the error test
    reads = res.n_accepted + res.n_defect_rejected if check_defect else 0
    assert res.n_calls == 2 + 6 * (res.n_accepted + res.n_rejected) + reads


def test_defect_check_keeps_the_warnings_of_f():
    # f warns on every call; the defect read runs f outside np.errstate
    def noisy(t, y):
        np.divide(1.0, np.zeros(1))         # divide-by-zero RuntimeWarning
        return -y

    f, calls = counted(noisy)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        res = rk.integrate_adaptive(f, 0.0, np.array([1.0]), 2.0, 1e-8,
                                    check_defect=True)
    warned = [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert len(warned) == len(calls)
    assert res.n_calls == len(calls)


def test_defect_check_holds_on_a_step_far_shorter_than_the_state():
    # a 1e-7 span at tol 1e-12: with yi - y in the interpolant's slope,
    # rounding put a floor of eps |y| / h under the defect, above its bound,
    # and every rejection raised it until the step size underflowed
    tol = 1e-12
    res = rk.integrate_adaptive(lambda t, y: np.cos(t) * y, 0.7, [1.0],
                                0.7 + 1e-7, tol, check_defect=True)
    want = math.exp(math.sin(0.7 + 1e-7) - math.sin(0.7))
    assert res.ys[-1][0] == pytest.approx(want, rel=1e-13)
    assert res.n_defect_rejected == 0
    # the dense output's own slope meets the bound the check holds, inside
    # the step as well as at theta*
    assert res.n_accepted == 1
    for th in (0.25, 0.5, (3 - math.sqrt(3)) / 6, 0.75):
        t = 0.7 + th * 1e-7
        slope = res.derivative(t)[0]
        assert abs(slope - math.cos(t) * res.value(t)[0]) <= 2 * tol


def test_complex_state():
    # y' = i y keeps |y| = 1
    res = rk.integrate_adaptive(lambda t, y: 1j * y, 0.0,
                                np.array([1.0 + 0j]), 2 * math.pi,
                                1e-11)
    assert abs(res.ys[-1][0] - 1.0) < 1e-8
    for t in np.linspace(0.3, 6.0, 9):
        assert abs(abs(res.value(t)[0]) - 1.0) < 1e-9


def test_forward_only():
    # reversed spans are a caller bug; paths get reparametrized instead
    from regsing.errors import NumericalError
    with pytest.raises(NumericalError):
        rk.integrate_adaptive(lambda t, y: -y, 1.0, np.array([1.0]),
                              0.0, 1e-10)


def test_tolerance_scaling():
    def f(t, y):
        return np.array([y[1], -y[0]])

    coarse = rk.integrate_adaptive(f, 0.0, np.array([1.0, 0.0]), 10.0,
                                   1e-5)
    fine = rk.integrate_adaptive(f, 0.0, np.array([1.0, 0.0]), 10.0,
                                 1e-11)
    err_c = abs(coarse.ys[-1][0] - math.cos(10.0))
    err_f = abs(fine.ys[-1][0] - math.cos(10.0))
    assert err_f < err_c
    assert fine.n_accepted > coarse.n_accepted


def test_non_finite_error_shrinks_until_the_span_is_unreachable():
    def f(t, y):
        return np.array([math.nan]) if t > 0.5 else -y

    with pytest.raises(NumericalError, match="underflow") as info:
        rk.integrate_adaptive(f, 0.0, np.array([1.0]), 1.0, 1e-10)
    t_stuck = float(re.search(r"at t = (\S+) ", str(info.value)).group(1))
    assert 0.5 - 1e-6 <= t_stuck <= 0.5


def test_one_non_finite_step_is_rejected_and_recovered():
    calls = {"n": 0}

    def f(t, y):
        calls["n"] += 1
        return np.array([math.nan]) if calls["n"] == 10 else -y

    clean = rk.integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0]),
                                  2.0, 1e-10)
    res = rk.integrate_adaptive(f, 0.0, np.array([1.0]), 2.0, 1e-10)
    assert res.n_rejected >= 1
    assert res.ys[-1][0] == pytest.approx(clean.ys[-1][0], abs=1e-8)


def test_rms_norm_matches_the_numpy_mean_form_bytewise():
    rng = np.random.default_rng(17)
    for size in range(1, 65):
        for x in (rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8, size),
                  rng.normal(size=size) + 1j * rng.normal(size=size)):
            want = float(np.sqrt(np.mean(np.abs(x) ** 2)))
            got = rk._rms_norm(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _counted(f):
    def g(t, y):
        g.calls += 1
        return f(t, y)
    g.calls = 0
    return g


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
def test_a_tolerance_that_is_not_finite_and_positive_is_rejected(tol):
    # a nan tol used to give a nan step that passed the underflow guard
    # and spun through the 200 000-step budget
    f = _counted(lambda t, y: -y)
    with pytest.raises(ValidationError, match="tol"):
        rk.integrate_adaptive(f, 0.0, np.array([1.0]), 1.0, tol)
    assert f.calls == 0


@pytest.mark.parametrize("y0, slope", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
    (1.0 + 1j * math.nan, 1.0)])
def test_a_start_that_is_not_finite_raises_at_once(y0, slope):
    # an infinite slope used to escape as a ZeroDivisionError, a nan one
    # to spin through the step budget
    f = _counted(lambda t, y: np.array([slope]) if t == 0.0 else -y)
    with pytest.raises(NumericalError, match="not finite at t = 0.0"):
        rk.integrate_adaptive(f, 0.0, np.array([y0]), 1.0, 1e-10)
    assert f.calls == 1


@pytest.mark.parametrize("t1", [math.inf, math.nan])
def test_an_end_that_is_not_finite_raises_at_once(t1):
    f = _counted(lambda t, y: -y)
    with pytest.raises(NumericalError, match="span"):
        rk.integrate_adaptive(f, 0.0, np.array([1.0]), t1, 1e-10)
    assert f.calls == 0


def test_a_nan_step_size_fails_the_underflow_guard(monkeypatch):
    # planted fault: the initial step guess comes back nan
    monkeypatch.setattr(rk, "_initial_step", lambda *args: math.nan)
    f = _counted(lambda t, y: -y)
    with pytest.raises(NumericalError, match="underflow at t = 0.0"):
        rk.integrate_adaptive(f, 0.0, np.array([1.0]), 1.0, 1e-10)
    assert f.calls == 1


# -- the one-pass rows and the step loop against step-by-step references ---

def _stages(f, t, y, k0, h):
    """Stage slopes and last increment of one step, in matmul form."""
    k = np.empty((7, y.size), dtype=k0.dtype)
    k[0] = k0
    for i in range(1, 7):
        dy = h * (rk._A[i] @ k[:i])
        k[i] = f(t + rk._C[i] * h, y + dy)
    return k, dy


def _stepwise_rows(f, res):
    """``res.rows`` built one accepted step at a time, as each step ends:
    the stages re-run over the accepted grid from the stored states."""
    ts, ys = res.ts.tolist(), res.ys
    k0 = np.atleast_1d(f(ts[0], ys[0])).astype(ys.dtype)
    rows = []
    for i, (t, t_next) in enumerate(zip(ts, ts[1:])):
        h = t_next - t
        k, dy = _stages(f, t, ys[i], k0, h)
        assert (ys[i] + dy).tobytes() == ys[i + 1].tobytes()
        bspl = h * k[0] - dy
        rows.append((ys[i], dy, bspl, dy - h * k[6] - bspl, h * (rk._D @ k)))
        k0 = k[6]
    return np.array(rows)


def _real(t, y):
    return np.array([y[1], -(1.0 + 0.5 * t) * math.sin(y[0])])


def _complex(t, y):
    return 1j * (1.0 + 0.5 * math.cos(t)) * y[::-1] - 0.1 * y


@pytest.mark.parametrize("check_defect", [False, True])
@pytest.mark.parametrize("f, y0", [(_real, [1.0, 0.0]),
                                   (_complex, [1.0 + 0j, 0.5j])],
                         ids=["real", "complex"])
def test_rows_built_in_one_pass_have_the_bytes_of_a_stepwise_build(
        f, y0, check_defect):
    res = rk.integrate_adaptive(f, 0.0, np.array(y0), 4.0, 1e-9,
                                check_defect=check_defect)
    assert res.n_accepted > 10
    want = _stepwise_rows(f, res)
    assert res.rows.shape == (res.n_accepted, 5, len(y0))
    assert res.rows.dtype == want.dtype
    assert res.rows.tobytes() == want.tobytes()
    # c1 is the increment itself, so the interpolant meets every node
    for i, t in enumerate(res.ts.tolist()[1:-1], 1):
        assert res.value(t).tobytes() == res.ys[i].tobytes()


def _stepwise_loop(f, t0, y0, t1, tol):
    """End state, accepted steps and ``est_error`` of the step loop without
    the defect check, one step at a time in matmul form, with the numpy
    mean form of the rms norm and one norm per accepted step."""
    def rms(x):
        return float(np.sqrt(np.mean(np.abs(x) ** 2)))

    f0 = np.asarray(f(t0, y0))
    y = y0.astype(np.result_type(y0.dtype, f0.dtype, np.float64))
    k0 = f0.astype(y.dtype)
    h = max(rk._initial_step(f, t0, y, k0, t1, tol), 1e-300)
    t, n, est, err_prev, rejected_last = t0, 0, 0.0, 1e-4, False
    while t < t1:
        t_next = t1 if h >= t1 - t else t + h
        h = t_next - t
        k, dy = _stages(f, t, y, k0, h)
        err_vec = h * (rk._E @ k)
        yi = y + dy
        err = rms(err_vec / (tol + tol * np.maximum(np.abs(y), np.abs(yi))))
        factor = rk._MAX_FACTOR if err == 0.0 else min(max(
            rk._MIN_FACTOR, rk._SAFETY * err ** -rk._EXP1
            * err_prev ** rk._EXP2), rk._MAX_FACTOR)
        if not err <= 1.0:
            rejected_last = True
            h *= min(factor, 1.0)
            continue
        t, y, k0 = t_next, yi, k[6]
        n += 1
        est += rms(err_vec)
        if rejected_last:
            factor = min(factor, 1.0)
        rejected_last = False
        err_prev = max(err, 1e-4)
        h *= factor
    return y, n, est


def test_a_loop_end_state_has_the_bytes_of_a_stepwise_loop(monkeypatch):
    # a monodromy loop reads ys[-1], n_accepted and est_error only; none of
    # them may move with the rows built after the loop
    calls = []
    real_integrate = linear.integrate_adaptive

    def recorded(f, t0, y0, t1, tol, **kwargs):
        res = real_integrate(f, t0, y0, t1, tol, **kwargs)
        calls.append(((f, t0, y0, t1, tol), res))
        return res

    monkeypatch.setattr(linear, "integrate_adaptive", recorded)
    # A(0) = diag(0.3, 1.3) is resonant at h = 1, so the loop integrates
    system = linear.LinearRSSystem([["0.3", "t"], ["0.1*t^2", "1.3 + 0.5*t"]],
                                   rho=2.0)
    linear.monodromy_at(system, 0.6)
    (args, res), = calls
    y, n, est = _stepwise_loop(*args)
    assert res.ys[-1].tobytes() == y.tobytes()
    assert res.n_accepted == n
    assert res.est_error == est


def test_an_integration_without_dense_output_keeps_only_its_end_points():
    def f(t, y):
        return np.array([y[1], -np.sin(y[0])]) * (1.0 + 0.5j)

    y0 = np.array([1.0, 0.0], dtype=complex)
    full = rk.integrate_adaptive(f, 0.0, y0, 3.0, 1e-10)
    ends = rk.integrate_adaptive(f, 0.0, y0, 3.0, 1e-10, dense=False)
    assert ends.ts.tolist() == [0.0, 3.0]
    assert ends.ys.tobytes() == full.ys[[0, -1]].tobytes()
    for name in ("n_accepted", "n_rejected", "est_error", "n_calls"):
        assert getattr(ends, name) == getattr(full, name)
    with pytest.raises(ValidationError, match="no dense output"):
        ends.value(1.0)

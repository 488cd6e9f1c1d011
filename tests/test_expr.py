"""Expression layer: parsing, differentiation, evaluation, Taylor data."""

import cmath
import dataclasses
import json
import math
import pickle
import random
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from regsing import cli, expr, geometry, linear, series, singular
from regsing.errors import (EvalDomainError, ExprError, ParseError,
                            ValidationError)
from regsing.series import Series


def test_parse_eval_basics():
    e = expr.parse("2*t^3 - t + 1")
    assert expr.eval_real(e, 2.0) == 2 * 8 - 2 + 1
    assert expr.eval_real(e, 0.0) == 1.0
    # unary minus and right-associative power
    assert expr.eval_real(expr.parse("-t^2"), 3.0) == -9.0
    assert expr.eval_real(expr.parse("(-t)^2"), 3.0) == 9.0
    assert expr.eval_real(expr.parse("t^-2"), 2.0) == 0.25
    # scientific numbers
    assert expr.eval_real(expr.parse("1.5e-3*t"), 2.0) == pytest.approx(3e-3)


def test_parse_functions():
    e = expr.parse("sin(t)^2 + cos(t)^2")
    for t in (0.0, 0.7, -2.3):
        assert expr.eval_real(e, t) == pytest.approx(1.0, abs=1e-15)
    e2 = expr.parse("exp(log(t))")
    assert expr.eval_real(e2, 3.5) == pytest.approx(3.5)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        expr.parse("t + ")
    assert ei.value.line == 1
    assert ei.value.column == 5
    assert "number" in ei.value.expected[0]

    with pytest.raises(ParseError):
        expr.parse("2 ** t")
    with pytest.raises(ParseError):
        expr.parse("sin 3")        # function needs parentheses
    with pytest.raises(ParseError):
        expr.parse("x + 1")        # unknown identifier
    with pytest.raises(ParseError):
        expr.parse("(t + 1")       # unbalanced
    with pytest.raises(ParseError):
        expr.parse("t^t")          # variable exponent rejected


@pytest.mark.parametrize("text, column", [
    ("1e400", 1), ("t + 2.5E309", 5), ("sin(1e999*t)", 5), ("-1e400", 2)])
def test_an_overflowing_literal_is_a_parse_error(text, column):
    # float("1e400") is inf; a literal must name a finite number, as a JSON
    # number must
    for read in (expr.parse, expr.as_expr):
        with pytest.raises(ParseError, match="overflows the float range") \
                as ei:
            read(text)
        assert (ei.value.line, ei.value.column) == (1, column)
    assert expr.parse("1e-400") == expr.Num(0.0)       # underflow is fine
    assert expr.parse("1.7976931348623157e308") == \
        expr.Num(1.7976931348623157e308)


@pytest.mark.parametrize("text, named, column", [
    ("1e308*10", "1e+308*10", 1),
    ("t + (1e308*10 - 1e308*10)*0", "1e+308*10", 6),     # innermost first
    ("sin(t) + exp(700)*exp(700)", "exp(700)*exp(700)", 10),
    ("t^(1e200*1e200)", "1e+200*1e+200", 4),
    ("-1e308 - 1e308", "-1e+308 - 1e+308", 1),
    ("sqrt(-1)*1e308*10", "sqrt(-1)*1e+308*10", 1),       # complex reading
])
def test_a_constant_that_is_not_finite_is_a_parse_error(text, named, column):
    # a variable-free + - * / whose value is inf or nan: "1e308*10" parsed,
    # check passed it and the solve met inf
    for read in (expr.parse, expr.as_expr):
        with pytest.raises(ParseError, match="not finite") as ei:
            read(text)
        assert repr(named) in str(ei.value)
        assert (ei.value.line, ei.value.column) == (1, column)


@pytest.mark.parametrize("text", [
    "2*3 + t", "sin(t)*1e308*10", "log(-1)*2", "1/0", "1e308 + 1e308*t",
    "1.7976931348623157e308*1"])
def test_finite_or_variable_or_domain_failing_constants_still_parse(text):
    # t-dependent values, and domain errors in both modes, are evaluation's
    # to report
    expr.parse(text)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        expr.eval_real(expr.parse("log(t)"), -1.0)
    with pytest.raises(EvalDomainError):
        expr.eval_real(expr.parse("sqrt(t)"), -4.0)
    with pytest.raises(EvalDomainError):
        expr.eval_real(expr.parse("1/t"), 0.0)
    with pytest.raises(EvalDomainError):
        expr.eval_real(expr.parse("t^-1"), 0.0)


def test_render_round_trip():
    sources = ["2*t^3 - t + 1", "sin(t)*exp(-t^2)", "1/(1 - t)",
               "t^-2 + tanh(t/2)", "-(t + 1)*(t - 1)"]
    ts = np.linspace(-0.9, 0.9, 7)
    for src in sources:
        e = expr.parse(src)
        e2 = expr.parse(expr.render(e))
        for t in ts:
            assert expr.eval_real(e2, t) == pytest.approx(
                expr.eval_real(e, t), rel=1e-15, abs=1e-15)


def test_differentiate_closed_forms():
    # d/dt exp(sin(t)) = cos(t) exp(sin(t))
    d = expr.differentiate(expr.parse("exp(sin(t))"))
    for t in (0.0, 0.4, 1.3):
        assert expr.eval_real(d, t) == pytest.approx(
            math.cos(t) * math.exp(math.sin(t)), rel=1e-14)
    # d/dt t^-2 = -2 t^-3
    d2 = expr.differentiate(expr.parse("t^-2"))
    assert expr.eval_real(d2, 2.0) == pytest.approx(-2 / 8)
    # constant derivative collapses to zero
    d3 = expr.differentiate(expr.parse("3.5"))
    assert expr.eval_real(d3, 123.0) == 0.0


def random_expr(rng, depth=3):
    """Random expression string, kept safe on [-1.5, 1.5]."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return "t"
        return f"{rng.uniform(-2, 2):.6f}"
    kind = rng.integers(0, 6)
    if kind == 0:
        return f"({random_expr(rng, depth - 1)} + {random_expr(rng, depth - 1)})"
    if kind == 1:
        return f"({random_expr(rng, depth - 1)} - {random_expr(rng, depth - 1)})"
    if kind == 2:
        return f"({random_expr(rng, depth - 1)} * {random_expr(rng, depth - 1)})"
    if kind == 3:
        fn = rng.choice(["sin", "cos", "tanh"])
        return f"{fn}({random_expr(rng, depth - 1)})"
    if kind == 4:
        return f"exp(0.3 * {random_expr(rng, depth - 1)})"
    return f"{random_expr(rng, depth - 1)}^{int(rng.integers(2, 4))}"


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(42)
    h = 1e-6
    checked = 0
    while checked < 200:
        e = expr.parse(random_expr(rng))
        d = expr.differentiate(e)
        t = float(rng.uniform(-1.5, 1.5))
        fd = (expr.eval_real(e, t + h) - expr.eval_real(e, t - h)) / (2 * h)
        an = expr.eval_real(d, t)
        assert abs(an - fd) <= 1e-6 * (1.0 + abs(an) + abs(fd))
        checked += 1


def test_taylor_maclaurin_exact():
    s = expr.taylor(expr.parse("sin(t)"), 0.0, 10)
    want = np.zeros(11)
    for k in range(1, 11, 2):
        want[k] = (-1.0) ** ((k - 1) // 2) / math.factorial(k)
    np.testing.assert_allclose(s.coeffs, want, rtol=0, atol=1e-15)

    e = expr.taylor(expr.parse("exp(t)"), 0.0, 10)
    np.testing.assert_allclose(
        e.coeffs, [1 / math.factorial(k) for k in range(11)],
        rtol=0, atol=1e-15)

    g = expr.taylor(expr.parse("1/(1 - t)"), 0.0, 10)
    np.testing.assert_allclose(g.coeffs, np.ones(11), rtol=0, atol=1e-15)


def test_taylor_off_center():
    # log t around 1: coefficients 0, 1, -1/2, 1/3, ...
    s = expr.taylor(expr.parse("log(t)"), 1.0, 6)
    want = [0.0] + [(-1.0) ** (k + 1) / k for k in range(1, 7)]
    np.testing.assert_allclose(s.coeffs, want, rtol=1e-14, atol=1e-15)
    assert s.t0 == 1.0


def test_taylor_rejects_pole_at_center():
    from regsing.errors import SeriesError
    with pytest.raises(SeriesError):
        expr.taylor(expr.parse("1/t"), 0.0, 4)
    with pytest.raises(EvalDomainError):
        expr.taylor(expr.parse("log(t)"), 0.0, 4)


def test_eval_complex():
    e = expr.parse("exp(t)")
    assert expr.eval_complex(e, 1j * math.pi) == pytest.approx(-1.0)
    # analytic continuation agrees with the real path on the real axis
    e2 = expr.parse("sin(t)*exp(-t^2)")
    for t in (-1.2, 0.3, 2.0):
        assert expr.eval_complex(e2, complex(t)) == pytest.approx(
            expr.eval_real(e2, t))


# -- compiled evaluation against a reference walker --------------------------
#
# The three evaluation modes used to be recursive tree walks.  The walks
# are kept here, unchanged, as the oracle the compiled functions must
# match bit for bit: same values, same exception type and message.

def _ref_real(e, t):
    if isinstance(e, expr.Num):
        return e.value
    if isinstance(e, expr.Var):
        return t
    if isinstance(e, expr.Neg):
        return -_ref_real(e.arg, t)
    if isinstance(e, expr.Add):
        return _ref_real(e.left, t) + _ref_real(e.right, t)
    if isinstance(e, expr.Sub):
        return _ref_real(e.left, t) - _ref_real(e.right, t)
    if isinstance(e, expr.Mul):
        return _ref_real(e.left, t) * _ref_real(e.right, t)
    if isinstance(e, expr.Div):
        den = _ref_real(e.right, t)
        if den == 0:
            raise EvalDomainError("division by zero")
        return _ref_real(e.left, t) / den
    if isinstance(e, expr.Pow):
        base = _ref_real(e.base, t)
        c = _ref_real(e.exponent, t)
        if base == 0 and c < 0:
            raise EvalDomainError("zero raised to a negative power")
        if float(c).is_integer():
            return base ** int(c)
        if base < 0:
            raise EvalDomainError(
                f"negative base {base} with non-integer exponent {c}")
        return math.pow(base, c)
    x = _ref_real(e.arg, t)
    if e.name == "log" and x <= 0:
        raise EvalDomainError(f"log of nonpositive real {x}")
    if e.name == "sqrt" and x < 0:
        raise EvalDomainError(f"sqrt of negative real {x}")
    return getattr(math, e.name)(x)


def _ref_complex(e, z):
    if isinstance(e, expr.Num):
        return complex(e.value)
    if isinstance(e, expr.Var):
        return z
    if isinstance(e, expr.Neg):
        return -_ref_complex(e.arg, z)
    if isinstance(e, expr.Add):
        return _ref_complex(e.left, z) + _ref_complex(e.right, z)
    if isinstance(e, expr.Sub):
        return _ref_complex(e.left, z) - _ref_complex(e.right, z)
    if isinstance(e, expr.Mul):
        return _ref_complex(e.left, z) * _ref_complex(e.right, z)
    if isinstance(e, expr.Div):
        den = _ref_complex(e.right, z)
        if den == 0:
            raise EvalDomainError("division by zero")
        return _ref_complex(e.left, z) / den
    if isinstance(e, expr.Pow):
        base = _ref_complex(e.base, z)
        c = _ref_real(e.exponent, 0.0)
        if base == 0 and c < 0:
            raise EvalDomainError("zero raised to a negative power")
        if float(c).is_integer():
            return base ** int(c)
        return cmath.exp(c * cmath.log(base))
    x = _ref_complex(e.arg, z)
    if e.name == "log" and x == 0:
        raise EvalDomainError("log of zero")
    return getattr(cmath, e.name)(x)


def _ref_taylor(e, t0, order):
    # the Series operators and elementary functions, node by node; the
    # compiled Taylor mode runs the row kernels they wrap
    if isinstance(e, expr.Num):
        return series.constant(e.value, order, t0)
    if isinstance(e, expr.Var):
        return series.identity(order, t0)
    if isinstance(e, expr.Neg):
        return -_ref_taylor(e.arg, t0, order)
    if isinstance(e, expr.Add):
        return _ref_taylor(e.left, t0, order) + _ref_taylor(e.right, t0, order)
    if isinstance(e, expr.Sub):
        return _ref_taylor(e.left, t0, order) - _ref_taylor(e.right, t0, order)
    if isinstance(e, expr.Mul):
        return _ref_taylor(e.left, t0, order) * _ref_taylor(e.right, t0, order)
    if isinstance(e, expr.Div):
        return _ref_taylor(e.left, t0, order) / _ref_taylor(e.right, t0, order)
    if isinstance(e, expr.Pow):
        base = _ref_taylor(e.base, t0, order)
        c = _ref_real(e.exponent, 0.0)
        if float(c).is_integer():
            return base ** int(c)
        return base ** c
    return getattr(series, e.name)(_ref_taylor(e.arg, t0, order))


def ref_eval_real(e, t):
    try:
        return float(_ref_real(e, float(t)))
    except OverflowError as exc:
        raise EvalDomainError(f"overflow during evaluation: {exc}") from None


def ref_eval_complex(e, z):
    try:
        return complex(_ref_complex(e, complex(z)))
    except (OverflowError, ValueError) as exc:
        raise EvalDomainError(f"evaluation failed: {exc}") from None


def ref_taylor(e, t0, order):
    try:
        return _ref_taylor(e, float(t0), int(order))
    except OverflowError as exc:
        raise EvalDomainError(f"overflow during expansion: {exc}") from None


def _bits(x):
    """Exact representation of a result, NaN payloads included."""
    if isinstance(x, Series):
        return ("series", x.coeffs.dtype.str, x.coeffs.tobytes(),
                struct.pack("<d", x.t0))
    if isinstance(x, np.ndarray) and x.dtype == object:
        return tuple(_bits(v) for v in x.ravel())
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, complex):
        return ("complex", struct.pack("<dd", x.real, x.imag))
    return (type(x).__name__, struct.pack("<d", x))


def _outcome(fn, *args, **kwargs):
    try:
        return ("value", _bits(fn(*args, **kwargs)))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def _ref_array(ref, exprs, shape, *args, dtype):
    """What one compiled call over ``exprs`` must give: every entry from
    the reference, or the first entry's error in row-major order."""
    values = [ref(e, *args) for e in exprs]
    if dtype is object:
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out.reshape(shape)
    return np.array(values, dtype=dtype).reshape(shape)


# Constant exponents: integral, negative, fractional, and one that fails
# (1/0) on every evaluation.
_EXPONENTS = (
    lambda: expr.Num(2.0), lambda: expr.Num(3.0), lambda: expr.Num(0.0),
    lambda: expr.Neg(expr.Num(1.0)), lambda: expr.Neg(expr.Num(2.0)),
    lambda: expr.Num(0.5), lambda: expr.Neg(expr.Num(0.5)),
    lambda: expr.Div(expr.Num(3.0), expr.Num(2.0)),
    lambda: expr.Div(expr.Num(1.0), expr.Num(0.0)),
)
_LEAVES = (lambda rng: expr.Var(), lambda rng: expr.Var(),
           lambda rng: expr.Num(round(rng.uniform(-3, 3), 3)),
           lambda rng: expr.Num(0.0), lambda rng: expr.Num(-0.0),
           lambda rng: expr.Num(1.0))


def random_tree(rng, depth, seen):
    """Seeded random tree over the whole grammar; ``seen`` collects the
    node kinds, function names and exponent shapes it used."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(_LEAVES)(rng)
        seen.add(type(leaf).__name__)
        return leaf
    kind = rng.choice(("Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
                       "Call"))
    seen.add(kind)
    if kind == "Neg":
        return expr.Neg(random_tree(rng, depth - 1, seen))
    if kind == "Pow":
        i = rng.randrange(len(_EXPONENTS))
        seen.add(f"exponent{i}")
        return expr.Pow(random_tree(rng, depth - 1, seen), _EXPONENTS[i]())
    if kind == "Call":
        name = rng.choice(expr.FUNCTIONS)
        seen.add(name)
        return expr.Call(name, random_tree(rng, depth - 1, seen))
    node = {"Add": expr.Add, "Sub": expr.Sub, "Mul": expr.Mul,
            "Div": expr.Div}[kind]
    return node(random_tree(rng, depth - 1, seen),
                random_tree(rng, depth - 1, seen))


REAL_POINTS = (-2.0, -0.5, 0.0, 0.3, 1.0, 2.5, 10.0, 800.0)
COMPLEX_POINTS = (0j, 0.3 + 0.4j, -1.2 + 0.1j, -2.0 + 0j, 1.0 + 0j, 400j)
TAYLOR_POINTS = ((0.0, 4), (0.7, 3), (-1.3, 5))


def test_compiled_modes_match_reference_walker_bit_for_bit():
    rng = random.Random(20260117)
    seen = set()
    trees = [random_tree(rng, 4, seen) for _ in range(300)]
    # the generator covered the whole grammar
    assert seen >= {"Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
                    "Call", *expr.FUNCTIONS,
                    *(f"exponent{i}" for i in range(len(_EXPONENTS)))}
    values = errors = 0
    with np.errstate(all="ignore"):
        for e in trees:
            for t in REAL_POINTS:
                got = _outcome(expr.eval_real, e, t)
                assert got == _outcome(ref_eval_real, e, t), \
                    (expr.render(e), t)
                values += got[0] == "value"
                errors += got[0] == "error"
            for z in COMPLEX_POINTS:
                assert _outcome(expr.eval_complex, e, z) == \
                    _outcome(ref_eval_complex, e, z), (expr.render(e), z)
            for t0, order in TAYLOR_POINTS:
                assert _outcome(expr.taylor, e, t0, order) == \
                    _outcome(ref_taylor, e, t0, order), (expr.render(e), t0)
    # both outcomes were exercised in earnest
    assert values > 500 and errors > 500


def test_compiled_arrays_match_reference_walker_bit_for_bit():
    rng = random.Random(7)
    seen = set()
    with np.errstate(all="ignore"):
        for _ in range(40):
            trees = [random_tree(rng, 3, seen) for _ in range(6)]
            arr = expr.ExprArray(np.array(trees, dtype=object).reshape(2, 3))
            for t in REAL_POINTS:
                assert _outcome(arr.eval_real, t) == _outcome(
                    _ref_array, ref_eval_real, trees, (2, 3), t,
                    dtype=float)
            for z in COMPLEX_POINTS:
                assert _outcome(arr.eval_complex, z) == _outcome(
                    _ref_array, ref_eval_complex, trees, (2, 3), z,
                    dtype=complex)
            for t0, order in TAYLOR_POINTS:
                assert _outcome(arr.taylor, t0, order) == _outcome(
                    _ref_array, ref_taylor, trees, (2, 3), t0, order,
                    dtype=object)


# Every node kind and function, exponents integral (0, 2, 3), negative
# integral, non-integral (0.5, -0.5, 3/2, a numpy float, a Fraction) and
# not folded (1/0, which fails at each call), complex constants, and
# entries that fail at 0 or past the float range.
_TAYLOR_CORPUS = [
    "-t + 2*t - t/(1 + t)",
    "(1 + t)^2 * (2 - t)^3 + (3 + t)^0",
    "(1 + t)^-1 - (2 + t)^-2 + t^-1",
    "(1 + t)^0.5 + (4 + t)^-0.5 + (2 + t)^(3/2) + t^0.5",
    "t^(1/0)",
    "sin(t)*cos(t) - tan(t)",
    "exp(-t^2) + log(2 + t)*sqrt(3 + t)",
    "sinh(t) + cosh(2*t)/tanh(1 + t)",
    "1/t", "log(t)", "sqrt(t - 1)", "tan(t)/t", "1/(1 - cos(t))",
    "log(t)/sqrt(t)",
    "exp(1000)", "cosh(800) + t", "exp(exp(exp(t)))",
    "0.3 + -1.2*sin(0.8*t) + 0.7*t^2",
    expr.Pow(expr.parse("2 + t"), expr.Num(np.float64(0.5))),
    expr.Pow(expr.parse("3 + t"), expr.Num(Fraction(-1, 2))),
    expr.Mul(expr.Call("exp", expr.Add(expr.Var(), expr.Num(0.5j))),
             expr.Call("log", expr.Sub(expr.Var(), expr.Num(2j)))),
]


def test_compiled_taylor_matches_series_operators_at_orders_0_4_40():
    trees = [expr.as_expr(e) for e in _TAYLOR_CORPUS]
    seen = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        seen.add(type(node).__name__)
        if isinstance(node, expr.Call):
            seen.add(node.name)
        stack += [getattr(node, f.name) for f in dataclasses.fields(node)
                  if isinstance(getattr(node, f.name), expr.Expr)]
    assert seen >= {"Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
                    "Call", *expr.FUNCTIONS}
    outcomes = set()
    with np.errstate(all="ignore"):
        for order in (0, 4, 40):
            for t0 in (0.0, 0.7, -1.3):
                for e in trees:
                    got = _outcome(expr.taylor, e, t0, order)
                    assert got == _outcome(ref_taylor, e, t0, order), \
                        (expr.render(e), t0, order)
                    outcomes.add(got[0])
                arr = expr.ExprArray(np.array(trees, dtype=object))
                assert _outcome(arr.taylor, t0, order) == _outcome(
                    _ref_array, ref_taylor, trees, (len(trees),), t0, order,
                    dtype=object)
    assert outcomes == {"value", "error"}


CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _config(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def test_matrix_paths_byte_identical_on_demo_configs():
    for name in ("sphere_identity", "flat_sweep", "biharmonic_flat"):
        fam = cli._metric_family(_config(name), name)
        n = fam.n
        d1 = [[expr.differentiate(fam.entries[i, j]) for j in range(n)]
              for i in range(n)]
        d2 = [[expr.differentiate(d1[i][j]) for j in range(n)]
              for i in range(n)]
        for t in (0.0, 0.01, 0.4, 1.5, 2.0):
            for got, trees in ((fam.P_at(t), fam.entries),
                               (fam.Pdot_at(t), d1), (fam.Pddot_at(t), d2)):
                want = np.array([[ref_eval_real(trees[i][j], t)
                                  for j in range(n)] for i in range(n)])
                assert got.tobytes() == want.tobytes() and \
                    got.shape == want.shape, (name, t)

    cfg = _config("nilpotent_monodromy")
    system = linear.LinearRSSystem(cfg["A"], rho=cfg["rho"])
    for s in (0.0, 0.5, 0.3 + 0.4j, 0.9 * cmath.exp(2.1j)):
        want = np.array([[ref_eval_complex(system.A[i, j], s)
                          for j in range(2)] for i in range(2)])
        assert system.A_at(s).tobytes() == want.tobytes()

    cfg = _config("affine_singular")
    maps = singular.AffineSingularMaps(cfg["C"], S=cfg["S"], g=cfg["g"])
    y = np.array([0.7, -1.1])
    for t in (0.05, 0.5, 1.0):
        Sm = np.array([[ref_eval_real(maps.S[i, j], t) for j in range(2)]
                       for i in range(2)])
        want = np.zeros(2) + Sm @ y + np.array(
            [ref_eval_real(e, t) for e in maps.g])
        assert maps.m_reg(t, y).tobytes() == want.tobytes()


def test_parsed_nodes_carry_no_instance_dict():
    # slotted nodes: a large tree costs no per-node dict
    seen = set()
    stack = [expr.parse("sin(2*t)^2 - t/(1 + t) + -t")]
    while stack:
        node = stack.pop()
        seen.add(type(node))
        assert not hasattr(node, "__dict__"), node
        stack += [getattr(node, f.name) for f in dataclasses.fields(node)
                  if isinstance(getattr(node, f.name), expr.Expr)]
    assert seen == {expr.Num, expr.Var, expr.Neg, expr.Add, expr.Sub,
                    expr.Mul, expr.Div, expr.Pow, expr.Call}


def test_compiled_owners_pickle():
    system = linear.LinearRSSystem([["1 + t", "sin(t)"], ["0", "t^2"]])
    fam = geometry.MetricFamily.from_diagonal(["sin(t)^2"] * 2, dim_p=2)
    A, P = system.A_at(0.3j), fam.P_at(0.4)     # both now compiled
    # and both generated trace functions, through a solve and a direct call
    geometry.solve_biharmonic(fam, 0.6, 0.3, 0.5, tol=1e-6)
    traces = [f(fam, 0.4, 0.3) for f in (geometry.trace_potential,
                                          geometry.trace_potential2)]
    system2, fam2 = pickle.loads(pickle.dumps((system, fam)))
    assert system2.A_at(0.3j).tobytes() == A.tobytes()
    assert fam2.P_at(0.4).tobytes() == P.tobytes()
    assert [f(fam2, 0.4, 0.3) for f in (geometry.trace_potential,
                                        geometry.trace_potential2)] == traces


def test_half_traces_rows_and_errors():
    e = expr.parse
    den = [e("t"), e("2")]
    # a hand-built exponent in t, read in a rho row, is evaluated at rho
    rho_pow = expr.Pow(expr.Var(), expr.Var())
    h = expr.HalfTraces(den, [("rho", [e("t"), rho_pow]),
                              ("t", [e("1"), e("t^2")])])
    assert h(0.5, 3.0) == (0.5 * (3.0 / 0.5 + 3.0 ** 3.0 / 2.0),
                           0.5 * (1.0 / 0.5 + 0.25 / 2.0))
    with pytest.raises(ZeroDivisionError):
        h(0.0, 1.0)
    for rows in ([("s", [e("t"), e("t")])], [("t", [e("t")])]):
        with pytest.raises(ExprError):
            expr.HalfTraces(den, rows)


def test_empty_arrays_evaluate_to_empty_results():
    for shape in ((0,), (0, 0)):
        arr = expr.ExprArray(np.empty(shape, dtype=object))
        assert arr.eval_real(0.5).shape == shape
        assert arr.eval_complex(0.5j).shape == shape
        assert arr.taylor(0.0, 3).shape == shape
    maps = singular.AffineSingularMaps(
        np.zeros((0, 0)), S=np.empty((0, 0), dtype=object),
        g=np.empty(0, dtype=object))
    out = maps.m_reg(0.5, np.zeros(0))
    assert out.shape == (0,) and out.dtype == np.float64


# -- domain errors through the matrix paths -----------------------------------

REAL_DOMAIN_CASES = [
    ("log(t)", -1.0, "log of nonpositive real"),
    ("log(t)", 0.0, "log of nonpositive real"),
    ("sqrt(t)", -4.0, "sqrt of negative real"),
    ("1/t", 0.0, "division by zero"),
    ("t^-1", 0.0, "zero raised to a negative power"),
    ("t^0.5", -1.0, "negative base -1.0 with non-integer exponent 0.5"),
    ("exp(exp(t))", 10.0, "overflow during evaluation"),
]


@pytest.mark.parametrize("text,t,message", REAL_DOMAIN_CASES)
def test_P_at_domain_errors(text, t, message):
    fam = geometry.MetricFamily.from_diagonal(["1 + t^2", text], dim_p=1)
    with pytest.raises(EvalDomainError, match=message):
        fam.P_at(t)


@pytest.mark.parametrize("text,t,message", REAL_DOMAIN_CASES)
def test_m_reg_domain_errors(text, t, message):
    for kw in ({"S": [["1", "0"], ["0", text]]}, {"g": ["t", text]}):
        maps = singular.AffineSingularMaps(np.eye(2), **kw)
        with pytest.raises(EvalDomainError, match=message):
            maps.m_reg(t, np.ones(2))


@pytest.mark.parametrize("text,s,message", [
    ("log(1 - t)", 1.0, "log of zero"),
    ("1/(1 - t)", 1.0, "division by zero"),
    ("(1 - t)^-2", 1.0, "zero raised to a negative power"),
    ("exp(exp(t))", 10.0, "evaluation failed"),
])
def test_A_at_domain_errors(text, s, message):
    system = linear.LinearRSSystem([["1", text], ["0", "t"]], rho=100.0)
    with pytest.raises(EvalDomainError, match=message):
        system.A_at(s)


def test_A_at_takes_principal_branches_where_real_mode_fails():
    # sqrt and fractional powers of negative reals are errors in real
    # mode only; the complex path continues them analytically
    system = linear.LinearRSSystem([["sqrt(1 - t)", "(1 - t)^0.5"]] * 2,
                                   rho=100.0)
    A = system.A_at(5.0)
    assert A[0, 0] == pytest.approx(2j) and A[0, 1] == pytest.approx(2j)


def test_m_reg_jet_branch_domain_errors():
    y = np.array([series.constant(1.0, 4)], dtype=object)
    for text, message in (("log(t)", "log of series with zero constant"),
                          ("sqrt(t - 1)", "sqrt of series with negative")):
        maps = singular.AffineSingularMaps([[-1.0]], S=[[text]])
        with pytest.raises(EvalDomainError, match=message):
            maps.m_reg(series.identity(4), y)


def test_erroring_constant_exponent_fails_at_each_call():
    fam = geometry.MetricFamily.from_diagonal(["log(t)", "t^(1/0)"],
                                              dim_p=1)
    # the earlier entry's error still comes first
    with pytest.raises(EvalDomainError, match="log of nonpositive real"):
        fam.P_at(-1.0)
    for t in (1.0, 2.0):
        with pytest.raises(EvalDomainError, match="division by zero"):
            fam.P_at(t)
    maps = singular.AffineSingularMaps([[-1.0]], S=[["t^(1/0)"]])
    for t in (0.5, 1.5):
        with pytest.raises(EvalDomainError, match="division by zero"):
            maps.m_reg(t, np.ones(1))
    with pytest.raises(ValidationError):
        linear.LinearRSSystem([["t^(1/0)"]])


def test_real_mode_value_error_passes_through():
    fam = geometry.MetricFamily.from_diagonal(["sin(t)"], dim_p=1)
    with pytest.raises(ValueError):
        fam.P_at(math.inf)
    with pytest.raises(ValueError):
        expr.eval_real(expr.parse("sin(t)"), math.inf)


# -- one reading of an expression entry ---------------------------------------

BAD_ENTRIES = [None, True, np.bool_(False), math.nan, math.inf, -math.inf,
               10 ** 400, ["t"], {"e": "t"}]
BAD_IDS = ["none", "bool", "numpy-bool", "nan", "inf", "-inf", "huge",
           "list", "dict"]


def test_as_expr_reads_trees_strings_and_finite_numbers():
    tree = expr.parse("sin(t)")
    assert expr.as_expr(tree) is tree
    # a numeric entry and its string give the same tree
    assert expr.as_expr(0.5) == expr.as_expr("0.5") == expr.Num(0.5)
    assert expr.as_expr(3) == expr.as_expr("3")
    for v in (np.float64(-2.5), np.int64(7), 1.7e308):
        assert expr.as_expr(v) == expr.Num(float(v))
        assert type(expr.as_expr(v).value) is float
    with pytest.raises(ParseError):
        expr.as_expr("sin(t")


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=BAD_IDS)
def test_as_expr_rejects_every_other_entry(bad):
    with pytest.raises(ExprError, match="is not an expression string or a "
                                        "finite number") as ei:
        expr.as_expr(bad)
    assert type(ei.value) is ExprError


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=BAD_IDS)
def test_every_constructor_reads_entries_with_as_expr(bad):
    builds = [
        lambda: geometry.MetricFamily.from_diagonal(["t^2", bad], dim_p=1),
        lambda: geometry.MetricFamily.from_entries(
            [["t^2", "0"], [bad, "1"]], dim_p=1),
        lambda: linear.LinearRSSystem([["0", bad], ["0", "1"]]),
        lambda: linear.LinearRSSystem([["0", "t"], ["0", "1"]],
                                      h=["1", bad]),
        lambda: singular.AffineSingularMaps(-np.eye(2),
                                            S=[["0", bad], ["t", "0"]]),
        lambda: singular.AffineSingularMaps(-np.eye(2), g=[bad, "1"]),
    ]
    if bad is not None:         # alpha=None means no warped factor
        builds.append(lambda: geometry.MetricFamily.from_diagonal(
            ["t^2", "1"], dim_p=1, alpha=bad))
    for build in builds:
        with pytest.raises(ExprError, match="not an expression string"):
            build()


def test_numeric_S_entries_solve_as_their_strings():
    trajs = [singular.solve(singular.AffineSingularMaps(
        [[-1.0]], S=[[S]], g=["1"]).problem([0.0], 1.0))
        for S in (0.5, "0.5")]
    assert trajs[0].value(1.0)[0] == trajs[1].value(1.0)[0]
    assert abs(trajs[0].residual(0.7)) < 1e-8


def test_taylor_at_zero_names_a_non_analytic_entry():
    assert expr.taylor_at_zero(expr.parse("exp(t)"), 3, "x").coeffs[3] == \
        pytest.approx(1 / 6)
    for text, reason in (("1/t", "reciprocal"), ("sqrt(t)", "sqrt"),
                         ("log(t - 2)", "log")):
        with pytest.raises(ValidationError,
                           match=rf"^g\[1\] is not analytic at 0: {reason}"):
            expr.taylor_at_zero(expr.parse(text), 4, "g[1]")


# Entries with no Taylor expansion at 0: a pole, a branch point, a
# negative base, a zero divisor, a math overflow.
NOT_ANALYTIC_AT_0 = ["1/t", "sqrt(t)", "log(t)", "t^0.5", "(t^2)^-0.5",
                     "1/(t-t)", "tan(t)/t", "1/(1-cos(t))", "log(-1+t)",
                     "exp(1000)", "cosh(800)+t"]


def test_probe_at_zero_names_each_entry_by_its_index():
    expr.probe_at_zero(None, "h")                   # an absent block
    expr.probe_at_zero(expr.as_exprs(np.array(["1", "exp(t)"], dtype=object)),
                       "h")
    for text in NOT_ANALYTIC_AT_0:
        for trees, name in (
                (np.array(["1", "exp(t)", text], dtype=object), "h[2]"),
                (np.array([["0", "t"], [text, "1/t"]], dtype=object),
                 "A[1][0]")):
            # the order-0 probe says what an order-4 expansion says
            with pytest.raises(ValidationError) as want:
                expr.taylor_at_zero(expr.parse(text), 4, name)
            assert str(want.value).startswith(f"{name} is not analytic at 0")
            with pytest.raises(ValidationError) as got:
                expr.probe_at_zero(expr.as_exprs(trees), name[0])
            assert str(got.value) == str(want.value), text


@pytest.mark.parametrize("diag, alpha, name", [
    (["t^2", "1/t"], None, r"entry \(1,1\)"),
    (["t^2*(1 + sqrt(t))", "1"], None, r"entry \(0,0\)"),
    (["t^2", "1 + sqrt(t)"], None, r"entry \(1,1\)"),
    (["t^2", "1"], "sqrt(t)", "alpha'"),
])
def test_pack_rejects_a_non_analytic_entry_by_name(diag, alpha, name):
    fam = geometry.MetricFamily.from_diagonal(diag, dim_p=1, alpha=alpha)
    with pytest.raises(ValidationError, match=f"^{name} is not analytic at 0"):
        fam.pack(4)
    rep = geometry.validate_metric(fam)
    assert rep.series_available is False

"""One-variable analytic expressions: parsing, evaluation, derivatives.

The grammar accepts numeric literals, the variable ``t``, parentheses, the
binary operators ``+ - * / ^`` and the functions sin, cos, tan, exp, log,
sqrt, sinh, cosh, tanh.  ``^`` binds tightest, then unary minus, then
``* /``, then ``+ -``; ``^`` is right associative and its exponent must be
a constant (variable-free) subexpression.

Expression trees are immutable.  ``differentiate`` is exact and performs
only trivial constant folding.

:func:`as_expr` is the package's one reading of an expression entry (of a
metric, ``A``/``h`` or ``S``/``g``), and :func:`taylor_at_zero` the one
check that an entry is analytic at the origin.

Evaluation goes through one compiler with three modes: real (``math``),
complex (``cmath``, principal branches) and Taylor (the ``series``
recurrences, never repeated symbolic differentiation).  It turns a list of
trees into one generated Python function that returns every entry in a
single call.  Taylor mode runs the private row kernels of ``series`` on
bare coefficient rows and returns rows; a Series is made only where
:func:`taylor`, :func:`taylor_at_zero` or :meth:`ExprArray.taylor` hands
one out, and the package's own readers (the analyticity probe,
``linear``'s Frobenius expansion, ``MetricFamily.pack``) read the rows.
:class:`ExprArray` holds a matrix or vector of trees and compiles each
mode on its first use, so a coefficient matrix is compiled once, lazily,
and then evaluated whole; ``eval_real``, ``eval_complex`` and
``taylor`` compile a single tree the same way.  :class:`HalfTraces`
generates one real-mode function of ``(t, rho)`` that also divides and
sums the values, for the half traces of diagonal matrices.  Values and
domain errors are those of a node-by-node evaluation in the same order.
"""

from __future__ import annotations

import builtins
import cmath
import functools
import math
import numbers
import re
import sys
import types
from dataclasses import dataclass

import numpy as np

from . import series as _series
from .errors import (ParseError, EvalDomainError, ExprError, RegsingError,
                     ValidationError)
from .series import Series

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse", "as_expr", "render", "differentiate", "eval_real",
    "eval_complex", "taylor", "taylor_at_zero", "probe_at_zero", "ExprArray",
    "HalfTraces", "FUNCTIONS",
]


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def __repr__(self):
        return f"<{type(self).__name__} {render(self)!r}>"


@dataclass(frozen=True, repr=False, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, repr=False, slots=True)
class Var(Expr):
    pass


@dataclass(frozen=True, repr=False, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Expr  # constant subtree, enforced at parse time


@dataclass(frozen=True, repr=False, slots=True)
class Call(Expr):
    name: str
    arg: Expr


FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")

_ATOM_EXPECTED = ("number", "'t'", "function name", "'('")


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line, col,
                             _ATOM_EXPECTED)
        kind = m.lastgroup
        tok = m.group()
        tokens.append(_Token(kind, tok, line, col))
        i = m.end()
        col += len(tok)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# -- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.starts = {}    # id of each + - * / node: its first token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column, expected)

    def additive(self):
        start = self.peek()
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.multiplicative()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
            self.starts[id(node)] = start
        return node

    def multiplicative(self):
        start = self.peek()
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
            self.starts[id(node)] = start
        return node

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            exponent = self.unary()  # right associative, allows t^-2
            if _contains_var(exponent):
                raise ParseError("exponent must be a constant expression",
                                 caret.line, caret.column,
                                 ("constant exponent",))
            return Pow(base, exponent)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if value == math.inf:
                raise ParseError(f"numeric literal {tok.text!r} overflows the "
                                 "float range", tok.line, tok.column,
                                 ("finite number",))
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "t":
                return Var()
            if tok.text in FUNCTIONS:
                opening = self.peek()
                if not (opening.kind == "op" and opening.text == "("):
                    self.fail(f"function {tok.text!r} requires an argument list",
                              ("'('",))
                self.advance()
                arg = self.additive()
                closing = self.peek()
                if not (closing.kind == "op" and closing.text == ")"):
                    self.fail("unbalanced parentheses", ("')'", "operator"))
                self.advance()
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}",
                             tok.line, tok.column, ("'t'", "function name"))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.additive()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail("unbalanced parentheses", ("')'", "operator"))
            self.advance()
            return node
        self.fail("expected an expression", _ATOM_EXPECTED)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises
    ------
    ParseError
        With 1-based line/column and the set of acceptable tokens; also
        for a numeric literal past the float range, such as ``1e400``, and
        for a variable-free subexpression whose value is not finite, such
        as ``1e308*10``.
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 1, 1, _ATOM_EXPECTED)
    tokens = _tokenize(text)
    if tokens[0].kind == "eof":
        raise ParseError("empty expression", 1, 1, _ATOM_EXPECTED)
    p = _Parser(tokens)
    node = p.additive()
    if p.peek().kind != "eof":
        p.fail(f"unexpected token {p.peek().text!r}",
               ("operator", "end of input"))
    _check_constants(node, p.starts)
    return node


def _check_constants(e: Expr, starts) -> bool:
    """Whether ``e`` contains ``t``; a variable-free ``+ - * /`` node of
    ``e`` whose value is not finite raises ParseError at its first token
    (``starts``), innermost first.

    Only these operators take finite values to inf or nan without an
    error; ``^`` and the functions raise EvalDomainError there.  A node is
    read in real mode, and in complex mode where real evaluation leaves the
    domain (``sqrt(-1)*2``); where both do, evaluation reports it.
    """
    kind = type(e)      # the parser's own nodes: no subclasses
    if kind is Var:
        return True
    if kind is Num:
        return False
    if kind is Neg or kind is Call:
        return _check_constants(e.arg, starts)
    if kind is Pow:
        base = _check_constants(e.base, starts)
        return _check_constants(e.exponent, starts) or base
    left = _check_constants(e.left, starts)
    if _check_constants(e.right, starts) or left:
        return True
    for mode in ("real", "complex"):
        try:
            value = _compile([e], mode)(0.0)[0]
        except EvalDomainError:
            continue
        if not np.isfinite(value):
            tok = starts[id(e)]
            raise ParseError(f"constant {render(e)!r} evaluates to {value}, "
                             "which is not finite", tok.line, tok.column,
                             ("finite constant",))
        break
    return False


def as_expr(entry) -> Expr:
    """An expression entry as a tree: an Expr as it is, a string parsed,
    and a finite real number that is not a bool as ``Num(float(entry))``,
    so ``0.5`` and ``"0.5"`` give the same tree.  Anything else, an integer
    past the float range included, raises ExprError naming the entry."""
    if isinstance(entry, Expr):
        return entry
    if isinstance(entry, str):
        return parse(entry)
    if (isinstance(entry, numbers.Real) and not isinstance(entry, bool)
            and abs(entry) <= sys.float_info.max):      # false for nan too
        return Num(float(entry))
    raise ExprError(f"entry {entry!r:.40} is not an expression string or a "
                    "finite number")


# as_expr of every element of an object array, in an array of its shape
as_exprs = np.frompyfunc(as_expr, 1, 1)


def _contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Num,)):
        return False
    if isinstance(e, Neg):
        return _contains_var(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return _contains_var(e.left) or _contains_var(e.right)
    if isinstance(e, Pow):
        return _contains_var(e.base) or _contains_var(e.exponent)
    if isinstance(e, Call):
        return _contains_var(e.arg)
    raise ExprError(f"unknown node {type(e).__name__}")


# -- rendering -------------------------------------------------------------

# precedence levels: additive 1, multiplicative 2, unary 3, power 4, atom 5

def _render(e: Expr, prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return _render(Neg(Num(-v)), prec)
        if float(v).is_integer() and abs(v) < 1e16:
            s = str(int(v))
        else:
            s = repr(float(v))
        return s
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        inner = "-" + _render(e.arg, 3)
        return f"({inner})" if prec > 3 else inner
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        inner = _render(e.left, 1) + op + _render(e.right, 2)
        return f"({inner})" if prec > 1 else inner
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        inner = _render(e.left, 2) + op + _render(e.right, 3)
        return f"({inner})" if prec > 2 else inner
    if isinstance(e, Pow):
        inner = _render(e.base, 5) + "^" + _render(e.exponent, 4)
        return f"({inner})" if prec > 4 else inner
    if isinstance(e, Call):
        return f"{e.name}({_render(e.arg, 0)})"
    raise ExprError(f"unknown node {type(e).__name__}")


def render(e: Expr) -> str:
    """Serialize back into the surface grammar (reparseable)."""
    return _render(e, 0)


# -- differentiation -------------------------------------------------------

def _num(v) -> Num:
    return Num(float(v))


def _add(a, b):
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    if isinstance(a, Num) and a.value == 0:
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if isinstance(a, Neg) and isinstance(a.arg, Num):
        a = _num(-a.arg.value)
    if isinstance(b, Neg) and isinstance(b.arg, Num):
        b = _num(-b.arg.value)
    if isinstance(a, Num):
        if a.value == 0:
            return _num(0)
        if a.value == 1:
            return b
    if isinstance(b, Num):
        if b.value == 0:
            return _num(0)
        if b.value == 1:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return Mul(a, b)


def _pow(base, c: Num):
    if c.value == 1:
        return base
    if c.value == 0:
        return _num(1)
    return Pow(base, c)


def _div(a, b):
    if isinstance(a, Num) and a.value == 0:
        return _num(0)
    if isinstance(b, Num) and b.value == 1:
        return a
    return Div(a, b)


_CHAIN = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: _add(_num(1), Pow(Call("tan", u), _num(2))),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _div(_num(1), u),
    "sqrt": lambda u: _div(_num(1), _mul(_num(2), Call("sqrt", u))),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
    "tanh": lambda u: _sub(_num(1), Pow(Call("tanh", u), _num(2))),
}


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to the variable."""
    if isinstance(e, Num):
        return _num(0)
    if isinstance(e, Var):
        return _num(1)
    if isinstance(e, Neg):
        d = differentiate(e.arg)
        return _num(0) if isinstance(d, Num) and d.value == 0 else Neg(d)
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left), e.right),
                    _mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.left), e.right),
                   _mul(e.left, differentiate(e.right)))
        return _div(num, Pow(e.right, _num(2)))
    if isinstance(e, Pow):
        # exponent is constant: d a^c = c * a^(c-1) * a'
        c = e.exponent
        if isinstance(c, Num):
            term = _mul(c, _pow(e.base, _num(c.value - 1)))
        else:
            term = _mul(c, Pow(e.base, _sub(c, _num(1))))
        return _mul(term, differentiate(e.base))
    if isinstance(e, Call):
        return _mul(_CHAIN[e.name](e.arg), differentiate(e.arg))
    raise ExprError(f"unknown node {type(e).__name__}")


# -- compilation -----------------------------------------------------------
#
# One compiler serves the three evaluation modes: real (``math``), complex
# (``cmath``, principal branches) and Taylor (``series`` recurrences).  A
# list of trees becomes the source of one Python function that evaluates
# every tree in a single call.  Each interior node is one assignment to a
# local, emitted in the order the nodes are evaluated: operands left to
# right, and in real and complex mode, for a division, the denominator and
# its zero check before the numerator.  Operand types and operations are
# the same as a node-by-node evaluation would use, so values are
# bit-identical and a failing evaluation raises the same error, whatever
# else shares the function.
#
# Taylor mode computes on coefficient rows: each local is a float64 (or
# complex128) array of length ``order + 1``, made by the ``series`` row
# kernels that the Series operations wrap (``_t_mul`` for ``*``,
# ``_t_mul(a, _t_recip(b))`` for ``/``, ``_t_exp`` for ``exp``, ...; ``+``,
# ``-`` and negation are numpy's).  So each row holds the coefficients of
# the Series a node-by-node evaluation with Series operations gives, and no
# Series is made inside the function: ``taylor`` and ``ExprArray.taylor``
# wrap the rows they return.
#
# Exponents are constant.  Each one is evaluated in real mode at t = 0 at
# compile time and the branch it selects is fixed; an exponent whose
# evaluation fails (``t^(1/0)``) is left to run on every call instead, so
# it fails at the call that evaluates it.  Constants are passed as default
# arguments, which keeps their exact type and value and makes the source
# depend only on the shape of the trees, so one-tree sources can be
# cached (see ``_code_of_tree``).

_GLOBALS = {
    "__builtins__": builtins, "_E": EvalDomainError, "_ExprError": ExprError,
    "_array": np.array, "_float": np.float64,
    "_complex": np.complex128, "_pow": math.pow, "_cexp": cmath.exp,
    "_clog": cmath.log,
    **{f"_r_{name}": getattr(math, name) for name in FUNCTIONS},
    **{f"_c_{name}": getattr(cmath, name) for name in FUNCTIONS},
    # Taylor mode: the series row kernels
    "_t_const": _series._constant,
    "_t_id": _series._identity, "_t_mul": _series._mul,
    "_t_recip": _series._reciprocal, "_t_powi": _series._powi,
    **{f"_t_{name}": getattr(_series, f"_{name}") for name in FUNCTIONS},
}

# The function each mode compiles to; _compile fills in <cells> (one
# parameter per constant), <body> and <results>.
_TEMPLATES = {
    "real": """def f(t, <cells>):
    try:
        t = float(t)
        <body>
        return _array((<results>), _float)
    except OverflowError as exc:
        raise _E(f"overflow during evaluation: {exc}") from None
""",
    "complex": """def f(t, <cells>):
    try:
        t = complex(t)
        <body>
        return _array((<results>), _complex)
    except (OverflowError, ValueError) as exc:
        raise _E(f"evaluation failed: {exc}") from None
""",
    "taylor": """def f(t0, order, <cells>):
    if order < 0:
        raise _ExprError("order must be nonnegative")
    try:
        t0 = float(t0)
        order = int(order)
        <body>
        return (<results>)
    except OverflowError as exc:
        raise _E(f"overflow during expansion: {exc}") from None
""",
}
_TEMPLATE_PARTS = {mode: re.split("<cells>|<body>|<results>", text)
                   for mode, text in _TEMPLATES.items()}

_BINOPS = {Add: "+", Sub: "-", Mul: "*"}
_NODE_TYPES = {kind: kind for kind in (Num, Var, Neg, Add, Sub, Mul, Div, Pow,
                                        Call)}


def _node_type(e) -> type:
    """The node type ``e`` is an instance of (subclasses included)."""
    for kind in _NODE_TYPES:
        if isinstance(e, kind):
            return kind
    raise ExprError(f"unknown node {type(e).__name__}")


class _Emitter:
    """Straight-line code for a list of trees.

    ``node`` appends the statements computing a tree, one per interior
    node in evaluation order, and returns the name (or literal) holding
    its value; constants are collected in ``consts``.
    """

    __slots__ = ("consts", "lines", "identity")

    def __init__(self):
        self.consts = []
        self.lines = []
        self.identity = None    # Taylor mode: the local holding t's series

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def node(self, e: Expr, mode: str, var: str) -> str:
        kind = _NODE_TYPES.get(type(e)) or _node_type(e)
        if kind is Num:
            value = e.value
            if mode == "real":
                return self.const(value)
            if mode == "complex":
                try:
                    return self.const(complex(value))
                except (TypeError, ValueError, OverflowError):
                    # fails again inside the call, where errors are reported
                    rhs = f"complex({self.const(value)})"
            else:
                rhs = f"_t_const({self.const(value)}, order)"
                if type(value) is float:
                    return rhs  # cannot fail, so it is built where it is used
        elif kind is Mul and mode == "taylor":
            rhs = (f"_t_mul({self.node(e.left, mode, var)}, "
                   f"{self.node(e.right, mode, var)})")
        elif kind in _BINOPS:
            rhs = (f"{self.node(e.left, mode, var)} {_BINOPS[kind]} "
                   f"{self.node(e.right, mode, var)}")
        elif kind is Var:
            if mode != "taylor":
                return var
            if self.identity is None:
                self.identity = f"v{len(self.lines)}"
                self.lines.append(f"{self.identity} = _t_id(order, t0)")
            return self.identity
        elif kind is Neg:
            rhs = "-" + self.node(e.arg, mode, var)
        elif kind is Pow:
            rhs = self.power(e, mode, var)
        elif kind is Call:
            rhs = self.call(e, mode, var)
        elif mode == "taylor":
            rhs = (f"_t_mul({self.node(e.left, mode, var)}, _t_recip("
                   f"{self.node(e.right, mode, var)}))")
        else:
            den = self.node(e.right, mode, var)
            self.lines.append(f'if {den} == 0: raise _E("division by zero")')
            rhs = f"{self.node(e.left, mode, var)} / {den}"
        v = f"v{len(self.lines)}"
        self.lines.append(f"{v} = {rhs}")
        return v

    def call(self, e: Call, mode: str, var: str) -> str:
        """Checks for ``name(x)`` go to ``lines``; the value is returned."""
        name = e.name
        if name not in FUNCTIONS:
            raise ExprError(f"unknown function {name!r}")
        x = self.node(e.arg, mode, var)
        if mode == "taylor":
            return f"_t_{name}({x})"
        if mode == "complex":
            if name == "log":
                self.lines.append(f'if {x} == 0: raise _E("log of zero")')
            return f"_c_{name}({x})"
        if name == "log":
            self.lines.append(f'if {x} <= 0: raise _E('
                              f'f"log of nonpositive real {{{x}}}")')
        elif name == "sqrt":
            self.lines.append(f'if {x} < 0: raise _E('
                              f'f"sqrt of negative real {{{x}}}")')
        return f"_r_{name}({x})"

    def power(self, e: Pow, mode: str, var: str) -> str:
        """Checks for ``base ^ c`` go to ``lines``; the value is returned."""
        base = self.node(e.base, mode, var)
        lines = self.lines
        # The complex and Taylor modes read the exponent at t = 0.  An
        # exponent that depends on t in real mode (hand-built trees only),
        # or whose evaluation fails, is evaluated on every call instead, so
        # any error arises there, in evaluation order.
        exp_var = var if mode == "real" else "0.0"
        folded = mode != "real" or not _contains_var(e.exponent)
        if folded:
            try:
                c = _fold(e.exponent)
                integral = float(c).is_integer()
                negative = c < 0
            except Exception:
                folded = False
        if not folded:
            c = self.node(e.exponent, "real", exp_var)
            if mode != "taylor":
                lines.append(f"if {base} == 0 and {c} < 0: "
                             f'raise _E("zero raised to a negative power")')
            if mode == "real":
                lines.append(f"if not float({c}).is_integer() and {base} < 0:"
                             f' raise _E(f"negative base {{{base}}} with '
                             f'non-integer exponent {{{c}}}")')
            integral, other = {
                "real": (f"{base} ** int({c})", f"_pow({base}, {c})"),
                "complex": (f"{base} ** int({c})",
                            f"_cexp({c} * _clog({base}))"),
                "taylor": (f"_t_powi({base}, int({c}))",
                           f"_t_exp(_t_log({base}) * {c})"),
            }[mode]
            return f"{integral} if float({c}).is_integer() else {other}"
        # Taylor mode scales by float(c), as ``Series ** c`` does
        k = self.const(int(c) if integral else
                       float(c) if mode == "taylor" else c)
        if negative and mode != "taylor":
            lines.append(f'if {base} == 0: '
                         f'raise _E("zero raised to a negative power")')
        if integral:
            if mode == "taylor":
                return f"_t_powi({base}, {k})"
            return f"{base} ** {k}"
        if mode == "taylor":
            return f"_t_exp(_t_log({base}) * {k})"
        if mode == "complex":
            return f"_cexp({k} * _clog({base}))"
        lines.append(f'if {base} < 0: raise _E(f"negative base {{{base}}} '
                     f'with non-integer exponent {{{k}}}")')
        return f"_pow({base}, {k})"


def _fold(e: Expr):
    """Value of a constant exponent, as real evaluation at 0 gives it."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return float(_compile([e], "real")(0.0)[0])


def _code(source: str) -> types.CodeType:
    """Code object of the one function ``source`` defines."""
    module = compile(source, "<regsing.expr>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


# The construction-time expansions (the LinearRSSystem analyticity probe,
# MetricFamily.pack) compile one tree per entry, where nothing amortises a
# compile.  Entries share a few shapes, so one-tree code is kept by source
# (over 99% of one-tree compiles hit on the bench workloads).  A matrix is
# compiled once by the ExprArray holding it and is not kept here.
_code_of_tree = functools.lru_cache(maxsize=256)(_code)


def _compile(exprs, mode: str):
    """One function evaluating every tree of ``exprs`` in ``mode``.

    ``real`` and ``complex`` functions take ``t`` and return a float64 or
    complex128 array; ``taylor`` functions take ``(t0, order)`` and return
    a tuple of coefficient rows, one float64 (or complex128) array of
    length ``order + 1`` per tree.
    """
    gen = _Emitter()
    results = [gen.node(e, mode, "t") for e in exprs]
    before_cells, before_body, before_results, rest = _TEMPLATE_PARTS[mode]
    source = "".join((
        before_cells, ", ".join([f"k{i}" for i in range(len(gen.consts))]),
        before_body, "\n        ".join(gen.lines),
        before_results, "".join(f"{r}, " for r in results), rest))
    code = _code_of_tree(source) if len(exprs) == 1 else _code(source)
    return types.FunctionType(code, _GLOBALS, "f", tuple(gen.consts))


class ExprArray:
    """An array of expressions evaluated as a whole.

    Each mode is compiled into one function on its first use and kept, so
    building an ExprArray is cheap and an array that is never evaluated
    in some mode never pays for compiling it.
    """

    __slots__ = ("exprs", "shape", "_fns")

    def __init__(self, exprs):
        exprs = np.asarray(exprs, dtype=object)
        self.shape = exprs.shape
        self.exprs = tuple(exprs.ravel())
        self._fns = {}

    def __reduce__(self):
        # generated functions cannot be pickled; they are compiled again
        return ExprArray, (np.array(self.exprs, dtype=object).reshape(
            self.shape),)

    def _fn(self, mode: str):
        fn = self._fns.get(mode)
        if fn is None:
            fn = self._fns[mode] = _compile(self.exprs, mode)
        return fn

    def eval_real(self, t) -> np.ndarray:
        """float64 array of every entry at the real point ``t``."""
        return self._fn("real")(t).reshape(self.shape)

    def eval_complex(self, z) -> np.ndarray:
        """complex128 array of every entry at ``z`` (principal branches)."""
        return self._fn("complex")(z).reshape(self.shape)

    def taylor(self, t0, order: int) -> np.ndarray:
        """Object array of the entries' Series around ``t0``."""
        rows = self._fn("taylor")(t0, order)
        t0 = float(t0)
        out = np.empty(len(rows), dtype=object)
        out[:] = [Series._new(row, t0) for row in rows]
        return out.reshape(self.shape)

    def taylor_rows(self, t0, order: int) -> np.ndarray:
        """The coefficients of :meth:`taylor` without the Series: one fresh
        array of shape ``shape + (order + 1,)``, each entry's coefficient
        row contiguous."""
        rows = self._fn("taylor")(t0, order)
        return np.array(rows).reshape(*self.shape, order + 1)


_HALF_TRACES = """def f(t, rho, <cells>):
    try:
        t = float(t)
        <body>
    except OverflowError as exc:
        raise _E(f"overflow during evaluation: {exc}") from None
    <sums>
    return (<results>)
"""


def _compile_half_traces(den, rows):
    """The function of ``(t, rho)`` a :class:`HalfTraces` calls."""
    gen = _Emitter()
    groups = [("t", den), *rows]
    values = [None] * len(groups)
    # every tree is evaluated before the first division, t before rho
    for var in ("t", "rho"):
        if var == "rho":
            gen.lines.append("rho = float(rho)")
        for g, (v, trees) in enumerate(groups):
            if v == var:
                values[g] = [gen.node(e, "real", var) for e in trees]
    # the float conversion eval_real's float64 array makes
    for g, names in enumerate(values):
        gen.lines += [f"x{g}_{i} = float({x})" for i, x in enumerate(names)]
    sums, results = [], []
    for g in range(1, len(groups)):
        # explicit index order: builtin sum rounds differently from 3.12 on
        sums.append("acc = 0.0")
        sums += [f"acc += x{g}_{i} / x0_{i}" for i in range(len(den))]
        sums.append(f"s{g} = 0.5 * acc")
        results.append(f"s{g}, ")
    source = (_HALF_TRACES
              .replace("<cells>", ", ".join(
                  f"k{i}" for i in range(len(gen.consts))))
              .replace("<body>", "\n        ".join(gen.lines))
              .replace("<sums>", "\n    ".join(sums))
              .replace("<results>", "".join(results)))
    return types.FunctionType(_code(source), _GLOBALS, "f",
                              tuple(gen.consts))


class HalfTraces:
    """Half traces ``0.5 * sum_i x_i / den_i`` of diagonal matrices as one
    generated function of ``(t, rho)``.

    ``den`` holds the divisor trees, evaluated at ``t``; each of ``rows``
    is a ``(var, trees)`` pair of numerators evaluated at ``var``, ``"t"``
    or ``"rho"``.  A call evaluates every tree first, the divisors and the
    ``t`` rows before the ``rho`` rows, each in the given order and with
    the values and domain errors of :meth:`ExprArray.eval_real`; it then
    sums each row in index order and returns the sums as a tuple of floats
    in the order of ``rows``.  A zero divisor raises ZeroDivisionError.
    The function is compiled on the first call; like :class:`ExprArray`,
    the object pickles as its trees.
    """

    __slots__ = ("den", "rows", "_fn")

    def __init__(self, den, rows):
        self.den = tuple(den)
        self.rows = tuple((var, tuple(trees)) for var, trees in rows)
        if any(var not in ("t", "rho") or len(trees) != len(self.den)
               for var, trees in self.rows):
            raise ExprError("each row needs one tree per divisor, in t or rho")
        self._fn = None

    def __reduce__(self):
        return HalfTraces, (self.den, self.rows)

    def __call__(self, t, rho) -> tuple:
        fn = self._fn
        if fn is None:
            fn = self._fn = _compile_half_traces(self.den, self.rows)
        return fn(t, rho)


# -- evaluation ------------------------------------------------------------

def eval_real(e: Expr, t) -> float:
    """Evaluate at a real point.  Domain violations raise EvalDomainError."""
    return float(_compile([e], "real")(t)[0])


def eval_complex(e: Expr, z) -> complex:
    """Evaluate at a complex point using principal branches."""
    return complex(_compile([e], "complex")(z)[0])


def taylor(e: Expr, t0: float, order: int) -> Series:
    """Taylor coefficients of ``e`` around ``t0`` up to ``order``.

    Computed by propagating series through the tree (one pass, exact
    recurrences), never by repeated symbolic differentiation.
    """
    return Series._new(_taylor_row(e, t0, order), float(t0))


def _taylor_row(e: Expr, t0: float, order: int) -> np.ndarray:
    """The coefficient row of ``taylor(e, t0, order)``, without the Series
    (a fresh array the caller may keep)."""
    return _compile([e], "taylor")(t0, order)[0]


def _taylor_row_at_zero(e: Expr, order: int, name: str) -> np.ndarray:
    """The coefficient row of ``taylor_at_zero(e, order, name)``, with its
    ValidationError."""
    try:
        return _taylor_row(e, 0.0, order)
    except RegsingError as exc:
        raise ValidationError(f"{name} is not analytic at 0: {exc}") from exc


def taylor_at_zero(e: Expr, order: int, name: str) -> Series:
    """``taylor(e, 0, order)`` of the entry ``name``; a failed expansion
    (a pole, a branch point, a domain error at 0) raises ValidationError
    saying that ``name`` is not analytic at 0."""
    return Series._new(_taylor_row_at_zero(e, order, name), 0.0)


def probe_at_zero(trees, name: str) -> None:
    """:func:`taylor_at_zero` probe of each entry of the object array
    ``trees`` (None: an absent block, nothing to probe), naming the entries
    ``name[i]`` or ``name[i][j]``.

    The probe expands to order 0.  Every check of the recurrences that
    raises reads a constant term only (a zero or negative base of
    ``log``/``sqrt``/``^``, a zero divisor, a pole of ``tan``, a ``math``
    overflow), and coefficient 0 of each node is the same number at any
    order, so an entry passes or fails, with the same message, exactly as
    it would at any order; only a numpy overflow in a higher coefficient,
    which warns and does not raise, is out of its reach.  Entry by entry: one-tree code is shared by
    entries of the same shape, while compiling the whole block would cost
    more than the probe itself.
    """
    for idx, e in ([] if trees is None else np.ndenumerate(trees)):
        _taylor_row_at_zero(e, 0, name + "".join(f"[{i}]" for i in idx))

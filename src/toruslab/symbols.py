"""Expression language for symbols p(x, xi) on T^n x Z^n.

Symbols are specified analytically so that frequency shifts (needed by the
difference calculus) can be evaluated at any xi in Z^n, including outside any
truncation box, and so that x-derivatives can be taken exactly.

Grammar
-------
    atoms      numbers, `i`, `pi`, x1..x3, xi1..xi3, `xi` (the whole
               frequency vector), named parameters
    functions  exp, sin, cos, log, conj, bracket, abs     (all unary)
    operators  + - * / ^   with ^ tightest and right-associative,
               unary minus between * and ^

`conj(e)` is the complex conjugate of e, `bracket(e)` is (1 + |e|^2)^(1/2)
and `abs(e)` is |e|; the last two accept the bare vector `xi` or any scalar
subexpression.  `^` on a complex base uses the principal branch.  `i` is
reserved and cannot be shadowed by a parameter.

Evaluation wraps each x_j into [0, 1) (points on the torus are identified
with their fundamental-domain representatives) and broadcasts over numpy
arrays, so a whole grid-by-lattice sampling is a single tree walk.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import DslError, TableRangeError, ValidationError

MAX_DIM = 3

# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------
# Positions are metadata for error reporting and never take part in equality.


@dataclass(frozen=True)
class Const:
    value: complex
    name: str = field(default=None, compare=False)
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Param:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class XVar:
    axis: int  # zero-based
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class XiVar:
    axis: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class XiVec:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # a key of _OPERATORS
    left: object
    right: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str  # a key of FUNCTIONS
    arg: object
    pos: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# The language tables: each operator, function and reserved name is one row,
# read by the lexer, the parser, the printer, the evaluator and diff_x
# ---------------------------------------------------------------------------
# derivative trees are simplified where a factor is the constant 0 or 1

_ZERO = Const(0j)
_ONE = Const(complex(1.0))


def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.value == value)


def _add(a, b):
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return BinOp("+", a, b)


def _mul(a, b):
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_const(a, 0):
        return _ZERO
    return BinOp("/", a, b)


def _power(a, b):
    # principal branch throughout; integer exponents short-circuit so that
    # negative real bases stay exact
    if np.isscalar(b) or (isinstance(b, complex)):
        bb = complex(b)
        if bb.imag == 0 and bb.real == int(bb.real) and abs(bb.real) <= 64:
            return np.asarray(a, dtype=np.complex128) ** int(bb.real)
    a = np.asarray(a, dtype=np.complex128)
    # a signed zero in the imaginary part must not flip the branch cut
    a = np.where(a.imag == 0.0, a.real.astype(np.complex128), a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.power(a, b)


def _diff_power(u, v, du, dv):
    if _is_const(dv, 0):
        # d(u^c) = c * u^(c-1) * u'
        if _is_const(du, 0):
            return _ZERO
        return _mul(_mul(v, BinOp("^", u, BinOp("-", v, _ONE))), du)
    if _is_const(du, 0):
        return _mul(BinOp("^", u, v), _mul(dv, Call("log", u)))
    return _mul(BinOp("^", u, v), _add(_mul(dv, Call("log", u)), _mul(v, _div(du, u))))


@dataclass(frozen=True)
class _Operator:
    """A binary operator: how tightly it binds, its value and its x-derivative."""

    bp: int  # binding power
    right_assoc: bool
    value: object  # (a, b) -> a op b
    derivative: object  # (u, v, du, dv) -> the tree of d(u op v)
    zero: str = None  # the error when the right operand has a zero


@dataclass(frozen=True)
class _Function:
    """A unary function: its value and the tree of its x-derivative."""

    value: object  # scalar argument v -> f(v)
    derivative: object  # (u, du) -> the tree of d f(u); None: not differentiable
    vector: object = None  # |xi|^2 -> f(xi), for a function that accepts the bare xi
    zero: str = None  # the error when the argument has a zero


_OPERATORS = {
    "+": _Operator(10, False, operator.add, lambda u, v, du, dv: _add(du, dv)),
    "-": _Operator(10, False, operator.sub,
                   lambda u, v, du, dv: du if _is_const(dv, 0) else BinOp("-", du, dv)),
    "*": _Operator(20, False, operator.mul, lambda u, v, du, dv: _add(_mul(du, v), _mul(u, dv))),
    "/": _Operator(20, False, operator.truediv,
                   lambda u, v, du, dv: _div(BinOp("-", _mul(du, v), _mul(u, dv)), _mul(v, v)),
                   zero="division by zero"),
    "^": _Operator(40, True, _power, _diff_power),
}
_UNARY_BP = 30  # unary minus binds between * and ^

FUNCTIONS = {
    "exp": _Function(np.exp, lambda u, du: _mul(Call("exp", u), du)),
    "sin": _Function(np.sin, lambda u, du: _mul(Call("cos", u), du)),
    "cos": _Function(np.cos, lambda u, du: Neg(_mul(Call("sin", u), du))),
    "log": _Function(np.log, lambda u, du: _div(du, u), zero="log of zero"),
    "conj": _Function(np.conj, lambda u, du: Call("conj", du)),
    # d<u> = Re(conj(u) u') / <u>, the real part written as a half-sum with its conjugate
    "bracket": _Function(
        lambda v: np.sqrt(1.0 + np.asarray(v * np.conj(v)).real).astype(np.complex128),
        lambda u, du: _div(_add(_mul(Call("conj", u), du), _mul(u, Call("conj", du))),
                           _mul(Const(complex(2.0)), Call("bracket", u))),
        vector=lambda square: np.sqrt(1.0 + square).astype(np.complex128)),
    "abs": _Function(lambda v: np.abs(v).astype(np.complex128), None,
                     vector=lambda square: np.sqrt(square).astype(np.complex128)),
}
_VECTOR_ONLY_IN = " or ".join(f"{name}()" for name in sorted(FUNCTIONS) if FUNCTIONS[name].vector)

# reserved names, and the axis variables x<j> and xi<j> with their kind
_NAMES = {"i": partial(Const, 1j, "i"), "pi": partial(Const, complex(math.pi), "pi"), "xi": XiVec}
_AXIS_NAME = re.compile(r"(xi|x)(\d+)")
_AXIS_VARS = {"x": (XVar, "space"), "xi": (XiVar, "frequency")}

# one token after optional whitespace; \d is a decimal digit and \w a letter,
# digit or underscore, and an identifier must start with a letter or "_"
_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+|(?P<bad_exponent>[eE]))?)|(?P<ident>\w+)"
    rf"|(?P<op>{'|'.join(map(re.escape, _OPERATORS))})|(?P<paren>[()])|(?P<comma>,)|(?P<other>\S))"
)

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | paren | comma
    lexeme: str
    position: int


def tokenize(source: str) -> list:
    """Lex an expression string; errors carry the offending offset."""
    tokens, end = [], 0
    while match := _TOKEN.match(source, end):
        kind, end = match.lastgroup, match.end()
        lexeme, position = match[kind], match.start(kind)
        if match["bad_exponent"]:
            raise DslError("malformed number literal", match.end("bad_exponent"))
        if kind in ("ident", "other") and not (lexeme[0].isalpha() or lexeme[0] == "_"):
            raise DslError(f"unknown character {lexeme[0]!r}", position)
        tokens.append(Token(kind, lexeme, position))
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing)
# ---------------------------------------------------------------------------


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            pos = last.position + len(last.lexeme) if last else 0
            raise DslError("unexpected end of input", pos)
        self.i += 1
        return tok


def parse(source: str):
    tokens = tokenize(source)
    if not tokens:
        raise DslError("empty expression", 0)
    stream = _Stream(tokens)
    expr = _parse_expr(stream, 0)
    trailing = stream.peek()
    if trailing is not None:
        raise DslError(f"unexpected token {trailing.lexeme!r}", trailing.position)
    return expr


def _parse_expr(stream, min_bp):
    lhs = _parse_atom(stream)
    while True:
        tok = stream.peek()
        if tok is None or tok.kind != "op":
            break
        op = _OPERATORS[tok.lexeme]
        if op.bp < min_bp:
            break
        stream.next()
        # right-assoc recurses at equal bp, left-assoc one above
        rhs = _parse_expr(stream, op.bp if op.right_assoc else op.bp + 1)
        lhs = BinOp(tok.lexeme, lhs, rhs, pos=tok.position)
    return lhs


def _parse_atom(stream):
    tok = stream.next()
    if tok.kind == "number":
        return Const(complex(float(tok.lexeme)), pos=tok.position)
    if tok.kind == "op" and tok.lexeme == "-":
        return Neg(_parse_expr(stream, _UNARY_BP), pos=tok.position)
    if tok.kind == "paren" and tok.lexeme == "(":
        inner = _parse_expr(stream, 0)
        closing = stream.peek()
        if closing is None or closing.lexeme != ")":
            raise DslError("unbalanced parentheses", tok.position)
        stream.next()
        return inner
    if tok.kind == "ident":
        return _ident_atom(stream, tok)
    raise DslError(f"unexpected token {tok.lexeme!r}", tok.position)


def _ident_atom(stream, tok):
    name = tok.lexeme
    nxt = stream.peek()
    if nxt is not None and nxt.lexeme == "(":
        if name not in FUNCTIONS:
            raise DslError(f"unknown function {name!r}", tok.position)
        stream.next()
        arg = _parse_expr(stream, 0)
        closing = stream.peek()
        if closing is not None and closing.kind == "comma":
            raise DslError(f"{name} takes exactly one argument", closing.position)
        if closing is None or closing.lexeme != ")":
            raise DslError("unbalanced parentheses", tok.position)
        stream.next()
        return Call(name, arg, pos=tok.position)
    if name in FUNCTIONS:
        raise DslError(f"{name} requires an argument list", tok.position)
    if name in _NAMES:
        return _NAMES[name](pos=tok.position)
    if axis_name := _AXIS_NAME.fullmatch(name):
        node, kind = _AXIS_VARS[axis_name[1]]
        axis = int(axis_name[2])
        if not 1 <= axis <= MAX_DIM:
            raise DslError(f"{kind} variable index {axis} out of range", tok.position)
        return node(axis - 1, pos=tok.position)
    return Param(name, pos=tok.position)


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(expr) -> str:
    """Canonical text form; parse(to_source(t)) reproduces t for parser output."""
    return _print(expr, 0)


def _print(node, ctx):
    if isinstance(node, Const):
        if node.name is not None:
            return node.name
        v = node.value
        if v.imag == 0:
            return _fmt_number(v.real)
        # parser-level complex constants only arise as i itself
        return f"({_fmt_number(v.real)}+{_fmt_number(v.imag)}*i)"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, XVar):
        return f"x{node.axis + 1}"
    if isinstance(node, XiVar):
        return f"xi{node.axis + 1}"
    if isinstance(node, XiVec):
        return "xi"
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, 0)})"
    if isinstance(node, Neg):
        body = f"-{_print(node.operand, _UNARY_BP)}"
        return f"({body})" if ctx > _UNARY_BP else body
    if isinstance(node, BinOp):
        op = _OPERATORS[node.op]
        left, right = (op.bp + 1, op.bp) if op.right_assoc else (op.bp, op.bp + 1)
        body = f"{_print(node.left, left)}{node.op}{_print(node.right, right)}"
        return f"({body})" if ctx > op.bp else body
    raise TypeError(f"not a symbol expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class _VecVal:
    """Value of the bare `xi` vector; only the functions with a vector value may consume it."""

    def __init__(self, components):
        self.components = components


def _normalize_point(v):
    if np.isscalar(v):
        return (np.asarray(v, dtype=float),)
    if isinstance(v, np.ndarray) and v.ndim <= 1 and v.dtype != object:
        return tuple(np.asarray(c, dtype=float) for c in np.atleast_1d(v))
    return tuple(np.asarray(c, dtype=float) for c in v)


def eval_expr(expr, x, xi, params=None):
    """Evaluate p(x, xi).

    ``x`` and ``xi`` are scalars (n = 1), coordinate sequences, or tuples of
    broadcastable arrays of per-axis components.  Returns a complex scalar
    for scalar inputs, otherwise a complex array.  x is wrapped into [0, 1).
    """
    xs = _normalize_point(x)
    xis = _normalize_point(xi)
    xs = tuple(c - np.floor(c) for c in xs)
    out = _eval(expr, xs, xis, params or {})
    if isinstance(out, _VecVal):
        raise DslError("expression evaluates to the bare frequency vector", getattr(expr, "pos", 0))
    arr = np.asarray(out, dtype=np.complex128)
    shape = np.broadcast_shapes(*[c.shape for c in xs + xis])
    if shape == ():
        return complex(arr)
    # constants broadcast up to the common input shape
    return np.broadcast_to(arr, shape) if arr.shape != shape else arr


def _eval(node, xs, xis, params):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Param):
        if node.name not in params:
            raise DslError(f"unbound parameter {node.name!r}", node.pos)
        return complex(params[node.name])
    if isinstance(node, (XVar, XiVar)):
        name, coords = ("x", xs) if isinstance(node, XVar) else ("xi", xis)
        if node.axis >= len(coords):
            raise DslError(f"{name}{node.axis + 1} out of range for dimension {len(coords)}",
                           node.pos)
        return coords[node.axis].astype(np.complex128)
    if isinstance(node, XiVec):
        return _VecVal(xis)
    if isinstance(node, Neg):
        return -_scalar(_eval(node.operand, xs, xis, params), node)
    if isinstance(node, BinOp):
        a = _scalar(_eval(node.left, xs, xis, params), node)
        b = _scalar(_eval(node.right, xs, xis, params), node)
        return _apply(_OPERATORS[node.op], node, a, b)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.fn]
        v = _eval(node.arg, xs, xis, params)
        if isinstance(v, _VecVal) and fn.vector is not None:
            return fn.vector(sum(np.asarray(c, dtype=float) ** 2 for c in v.components))
        return _apply(fn, node, _scalar(v, node))
    raise TypeError(f"not a symbol expression node: {node!r}")


def _apply(entry, node, *args):
    """A table entry's value at ``args``, once its last argument is checked for zeros."""
    if entry.zero is not None and np.any(args[-1] == 0):
        raise DslError(entry.zero, node.pos)
    return entry.value(*args)


def _scalar(v, node):
    if isinstance(v, _VecVal):
        raise DslError(f"the bare vector `xi` may only appear inside {_VECTOR_ONLY_IN}", node.pos)
    return v


def depends_on_x(expr, axis=None) -> bool:
    if isinstance(expr, XVar):
        return axis is None or expr.axis == axis
    if isinstance(expr, Neg):
        return depends_on_x(expr.operand, axis)
    if isinstance(expr, BinOp):
        return depends_on_x(expr.left, axis) or depends_on_x(expr.right, axis)
    if isinstance(expr, Call):
        return depends_on_x(expr.arg, axis)
    return False


def read_axes(expr, dim: int) -> tuple:
    """The grid axes j < dim whose coordinate x_{j+1} the expression reads."""
    return tuple(ax for ax in range(dim) if depends_on_x(expr, ax))


# ---------------------------------------------------------------------------
# Exact x-differentiation
# ---------------------------------------------------------------------------


def diff_x(expr, axis: int):
    """Exact partial derivative with respect to x_{axis+1}.

    Works on any expression tree; a function with no derivative rule (`abs`,
    which has no complex derivative) of an x-dependent argument raises.
    """
    if isinstance(expr, (Const, Param, XiVar, XiVec)):
        return _ZERO
    if isinstance(expr, XVar):
        return _ONE if expr.axis == axis else _ZERO
    if isinstance(expr, Neg):
        d = diff_x(expr.operand, axis)
        return _ZERO if _is_const(d, 0) else Neg(d)
    if isinstance(expr, BinOp):
        du, dv = diff_x(expr.left, axis), diff_x(expr.right, axis)
        return _OPERATORS[expr.op].derivative(expr.left, expr.right, du, dv)
    if isinstance(expr, Call):
        du = diff_x(expr.arg, axis)
        if _is_const(du, 0):
            return _ZERO
        rule = FUNCTIONS[expr.fn].derivative
        if rule is None:
            raise DslError(f"{expr.fn}() of an x-dependent argument is not differentiable",
                           expr.pos)
        return rule(expr.arg, du)
    raise TypeError(f"not a symbol expression node: {expr!r}")


def diff_x_multi(expr, beta):
    """Iterated exact x-derivative for a multi-index beta."""
    out = expr
    for axis, order in enumerate(beta):
        for _ in range(int(order)):
            out = diff_x(out, axis)
    return out


def bind(expr, params):
    """Substitute parameter values into the tree, yielding a closed expression."""
    if isinstance(expr, Param):
        if expr.name not in params:
            raise DslError(f"unbound parameter {expr.name!r}", expr.pos)
        return Const(complex(params[expr.name]), pos=expr.pos)
    if isinstance(expr, Neg):
        return replace(expr, operand=bind(expr.operand, params))
    if isinstance(expr, BinOp):
        return replace(expr, left=bind(expr.left, params), right=bind(expr.right, params))
    if isinstance(expr, Call):
        return replace(expr, arg=bind(expr.arg, params))
    return expr


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolFamily:
    """A named symbol with bound parameters and its nominal class triple."""

    name: str
    parameters: dict
    expr: object
    order: float
    rho: float
    delta: float

    def eval(self, x, xi):
        return eval_expr(self.expr, x, xi, self.parameters)

    def label(self) -> str:
        args = ", ".join(f"{v:g}" for v in self.parameters.values())
        return f"{self.name}({args})"


_BESSEL_EXPR = parse("bracket(xi)^m")
_WAINGER_EXPR = parse("exp(i*abs(xi)^a)*bracket(xi)^(-b)")
_EXOTIC_EXPR = parse("bracket(xi)^m*exp(i*c*x1*bracket(xi)^d)")


def bessel(m: float) -> SymbolFamily:
    """bracket(xi)^m, nominal class (m, rho=1, delta=0)."""
    return SymbolFamily("bessel", {"m": float(m)}, _BESSEL_EXPR, float(m), 1.0, 0.0)


def wainger(a: float, b: float) -> SymbolFamily:
    """exp(i |xi|^a) bracket(xi)^(-b), nominal class (-b, 1-a, 0); 0 < a < 1."""
    if not 0 < a < 1:
        raise ValidationError(f"wainger exponent a={a:g} must lie in (0, 1)")
    return SymbolFamily(
        "wainger", {"a": float(a), "b": float(b)}, _WAINGER_EXPR, -float(b), 1.0 - float(a), 0.0
    )


def exotic(m: float, d: float, c: float) -> SymbolFamily:
    """bracket(xi)^m exp(i c x1 bracket(xi)^d), nominal class (m, 1-d, d); 0 <= d < 1."""
    if not 0 <= d < 1:
        raise ValidationError(f"exotic exponent d={d:g} must lie in [0, 1)")
    return SymbolFamily(
        "exotic",
        {"m": float(m), "d": float(d), "c": float(c)},
        _EXOTIC_EXPR,
        float(m),
        1.0 - float(d),
        float(d),
    )


FAMILY_BUILDERS = {"bessel": bessel, "wainger": wainger, "exotic": exotic}


def family_from_text(text: str):
    """Parse 'name(a, b, ...)' into a SymbolFamily, or return None if no match."""
    text = text.strip()
    for name, builder in FAMILY_BUILDERS.items():
        if text.startswith(name + "(") and text.endswith(")"):
            body = text[len(name) + 1 : -1]
            try:
                args = [float(part) for part in body.split(",")] if body.strip() else []
            except ValueError:
                raise ValidationError(f"bad arguments in family spec {text!r}")
            try:
                return builder(*args)
            except TypeError:
                raise ValidationError(f"wrong argument count in family spec {text!r}")
    return None


# ---------------------------------------------------------------------------
# Table-backed symbols
# ---------------------------------------------------------------------------


class TableSymbol:
    """Symbol stored as samples over grid x lattice.

    Difference operators may only step within the stored frequency box;
    anything else raises TableRangeError.
    """

    def __init__(self, spec, lattice, values):
        values = np.asarray(values, dtype=np.complex128)
        expected = tuple(spec.sizes) + tuple(lattice.sizes)
        if values.shape != expected:
            raise ValidationError(f"table shape {values.shape} != grid x lattice {expected}")
        self.spec = spec
        self.lattice = lattice
        self.values = values

    def eval(self, x, xi):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=int))
        gi = []
        for ax, n in enumerate(self.spec.sizes):
            k = x[ax] * n
            if abs(k - round(k)) > 1e-9:
                raise ValidationError(f"x[{ax}]={x[ax]:g} is not a grid point")
            gi.append(int(round(k)) % n)
        li = []
        for ax, n in enumerate(self.lattice.sizes):
            v = int(xi[ax])
            if not -(n // 2) <= v < n // 2:
                raise TableRangeError(
                    f"xi[{ax}]={v} outside stored box [{-(n // 2)}, {n // 2 - 1}]"
                )
            li.append(v + n // 2)
        return complex(self.values[tuple(gi) + tuple(li)])

"""Parsing, evaluation and symbolic differentiation of entire functions.

The grammar is deliberately small: decimal numbers (optional ``i`` suffix
for imaginary literals), the variable ``z``, the operators ``+ - * / ^``,
parentheses, and a registry of entire unary primitives (``exp``, ``sin``,
``cos`` by default).  Anything that could break entirety is rejected at
parse time: every denominator must be a nonzero constant and every
exponent a literal non-negative integer.  Literals, and the constants
folded into denominators and exponents, must be finite, and expressions
at most ``MAX_DEPTH`` levels deep.

Evaluation is total.  Intermediate overflow saturates to the largest
representable magnitude and raises a flag instead of an exception, so
escape-time loops can treat overflow as escape.  Values may be scalars or
numpy arrays; the same element-wise code path serves both, which keeps
grid classification bit-identical with per-point classification.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ExprSyntaxError, NonEntireError

__all__ = [
    "FunctionExpression",
    "parse",
    "evaluate",
    "evaluate_with_overflow",
    "register_primitive",
]

# Saturation target for overflowed evaluations: largest representable
# magnitude, kept real so |value| is itself representable.
SATURATION = complex(np.finfo(np.float64).max, 0.0)

# Deepest expression the parser accepts, counted both in tree levels and
# in nested subexpressions.  Evaluation, printing and differentiation
# recurse once per level, and the parser once per nesting.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

def _flag_nonfinite(values: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(values)
    if bad.any():
        values = values.copy() if not values.flags.writeable else values
        values[bad] = SATURATION
        overflow |= bad
    return values


@dataclass(frozen=True)
class Const:
    value: complex

    def _eval(self, z, overflow):
        v = np.full(z.shape, self.value, dtype=np.complex128)
        return _flag_nonfinite(v, overflow)

    def _derivative(self):
        return Const(0j)

    def _source(self) -> str:
        return _format_complex(self.value)


@dataclass(frozen=True)
class Var:
    def _eval(self, z, overflow):
        return z.copy()

    def _derivative(self):
        return Const(1 + 0j)

    def _source(self) -> str:
        return "z"


@dataclass(frozen=True)
class Neg:
    arg: "Node"

    def _eval(self, z, overflow):
        return -self.arg._eval(z, overflow)

    def _derivative(self):
        return _neg(self.arg._derivative())

    def _source(self) -> str:
        return f"(-{self.arg._source()})"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"

    def _eval(self, z, overflow):
        v = self.left._eval(z, overflow) + self.right._eval(z, overflow)
        return _flag_nonfinite(v, overflow)

    def _derivative(self):
        return _add(self.left._derivative(), self.right._derivative())

    def _source(self) -> str:
        return f"({self.left._source()} + {self.right._source()})"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"

    def _eval(self, z, overflow):
        v = self.left._eval(z, overflow) - self.right._eval(z, overflow)
        return _flag_nonfinite(v, overflow)

    def _derivative(self):
        return _sub(self.left._derivative(), self.right._derivative())

    def _source(self) -> str:
        return f"({self.left._source()} - {self.right._source()})"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"

    def _eval(self, z, overflow):
        v = self.left._eval(z, overflow) * self.right._eval(z, overflow)
        return _flag_nonfinite(v, overflow)

    def _derivative(self):
        return _add(
            _mul(self.left._derivative(), self.right),
            _mul(self.left, self.right._derivative()),
        )

    def _source(self) -> str:
        return f"({self.left._source()} * {self.right._source()})"


@dataclass(frozen=True)
class Div:
    """Quotient by a nonzero constant; the only division entirety allows."""

    num: "Node"
    den: Const

    def _eval(self, z, overflow):
        v = self.num._eval(z, overflow) / self.den.value
        return _flag_nonfinite(v, overflow)

    def _derivative(self):
        return Div(self.num._derivative(), self.den)

    def _source(self) -> str:
        return f"({self.num._source()} / {self.den._source()})"


@dataclass(frozen=True)
class Pow:
    """Integer power with literal exponent >= 0, by binary exponentiation."""

    base: "Node"
    exponent: int

    def _eval(self, z, overflow):
        if self.exponent == 0:
            return np.ones(z.shape, dtype=np.complex128)
        b = self.base._eval(z, overflow)
        n = self.exponent
        acc = None
        sq = b
        while n:
            if n & 1:
                acc = sq if acc is None else _flag_nonfinite(acc * sq, overflow)
            n >>= 1
            if n:
                sq = _flag_nonfinite(sq * sq, overflow)
        return acc.copy() if acc is sq else acc

    def _derivative(self):
        n = self.exponent
        du = self.base._derivative()
        if n == 0:
            return Const(0j)
        if n == 1:
            return du
        outer = _mul(Const(complex(n)), Pow(self.base, n - 1))
        return _mul(outer, du)

    def _source(self) -> str:
        return f"({self.base._source()}^{self.exponent})"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Node"

    def _eval(self, z, overflow):
        v = PRIMITIVES[self.name].fn(self.arg._eval(z, overflow))
        return _flag_nonfinite(v, overflow)

    def _derivative(self):
        outer = PRIMITIVES[self.name].derivative(self.arg)
        return _mul(outer, self.arg._derivative())

    def _source(self) -> str:
        return f"{self.name}({self.arg._source()})"


Node = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# Primitive registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Primitive:
    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[Node], Node]  # builds d(prim)/du as an AST in u


PRIMITIVES: dict[str, _Primitive] = {
    "exp": _Primitive(np.exp, lambda u: Call("exp", u)),
    "sin": _Primitive(np.sin, lambda u: Call("cos", u)),
    "cos": _Primitive(np.cos, lambda u: Neg(Call("sin", u))),
}


def register_primitive(name: str, fn, derivative) -> None:
    """Add an entire unary primitive to the expression grammar.

    ``fn`` maps a complex ndarray to a complex ndarray; ``derivative``
    maps an argument AST ``u`` to the AST of d(fn)/du.  Register before
    parsing any source that uses the new name.
    """
    if not name.isidentifier() or name in ("z", "i"):
        raise ValueError(f"invalid primitive name {name!r}")
    PRIMITIVES[name] = _Primitive(fn, derivative)


# ---------------------------------------------------------------------------
# Light structural simplification (used when building derivatives)
# ---------------------------------------------------------------------------

def _is_const(node: Node, value: complex) -> bool:
    return isinstance(node, Const) and node.value == value


def _neg(u: Node) -> Node:
    if _is_const(u, 0j):
        return u
    return Neg(u)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0j):
        return b
    if _is_const(b, 0j):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0j):
        return a
    if _is_const(a, 0j):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0j) or _is_const(b, 0j):
        return Const(0j)
    if _is_const(a, 1 + 0j):
        return b
    if _is_const(b, 1 + 0j):
        return a
    return Mul(a, b)


# ---------------------------------------------------------------------------
# Complex literal formatting (canonical print form)
# ---------------------------------------------------------------------------

def _format_real(x: float) -> str:
    return repr(float(x))


def _format_complex(c: complex) -> str:
    re_, im_ = c.real, c.imag
    if im_ == 0.0:
        return _format_real(re_)
    if re_ == 0.0:
        return f"{_format_real(im_)}i"
    sign = "-" if im_ < 0 else "+"
    return f"({_format_real(re_)} {sign} {_format_real(abs(im_))}i)"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {source[pos]!r}", pos,
                "number, name, operator or parenthesis")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?
#   atom   := number | 'i' | 'z' | primitive '(' expr ')' | '(' expr ')'
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(
                f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input",
                tok.pos, repr(op))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected token {tok.text!r}", tok.pos,
                "operator or end of input")
        self.check_depth(node, 0)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.unary()
            if op.text == "*":
                node = Mul(node, rhs)
            else:
                node = Div(node, self._as_nonzero_const(rhs, op.pos))
        return node

    def unary(self) -> Node:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            op = self.advance()
            exponent = self.unary()
            return Pow(base, self._as_int_exponent(exponent, op.pos))
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            text = tok.text
            imaginary = text.endswith("i")
            value = float(text[:-1] or "1") if imaginary else float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"literal {text!r} overflows", tok.pos,
                                      "a finite number")
            return Const(complex(0.0, value) if imaginary else complex(value, 0.0))
        if tok.kind == "name":
            if tok.text == "z":
                return Var()
            if tok.text == "i":
                return Const(1j)
            if tok.text in PRIMITIVES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ExprSyntaxError(
                f"unknown identifier {tok.text!r}", tok.pos,
                "'z', 'i' or one of " + ", ".join(sorted(PRIMITIVES)))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos, "number, 'z', 'i', function call or '('")

    def check_depth(self, node: Node, pos: int) -> None:
        # A tree has no more levels than the source has tokens.
        if len(self.tokens) > MAX_DEPTH:
            _check_depth(node, pos)

    def _as_nonzero_const(self, node: Node, pos: int) -> Const:
        self.check_depth(node, pos)
        value = _constant_value(node, pos)
        if value is None:
            raise NonEntireError("denominator must be a constant", pos)
        if value == 0:
            raise NonEntireError("denominator must be nonzero", pos)
        return Const(value)

    def _as_int_exponent(self, node: Node, pos: int) -> int:
        self.check_depth(node, pos)
        value = _constant_value(node, pos)
        if value is None:
            raise NonEntireError("exponent must be a constant integer", pos)
        if value.imag != 0.0 or value.real != int(value.real):
            raise NonEntireError("exponent must be an integer", pos)
        if value.real < 0:
            raise NonEntireError("exponent must be non-negative", pos)
        return int(value.real)


def _children(node: Node) -> tuple:
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Div):
        return (node.num, node.den)
    if isinstance(node, (Add, Sub, Mul)):
        return (node.left, node.right)
    return ()


def _check_depth(node: Node, pos: int) -> None:
    """Reject trees deeper than MAX_DEPTH, walking them without recursion."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", pos)
        stack.extend((child, depth + 1) for child in _children(node))


def _contains_var(node: Node) -> bool:
    return isinstance(node, Var) or any(_contains_var(c) for c in _children(node))


def _constant_value(node: Node, pos: int) -> complex | None:
    """Value of a variable-free subtree, or None if it contains ``z``.

    A value that overflows anywhere in its evaluation is rejected rather
    than folded to its saturated stand-in.
    """
    if _contains_var(node):
        return None
    overflow = np.zeros(1, dtype=bool)
    with np.errstate(all="ignore"):
        value = node._eval(np.zeros(1, dtype=np.complex128), overflow)
    if overflow[0]:
        raise ExprSyntaxError("constant expression overflows", pos,
                              "a finite constant")
    return complex(value[0])


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

class FunctionExpression:
    """A validated entire function of one complex variable.

    Immutable after construction; the symbolic derivative is computed
    eagerly and its expression is built once, on first use, so instances
    can be shared freely across threads.
    """

    __slots__ = ("root", "derivative_root", "_source", "_derivative_expr")

    def __init__(self, root: Node):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "derivative_root", root._derivative())
        object.__setattr__(self, "_source", root._source())
        object.__setattr__(self, "_derivative_expr", None)

    def __setattr__(self, name, value):
        raise AttributeError("FunctionExpression is immutable")

    def __call__(self, z):
        return evaluate(self, z)

    def derivative(self) -> "FunctionExpression":
        if self._derivative_expr is None:
            # a race builds two equal expressions; either may be kept
            object.__setattr__(self, "_derivative_expr",
                               FunctionExpression(self.derivative_root))
        return self._derivative_expr

    def to_source(self) -> str:
        """Canonical fully parenthesized source; ``parse`` round-trips it."""
        return self._source

    def __repr__(self) -> str:
        return f"FunctionExpression({self._source!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionExpression) and self.root == other.root

    def __hash__(self) -> int:
        return hash(self._source)


def parse(source: str) -> FunctionExpression:
    """Parse ``source`` into a validated :class:`FunctionExpression`.

    Raises :class:`ExprSyntaxError` on malformed input and
    :class:`NonEntireError` when the expression is not provably entire
    (variable or zero denominator, non-integer or negative exponent).
    """
    return FunctionExpression(_Parser(source).parse())


def evaluate_with_overflow(f: FunctionExpression, z):
    """Evaluate ``f`` at ``z`` (scalar or ndarray) with an overflow flag.

    Overflowed entries saturate to the largest representable magnitude
    and are marked True in the returned flag; callers treat them as
    escaped.  Finite inputs always produce finite outputs.
    """
    arr = np.asarray(z, dtype=np.complex128)
    scalar = arr.ndim == 0
    work = arr.reshape(-1)
    overflow = np.zeros(work.shape, dtype=bool)
    with np.errstate(all="ignore"):
        values = f.root._eval(work, overflow)
    if scalar:
        return complex(values[0]), bool(overflow[0])
    return values.reshape(arr.shape), overflow.reshape(arr.shape)


def evaluate(f: FunctionExpression, z):
    """Evaluate ``f`` at ``z`` (scalar or ndarray), saturating on overflow."""
    values, _ = evaluate_with_overflow(f, z)
    return values

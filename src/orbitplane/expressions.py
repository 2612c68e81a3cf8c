"""Parsing, evaluation and symbolic differentiation of entire functions.

The grammar is deliberately small: decimal numbers (optional ``i`` suffix
for imaginary literals), the variable ``z``, the operators ``+ - * / ^``,
parentheses, and the entire unary primitives ``exp``, ``sin`` and
``cos``.  Anything that could break entirety is rejected at parse time:
every denominator must be a nonzero constant and every exponent a literal
non-negative integer.  Literals, and the constants folded into
denominators and exponents, must be finite, and expressions at most
``MAX_DEPTH`` levels deep.

An expression is parsed once into a postfix *program*: a tuple of
``(op, arg)`` instructions that act on a stack of values.

- ``("z", None)`` pushes the variable, ``("const", c)`` the complex c.
- ``neg``, ``exp``, ``sin`` and ``cos`` (arg None) map the top value u
  to -u, exp u, sin u, cos u; ``add``, ``sub`` and ``mul`` pop v, then
  u, and push u + v, u - v, u * v.
- ``("div", c)`` divides the top by the nonzero constant c, and
  ``("pow", n)`` raises it to the integer n >= 1.
- ``("pow0", base)`` pushes x^0 = 1 for the base x, whose program it
  carries only to print it and to count its depth; x is never run.

One walker, ``_walk``, interprets a program under a table of rules, one
per opcode: ``_RUN`` evaluates it, ``_ENCLOSE`` bounds it on rectangles
with outward rounding, ``_EXACT`` evaluates it in rational arithmetic
where that is exact, ``_SOURCE`` prints it, ``_DERIVATIVE`` differentiates
it into another program and ``_DEPTH`` measures its nesting.  Only
``_SOURCE`` and ``_DEPTH`` recurse, into a ``pow0`` base.

Evaluation is total.  Intermediate overflow saturates to the largest
representable magnitude and raises a flag instead of an exception, so
escape-time loops can treat overflow as escape.  Values may be scalars or
numpy arrays; the same element-wise code path serves both, which keeps
grid classification bit-identical with per-point classification.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprSyntaxError, NonEntireError

__all__ = [
    "FunctionExpression",
    "parse",
    "evaluate",
    "evaluate_with_overflow",
]

# Largest double.  SATURATION, the target for overflowed evaluations, is
# it as a complex number, kept real so |value| is itself representable.
LARGEST = float(np.finfo(np.float64).max)
SATURATION = complex(LARGEST, 0.0)

# Deepest expression the parser accepts, counted both in expression
# levels and in nested subexpressions.  The parser recurses once per
# nesting.
MAX_DEPTH = 100

_PRIMITIVES = ("exp", "sin", "cos")

_ZERO = (("const", 0j),)
_ONE = (("const", 1 + 0j),)


# ---------------------------------------------------------------------------
# The program walker and its rules tables
# ---------------------------------------------------------------------------

# Operands each opcode pops from the stack.
_ARITY = {"z": 0, "const": 0, "pow0": 0, "neg": 1, "exp": 1, "sin": 1,
          "cos": 1, "div": 1, "pow": 1, "add": 2, "sub": 2, "mul": 2}


def _walk(program: tuple, rules: dict, *context):
    """Interpret ``program``: each instruction ``(op, arg)`` pops
    ``_ARITY[op]`` operands, the deepest first, and pushes
    ``rules[op](*context, arg, *operands)``.  Returns the last value."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        arity = _ARITY[op]
        if not arity:
            push(rules[op](*context, arg))
        elif arity == 1:
            push(rules[op](*context, arg, pop()))
        else:
            v = pop()
            push(rules[op](*context, arg, pop(), v))
    return pop()


def _flag_nonfinite(values: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    finite = np.isfinite(values)
    # np.count_nonzero is cheaper than ndarray.any on a few points
    if np.count_nonzero(finite) < finite.size:
        bad = ~finite
        values = values.copy() if not values.flags.writeable else values
        values[bad] = SATURATION
        overflow |= bad
    return values


def _power(x, n: int, mul):
    """x^n for an integer n >= 1 by binary exponentiation, with ``mul``
    multiplying two values."""
    acc = None
    while True:
        if n & 1:
            acc = x if acc is None else mul(acc, x)
        n >>= 1
        if not n:
            return acc
        x = mul(x, x)


# Values at the 1-D array z (context z, overflow).  Every operation but
# negation saturates its non-finite results and marks them in the flags
# ``overflow``.  The result never shares memory with z.
_RUN = {
    "z": lambda z, overflow, _: z.copy(),
    "const": lambda z, overflow, c: np.full(z.shape, c, dtype=np.complex128),
    "pow0": lambda z, overflow, _: np.ones(z.shape, dtype=np.complex128),
    "neg": lambda z, overflow, _, u: -u,
    "exp": lambda z, overflow, _, u: _flag_nonfinite(np.exp(u), overflow),
    "sin": lambda z, overflow, _, u: _flag_nonfinite(np.sin(u), overflow),
    "cos": lambda z, overflow, _, u: _flag_nonfinite(np.cos(u), overflow),
    "div": lambda z, overflow, c, u: _flag_nonfinite(u / c, overflow),
    "pow": lambda z, overflow, n, u: _power(
        u, n, lambda a, b: _flag_nonfinite(a * b, overflow)),
    "add": lambda z, overflow, _, u, v: _flag_nonfinite(u + v, overflow),
    "sub": lambda z, overflow, _, u, v: _flag_nonfinite(u - v, overflow),
    "mul": lambda z, overflow, _, u, v: _flag_nonfinite(u * v, overflow),
}


# exp, sin, cos, sinh and cosh from the platform's math library are
# trusted to this many units in the last place; +, -, * and / are
# correctly rounded, so one unit covers them.
_LIBM_ULPS = 4

# Real sin and cos bound their range by [-1, 1] beyond this modulus
# instead of locating their extrema.
_TRIG_REDUCE_MAX = 2.0 ** 40


def _widen(lo, hi, ulps=1):
    """[lo, hi] moved outward by ``ulps`` units in the last place."""
    for _ in range(ulps):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
    return lo, hi


def _ihull(*values, ulps=1):
    # np.minimum and np.maximum propagate NaN, so no bound is lost silently
    return _widen(functools.reduce(np.minimum, values),
                  functools.reduce(np.maximum, values), ulps)


def _iadd(a, b):
    return _widen(a[0] + b[0], a[1] + b[1])


def _ineg(a):
    return -a[1], -a[0]


def _imul(a, b):
    return _ihull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def _imonotone(fn, a):
    return _widen(fn(a[0]), fn(a[1]), _LIBM_ULPS)


def _icosh(a):
    lo, hi = a
    c_lo, c_hi = np.cosh(lo), np.cosh(hi)
    least = np.where((lo <= 0) & (hi >= 0), 1.0, np.minimum(c_lo, c_hi))
    least, most = _widen(least, np.maximum(c_lo, c_hi), _LIBM_ULPS)
    return np.maximum(least, 1.0), most


def _may_hold(lo, hi, at):
    """Whether [lo, hi] may hold at + 2k pi for an integer k; errs to yes."""
    t_lo = (lo - at) / (2 * np.pi)
    t_hi = (hi - at) / (2 * np.pi)
    slack = 2.0 ** -40 * (1.0 + np.maximum(np.abs(t_lo), np.abs(t_hi)))
    return ((np.floor(t_hi + slack) >= np.ceil(t_lo - slack))
            | (np.maximum(np.abs(lo), np.abs(hi)) > _TRIG_REDUCE_MAX))


def _itrig(fn, a, peak):
    """Range of sin (peak pi/2) or cos (peak 0) on [lo, hi], split at the
    maxima peak + 2k pi and the minima peak + pi + 2k pi."""
    lo, hi = a
    least, most = _ihull(fn(lo), fn(hi), ulps=_LIBM_ULPS)
    most = np.where(_may_hold(lo, hi, peak), 1.0, np.minimum(most, 1.0))
    least = np.where(_may_hold(lo, hi, peak + np.pi), -1.0,
                     np.maximum(least, -1.0))
    return least, most


def _settle(box):
    """``box`` with each rectangle that has a non-finite bound made the
    whole plane, so no enclosure rests on an overflowed value."""
    finite = functools.reduce(np.logical_and, map(np.isfinite, box))
    if finite.all():
        return box
    return tuple(np.where(finite, part, bound)
                 for part, bound in zip(box, (-np.inf, np.inf) * 2))


def _bpoint(boxes, c: complex):
    """The point c as a batch shaped like ``boxes``."""
    shape = np.shape(boxes[0])
    re, im = np.full(shape, c.real), np.full(shape, c.imag)
    return re, re, im, im


def _bneg(u):
    return (*_ineg(u[:2]), *_ineg(u[2:]))


def _badd(u, v):
    return (*_iadd(u[:2], v[:2]), *_iadd(u[2:], v[2:]))


def _bmul(u, v):
    x, y, p, q = u[:2], u[2:], v[:2], v[2:]
    return (*_iadd(_imul(x, p), _ineg(_imul(y, q))),
            *_iadd(_imul(x, q), _imul(y, p)))


def _bdiv(u, c: complex):
    """u / c as u times conj(c) / |c|^2, with |c|^2 enclosed; the whole
    plane when |c|^2 under- or overflows."""
    re, im = (c.real, c.real), (c.imag, c.imag)
    n_lo, n_hi = _iadd(_imul(re, re), _imul(im, im))
    if not 0 < n_lo <= n_hi < np.inf:
        return (np.full(np.shape(u[0]), -np.inf), np.full(np.shape(u[0]), np.inf)) * 2
    inverse = _widen(1 / n_hi, 1 / n_lo)
    return _bmul(u, (*_imul(re, inverse), *_imul(_ineg(im), inverse)))


def _bprim(op: str, u):
    x, y = u[:2], u[2:]
    if op == "exp":
        e = _imonotone(np.exp, x)
        return (*_imul(e, _itrig(np.cos, y, 0.0)),
                *_imul(e, _itrig(np.sin, y, np.pi / 2)))
    sin_x, cos_x = _itrig(np.sin, x, np.pi / 2), _itrig(np.cos, x, 0.0)
    cosh_y, sinh_y = _icosh(y), _imonotone(np.sinh, y)
    if op == "sin":  # sin x cosh y + i cos x sinh y
        return (*_imul(sin_x, cosh_y), *_imul(cos_x, sinh_y))
    return (*_imul(cos_x, cosh_y), *_ineg(_imul(sin_x, sinh_y)))


def _settled(rule):
    return lambda *args: _settle(rule(*args))


# Context (boxes,): the batch of rectangles z ranges over.
_ENCLOSE = {op: _settled(rule) for op, rule in {
    "z": lambda boxes, _: tuple(np.asarray(b, dtype=float) for b in boxes),
    "const": _bpoint,
    "pow0": lambda boxes, _: _bpoint(boxes, 1.0),
    "neg": lambda boxes, _, u: _bneg(u),
    "exp": lambda boxes, _, u: _bprim("exp", u),
    "sin": lambda boxes, _, u: _bprim("sin", u),
    "cos": lambda boxes, _, u: _bprim("cos", u),
    "div": lambda boxes, c, u: _bdiv(u, c),
    "pow": lambda boxes, n, u: _power(
        u, n, lambda a, b: _settle(_bmul(a, b))),
    "add": lambda boxes, _, u, v: _badd(u, v),
    "sub": lambda boxes, _, u, v: _badd(u, _bneg(v)),
    "mul": lambda boxes, _, u, v: _bmul(u, v),
}.items()}


def _enclose(program: tuple, boxes: tuple) -> tuple:
    """Rectangles holding the values of ``program`` on the rectangles
    ``boxes``.

    A batch of rectangles is four 1-D float arrays (re lo, re hi, im lo,
    im hi), and the result is one too.  Every rounded bound is moved
    outward with ``np.nextafter``: one unit in the last place after
    +, -, * and /, which IEEE arithmetic rounds correctly, and
    ``_LIBM_ULPS`` units after exp, sin, cos, sinh and cosh.  Real sin
    and cos take their extrema into account wherever the interval may
    hold one.  So the result holds f(z) for every z of the rectangle.  A
    rectangle with a bound that overflows or is undefined becomes the
    whole plane (-inf, inf) x (-inf, inf), never a saturated finite
    value, and no warning escapes.
    """
    with np.errstate(all="ignore"):
        return _walk(program, _ENCLOSE, boxes)


def _qmul(u: tuple, v: tuple) -> tuple:
    """Product of complex rationals, each a (re, im) pair of Fractions."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


class _Inexact(Exception):
    """A value of the program is not a complex rational."""


def _qdiv(u: tuple, re, im) -> tuple:
    """u / (re + i im) for complex rationals."""
    n = re * re + im * im
    x, y = _qmul(u, (re, -im))
    return x / n, y / n


def _qprim(u: tuple, at_zero: tuple) -> tuple:
    """exp, sin or cos of u, worth ``at_zero`` at 0 and inexact elsewhere."""
    if any(u):
        raise _Inexact
    return at_zero


# Context (z, q): the complex rational point and the type of its parts.
_EXACT = {
    "z": lambda z, q, _: z,
    "const": lambda z, q, c: (q(c.real), q(c.imag)),
    "pow0": lambda z, q, _: (q(1), q(0)),
    "neg": lambda z, q, _, u: (-u[0], -u[1]),
    "exp": lambda z, q, _, u: _qprim(u, (q(1), q(0))),
    "sin": lambda z, q, _, u: _qprim(u, (q(0), q(0))),
    "cos": lambda z, q, _, u: _qprim(u, (q(1), q(0))),
    "div": lambda z, q, c, u: _qdiv(u, q(c.real), q(c.imag)),
    "pow": lambda z, q, n, u: _power(u, n, _qmul),
    "add": lambda z, q, _, u, v: (u[0] + v[0], u[1] + v[1]),
    "sub": lambda z, q, _, u, v: (u[0] - v[0], u[1] - v[1]),
    "mul": lambda z, q, _, u, v: _qmul(u, v),
}


def _exact(program: tuple, z: tuple):
    """Exact value of ``program`` at the complex rational ``z``, or None.

    Complex rationals are (re, im) pairs of ``fractions.Fraction``, the
    type of z's parts, which takes float literals at their exact binary
    value.  exp, sin and cos are rational only at 0 here, so any other
    argument gives None.
    """
    try:
        return _walk(program, _EXACT, z, type(z[0]))
    except _Inexact:
        return None


# Canonical fully parenthesized source.
_SOURCE = {
    "z": lambda _: "z",
    "const": lambda c: _format_complex(c),
    "pow0": lambda base: f"({_walk(base, _SOURCE)}^0)",
    "neg": lambda _, u: f"(-{u})",
    "exp": lambda _, u: f"exp({u})",
    "sin": lambda _, u: f"sin({u})",
    "cos": lambda _, u: f"cos({u})",
    "div": lambda c, u: f"({u} / {_format_complex(c)})",
    "pow": lambda n, u: f"({u}^{n})",
    "add": lambda _, u, v: f"({u} + {v})",
    "sub": lambda _, u, v: f"({u} - {v})",
    "mul": lambda _, u, v: f"({u} * {v})",
}


# A leaf is one level; a denominator is a leaf below its quotient.
_DEPTH = {**dict.fromkeys(_ARITY, lambda _, *u: 1 + max(u, default=0)),
          "pow0": lambda base: 1 + _walk(base, _DEPTH)}


def _pairing(op: str, rule):
    return lambda arg, *pairs: (sum((u for u, _ in pairs), ()) + ((op, arg),),
                                rule(arg, *pairs))


# Program of d/dz, lightly simplified.  Each value is a (program,
# derivative) pair, and each rule makes the derivative from its operands'.
_DERIVATIVE = {op: _pairing(op, rule) for op, rule in {
    "z": lambda _: _ONE,
    "const": lambda _: _ZERO,
    "pow0": lambda _: _ZERO,
    "neg": lambda _, u: _neg(u[1]),
    "exp": lambda _, u: _mul(u[0] + (("exp", None),), u[1]),
    "sin": lambda _, u: _mul(u[0] + (("cos", None),), u[1]),
    "cos": lambda _, u: _mul(u[0] + (("sin", None), ("neg", None)), u[1]),
    "div": lambda c, u: u[1] + (("div", c),),
    "pow": lambda n, u: u[1] if n == 1 else _mul(  # (u^1)' is u'
        _mul((("const", complex(n)),), u[0] + (("pow", n - 1),)), u[1]),
    "add": lambda _, u, v: _add(u[1], v[1]),
    "sub": lambda _, u, v: _sub(u[1], v[1]),
    "mul": lambda _, u, v: _add(_mul(u[1], v[0]), _mul(u[0], v[1])),
}.items()}


# ---------------------------------------------------------------------------
# Light structural simplification (used when building derivatives)
# ---------------------------------------------------------------------------

def _is_const(program: tuple, value: complex) -> bool:
    return program == (("const", value),)


def _neg(u: tuple) -> tuple:
    return u if _is_const(u, 0j) else u + (("neg", None),)


def _add(a: tuple, b: tuple) -> tuple:
    if _is_const(a, 0j):
        return b
    if _is_const(b, 0j):
        return a
    return a + b + (("add", None),)


def _sub(a: tuple, b: tuple) -> tuple:
    if _is_const(b, 0j):
        return a
    if _is_const(a, 0j):
        return _neg(b)
    return a + b + (("sub", None),)


def _mul(a: tuple, b: tuple) -> tuple:
    if _is_const(a, 0j) or _is_const(b, 0j):
        return _ZERO
    if _is_const(a, 1 + 0j):
        return b
    if _is_const(b, 1 + 0j):
        return a
    return a + b + (("mul", None),)


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
# Recursive-descent parser, emitting programs
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?
#   atom   := number | 'i' | 'z' | primitive '(' expr ')' | '(' expr ')'
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str):
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

    def parse(self) -> tuple:
        program = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected token {tok.text!r}", tok.pos,
                "operator or end of input")
        self.check_depth(program, 0)
        return program

    def expr(self) -> tuple:
        program = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = "add" if self.advance().text == "+" else "sub"
            program += self.term() + ((op, None),)
        return program

    def term(self) -> tuple:
        program = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            start = self.index
            rhs = self.unary()
            if op.text == "*":
                program += rhs + (("mul", None),)
            else:
                program += (("div", self._as_nonzero_const(rhs, start, op.pos)),)
        return program

    def unary(self) -> tuple:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            program = self.unary() + (("neg", None),)
        else:
            program = self.power()
        self.nesting -= 1
        return program

    def power(self) -> tuple:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            op = self.advance()
            start = self.index
            n = self._as_int_exponent(self.unary(), start, op.pos)
            return base + (("pow", n),) if n else (("pow0", base),)
        return base

    def atom(self) -> tuple:
        tok = self.advance()
        if tok.kind == "number":
            text = tok.text
            imaginary = text.endswith("i")
            value = float(text[:-1] or "1") if imaginary else float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"literal {text!r} overflows", tok.pos,
                                      "a finite number")
            return (("const",
                     complex(0.0, value) if imaginary else complex(value, 0.0)),)
        if tok.kind == "name":
            if tok.text == "z":
                return (("z", None),)
            if tok.text == "i":
                return (("const", 1j),)
            if tok.text in _PRIMITIVES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return arg + ((tok.text, None),)
            raise ExprSyntaxError(
                f"unknown identifier {tok.text!r}", tok.pos,
                "'z', 'i' or one of " + ", ".join(sorted(_PRIMITIVES)))
        if tok.kind == "op" and tok.text == "(":
            program = self.expr()
            self.expect_op(")")
            return program
        raise ExprSyntaxError(
            f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos, "number, 'z', 'i', function call or '('")

    def check_depth(self, program: tuple, pos: int) -> None:
        # An expression has no more levels than the source has tokens.
        if len(self.tokens) > MAX_DEPTH and _walk(program, _DEPTH) > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", pos)

    def constant_value(self, program: tuple, start: int, pos: int) -> complex | None:
        """Value of the operand parsed from token ``start`` on, or None if
        it reads ``z``.

        A value that overflows anywhere in its evaluation is rejected rather
        than folded to its saturated stand-in.
        """
        self.check_depth(program, pos)
        if any(tok.text == "z" for tok in self.tokens[start:self.index]):
            return None
        overflow = np.zeros(1, dtype=bool)
        with np.errstate(all="ignore"):
            value = _walk(program, _RUN, np.zeros(1, dtype=np.complex128),
                          overflow)
        if overflow[0]:
            raise ExprSyntaxError("constant expression overflows", pos,
                                  "a finite constant")
        return complex(value[0])

    def _as_nonzero_const(self, program: tuple, start: int, pos: int) -> complex:
        value = self.constant_value(program, start, pos)
        if value is None:
            raise NonEntireError("denominator must be a constant", pos)
        if value == 0:
            raise NonEntireError("denominator must be nonzero", pos)
        return value

    def _as_int_exponent(self, program: tuple, start: int, pos: int) -> int:
        value = self.constant_value(program, start, pos)
        if value is None:
            raise NonEntireError("exponent must be a constant integer", pos)
        if value.imag != 0.0 or value.real != int(value.real):
            raise NonEntireError("exponent must be an integer", pos)
        if value.real < 0:
            raise NonEntireError("exponent must be non-negative", pos)
        return int(value.real)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

class FunctionExpression:
    """A validated entire function of one complex variable.

    Holds its postfix program (see the module docstring).  Immutable
    after construction; the symbolic derivative is built once, on first
    use, so instances can be shared freely across threads.
    """

    __slots__ = ("program", "_text", "_derivative_expr")

    def __init__(self, program: tuple):
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "_text", _walk(program, _SOURCE))
        object.__setattr__(self, "_derivative_expr", None)

    def __setattr__(self, name, value):
        raise AttributeError("FunctionExpression is immutable")

    def __call__(self, z):
        return evaluate(self, z)

    def derivative(self) -> "FunctionExpression":
        if self._derivative_expr is None:
            # a race builds two equal expressions; either may be kept
            object.__setattr__(self, "_derivative_expr",
                               FunctionExpression(_walk(self.program, _DERIVATIVE)[1]))
        return self._derivative_expr

    def to_source(self) -> str:
        """Canonical fully parenthesized source; ``parse`` round-trips it."""
        return self._text

    def __repr__(self) -> str:
        return f"FunctionExpression({self._text!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FunctionExpression)
                and self.program == other.program)

    def __hash__(self) -> int:
        return hash(self._text)


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
        values = _walk(f.program, _RUN, work, overflow)
    if scalar:
        return complex(values[0]), bool(overflow[0])
    return values.reshape(arr.shape), overflow.reshape(arr.shape)


def evaluate(f: FunctionExpression, z):
    """Evaluate ``f`` at ``z`` (scalar or ndarray), saturating on overflow."""
    values, _ = evaluate_with_overflow(f, z)
    return values

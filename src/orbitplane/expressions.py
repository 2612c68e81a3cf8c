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

Six loops interpret a program, recursing only into a ``pow0`` base:
``_run`` evaluates it, ``_enclose`` bounds it on rectangles with
outward rounding, ``_exact`` evaluates it in rational arithmetic where
that is exact, ``_source`` prints it, ``_derivative`` differentiates it
into another program and ``_depth`` measures its nesting.

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

_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
_INFIX = {"add": "+", "sub": "-", "mul": "*"}
_PRIMITIVES = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
# d(prim u)/du as a program suffix applied to u.
_OUTER = {"exp": (("exp", None),), "sin": (("cos", None),),
          "cos": (("sin", None), ("neg", None))}

_ZERO = (("const", 0j),)
_ONE = (("const", 1 + 0j),)


# ---------------------------------------------------------------------------
# Interpreters
# ---------------------------------------------------------------------------

def _flag_nonfinite(values: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(values)
    if bad.any():
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


def _run(program: tuple, z: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    """Values of ``program`` at the 1-D array ``z``.

    Every operation but negation saturates its non-finite results and
    marks them in ``overflow``.  The result never shares memory with ``z``.
    """
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        if op == "z":
            push(z.copy())
        elif op in _PRIMITIVES:
            push(_flag_nonfinite(_PRIMITIVES[op](pop()), overflow))
        elif op in _BINARY:
            v = pop()
            push(_flag_nonfinite(_BINARY[op](pop(), v), overflow))
        elif op == "const":
            push(np.full(z.shape, arg, dtype=np.complex128))
        elif op == "neg":
            push(-pop())
        elif op == "div":
            push(_flag_nonfinite(pop() / arg, overflow))
        elif op == "pow":
            push(_power(pop(), arg,
                        lambda u, v: _flag_nonfinite(u * v, overflow)))
        else:  # pow0
            push(np.ones(z.shape, dtype=np.complex128))
    return pop()


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
    shape = np.shape(boxes[0])

    def point(c: complex):
        re, im = np.full(shape, c.real), np.full(shape, c.imag)
        return re, re, im, im

    stack = []
    push, pop = stack.append, stack.pop
    with np.errstate(all="ignore"):
        for op, arg in program:
            if op == "z":
                value = tuple(np.asarray(b, dtype=float) for b in boxes)
            elif op == "const":
                value = point(arg)
            elif op == "pow0":
                value = point(1.0)
            elif op in _PRIMITIVES:
                value = _bprim(op, pop())
            elif op == "neg":
                u = pop()
                value = (*_ineg(u[:2]), *_ineg(u[2:]))
            elif op == "div":
                value = _bdiv(pop(), arg)
            elif op == "pow":
                value = _power(pop(), arg, lambda u, v: _settle(_bmul(u, v)))
            else:
                v, u = pop(), pop()
                if op == "mul":
                    value = _bmul(u, v)
                else:
                    if op == "sub":
                        v = (*_ineg(v[:2]), *_ineg(v[2:]))
                    value = (*_iadd(u[:2], v[:2]), *_iadd(u[2:], v[2:]))
            push(_settle(value))
    return pop()


def _qmul(u: tuple, v: tuple) -> tuple:
    """Product of complex rationals, each a (re, im) pair of Fractions."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _exact(program: tuple, z: tuple):
    """Exact value of ``program`` at the complex rational ``z``, or None.

    Complex rationals are (re, im) pairs of ``fractions.Fraction``, the
    type of z's parts, which takes float literals at their exact binary
    value.  exp, sin and cos are rational only at 0 here, so any other
    argument gives None.
    """
    rational = type(z[0])
    zero, one = rational(0), rational(1)
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        if op == "z":
            push(z)
        elif op == "const":
            push((rational(arg.real), rational(arg.imag)))
        elif op == "pow0":
            push((one, zero))
        elif op in _PRIMITIVES:
            if any(pop()):
                return None
            push((zero if op == "sin" else one, zero))
        elif op == "neg":
            re, im = pop()
            push((-re, -im))
        elif op == "div":
            re, im = rational(arg.real), rational(arg.imag)
            n = re * re + im * im
            x, y = _qmul(pop(), (re, -im))
            push((x / n, y / n))
        elif op == "pow":
            push(_power(pop(), arg, _qmul))
        else:
            v, u = pop(), pop()
            if op == "mul":
                push(_qmul(u, v))
            else:
                sign = 1 if op == "add" else -1
                push((u[0] + sign * v[0], u[1] + sign * v[1]))
    return pop()


def _source(program: tuple) -> str:
    """Canonical fully parenthesized source of ``program``."""
    stack = []
    for op, arg in program:
        if op == "z":
            stack.append("z")
        elif op == "const":
            stack.append(_format_complex(arg))
        elif op in _INFIX:
            v = stack.pop()
            stack.append(f"({stack.pop()} {_INFIX[op]} {v})")
        elif op == "neg":
            stack.append(f"(-{stack.pop()})")
        elif op == "div":
            stack.append(f"({stack.pop()} / {_format_complex(arg)})")
        elif op == "pow":
            stack.append(f"({stack.pop()}^{arg})")
        elif op == "pow0":
            stack.append(f"({_source(arg)}^0)")
        else:
            stack.append(f"{op}({stack.pop()})")
    return stack.pop()


def _depth(program: tuple) -> int:
    """Levels of the expression ``program`` encodes; a leaf is one level."""
    stack = []
    for op, arg in program:
        if op in ("z", "const"):
            stack.append(1)
        elif op in _BINARY:
            v = stack.pop()
            stack.append(1 + max(stack.pop(), v))
        elif op == "pow0":
            stack.append(1 + _depth(arg))
        else:  # one operand; a denominator is a leaf below its quotient
            stack.append(1 + stack.pop())
    return stack.pop()


def _derivative(program: tuple) -> tuple:
    """Program of d/dz of ``program``, lightly simplified."""
    stack = []  # (program, derivative) of each pending operand
    for ins in program:
        op, arg = ins
        if op == "z":
            u, du = (), _ONE
        elif op in ("const", "pow0"):
            u, du = (), _ZERO
        elif op in _BINARY:
            v, dv = stack.pop()
            u, du = stack.pop()
            if op == "add":
                du = _add(du, dv)
            elif op == "sub":
                du = _sub(du, dv)
            else:
                du = _add(_mul(du, v), _mul(u, dv))
            u += v
        else:
            u, du = stack.pop()
            if op == "neg":
                du = _neg(du)
            elif op == "div":
                du += (ins,)
            elif op in _OUTER:
                du = _mul(u + _OUTER[op], du)
            elif arg > 1:  # pow; (u^1)' is u'
                outer = _mul((("const", complex(arg)),), u + (("pow", arg - 1),))
                du = _mul(outer, du)
        stack.append((u + (ins,), du))
    return stack.pop()[1]


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
        if len(self.tokens) > MAX_DEPTH and _depth(program) > MAX_DEPTH:
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
            value = _run(program, np.zeros(1, dtype=np.complex128), overflow)
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
        object.__setattr__(self, "_text", _source(program))
        object.__setattr__(self, "_derivative_expr", None)

    def __setattr__(self, name, value):
        raise AttributeError("FunctionExpression is immutable")

    def __call__(self, z):
        return evaluate(self, z)

    def derivative(self) -> "FunctionExpression":
        if self._derivative_expr is None:
            # a race builds two equal expressions; either may be kept
            object.__setattr__(self, "_derivative_expr",
                               FunctionExpression(_derivative(self.program)))
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
        values = _run(f.program, work, overflow)
    if scalar:
        return complex(values[0]), bool(overflow[0])
    return values.reshape(arr.shape), overflow.reshape(arr.shape)


def evaluate(f: FunctionExpression, z):
    """Evaluate ``f`` at ``z`` (scalar or ndarray), saturating on overflow."""
    values, _ = evaluate_with_overflow(f, z)
    return values

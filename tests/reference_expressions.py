"""Reference expression trees: one node class per operation, evaluated,
printed and differentiated by recursion.

The library parses each expression into a flat postfix program that
one walker evaluates, prints and differentiates, each under its own
table of rules (``orbitplane.expressions``); this is the earlier tree
reading of the same grammar that the tests compare the program against.
``tree_of(program)`` rebuilds the tree of a parsed program, and
``tree_evaluate_with_overflow`` evaluates a tree as the library
evaluates a program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from orbitplane.expressions import SATURATION, _format_complex


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


_BINARY_NODES = {"add": Add, "sub": Sub, "mul": Mul}


def tree_of(program: tuple) -> Node:
    """The expression tree of a postfix program."""
    stack = []
    for op, arg in program:
        if op == "z":
            node = Var()
        elif op == "const":
            node = Const(arg)
        elif op == "pow0":
            node = Pow(tree_of(arg), 0)
        elif op in _BINARY_NODES:
            right = stack.pop()
            node = _BINARY_NODES[op](stack.pop(), right)
        elif op == "neg":
            node = Neg(stack.pop())
        elif op == "div":
            node = Div(stack.pop(), Const(arg))
        elif op == "pow":
            node = Pow(stack.pop(), arg)
        else:
            node = Call(op, stack.pop())
        stack.append(node)
    (node,) = stack
    return node


def tree_evaluate_with_overflow(root: Node, z):
    """Values of the tree ``root`` at ``z`` (scalar or ndarray) and their
    overflow flags."""
    arr = np.asarray(z, dtype=np.complex128)
    work = arr.reshape(-1)
    overflow = np.zeros(work.shape, dtype=bool)
    with np.errstate(all="ignore"):
        values = root._eval(work, overflow)
    if arr.ndim == 0:
        return complex(values[0]), bool(overflow[0])
    return values.reshape(arr.shape), overflow.reshape(arr.shape)

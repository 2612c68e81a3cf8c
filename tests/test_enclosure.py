"""The enclosure interpreter against mpmath, and the exact one by hand.

``expressions._enclose`` bounds a program on rectangles with outward
rounding.  The oracle runs the same program in ``mpmath.iv`` interval
arithmetic at 120 bits, where rounding is negligible, so a float bound
that is rounded inward, or not rounded at all, or a real sin or cos that
misses an extremum inside its interval, falls inside the oracle's
interval and fails.  A hypothesis test checks that the true values, from
``mpmath.mp`` at 50 digits, at points of random rectangles lie inside the
enclosure of random programs.
"""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from orbitplane.expressions import _enclose, _exact, parse

mpmath = pytest.importorskip("mpmath")
iv, mp = mpmath.iv, mpmath.mp


def _iv_point(fn, x):
    """An interval around fn(x), from mpmath.mp at 200 bits."""
    with mp.workprec(200):
        v = fn(mp.mpf(x))
        a, b = v * (1 - mp.mpf(2) ** -150), v * (1 + mp.mpf(2) ** -150)
    return iv.mpf([min(a, b), max(a, b)])


def _iv_cosh(y):
    ends = [_iv_point(mp.cosh, e) for e in (y.a, y.b)]
    lo = 1 if y.a <= 0 <= y.b else min(e.a for e in ends)
    return iv.mpf([lo, max(e.b for e in ends)])


def _iv_sinh(y):  # increasing
    return iv.mpf([_iv_point(mp.sinh, y.a).a, _iv_point(mp.sinh, y.b).b])


def _oracle(program, z, ctx):
    """``program`` at z = (re, im) in mpmath.iv intervals or mpmath.mp points."""
    cosh, sinh = (_iv_cosh, _iv_sinh) if ctx is iv else (mp.cosh, mp.sinh)
    stack = []
    for op, arg in program:
        if op == "z":
            stack.append(z)
        elif op in ("const", "pow0"):
            c = complex(1 if op == "pow0" else arg)
            stack.append((ctx.mpf(c.real), ctx.mpf(c.imag)))
        elif op == "neg":
            x, y = stack.pop()
            stack.append((-x, -y))
        elif op in ("add", "sub"):
            (p, q), (x, y) = stack.pop(), stack.pop()
            stack.append((x + p, y + q) if op == "add" else (x - p, y - q))
        elif op == "mul":
            v = stack.pop()
            stack.append(_cmul(stack.pop(), v))
        elif op == "div":
            c = complex(arg)
            n = ctx.mpf(c.real) ** 2 + ctx.mpf(c.imag) ** 2
            stack.append(_cmul(stack.pop(), (ctx.mpf(c.real) / n,
                                             -ctx.mpf(c.imag) / n)))
        elif op == "pow":  # binary exponentiation, as the library does it
            sq, value = stack.pop(), None
            while arg:
                if arg & 1:
                    value = sq if value is None else _cmul(value, sq)
                arg >>= 1
                if arg:
                    sq = _cmul(sq, sq)
            stack.append(value)
        else:
            x, y = stack.pop()
            if op == "exp":
                e = ctx.exp(x)
                stack.append((e * ctx.cos(y), e * ctx.sin(y)))
            elif op == "sin":
                stack.append((ctx.sin(x) * cosh(y), ctx.cos(x) * sinh(y)))
            else:
                stack.append((ctx.cos(x) * cosh(y), -(ctx.sin(x) * sinh(y))))
    return stack.pop()


def _cmul(u, v):
    (x, y), (p, q) = u, v
    return (x * p - y * q, x * q + y * p)


def _holds(box, k, value):
    """Whether rectangle k of ``box`` holds the mpmath (re, im) ``value``."""
    lo_x, hi_x, lo_y, hi_y = (float(b[k]) for b in box)
    re, im = value
    if hasattr(re, "a"):  # an interval must lie inside
        return lo_x <= re.a and re.b <= hi_x and lo_y <= im.a and im.b <= hi_y
    return lo_x <= re <= hi_x and lo_y <= im <= hi_y


def _seeded_boxes(seed, count=60):
    """Rectangles around 0 and k pi / 2, thin and wide, plus huge ones."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        x = rng.randint(-8, 8) * np.pi / 2 + rng.uniform(-0.3, 0.3)
        y = rng.choice([0.0, rng.uniform(-3, 3), rng.randint(-4, 4) * np.pi / 2])
        w = rng.choice([0.0, 1e-12, rng.uniform(0, 0.2), rng.uniform(0, 4)])
        h = rng.choice([0.0, 1e-9, rng.uniform(0, 0.2), rng.uniform(0, 3)])
        rows.append((x - w * rng.random(), x + w, y - h * rng.random(), y + h))
    rows += [(1e300, 1e300, 0.0, 0.0), (-1e300, 1e300, -1.0, 1.0),
             (700.0, 720.0, 0.0, 1.0), (1e15, 1e15 + 1, -1e-3, 1e-3),
             (0.0, 0.0, 0.0, 0.0), (-1e-300, 1e-300, -1e-300, 1e-300)]
    return tuple(np.array(col) for col in zip(*rows))


PRIMITIVES = ["z", "-z", "z + (0.1 - 0.3i)", "z - 3", "z * z", "z * (2 - 0.7i)",
              "z / 3", "z / (0.7 + 1.1i)", "z^3", "z^0", "exp(z)", "sin(z)",
              "cos(z)", "sin(z) * cos(z)", "exp(-z) / 7"]


@pytest.mark.parametrize("source", PRIMITIVES)
@pytest.mark.parametrize("seed", [3, 11])
def test_enclosure_holds_the_mpmath_interval(source, seed):
    iv.prec = 120
    program = parse(source).program
    boxes = _seeded_boxes(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _enclose(program, boxes)
    wrong = []
    for k in range(boxes[0].size):
        if not np.isfinite([b[k] for b in out]).all():
            continue
        z = (iv.mpf([boxes[0][k], boxes[1][k]]), iv.mpf([boxes[2][k], boxes[3][k]]))
        if not _holds(out, k, _oracle(program, z, iv)):
            wrong.append(k)
    assert wrong == []


def test_enclosure_is_tight_on_small_boxes():
    """Outward rounding costs a few ulps, not a loose bound."""
    x = np.array([0.3, 1.5707963267948966, -2.0])
    out = _enclose(parse("sin(z)").program, (x, x, np.zeros(3), np.zeros(3)))
    width = out[1] - out[0]
    assert np.all(width > 0) and np.all(width < 1e-14)
    assert 1.0 <= out[1][1] < 1.0 + 1e-14  # sin near pi/2, times cosh 0


def test_overflow_makes_the_whole_plane():
    program = parse("exp(z) - exp(z) + 1").program
    box = (np.array([800.0, 0.0]), np.array([801.0, 1.0]), np.zeros(2), np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _enclose(program, box)
        # every operation settles, so a lone exp is not left half-infinite
        alone = _enclose(parse("exp(z)").program, box)
    for got in (out, alone):
        assert [b[0] for b in got] == [-np.inf, np.inf, -np.inf, np.inf]
        assert np.all(np.isfinite([b[1] for b in got]))


def test_division_by_tiny_constants():
    def quotient(source):
        out = _enclose(parse(source).program,
                       tuple(np.array([v]) for v in (1.0, 1.0, 0.0, 0.0)))
        return out[0][0], out[1][0]

    lo, hi = quotient("z / 1e-100")
    assert lo <= 1e100 <= hi and hi - lo < 1e86
    # |c|^2 underflows: the whole plane, never a saturated value
    assert quotient("z / 1e-200") == (-np.inf, np.inf)


def test_exact_evaluation():
    q = (Fraction(1, 2), Fraction(0))
    assert _exact(parse("z - z^3/6 + 0.25i*z^4").program, q) == (
        Fraction(23, 48), Fraction(1, 64))
    origin = (Fraction(0), Fraction(0))
    assert _exact(parse("sin(z) + cos(z) * exp(z)").program, origin) == (1, 0)
    assert _exact(parse("sin(z)").program, q) is None
    # an inexact primitive anywhere gives None, even under a zero factor;
    # one at 0 is exact, and the base of x^0 is never run
    assert _exact(parse("z + 0*sin(z)").program, q) is None
    assert _exact(parse("exp(z - z)").program, q) == (1, 0)
    assert _exact(parse("sin(z)^0").program, q) == (1, 0)
    assert _exact(parse("z / (1 + 1i)").program, (Fraction(2), Fraction(0))) == (1, -1)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_expression_property import EXPRESSIONS  # noqa: E402


@settings(max_examples=120, deadline=None)
@given(EXPRESSIONS, st.floats(-3, 3), st.floats(-3, 3),
       st.sampled_from([0.0, 1e-9, 0.01, 0.5, 2.0]), st.randoms(use_true_random=False))
def test_true_values_lie_in_the_enclosure(source, x, y, size, rng):
    program = parse(source).program
    box = tuple(np.array([v]) for v in (x, x + size, y, y + size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _enclose(program, box)
    if not np.isfinite([b[0] for b in out]).all():
        return  # the whole plane holds everything
    mp.dps = 50
    for _ in range(4):
        z = (mp.mpf(x) + size * mp.mpf(rng.random()),
             mp.mpf(y) + size * mp.mpf(rng.random()))
        assert _holds(out, 0, _oracle(program, z, mp))

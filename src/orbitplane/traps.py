"""Certified trap discs: closed discs that f provably maps into itself.

Let D = D(c, rho) and suppose |f(z) - c| <= rho on its circle.  Then
f(D) is in D by the maximum modulus principle for f - c, so every start
whose orbit enters D has a bounded orbit: it is not in I+(f).
``raster.classify_grid`` hands such discs to the orbit kernel, which
stops the starts that enter one (see ``orbits``).

Candidates come from the fixed points ``find_fixed_points`` finds in the
grid's window: attracting ones get discs about themselves, and a
parabolic one with one or two attracting directions v gets petal discs
D(p + rho v, rho) tangent at it (the Leau-Fatou flower; Milnor,
*Dynamics in One Complex Variable*, 3rd ed., section 10).  Only the proof
is trusted.  The circle is covered by arcs whose images
``expressions._enclose`` bounds with outward rounding, bisected under a
budget (Moore, *Interval Analysis*, 1966).  At a tangency |f(z) - c| = rho,
which no enclosure can decide; there exact Taylor coefficients at the
fixed point (``expressions._exact``) and a Cauchy estimate of the
remainder prove an arc instead.  A candidate that does not prove is
dropped.  This module is imported on the first grid classification, so
the rational arithmetic it needs costs nothing elsewhere.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .domains import Rect
from .expressions import (FunctionExpression, _enclose, _exact, _qmul,
                          evaluate_with_overflow)
from .orbits import ATTRACTING, _trap_fits, find_fixed_points

__all__ = ["TrapDisc", "PETAL", "certified_traps"]

PETAL = "parabolic_petal"

# Trap search: radius halvings after the start radius, circle samples of
# the quick violation check, arcs of the first enclosure round, and arcs
# enclosed per disc before it is given up.
_TRAP_HALVINGS = 8
_TRAP_SAMPLES = 256
_TRAP_ARCS = 64
_TRAP_BUDGET = 1 << 14
# A fixed point is tried as parabolic when its multiplier is this close
# to 1, after rounding it to 0 .. _SNAP_DIGITS - 1 decimals.
_PARABOLIC_TOL = 1e-6
_SNAP_DIGITS = 9
# Half-angles tried, largest first, for the arc about a tangency that the
# analytic bound proves, and radii of the Cauchy circle, in disc radii.
_TANGENT_HALF_ANGLES = tuple(2.0 ** -j for j in range(13))
_CAUCHY_RADII = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class TrapDisc:
    """A closed disc that f provably maps into itself.

    ``kind`` is ``attracting`` (centered at an attracting fixed point) or
    ``parabolic_petal`` (tangent at a parabolic fixed point).  ``radius``
    is the certified radius rounded down, so the closed disc it names
    lies in the certified one.
    """

    center: complex
    radius: float
    kind: str


# A parabolic fixed point proved exactly: ``point`` (a float); k, the
# number of attracting directions (f(z) - z vanishes to order k + 1 there);
# the exact Taylor coefficients a[j] = f^(j)(point) / j! for j <= 4 as
# (re, im) Fraction pairs; and the directions v, with a[k + 1] v^k < 0.
_Tangency = namedtuple("_Tangency", "point k a directions")


@functools.lru_cache(maxsize=32)
def certified_traps(f: FunctionExpression, window: Rect,
                    escape_radius: float) -> tuple[TrapDisc, ...]:
    """Trap discs proved for f about the fixed points f has in ``window``.

    Each disc starts at half the window's shorter side and halves its
    radius up to ``_TRAP_HALVINGS`` times until it certifies; discs that
    reach escape_radius / 100, which the orbit kernel would not use, are
    not tried.  Attracting fixed points
    get discs about themselves; a parabolic one with one or two attracting
    directions v gets a petal disc D(p + rho v, rho) per direction.
    """
    start = min(window.x_max - window.x_min, window.y_max - window.y_min) / 2
    candidates = []  # (fixed point, direction of the center, _Tangency or None)
    with np.errstate(all="ignore"):
        for record in find_fixed_points(f, window):
            if abs(record.multiplier - 1) <= _PARABOLIC_TOL:
                tangency = _parabolic(f, record.location)
                for v in (() if tangency is None else tangency.directions):
                    candidates.append((tangency.point, v, tangency))
            elif abs(record.multiplier) < 1:
                candidates.append((record.location, 0, None))
        traps = []
        for p, v, tangency in candidates:
            kind = ATTRACTING if tangency is None else PETAL
            for j in range(_TRAP_HALVINGS + 1):
                rho = start / 2 ** j
                c = p + rho * v
                # a petal passes through p exactly, whatever c rounded to
                rho2 = Fraction(rho) ** 2 if tangency is None else _dist2(c, p)
                try:
                    radius = _sqrt_below(rho2)
                    proved = (_trap_fits(c, radius, escape_radius)
                              and _maps_into_itself(f, c, rho2, tangency))
                except OverflowError:  # a rational too large for a float
                    proved = False
                if proved:
                    traps.append(TrapDisc(c, radius, kind))
                    break
    return tuple(traps)


def _dist2(a: complex, b: complex) -> Fraction:
    """|a - b|^2 of two float complex numbers, exactly."""
    return ((Fraction(a.real) - Fraction(b.real)) ** 2
            + (Fraction(a.imag) - Fraction(b.imag)) ** 2)


def _parabolic(f: FunctionExpression, p: complex) -> Optional[_Tangency]:
    """The parabolic fixed point near the Newton root p, proved.

    p is rounded to 0, 1, 2, ... decimals, and the first rounding q that
    ``_tangency`` proves is the point: Newton's root of sin z is about
    -1.4e-7, and q = 0.
    """
    for digits in range(_SNAP_DIGITS):
        tangency = _tangency(f, complex(round(p.real, digits),
                                        round(p.imag, digits)))
        if tangency is not None:
            return tangency
    return None


def _tangency(f: FunctionExpression, q: complex) -> Optional[_Tangency]:
    """q as a parabolic fixed point of f, proved in rational arithmetic.

    f(q) = q and f'(q) = 1 must hold exactly (``expressions._exact``).  q
    has one attracting direction when a_2 != 0 and two when a_2 = 0 and
    a_3 is real and nonzero; otherwise (k >= 3, where the tangent disc is
    wider than a petal, or a complex a_3, whose directions are not exact)
    there is no tangency to prove and the result is None.
    """
    z = (Fraction(q.real), Fraction(q.imag))
    a, g = [], f
    for j in range(5):
        value = _exact(g.program, z)
        if value is None or (j == 0 and value != z) or (j == 1 and value != (1, 0)):
            return None
        a.append((value[0] / math.factorial(j), value[1] / math.factorial(j)))
        g = g.derivative()
    if any(a[2]):
        a2 = complex(float(a[2][0]), float(a[2][1]))
        return _Tangency(q, 1, a, (-a2.conjugate() / abs(a2),))
    if a[3][1] == 0 and a[3][0] != 0:
        v = 1.0 if a[3][0] < 0 else 1j
        return _Tangency(q, 2, a, (v, -v))
    return None


def _maps_into_itself(f: FunctionExpression, c: complex, rho2: Fraction,
                      tangency: Optional[_Tangency] = None) -> bool:
    """Whether |f(z) - c| <= rho on the whole circle |z - c| = rho, proved,
    where rho^2 is the rational ``rho2``.

    A sampled violation ends the attempt at once.  Otherwise the circle is
    cut into arcs, each arc is enclosed in a rectangle and its image in
    another (``_enclose``), and every arc whose image may leave the disc
    is bisected, until none is left or ``_TRAP_BUDGET`` arcs were spent.
    With ``tangency``, a parabolic fixed point that ``_tangency`` proved,
    the circle must pass exactly through that point: there |f(z) - c| = rho
    and no enclosure can decide, so ``_tangent_arc`` proves the arc about it.
    """
    rho = math.sqrt(rho2)
    theta = np.arange(_TRAP_SAMPLES) * (2 * np.pi / _TRAP_SAMPLES)
    w, overflow = evaluate_with_overflow(f, c + rho * np.exp(1j * theta))
    if overflow.any() or np.any(np.abs(w - c) > rho * (1 + 1e-9)):
        return False
    first, span = 0.0, 2 * np.pi
    if tangency is not None:
        half = _tangent_arc(f, c, rho2, tangency)
        if half is None:
            return False
        # overlap the proved arc by far more than the error of its angle
        half *= 1 - 2.0 ** -10
        p = tangency.point
        first = math.atan2(p.imag - c.imag, p.real - c.real) + half
        span -= 2 * half
    edges = first + span * np.arange(_TRAP_ARCS + 1) / _TRAP_ARCS
    t0, t1 = edges[:-1], edges[1:]
    limit = math.nextafter(float(rho2), -math.inf)
    spent = 0
    while t0.size:
        spent += t0.size
        if spent > _TRAP_BUDGET:
            return False
        image = _enclose(f.program, _arc_boxes(c, rho, t0, t1))
        unproved = _abs2_above(image, c) > limit
        t0, t1 = t0[unproved], t1[unproved]
        mid = 0.5 * (t0 + t1)
        t0, t1 = np.concatenate([t0, mid]), np.concatenate([mid, t1])
    return True


def _arc_boxes(c: complex, rho: float, t0: np.ndarray, t1: np.ndarray) -> tuple:
    """Rectangles holding the arcs c + rho e^{it}, t0 <= t <= t1 <= t0 + pi.

    Such an arc lies within rho (1 - cos((t1 - t0) / 2)) <= rho (t1 - t0)^2
    / 8 of its chord, and the float endpoints and rho lie within
    2^-40 (|c| + rho) of the exact ones.
    """
    x0, x1 = c.real + rho * np.cos(t0), c.real + rho * np.cos(t1)
    y0, y1 = c.imag + rho * np.sin(t0), c.imag + rho * np.sin(t1)
    pad = rho * (t1 - t0) ** 2 / 8 + 2.0 ** -40 * (abs(c) + rho)
    return (np.minimum(x0, x1) - pad, np.maximum(x0, x1) + pad,
            np.minimum(y0, y1) - pad, np.maximum(y0, y1) + pad)


def _abs2_above(box: tuple, c: complex) -> np.ndarray:
    """Upper bounds of |w - c|^2 over each rectangle of ``box``."""
    x_lo, x_hi, y_lo, y_hi = box
    def up(v):
        return np.nextafter(v, np.inf)
    x = up(np.maximum(np.abs(x_lo - c.real), np.abs(x_hi - c.real)))
    y = up(np.maximum(np.abs(y_lo - c.imag), np.abs(y_hi - c.imag)))
    return up(up(x * x) + up(y * y))


def _sqrt_near(q: Fraction) -> float:
    """sqrt(q) within a few ulps for any rational q >= 0, even where q
    itself under- or overflows a float; OverflowError above the floats."""
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(q / Fraction(4) ** e), e)


def _sqrt_below(q: Fraction) -> float:
    """A float near sqrt(q) whose square is at most q."""
    s = _sqrt_near(q)
    while Fraction(s) ** 2 > q:
        s = math.nextafter(s, 0.0)
    return s


def _sqrt_above(q: Fraction) -> Fraction:
    """A float near sqrt(q), as a Fraction, whose square is at least q."""
    s = _sqrt_near(q)
    while Fraction(s) ** 2 < q:
        s = math.nextafter(s, math.inf)
    return Fraction(s)


def _tangent_arc(f: FunctionExpression, c: complex, rho2: Fraction,
                 tangency: _Tangency) -> Optional[float]:
    """Half-angle phi0 of the arc about the tangency that an analytic bound
    proves maps into the disc, or None.

    Write p for the tangency point, d = c - p = rho v and, on the circle,
    z = c - rho v e^{i phi}, w = z - p, r = |w| <= rho |phi|.  With
    R = f(z) - z = sum_{j > k} a_j w^j,
    rho^2 - |f(z) - c|^2 = 2 rho Re(conj(v) e^{-i phi} R) - |R|^2, and
    e^{-i phi} w^2 = -r^2 v^2, e^{-i phi} w^3 = i r^3 v^3 e^{i phi / 2}
    sgn(phi), e^{-i phi} w^4 = r^4 v^4 e^{i phi}.  So
    k = 1: the a_2 term is exactly -2 Re(a_2 d) r^2;
    k = 2: the a_3 term is exactly -(a_3 d^2 / rho^2) r^4, with a_3 d^2
    real and negative, and the a_4 term is at least
    (2 Re(a_4 d^3) / rho^2 - 2 rho |a_4| phi0) r^4.
    The tail T = sum_{j > 2k} a_j w^j obeys the Cauchy estimates
    |a_j| <= M / delta^j, M an enclosure of max |f(z) - z| on
    |z - p| = delta, so |T| <= tau r^(2k) with
    tau = M r0 / (delta^(2k+1) (1 - r0 / delta)) for r <= r0 < delta.
    Every quantity but M, rho and |a_j| is rational, and those three are
    rounded up, so the lower bound of rho^2 - |f(z) - c|^2 / r^(2k) is
    exact arithmetic on Fractions.
    """
    p, k, a = tangency.point, tangency.k, tangency.a
    d = (Fraction(c.real) - Fraction(p.real), Fraction(c.imag) - Fraction(p.imag))
    if d[0] ** 2 + d[1] ** 2 != rho2:
        return None
    d2 = _qmul(d, d)
    if k == 1:
        lead = -2 * _qmul(a[2], d)[0]
    else:
        a3d2 = _qmul(a[3], d2)
        if a3d2[1] != 0 or a3d2[0] >= 0:
            return None
        lead = (-a3d2[0] + 2 * _qmul(a[4], _qmul(d2, d))[0]) / rho2
    if lead <= 0:
        return None
    rho_hi = _sqrt_above(rho2)
    size = [_sqrt_above(re * re + im * im) for re, im in a]
    order = 2 * k + 1
    tail_program = f.program + (("z", None), ("sub", None))
    rho = float(rho_hi)
    edges = np.arange(4 * _TRAP_ARCS + 1) * (2 * np.pi / (4 * _TRAP_ARCS))
    best = None
    for factor in _CAUCHY_RADII:
        delta = factor * rho
        boxes = _arc_boxes(p, delta, edges[:-1], edges[1:])
        m2 = float(np.max(_abs2_above(_enclose(tail_program, boxes), 0j)))
        if not math.isfinite(m2):
            continue
        m, delta = _sqrt_above(Fraction(m2)), Fraction(delta)
        for half in _TANGENT_HALF_ANGLES:
            if best is not None and half <= best:
                break
            r0 = rho_hi * Fraction(half)
            if r0 >= delta:
                continue
            tau = m * r0 / (delta ** order * (1 - r0 / delta))
            if k == 1:
                slack = (lead - 2 * rho_hi * tau
                         - r0 ** 2 * (size[2] + tau) ** 2)
            else:
                slack = (lead - 2 * rho_hi * size[4] * Fraction(half)
                         - 2 * rho_hi * tau
                         - r0 ** 2 * (size[3] + (size[4] + tau) * r0) ** 2)
            if slack > 0:
                best = half
                break
    return best

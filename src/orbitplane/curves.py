"""Sampled closed plane curves: images under a map, refinement, winding numbers.

A :class:`SampledCurve` is an ordered finite sampling of a closed curve,
stored without the duplicate endpoint; the wrap-around segment is
implicit.  When the sampling came from a parameterized source (a domain
boundary, or its image under a function) the curve carries the parameter
values and a vectorized ``source`` callable, which is what makes honest
local refinement possible: new samples are taken on the true curve, not
interpolated from old ones.

:func:`image_curve` is a plain map: it maps the samples and composes the
source with the function, and refines nothing; an image that leaves the
double range is refused, not kept as saturated points.  All refinement is
:func:`refine`: it bisects the segments a predicate flags and says why
it stopped (``converged``, ``budget``, ``rounds`` or ``stalled``).  Its
two predicates are the winding aliasing test here and the clearance
test of the surrounding check.

Winding numbers come from one kernel, :func:`winding_numbers`, for all
probes of a call.  A segment aliases a probe when the probe lies inside
the segment's Thales disc (it sees the segment under an angle above
pi/2); only segments whose disc reaches the probes' bounding box are
tested.  A probe that no segment aliases and no sample touches gets the
signed crossing count of the polyline, with the straddling segments
found once per lattice row; any other probe is refined on its own first.
Huge curves and probes are first scaled by a power of two, so that no
product overflows; that leaves every sign the kernel reads unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AliasingUnresolved, CurveTooClose
from .expressions import FunctionExpression, evaluate_with_overflow

__all__ = ["SampledCurve", "image_curve", "refine", "winding_number",
           "winding_numbers"]

# Growth of a segment's Thales disc, relative to the magnitude of the
# coordinates, that covers the rounding of the winding kernel's filter.
_DISC_RTOL = 1e-12

# Point budget: most samples a refined curve or a sampled boundary, and
# most points a probe lattice, may have.
_MAX_POINTS = 200_000

# Most elements in one segment-by-probe block of the winding kernel.
_BLOCK = 1 << 16

# Coordinates above this are scaled down by a power of two before differences
# are squared or multiplied (Blue, ACM TOMS 4, 1978); smaller ones are left as is.
_HUGE = 2.0 ** 500


@dataclass(frozen=True)
class SampledCurve:
    """Ordered sampling of a closed plane curve.

    ``points`` are complex samples; the segment from the last point back
    to the first is implied.  ``params`` are parameter values on the
    parent curve (same length as ``points``, increasing, in [0, 1)) and
    ``source`` maps parameter arrays to points on the parent curve.  Both
    are optional for synthetic polylines, which refinement treats as
    their own source.
    """

    points: np.ndarray
    params: Optional[np.ndarray] = None
    source: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a curve needs at least two samples")
        if self.params is not None:
            prm = np.asarray(self.params, dtype=np.float64)
            if prm.shape != pts.shape:
                raise ValueError("params must match points in length")
            object.__setattr__(self, "params", prm)
        if np.any(pts[1:] == pts[:-1]):
            raise ValueError("consecutive curve points must be distinct")
        if pts[0] == pts[-1]:
            raise ValueError("closed curves are stored without the duplicate endpoint")

    def __len__(self) -> int:
        return self.points.size

    def segment_starts(self) -> np.ndarray:
        return self.points

    def segment_ends(self) -> np.ndarray:
        return np.roll(self.points, -1)


def _pow2_scale(*arrays) -> float:
    """A power of two that brings every coordinate in ``arrays`` below
    ``_HUGE``; exactly 1.0 when none exceeds it."""
    m = np.abs(np.concatenate(arrays).view(np.float64)).max(initial=0.0)
    return 1.0 if m <= _HUGE else math.ldexp(1.0, 500 - math.frexp(m)[1])


def _as_polyline(curve: SampledCurve) -> SampledCurve:
    """``curve`` as its own source: the closed polyline through its points.

    Bisecting on it keeps the traced path while halving its steps.  A
    curve without parameters gets equally spaced ones in [0, 1).
    """
    t = curve.params
    if t is None:
        t = np.arange(len(curve)) / len(curve)
    tt = np.concatenate([t[-1:] - 1.0, t, t[:1] + 1.0])
    pp = np.concatenate([curve.points[-1:], curve.points, curve.points[:1]])

    def source(u):
        u = np.asarray(u, dtype=np.float64) % 1.0
        return np.interp(u, tt, pp.real) + 1j * np.interp(u, tt, pp.imag)

    return SampledCurve(curve.points, t, source)


def _dedupe(points: np.ndarray, params: np.ndarray, source) -> SampledCurve:
    """Drop consecutive duplicate points (flat spots of the source)."""
    keep = np.ones(points.size, dtype=bool)
    keep[1:] = points[1:] != points[:-1]
    if points[keep].size > 1 and points[keep][-1] == points[keep][0]:
        keep[np.nonzero(keep)[0][-1]] = False
    if points[keep].size < 2:
        raise ValueError("curve image collapsed to a point")
    return SampledCurve(points[keep], params[keep], source)


def refine(curve: SampledCurve, bad: Callable[[SampledCurve], np.ndarray],
           max_points: int, max_rounds: int | None = None
           ) -> tuple[SampledCurve, str]:
    """Bisect, on the source curve, the segments that ``bad`` flags.

    ``bad(curve)`` returns the indices of the segments still to bisect
    (segment ``i`` runs from point ``i`` to the next, wrapping).  Each
    round samples the source at their parameter midpoints and drops
    consecutive duplicates; a curve without parameters or source is
    refined as its own polyline.  Returns the curve and why it stopped:

    ``"converged"``  ``bad`` flagged no segment;
    ``"budget"``     the next round would pass ``max_points`` points;
    ``"rounds"``     ``max_rounds`` rounds have run;
    ``"stalled"``    a round added no new point (its result is dropped).

    The last call of ``bad`` is always on the returned curve.
    """
    if curve.params is None or curve.source is None:
        curve = _as_polyline(curve)
    work, rounds = curve, 0
    while True:
        segments = bad(work)
        if segments.size == 0:
            return work, "converged"
        if max_rounds is not None and rounds >= max_rounds:
            return work, "rounds"
        if len(work) + segments.size > max_points:
            return work, "budget"
        t, source = work.params, work.source
        t0 = t[segments]
        t1 = np.where(segments + 1 < t.size, t[(segments + 1) % t.size], t[0] + 1.0)
        t_new = ((t0 + t1) / 2.0) % 1.0
        p_new = np.asarray(source(t_new), dtype=np.complex128)
        t_all = np.concatenate([t, t_new])
        order = np.argsort(t_all, kind="stable")
        refined = _dedupe(np.concatenate([work.points, p_new])[order],
                          t_all[order], source)
        if len(refined) == len(work):
            return work, "stalled"
        work, rounds = refined, rounds + 1


def image_curve(f: FunctionExpression, curve: SampledCurve) -> SampledCurve:
    """Image of a parameterized curve under ``f``.

    The samples are mapped and the source is composed with ``f``, so
    that later refinement samples the true image; consecutive samples
    with equal images are merged.  Raises ValueError when ``f`` overflows
    at any sample, whether mapped here or by the composed source.
    """
    if curve.params is None:
        raise ValueError("image_curve requires source parameters")
    src = curve.source or _as_polyline(curve).source

    def composed(t):
        z = np.asarray(src(t), dtype=np.complex128)
        values, overflow = evaluate_with_overflow(f, z)
        if overflow.any():
            where = complex(z[overflow][0])
            raise ValueError(f"f overflows at curve point {where}: "
                             "its image leaves the double range")
        return values

    return _dedupe(composed(curve.params), curve.params, composed)


def _hits(curve: SampledCurve, probes: np.ndarray, min_clearance: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The aliasing and clearance tests of every probe against the curve.

    Returns ``(close, segments, owners)``: ``close[k]`` says a sample lies
    within ``min_clearance`` of probe ``k``, and segment ``segments[j]``
    aliases probe ``owners[j]``.  A segment aliases a probe w inside its
    Thales disc (the disc on the segment as diameter), where
    ``Re((p_i - w) * conj(p_{i+1} - w)) < 0`` and w sees the segment
    under an angle above pi/2.  Segments come in increasing order for
    each probe.

    Only segments whose disc meets the probes' bounding box, once grown
    by twice the clearance and by ``_DISC_RTOL`` of the coordinates'
    magnitude, are tested: a sample within the clearance of a probe puts
    the probe that near the disc, and the growth covers the rounding of
    this filter, so it drops no segment the tests would flag.
    """
    starts, ends = curve.segment_starts(), curve.segment_ends()
    s = _pow2_scale(starts, probes)
    if s != 1.0:
        starts, ends, probes = starts * s, ends * s, probes * s
        min_clearance *= s
    mid = (starts + ends) / 2
    radius = np.abs(ends - starts) / 2
    x0, x1 = probes.real.min(), probes.real.max()
    y0, y1 = probes.imag.min(), probes.imag.max()
    dx = np.maximum(np.maximum(x0 - mid.real, mid.real - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - mid.imag, mid.imag - y1), 0.0)
    scale = (np.abs(mid.real) + np.abs(mid.imag) + radius
             + max(abs(x0), abs(x1), abs(y0), abs(y1)))
    reach = radius + 2 * min_clearance + _DISC_RTOL * scale
    near = np.nonzero(np.hypot(dx, dy) <= reach)[0]

    close = np.zeros(probes.size, dtype=bool)
    segments, owners = [near[:0]], [near[:0]]
    step = max(1, _BLOCK // probes.size)
    for lo in range(0, near.size, step):
        block = near[lo:lo + step]
        rel_start = starts[block, None] - probes
        rel_end = ends[block, None] - probes
        close |= np.any(np.abs(rel_start) < min_clearance, axis=0)
        row, col = np.nonzero((rel_start * np.conj(rel_end)).real < 0)
        segments.append(block[row])
        owners.append(col)
    return close, np.concatenate(segments), np.concatenate(owners)


def _crossings(curve: SampledCurve, probes: np.ndarray) -> np.ndarray:
    """Winding number of the sampled polyline about each probe.

    A signed crossing count (Hormann & Agathos, "The point in polygon
    problem for arbitrary polygons", 2001): a segment running upward
    past the probe's ordinate, with the probe on its left, counts +1; one
    running downward, with the probe on its right, counts -1.  A segment
    counts at its lower end but not its upper one.  Probes sharing an
    ordinate (a lattice row) share the search for straddling segments.
    Exact for probes that no segment aliases and no sample touches.
    """
    starts, ends = curve.segment_starts(), curve.segment_ends()
    s = _pow2_scale(starts, probes)
    if s != 1.0:
        starts, ends, probes = starts * s, ends * s, probes * s
    ordinates, row_of = np.unique(probes.imag, return_inverse=True)
    wn = np.zeros(probes.size, dtype=np.int64)
    for row, y in enumerate(ordinates):
        upward = (starts.imag <= y) & (ends.imag > y)
        downward = (ends.imag <= y) & (starts.imag > y)
        straddling = np.nonzero(upward | downward)[0]
        members = np.nonzero(row_of == row)[0]
        w = probes[members]
        step = max(1, _BLOCK // members.size)
        for lo in range(0, straddling.size, step):
            block = straddling[lo:lo + step]
            rel_start = starts[block, None] - w
            rel_end = ends[block, None] - w
            cross = rel_start.real * rel_end.imag - rel_start.imag * rel_end.real
            up = upward[block, None]
            wn[members] += (np.count_nonzero(up & (cross > 0), axis=0)
                            - np.count_nonzero(~up & (cross < 0), axis=0))
    return wn


def winding_numbers(curve: SampledCurve, probes,
                    min_clearance: float = 1e-9,
                    max_points: int = _MAX_POINTS) -> np.ndarray:
    """Winding numbers of a closed curve about each of ``probes``.

    A probe is clean when no sample lies within ``min_clearance`` of it
    and no segment subtends an angle above pi/2 at it; its winding
    number is then the signed crossing count of the sampled polyline.
    Every other probe, one at a time in probe order, has the segments
    that alias it bisected by :func:`refine` until none does, and gets
    the crossing count of the refined curve.  Raises
    :class:`CurveTooClose` at the first probe a sample comes within
    ``min_clearance`` of, with the winding numbers of the probes before
    it attached as ``partial``, and :class:`AliasingUnresolved` if
    refinement cannot settle within the point budget or stops adding
    points.
    """
    probes = np.atleast_1d(np.asarray(probes, dtype=np.complex128))
    flagged, _, owners = _hits(curve, probes, min_clearance)
    flagged[owners] = True
    wn = _crossings(curve, probes)
    for k in np.nonzero(flagged)[0]:
        w = probes[k:k + 1]

        def aliased(c: SampledCurve) -> np.ndarray:
            close, segments, _ = _hits(c, w, min_clearance)
            if close[0]:
                raise CurveTooClose(
                    f"curve sample within {min_clearance} of probe {complex(w[0])}",
                    partial=wn[:k].copy())
            return segments

        work, stop = refine(curve, aliased, max_points)
        if stop != "converged":
            raise AliasingUnresolved(
                f"aliasing persists ({stop}) at {len(work)} points "
                f"(budget {max_points})")
        wn[k] = _crossings(work, w)[0]
    return wn


def winding_number(curve: SampledCurve, w: complex,
                   min_clearance: float = 1e-9,
                   max_points: int = _MAX_POINTS) -> int:
    """Winding number of a closed curve about ``w``: :func:`winding_numbers`
    on a batch of one probe."""
    return int(winding_numbers(curve, w, min_clearance, max_points)[0])

"""Sampled plane curves: images under a map, refinement, winding numbers.

A :class:`SampledCurve` is an ordered finite sampling of a curve.  Closed
curves are stored without the duplicate endpoint; the wrap-around segment
is implicit.  When the sampling came from a parameterized source (a domain
boundary, or its image under a function) the curve carries the parameter
values and a vectorized ``source`` callable, which is what makes honest
local refinement possible: new samples are taken on the true curve, not
interpolated from old ones.

All refinement is :func:`refine`: it bisects the segments a predicate
flags and says why it stopped (``converged``, ``budget``, ``rounds`` or
``stalled``).  The image ``max_step`` test, the winding aliasing test and
the surrounding clearance test are its predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AliasingUnresolved, CurveTooClose, RefinementBudgetExceeded
from .expressions import FunctionExpression, evaluate

__all__ = ["SampledCurve", "image_curve", "refine", "winding_number"]

# A single argument increment above this is treated as aliasing and the
# segment is refined before the winding sum is trusted.
_ALIAS_THRESHOLD = np.pi / 2

# Residual of the winding sum after rounding must stay below this.
_ROUND_RESIDUAL = 0.05


@dataclass(frozen=True)
class SampledCurve:
    """Ordered sampling of a plane curve.

    ``points`` are complex samples; for ``closed`` curves the segment from
    the last point back to the first is implied.  ``params`` are parameter
    values on the parent curve (same length as ``points``, increasing,
    in [0, 1) for closed boundaries) and ``source`` maps parameter arrays
    to points on the parent curve.  Both are optional for synthetic
    polylines, which refinement treats as their own source.
    """

    points: np.ndarray
    closed: bool
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
        seg = np.diff(pts)
        if np.any(seg == 0):
            raise ValueError("consecutive curve points must be distinct")
        if self.closed and pts[0] == pts[-1]:
            raise ValueError("closed curves are stored without the duplicate endpoint")

    def __len__(self) -> int:
        return self.points.size

    def segment_starts(self) -> np.ndarray:
        return self.points

    def segment_ends(self) -> np.ndarray:
        if self.closed:
            return np.roll(self.points, -1)
        return self.points[1:]

    def reversed(self) -> "SampledCurve":
        pts = self.points[::-1].copy()
        if self.params is None:
            return SampledCurve(pts, self.closed, None, None)
        t = self.params
        src = self.source
        if self.closed:
            rev_t = (1.0 - t[::-1]) % 1.0
            shift = int(np.argmin(rev_t))
            rev_t = np.roll(rev_t, -shift)
            pts = np.roll(pts, -shift)
            rev_source = None if src is None else (
                lambda u: src((1.0 - np.asarray(u)) % 1.0))
        else:
            lo, hi = t[0], t[-1]
            rev_t = (lo + hi) - t[::-1]
            rev_source = None if src is None else (
                lambda u: src((lo + hi) - np.asarray(u)))
        return SampledCurve(pts, self.closed, rev_t, rev_source)

    def translated(self, offset: complex) -> "SampledCurve":
        src = self.source
        new_source = None if src is None else (lambda t: src(t) + offset)
        return SampledCurve(self.points + offset, self.closed, self.params, new_source)


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

    return SampledCurve(curve.points, True, t, source)


def _dedupe_closed(points: np.ndarray, params: np.ndarray, source) -> SampledCurve:
    """Drop consecutive duplicate points (flat spots of the source)."""
    keep = np.ones(points.size, dtype=bool)
    keep[1:] = points[1:] != points[:-1]
    if points[keep].size > 1 and points[keep][-1] == points[keep][0]:
        keep[np.nonzero(keep)[0][-1]] = False
    if points[keep].size < 2:
        raise ValueError("curve image collapsed to a point")
    return SampledCurve(points[keep], True, params[keep], source)


def refine(curve: SampledCurve, bad: Callable[[SampledCurve], np.ndarray],
           max_points: int, max_rounds: int | None = None
           ) -> tuple[SampledCurve, str]:
    """Bisect, on the source curve, the segments that ``bad`` flags.

    ``bad(curve)`` returns the indices of the segments still to bisect
    (segment ``i`` runs from point ``i`` to the next, wrapping).  Each
    round samples the source at their parameter midpoints and drops
    consecutive duplicates; a closed curve without parameters or source
    is refined as its own polyline.  Returns the curve and why it stopped:

    ``"converged"``  ``bad`` flagged no segment;
    ``"budget"``     the next round would pass ``max_points`` points;
    ``"rounds"``     ``max_rounds`` rounds have run;
    ``"stalled"``    a round added no new point (its result is dropped).
    """
    if not curve.closed:
        raise ValueError("refine requires a closed curve")
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
        refined = _dedupe_closed(np.concatenate([work.points, p_new])[order],
                                 t_all[order], source)
        if len(refined) == len(work):
            return work, "stalled"
        work, rounds = refined, rounds + 1


def image_curve(f: FunctionExpression, curve: SampledCurve,
                max_step: float | None = None,
                max_points: int = 100_000) -> SampledCurve:
    """Image of a closed parameterized curve under ``f``.

    The image is refined on the *source* curve until consecutive image
    points are within ``max_step`` of each other (``None`` skips the
    distance refinement; the winding computation refines on demand
    anyway).  Raises :class:`RefinementBudgetExceeded` with the partial
    curve attached if refinement stops short of that, because
    ``max_points`` was hit or a round added no new point.
    """
    if not curve.closed:
        raise ValueError("image_curve requires a closed curve")
    if curve.params is None:
        raise ValueError("image_curve requires source parameters")

    src = curve.source or _as_polyline(curve).source
    composed = lambda t: evaluate(f, np.asarray(src(t), dtype=np.complex128))

    points = np.asarray(composed(curve.params), dtype=np.complex128)
    result = _dedupe_closed(points, curve.params, composed)
    if max_step is None:
        return result
    result, stop = refine(
        result, lambda c: np.nonzero(
            np.abs(c.segment_ends() - c.segment_starts()) > max_step)[0],
        max_points)
    if stop != "converged":
        raise RefinementBudgetExceeded(
            f"image refinement stopped ({stop}) at {len(result)} points "
            f"(budget {max_points})", partial=result)
    return result


def winding_number(curve: SampledCurve, w: complex,
                   min_clearance: float = 1e-9,
                   max_points: int = 200_000) -> int:
    """Winding number of a closed curve about ``w``.

    Argument increments between consecutive samples are taken in
    (-pi, pi].  Any increment above pi/2 is treated as aliasing and the
    segment is bisected by :func:`refine` until all increments are
    small; the rounded sum is then exact for the sampled path.  Raises
    :class:`CurveTooClose` if any sample comes within ``min_clearance``
    of ``w``, and :class:`AliasingUnresolved` if refinement cannot settle
    within the point budget or stops adding points.
    """
    if not curve.closed:
        raise ValueError("winding_number requires a closed curve")
    inc = None

    def aliased(c: SampledCurve) -> np.ndarray:
        nonlocal inc
        rel = c.points - w
        if np.min(np.abs(rel)) < min_clearance:
            raise CurveTooClose(
                f"curve sample within {min_clearance} of probe {w}")
        angles = np.angle(rel)
        inc = np.diff(np.concatenate([angles, angles[:1]]))
        inc = (inc + np.pi) % (2 * np.pi) - np.pi  # wrap to [-pi, pi)
        return np.nonzero(np.abs(inc) > _ALIAS_THRESHOLD)[0]

    work, stop = refine(curve, aliased, max_points)
    if stop != "converged":
        raise AliasingUnresolved(
            f"aliasing persists ({stop}) at {len(work)} points "
            f"(budget {max_points})")
    total = float(np.sum(inc)) / (2 * np.pi)
    wn = int(round(total))
    if abs(total - wn) >= _ROUND_RESIDUAL:
        raise AliasingUnresolved(
            f"winding residual {abs(total - wn):.3f} after refinement")
    return wn

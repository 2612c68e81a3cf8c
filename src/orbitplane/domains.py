"""Bounded, simply connected plane regions built from discs and rectangles.

A domain is one of :class:`Disc`, :class:`Rect` or :class:`RectUnion`.
A rectangle union is validated by tracing its outer boundary on the
irregular grid induced by the member coordinates: every grid edge between
a cell of the union and a cell outside it is directed with the union on
its left.  The union is accepted exactly when these edges form a single
closed loop that passes each vertex once.  That is enough: such a loop
is a simple closed polygon, which by the Jordan curve theorem bounds one
simply connected domain, the union's interior; it is the property the
surrounding checks rely on.  Any other union fails the trace, since a
vertex with two outgoing edges is a pinch point and a second loop bounds
a second component or a hole.  The loop, with collinear runs merged, is
the exact counterclockwise rectilinear boundary polygon.

A rectangle is a union of one member, and one rule measures both: every
edge is axis-parallel, so its nearest point is the query point clipped
into the edge's box (:func:`_edge_distance`), at distance exactly 0 on
the boundary.  The open domain is the closure minus those points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .curves import _MAX_POINTS, SampledCurve, _pow2_scale
from .errors import DegenerateDomain

__all__ = [
    "Disc",
    "Rect",
    "RectUnion",
    "DomainSpec",
    "boundary",
    "clearance",
    "contains",
    "contains_closure",
    "inradius_about",
    "diameter",
    "interior_point",
]

# Rounding allowance, relative to the coordinates' magnitude, by which
# _curve_distance lowers its per-segment distance bounds.
_DISTANCE_RTOL = 1e-12


@dataclass(frozen=True)
class Rect:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    label: str = ""

    def __post_init__(self):
        vals = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise DegenerateDomain("rectangle bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DegenerateDomain("rectangle bounds must satisfy min < max")
        width, height = self.x_max - self.x_min, self.y_max - self.y_min
        if not (math.isfinite(width) and math.isfinite(height)):
            raise DegenerateDomain("rectangle width and height must be finite")

    @property
    def rects(self) -> tuple[Rect, ...]:
        return (self,)

    def bounding_box(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.x_max, self.y_min, self.y_max)

    def vertices(self) -> np.ndarray:
        """Counterclockwise corner list."""
        return np.array([
            complex(self.x_min, self.y_min),
            complex(self.x_max, self.y_min),
            complex(self.x_max, self.y_max),
            complex(self.x_min, self.y_max),
        ])


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DegenerateDomain("disc radius must be positive and finite")
        c = complex(self.center)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise DegenerateDomain("disc center must be finite")
        object.__setattr__(self, "center", c)

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


@dataclass(frozen=True)
class RectUnion:
    """Union of closed rectangles, overlapping in any pattern, whose outer
    boundary is one simple loop; any other union is refused (see above)."""

    rects: tuple[Rect, ...]
    label: str = ""
    _polygon: tuple[complex, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        rects = tuple(self.rects)
        if not rects:
            raise DegenerateDomain("rectangle union needs at least one member")
        object.__setattr__(self, "rects", rects)
        Rect(*self.bounding_box())  # refuses a bounding box too wide
        poly = _trace_outer_polygon(rects)
        object.__setattr__(self, "_polygon", tuple(poly))

    def bounding_box(self) -> tuple[float, float, float, float]:
        return (
            min(r.x_min for r in self.rects),
            max(r.x_max for r in self.rects),
            min(r.y_min for r in self.rects),
            max(r.y_max for r in self.rects),
        )

    def vertices(self) -> np.ndarray:
        """Outer boundary polygon, counterclockwise, minimal vertex list."""
        return np.array(self._polygon)


DomainSpec = Union[Disc, Rect, RectUnion]


# ---------------------------------------------------------------------------
# Rectangle-union validation and outer boundary tracing
# ---------------------------------------------------------------------------

def _trace_outer_polygon(rects: tuple[Rect, ...]) -> list[complex]:
    xs = sorted({v for r in rects for v in (r.x_min, r.x_max)})
    ys = sorted({v for r in rects for v in (r.y_min, r.y_max)})
    nx, ny = len(xs) - 1, len(ys) - 1
    inside = np.zeros((nx, ny), dtype=bool)
    for r in rects:
        i0, i1 = xs.index(r.x_min), xs.index(r.x_max)
        j0, j1 = ys.index(r.y_min), ys.index(r.y_max)
        inside[i0:i1, j0:j1] = True

    def cell(i, j):
        return inside[i, j] if 0 <= i < nx and 0 <= j < ny else False

    # Directed boundary edges with the interior on the left (counterclockwise
    # outer loop): interior west of a vertical edge -> walk north, east ->
    # south; interior north of a horizontal edge -> walk east, south -> west.
    out_edges: dict[tuple[float, float], tuple[float, float]] = {}

    def add_edge(p, q):
        if p in out_edges:
            raise DegenerateDomain("pinch point on union boundary")
        out_edges[p] = q

    for i in range(nx + 1):
        for j in range(ny):
            west, east = cell(i - 1, j), cell(i, j)
            if west == east:
                continue
            lo, hi = (xs[i], ys[j]), (xs[i], ys[j + 1])
            if west:
                add_edge(lo, hi)
            else:
                add_edge(hi, lo)
    for i in range(nx):
        for j in range(ny + 1):
            south, north = cell(i, j - 1), cell(i, j)
            if south == north:
                continue
            lo, hi = (xs[i], ys[j]), (xs[i + 1], ys[j])
            if north:
                add_edge(lo, hi)
            else:
                add_edge(hi, lo)

    start = min(out_edges)
    loop = [start]
    cur = out_edges[start]
    while cur != start:
        loop.append(cur)
        cur = out_edges[cur]
    if len(loop) != len(out_edges):
        raise DegenerateDomain(
            "rectangle union is disconnected or encloses a hole")

    # Merge collinear runs into a minimal vertex list.
    verts: list[tuple[float, float]] = []
    m = len(loop)
    for k in range(m):
        prev, here, nxt = loop[k - 1], loop[k], loop[(k + 1) % m]
        d1 = (here[0] - prev[0], here[1] - prev[1])
        d2 = (nxt[0] - here[0], nxt[1] - here[1])
        if d1[0] * d2[1] - d1[1] * d2[0] != 0:
            verts.append(here)
    return [complex(x, y) for x, y in verts]


# ---------------------------------------------------------------------------
# Geometry queries
# ---------------------------------------------------------------------------

def _seg_point(p, q, r):
    """Distance from point ``r`` to the segment [p, q], broadcasting."""
    pq = q - p
    denom = np.abs(pq) ** 2
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(((r - p) * np.conj(pq)).real / denom, 0.0, 1.0)
    return np.abs(r - (p + t * pq))


def _edge_distance(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest edge of the axis-parallel
    polygon ``verts``: from the point to its clip into each edge's box,
    exactly 0 on an edge and with no product that could overflow."""
    a, b = verts[:, None], np.roll(verts, -1)[:, None]
    x, y = points.real.ravel(), points.imag.ravel()
    dx = x - np.clip(x, np.minimum(a.real, b.real), np.maximum(a.real, b.real))
    dy = y - np.clip(y, np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag))
    return np.min(np.hypot(dx, dy), axis=0).reshape(points.shape)


def _cell_centers(domain: DomainSpec, k: int) -> np.ndarray:
    """Centers of k x k equal cells over the bounding box, row-major.

    Each axis is taken at its own power-of-two scale (exactly 1.0 unless
    a bound is huge, see ``curves._pow2_scale``), so the offsets of a box
    too wide for them stay finite and a thin axis keeps its bits.
    """
    def axis(lo, hi):
        s = _pow2_scale(np.array([lo, hi]))
        return (lo * s + (np.arange(k) + 0.5) * (hi * s - lo * s) / k) / s

    x0, x1, y0, y1 = domain.bounding_box()
    return (axis(x0, x1)[None, :] + 1j * axis(y0, y1)[:, None]).ravel()


def contains(domain: DomainSpec, points, closed: bool = True) -> np.ndarray:
    """Membership test, vectorized over complex ``points``.

    ``closed=True`` tests the closure, ``closed=False`` the open domain:
    for rectangles and unions, the closure off the boundary polygon.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if isinstance(domain, Disc):
        d = np.abs(pts - domain.center)
        return d <= domain.radius if closed else d < domain.radius
    x, y = pts.real, pts.imag
    result = np.zeros(pts.shape, dtype=bool)
    for r in domain.rects:
        result |= (x >= r.x_min) & (x <= r.x_max) & (y >= r.y_min) & (y <= r.y_max)
    if not closed:
        result &= _edge_distance(pts, domain.vertices()) > 0
    return result


def clearance(domain: DomainSpec, points) -> np.ndarray:
    """Signed distance from each point to the domain boundary.

    Positive outside, negative inside, zero (never -0.0) on the boundary.
    For rectangles and unions the magnitude is :func:`_edge_distance` to
    the boundary polygon (exact, since validated unions have no holes),
    negative exactly where ``contains(closed=False)`` holds.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if isinstance(domain, Disc):
        return np.abs(pts - domain.center) - domain.radius
    dist = _edge_distance(pts, domain.vertices())
    return np.where(contains(domain, pts, closed=True) & (dist > 0), -dist, dist)


def diameter(domain: DomainSpec) -> float:
    if isinstance(domain, Disc):
        return 2.0 * domain.radius
    x0, x1, y0, y1 = domain.bounding_box()
    return math.hypot(x1 - x0, y1 - y0)


def interior_point(domain: DomainSpec) -> complex:
    """A point guaranteed to lie in the open domain."""
    if isinstance(domain, Disc):
        return domain.center
    r = max(domain.rects, key=lambda r: (r.x_max - r.x_min) * (r.y_max - r.y_min))
    return complex((r.x_min + r.x_max) / 2, (r.y_min + r.y_max) / 2)


def inradius_about(domain: DomainSpec) -> float:
    """Radius of the largest disc about 0 inside the domain.

    Zero when 0 is not an interior point.
    """
    c = clearance(domain, 0j)[0]
    return float(-c) if c < 0 else 0.0


def contains_closure(outer: DomainSpec, inner: DomainSpec) -> bool:
    """Whether the closure of ``inner`` lies in the open set ``outer``."""
    if isinstance(inner, Disc):
        if isinstance(outer, Disc):
            return abs(inner.center - outer.center) + inner.radius < outer.radius
        # Distance from the center to the outer boundary must exceed the
        # radius; exact because validated domains have no holes.
        c = clearance(outer, inner.center)[0]
        return c < 0 and -c > inner.radius
    verts = inner.vertices()
    if isinstance(outer, Disc):
        return bool(np.all(np.abs(verts - outer.center) < outer.radius))
    if not np.all(clearance(outer, verts) < 0):
        return False
    # No inner edge may touch or cross the outer boundary.
    overts = outer.vertices()
    oa, ob = overts, np.roll(overts, -1)
    a, b = verts, np.roll(verts, -1)
    return float(np.min(_segment_segment_distance(a, b, oa, ob))) > 0.0


def _segment_segment_distance(a1: np.ndarray, b1: np.ndarray,
                              a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Pairwise min distances between segment family 1 and family 2.

    Returns an array of shape (len(a1),): for each segment in family 1
    the distance to the nearest segment of family 2 (0 when they cross).
    Huge coordinates are first scaled by a power of two (Blue, 1978).
    """
    s = _pow2_scale(a1, b1, a2, b2)
    if s != 1.0:
        return _segment_segment_distance(a1 * s, b1 * s, a2 * s, b2 * s) / s
    p1, q1 = a1[:, None], b1[:, None]
    p2, q2 = a2[None, :], b2[None, :]

    def orient(p, q, r):
        return np.sign((q - p).real * (r - p).imag - (q - p).imag * (r - p).real)

    o1 = orient(p1, q1, p2)
    o2 = orient(p1, q1, q2)
    o3 = orient(p2, q2, p1)
    o4 = orient(p2, q2, q1)
    crossing = (o1 * o2 < 0) & (o3 * o4 < 0)

    d = np.minimum.reduce([
        _seg_point(p1, q1, p2), _seg_point(p1, q1, q2),
        _seg_point(p2, q2, p1), _seg_point(p2, q2, q1),
    ])
    d = np.where(crossing, 0.0, d)
    return np.min(d, axis=1)


def _curve_distance(curve: SampledCurve, domain: DomainSpec,
                    c: np.ndarray) -> float:
    """Distance from the segments of a closed curve to the closed domain,
    given the clearances ``c`` of its samples (see :func:`clearance`).

    Zero when a curve sample lies in the closed domain.
    """
    # A sample has clearance <= 0 exactly when it lies in the closed
    # domain: outside it, no distance to an axis-parallel edge rounds to 0.
    if np.any(c <= 0):
        return 0.0
    a, b = curve.segment_starts(), curve.segment_ends()
    if isinstance(domain, Disc):
        # the distance from the centre, scaled like the segment distances
        center = np.array([domain.center])
        s = _pow2_scale(a, b, center)
        d = np.min(_seg_point(a * s, b * s, center * s)) / s - domain.radius
        return float(max(0.0, d))
    # Every point of a segment lies within half its length of an endpoint,
    # so segment i keeps at least min(c_i, c_i+1) - |b_i - a_i|/2 from the
    # domain.  Only segments whose bound, rounded down, is at most a
    # distance some sample achieves can hold the minimum.  A segment that
    # crosses the domain has a bound <= 0 and stays; one entirely inside
    # is excluded by the sample test above.
    verts = domain.vertices()
    lower = np.minimum(c, np.roll(c, -1)) - np.abs(b - a) / 2
    slack = _DISTANCE_RTOL * (np.max(np.abs(curve.points))
                              + np.max(np.abs(verts)))
    rows = np.nonzero(lower - slack <= np.min(c))[0]
    return float(np.min(_segment_segment_distance(a[rows], b[rows], verts,
                                                  np.roll(verts, -1))))


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------

def boundary(domain: DomainSpec, density: float = 10.0) -> SampledCurve:
    """Positively oriented closed sampling of the domain boundary.

    ``density`` is points per unit arclength.  The returned curve carries
    parameters in [0, 1) and a vectorized source callable, so downstream
    refinement samples the true boundary.
    """
    if not (density > 0 and math.isfinite(density)):
        raise ValueError("density must be positive and finite")
    if isinstance(domain, Disc):
        c, r = domain.center, domain.radius
        n = max(16, _sample_count(2 * math.pi * r * density))
        t = np.arange(n) / n

        def source(u):
            u = np.asarray(u, dtype=np.float64)
            return c + r * np.exp(2j * np.pi * u)

        return SampledCurve(source(t), t, source)

    verts = domain.vertices()
    edges = np.roll(verts, -1) - verts
    lengths = np.abs(edges)
    # The perimeter may overflow where no edge does, so the knots are
    # taken at a power-of-two scale, exactly 1.0 unless a vertex is huge.
    scaled = lengths * _pow2_scale(verts)
    knots = np.concatenate([[0.0], np.cumsum(scaled)]) / float(np.sum(scaled))

    def source(u):
        u = np.asarray(u, dtype=np.float64) % 1.0
        k = np.clip(np.searchsorted(knots, u, side="right") - 1, 0, verts.size - 1)
        local = (u - knots[k]) / (knots[k + 1] - knots[k])
        return verts[k] + local * edges[k]

    pieces = [max(1, _sample_count(length * density)) for length in lengths]
    _sample_count(sum(pieces))  # the whole boundary, not just each edge
    t = np.concatenate([knots[k] + (knots[k + 1] - knots[k]) * np.arange(n) / n
                        for k, n in enumerate(pieces)])
    return SampledCurve(source(t), t, source)


def _sample_count(exact: float) -> int:
    """``ceil(exact)``, refused above the sample cap before any allocation."""
    if not exact <= _MAX_POINTS:
        raise ValueError(f"boundary sampling needs {exact:.6g} points, "
                         f"more than the cap of {_MAX_POINTS}")
    return math.ceil(exact)

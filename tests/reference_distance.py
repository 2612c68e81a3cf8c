"""Reference point-to-segment distance: the projection onto each segment.

``domains.clearance`` measures a rectangle or union by clipping each
point into every axis-parallel edge (``domains._edge_distance``), which
is exactly 0 on the boundary.  This is the general formula it replaced.
It projects onto the segment's line, so on an edge it may round to a few
units of the coordinates' last place instead of 0; off the boundary the
tests compare the two, and they take a disc's distance from a curve
from it.  ``edge_points`` places points exactly on a polygon's edges.
"""

import numpy as np

from orbitplane.curves import _pow2_scale
from orbitplane.domains import _seg_point


def reference_point_segment_distance(points: np.ndarray, a: np.ndarray,
                                     b: np.ndarray) -> np.ndarray:
    """Distances from each point to the nearest of the segments (a[k], b[k]),
    taken on huge inputs after scaling by a power of two (Blue, 1978)."""
    s = _pow2_scale(points, a, b)
    if s != 1.0:
        return reference_point_segment_distance(points * s, a * s, b * s) / s
    return np.min(_seg_point(a[None, :], b[None, :], points[:, None]), axis=1)


def edge_points(verts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points exactly on each edge of the axis-parallel polygon ``verts``:
    one coordinate is the edge's own, the other runs from its start
    (t = 0) to its end (t = 1)."""
    pts = []
    for a, b in zip(verts, np.roll(verts, -1)):
        if a.real == b.real:
            pts.append(a.real + 1j * (a.imag + t * (b.imag - a.imag)))
        else:
            pts.append((a.real + t * (b.real - a.real)) + 1j * a.imag)
    return np.concatenate(pts)

"""Property test: a rectangle union is accepted exactly when it is a
Jordan region, as a raster oracle on its induced grid decides, and an
accepted union's clearance and membership tests follow one boundary."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
ndimage = pytest.importorskip("scipy.ndimage")
from hypothesis import given, settings, strategies as st  # noqa: E402
from reference_distance import edge_points  # noqa: E402

from orbitplane.domains import Rect, RectUnion, clearance, contains  # noqa: E402
from orbitplane.errors import DegenerateDomain  # noqa: E402


@st.composite
def rect(draw):
    x0, x1 = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2,
                                  unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2,
                                  unique=True)))
    return Rect(x0, x1, y0, y1)


# Query coordinates: anywhere around the corners' range, and on the
# half-integers, which hit the edges, the corners and the cell centres.
coordinate = st.one_of(st.floats(-1, 9), st.integers(-2, 18).map(lambda k: k / 2))


def induced_cells(rects):
    """Cell mask and cell areas of the grid the member coordinates induce,
    padded by one empty cell on every side."""
    xs = sorted({v for r in rects for v in (r.x_min, r.x_max)})
    ys = sorted({v for r in rects for v in (r.y_min, r.y_max)})
    inside = np.zeros((len(xs) + 1, len(ys) + 1), dtype=bool)
    for r in rects:
        inside[xs.index(r.x_min) + 1:xs.index(r.x_max) + 1,
               ys.index(r.y_min) + 1:ys.index(r.y_max) + 1] = True
    widths = np.concatenate([[1], np.diff(xs), [1]])
    heights = np.concatenate([[1], np.diff(ys), [1]])
    return inside, np.outer(widths, heights)


def one_component(mask):
    return all(ndimage.label(mask, structure)[1] == 1
               for structure in (None, np.ones((3, 3))))


def is_jordan(rects):
    inside, _ = induced_cells(rects)
    return one_component(inside) and one_component(~inside)


def shoelace(verts):
    return 0.5 * float(np.sum(verts.real * np.roll(verts.imag, -1)
                              - np.roll(verts.real, -1) * verts.imag))


def assert_one_boundary_rule(domain, points):
    """The open test is clearance < 0 and the closed test clearance <= 0;
    the clearance is 0.0, never -0.0, on every edge and at every vertex."""
    on_edge = edge_points(domain.vertices(), np.linspace(0.0, 1.0, 9))
    pts = np.concatenate([points, on_edge])
    c = clearance(domain, pts)
    assert np.array_equal(contains(domain, pts, closed=False), c < 0)
    assert np.array_equal(contains(domain, pts, closed=True), c <= 0)
    edge_c = c[points.size:]
    assert np.all(edge_c == 0) and not np.any(np.signbit(edge_c))


@settings(max_examples=400, deadline=None)
@given(st.lists(rect(), min_size=1, max_size=6),
       st.lists(st.tuples(coordinate, coordinate), max_size=30))
def test_union_is_accepted_exactly_when_jordan(rects, xy):
    points = np.array([complex(x, y) for x, y in xy], dtype=complex)
    assert_one_boundary_rule(rects[0], points)
    try:
        union = RectUnion(tuple(rects))
    except DegenerateDomain:
        assert not is_jordan(rects)
        return
    assert is_jordan(rects)
    inside, area = induced_cells(rects)
    assert shoelace(union.vertices()) == float(np.sum(area[inside]))
    assert_one_boundary_rule(union, points)

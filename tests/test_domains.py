import math

import numpy as np
import pytest
from reference_distance import edge_points, reference_point_segment_distance

from orbitplane.curves import _pow2_scale
from orbitplane.domains import (Disc, Rect, RectUnion, _cell_centers, boundary,
                                clearance, contains, contains_closure,
                                diameter, inradius_about, interior_point)
from orbitplane.errors import DegenerateDomain
from orbitplane.scenarios import ex51_domain

PI = math.pi


def two_rect_domain(n):
    return RectUnion((Rect(0.0, 4 * n * PI, -4 * n * PI, 4 * n * PI),
                      Rect(-n * PI, 0.0, -n * PI, n * PI)))


def shoelace(verts):
    return 0.5 * float(np.sum(verts.real * np.roll(verts.imag, -1)
                              - np.roll(verts.real, -1) * verts.imag))


def test_rect_validation():
    with pytest.raises(DegenerateDomain):
        Rect(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(DegenerateDomain):
        Rect(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(DegenerateDomain):
        Disc(0j, 0.0)
    with pytest.raises(DegenerateDomain):
        Disc(0j, -1.0)


@pytest.mark.parametrize("bounds", [(-1.7e308, 1.7e308, -1.0, 1.0),
                                    (-1.0, 1.0, -1e308, 1e308)],
                         ids=["width", "height"])
def test_rect_refuses_a_width_or_height_that_overflows(bounds):
    with pytest.raises(DegenerateDomain, match="width and height must be finite"):
        Rect(*bounds)


def test_union_refuses_a_bounding_box_that_overflows():
    # each member is fine, but the union is 2e308 wide
    with pytest.raises(DegenerateDomain, match="width and height must be finite"):
        RectUnion((Rect(-1e308, 0.0, 0.0, 1.0), Rect(0.0, 1e308, 0.0, 1.0)))


def test_union_must_be_tree():
    with pytest.raises(DegenerateDomain):
        RectUnion((Rect(0, 1, 0, 1), Rect(2, 3, 2, 3)))  # disconnected
    with pytest.raises(DegenerateDomain):
        RectUnion((Rect(0, 1, 0, 1), Rect(1, 2, 1, 2)))  # corner pinch
    with pytest.raises(DegenerateDomain):
        # ring of four rectangles encloses a hole
        RectUnion((Rect(0, 3, 0, 1), Rect(0, 1, 0, 3),
                   Rect(0, 3, 2, 3), Rect(2, 3, 0, 3)))
    # overlapping-in-area and edge-glued pairs are both fine
    RectUnion((Rect(0, 2, 0, 2), Rect(1, 3, 1, 3)))
    RectUnion((Rect(0, 1, 0, 1), Rect(1, 2, 0, 1)))


def test_members_overlapping_in_a_cycle_form_a_jordan_union():
    # each pair of the three overlaps, yet the union is one simple loop
    union = RectUnion((Rect(0, 2, 0, 2), Rect(1, 3, 1, 3), Rect(0, 3, 1, 2)))
    verts = union.vertices()
    assert len(verts) == 8
    assert shoelace(verts) == 7.0


def test_union_refusals_name_the_failure():
    with pytest.raises(DegenerateDomain, match="pinch point"):
        RectUnion((Rect(0, 1, 0, 1), Rect(1, 2, 1, 2)))
    with pytest.raises(DegenerateDomain, match="disconnected or encloses a hole"):
        RectUnion((Rect(0, 1, 0, 1), Rect(2, 3, 2, 3)))
    with pytest.raises(DegenerateDomain, match="disconnected or encloses a hole"):
        RectUnion((Rect(0, 3, 0, 1), Rect(0, 1, 0, 3),
                   Rect(0, 3, 2, 3), Rect(2, 3, 0, 3)))


def test_two_rect_union_outer_polygon():
    verts = two_rect_domain(2).vertices()
    expected = {(0, 8), (8, 8), (8, -8), (0, -8),
                (0, -2), (-2, -2), (-2, 2), (0, 2)}
    got = {(round(v.real / PI, 9), round(v.imag / PI, 9)) for v in verts}
    assert got == expected
    assert len(verts) == 8
    assert shoelace(verts) > 0  # positively oriented


def test_plus_shape_union_traces():
    plus = RectUnion((Rect(-3, 3, -1, 1), Rect(-1, 1, -3, 3)))
    verts = plus.vertices()
    assert len(verts) == 12
    # shoelace area equals the union area 6*2 + 6*2 - 2*2
    assert shoelace(verts) == pytest.approx(20.0, abs=1e-12)


def test_boundary_disc_density():
    curve = boundary(Disc(0j, 1.0), 10.0)
    assert len(curve) >= 62
    np.testing.assert_allclose(np.abs(curve.points), 1.0, atol=1e-12)
    # positively oriented: winding of the sampling about 0 is +1
    angles = np.unwrap(np.angle(curve.points))
    assert angles[-1] > angles[0]


def test_boundary_rect_vertices():
    curve = boundary(Rect(0, 1, 0, 1), 1.0)
    assert len(curve) == 4
    assert set(np.round(curve.points, 12)) == {0j, 1 + 0j, 1 + 1j, 1j}


def test_boundary_refuses_more_samples_than_the_cap():
    with pytest.raises(ValueError, match="cap"):
        boundary(Disc(0j, 1e308), 4.0)
    # every edge is under the cap of 200,000 samples, the whole loop is not
    with pytest.raises(ValueError, match="cap"):
        boundary(Rect(0, 100_000, 0, 1), 1.0)
    assert len(boundary(Rect(0, 99_999, 0, 1), 1.0)) == 200_000


def test_boundary_source_parameterization():
    dom = two_rect_domain(1)
    curve = boundary(dom, 2.0)
    # the source reproduces the stored samples
    np.testing.assert_allclose(
        np.abs(curve.source(curve.params) - curve.points), 0.0, atol=1e-9)


def test_inradius_about_zero():
    for n in range(2, 6):
        assert inradius_about(two_rect_domain(n)) == pytest.approx(n * PI, rel=1e-12)
    assert inradius_about(Disc(1.0 + 0j, 3.0)) == pytest.approx(2.0)
    assert inradius_about(Disc(5.0 + 0j, 1.0)) == 0.0
    assert inradius_about(Rect(-1, 2, -1, 3)) == pytest.approx(1.0)


def test_contains_open_vs_closed():
    dom = two_rect_domain(1)
    # the gluing segment on the imaginary axis is interior
    assert contains(dom, 0j, closed=False)[0]
    assert contains(dom, 1j, closed=False)[0]
    # the outer boundary is in the closure only
    corner = complex(-PI, -PI)
    assert contains(dom, corner, closed=True)[0]
    assert not contains(dom, corner, closed=False)[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_union_boundary_points_are_not_interior(n):
    dom = ex51_domain(n)
    # 2,000 points exactly on each edge.  Projecting them onto the edge's
    # line instead of clipping put 14,870 of the 96,000 of n = 1..6 off
    # the boundary, by up to 2.8e-14.
    pts = edge_points(dom.vertices(), np.linspace(0.0, 1.0, 2000))
    assert not np.any(contains(dom, pts, closed=False))
    assert np.all(contains(dom, pts, closed=True))
    c = clearance(dom, pts)
    assert np.count_nonzero(c) == 0
    assert not np.any(np.signbit(c))  # 0.0, never -0.0


@pytest.mark.parametrize("dom", [Rect(-1.0, 2.0, -0.5, 1.0), two_rect_domain(1)]
                         + [ex51_domain(n) for n in range(1, 7)])
def test_clearance_off_the_boundary_matches_the_projection(dom):
    rng = np.random.default_rng(17)
    x0, x1, y0, y1 = dom.bounding_box()
    w, h = x1 - x0, y1 - y0
    pts = (rng.uniform(x0 - w, x1 + w, 5000)
           + 1j * rng.uniform(y0 - h, y1 + h, 5000))
    v = dom.vertices()
    np.testing.assert_array_max_ulp(
        np.abs(clearance(dom, pts)),
        reference_point_segment_distance(pts, v, np.roll(v, -1)), maxulp=4)


def test_clearance_signs_and_values():
    disc = Disc(0j, 2.0)
    c = clearance(disc, np.array([0j, 1j, 3.0 + 0j]))
    np.testing.assert_allclose(c, [-2.0, -1.0, 1.0])
    rect = Rect(0, 4, 0, 2)
    c = clearance(rect, np.array([2 + 1j, 5 + 1j, 2 + 3j]))
    np.testing.assert_allclose(c, [-1.0, 1.0, 1.0])


def test_contains_closure_cases():
    assert contains_closure(Disc(0j, 2.0), Disc(0.5 + 0j, 1.0))
    assert not contains_closure(Disc(0j, 2.0), Disc(0.5 + 0j, 1.6))
    assert not contains_closure(Disc(0j, 2.0), Disc(0j, 2.0))
    assert contains_closure(Rect(-2, 2, -2, 2), Rect(-1, 1, -1, 1))
    assert not contains_closure(Rect(-2, 2, -2, 2), Rect(-2, 1, -1, 1))
    assert contains_closure(Rect(-10, 10, -10, 10), Disc(0j, 3.0))
    assert not contains_closure(Rect(-10, 10, -10, 10), Disc(8 + 0j, 3.0))
    assert contains_closure(Disc(0j, 3.0), Rect(-1, 1, -1, 1))
    assert not contains_closure(Disc(0j, 1.0), Rect(-1, 1, -1, 1))
    inner = RectUnion((Rect(1, 5, -5, 5), Rect(-1, 1, -1, 1)))
    outer = RectUnion((Rect(0, 6, -6, 6), Rect(-2, 0, -2, 2)))
    assert contains_closure(outer, inner)
    assert not contains_closure(inner, outer)
    # the two-rectangle family is NOT closure-nested: the closure of D_1
    # touches the boundary of D_2 along the notch segment on x = 0
    assert not contains_closure(two_rect_domain(2), two_rect_domain(1))


def test_interior_point_is_interior():
    for dom in (Disc(2 - 1j, 0.5), Rect(0, 1, 5, 9), two_rect_domain(3)):
        p = interior_point(dom)
        assert contains(dom, p, closed=False)[0]
        assert clearance(dom, p)[0] < 0


def test_diameter():
    assert diameter(Disc(0j, 2.0)) == 4.0
    assert diameter(Rect(0, 3, 0, 4)) == 5.0


def parts(z, scale=1.0):
    """The bits of the real and imaginary parts of ``z``, each times the
    power of two ``scale``, so -0.0 shows."""
    return (np.stack([z.real, z.imag]) * scale).view(np.uint64)


def shrunk(domain, s):
    """A rectangle or union with every coordinate times the power of two s."""
    rects = [Rect(r.x_min * s, r.x_max * s, r.y_min * s, r.y_max * s)
             for r in domain.rects]
    return rects[0] if isinstance(domain, Rect) else RectUnion(tuple(rects))


# Boxes wider than the largest double over the lattice size or with a
# perimeter above it: seed and probe lattices and sampled boundaries are
# exactly the scaled copies of those of a box 2^-523 or 2^-524 as wide,
# which no power-of-two scaling touches.
HUGE_DOMAINS = [
    Rect(-2e307, 2e307, -2e307, 2e307),
    Rect(-4e307, 4e307, -4e307, 4e307),
    Rect(-8e307, 8e307, -8e307, 8e307),
    RectUnion((Rect(-8e307, 8e307, -4e307, 4e307),
               Rect(-4e307, 4e307, -8e307, 8e307))),
]


@pytest.mark.parametrize("domain", HUGE_DOMAINS)
def test_huge_lattices_are_scaled_copies(domain):
    s = _pow2_scale(domain.vertices())
    assert s < 1.0
    small = _cell_centers(shrunk(domain, s), 5)
    assert _pow2_scale(small) == 1.0
    huge = _cell_centers(domain, 5)
    assert np.array_equal(parts(huge), parts(small, 1 / s))
    assert np.all(np.isfinite(huge)) and np.unique(huge).size == 25


@pytest.mark.parametrize("domain", HUGE_DOMAINS)
def test_huge_boundaries_are_scaled_copies(domain):
    s = _pow2_scale(domain.vertices())
    small = boundary(shrunk(domain, s), 1e-304 / s)
    huge = boundary(domain, 1e-304)
    assert np.array_equal(huge.params, small.params)
    assert np.array_equal(parts(huge.points), parts(small.points, 1 / s))
    u = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(parts(huge.source(u)), parts(small.source(u), 1 / s))
    assert np.all(np.isfinite(huge.points)) and len(huge) > 8


def test_a_thin_axis_beside_a_huge_one_keeps_its_bits():
    # each axis has its own scale, so y is not flushed to zero by x's
    ys = -1e-300 + (np.arange(5) + 0.5) * 1e-300 / 5
    got = _cell_centers(Rect(-4e307, 4e307, -1e-300, -0.0), 5).reshape(5, 5)
    assert np.array_equal(got.imag.view(np.uint64),
                          np.repeat(ys, 5).reshape(5, 5).view(np.uint64))
    assert np.all(np.isfinite(got.real)) and np.unique(got.real).size == 5


def test_ordinary_lattices_keep_their_bits():
    # the power-of-two scale is exactly 1.0 below 2^500, so the centers
    # are those of the plain formula, signed zeros included
    for x0, x1, y0, y1, k in [(-1.0, 1.0, -0.0, 2.0, 5), (0.1, 0.7, -3.0, 1e-300, 24),
                              (-1e150, 1e150, -1.0, 1.0, 447)]:
        xs = x0 + (np.arange(k) + 0.5) * (x1 - x0) / k
        ys = y0 + (np.arange(k) + 0.5) * (y1 - y0) / k
        want = (xs[None, :] + 1j * ys[:, None]).ravel()
        got = _cell_centers(Rect(x0, x1, y0, y1), k)
        assert np.array_equal(parts(got), parts(want))

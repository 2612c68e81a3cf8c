"""The batched winding kernel against the atan2 oracle, and the
clearance-bounded curve distance against the unfiltered minimum."""

import math

import numpy as np
import pytest
from reference_distance import reference_point_segment_distance
from reference_winding import reference_winding

from orbitplane.curves import (SampledCurve, _crossings, _hits, image_curve,
                               winding_number, winding_numbers)
from orbitplane.domains import (Disc, Rect, RectUnion, _curve_distance,
                                _edge_distance, _segment_segment_distance,
                                boundary, clearance, contains)
from orbitplane.errors import AliasingUnresolved, CurveTooClose
from orbitplane.expressions import parse
from orbitplane.scenarios import (EX51_SOURCE, EX52_SOURCE, ex51_domain,
                                  ex52_domain)
from orbitplane.surround import _probe_points


def oracle(curve, probes, min_clearance=1e-9, max_points=200_000):
    """Reference windings in probe order, up to the first probe that raises."""
    done = []
    for w in probes:
        try:
            done.append(reference_winding(curve, complex(w), min_clearance,
                                          max_points))
        except (CurveTooClose, AliasingUnresolved) as exc:
            return done, type(exc)
    return done, None


def assert_kernel_matches(curve, probes, min_clearance=1e-9, max_points=200_000):
    want, error = oracle(curve, probes, min_clearance, max_points)
    if error is None:
        got = winding_numbers(curve, probes, min_clearance, max_points)
        assert got.tolist() == want
        return want
    with pytest.raises(error) as raised:
        winding_numbers(curve, probes, min_clearance, max_points)
    if error is CurveTooClose:
        assert raised.value.partial.tolist() == want
    return want


def lattice(x0, x1, y0, y1, k):
    xs = x0 + (np.arange(k) + 0.5) * (x1 - x0) / k
    ys = y0 + (np.arange(k) + 0.5) * (y1 - y0) / k
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def random_polygon(rng, n):
    """A closed polyline, often self-intersecting, around the origin."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    if rng.random() < 0.5:
        angles = rng.permutation(angles)
    radii = rng.uniform(0.3, 3.0, n)
    return SampledCurve(radii * np.exp(1j * angles))


@pytest.mark.parametrize("k", [5, 7, 9])
def test_kernel_matches_oracle_on_random_polygons(k):
    rng = np.random.default_rng(700 + k)
    nonzero = 0
    for _ in range(20):
        curve = random_polygon(rng, int(rng.integers(3, 25)))
        x0, x1 = curve.points.real.min(), curve.points.real.max()
        y0, y1 = curve.points.imag.min(), curve.points.imag.max()
        want = assert_kernel_matches(curve, lattice(x0, x1, y0, y1, k))
        nonzero += sum(w != 0 for w in want)
    assert nonzero > 50


SIN_DISCS = [Disc(0j, 1.0), Disc(0j, 2.0), Disc(0j, 3.0)]
FAMILIES = {
    "ex51": (EX51_SOURCE, [ex51_domain(n) for n in range(2, 5)]),
    "ex52": (EX52_SOURCE, [ex52_domain(n) for n in range(0, 3)]),
    "sin": ("sin(z)", SIN_DISCS),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("k", [5, 7, 9])
def test_kernel_matches_oracle_on_image_curves(family, k):
    source, domains = FAMILIES[family]
    f = parse(source)
    for n, dom in enumerate(domains):
        img = image_curve(f, boundary(dom, 4.0))
        for target in domains[n:n + 2]:
            assert_kernel_matches(img, _probe_points(target, k))


def test_kernel_raises_too_close_at_the_oracles_probe():
    circle = boundary(Disc(0j, 1.0), 10.0)
    sample = complex(circle.points[5])
    probes = np.array([0j, 0.2 + 0.1j, sample * (1 + 1e-5), -0.3j, 3 + 0j])
    want = assert_kernel_matches(circle, probes, min_clearance=1e-3)
    assert want == [1, 1]
    # the lone too-close probe raises with nothing before it
    with pytest.raises(CurveTooClose) as raised:
        winding_number(circle, sample, min_clearance=1e-3)
    assert raised.value.partial.tolist() == []


def test_kernel_on_and_near_the_curve():
    rng = np.random.default_rng(5)
    circle = boundary(Disc(0.5 - 0.25j, 2.0), 6.0)
    a, b = circle.segment_starts(), circle.segment_ends()
    for _ in range(20):
        i = int(rng.integers(len(circle)))
        s = rng.uniform(0.05, 0.95)
        on = a[i] + s * (b[i] - a[i])
        offset = 10.0 ** rng.uniform(-12, -2) * np.exp(2j * math.pi * rng.random())
        probes = np.array([0.5 - 0.25j, on + offset, a[i] + offset, on, 0.6 - 0.2j])
        assert_kernel_matches(circle, probes)
        assert_kernel_matches(circle, probes, min_clearance=1e-4)


def test_kernel_aliasing_unresolved_where_the_oracle_raises():
    square = boundary(Rect(-1, 1, -1, 1), 0.6)  # 4 corners, every probe aliased
    probes = lattice(-1, 1, -1, 1, 5)
    for budget in (4, 6, 12, 40):
        assert_kernel_matches(square, probes, max_points=budget)
    with pytest.raises(AliasingUnresolved, match="budget"):
        winding_numbers(square, probes, max_points=6)


def test_kernel_counts_probes_on_vertex_ordinates():
    # probes level with vertices exercise the half-open crossing rule
    rng = np.random.default_rng(17)
    for _ in range(30):
        curve = random_polygon(rng, int(rng.integers(3, 12)))
        ys = curve.points.imag[rng.integers(len(curve), size=3)]
        xs = rng.uniform(-3.5, 3.5, 3)
        probes = (xs[None, :] + 1j * ys[:, None]).ravel()
        assert_kernel_matches(curve, probes)


def test_thales_test_survives_rounding_of_the_disc_filter():
    # Probes on the rounded Thales circle of a segment, where the pair test
    # Re((a - w) * conj(b - w)) < 0 says aliased although the disc filter,
    # rounded, would put the probe just outside the disc.  With no room to
    # refine, the kernel must raise instead of counting crossings.
    rng = np.random.default_rng(23)
    found = 0
    while found < 20:
        scale = 10.0 ** rng.uniform(-1, 3)
        a = scale * complex(rng.uniform(-2, -1), rng.uniform(-0.5, 0.5))
        b = scale * complex(rng.uniform(1, 2), rng.uniform(-0.5, 0.5))
        mid, radius = (a + b) / 2, abs(b - a) / 2
        theta = rng.uniform(0.3, math.pi - 0.3)
        w = mid + radius * complex(math.cos(theta), math.sin(theta)) * (b - a) / abs(b - a)
        rel_a, rel_b = np.array([a]) - w, np.array([b]) - w
        if not ((rel_a * np.conj(rel_b)).real[0] < 0
                and math.hypot(w.real - mid.real, w.imag - mid.imag) > radius):
            continue
        c = mid - 40 * radius * 1j * (b - a) / abs(b - a)
        curve = SampledCurve(np.array([a, b, c]))
        with pytest.raises(AliasingUnresolved, match="budget"):
            winding_numbers(curve, [w], min_clearance=1e-300, max_points=3)
        found += 1


# --- curve_distance -------------------------------------------------------

def curve_distance(curve, domain):
    """The least distance the surround check reads: ``_curve_distance`` on
    the clearances of the samples."""
    return _curve_distance(curve, domain, clearance(domain, curve.points))


def unfiltered_distance(curve, domain):
    """curve_distance with the segment formula on every segment."""
    a, b = curve.segment_starts(), curve.segment_ends()
    if contains(domain, curve.points, closed=True).any():
        return 0.0
    if isinstance(domain, Disc):
        d = (reference_point_segment_distance(np.array([domain.center]), a, b)[0]
             - domain.radius)
        return float(max(0.0, d))
    verts = domain.vertices()
    return float(np.min(_segment_segment_distance(a, b, verts,
                                                  np.roll(verts, -1))))


DISTANCE_DOMAINS = {
    "disc": Disc(0.3 - 0.2j, 1.5),
    "rect": Rect(-1.0, 2.0, -0.5, 1.0),
    "union": RectUnion((Rect(0.0, 4.0, -2.0, 2.0), Rect(-1.0, 0.0, -0.5, 0.5))),
    "ex51": ex51_domain(2),
}


def curves_around(rng, domain, count):
    x0, x1, y0, y1 = domain.bounding_box()
    center = complex((x0 + x1) / 2, (y0 + y1) / 2)
    size = math.hypot(x1 - x0, y1 - y0) / 2
    for k in range(count):
        n = int(rng.choice([3, 4, 6, 12, 200, 2000]))
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
        if k % 4 == 0:  # long chords: segments longer than the domain
            radii = size * rng.uniform(1.2, 4.0, n)
        elif k % 4 == 1:  # may cross the domain between samples
            radii = size * rng.uniform(0.5, 1.5, n)
        else:  # many short segments hugging the boundary
            radii = size * (1.05 + 0.3 * rng.random()) * (1 + 0.05 * rng.random(n))
        yield SampledCurve(center + radii * np.exp(1j * angles))


@pytest.mark.parametrize("name", sorted(DISTANCE_DOMAINS))
def test_curve_distance_equals_unfiltered_minimum(name):
    domain = DISTANCE_DOMAINS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    positive = 0
    for curve in curves_around(rng, domain, 80):
        want = unfiltered_distance(curve, domain)
        assert curve_distance(curve, domain) == want
        positive += want > 0
    assert positive > 20


@pytest.mark.parametrize("name", sorted(DISTANCE_DOMAINS))
def test_curve_distance_long_chords_and_touching(name):
    domain = DISTANCE_DOMAINS[name]
    x0, x1, y0, y1 = domain.bounding_box()
    w, h = x1 - x0, y1 - y0
    cases = [
        # a triangle whose long sides pass nearer the domain than any vertex
        [complex(x0 - 5 * w, y1 + 0.1 * h), complex(x1 + 5 * w, y1 + 0.1 * h),
         complex((x0 + x1) / 2, y0 - 6 * h)],
        # a chord through the domain with both ends outside
        [complex(x0 - w, (y0 + y1) / 2), complex(x1 + w, (y0 + y1) / 2),
         complex((x0 + x1) / 2, y1 + 3 * h)],
        # a vertex touching the closed domain
        [complex(x1, y1), complex(x1 + w, y1 + h), complex(x1 + 2 * w, y1)],
        # a chord touching a corner of the bounding box
        [complex(x1 - w, y1 + h), complex(x1 + w, y1 - h), complex(x1 + 3 * w, y1 + 3 * h)],
    ]
    for points in cases:
        curve = SampledCurve(np.array(points))
        for c in (curve, SampledCurve(curve.points[::-1])):
            assert curve_distance(c, domain) == unfiltered_distance(c, domain)


# --- huge coordinates -----------------------------------------------------

# Products of coordinates this large overflow unless they are scaled first.
BIG = 2.0 ** 520


@pytest.mark.parametrize("k", [5, 9])
def test_huge_curves_wind_as_their_scaled_down_copies(k):
    # scaling by a power of two is exact, so every sign the kernel reads
    # is that of the small curve: same hits, crossings and windings
    rng = np.random.default_rng(900 + k)
    for _ in range(10):
        curve = random_polygon(rng, int(rng.integers(3, 25)))
        huge = SampledCurve(curve.points * BIG)
        x0, x1 = curve.points.real.min(), curve.points.real.max()
        y0, y1 = curve.points.imag.min(), curve.points.imag.max()
        probes = lattice(x0, x1, y0, y1, k)
        for clearance in (1e-9, 0.05):
            for got, want in zip(_hits(huge, probes * BIG, clearance * BIG),
                                 _hits(curve, probes, clearance)):
                assert np.array_equal(got, want)
        assert np.array_equal(_crossings(huge, probes * BIG),
                              _crossings(curve, probes))
        want, error = oracle(curve, probes)
        if error is None:
            got = winding_numbers(huge, probes * BIG, min_clearance=1e-9 * BIG)
            assert got.tolist() == want


@pytest.mark.parametrize("name", sorted(DISTANCE_DOMAINS))
def test_huge_segment_distances_scale_exactly(name):
    domain = DISTANCE_DOMAINS[name]
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    for curve in curves_around(rng, domain, 12):
        a, b = curve.segment_starts(), curve.segment_ends()
        if isinstance(domain, Disc):
            v = np.array([domain.center])
            want = reference_point_segment_distance(v, a, b)
            got = reference_point_segment_distance(v * BIG, a * BIG, b * BIG)
            huge = Disc(domain.center * BIG, domain.radius * BIG)
            assert (curve_distance(SampledCurve(curve.points * BIG), huge)
                    == curve_distance(curve, domain) * BIG)
        else:
            v, w = domain.vertices(), np.roll(domain.vertices(), -1)
            want = _segment_segment_distance(a, b, v, w)
            got = _segment_segment_distance(a * BIG, b * BIG, v * BIG, w * BIG)
            assert np.array_equal(
                reference_point_segment_distance(curve.points * BIG, v * BIG,
                                                 w * BIG),
                reference_point_segment_distance(curve.points, v, w) * BIG)
            assert np.array_equal(_edge_distance(curve.points * BIG, v * BIG),
                                  _edge_distance(curve.points, v) * BIG)
        assert np.array_equal(got, want * BIG)

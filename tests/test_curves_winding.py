import math

import numpy as np
import pytest

from orbitplane.curves import SampledCurve, image_curve, refine, winding_number
from orbitplane.domains import Disc, Rect, boundary
from orbitplane.errors import AliasingUnresolved, CurveTooClose
from orbitplane.expressions import _format_complex, parse

PI = math.pi


def polynomial_expression(coeffs):
    terms = [f"({_format_complex(complex(c))})*z^{k}"
             for k, c in enumerate(coeffs)]
    return parse("+".join(terms))


def test_winding_trivial():
    circle = boundary(Disc(0j, 1.0), 10.0)
    assert winding_number(circle, 0j) == 1
    assert winding_number(circle, 2.0 + 0j) == 0


def test_winding_square_and_coarse_refinement():
    square = boundary(Rect(-1, 1, -1, 1), 0.6)  # 4 corner samples only
    assert winding_number(square, 0.2 + 0.1j) == 1
    assert winding_number(square, 3.0 + 0j) == 0


def test_winding_orientation_reversal():
    curve = boundary(Rect(-1, 2, -1, 1), 3.0)
    # the same samples run backwards, on the source at parameter 1 - t
    backwards = SampledCurve(np.roll(curve.points[::-1], 1),
                             np.concatenate([[0.0], 1.0 - curve.params[:0:-1]]),
                             lambda u: curve.source(1.0 - np.asarray(u)))
    for w in (0j, 0.5 + 0.2j, 1.5 - 0.5j):
        assert winding_number(backwards, w) == -winding_number(curve, w)


def test_winding_translation_equivariance():
    rng = np.random.default_rng(11)
    curve = boundary(Disc(0.3 - 0.2j, 1.5), 8.0)
    for _ in range(10):
        c = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(scale=0.4), rng.normal(scale=0.4))
        moved = SampledCurve(curve.points + c, curve.params,
                             lambda t, c=c: curve.source(t) + c)
        assert winding_number(moved, w + c) == winding_number(curve, w)


def test_winding_too_close_probe():
    circle = boundary(Disc(0j, 1.0), 10.0)
    with pytest.raises(CurveTooClose):
        winding_number(circle, complex(circle.points[5]), min_clearance=1e-3)


def test_winding_probe_on_curve_fails_cleanly():
    circle = boundary(Disc(0j, 1.0), 10.0)
    # a probe on the curve itself: refinement drives samples into the
    # clearance and raises rather than returning a bogus integer
    with pytest.raises((CurveTooClose, AliasingUnresolved)):
        winding_number(circle, 1.0 + 0j)


def test_double_wrap_image():
    f = parse("z^2")
    circle = boundary(Disc(0j, 1.0), 10.0)
    img = image_curve(f, circle)
    assert winding_number(img, 0j) == 2
    np.testing.assert_allclose(np.abs(img.points), 1.0, atol=1e-12)


def test_identity_image_is_identical():
    f = parse("z")
    circle = boundary(Disc(0j, 1.0), 10.0)
    img = image_curve(f, circle)
    assert np.array_equal(img.points, circle.points)


def test_image_requires_closed_parameterized_curve():
    bare = SampledCurve(np.array([0j, 1 + 0j, 1j]))
    with pytest.raises(ValueError):
        image_curve(parse("z"), bare)


def test_image_that_overflows_at_a_refinement_sample_is_refused():
    # exp overflows only near t = 0 on the circle of radius 710, which the
    # three samples miss; bisecting the closing segment samples t = 0
    t = np.array([0.25, 0.5, 0.75])
    circle = SampledCurve(710 * np.exp(2j * PI * t), t,
                          lambda u: 710 * np.exp(2j * PI * np.asarray(u)))
    img = image_curve(parse("exp(z)"), circle)
    with pytest.raises(ValueError, match="overflows"):
        refine(img, lambda c: np.array([len(c) - 1]), 100)


def test_winding_matches_root_counts():
    # argument principle against the companion-matrix root finder
    rng = np.random.default_rng(137)
    checked = 0
    while checked < 50:
        deg = int(rng.integers(1, 6))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        x0 = rng.uniform(-2.0, 0.5)
        y0 = rng.uniform(-2.0, 0.5)
        rect = Rect(x0, x0 + rng.uniform(0.5, 2.5), y0, y0 + rng.uniform(0.5, 2.5))
        w = complex(rng.normal(), rng.normal())
        shifted = np.array(coeffs)
        shifted[0] -= w
        roots = np.roots(shifted[::-1]) if deg >= 1 else np.array([])
        # skip ill-conditioned draws with a root too near the rectangle edge
        margin = min((min(abs(r.real - rect.x_min), abs(r.real - rect.x_max),
                          abs(r.imag - rect.y_min), abs(r.imag - rect.y_max))
                      for r in roots), default=1.0)
        if margin < 1e-3:
            continue
        inside = sum(bool(rect.x_min < r.real < rect.x_max
                          and rect.y_min < r.imag < rect.y_max) for r in roots)
        p = polynomial_expression(coeffs)
        img = image_curve(p, boundary(rect, 30.0))
        assert winding_number(img, w) == inside
        checked += 1
    assert checked == 50


def test_curve_validation():
    with pytest.raises(ValueError):
        SampledCurve(np.array([1 + 0j]))
    with pytest.raises(ValueError):
        SampledCurve(np.array([1 + 0j, 1 + 0j, 2 + 0j]))
    with pytest.raises(ValueError):
        SampledCurve(np.array([1 + 0j, 2 + 0j, 1 + 0j]))


TRIANGLE = np.array([1 + 0j, -0.5 + 0.8j, -0.5 - 0.8j])


def unit_circle(n):
    t = np.arange(n) / n
    return SampledCurve(np.exp(2j * PI * t), t,
                        lambda u: np.exp(2j * PI * np.asarray(u)))


def stepped_triangle():
    # a source that is constant between the samples: bisection only ever
    # returns points the curve already has
    src = lambda t: TRIANGLE[np.floor(3 * np.asarray(t)).astype(int) % 3]
    return SampledCurve(TRIANGLE, np.arange(3) / 3, src)


def every_segment(curve):
    return np.arange(len(curve))


def test_refine_converged():
    calls = []

    def long_chords(c):
        calls.append(len(c))
        return np.nonzero(np.abs(c.segment_ends() - c.segment_starts()) > 0.1)[0]

    curve, stop = refine(unit_circle(4), long_chords, 10_000)
    assert stop == "converged"
    assert float(np.abs(curve.segment_ends() - curve.segment_starts()).max()) <= 0.1
    np.testing.assert_allclose(np.abs(curve.points), 1.0, atol=1e-15)
    assert np.all(np.diff(curve.params) > 0)
    assert calls == [4, 8, 16, 32, 64]
    # nothing to do: one predicate call, the curve handed back as is
    calls.clear()
    again, stop = refine(curve, long_chords, 10_000)
    assert again is curve and stop == "converged" and calls == [64]


def test_refine_budget():
    curve, stop = refine(unit_circle(4), every_segment, 100)
    assert stop == "budget"
    assert len(curve) == 64  # one more round would make 128


def test_refine_rounds():
    curve, stop = refine(unit_circle(4), every_segment, 10_000, max_rounds=3)
    assert (stop, len(curve)) == ("rounds", 32)
    same, stop = refine(unit_circle(4), every_segment, 10_000, max_rounds=0)
    assert (stop, len(same)) == ("rounds", 4)
    # the cap counts rounds that inserted points: one point per round here
    first = lambda c: np.array([0])
    curve, stop = refine(unit_circle(4), first, 10_000, max_rounds=48)
    assert (stop, len(curve)) == ("rounds", 4 + 48)


def test_refine_stalled():
    start = stepped_triangle()
    curve, stop = refine(start, every_segment, 10_000)
    assert stop == "stalled"
    assert curve is start


@pytest.mark.parametrize("start, bad, max_points, max_rounds, stop", [
    (unit_circle(4), lambda c: np.nonzero(
        np.abs(c.segment_ends() - c.segment_starts()) > 0.1)[0], 10_000, None,
     "converged"),
    (unit_circle(4), every_segment, 100, None, "budget"),
    (unit_circle(4), every_segment, 10_000, 3, "rounds"),
    (stepped_triangle(), every_segment, 10_000, None, "stalled"),
    (SampledCurve(TRIANGLE), every_segment, 100, None, "budget"),
], ids=["converged", "budget", "rounds", "stalled", "bare-polyline"])
def test_refine_calls_bad_last_on_the_returned_curve(start, bad, max_points,
                                                     max_rounds, stop):
    seen = []

    def spy(c):
        seen.append(c)
        return bad(c)

    curve, why = refine(start, spy, max_points, max_rounds)
    assert why == stop
    assert seen[-1] is curve


def test_stalled_refinement_raises_instead_of_hanging():
    with pytest.raises(AliasingUnresolved, match="stalled"):
        winding_number(stepped_triangle(), 0j)


def test_winding_bare_polyline_refines_on_itself():
    bare = SampledCurve(TRIANGLE)  # 120-degree steps about 0 alias
    centroid = complex(TRIANGLE.mean())
    assert winding_number(bare, centroid) == 1
    assert winding_number(SampledCurve(TRIANGLE[::-1]), centroid) == -1


def test_image_of_polyline_wraps_through_closing_segment():
    # params need not start at 0; bisecting the closing segment must land
    # on it rather than on the first vertex
    bare = SampledCurve(TRIANGLE, np.array([0.1, 0.4, 0.7]))
    assert np.array_equal(image_curve(parse("z"), bare).points, TRIANGLE)
    img, stop = refine(bare, lambda c: np.nonzero(
        np.abs(c.segment_ends() - c.segment_starts()) > 0.05)[0], 100_000)
    assert stop == "converged"
    assert float(np.abs(img.segment_ends() - img.segment_starts()).max()) <= 0.05
    a, b = TRIANGLE, np.roll(TRIANGLE, -1)
    s = np.clip(((img.points[:, None] - a) * np.conj(b - a)).real
                / np.abs(b - a) ** 2, 0.0, 1.0)
    off = np.abs(img.points[:, None] - (a + s * (b - a))).min(axis=1)
    assert float(off.max()) < 1e-12

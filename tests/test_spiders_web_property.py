"""Property test: the spider's-web probe agrees with the reference oracle."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from orbitplane.domains import Rect  # noqa: E402
from orbitplane.orbits import PointClass  # noqa: E402
from orbitplane.raster import (classification_from_array,  # noqa: E402
                               label_components, spiders_web_probe)
from reference_probe import reference_per_radius  # noqa: E402

U = int(PointClass.UNBOUNDED_SUSPECT)
B = int(PointClass.BOUNDED_SUSPECT)


@st.composite
def probe_cases(draw):
    """A mask of at most 24 pixels a side, a center and radii above the floor.

    The center sits inside a pixel, on a pixel edge or on a pixel corner;
    pixels may be non-square.
    """
    ny, nx = draw(st.integers(4, 24)), draw(st.integers(4, 24))
    inside = draw(arrays(np.bool_, (ny, nx)))
    sx, sy = draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([0.5, 1.0, 2.0]))
    ix, iy = draw(st.integers(1, nx - 1)), draw(st.integers(1, ny - 1))
    on_x_edge, on_y_edge = draw(st.booleans()), draw(st.booleans())
    fx = 0.0 if on_x_edge else draw(st.floats(0.01, 0.99))
    fy = 0.0 if on_y_edge else draw(st.floats(0.01, 0.99))
    center = complex((ix + fx) * sx, (iy + fy) * sy)
    floor = math.hypot(sx, sy) / 2
    reach = min(center.real, nx * sx - center.real, center.imag, ny * sy - center.imag)
    assume(reach > floor * 1.01)
    fracs = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3, unique=True))
    radii = [floor + (reach - floor) * f for f in sorted(fracs)]
    assume(all(a < b for a, b in zip(radii, radii[1:])))
    m = np.where(inside, U, B).astype(np.uint8)
    pc = classification_from_array(m, Rect(0.0, nx * sx, 0.0, ny * sy))
    return pc, center, radii, draw(st.sampled_from([4, 8]))


@settings(max_examples=60, deadline=None, database=None)
@given(probe_cases())
def test_spiders_web_probe_matches_oracle(case):
    pc, center, radii, connectivity = case
    lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, connectivity)
    got = spiders_web_probe(lab, center, radii).per_radius
    assert got == reference_per_radius(lab, center, radii)

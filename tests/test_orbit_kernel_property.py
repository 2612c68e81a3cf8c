"""Property test: the orbit kernel agrees with the reference loop."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orbitplane.domains import Rect  # noqa: E402
from orbitplane.expressions import parse  # noqa: E402
from orbitplane.orbits import OrbitPolicy  # noqa: E402
from orbitplane.raster import GridSpec  # noqa: E402
from reference_orbit import assert_kernel_matches  # noqa: E402


@st.composite
def quadratic_grids(draw):
    """z^2 + c on a grid of at most 24 x 12 starts, with a drawn policy.

    c ranges over the Mandelbrot set's neighbourhood, so grids mix escapes,
    cycles of many periods and orbits that neither escape nor lock.
    """
    c = complex(draw(st.floats(-2.0, 0.5)), draw(st.floats(-1.2, 1.2)))
    x0, y0 = draw(st.floats(-2.0, 1.0)), draw(st.floats(-1.5, 0.5))
    width, height = draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 2.0))
    grid = GridSpec(Rect(x0, x0 + width, y0, y0 + height),
                    draw(st.integers(2, 24)), draw(st.integers(2, 12)))
    policy = OrbitPolicy(budget=draw(st.integers(1, 60)),
                         escape_radius=draw(st.sampled_from([2.5, 1e6])),
                         cycle_tol=draw(st.floats(1e-3, 0.1)),
                         cycle_window=draw(st.integers(1, 8)))
    return parse(f"z^2 + ({c.real!r} + {c.imag!r}i)"), grid, policy


@settings(max_examples=30, deadline=None, database=None)
@given(quadratic_grids())
def test_kernel_matches_reference_on_random_grids(case):
    f, grid, policy = case
    assert_kernel_matches(f, grid.pixel_centers().ravel(), policy)

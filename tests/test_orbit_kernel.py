"""The orbit kernel against the reference loop where the Re z hull matters.

``orbits._iterate`` scans a start for near-returns only while its Re z is
within ``cycle_tol`` of a running hull of its history window; the hull is
rebuilt from the history rows every ``cycle_window`` steps and moves with
the start when the working set is compacted.  These grids lock long after
the first window, so a hull that forgets a row, follows another start or
loses the tolerance makes some start lock late, at another lag, or never.
"""

import hashlib
import warnings

import numpy as np
import pytest

from orbitplane.domains import Rect
from orbitplane.expressions import parse
from orbitplane.orbits import _KINDS, CYCLE_LOCKED, OrbitPolicy, _iterate
from orbitplane.raster import GridSpec
from reference_orbit import assert_kernel_matches

RABBIT = "z^2 + (-0.1226 + 0.7449i)"
LOGISTIC = "4*z*(1-z)"

# SHA-256 of the kind, step and period arrays of _iterate (uint8, int32,
# int32) for z^2 - 1.3107 on [-1.5,1.5]x[-0.3,0.3] at 200x40 with budget 64
# and cycle window 8, hashed before the hull prefilter existed.
PERIOD_4_STOPS_SHA256 = (
    "7761e0410321c3b660c70c4a6e9f8963eebc03f096310a7f6f13edc14282a0c1")


@pytest.mark.parametrize("source, window, nx, ny, policy", [
    ("z^2 - 1.3107", Rect(-1.5, 1.5, -0.3, 0.3), 40, 20,
     OrbitPolicy(budget=64, cycle_window=8)),
    (RABBIT, Rect(-1.5, 1.5, -1.5, 1.5), 20, 20,
     OrbitPolicy(budget=40, cycle_window=3)),
    # escaping orbits live ten steps before |z| passes 1e308, and the
    # largest real parts may differ by more than the largest float
    (RABBIT, Rect(-1.5, 1.5, -1.5, 1.5), 20, 20,
     OrbitPolicy(budget=64, escape_radius=1e308, cycle_tol=1e-6,
                 cycle_window=8)),
    # coincidental near-returns that fail to confirm, at every lag
    (LOGISTIC, Rect(0.0, 1.0, -1e-6, 1e-6), 200, 2,
     OrbitPolicy(budget=40, escape_radius=4.0, cycle_tol=0.1,
                 cycle_window=8)),
    (LOGISTIC, Rect(0.0, 1.0, -1e-6, 1e-6), 200, 2,
     OrbitPolicy(budget=40, escape_radius=4.0, cycle_tol=0.1,
                 cycle_window=3)),
    # real parts approach the attracting fixed point monotonically, so
    # each new Re z lies just outside the hull, within the tolerance
    ("z^2 + 0.2", Rect(-1.0, 1.0, -0.5, 0.5), 20, 10,
     OrbitPolicy(budget=60, cycle_window=1)),
], ids=["period-4-window-8", "rabbit-window-3", "rabbit-window-8-huge-radius",
        "logistic-window-8", "logistic-window-3", "fixed-point-window-1"])
def test_kernel_matches_reference_on_late_locking_grids(source, window, nx, ny,
                                                        policy):
    starts = GridSpec(window, nx, ny).pixel_centers().ravel()
    stops = assert_kernel_matches(parse(source), starts, policy)
    locked = stops.kind == _KINDS.index(CYCLE_LOCKED)
    assert np.count_nonzero(stops.step[locked] > 2 * policy.cycle_window)


def test_late_locking_grid_stops_pinned():
    grid = GridSpec(Rect(-1.5, 1.5, -0.3, 0.3), 200, 40)
    stops = _iterate(parse("z^2 - 1.3107"), grid.pixel_centers().ravel(),
                     OrbitPolicy(budget=64, cycle_window=8))
    digest = hashlib.sha256(stops.kind.tobytes() + stops.step.tobytes()
                            + stops.period.tobytes()).hexdigest()
    assert digest == PERIOD_4_STOPS_SHA256


def test_real_parts_near_the_largest_float_raise_no_warning():
    # Re z goes 0.6e308, -0.9e308, 1.35e308: differences of real parts
    # overflow, and the orbit escapes only when |z| reaches 1.7e308
    policy = OrbitPolicy(escape_radius=1.7e308)
    starts = np.array([0.6e308, 0.6e308 + 1j, -0.5e308, 1e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_kernel_matches(parse("-1.5*z"), starts, policy)

"""Property test: the batched winding kernel agrees with the atan2 oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from orbitplane.curves import SampledCurve, winding_numbers  # noqa: E402
from orbitplane.errors import AliasingUnresolved, CurveTooClose  # noqa: E402
from reference_winding import reference_winding  # noqa: E402

coordinate = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)

# A distinct offset per coordinate.  Drawn values are often small
# integers, whose segments see probes under exact right angles; there the
# two aliasing tests differ only by the rounding of atan2.  The offsets
# move every such tie far beyond rounding.
JITTER = 1e-7 * np.sqrt(np.arange(64) + 0.5)


@st.composite
def winding_cases(draw):
    """A closed polygon of 3 to 16 vertices and up to 3 x 4 probes.

    Probes share ordinates by rows, as on a lattice; some rows sit level
    with a vertex and some probes on a vertex itself.
    """
    n = draw(st.integers(3, 16))
    xs = np.array([draw(coordinate) for _ in range(n)]) + JITTER[:n]
    ys = np.array([draw(coordinate) for _ in range(n)]) + JITTER[16:16 + n]
    points = xs + 1j * ys
    assume(np.all(points != np.roll(points, -1)))
    rows = draw(st.lists(st.one_of(coordinate.map(lambda y: y + JITTER[32]),
                                   st.sampled_from(ys.tolist())),
                         min_size=1, max_size=3))
    xs = draw(st.lists(coordinate, min_size=1, max_size=4))
    probes = np.array([complex(x + JITTER[40 + k], y)
                       for y in rows for k, x in enumerate(xs)])
    if draw(st.booleans()):
        probes[draw(st.integers(0, probes.size - 1))] = points[draw(st.integers(0, n - 1))]
    min_clearance = draw(st.sampled_from([1e-300, 1e-9, 1e-2]))
    max_points = draw(st.sampled_from([n, 64, 2_000]))
    return SampledCurve(points), probes, min_clearance, max_points


@settings(max_examples=150, deadline=None)
@given(winding_cases())
def test_kernel_matches_oracle(case):
    curve, probes, min_clearance, max_points = case
    want, error = [], None
    for w in probes:
        try:
            want.append(reference_winding(curve, complex(w), min_clearance,
                                          max_points))
        except (CurveTooClose, AliasingUnresolved) as exc:
            error = type(exc)
            break
    if error is None:
        got = winding_numbers(curve, probes, min_clearance, max_points)
        assert got.tolist() == want
    else:
        with pytest.raises(error) as raised:
            winding_numbers(curve, probes, min_clearance, max_points)
        if error is CurveTooClose:
            assert raised.value.partial.tolist() == want

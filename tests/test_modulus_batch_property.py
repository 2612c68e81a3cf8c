"""Property test: batches of circles on random programs, against the
one-circle-at-a-time oracle."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orbitplane.expressions import parse  # noqa: E402
from orbitplane.modulus import _extremum  # noqa: E402
from reference_modulus import reference_extremum  # noqa: E402

from test_expression_property import EXPRESSIONS  # noqa: E402

# Radii up to 1e300, where exp and high powers saturate.
_RADII = st.one_of(st.sampled_from([1.0, 2.5, 700.0, 1e20, 1e300]),
                   st.floats(min_value=1e-3, max_value=60.0))


@settings(max_examples=120, deadline=None)
@given(source=EXPRESSIONS, radii=st.lists(_RADII, min_size=1, max_size=6),
       maximize=st.booleans(), n_coarse=st.sampled_from([64, 256]),
       tol=st.sampled_from([1e-10, 1e-4, 1.0]))
def test_batch_equals_oracle_on_random_programs(source, radii, maximize,
                                                n_coarse, tol):
    f = parse(source)
    got = _extremum(f, radii, n_coarse, tol, maximize)
    assert got == [reference_extremum(f, r, n_coarse, tol, maximize)
                   for r in radii]
    # tol 1 is at least twice the step of both grids: no refinement
    assert all(ext.refined == (2 * 2 * math.pi / n_coarse > tol)
               for ext in got)

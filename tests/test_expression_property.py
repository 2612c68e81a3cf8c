"""Property test: random expressions, program against the tree oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orbitplane.expressions import parse  # noqa: E402

from test_expression_program import POINTS, assert_matches_oracle  # noqa: E402

_REALS = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5", "1e-300", "1e300", "1e308"]),
    st.floats(min_value=0, max_value=1e3).map(repr))
_LITERALS = st.one_of(_REALS, _REALS.map(lambda text: text + "i"))
_NONZERO = st.sampled_from(["2", "0.25", "3i", "(1-2i)", "(2^3)", "1e-300"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda u: f"(-{u})"),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.integers(min_value=0, max_value=7)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, _NONZERO).map(lambda t: f"({t[0]}) / {t[1]}"),
    )


EXPRESSIONS = st.recursive(st.one_of(st.just("z"), _LITERALS), _extend,
                           max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS)
def test_random_expression_matches_tree_oracle(source):
    assert_matches_oracle(parse(source), POINTS[::7])

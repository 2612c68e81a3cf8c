"""The postfix program against the expression-tree oracle.

Each expression's program is rebuilt as a tree of the reference node
classes (``reference_expressions.py``); values and overflow flags must
agree bit for bit, and the printed sources exactly, for f, f' and f''.
"""

import numpy as np
import pytest

from orbitplane.errors import ExprSyntaxError, NonEntireError
from orbitplane.expressions import (_ARITY, _DEPTH, _DERIVATIVE, _ENCLOSE,
                                    _EXACT, _RUN, _SOURCE, MAX_DEPTH,
                                    evaluate_with_overflow, parse)
from orbitplane.scenarios import EX51_SOURCE, EX52_SOURCE, SINZ_SOURCE

from reference_expressions import tree_evaluate_with_overflow, tree_of


def _points() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    typical = 3 * (rng.normal(size=500) + 1j * rng.normal(size=500))
    wide = 1e3 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    edges = [0, -0.0, 1e-320, 700, 710, -710, 1e6, -1e6, 1e154, 1e6j,
             1e308, -1e308, 1e308j, 1e308 + 1e308j, np.nan, np.inf, -np.inf,
             complex(np.nan, 1), complex(1, np.inf), complex(-np.inf, np.nan)]
    return np.concatenate([typical, wide, np.array(edges, dtype=complex)])


POINTS = _points()

# (source, canonical f, f', f''), as printed by the expression trees.
PINNED = [
    (EX51_SOURCE,
     '((((-10.0) * z) * exp((-z))) - (0.5 * z))',
     '((((-10.0) * exp((-z))) + (((-10.0) * z) * (exp((-z)) * (-1.0)))) - 0.5)',
     '(((-10.0) * (exp((-z)) * (-1.0))) + (((-10.0) * (exp((-z)) * (-1.0)))'
     ' + (((-10.0) * z) * ((exp((-z)) * (-1.0)) * (-1.0)))))'),
    (SINZ_SOURCE, 'sin(z)', 'cos(z)', '(-sin(z))'),
    (EX52_SOURCE, '(cos(z) + z)', '((-sin(z)) + 1.0)', '(-cos(z))'),
    ('z^2', '(z^2)', '(2.0 * (z^1))', '2.0'),
    ('z^0', '(z^0)', '0.0', '0.0'),
    ('exp(z)^0', '(exp(z)^0)', '0.0', '0.0'),
    ('(z+1)^0*z', '(((z + 1.0)^0) * z)', '((z + 1.0)^0)', '0.0'),
    ('z^1', '(z^1)', '1.0', '0.0'),
    ('-0', '(-0.0)', '0.0', '0.0'),
    ('0*z', '(0.0 * z)', '0.0', '0.0'),
    ('z - -2', '(z - (-2.0))', '1.0', '0.0'),
    ('(1-2i)*z^3 - exp(z/4)',
     '(((1.0 - 2.0i) * (z^3)) - exp((z / 4.0)))',
     '(((1.0 - 2.0i) * (3.0 * (z^2))) - (exp((z / 4.0)) * (1.0 / 4.0)))',
     '(((1.0 - 2.0i) * (3.0 * (2.0 * (z^1)))) - (((exp((z / 4.0)) * (1.0 / 4.0))'
     ' * (1.0 / 4.0)) + (exp((z / 4.0)) * (0.0 / 4.0))))'),
    ('2.5i*z + 3i', '((2.5i * z) + 3.0i)', '2.5i', '0.0'),
    ('z/(1+i)', '(z / (1.0 + 1.0i))', '(1.0 / (1.0 + 1.0i))',
     '(0.0 / (1.0 + 1.0i))'),
    ('sin(z)^60', '(sin(z)^60)', '((60.0 * (sin(z)^59)) * cos(z))',
     '(((60.0 * ((59.0 * (sin(z)^58)) * cos(z))) * cos(z))'
     ' + ((60.0 * (sin(z)^59)) * (-sin(z))))'),
    ('1e308*10', '(1e+308 * 10.0)', '0.0', '0.0'),
    ('z/(2+2)', '(z / 4.0)', '(1.0 / 4.0)', '(0.0 / 4.0)'),
    ('cos(-z)*z^3',
     '(cos((-z)) * (z^3))',
     '((((-sin((-z))) * (-1.0)) * (z^3)) + (cos((-z)) * (3.0 * (z^2))))',
     '(((((-(cos((-z)) * (-1.0))) * (-1.0)) * (z^3)) + (((-sin((-z))) * (-1.0))'
     ' * (3.0 * (z^2)))) + ((((-sin((-z))) * (-1.0)) * (3.0 * (z^2)))'
     ' + (cos((-z)) * (3.0 * (2.0 * (z^1))))))'),
]


def assert_matches_oracle(f, points=POINTS):
    """f, f' and f'' agree with their trees in source, values and flags."""
    for g in (f, f.derivative(), f.derivative().derivative()):
        tree = tree_of(g.program)
        assert tree._source() == g.to_source()
        assert tree_of(g.derivative().program) == tree._derivative()
        want, want_flags = tree_evaluate_with_overflow(tree, points)
        got, got_flags = evaluate_with_overflow(g, points)
        assert got.tobytes() == want.tobytes(), g
        assert got_flags.tobytes() == want_flags.tobytes(), g
        for z in points[::37]:
            assert (repr(evaluate_with_overflow(g, z))
                    == repr(tree_evaluate_with_overflow(tree, z)))


@pytest.mark.parametrize("source, canonical, first, second", PINNED,
                         ids=[row[0] for row in PINNED])
def test_program_prints_the_pinned_sources(source, canonical, first, second):
    f = parse(source)
    assert f.to_source() == canonical
    assert f.derivative().to_source() == first
    assert f.derivative().derivative().to_source() == second
    assert parse(canonical) == f  # printing round-trips


@pytest.mark.parametrize("source", [row[0] for row in PINNED])
def test_program_matches_tree_oracle(source):
    assert_matches_oracle(parse(source))


def test_evaluation_leaves_its_input_alone():
    z = POINTS.copy()
    for source in ("z", "z^1", "(z^1)^1", "-z"):
        values, _ = evaluate_with_overflow(parse(source), z)
        assert not np.shares_memory(values, z)
    assert z.tobytes() == POINTS.tobytes()


def test_zeroth_power_never_evaluates_its_base():
    # exp(1e6) overflows; x^0 is 1 without looking at x
    assert evaluate_with_overflow(parse("exp(z)^0"), 1e6) == (1 + 0j, False)
    values, flags = evaluate_with_overflow(parse("exp(z)^0 * z"),
                                           np.array([1.0, 1e6]))
    assert values.tolist() == [1, 1e6] and not flags.any()


def test_zeroth_power_base_counts_toward_depth():
    deep = "+".join(["z"] * (MAX_DEPTH + 1))
    with pytest.raises(ExprSyntaxError):
        parse(f"({deep})^0")
    assert parse("(" + "+".join(["z"] * (MAX_DEPTH - 2)) + ")^0")(7) == 1


def test_zeroth_power_base_reading_z_is_not_constant():
    with pytest.raises(NonEntireError, match="denominator must be a constant"):
        parse("1/(z^0)")
    with pytest.raises(NonEntireError, match="exponent must be a constant"):
        parse("z^(z^0)")
    assert parse("z/(2^0)").to_source() == "(z / 1.0)"


def test_every_rules_table_has_a_rule_for_each_opcode():
    for rules in (_RUN, _ENCLOSE, _EXACT, _SOURCE, _DERIVATIVE, _DEPTH):
        assert rules.keys() == _ARITY.keys()

import cmath
import math

import numpy as np
import pytest

from orbitplane.errors import ExprSyntaxError, NonEntireError
from orbitplane.expressions import (MAX_DEPTH, FunctionExpression, evaluate,
                                    evaluate_with_overflow, parse)

PI = math.pi

SCENARIO_SOURCES = [
    "z^2",
    "sin(z)",
    "cos(z) + z",
    "-10*z*exp(-z) - 0.5*z",
]


def test_grammar_identity_cos_plus_z():
    f = parse("cos(z)+z")
    assert f.to_source() == "(cos(z) + z)"
    assert f(0) == 1 + 0j


def test_example_function_parses():
    f = parse("-10*z*exp(-z)-0.5*z")
    assert isinstance(f, FunctionExpression)
    # f(4 n pi i) = -42 n pi i, n = 1
    value = f(4j * PI)
    expect = -42j * PI
    assert abs(value - expect) / abs(expect) < 1e-12


def test_sin_standard_identity():
    f = parse("sin(z)")
    assert abs(f(1j) - 1j * math.sinh(1.0)) < 1e-12


@pytest.mark.parametrize("source", ["1/z", "1/(z+1)", "z^-1", "z^(0.5)",
                                    "z^z", "z^(1.5)", "1/0", "z/(2-2)"])
def test_non_entire_rejected(source):
    with pytest.raises(NonEntireError):
        parse(source)


@pytest.mark.parametrize("source", ["2 +", "cos z", "(1+2", "3 @ 4",
                                    "2 z", "", "foo(z)", ")z("])
def test_syntax_errors(source):
    with pytest.raises(ExprSyntaxError) as err:
        parse(source)
    assert err.value.position >= 0


def test_syntax_error_reports_position_and_expectation():
    with pytest.raises(ExprSyntaxError) as err:
        parse("cos z")
    assert err.value.position == 4
    assert "(" in err.value.expected


def test_constant_folding_of_denominator_and_exponent():
    f = parse("z/(2+2)")
    assert f(8) == 2 + 0j
    g = parse("z^(1+1)")
    assert g(3) == 9 + 0j


def test_complex_literals():
    assert parse("i")(0) == 1j
    assert parse("2i")(0) == 2j
    assert parse("1+2i")(0) == 1 + 2j
    assert parse("(2+3i)*z")(1j) == (2 + 3j) * 1j
    assert parse("2.5e-1")(0) == 0.25 + 0j


def test_integer_powers_by_squaring():
    f = parse("z^10")
    z = 1.1 + 0.3j
    assert f(z) == ((z * z) * (z * z) * z) ** 2 or abs(f(z) - z**10) < 1e-12
    assert parse("z^0")(5) == 1 + 0j
    assert parse("z^1")(5 - 2j) == 5 - 2j


def test_evaluate_on_arrays_matches_scalars():
    f = parse("cos(z) + z")
    zs = np.array([0j, 1j, 2.0 + 0j, 3 + 4j])
    arr = evaluate(f, zs)
    for k, z in enumerate(zs):
        assert arr[k] == f(complex(z))


def test_overflow_saturates_and_flags():
    f = parse("exp(z)")
    value, flagged = evaluate_with_overflow(f, 1e6)
    assert flagged
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert abs(value) >= 1e300
    values, flags = evaluate_with_overflow(f, np.array([1.0, 1e6]))
    assert list(flags) == [False, True]
    assert np.isfinite(values).all()


def test_overflowing_constant_saturates():
    value, flagged = evaluate_with_overflow(parse("1e308*10"), 0)
    assert flagged and math.isfinite(value.real)


@pytest.mark.parametrize("source", ["1e999", "z*1e400", "z^(1e400)", "1e400i"])
def test_non_finite_literal_rejected(source):
    with pytest.raises(ExprSyntaxError):
        parse(source)


@pytest.mark.parametrize("source", [
    "z^(1e308*10)", "z/(1e308*10)", "z^(2^2000)", "z/(1e200*1e200*0)",
    "z^(exp(1000)*0)",
])
def test_overflowing_folded_constant_rejected(source):
    # exponents and denominators are folded at parse time; a fold that
    # overflows anywhere must not become its saturated stand-in
    with pytest.raises(ExprSyntaxError):
        parse(source)


def test_large_finite_folded_constants_accepted():
    assert parse("z^(2^10)").to_source() == "(z^1024)"
    assert parse("z/(1e300*10)").to_source() == "(z / 1e+301)"


@pytest.mark.parametrize("source", [
    "+".join(["z"] * 3000),
    "exp(" * 400 + "z" + ")" * 400,
    "(" * 2000 + "z" + ")" * 2000,
    "-" * 3000 + "z",
    "z/(" + "+".join(["1"] * 3000) + ")",
    "*".join(["z"] * (MAX_DEPTH + 1)),
], ids=["long-sum", "nested-calls", "nested-parens", "negations",
        "long-denominator", "one-past-limit"])
def test_too_deep_expression_rejected(source):
    with pytest.raises(ExprSyntaxError):
        parse(source)


def test_expression_at_depth_limit_accepted():
    levels = MAX_DEPTH - 1
    f = parse("sin(" * levels + "z" + ")" * levels)
    x, slope = 0.5, 1.0
    for _ in range(levels):
        slope *= math.cos(x)
        x = math.sin(x)
    assert f(0.5) == pytest.approx(x, rel=1e-12)
    assert f.derivative()(0.5) == pytest.approx(slope, rel=1e-12)


def test_evaluation_is_deterministic():
    f = parse("-10*z*exp(-z) - 0.5*z")
    z = 0.37 - 2.1j
    assert f(z) == f(z)
    a, _ = evaluate_with_overflow(f, np.full(5, z))
    assert len(set(a.tolist())) == 1


@pytest.mark.parametrize("source,expected", [
    ("cos(z) + z", lambda z: 1 - cmath.sin(z)),
    ("z^2", lambda z: 2 * z),
    ("exp(-z)", lambda z: -cmath.exp(-z)),
])
def test_derivative_examples(source, expected):
    d = parse(source).derivative()
    for z in (0.3 + 0.1j, -1.2 + 0.7j, 2.0 + 0j):
        assert abs(d(z) - expected(z)) < 1e-12


def test_derivative_against_central_differences():
    # 1000 random points in |z| <= 5 per scenario function.
    rng = np.random.default_rng(42)
    h = 1e-6
    for source in SCENARIO_SOURCES:
        f = parse(source)
        d = f.derivative()
        r = 5.0 * np.sqrt(rng.uniform(0, 1, 1000))
        t = rng.uniform(0, 2 * PI, 1000)
        z = r * np.exp(1j * t)
        fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        exact = evaluate(d, z)
        rel = np.abs(exact - fd) / np.maximum(np.abs(fd), 1e-12)
        assert float(rel.max()) < 1e-5, source


def test_print_parse_round_trip():
    rng = np.random.default_rng(7)
    for source in SCENARIO_SOURCES + ["(1-2i)*z^3 - exp(z/4)", "-z", "sin(cos(z))"]:
        f = parse(source)
        g = parse(f.to_source())
        z = rng.normal(size=100) + 1j * rng.normal(size=100)
        a = evaluate(f, z)
        b = evaluate(g, z)
        assert np.array_equal(a, b), source


def test_second_derivative_chains():
    f = parse("sin(z)")
    d2 = f.derivative().derivative()
    assert abs(d2(0.7) + math.sin(0.7)) < 1e-12


def test_immutability():
    f = parse("z^2")
    with pytest.raises(AttributeError):
        f.root = None

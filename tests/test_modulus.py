import math
import warnings

import numpy as np
import pytest

from orbitplane.errors import InvalidRadius
from orbitplane.expressions import parse
from orbitplane.modulus import (DIVERGES, NOT_DIVERGING, UNDECIDED,
                                derive_disc_sequence, iterate_min_modulus,
                                max_modulus, min_modulus)

PI = math.pi

# Frozen 10^6-angle brute-force oracle values (dense uniform sampling).
SIN_M1 = 0.8414709848078965        # m(1) for sin z
SIN_M2 = 0.7456241416655579        # m(m(1))
COSZ_M1 = 0.45969769413186023      # m(1) for cos z + z
COSZ_M2 = 0.4364889705649081
SIN_MAX1 = 1.1752011936438014      # max |sin| on |z| = 1


def test_squared_modulus_is_constant():
    f = parse("z^2")
    ext = min_modulus(f, 2.0)
    assert ext.value == pytest.approx(4.0, rel=1e-12)
    assert max_modulus(f, 2.0).value == pytest.approx(4.0, rel=1e-12)


def test_sin_min_bounded_by_real_axis():
    # the circle |z| = 3 meets the real axis where |sin| <= |sin 3|
    ext = min_modulus(parse("sin(z)"), 3.0)
    assert ext.value <= abs(math.sin(3.0)) + 1e-9


def test_example_function_min_at_large_radius():
    f = parse("-10*z*exp(-z) - 0.5*z")
    ext = min_modulus(f, 100.0)
    assert ext.value <= abs(complex(f(100.0))) + 1e-9
    assert ext.value == pytest.approx(50.0, rel=1e-2)


def test_max_modulus_cos_plus_z_lower_bound():
    ext = max_modulus(parse("cos(z) + z"), 2 * PI)
    assert ext.value >= math.cosh(2 * PI) - 2 * PI


def test_sin_max_against_frozen_oracle():
    ext = max_modulus(parse("sin(z)"), 1.0)
    assert ext.value == pytest.approx(SIN_MAX1, rel=1e-6)


def test_min_is_at_most_max_and_extremum_attained():
    rng = np.random.default_rng(3)
    f = parse("cos(z) + z")
    for r in rng.uniform(0.2, 10.0, 5):
        lo = min_modulus(f, float(r))
        hi = max_modulus(f, float(r))
        assert lo.value <= hi.value
        for ext in (lo, hi):
            at = abs(complex(f(r * np.exp(1j * ext.arg_extremum))))
            assert at == pytest.approx(ext.value, rel=1e-9, abs=1e-12)
            assert 0.0 <= ext.arg_extremum < 2 * PI
            assert ext.samples_used >= 4096


def test_circle_symmetry_for_real_coefficients():
    # real coefficients: the modulus on the circle is conjugation
    # symmetric, so both half circles attain the same minimum
    for source in ("sin(z)", "cos(z) + z", "-10*z*exp(-z) - 0.5*z"):
        f = parse(source)
        for r in (0.7, 2.0, 5.5):
            th = PI * np.arange(20000) / 20000
            upper = np.abs(f(r * np.exp(1j * th)))
            lower = np.abs(f(r * np.exp(1j * (th + PI))))
            assert abs(upper.min() - np.abs(f(r * np.exp(-1j * th))).min()) < 1e-9
            assert min(upper.min(), lower.min()) == pytest.approx(
                min_modulus(f, r).value, rel=1e-4)


def test_invalid_radius():
    f = parse("z^2")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidRadius):
            min_modulus(f, bad)
    with pytest.raises(ValueError):
        min_modulus(f, 1.0, n_coarse=32)


def test_iterate_squaring_diverges():
    rep = iterate_min_modulus(parse("z^2"), 2.0, n_max=50, blow_up=1e100)
    assert rep.verdict == DIVERGES
    np.testing.assert_allclose(rep.sequence[:4], [2, 4, 16, 256], rtol=1e-9)
    assert len(rep.sequence) - 1 <= 10
    assert rep.witness["value"] > 1e100


def test_iterate_sin_never_diverges():
    # m(r) <= 1 for every r (the circle meets the real axis), so the
    # sequence cannot blow up; the slow parabolic decay toward 0 is not
    # detectable as a revisit at practical budgets, so UNDECIDED is also
    # an acceptable verdict here.
    rep = iterate_min_modulus(parse("sin(z)"), 1.0, n_max=50)
    assert rep.verdict in (NOT_DIVERGING, UNDECIDED)
    assert max(rep.sequence) <= 1.0
    assert all(b < a for a, b in zip(rep.sequence, rep.sequence[1:]))


def test_iterate_revisit_detection():
    # |z^0| = 1 on every circle: the map is constant at 1, an immediate
    # revisit of the start value from r0 = 1
    rep = iterate_min_modulus(parse("z^0"), 1.0, n_max=10)
    assert rep.verdict == NOT_DIVERGING
    assert rep.witness.get("revisits") == 0


def test_iterate_floor_detection():
    # f = z has m(r) = r; scaling down by 1e-30 crosses the floor fast
    rep = iterate_min_modulus(parse("z/1e30"), 1.0, n_max=10)
    assert rep.verdict == NOT_DIVERGING
    assert "floor" in rep.witness


def test_sequence_consistency_invariant():
    f = parse("cos(z) + z")
    rep = iterate_min_modulus(f, 1.0, n_max=4)
    for a, b in zip(rep.sequence, rep.sequence[1:]):
        assert min_modulus(f, a).value == pytest.approx(b, rel=1e-9)


def test_disc_sequence_squaring():
    seq = derive_disc_sequence(parse("z^2"), 2.0, 4)
    radii = [d.radius for d in seq.discs]
    np.testing.assert_allclose(radii, [2, 4, 16, 256], rtol=1e-9)
    assert all(d.center == 0j for d in seq.discs)


def test_disc_sequence_sin_against_frozen_oracle():
    seq = derive_disc_sequence(parse("sin(z)"), 1.0, 3)
    radii = [d.radius for d in seq.discs]
    assert radii[0] == 1.0
    assert radii[1] == pytest.approx(SIN_M1, rel=1e-6)
    assert radii[2] == pytest.approx(SIN_M2, rel=1e-6)


def test_disc_sequence_cos_plus_z_against_frozen_oracle():
    seq = derive_disc_sequence(parse("cos(z) + z"), 1.0, 3)
    radii = [d.radius for d in seq.discs]
    assert radii[1] == pytest.approx(COSZ_M1, rel=1e-6)
    assert radii[2] == pytest.approx(COSZ_M2, rel=1e-6)


def test_disc_sequence_stops_with_iteration():
    # the iteration collapses below the floor after one step, so only
    # the surviving radii become discs and the report explains why
    seq = derive_disc_sequence(parse("z/1e30"), 1.0, 5)
    assert len(seq.discs) == 2
    assert seq.discs[0].radius == 1.0
    assert seq.discs[1].radius == pytest.approx(1e-30, rel=1e-9)
    assert seq.report.verdict == NOT_DIVERGING
    assert "floor" in seq.report.witness


# --- refinement from the symbolic derivative --------------------------------

EX51_SOURCE = "-10*z*exp(-z) - 0.5*z"
OLD_TERNARY_CALLS = 87  # 1 coarse + 43 rounds x 2 of the ternary search


def _dense_moduli(fn, r, n=1 << 16):
    theta = 2 * PI * np.arange(n) / n
    return np.abs(fn(r * np.exp(1j * theta)))


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Counts evaluate calls made by the modulus layer (f and f')."""
    from orbitplane import modulus
    calls = []
    original = modulus.evaluate

    def counting(f, z):
        calls.append(np.size(z))
        return original(f, z)

    monkeypatch.setattr(modulus, "evaluate", counting)
    return calls


def test_sin_symmetric_brackets_converge_quickly(evaluate_calls):
    # both minima of |sin| on |z| = 3 sit on grid angles (0 and pi); a
    # false-position step landing on a bracket end must count as converged
    ext = min_modulus(parse("sin(z)"), 3.0)
    assert len(evaluate_calls) <= 16
    assert ext.evaluations == len(evaluate_calls)
    assert ext.stop == "converged"
    assert ext.value == pytest.approx(abs(math.sin(3.0)), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zero_on_the_circle_needs_no_refinement_round(k):
    # sin has zeros at angles 0 and pi on |z| = k*pi; at pi the slope is
    # rounding noise and the first false-position step lands on the grid
    # point itself, which ends the bracket without another evaluation
    ext = min_modulus(parse("sin(z)"), k * PI)
    assert ext.evaluations == 2
    assert ext.value < 1e-14


def test_false_position_stays_superlinear():
    # Illinois steps move the far end of a stalled bracket; plain false
    # position or bisection needs about a third more calls on these
    f = parse("cos(z) + z")
    calls = [min_modulus(f, r).evaluations for r in np.linspace(14, 30, 33)]
    assert np.mean(calls) <= 10.5


def test_coarse_tol_is_met_in_at_most_two_rounds():
    # the step after a false-position step near x lands tol/2 past it,
    # which brackets the root within tol
    f = parse("cos(z) + z")
    for r in np.linspace(0.5, 30, 30):
        for extremum in (min_modulus, max_modulus):
            assert extremum(f, r, tol=1e-4).evaluations <= 6


def test_plateau_costs_no_more_than_ternary_search(evaluate_calls):
    f = parse("z^2")
    for extremum in (min_modulus, max_modulus):
        evaluate_calls.clear()
        ext = extremum(f, 2.0)
        assert len(evaluate_calls) == ext.evaluations <= OLD_TERNARY_CALLS
        assert ext.value == pytest.approx(4.0, rel=1e-12)
        assert ext.samples_used >= 4096


@pytest.mark.parametrize("source", [EX51_SOURCE, "sin(z)", "cos(z) + z"])
def test_scenario_functions_refine_in_few_calls(source, evaluate_calls):
    f = parse(source)
    for r in (0.7, 2.5, 6.0, 13.0, 29.0):
        for extremum in (min_modulus, max_modulus):
            evaluate_calls.clear()
            ext = extremum(f, r)
            assert ext.evaluations == len(evaluate_calls) <= 20
            assert ext.stop == "converged"


def test_ex51_max_at_large_radius_no_warning():
    # |f| * |f'| * r is astronomically large here; the slope must stay
    # finite without tripping any floating-point warning
    f = parse(EX51_SOURCE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ext = max_modulus(f, 60.0)
    dense = _dense_moduli(lambda z: -10 * z * np.exp(-z) - 0.5 * z, 60.0)
    assert ext.value == pytest.approx(dense.max(), rel=1e-9)
    assert ext.stop == "converged"


@pytest.mark.parametrize("r", [50.0, 400.0, 700.0])
def test_huge_and_tiny_moduli_refine_without_overflow(r):
    # |exp(z e^{0.3i})| = exp(r cos(t + 0.3)): extrema exp(+-r) off the
    # coarse grid, where |f| * |f'| * r overflows (or underflows)
    f = parse(f"exp(z*({math.cos(0.3)!r}+{math.sin(0.3)!r}i))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hi, lo = max_modulus(f, r), min_modulus(f, r)
    assert hi.value == pytest.approx(math.exp(r), rel=1e-12)
    assert lo.value == pytest.approx(math.exp(-r), rel=1e-12)
    # refinement stops once |f| is resolved to 2^-40, which at r = 50
    # leaves the angle known to about sqrt(2 * 2^-40 / r) = 2e-7
    assert hi.arg_extremum == pytest.approx(2 * PI - 0.3, abs=1e-6)
    assert lo.arg_extremum == pytest.approx(PI - 0.3, abs=1e-6)


def test_bracket_with_several_slope_sign_changes_keeps_its_best_point():
    # a spike ~0.03 rad wide: coarse brackets near it hold several local
    # minima, and a search that let its best point drop out of the
    # bracket ends above even a dense sampling
    c = complex(math.cos(0.1), math.sin(0.1))
    f = parse(f"2*z - 1.7*({c.real!r}+{c.imag!r}i)"
              f"*((1 + z*({c.real!r}-{c.imag!r}i))/2)^3000")

    def oracle(z):
        return 2 * z - 1.7 * c * ((1 + z * c.conjugate()) / 2) ** 3000

    with np.errstate(all="ignore"):
        for r in (1.2, 1.5, 2.0, 2.8633020173601635):
            dense = _dense_moduli(oracle, r)
            assert min_modulus(f, r).value <= dense.min() * (1 + 1e-9)
    # the true minimum on |z| = 1 is 0.3, at the spike's tip
    assert min_modulus(f, 1.0).value == pytest.approx(0.3, rel=1e-9)


def test_complex_coefficients_against_dense_oracle():
    f = parse("exp(z) + (0.3+2i)*z^3")

    def oracle(z):
        return np.exp(z) + (0.3 + 2j) * z ** 3

    for r in (0.4, 1.3, 3.7, 8.0, 17.5):
        dense = _dense_moduli(oracle, r)
        lo, hi = min_modulus(f, r), max_modulus(f, r)
        # never worse than the dense sampling, and close to it
        assert lo.value <= dense.min() * (1 + 1e-9) + 1e-12
        assert hi.value >= dense.max() * (1 - 1e-9)
        assert lo.value == pytest.approx(dense.min(), rel=1e-6)
        assert hi.value == pytest.approx(dense.max(), rel=1e-6)
        for ext in (lo, hi):
            at = abs(oracle(r * np.exp(1j * ext.arg_extremum)))
            assert at == pytest.approx(ext.value, rel=1e-12)
            assert ext.stop == "converged"
            assert ext.evaluations <= 20


def test_round_budget_reports_budget_stop(monkeypatch):
    from orbitplane import modulus
    f = parse("cos(z) + z")
    full = min_modulus(f, 2.5)
    monkeypatch.setattr(modulus, "_MAX_ROUNDS", 1)
    ext = min_modulus(f, 2.5)
    assert ext.stop == "budget"
    assert ext.evaluations == 4  # coarse f, grid f', one round of f and f'
    assert full.stop == "converged" and full.evaluations > 4
    assert full.value <= ext.value


def test_iteration_records_argument_of_each_minimum():
    f = parse("cos(z) + z")
    rep = iterate_min_modulus(f, 1.0, n_max=4)
    assert len(rep.arguments) == len(rep.sequence) - 1
    for r, arg, m in zip(rep.sequence, rep.arguments, rep.sequence[1:]):
        assert abs(complex(f(r * np.exp(1j * arg)))) == pytest.approx(m, rel=1e-12)


def test_overflowed_modulus_saturates():
    # |(1+i) z| overflows on |z| = 1.7e308 although f itself stays finite
    f = parse("(1+i)*z")
    assert max_modulus(f, 1.7e308).value == np.finfo(np.float64).max

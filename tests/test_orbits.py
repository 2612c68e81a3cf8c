import math
import warnings

import numpy as np
import pytest

from orbitplane import orbits
from orbitplane.domains import Disc, Rect
from orbitplane.expressions import parse
from orbitplane.orbits import (ATTRACTING, BUDGET_EXHAUSTED, CYCLE_LOCKED,
                               ESCAPED, INDIFFERENT, OrbitPolicy, PointClass,
                               REPELLING, SUPERATTRACTING, classify_point,
                               find_fixed_points, iterate_orbit)
from reference_newton import full_budget_fixed_points
from reference_orbit import reference_orbit

PI = math.pi


def test_policy_validation():
    with pytest.raises(ValueError):
        OrbitPolicy(budget=0)
    with pytest.raises(ValueError):
        OrbitPolicy(escape_radius=-1.0)
    with pytest.raises(ValueError):
        OrbitPolicy(cycle_tol=0.0)
    with pytest.raises(ValueError):
        OrbitPolicy(cycle_window=0)


def test_squaring_escapes_at_step_five():
    v = iterate_orbit(parse("z^2"), 2.0, OrbitPolicy(), keep_trace=True)
    assert v.kind == ESCAPED
    assert v.escape_step == 5
    assert v.escape_modulus == 2.0 ** 32
    assert v.escape_modulus >= OrbitPolicy().escape_radius


def test_superattracting_fixed_point_locks():
    v = iterate_orbit(parse("cos(z) + z"), PI / 2, OrbitPolicy())
    assert v.kind == CYCLE_LOCKED
    assert v.period == 1
    assert abs(v.representative - PI / 2) < 1e-9


def test_sin_real_start_stays_bounded():
    v = iterate_orbit(parse("sin(z)"), 1.0, OrbitPolicy(budget=200))
    assert v.kind != ESCAPED
    assert v.max_modulus <= 1.0


def test_cycle_confirmation_requires_replay():
    # period-2 cycle of z -> -z from 1: near-returns at lag 2 confirm
    v = iterate_orbit(parse("-z"), 1.0, OrbitPolicy())
    assert v.kind == CYCLE_LOCKED
    assert v.period == 2


def test_overflow_counts_as_escape():
    v = iterate_orbit(parse("exp(z)"), 800.0, OrbitPolicy())
    assert v.kind == ESCAPED
    assert v.escape_step == 1
    assert v.escape_modulus >= OrbitPolicy().escape_radius


def test_orbit_determinism_and_trace():
    f = parse("cos(z) + z")
    a = iterate_orbit(f, 0.3 + 0.2j, OrbitPolicy(), keep_trace=True)
    b = iterate_orbit(f, 0.3 + 0.2j, OrbitPolicy(), keep_trace=True)
    assert a == b
    assert a.trace[0] == 0.3 + 0.2j


@pytest.mark.parametrize("source, z0, policy, kind", [
    ("z^2", 2.0, OrbitPolicy(), ESCAPED),
    ("exp(z)", 800.0, OrbitPolicy(), ESCAPED),
    # overflow flags the step although the value it saturates into is 0
    ("exp(-exp(z))", 800.0, OrbitPolicy(), ESCAPED),
    # escapes on the very step its near-return from step 1 falls due
    ("2*z", 0.1, OrbitPolicy(escape_radius=0.3, cycle_tol=0.5), ESCAPED),
    ("z^2 - 1", 0.3 + 0.1j, OrbitPolicy(), CYCLE_LOCKED),
    ("cos(z) + z", 3 * PI / 2 + 1e-3, OrbitPolicy(), CYCLE_LOCKED),
    ("sin(z)", 1.0, OrbitPolicy(budget=50), BUDGET_EXHAUSTED),
])
def test_trace_replays_the_kernel_orbit(source, z0, policy, kind):
    f = parse(source)
    v = iterate_orbit(f, z0, policy, keep_trace=True)
    want = reference_orbit(f, z0, policy, keep_trace=True)
    assert v.kind == kind
    assert (v.escape_step, v.period, v.representative) == \
        (want.escape_step, want.period, want.representative)
    assert v.escape_modulus == pytest.approx(want.escape_modulus, rel=1e-15)
    assert v.trace == want.trace
    if kind == ESCAPED:
        assert len(v.trace) == v.escape_step + 1
        if v.escape_modulus < 1e308:  # else the orbit overflowed
            assert np.abs(v.trace[-1]) == v.escape_modulus
    elif kind == CYCLE_LOCKED:
        assert v.trace[-1 - v.period] == v.representative
        assert abs(v.trace[-1] - v.representative) < policy.cycle_tol
    else:
        assert len(v.trace) == policy.budget + 1
    assert max(np.abs(v.trace)) == v.max_modulus


def test_escape_trace_monotone_for_squaring():
    rng = np.random.default_rng(5)
    f = parse("z^2")
    for _ in range(20):
        z0 = complex(rng.uniform(1.05, 3.0) * np.exp(1j * rng.uniform(0, 2 * PI)))
        v = iterate_orbit(f, z0, OrbitPolicy(), keep_trace=True)
        assert v.kind == ESCAPED
        moduli = [abs(z) for z in v.trace]
        assert all(b > a for a, b in zip(moduli, moduli[1:]))


def test_classify_examples():
    pol = OrbitPolicy()
    assert classify_point(parse("z^2"), 2.0, pol) is PointClass.UNBOUNDED_SUSPECT
    assert classify_point(parse("sin(z)"), 1.0, pol) is PointClass.BOUNDED_SUSPECT
    # frozen by a budget-100000 oracle run: the drift from the repelling
    # fixed point 3 pi/2 + 1e-3 locks onto the superattracting 5 pi/2
    assert classify_point(parse("cos(z) + z"), 3 * PI / 2 + 1e-3,
                          pol) is PointClass.BOUNDED_SUSPECT


def test_classify_undecided_headroom():
    # z + 1 walks to the right: after 200 steps max modulus ~201, far
    # below the escape radius -> bounded suspect at the default policy,
    # undecided with a small escape radius
    f = parse("z + 1")
    assert classify_point(f, 0j, OrbitPolicy()) is PointClass.BOUNDED_SUSPECT
    assert classify_point(f, 0j, OrbitPolicy(escape_radius=1e3)) \
        is PointClass.UNDECIDED


def test_fixed_points_cos_plus_z():
    recs = find_fixed_points(parse("cos(z) + z"), Rect(0.0, 2 * PI, -1.0, 1.0))
    assert len(recs) == 2
    half, three_half = recs
    assert abs(half.location - PI / 2) < 1e-8
    assert abs(half.multiplier) <= 1e-8
    assert half.classification == SUPERATTRACTING
    assert abs(three_half.location - 3 * PI / 2) < 1e-8
    assert abs(three_half.multiplier - 2.0) <= 1e-8
    assert three_half.classification == REPELLING


def test_seed_lattice_above_the_point_budget_is_refused_before_allocating(
        monkeypatch):
    def allocate(*args):
        raise AssertionError("the seed lattice was allocated")

    monkeypatch.setattr(orbits, "_cell_centers", allocate)
    with pytest.raises(ValueError, match="448 x 448 seed lattice exceeds"):
        find_fixed_points(parse("z^2"), Rect(-2, 2, -2, 2), 448)


def test_seed_lattice_at_the_point_budget_runs():
    recs = find_fixed_points(parse("z^2"), Rect(-2, 2, -2, 2), 447, max_newton=8)
    assert np.allclose([r.location for r in recs], [0, 1], atol=1e-9)


def test_fixed_points_squaring():
    recs = find_fixed_points(parse("z^2"), Disc(0j, 2.0))
    locs = sorted((round(r.location.real, 9), round(r.location.imag, 9))
                  for r in recs)
    assert locs == [(0.0, 0.0), (1.0, 0.0)]
    by_loc = {round(r.location.real): r for r in recs}
    assert by_loc[0].classification == SUPERATTRACTING
    assert by_loc[1].classification == REPELLING
    assert abs(by_loc[1].multiplier - 2.0) < 1e-9


def test_fixed_points_sin_indifferent():
    recs = find_fixed_points(parse("sin(z)"), Disc(0j, 1.0))
    assert len(recs) == 1
    rec = recs[0]
    assert abs(rec.location) < 1e-6
    assert rec.classification == INDIFFERENT
    assert abs(abs(rec.multiplier) - 1.0) < 1e-8


def test_fixed_point_residual_invariant():
    f = parse("cos(z) + z")
    for rec in find_fixed_points(f, Rect(0.0, 4 * PI, -1.0, 1.0)):
        assert abs(complex(f(rec.location)) - rec.location) < 1e-10
        assert rec.residual < 1e-10


# Newton retires a seed once a step leaves it bitwise unchanged; the
# records stay those of the full budget.  z + z^4 converges only linearly
# to its quadruple root, so its 183 records come from seeds that never
# settle, and seeds of the others settle or oscillate between neighbours.
@pytest.mark.parametrize("source, region", [
    ("sin(z)", Rect(-10.0, 10.0, -5.0, 5.0)),
    ("cos(z) + z", Rect(0.0, 4 * PI, -1.0, 1.0)),
    ("-10*z*exp(-z) - 0.5*z", Rect(-5.0, 5.0, -10.0, 10.0)),
    ("z + z^4", Rect(-1.0, 1.0, -1.0, 1.0)),
])
def test_retiring_settled_seeds_keeps_the_full_budget_records(source, region):
    f = parse(source)
    want = full_budget_fixed_points(f, region)
    assert want
    assert find_fixed_points(f, region) == want


@pytest.mark.parametrize("source, region", [
    ("1e308*(1+i)*z", Rect(-1.0, 1.0, -1.0, 1.0)),
    ("1e308*z^2", Rect(-1e300, 1e300, -1.0, 1.0)),
])
def test_fixed_points_of_huge_functions_raise_no_warning(source, region):
    # the Newton step, g = f(z) - z and the residual overflow; such seeds
    # are dropped without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = find_fixed_points(parse(source), region)
    assert all(rec.residual < 1e-10 for rec in recs)


def test_attracting_classification():
    # z/2 + 1/4 has the attracting fixed point 1/2 with multiplier 1/2
    recs = find_fixed_points(parse("z/2 + 1/4"), Disc(0j, 2.0))
    assert len(recs) == 1
    assert recs[0].classification == ATTRACTING


def test_empty_region_is_valid():
    recs = find_fixed_points(parse("z + 1"), Rect(-1, 1, -1, 1))
    assert recs == []


def test_ex52_real_seeds_reach_nearest_superattractor():
    # 100 random real seeds in (0, 2 pi) minus the fixed points iterate to
    # within 1e-6 of the nearest superattracting fixed point in 500 steps
    f = parse("cos(z) + z")
    rng = np.random.default_rng(99)
    policy = OrbitPolicy(budget=500, cycle_tol=1e-9)
    seeds = []
    while len(seeds) < 100:
        x = float(rng.uniform(0, 2 * PI))
        if min(abs(x - PI / 2), abs(x - 3 * PI / 2)) > 1e-6:
            seeds.append(x)
    for x in seeds:
        target = PI / 2 if x < 3 * PI / 2 else 5 * PI / 2
        v = iterate_orbit(f, x, policy, keep_trace=True)
        assert min(abs(z - target) for z in v.trace) < 1e-6, x


@pytest.mark.parametrize("source, z0", [("(1+i)*z", 1.5e308),
                                        ("z", 1.5e308 + 1.5e308j)])
def test_overflowed_orbit_modulus_saturates(source, z0):
    verdict = iterate_orbit(parse(source), z0, OrbitPolicy())
    assert verdict.kind == ESCAPED
    assert verdict.escape_modulus == np.finfo(np.float64).max
    assert verdict.max_modulus == np.finfo(np.float64).max

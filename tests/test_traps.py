"""Certified trap discs and the orbit kernel that stops starts in them.

A trap is a closed disc D(c, rho) with |f(z) - c| <= rho on its circle,
so f maps it into itself.  The certifier must prove that, and must fail
where it is false or unprovable: too wide a petal, a petal moved off its
tangency, a tangency at an inexact fixed point, and a parabolic point
with three attracting directions.  The kernel may then stop a start in a
trap, and no class may move.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from orbitplane.domains import Rect
from orbitplane.expressions import parse
from orbitplane.orbits import (_KINDS, _TRAPPED, ATTRACTING, OrbitPolicy,
                               _classes, _iterate, classify_point)
from orbitplane import traps as traps_module
from orbitplane.traps import (PETAL, TrapDisc, _maps_into_itself, _parabolic,
                              _tangency, certified_traps)
from orbitplane.raster import GridSpec, classify_grid

SIN = parse("sin(z)")
SIN_WINDOW = Rect(-10.0, 10.0, -5.0, 5.0)
ESCAPE = 1e6  # the default escape radius
SIN_TANGENCY = _tangency(SIN, 0j)


def _petal(rho):
    return complex(rho), Fraction(rho) ** 2


def test_sin_gets_two_petals_tangent_at_zero():
    traps = certified_traps(SIN, SIN_WINDOW, ESCAPE)
    assert traps == (TrapDisc(1.25 + 0j, 1.25, PETAL),
                     TrapDisc(-1.25 + 0j, 1.25, PETAL))


def test_newton_root_snaps_to_the_exact_parabolic_point():
    tangency = _parabolic(SIN, -1.38e-7 - 5e-10j)
    assert tangency.point == 0 and tangency.k == 2
    assert tangency.a[3] == (Fraction(-1, 6), 0)
    assert set(tangency.directions) == {1.0, -1.0}


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5])
def test_sin_petals_certify_up_to_one_and_a_half(rho):
    assert _maps_into_itself(SIN, *_petal(rho), SIN_TANGENCY)


def test_too_wide_a_petal_fails():
    # sampled excess 0.29 near theta = 0.52 at rho = 1.7
    assert not _maps_into_itself(SIN, *_petal(1.7), SIN_TANGENCY)


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_petal_moved_off_its_tangency_fails(shift):
    c, rho2 = complex(1.0 + shift), Fraction(1) ** 2
    assert not _maps_into_itself(SIN, c, rho2, SIN_TANGENCY)
    assert not _maps_into_itself(SIN, c, rho2)


def test_unsnapped_newton_root_fails():
    p = -1.3813974877904275e-07
    c = complex(p + 1.0)
    rho2 = (Fraction(c.real) - Fraction(p)) ** 2
    assert _tangency(SIN, complex(p)) is None
    assert not _maps_into_itself(SIN, c, rho2)


def test_three_attracting_directions_never_certify():
    f = parse("z - z^4")
    assert _parabolic(f, 1e-9 + 0j) is None
    assert certified_traps(f, Rect(-2.0, 2.0, -1.0, 1.0), ESCAPE) == ()


@pytest.mark.parametrize("b", ["0.05", "-0.05", "0.03i"])
def test_fourth_order_term_is_part_of_the_tangency_bound(b):
    f = parse(f"z - z^3/6 + {b}*z^4")
    traps = certified_traps(f, Rect(-2.0, 2.0, -1.0, 1.0), ESCAPE)
    assert len(traps) == 2 and all(t.kind == PETAL for t in traps)


def test_each_parabolic_point_is_proved_once(monkeypatch):
    """The disc proofs reuse the tangency that _parabolic proved."""
    cases = [(SIN, SIN_WINDOW),
             (parse("z - z^3/6 + 0.03i*z^4"), Rect(-2.0, 2.0, -1.0, 1.0)),
             (parse("z + z^2"), Rect(-2.0, 1.0, -1.5, 1.5))]
    want = [certified_traps.__wrapped__(f, window, ESCAPE) for f, window in cases]
    prove, maps_into_itself = _tangency, _maps_into_itself

    def proved_again(f, q):
        raise AssertionError(f"tangency at {q} proved again")

    def guarded(*args):
        monkeypatch.setattr(traps_module, "_tangency", proved_again)
        try:
            return maps_into_itself(*args)
        finally:
            monkeypatch.setattr(traps_module, "_tangency", prove)

    monkeypatch.setattr(traps_module, "_maps_into_itself", guarded)
    got = [certified_traps.__wrapped__(f, window, ESCAPE) for f, window in cases]
    assert got == want and all(want)


def test_one_attracting_direction_gets_one_petal():
    traps = certified_traps(parse("z + z^2"), Rect(-2.0, 1.0, -1.5, 1.5), ESCAPE)
    assert [t.kind for t in traps] == [PETAL]
    assert traps[0].center.real < 0


def test_attracting_fixed_points_get_discs():
    traps = certified_traps(parse("cos(z) + z"), SIN_WINDOW, ESCAPE)
    assert [t.kind for t in traps] == [ATTRACTING] * 3
    assert [round(t.center.real / (np.pi / 2)) for t in traps] == [-3, 1, 5]


def test_certified_discs_hold_at_high_precision():
    """An independent check of every certificate on 2,000 circle points."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    cases = [(SIN, SIN_WINDOW), (parse("cos(z) + z"), SIN_WINDOW),
             (parse("z - z^3/6 + 0.03i*z^4"), Rect(-2.0, 2.0, -1.0, 1.0))]
    for f, window in cases:
        for trap in certified_traps(f, window, ESCAPE):
            c = mpmath.mpc(trap.center)
            for k in range(2000):
                z = c + trap.radius * mpmath.expjpi(mpmath.mpf(k) / 1000)
                w = {"sin(z)": mpmath.sin(z), "(cos(z) + z)": mpmath.cos(z) + z}.get(
                    f.to_source(), z - z ** 3 / 6 + 0.03j * z ** 4)
                assert abs(w - c) <= trap.radius * (1 + mpmath.mpf(10) ** -30)


def test_kernel_stops_starts_in_traps_and_keeps_their_class():
    starts = GridSpec(SIN_WINDOW, 160, 80).pixel_centers().ravel()
    policy = OrbitPolicy()
    traps = certified_traps(SIN, SIN_WINDOW, ESCAPE)
    plain = _iterate(SIN, starts.copy(), policy)
    trapped = _iterate(SIN, starts.copy(), policy, traps)
    caught = trapped.kind == _TRAPPED
    assert np.count_nonzero(caught) > 1000
    assert np.all(trapped.step[caught] < plain.step[caught])
    assert np.array_equal(_classes(plain.kind, plain.max_modulus, policy),
                          _classes(trapped.kind, trapped.max_modulus, policy))
    assert np.array_equal(plain.kind[~caught], trapped.kind[~caught])


def test_traps_too_large_for_the_escape_radius_are_not_used():
    starts = np.array([0.5 + 0j, 1.0 + 0.1j])
    trap = (TrapDisc(1.25 + 0j, 1.25, PETAL),)
    near = _iterate(SIN, starts.copy(), OrbitPolicy(escape_radius=250.0), trap)
    assert not np.any(near.kind == _TRAPPED)
    far = _iterate(SIN, starts.copy(), OrbitPolicy(escape_radius=251.0), trap)
    assert np.all(far.kind == _TRAPPED)


# Every pixel of the 160x80 sin z grid agrees too, but single orbits take
# 3 ms each there, so the suite takes every second row and column.
@pytest.mark.parametrize("source, window, stride", [
    ("sin(z)", SIN_WINDOW, 2), ("cos(z) + z", SIN_WINDOW, 1)])
def test_single_orbits_agree_with_the_trapping_grid(source, window, stride):
    f = parse(source)
    grid = GridSpec(window, 160, 80)
    policy = OrbitPolicy()
    pc = classify_grid(f, grid, policy)
    assert pc.trapped > 1000 and pc.traps
    centers = grid.pixel_centers()[::stride, ::stride]
    single = np.array([[classify_point(f, z, policy) for z in row]
                       for row in centers])
    assert np.array_equal(single, pc.classes[::stride, ::stride])


def test_an_escape_by_overflow_is_not_undone_by_a_trap():
    # exp saturates for Re z > 709, so f(950) evaluates to about 475, inside
    # the certified disc D(0, 500), yet the step overflowed: the start escapes
    f = parse("0.5*z + 1e-320*exp(z)")
    grid = GridSpec(Rect(-1000.0, 1000.0, -1000.0, 1000.0), 20, 20)
    policy = OrbitPolicy()
    pc = classify_grid(f, grid, policy)
    assert pc.traps and pc.trapped
    single = np.array([[classify_point(f, z, policy) for z in row]
                       for row in grid.pixel_centers()])
    assert np.array_equal(single, pc.classes)
    stops = _iterate(f, np.array([950.0 + 0j]), policy, pc.traps)
    assert _KINDS[stops.kind[0]] == "ESCAPED"


def test_history_longer_than_the_budget_changes_no_stop():
    f = parse("z^2 - 1.3107")
    starts = GridSpec(Rect(-1.5, 1.5, -0.3, 0.3), 40, 8).pixel_centers().ravel()
    short = _iterate(f, starts.copy(), OrbitPolicy(budget=64, cycle_window=65))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = _iterate(f, starts.copy(), OrbitPolicy(budget=64, cycle_window=10**9))
    for a, b in zip(short, huge):
        assert np.array_equal(a, b)
    assert np.any(short.kind == _KINDS.index("CYCLE_LOCKED"))


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 10**600), Fraction(2),
                               Fraction(10**600), Fraction(1e-320)])
def test_square_root_bounds_hold_beyond_the_float_range(q):
    # a coefficient like 1e-300 has a square no float holds; stepping ulp
    # by ulp from float(q) = 0 would never end
    from orbitplane.traps import _sqrt_above, _sqrt_below
    lo, hi = Fraction(_sqrt_below(q)), _sqrt_above(q)
    assert lo ** 2 <= q <= hi ** 2
    assert hi - lo <= 4 * abs(hi) * Fraction(2) ** -52 + Fraction(2) ** -1070

"""The batched extremum kernel and the lockstep iteration against the
one-circle-at-a-time oracle in ``reference_modulus``."""

import math

import numpy as np
import pytest

from orbitplane import modulus
from orbitplane.errors import InvalidRadius
from orbitplane.expressions import parse
from orbitplane.modulus import (DIVERGES, MAX_COARSE, NOT_DIVERGING,
                                UNDECIDED, _extremum, _slope,
                                iterate_min_modulus, iterate_min_modulus_many,
                                min_modulus)
from reference_modulus import (_slope as reference_slope, reference_extremum,
                               reference_iterate_min_modulus)
from test_modulus import EX51_SOURCE, evaluate_calls  # noqa: F401 (fixture)

HUGE = float(np.finfo(np.float64).max)


@pytest.mark.parametrize("source", [EX51_SOURCE, "sin(z)", "cos(z) + z",
                                    "z^2", "exp(z) + (0.3+2i)*z^3"])
@pytest.mark.parametrize("maximize", [False, True])
def test_batch_equals_one_circle_at_a_time(source, maximize):
    f = parse(source)
    radii = [0.7, 2.5, 2.5, 6.0, 13.0, 29.0, 60.0, 700.0]
    for n_coarse, tol in ((4096, 1e-10), (64, 1e-10), (256, 1e-4)):
        got = _extremum(f, radii, n_coarse, tol, maximize)
        assert got == [reference_extremum(f, r, n_coarse, tol, maximize)
                       for r in radii]


def test_budget_stop_is_per_circle(monkeypatch):
    # cos z + z needs more than one round at 2.5; z^2 is a plateau that
    # needs none, so only the first circle runs out of budget
    monkeypatch.setattr(modulus, "_MAX_ROUNDS", 1)
    f = parse("cos(z) + z")
    first, second = _extremum(f, [2.5, 1e-3], 4096, 1e-10, False)
    assert (first.stop, first.evaluations) == ("budget", 4)
    assert second.stop == "converged"


def test_slope_saturates_like_nan_to_num():
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e-300])
    values = np.array([HUGE + 1j, 1j, -HUGE, 1.0, 2.0 + 1j, 1e300, 3.0])
    units = np.exp(1j * np.linspace(0, 6, special.size))
    derivs = np.zeros((3, special.size), dtype=np.complex128)
    derivs.real[::2] = special  # real, imaginary and both parts special
    derivs.imag[1:] = special
    for sign in (1.0, -1.0):
        for deriv in derivs:
            with np.errstate(all="ignore"):
                got = _slope(values, deriv, units, 1e-300, sign)
                want = reference_slope(values, deriv, units, 1e-300, sign)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_lockstep_starts_end_at_different_steps():
    f = parse("z^2")
    r0s = [0.5, 1.0, 2.0, 1.0 + 1e-7]
    reports = iterate_min_modulus_many(f, r0s, n_max=10)
    assert [(r.verdict, len(r.sequence) - 1) for r in reports] == [
        (NOT_DIVERGING, 6), (NOT_DIVERGING, 1), (DIVERGES, 8), (UNDECIDED, 10)]
    assert "floor" in reports[0].witness and "revisits" in reports[1].witness
    assert reports == [reference_iterate_min_modulus(f, r0, n_max=10)
                       for r0 in r0s]
    assert reports == [iterate_min_modulus(f, r0, n_max=10) for r0 in r0s]


def test_lockstep_ex51_equals_one_start_at_a_time():
    f = parse(EX51_SOURCE)
    r0s = [float(r0) for r0 in range(1, 51, 3)]
    reports = iterate_min_modulus_many(f, r0s, n_max=10, blow_up=1e50)
    assert reports == [reference_iterate_min_modulus(f, r0, n_max=10,
                                                     blow_up=1e50)
                       for r0 in r0s]


def test_empty_batch():
    assert iterate_min_modulus_many(parse("z"), []) == []


@pytest.mark.parametrize("r0s, bad, kwargs", [
    ([1.0, 2.0, -1.0], -1.0, {}),
    ([1.0, math.nan, 3.0], math.nan, {}),
    ([math.inf], math.inf, {}),
    ([1.0, 0.0], 0.0, {}),
    ([1.0, 2e50], 2e50, {"blow_up": 1e50}),
    ([1.0, 2.0], 1.0, {"n_max": 0}),
])
def test_invalid_start_raises_its_own_error_before_any_evaluation(
        evaluate_calls, r0s, bad, kwargs):
    f = parse("z^2")
    with pytest.raises((InvalidRadius, ValueError)) as single:
        iterate_min_modulus(f, bad, **kwargs)
    evaluate_calls.clear()
    with pytest.raises(single.type) as batch:
        iterate_min_modulus_many(f, r0s, **kwargs)
    assert str(batch.value) == str(single.value)
    assert evaluate_calls == []


def test_n_coarse_above_the_cap_is_refused_before_sampling(monkeypatch,
                                                           evaluate_calls):
    def no_circle(n):
        raise AssertionError("a unit circle was built")

    monkeypatch.setattr(modulus, "_unit_circle", no_circle)
    with pytest.raises(ValueError, match="at most"):
        min_modulus(parse("z"), 1.0, n_coarse=MAX_COARSE + 1)
    assert evaluate_calls == []


def test_lockstep_memory_does_not_grow_with_the_batch():
    # 50 ex51 circles hold 3,864 coarse brackets in the first step, 186 of
    # them unresolved; sampling and the first slopes run per circle, and
    # resolved brackets stay out of the batch, so the peak stays near one
    # circle's (~0.4 MB traced) where batching every bracket took ~2 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    f = parse(EX51_SOURCE)
    min_modulus(f, 1.0)  # build the cached unit circle and f' first
    tracemalloc.start()
    try:
        iterate_min_modulus_many(f, [float(r0) for r0 in range(1, 51)],
                                 n_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

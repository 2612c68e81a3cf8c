"""The orbit kernel against the reference loop on grids that stress its scan.

``orbits._iterate`` scans every alive start with no pending return for
near-returns against its history window, and compacts the working set
as starts stop.  These grids pin what that scan must get right: starts
that lock long after the first window, so a history row that is lost
or follows another start makes some start lock late, at another lag,
or never; coincidental near-returns that fail to confirm, at every lag;
a monotone approach to a fixed point at window 1; and real parts near
the largest float, whose differences overflow.  The kernel runs over
chunks of starts and keeps a short history for each chunk's first steps;
no chunk size and no head length may move a stop.
"""

import dataclasses
import functools
import hashlib
import warnings

import numpy as np
import pytest

from orbitplane import orbits
from orbitplane.domains import Rect
from orbitplane.expressions import parse
from orbitplane.orbits import (_KINDS, _TRAPPED, CYCLE_LOCKED, MAX_HISTORY,
                               OrbitPolicy, _classes, _iterate, iterate_orbit)
from orbitplane.raster import MAX_PIXELS, GridSpec, classify_grid
from orbitplane.traps import certified_traps
from reference_orbit import assert_kernel_matches

RABBIT = "z^2 + (-0.1226 + 0.7449i)"
LOGISTIC = "4*z*(1-z)"

# SHA-256 of the kind, step and period arrays of _iterate (uint8, int32,
# int32) for z^2 - 1.3107 on [-1.5,1.5]x[-0.3,0.3] at 200x40 with budget 64
# and cycle window 8.
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
    # real parts approach the attracting fixed point monotonically, and
    # the window holds only the previous point
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


# Grids whose sizes leave a partial last chunk for chunks of 7 and 4096
# starts: the period-4 grid above (8,000 starts) and the trapped sin z
# grid at 400x200 (80,000 starts, more than one default chunk).
CHUNK_GRIDS = {
    "period-4": ("z^2 - 1.3107", Rect(-1.5, 1.5, -0.3, 0.3), 200, 40,
                 OrbitPolicy(budget=64, cycle_window=8)),
    "sin-400": ("sin(z)", Rect(-10.0, 10.0, -5.0, 5.0), 400, 200,
                OrbitPolicy()),
}


@functools.cache
def default_chunk_run(name):
    """The grid's function, traps, starts and default-chunk stops."""
    source, window, nx, ny, policy = CHUNK_GRIDS[name]
    f = parse(source)
    traps = certified_traps(f, window, policy.escape_radius)
    starts = GridSpec(window, nx, ny).pixel_centers().ravel()
    return f, traps, starts, _iterate(f, starts.copy(), policy, traps)


# Small chunks run one kernel loop per chunk, so they take a contiguous
# run of starts about the middle row instead of the whole grid.
@pytest.mark.parametrize("chunk, span", [(1, 300), (7, 2001), (4096, None)])
@pytest.mark.parametrize("name", CHUNK_GRIDS)
def test_stops_do_not_depend_on_the_chunk_size(monkeypatch, name, chunk, span):
    f, traps, starts, want = default_chunk_run(name)
    policy = CHUNK_GRIDS[name][-1]
    lo = 0 if span is None else starts.size // 2 - span // 2
    hi = starts.size if span is None else lo + span
    assert (hi - lo) % chunk or chunk == 1  # a partial last chunk
    monkeypatch.setattr(orbits, "_CHUNK", chunk)
    z = starts[lo:hi].copy()
    got = _iterate(f, z, policy, traps)
    for field, a, b in zip(got._fields, got, want):
        assert np.array_equal(a, b[lo:hi]), field
    # Each chunk's slice of the starts is iterated in place exactly as a
    # batch of that chunk alone leaves it.
    assert np.count_nonzero(z != starts[lo:hi])
    monkeypatch.undo()
    for c0 in sorted({0, (hi - lo - 1) // chunk * chunk}):
        alone = starts[lo + c0:min(lo + c0 + chunk, hi)].copy()
        _iterate(f, alone, policy, traps)
        assert np.array_equal(z[c0:c0 + chunk], alone)


# classify_grid streams the kernel: each chunk's centers are made when it
# starts and its stops become classes before the next chunk runs.  No
# chunk size may move a class or the trapped count from those of the
# stops that _iterate collects over the whole grid.
@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("name", CHUNK_GRIDS)
def test_grid_classes_do_not_depend_on_the_chunk_size(monkeypatch, name, chunk):
    f, traps, _, stops = default_chunk_run(name)
    _, window, nx, ny, policy = CHUNK_GRIDS[name]
    monkeypatch.setattr(orbits, "_CHUNK", chunk)
    pc = classify_grid(f, GridSpec(window, nx, ny), policy)
    assert pc.traps == traps
    assert np.array_equal(pc.classes.ravel(),
                          _classes(stops.kind, stops.max_modulus, policy))
    assert pc.trapped == np.count_nonzero(stops.kind == _TRAPPED)


# A chunk keeps a short history for its first _HEAD steps and only then
# the whole window, for the starts still alive.  Heads 1 and 3 regrow on
# both grids (windows 8 and 32); a head of 40 covers both windows, so
# nothing regrows.  No head length may move a stop.
@pytest.mark.parametrize("head", [1, 3, 40])
@pytest.mark.parametrize("name", CHUNK_GRIDS)
def test_stops_do_not_depend_on_the_head_length(monkeypatch, name, head):
    f, traps, starts, want = default_chunk_run(name)
    monkeypatch.setattr(orbits, "_HEAD", head)
    got = _iterate(f, starts.copy(), CHUNK_GRIDS[name][-1], traps)
    for field, a, b in zip(got._fields, got, want):
        assert np.array_equal(a, b), field


# Coincidental near-returns at every lag read every row of the history,
# so a row that regrowing loses or moves makes a stop differ from the
# reference loop's.
@pytest.mark.parametrize("head", [1, 3, 5])
def test_kernel_matches_reference_after_regrowing(monkeypatch, head):
    monkeypatch.setattr(orbits, "_HEAD", head)
    starts = GridSpec(Rect(0.0, 1.0, -1e-6, 1e-6), 200, 2).pixel_centers()
    assert_kernel_matches(parse(LOGISTIC), starts.ravel(),
                          OrbitPolicy(budget=40, escape_radius=4.0,
                                      cycle_tol=0.1, cycle_window=8))


@pytest.mark.parametrize("name", CHUNK_GRIDS)
def test_budget_below_the_head_matches_a_regrown_history(monkeypatch, name):
    # the default head never regrows a window that the budget cuts short
    f, traps, starts, _ = default_chunk_run(name)
    policy = dataclasses.replace(CHUNK_GRIDS[name][-1],
                                 budget=orbits._HEAD - 2)
    want = _iterate(f, starts.copy(), policy, traps)
    monkeypatch.setattr(orbits, "_HEAD", 1)
    got = _iterate(f, starts.copy(), policy, traps)
    for field, a, b in zip(got._fields, got, want):
        assert np.array_equal(a, b), field


def test_single_orbit_locking_after_the_head_keeps_its_verdict(monkeypatch):
    f, _, starts, stops = default_chunk_run("period-4")
    policy = CHUNK_GRIDS["period-4"][-1]
    late = stops.kind == _KINDS.index(CYCLE_LOCKED)
    late &= stops.step > 2 * orbits._HEAD
    k = int(np.flatnonzero(late)[0])
    verdict = iterate_orbit(f, starts[k], policy)
    assert (verdict.kind, verdict.period, verdict.representative) == \
        (CYCLE_LOCKED, stops.period[k], stops.representative[k])
    for head in (1, 40):
        monkeypatch.setattr(orbits, "_HEAD", head)
        assert iterate_orbit(f, starts[k], policy) == verdict


def test_real_parts_near_the_largest_float_raise_no_warning():
    # Re z goes 0.6e308, -0.9e308, 1.35e308: differences of real parts
    # overflow, and the orbit escapes only when |z| reaches 1.7e308
    policy = OrbitPolicy(escape_radius=1.7e308)
    starts = np.array([0.6e308, 0.6e308 + 1j, -0.5e308, 1e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_kernel_matches(parse("-1.5*z"), starts, policy)


def test_history_above_the_cap_is_refused_before_it_is_allocated():
    # 10^9 rows of one start would ask numpy for 16 GB
    policy = OrbitPolicy(budget=10**9, cycle_window=10**9)
    with pytest.raises(ValueError, match="above the cap"):
        _iterate(parse("z"), np.ones(1, dtype=np.complex128), policy)


def test_default_policy_on_the_largest_grid_fits_the_history_cap():
    policy = OrbitPolicy()
    rows = min(policy.cycle_window, policy.budget + 1)
    assert rows * MAX_PIXELS == 40_960_000 <= MAX_HISTORY

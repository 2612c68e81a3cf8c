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
the survivors of many chunks then share one pool for the rest of the
budget.  No chunk size, head length or pool may move a stop.
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
from orbitplane.traps import PETAL, TrapDisc, certified_traps
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
# starts and its stops become classes before the next chunk runs; the
# classes of its survivors, placeholders until then, are overwritten when
# their pool runs.  No chunk size may move a class or the trapped count
# from those of the stops that _iterate collects over the whole grid.
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
# the whole window, for the starts still alive, in a pool or their own.
# Heads 1 and 3 hand shorter histories than the window over on both grids
# (windows 8 and 32); a head of 40 covers both windows.  No head length
# may move a stop.
@pytest.mark.parametrize("head", [1, 3, 40])
@pytest.mark.parametrize("name", CHUNK_GRIDS)
def test_stops_do_not_depend_on_the_head_length(monkeypatch, name, head):
    f, traps, starts, want = default_chunk_run(name)
    monkeypatch.setattr(orbits, "_HEAD", head)
    got = _iterate(f, starts.copy(), CHUNK_GRIDS[name][-1], traps)
    for field, a, b in zip(got._fields, got, want):
        assert np.array_equal(a, b), field


# Coincidental near-returns at every lag read every row of the history,
# so a row that the hand-off after the head loses or moves makes a stop
# differ from the reference loop's.
@pytest.mark.parametrize("head", [1, 3, 5])
def test_kernel_matches_reference_after_regrowing(monkeypatch, head):
    monkeypatch.setattr(orbits, "_HEAD", head)
    starts = GridSpec(Rect(0.0, 1.0, -1e-6, 1e-6), 200, 2).pixel_centers()
    assert_kernel_matches(parse(LOGISTIC), starts.ravel(),
                          OrbitPolicy(budget=40, escape_radius=4.0,
                                      cycle_tol=0.1, cycle_window=8))


@pytest.mark.parametrize("name", CHUNK_GRIDS)
def test_budget_below_the_head_matches_a_regrown_history(monkeypatch, name):
    # the default head never hands over a window that the budget cuts short
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


def streamed(f, starts, policy, traps=()):
    """The stops of ``_stream`` over a copy of ``starts``, collected as
    ``_iterate`` does, and what it yielded in order: None for a chunk, the
    size of a pool."""
    z = starts.copy()
    stops = orbits._empty_stops(z.size)
    log = []
    for where, part in orbits._stream(f, z.size, lambda lo, hi: z[lo:hi],
                                      policy, traps):
        log.append(None if isinstance(where, slice) else where.size)
        for whole, p in zip(stops, part):
            whole[where] = p
    return stops, log


def room(n, policy):
    """The starts a pool holds: as many whole windows as fit the head."""
    rows = min(policy.cycle_window, policy.budget + 1)
    return min(rows, orbits._HEAD + 1) * min(n, orbits._CHUNK) // rows


def assert_same_stops(got, want):
    for field, a, b in zip(got._fields, got, want):
        assert np.array_equal(a, b), field


SIN_SMALL = GridSpec(Rect(-10.0, 10.0, -5.0, 5.0), 40, 20)


def test_a_return_pending_at_the_hand_off_is_confirmed_in_the_pool():
    # A rotation by 2 pi / 7 brings each start back near itself after 7
    # steps, before the hand-off at step 8, and the return is confirmed
    # at step 14 in the pool, against the carried target and lag.  The
    # starts on |z| = 20 escape at once, so the four others fit the pool.
    f = parse("z*(0.6234898018587336+0.7818314824680298i)")
    policy = OrbitPolicy(escape_radius=10.0)
    starts = np.concatenate([0.5 * np.exp(1j * np.arange(4)),
                             20 * np.exp(1j * np.arange(60))])
    stops, log = streamed(f, starts, policy)
    assert log == [None, 4] and room(64, policy) >= 4
    assert np.all(stops.kind[:4] == _KINDS.index(CYCLE_LOCKED))
    assert np.all(stops.period[:4] == 7) and np.all(stops.step[:4] == 14)
    assert orbits._HEAD < 14 and 14 - 7 <= orbits._HEAD
    assert_same_stops(assert_kernel_matches(f, starts, policy), stops)


def test_a_pool_runs_mid_stream_when_the_next_survivors_do_not_fit(
        monkeypatch):
    f = parse("sin(z)")
    policy = OrbitPolicy()
    traps = certified_traps(f, SIN_SMALL.window, policy.escape_radius)
    starts = SIN_SMALL.pixel_centers().ravel()
    want = _iterate(f, starts.copy(), policy, traps)
    # 8 starts outlive the head, at most 2 a chunk of 16; a pool holds 4
    monkeypatch.setattr(orbits, "_CHUNK", 16)
    got, log = streamed(f, starts, policy, traps)
    # a pool runs before the last chunk, and once more after it
    last_chunk = max(k for k, x in enumerate(log) if x is None)
    assert any(log[:last_chunk]) and log[-1]
    assert all(x is None or x <= room(starts.size, policy) for x in log)
    assert_same_stops(got, want)
    assert_same_stops(assert_kernel_matches(f, starts, policy, traps), want)


@pytest.mark.parametrize("chunk", [64, None])
def test_a_chunk_whose_survivors_exceed_the_pool_runs_alone(monkeypatch,
                                                            chunk):
    # without traps, many sin z starts outlive the head: more than a pool
    # of 9 / 32 of a chunk holds
    f = parse("sin(z)")
    policy = OrbitPolicy()
    starts = SIN_SMALL.pixel_centers().ravel()
    want = _iterate(f, starts.copy(), policy)
    if chunk:
        monkeypatch.setattr(orbits, "_CHUNK", chunk)
    got, log = streamed(f, starts, policy)
    pooled = sum(x for x in log if x)
    assert pooled < np.count_nonzero(want.step > orbits._HEAD)
    assert_same_stops(got, want)
    assert_same_stops(assert_kernel_matches(f, starts, policy), want)


@pytest.mark.parametrize("budget", [orbits._HEAD - 1, orbits._HEAD])
def test_a_budget_at_or_below_the_head_runs_no_pool(budget):
    f = parse("sin(z)")
    policy = OrbitPolicy(budget=budget)
    traps = certified_traps(f, SIN_SMALL.window, policy.escape_radius)
    starts = SIN_SMALL.pixel_centers().ravel()
    stops, log = streamed(f, starts, policy, traps)
    assert log == [None]
    assert np.count_nonzero(stops.step == budget)
    assert_same_stops(assert_kernel_matches(f, starts, policy, traps), stops)


def test_the_trap_test_reaches_the_far_side_of_a_disc():
    # The kernel tests membership only where |z| lies within the hull
    # max(|center| + radius) of the traps; a start just inside the far
    # side of a disc is caught at once, and so is every start of a ring
    # just inside the whole boundary.
    trap = TrapDisc(1.25 + 0j, 1.25, PETAL)
    ring = trap.center + trap.radius * (1 - 2.0 ** -30) * np.exp(
        2j * np.pi * np.arange(64) / 64)
    stops = assert_kernel_matches(parse("z"), ring, OrbitPolicy(),
                                  traps=(trap,))
    assert np.all(stops.kind == _TRAPPED) and np.all(stops.step == 1)


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


def test_history_cap_counts_the_starts_of_one_chunk(monkeypatch):
    # the kernel holds a window for at most one chunk of starts at a time
    monkeypatch.setattr(orbits, "MAX_HISTORY", 64)
    monkeypatch.setattr(orbits, "_CHUNK", 8)
    starts = np.linspace(-0.9, 0.9, 40).astype(np.complex128)
    assert_kernel_matches(parse(RABBIT), starts,
                          OrbitPolicy(budget=20, cycle_window=8))
    with pytest.raises(ValueError, match="9 rows by 8 starts"):
        _iterate(parse(RABBIT), starts.copy(),
                 OrbitPolicy(budget=20, cycle_window=9))
    with pytest.raises(ValueError, match="65 rows by 1 starts"):
        _iterate(parse(RABBIT), starts[:1].copy(),
                 OrbitPolicy(budget=100, cycle_window=65))


def test_default_policy_on_the_largest_grid_fits_the_history_cap():
    policy = OrbitPolicy()
    rows = min(policy.cycle_window, policy.budget + 1)
    assert rows * MAX_PIXELS == 40_960_000 <= MAX_HISTORY

"""Finite-budget orbit iteration, boundedness heuristics, fixed points.

Whether an orbit is unbounded is undecidable from finitely many iterates,
so classification is a three-way heuristic: a point whose orbit crosses
the escape radius (or overflows) is an unbounded suspect, a confirmed
near-cycle is a bounded suspect, and a full budget with moderate maximum
modulus is bounded-suspect or undecided depending on how much headroom
was left.  Cycle detection confirms every near-return by replaying one
full period before locking, which avoids false positives from slow
spirals.  One batched orbit kernel applies these rules: a single orbit
is a batch of one, and ``raster.classify_grid`` runs it on every pixel,
one chunk of starts at a time: the caller makes each chunk's starts and
takes its stops before the next chunk runs.  A chunk keeps a short
history for its first few steps; the starts still alive then go on in a
pool, the kernel's one tail path, which runs the rest of the budget for
the survivors of many chunks at once, with the whole cycle window carved
from the chunks' idle short history where it fits there.

A grid may also stop a start early in a certified trap: a closed disc
D = D(c, rho) that f provably maps into itself (see ``traps``), so an
orbit that enters D stays there and is bounded; it is not in I+(f).
The kernel stops such a start with the internal kind ``TRAPPED`` (class
bounded suspect) only while its modulus so far, and every point of D,
lie below escape_radius / 100, where the untrapped kernel would also
have called it bounded.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from .curves import _MAX_POINTS
from .domains import DomainSpec, _cell_centers, contains
from .expressions import (LARGEST, FunctionExpression, evaluate,
                          evaluate_with_overflow)

__all__ = [
    "OrbitPolicy",
    "OrbitVerdict",
    "PointClass",
    "FixedPointRecord",
    "ESCAPED",
    "CYCLE_LOCKED",
    "BUDGET_EXHAUSTED",
    "iterate_orbit",
    "classify_point",
    "class_of_verdict",
    "find_fixed_points",
    "SUPERATTRACTING",
    "ATTRACTING",
    "INDIFFERENT",
    "REPELLING",
]

ESCAPED = "ESCAPED"
CYCLE_LOCKED = "CYCLE_LOCKED"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
TRAPPED = "TRAPPED"  # internal: only grids stop starts in traps

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
INDIFFERENT = "indifferent"
REPELLING = "repelling"

# |multiplier| thresholds for fixed-point classification.
_MULT_ZERO_TOL = 1e-8
_MULT_UNIT_TOL = 1e-8

# Newton divides by g' unscaled while its largest part is below 2^this.
_SMITH_SAFE_EXPONENT = 1000

# BUDGET_EXHAUSTED counts as bounded-suspect only with this much headroom.
_BOUNDED_HEADROOM = 100.0

# Stop codes of the orbit kernel index this tuple of verdict kinds.
_KINDS = (BUDGET_EXHAUSTED, ESCAPED, CYCLE_LOCKED, TRAPPED)
_BUDGET, _ESCAPED, _LOCKED, _TRAPPED = range(4)

# History rows per near-return scan call: as many rows of the candidate
# starts as fit in this many elements (at least one), so a few candidates
# are scanned against their whole window in one call.
_SCAN_BLOCK = 4096

# Trap membership and the trap size bound are tested against values
# shrunk by this factor, far more than their rounding.
_SHRINK = 1.0 - 2.0 ** -40

# The kernel compacts its per-start state once fewer than this share of
# the starts in its working prefix are still active.
_COMPACT_FRACTION = 0.9

# The kernel runs over contiguous chunks of at most this many starts,
# so its history holds rows times at most this many entries at a time.
_CHUNK = 2 ** 15

# For its first this many steps a chunk keeps only the history rows they
# write; most starts of a grid stop by then.  The survivors of each chunk
# then join a pool, whose whole window takes the place of those rows
# where it fits there.
_HEAD = 8

# The kernel refuses a history window of more entries than this, counted
# as rows times the starts of one chunk (1 GB of real and imaginary
# parts): beside its head buffer it never holds a larger window at once.
MAX_HISTORY = 2 ** 26


class PointClass(IntEnum):
    UNBOUNDED_SUSPECT = 1
    BOUNDED_SUSPECT = 2
    UNDECIDED = 3


@dataclass(frozen=True)
class OrbitPolicy:
    """Iteration budget and thresholds for orbit classification."""

    budget: int = 200
    escape_radius: float = 1e6
    cycle_tol: float = 1e-9
    cycle_window: int = 32

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not (self.escape_radius > 0 and math.isfinite(self.escape_radius)):
            raise ValueError("escape_radius must be positive and finite")
        if not self.cycle_tol > 0:
            raise ValueError("cycle_tol must be positive")
        if self.cycle_window < 1:
            raise ValueError("cycle_window must be at least 1")


@dataclass(frozen=True)
class OrbitVerdict:
    """Outcome of finite-budget iteration with its evidence.

    ESCAPED: ``escape_step`` and ``escape_modulus`` (at least the escape
    radius; overflow records the largest representable value).
    CYCLE_LOCKED: ``period`` and ``representative`` with
    |f^period(representative) - representative| < cycle_tol confirmed.
    BUDGET_EXHAUSTED: ``max_modulus`` seen along the whole orbit.
    """

    kind: str
    escape_step: Optional[int] = None
    escape_modulus: Optional[float] = None
    period: Optional[int] = None
    representative: Optional[complex] = None
    max_modulus: float = 0.0
    trace: Optional[tuple[complex, ...]] = None


def iterate_orbit(f: FunctionExpression, z0: complex, policy: OrbitPolicy,
                  keep_trace: bool = False) -> OrbitVerdict:
    """Iterate f from z0 until escape, a confirmed cycle, or budget end.

    Total: overflow saturates and counts as escape.  A near-return within
    ``cycle_tol`` of any of the last ``cycle_window`` orbit points only
    locks after the orbit replays one full period and returns again.
    The orbit kernel runs on a batch of one; the trace, if kept, replays
    its evaluations up to the step where it stopped.
    """
    stops = _iterate(f, np.array([z0], dtype=np.complex128), policy)
    kind = _KINDS[stops.kind[0]]
    step = int(stops.step[0])
    trace = [complex(z0)]
    for _ in range(step if keep_trace else 0):
        trace.append(evaluate(f, trace[-1]))
    escaped, locked = kind == ESCAPED, kind == CYCLE_LOCKED
    # |z| of a finite z may overflow; report it saturated, like f itself
    return OrbitVerdict(
        kind, escape_step=step if escaped else None,
        escape_modulus=min(float(stops.escape_modulus[0]), LARGEST) if escaped else None,
        period=int(stops.period[0]) if locked else None,
        representative=complex(stops.representative[0]) if locked else None,
        max_modulus=min(float(stops.max_modulus[0]), LARGEST),
        trace=tuple(trace) if keep_trace else None)


def classify_point(f: FunctionExpression, z0: complex,
                   policy: OrbitPolicy) -> PointClass:
    """Map an orbit verdict onto the unbounded/bounded suspect classes.

    Heuristic: ESCAPED -> unbounded suspect, CYCLE_LOCKED -> bounded
    suspect, BUDGET_EXHAUSTED -> bounded suspect when the orbit stayed
    two orders of magnitude below the escape radius, else undecided.
    """
    verdict = iterate_orbit(f, z0, policy)
    return class_of_verdict(verdict, policy)


def class_of_verdict(verdict: OrbitVerdict, policy: OrbitPolicy) -> PointClass:
    """The point class of an orbit verdict (see :func:`classify_point`)."""
    return PointClass(int(_classes(_KINDS.index(verdict.kind),
                                   verdict.max_modulus, policy)))


def _classes(kind, max_modulus, policy: OrbitPolicy):
    """Point classes of kernel kind codes and max moduli (scalars or arrays)."""
    bounded = (kind == _LOCKED) | (
        max_modulus < policy.escape_radius / _BOUNDED_HEADROOM)
    return np.where(kind == _ESCAPED, PointClass.UNBOUNDED_SUSPECT,
                    np.where(bounded, PointClass.BOUNDED_SUSPECT,
                             PointClass.UNDECIDED))


def _trap_fits(center: complex, radius: float, escape_radius: float) -> bool:
    """Whether every point of the closed disc D(center, radius) lies below
    escape_radius / 100, with room for the rounding of this test."""
    return abs(center) + radius < escape_radius / _BOUNDED_HEADROOM * _SHRINK


# Per-start outcome of the kernel, indexed like its starts: ``kind`` holds
# codes into _KINDS; ``escape_modulus`` means something only where the
# start escaped, ``period`` and ``representative`` only where it locked.
_Stops = namedtuple("_Stops", "kind step escape_modulus period representative "
                    "max_modulus")


def _empty_stops(n: int) -> _Stops:
    return _Stops(np.empty(n, dtype=np.uint8), np.empty(n, dtype=np.int32),
                  np.empty(n), np.empty(n, dtype=np.int32),
                  np.empty(n, dtype=np.complex128), np.empty(n))


def _iterate(f: FunctionExpression, z: np.ndarray, policy: OrbitPolicy,
             traps=()) -> _Stops:
    """The orbit kernel on the 1-D array ``z``: the stops that ``_stream``
    yields, collected into one ``_Stops`` indexed like ``z``.

    ``z`` is the kernel's working space (see ``_stream``); afterwards a
    batch of one holds its start's value at its stop, or at step
    ``_HEAD`` when the start went on in the pool.
    """
    stops = _empty_stops(z.size)
    for where, part in _stream(f, z.size, lambda lo, hi: z[lo:hi], policy,
                               traps):
        for whole, p in zip(stops, part):
            whole[where] = p
    return stops


def _stream(f: FunctionExpression, n: int, starts, policy: OrbitPolicy,
            traps=()):
    """The orbit kernel's chunk loop over ``n`` starts: yields
    ``(where, stops)``, where ``where`` is the slice of a contiguous chunk
    of at most ``_CHUNK`` starts or the index array of a pool.

    ``starts(lo, hi)`` gives a chunk's starts as a 1-D complex array,
    which the kernel iterates and compacts in place as working space; a
    start that goes on in the pool leaves there its value at step
    ``_HEAD``.  Stops are views of buffers that the next chunk or pool
    reuses.

    A chunk runs its first ``_HEAD`` steps with ``_HEAD`` + 1 history
    rows, in one buffer that every chunk reuses.  Each start still alive
    then moves into the pool with its z, max modulus, pending return and
    head rows; its entry in the chunk's stops is a placeholder that the
    pool's entry overwrites.  The pool is the kernel's only tail path: it
    runs the rest of the budget for all its starts at once, with the
    whole window carved from the head buffer, when the next chunk's
    survivors would not fit there and after the last chunk.  A chunk
    whose survivors alone do not fit, a single orbit's among them, runs
    at once as a pool of its own, in a window allocated for it.  Every
    orbit is independent of the others and every pooled start is at the
    same step, so neither the chunk size nor the pool moves a stop.  A
    window of more entries, rows times the starts of one chunk, than
    ``MAX_HISTORY`` raises ValueError before any history is allocated.

    ``traps`` holds certified trap discs (``traps.TrapDisc``), each used
    only if |center| + radius < escape_radius / 100; a start still alive after
    the escape test stops as ``TRAPPED`` once it lies in a used trap and
    its modulus so far is below escape_radius / 100.  Membership is
    tested against the squared radius shrunk by 2^-40, more than the
    rounding of the float test, so an accepted z lies in the closed disc.
    With no traps the kernel does no trap work at all.
    """
    rows = min(policy.cycle_window, policy.budget + 1)
    if rows * min(n, _CHUNK) > MAX_HISTORY:
        raise ValueError(f"history of {rows} rows by {min(n, _CHUNK)} starts "
                         f"is above the cap of {MAX_HISTORY} entries")
    used = [t for t in traps
            if _trap_fits(t.center, t.radius, policy.escape_radius)]
    # No z with |z| above the hull lies in a used trap; its margin is far
    # more than the rounding of |z| and of the hull.
    traps = (max((abs(t.center) + t.radius for t in used), default=0.0)
             * (1.0 + 2.0 ** -20),
             [(t.center.real, t.center.imag, t.radius * t.radius * _SHRINK)
              for t in used])
    # allocated once, so chunks after the first find their pages mapped
    buffer = _empty_stops(min(n, _CHUNK))
    head = np.empty((2, min(rows, _HEAD + 1), min(n, _CHUNK)))
    room = head[0].size // rows  # starts whose whole window fits the head
    pool = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        stops = _Stops(*(a[:hi - lo] for a in buffer))
        for a in stops:
            a.fill(0)
        piece = _run_chunk(f, starts(lo, hi), lo, head, stops, policy, traps)
        yield slice(lo, hi), stops
        if piece:
            if pool and sum(p[0].size for p in pool + [piece]) > room:
                yield _run_pool(f, pool, head, buffer, rows, policy, traps)
                pool = []
            pool.append(piece)
            if piece[0].size > room:
                yield _run_pool(f, pool, head, buffer, rows, policy, traps)
                pool = []
    if pool:
        yield _run_pool(f, pool, head, buffer, rows, policy, traps)


def _run_chunk(f: FunctionExpression, z: np.ndarray, lo: int,
               head: np.ndarray, stops: _Stops, policy: OrbitPolicy,
               traps) -> Optional[tuple]:
    """Run the chunk ``z`` of starts ``lo`` on through the head steps, with
    its history in ``head``.  Its survivors return as a piece for the pool:
    their indices, z, max modulus, pending return and head rows.
    """
    state = (z, np.arange(z.size), np.abs(z), np.full(z.size, -1, dtype=np.int64))
    hist = _carve(head, head.shape[1], z.size)
    hist[0, 0], hist[1, 0] = z.real, z.imag
    keep = _iterate_chunk(f, *state, hist, stops,
                          range(1, min(_HEAD, policy.budget) + 1), policy, traps)
    if keep.size == 0:
        return None
    # a take on each contiguous plane with a non-raising mode writes
    # straight into place
    carried = np.empty((2, head.shape[1], keep.size))
    for src, dst in zip(hist, carried):
        np.take(src, keep, axis=1, out=dst, mode="clip")
    z, orig, max_mod, due = (a[keep] for a in state)
    return (orig + lo, z, max_mod, due, stops.period[orig],
            stops.representative[orig], carried)


def _carve(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """A (2, rows, width) view of the start of ``buffer``, each plane
    C-contiguous."""
    return buffer.reshape(2, -1)[:, :rows * width].reshape(2, rows, width)


def _run_pool(f: FunctionExpression, pool: list, head: np.ndarray,
              buffer: _Stops, rows: int, policy: OrbitPolicy, traps) -> tuple:
    """Run the pieces in ``pool`` through the steps after the head in one
    kernel call, with their stops in ``buffer`` and their whole window
    carved from ``head``, both idle by then, or allocated where it does
    not fit there: ``(where, stops)``."""
    *state, period, representative, carried = zip(*pool)
    where, z, max_mod, due = map(np.concatenate, state)
    stops = _Stops(*(a[:where.size] for a in buffer))
    stops.escape_modulus.fill(0)
    np.concatenate(period, out=stops.period)
    np.concatenate(representative, out=stops.representative)
    window = (_carve(head, rows, where.size) if rows * where.size <= head[0].size
              else np.empty((2, rows, where.size)))
    np.concatenate(carried, axis=2, out=window[:, :head.shape[1]])
    _iterate_chunk(f, z, np.arange(where.size), max_mod, due, window, stops,
                   range(_HEAD + 1, policy.budget + 1), policy, traps)
    return where, stops


# The scan's ``h -= re_cols`` overflows where real parts lie near the
# largest float; an infinite difference is rightly no near-return.
@np.errstate(over="ignore")
def _iterate_chunk(f: FunctionExpression, z: np.ndarray, orig: np.ndarray,
                   max_mod: np.ndarray, pending_due: np.ndarray,
                   hist: np.ndarray, out: _Stops, steps: range,
                   policy: OrbitPolicy, traps: tuple) -> np.ndarray:
    """Iterate the starts ``z`` in place over ``steps``, writing the stops
    of start ``i`` into ``out`` at ``orig[i]``.

    ``max_mod`` holds each start's modulus so far, and ``pending_due`` the
    step at which its pending near-return is due against the target and
    lag already in ``out.representative`` and ``out.period`` (-1 when
    none).  ``hist`` holds the real and imaginary history rows: row s % w
    holds the orbit point at step s, written for every step before
    ``steps``; it needs rows only up to the last step.  ``traps`` holds
    the hull and the (center real, center imag, shrunk squared radius)
    of the traps in use.  Per-start state lives in the prefix ``[:nc]``
    of these arrays and is compacted in place once few enough of those
    starts are still active.  Every alive start with no pending return
    is scanned for near-returns against its history window.  The scan
    gathers the history of those starts in blocks of rows and compares
    real parts first (|Re d| <= |d|, so no return is missed), then the
    complex modulus of the hits; the smallest confirmed lag wins.

    Returns the positions of the starts still alive after the last step;
    when that step is the budget, none: they stop as BUDGET_EXHAUSTED.
    """
    w, tol = policy.cycle_window, policy.cycle_tol
    inner = policy.escape_radius / _BOUNDED_HEADROOM
    hull, traps = traps
    kind, stop_step, escape_modulus, period, representative, max_out = out
    hist_re, hist_im = hist
    alive = np.ones(z.size, dtype=bool)
    nc = z.size

    def stop(at, code, step):
        out = orig[at]
        kind[out] = code
        stop_step[out] = step
        max_out[out] = max_mod[at]
        alive[at] = False
        # 0, a step that never comes
        pending_due[at] = 0
        return out

    for step in steps:
        # The whole prefix steps, stopped starts too (at most a tenth of
        # it, until the next compaction), so nothing is gathered.
        z_new, overflowed = evaluate_with_overflow(f, z[:nc])
        m = np.abs(z_new)
        z[:nc] = z_new
        max_mod[:nc] = np.maximum(max_mod[:nc], m)

        escaped = overflowed | (m >= policy.escape_radius)
        if np.count_nonzero(escaped):
            esc = (escaped & alive[:nc]).nonzero()[0]
            m_esc = m[esc]
            escape_modulus[stop(esc, _ESCAPED, step)] = np.where(
                m_esc >= policy.escape_radius, m_esc, LARGEST)

        if traps:
            # the others lie in no trap, or stopped (escaped ones too)
            near = ((m <= hull) & alive[:nc]).nonzero()[0]
            zn = z_new[near]
            caught = np.zeros(near.size, dtype=bool)
            for cx, cy, r2 in traps:
                caught |= (zn.real - cx) ** 2 + (zn.imag - cy) ** 2 <= r2
            caught &= max_mod[near] < inner
            if np.count_nonzero(caught):
                stop(near[caught], _TRAPPED, step)

        due = (pending_due[:nc] == step).nonzero()[0]
        if due.size:
            hit = np.abs(z[due] - representative[orig[due]]) < tol
            stop(due[hit], _LOCKED, step)
            pending_due[due[~hit]] = -1

        zr = z[:nc]
        re = zr.real
        cols = (pending_due[:nc] < 0).nonzero()[0]  # alive, no return pending
        if cols.size:
            re_cols = re[cols]
            written = min(step, w)  # history rows written so far
            block = min(w, max(1, _SCAN_BLOCK // cols.size))
            keys = []
            for r0 in range(0, written, block):
                r1 = min(r0 + block, written)
                # take on whole rows, which are contiguous, gathers faster
                # than indexing hist_re[r0:r1, cols]
                h = hist_re[r0:r1].take(cols, axis=1)
                h -= re_cols
                near = np.abs(h, out=h) < tol
                if not np.count_nonzero(near):
                    continue
                slot, col = np.nonzero(near)
                slot += r0
                col = cols[col]
                cand = hist_re[slot, col] + 1j * hist_im[slot, col]
                ok = np.abs(zr[col] - cand) < tol
                # Row slot holds step s = step - lag with slot = s % w.
                keys.append(col[ok] * (w + 1) + (step - 1 - slot[ok]) % w + 1)
            if keys:
                # The smallest confirmed lag of each start wins.
                key = np.unique(np.concatenate(keys))
                col, first = np.unique(key // (w + 1), return_index=True)
                lag = key[first] % (w + 1)
                pending_due[col] = step + lag
                period[orig[col]] = lag
                representative[orig[col]] = zr[col]

        hist_re[step % w, :nc] = re
        hist_im[step % w, :nc] = zr.imag

        n_alive = int(np.count_nonzero(alive[:nc]))
        if n_alive == 0:
            break
        if n_alive < _COMPACT_FRACTION * nc:
            keep = alive[:nc].nonzero()[0]
            for arr in (z, orig, max_mod, pending_due):
                arr[:n_alive] = arr[keep]
            # whole blocks of the rows written so far, as in the scan
            written = min(step + 1, w)
            block = max(1, _SCAN_BLOCK // n_alive)
            for r0 in range(0, written, block):
                for plane in hist:
                    part = plane[r0:r0 + block]
                    part[:, :n_alive] = part.take(keep, axis=1)
            alive[:n_alive] = True
            nc = n_alive

    live = alive[:nc].nonzero()[0]
    if steps[-1] < policy.budget:
        return live
    stop(live, _BUDGET, policy.budget)  # they exhausted their budget
    return live[:0]


def _ldexp(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """w * 2**e, exact unless a part over- or underflows."""
    out = np.empty_like(w)
    out.real = np.ldexp(w.real, e)
    out.imag = np.ldexp(w.imag, e)
    return out


@dataclass(frozen=True)
class FixedPointRecord:
    """A located fixed point with its multiplier classification."""

    location: complex
    multiplier: complex
    classification: str
    residual: float


def _classify_multiplier(multiplier: complex) -> str:
    mod = abs(multiplier)
    if mod <= _MULT_ZERO_TOL:
        return SUPERATTRACTING
    if abs(mod - 1.0) <= _MULT_UNIT_TOL:
        return INDIFFERENT
    return ATTRACTING if mod < 1.0 else REPELLING


def find_fixed_points(f: FunctionExpression, region: DomainSpec,
                      seeds_per_axis: int = 24, newton_tol: float = 1e-10,
                      max_newton: int = 60) -> list[FixedPointRecord]:
    """Fixed points of f in a bounded region via Newton on g(z) = f(z) - z.

    Seeds form a deterministic lattice over the region's bounding box, of
    at most the 200,000-point budget (447 seeds per axis).
    Converged roots (|g| < newton_tol) inside the region are deduplicated
    within 1e-6 and reported sorted by real then imaginary part.  Seeds
    that fail to converge are dropped silently; an empty result is valid.
    """
    if seeds_per_axis < 1:
        raise ValueError("seeds_per_axis must be at least 1")
    if seeds_per_axis ** 2 > _MAX_POINTS:
        raise ValueError(f"a {seeds_per_axis} x {seeds_per_axis} seed lattice "
                         f"exceeds the {_MAX_POINTS}-point cap")
    df = f.derivative()
    z = _cell_centers(region, seeds_per_axis)

    # Iterate every seed the full budget, so that multiple roots polish as
    # far as the degenerate derivative allows, but retire a seed once a
    # step leaves it bitwise unchanged: the step depends on z alone, so
    # every later one would leave it unchanged too.  The residual filter
    # afterwards is what decides convergence.  Huge values overflow g, the
    # Newton step or the residual; the isfinite and residual filters drop
    # those seeds, so numpy need not warn about them.
    alive = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_newton):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            g = evaluate(f, z[idx]) - z[idx]
            gp = evaluate(df, z[idx]) - 1.0
            frozen = np.abs(gp) < 1e-14
            alive[idx[frozen]] = False
            idx = idx[~frozen]
            if idx.size == 0:
                break
            # numpy divides complex numbers by Smith's method, which
            # overflows when both parts of g' are near the largest float.
            # There g and g' are scaled by one power of two, which is exact
            # unless g underflows; elsewhere a subnormal g would lose bits,
            # so it is left alone
            g, gp = g[~frozen], gp[~frozen]
            _, e = np.frexp(np.maximum(np.abs(gp.real), np.abs(gp.imag)))
            e = np.where(e > _SMITH_SAFE_EXPONENT, e, 0)
            z_new = z[idx] - _ldexp(g, -e) / _ldexp(gp, -e)
            ok = np.isfinite(z_new) & (np.abs(z_new) < 1e12)
            # both parts' bits, so a zero that changes sign is a change
            same = (z_new.view(np.int64) == z[idx].view(np.int64)).reshape(-1, 2)
            z[idx[ok]] = z_new[ok]
            alive[idx[~ok | same.all(axis=1)]] = False
        final = np.abs(evaluate(f, z) - z)

    converged = (final < newton_tol) & contains(region, z, closed=True)
    roots = z[converged]
    roots = roots[np.lexsort((roots.imag, roots.real))]

    kept: list[complex] = []
    for r in roots:
        if all(abs(r - other) > 1e-6 for other in kept):
            kept.append(complex(r))

    records = []
    for root in kept:
        residual = abs(complex(evaluate(f, root)) - root)
        multiplier = complex(evaluate(df, root))
        records.append(FixedPointRecord(root, multiplier,
                                        _classify_multiplier(multiplier),
                                        residual))
    return records

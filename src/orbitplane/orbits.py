"""Finite-budget orbit iteration, boundedness heuristics, fixed points.

Whether an orbit is unbounded is undecidable from finitely many iterates,
so classification is a three-way heuristic: a point whose orbit crosses
the escape radius (or overflows) is an unbounded suspect, a confirmed
near-cycle is a bounded suspect, and a full budget with moderate maximum
modulus is bounded-suspect or undecided depending on how much headroom
was left.  Cycle detection confirms every near-return by replaying one
full period before locking, which avoids false positives from slow
spirals.  One batched orbit kernel applies these rules: a single orbit
is a batch of one, and ``raster.classify_grid`` runs it on every pixel.
The kernel looks for near-returns only at starts whose Re z lies within
the tolerance of a running hull of their recent real parts, so orbits
that drift monotonically, like those creeping towards a parabolic
point, skip the history scan altogether.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from .domains import DomainSpec, contains
from .expressions import FunctionExpression, evaluate, evaluate_with_overflow

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

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
INDIFFERENT = "indifferent"
REPELLING = "repelling"

# |multiplier| thresholds for fixed-point classification.
_MULT_ZERO_TOL = 1e-8
_MULT_UNIT_TOL = 1e-8

# BUDGET_EXHAUSTED counts as bounded-suspect only with this much headroom.
_BOUNDED_HEADROOM = 100.0

_HUGE = float(np.finfo(np.float64).max)

# Stop codes of the orbit kernel index this tuple of verdict kinds.
_KINDS = (BUDGET_EXHAUSTED, ESCAPED, CYCLE_LOCKED)
_BUDGET, _ESCAPED, _LOCKED = range(3)

# History rows per near-return scan call: as many rows of the candidate
# starts as fit in this many elements (at least one), so a few candidates
# are scanned against their whole window in one call.
_SCAN_BLOCK = 4096

# The kernel compacts its per-start state once fewer than this share of
# the starts in its working prefix are still active.
_COMPACT_FRACTION = 0.9


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
        escape_modulus=min(float(stops.escape_modulus[0]), _HUGE) if escaped else None,
        period=int(stops.period[0]) if locked else None,
        representative=complex(stops.representative[0]) if locked else None,
        max_modulus=min(float(stops.max_modulus[0]), _HUGE),
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


# Per-start outcome of _iterate, indexed like its starts: ``kind`` holds
# codes into _KINDS; ``escape_modulus`` means something only where the
# start escaped, ``period`` and ``representative`` only where it locked.
_Stops = namedtuple("_Stops", "kind step escape_modulus period representative "
                    "max_modulus")


# Differences of real parts near the largest float may overflow: -inf
# keeps a start in the scan and +inf drops it, both rightly.
@np.errstate(over="ignore")
def _iterate(f: FunctionExpression, z: np.ndarray, policy: OrbitPolicy) -> _Stops:
    """The orbit kernel: iterate each start of the 1-D array ``z`` in place.

    Per-start state lives in the prefix ``[:nc]`` of its arrays and is
    compacted in place once few enough of those starts are still active.
    Each start keeps a hull [win_lo, win_hi] of Re z over a superset of
    its history window: every ``cycle_window`` steps it is rebuilt from
    the history rows, and in between it grows by each new Re z (the
    running min/max of van Herk and Gil & Werman, loosened to a
    superset).  Only starts with no pending return whose Re z lies within
    ``cycle_tol`` of the hull are scanned, so the scan finds every return
    the full window scan would.  The scan gathers the history of those
    candidates in blocks of rows and compares real parts first
    (|Re d| <= |d|, so no return is missed), then the complex modulus of
    the hits; the smallest confirmed lag wins.
    """
    n, w, tol = z.size, policy.cycle_window, policy.cycle_tol
    kind = np.zeros(n, dtype=np.uint8)
    stop_step = np.zeros(n, dtype=np.int32)
    escape_modulus = np.zeros(n)
    period = np.zeros(n, dtype=np.int32)
    representative = np.zeros(n, dtype=np.complex128)
    max_out = np.zeros(n)

    orig = np.arange(n)  # position -> start index
    alive = np.ones(n, dtype=bool)
    max_mod = np.abs(z)
    # Row s % w holds the orbit point at step s.
    hist_re, hist_im = np.empty((2, w, n))
    hist_re[0], hist_im[0] = z.real, z.imag
    # Bounds on Re z over every history row the next scan reads.
    win_lo, win_hi = np.array([z.real, z.real])
    # A pending near-return is due at this step, against the target and
    # lag already stored in representative and period; -1 when none, and
    # 0, a step that never comes, once the start has stopped.
    pending_due = np.full(n, -1, dtype=np.int64)
    nc = n

    def stop(at, code, step):
        out = orig[at]
        kind[out] = code
        stop_step[out] = step
        max_out[out] = max_mod[at]
        alive[at] = False
        pending_due[at] = 0
        return out

    for step in range(1, policy.budget + 1):
        pos = alive[:nc].nonzero()[0]
        z_new, overflowed = evaluate_with_overflow(f, z[pos])
        m = np.abs(z_new)
        z[pos] = z_new
        max_mod[pos] = np.maximum(max_mod[pos], m)

        escaped = overflowed | (m >= policy.escape_radius)
        if np.count_nonzero(escaped):
            esc = pos[escaped]
            m_esc = m[escaped]
            escape_modulus[stop(esc, _ESCAPED, step)] = np.where(
                m_esc >= policy.escape_radius, m_esc, _HUGE)

        due = (pending_due[:nc] == step).nonzero()[0]
        if due.size:
            hit = np.abs(z[due] - representative[orig[due]]) < tol
            stop(due[hit], _LOCKED, step)
            pending_due[due[~hit]] = -1

        zr = z[:nc]
        re = zr.real
        lo, hi = win_lo[:nc], win_hi[:nc]
        # Rounding is monotone: lo - x >= tol rules out |h - x| < tol for
        # every history value h >= lo, and likewise on the hi side.
        scan = lo - re < tol
        scan &= re - hi < tol
        scan &= pending_due[:nc] < 0  # alive, and no return pending
        cols = scan.nonzero()[0]
        if cols.size:
            re_cols = re[cols]
            rows = min(step, w)  # history rows written so far
            block = min(w, max(1, _SCAN_BLOCK // cols.size))
            keys = []
            for r0 in range(0, rows, block):
                r1 = min(r0 + block, rows)
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
        if step % w == 0:  # the rows now hold steps step - w + 1 .. step
            np.min(hist_re[:, :nc], axis=0, out=lo)
            np.max(hist_re[:, :nc], axis=0, out=hi)
        else:
            np.minimum(lo, re, out=lo)
            np.maximum(hi, re, out=hi)

        n_alive = int(np.count_nonzero(alive[:nc]))
        if n_alive == 0:
            break
        if n_alive < _COMPACT_FRACTION * nc:
            keep = alive[:nc].nonzero()[0]
            for arr in (z, orig, max_mod, pending_due, win_lo, win_hi):
                arr[:n_alive] = arr[keep]
            for plane in (hist_re, hist_im):
                for row in plane[:min(step + 1, w)]:  # rows written so far
                    row[:n_alive] = row[keep]
            alive[:n_alive] = True
            nc = n_alive

    # The starts still alive exhausted their budget.
    stop(alive[:nc].nonzero()[0], _BUDGET, policy.budget)
    return _Stops(kind, stop_step, escape_modulus, period, representative,
                  max_out)


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

    Seeds form a deterministic lattice over the region's bounding box.
    Converged roots (|g| < newton_tol) inside the region are deduplicated
    within 1e-6 and reported sorted by real then imaginary part.  Seeds
    that fail to converge are dropped silently; an empty result is valid.
    """
    if seeds_per_axis < 1:
        raise ValueError("seeds_per_axis must be at least 1")
    df = f.derivative()
    x0, x1, y0, y1 = region.bounding_box()
    k = seeds_per_axis
    xs = x0 + (np.arange(k) + 0.5) * (x1 - x0) / k
    ys = y0 + (np.arange(k) + 0.5) * (y1 - y0) / k
    z = (xs[None, :] + 1j * ys[:, None]).ravel()

    # Iterate every seed the full budget (cheap, and lets multiple roots
    # polish as far as the degenerate derivative allows); the residual
    # filter afterwards is what decides convergence.  Huge values overflow
    # g, the Newton step or the residual; the isfinite and residual filters
    # drop those seeds, so numpy need not warn about them.
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
            z_new = z[idx] - g[~frozen] / gp[~frozen]
            ok = np.isfinite(z_new) & (np.abs(z_new) < 1e12)
            z[idx[ok]] = z_new[ok]
            alive[idx[~ok]] = False
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

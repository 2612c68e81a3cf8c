"""Finite-budget orbit iteration, boundedness heuristics, fixed points.

Whether an orbit is unbounded is undecidable from finitely many iterates,
so classification is a three-way heuristic: a point whose orbit crosses
the escape radius (or overflows) is an unbounded suspect, a confirmed
near-cycle is a bounded suspect, and a full budget with moderate maximum
modulus is bounded-suspect or undecided depending on how much headroom
was left.  Cycle detection confirms every near-return by replaying one
full period before locking, which avoids false positives from slow
spirals.
"""

from __future__ import annotations

import math
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
    "bounded_after_budget",
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
    """
    z = complex(z0)
    trace = [z] if keep_trace else None
    recent: list[complex] = [z]  # last cycle_window points, oldest first
    max_mod = abs(z)
    pending_due = -1
    pending_target = 0j
    pending_period = 0

    for step in range(1, policy.budget + 1):
        z, overflowed = evaluate_with_overflow(f, z)
        m = abs(z)
        if keep_trace:
            trace.append(z)
        max_mod = max(max_mod, m)
        if overflowed or m >= policy.escape_radius:
            modulus = m if m >= policy.escape_radius else _HUGE
            return OrbitVerdict(ESCAPED, escape_step=step, escape_modulus=modulus,
                                max_modulus=max_mod,
                                trace=tuple(trace) if keep_trace else None)
        if pending_due == step:
            if abs(z - pending_target) < policy.cycle_tol:
                return OrbitVerdict(CYCLE_LOCKED, period=pending_period,
                                    representative=pending_target,
                                    max_modulus=max_mod,
                                    trace=tuple(trace) if keep_trace else None)
            pending_due = -1
        if pending_due < 0:
            for lag in range(1, min(step, policy.cycle_window) + 1):
                if abs(z - recent[-lag]) < policy.cycle_tol:
                    pending_due = step + lag
                    pending_target = z
                    pending_period = lag
                    break
        recent.append(z)
        if len(recent) > policy.cycle_window:
            recent.pop(0)
    return OrbitVerdict(BUDGET_EXHAUSTED, max_modulus=max_mod,
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
    if verdict.kind == ESCAPED:
        return PointClass.UNBOUNDED_SUSPECT
    if verdict.kind == CYCLE_LOCKED:
        return PointClass.BOUNDED_SUSPECT
    if bounded_after_budget(verdict.max_modulus, policy):
        return PointClass.BOUNDED_SUSPECT
    return PointClass.UNDECIDED


def bounded_after_budget(max_modulus, policy: OrbitPolicy):
    """Whether budget-exhausted orbits (scalar or array) are bounded suspects."""
    return max_modulus < policy.escape_radius / _BOUNDED_HEADROOM


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
    # filter afterwards is what decides convergence.
    alive = np.ones(z.shape, dtype=bool)
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

"""Reference orbit loop: one start at a time, in plain Python.

The library iterates every orbit with one batched kernel
(``orbits._iterate``); this is an independent scalar reading of the same
stopping rules that the tests compare the kernel against.  It takes
moduli with Python ``abs``; the kernel's ``np.abs`` is not correctly
rounded, so moduli agree to within two ulps and everything else exactly.
"""

import sys

from orbitplane.expressions import evaluate_with_overflow
from orbitplane.orbits import (BUDGET_EXHAUSTED, CYCLE_LOCKED, ESCAPED,
                               OrbitVerdict)

HUGE = sys.float_info.max  # the escape modulus recorded on overflow


def reference_orbit(f, z0, policy, keep_trace=False):
    """Iterate f from z0 until escape, a confirmed cycle, or budget end."""
    z = complex(z0)
    trace = [z] if keep_trace else None
    recent = [z]  # last cycle_window points, oldest first
    max_mod = abs(z)
    pending_due = -1
    pending_target = 0j
    pending_period = 0

    def done(kind, **fields):
        return OrbitVerdict(kind, max_modulus=max_mod,
                            trace=tuple(trace) if keep_trace else None,
                            **fields)

    for step in range(1, policy.budget + 1):
        z, overflowed = evaluate_with_overflow(f, z)
        m = abs(z)
        if keep_trace:
            trace.append(z)
        max_mod = max(max_mod, m)
        if overflowed or m >= policy.escape_radius:
            modulus = m if m >= policy.escape_radius else HUGE
            return done(ESCAPED, escape_step=step, escape_modulus=modulus)
        if pending_due == step:
            if abs(z - pending_target) < policy.cycle_tol:
                return done(CYCLE_LOCKED, period=pending_period,
                            representative=pending_target)
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
    return done(BUDGET_EXHAUSTED)

"""Reference orbit loop: one start at a time, in plain Python.

The library iterates every orbit with one batched kernel
(``orbits._iterate``); this is an independent scalar reading of the same
stopping rules that the tests compare the kernel against.  It takes
moduli with Python ``abs``; the kernel's ``np.abs`` is not correctly
rounded, so moduli agree to within two ulps and everything else exactly.
With certified trap discs it also stops an orbit in a trap, by the rule
that ``orbits._stream`` states, tested on every trap the rule uses.
"""

import math
import sys

from orbitplane.expressions import evaluate_with_overflow
from orbitplane.orbits import (_KINDS, _SHRINK, BUDGET_EXHAUSTED, CYCLE_LOCKED,
                               ESCAPED, TRAPPED, OrbitVerdict, _iterate)

HUGE = sys.float_info.max  # the escape modulus recorded on overflow


def reference_orbit(f, z0, policy, keep_trace=False, traps=()):
    """Iterate f from z0 until escape, a trap, a confirmed cycle, or
    budget end."""
    inner = policy.escape_radius / 100
    # a trap is used only if it lies below escape_radius / 100
    traps = [t for t in traps if abs(t.center) + t.radius < inner * _SHRINK]
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
        if max_mod < inner and any(_in_trap(z, t) for t in traps):
            return done(TRAPPED, escape_step=step)  # the step it was caught
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


def _in_trap(z, trap):
    """Whether z lies in the trap disc shrunk by 2^-40 of its squared radius."""
    dx, dy = z.real - trap.center.real, z.imag - trap.center.imag
    return dx * dx + dy * dy <= trap.radius * trap.radius * _SHRINK


def assert_within_ulp(got, want):
    # np.abs of a complex is not correctly rounded (1.6 ulp off on an
    # escaping z^2 - 1.3107 orbit), Python's abs is; allow two ulps.
    assert abs(got - want) <= 2 * math.ulp(want), (got, want)


def assert_kernel_matches(f, starts, policy, traps=()):
    """Run the kernel on a copy of ``starts``; each stop equals the loop's.

    Returns the kernel's stops.
    """
    stops = _iterate(f, starts.copy(), policy, traps)
    for k, z0 in enumerate(starts):
        want = reference_orbit(f, z0, policy, traps=traps)
        assert _KINDS[stops.kind[k]] == want.kind, z0
        if want.escape_step is not None:  # escaped or trapped
            assert stops.step[k] == want.escape_step, z0
        if want.escape_modulus is not None:
            assert_within_ulp(stops.escape_modulus[k], want.escape_modulus)
        if want.period is not None:
            assert (stops.period[k], stops.representative[k]) == \
                (want.period, want.representative), z0
        assert_within_ulp(stops.max_modulus[k], want.max_modulus)
    return stops

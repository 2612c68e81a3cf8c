"""Reference extremum: one circle at a time.

The library refines the brackets of a whole batch of circles in one loop
(``modulus._extremum``) and iterates many starts of the minimum-modulus
map in lockstep (``modulus.iterate_min_modulus_many``); this is the
earlier reading, one circle and one start at a time, that the tests
compare them against.  Its steps are the same, so the results must be
equal field by field.  It keeps ``np.roll`` for the coarse candidates
and ``np.nan_to_num`` in the slope, which the library replaced by
cheaper equivalents.
"""

from __future__ import annotations

import math

import numpy as np

from orbitplane.expressions import LARGEST, FunctionExpression, evaluate
from orbitplane.modulus import (BUDGET, CONVERGED, DEFAULT_BLOW_UP,
                                DIVERGES, NOT_DIVERGING, RADIUS_FLOOR,
                                REVISIT_RTOL, UNDECIDED, _MAX_BRACKETS,
                                _MAX_ROUNDS, _MAX_STALL,
                                MinModIterationReport, RadialExtremum,
                                _check_radius, _unit_circle, _unresolved)


def _slope(values: np.ndarray, derivs: np.ndarray, units: np.ndarray,
           scale: np.ndarray, sign: float) -> np.ndarray:
    """``sign * d|f(re^{it})|^2/dt`` divided by ``4 * r * scale``.

    d|f|^2/dt = -2r * Im(conj(f) * f' * e^{it}) with ``units`` = e^{it}.
    Dividing f by its bracket's ``scale`` (the largest coarse |f| there)
    keeps the product finite where |f| * |f'| * r is not, and unlike
    d|f|/dt the slope stays smooth through a zero of f.  Should f' itself
    saturate, an infinite product keeps its sign and a NaN reads as 0.
    """
    c, s = values.real / scale, values.imag / scale
    w_re = 0.5 * (c * units.real + s * units.imag)
    w_im = 0.5 * (c * units.imag - s * units.real)
    with np.errstate(over="ignore", invalid="ignore"):
        g = -sign * (w_re * derivs.imag + w_im * derivs.real)
    return np.nan_to_num(g, nan=0.0)


def reference_extremum(f: FunctionExpression, r: float, n_coarse: int,
                       tol: float, maximize: bool) -> RadialExtremum:
    r = _check_radius(r)
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")

    # Minimize sign * |f| throughout.
    sign = -1.0 if maximize else 1.0
    step = 2 * math.pi / n_coarse
    units = _unit_circle(n_coarse)
    values = evaluate(f, r * units)
    vals = sign * np.abs(values)
    samples = n_coarse
    evaluations = 1

    prev = np.roll(vals, 1)
    nxt = np.roll(vals, -1)
    cand = np.nonzero((vals <= prev) & (vals <= nxt))[0]
    if cand.size == 0:
        cand = np.array([int(np.argmin(vals))])
    elif cand.size > _MAX_BRACKETS:
        order = np.argsort(vals[cand], kind="stable")
        cand = cand[order[:_MAX_BRACKETS]]

    # Each bracket a < x < b keeps its best point x inside, with
    # sign * |f(x)| = v no larger than at a or b and the objective's
    # slope g at all three.  The slope at x points to the side that holds
    # a lower value; the search runs between x and that side's end e.
    x = cand * step
    v = vals[cand].copy()
    refined = 2 * step > tol
    stop = CONVERGED
    if refined:
        df = f.derivative()
        grid = (cand[:, None] + np.arange(-1, 2)) % n_coarse
        scale = np.max(np.abs(values[grid]), axis=1)
        scale[scale == 0] = 1.0
        g = _slope(values[grid], evaluate(df, r * units[grid]), units[grid],
                   scale[:, None], sign)
        evaluations += 1
        a, b = x - step, x + step
        ga, gx, gb = g[:, 0], g[:, 1], g[:, 2]
        # stall: rounds the current far end has stayed in place
        stall = np.zeros(cand.size, dtype=int)
        active = _unresolved(x, gx, np.where(gx < 0, b, a), v, scale, r, tol)
        rounds = 0
        while active.any():
            if rounds == _MAX_ROUNDS:
                stop = BUDGET
                break
            act = np.nonzero(active)[0]
            X, GX, A, B, GA, GB = x[act], gx[act], a[act], b[act], ga[act], gb[act]
            right = GX < 0
            E = np.where(right, B, A)
            GE = np.where(right, GB, GA) * 0.5 ** stall[act]
            # Illinois false position where the slope changes sign between
            # x and e, bisection where it does not or has stalled.
            secant = (np.where(right, GE > 0, GE < 0)
                      & (stall[act] < _MAX_STALL))
            t = np.where(secant, 0.5 * GX, 0.5) / np.where(
                secant, 0.5 * GX - 0.5 * GE, 1.0)
            u = X + t * (E - X)
            # A false-position step landing on x or e has found the root to
            # rounding.  Otherwise keep tol/2 off both, so that a root next
            # to one of them is bracketed within tol by the next step.
            lo, hi = np.minimum(X, E), np.maximum(X, E)
            done = secant & ((u <= lo) | (u >= hi))
            u = np.clip(u, lo + 0.5 * tol, hi - 0.5 * tol)
            done |= (u <= lo) | (u >= hi)
            active[act[done]] = False
            keep = ~done
            if not keep.any():
                break
            act, u, X, GX, E, right = (act[keep], u[keep], X[keep], GX[keep],
                                       E[keep], right[keep])
            rounds += 1
            trial_units = np.exp(1j * u)
            fu = evaluate(f, r * trial_units)
            gu = _slope(fu, evaluate(df, r * trial_units), trial_units,
                        scale[act], sign)
            evaluations += 2
            samples += u.size
            vu = sign * np.abs(fu)

            # A better u replaces x, and x becomes the end on the other
            # side; otherwise u becomes the end on its own side.
            better = vu < v[act]
            above = u > X
            new_a = better == above
            a[act] = np.where(new_a, np.where(better, X, u), a[act])
            ga[act] = np.where(new_a, np.where(better, GX, gu), ga[act])
            b[act] = np.where(~new_a, np.where(better, X, u), b[act])
            gb[act] = np.where(~new_a, np.where(better, GX, gu), gb[act])
            x[act] = np.where(better, u, X)
            gx[act] = np.where(better, gu, GX)
            v[act] = np.where(better, vu, v[act])

            now_right = gx[act] < 0
            now_e = np.where(now_right, b[act], a[act])
            stall[act] = np.where((now_right == right) & (now_e == E),
                                  stall[act] + 1, 0)
            active[act] = _unresolved(x[act], gx[act], now_e, v[act],
                                      scale[act], r, tol)

    k = int(np.argmin(v))
    # |f| of finite values may overflow; report it saturated, like f itself
    value = min(sign * float(v[k]), LARGEST)
    arg = float(x[k]) % (2 * math.pi)
    return RadialExtremum(r, value, arg, samples, refined, evaluations, stop)



def reference_iterate_min_modulus(f: FunctionExpression, r0: float,
                                  n_max: int = 50,
                                  blow_up: float = DEFAULT_BLOW_UP,
                                  n_coarse: int = 4096, tol: float = 1e-10,
                                  revisit_rtol: float = REVISIT_RTOL,
                                  floor: float = RADIUS_FLOOR
                                  ) -> MinModIterationReport:
    """Iterate r -> min_modulus(f, r) from ``r0`` with divergence heuristics.

    Stops with DIVERGES when a value exceeds ``blow_up``, with
    NOT_DIVERGING when a value falls below ``floor`` (a zero of f on the
    circle makes further iterates meaningless in double precision) or
    revisits any earlier value within relative ``revisit_rtol``, and with
    UNDECIDED when ``n_max`` steps elapse first.
    """
    r0 = _check_radius(r0)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not blow_up > r0:
        raise ValueError("blow_up must exceed r0")

    seq = [r0]
    args = []
    verdict = UNDECIDED
    witness: dict = {"note": f"no termination within {n_max} iterations"}
    for k in range(1, n_max + 1):
        ext = reference_extremum(f, seq[-1], n_coarse, tol, False)
        value = ext.value
        seq.append(value)
        args.append(ext.arg_extremum)
        if value > blow_up:
            verdict = DIVERGES
            witness = {"index": k, "value": value, "threshold": blow_up}
            break
        if value < floor:
            verdict = NOT_DIVERGING
            witness = {"index": k, "value": value, "floor": floor}
            break
        earlier = np.array(seq[:-1])
        scale = np.maximum(np.abs(earlier), abs(value))
        near = np.nonzero(np.abs(earlier - value) <= revisit_rtol * scale)[0]
        if near.size:
            verdict = NOT_DIVERGING
            witness = {"index": k, "revisits": int(near[0]), "value": value}
            break
    return MinModIterationReport(r0, tuple(seq), tuple(args), verdict, witness)

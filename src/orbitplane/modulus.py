"""Minimum and maximum modulus on circles and the iterated minimum-modulus map.

The extremum of |f| over a circle |z| = r is located by uniform coarse
sampling followed by refinement of every coarse local extremum bracket
from the symbolic derivative: a root search on the slope
d|f(re^{it})|^2/dt = -2r Im(conj(f) f' e^{it}), by safeguarded false
position (Illinois) with a bisection fallback, after Brent's
"Algorithms for Minimization without Derivatives" (1973).  No
modulus-of-continuity bound is available for user expressions, so the
coarse grid (default 4096 angles) is what guards against missed dips;
the refinement then resolves each bracket to the requested angular
tolerance, or to rounding in |f|, within a fixed budget of rounds.

One kernel serves a batch of circles that share f, the grid, the
tolerance and the sense (min or max).  Coarse sampling runs one circle
at a time; refinement runs for the whole batch, every bracket carrying
its circle's radius and scale.  A single circle is a batch of one, and
``iterate_min_modulus_many`` iterates many starts in lockstep, one
batch per step.

Iterating r -> m(r) probes the divergence condition m^n(r) -> infinity.
Divergence is undecidable from finitely many iterates, so the verdicts
are explicit heuristics: DIVERGES means a threshold was crossed,
NOT_DIVERGING means the sequence revisited an earlier value or collapsed
to (numerical) zero, UNDECIDED means the budget ran out first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import Disc
from .errors import InvalidRadius
from .expressions import LARGEST, FunctionExpression, evaluate

__all__ = [
    "RadialExtremum",
    "MinModIterationReport",
    "DiscSequence",
    "min_modulus",
    "max_modulus",
    "iterate_min_modulus",
    "iterate_min_modulus_many",
    "derive_disc_sequence",
    "DIVERGES",
    "NOT_DIVERGING",
    "UNDECIDED",
]

DIVERGES = "DIVERGES"
NOT_DIVERGING = "NOT_DIVERGING"
UNDECIDED = "UNDECIDED"

# Iteration heuristics (see module docstring).
DEFAULT_BLOW_UP = 1e50
REVISIT_RTOL = 1e-9
RADIUS_FLOOR = 1e-12

_MAX_BRACKETS = 256
# The coarse grid holds at most this many angles, 256 times the default,
# so the cache of unit circles holds at most 8 x 16 MB.
MAX_COARSE = 2 ** 20
_NEIGHBOURS = np.arange(-1, 2)

# Refinement rounds per extremum call.  A round costs two evaluate calls
# (f and f' at one new angle per active bracket); bisection alone needs 24
# rounds to shrink 2pi/4096 to the default tol of 1e-10.
_MAX_ROUNDS = 40
# False-position steps that may leave the far end of a bracket in place
# before bisection takes over.
_MAX_STALL = 3
# Relative change of |f| below which a bracket is resolved to rounding.
_FLAT = 2.0 ** -40

CONVERGED = "converged"
BUDGET = "budget"


@dataclass(frozen=True)
class RadialExtremum:
    """Extremum of |f| over a circle, with the angle that attains it.

    ``samples_used`` counts the angles at which f was evaluated,
    ``evaluations`` the evaluate calls spent on f and f', and ``stop``
    says whether every bracket converged or the round budget ran out.
    """

    radius: float
    value: float
    arg_extremum: float
    samples_used: int
    refined: bool
    evaluations: int
    stop: str


def _check_radius(r: float) -> float:
    r = float(r)
    if not (math.isfinite(r) and r > 0):
        raise InvalidRadius(f"radius must be positive and finite, got {r!r}")
    return r


@functools.lru_cache(maxsize=8)
def _unit_circle(n: int) -> np.ndarray:
    """e^{it} at the n uniform angles t = 2 pi k / n (read-only)."""
    units = np.exp(1j * (2 * math.pi / n * np.arange(n)))
    units.flags.writeable = False
    return units


def _slope(values: np.ndarray, derivs: np.ndarray, units: np.ndarray,
           scale: np.ndarray, sign: float) -> np.ndarray:
    """``sign * d|f(re^{it})|^2/dt`` divided by ``4 * r * scale``.

    d|f|^2/dt = -2r * Im(conj(f) * f' * e^{it}) with ``units`` = e^{it}.
    Dividing f by its bracket's ``scale`` (the largest coarse |f| there)
    keeps the product finite where |f| * |f'| * r is not, and unlike
    d|f|/dt the slope stays smooth through a zero of f.  Should f' itself
    saturate, an infinite product reads as the largest float of its sign
    and a NaN as 0 (what ``np.nan_to_num`` does, in fewer numpy calls).
    """
    c, s = values.real / scale, values.imag / scale
    w_re = 0.5 * (c * units.real + s * units.imag)
    w_im = 0.5 * (c * units.imag - s * units.real)
    with np.errstate(over="ignore", invalid="ignore"):
        g = -sign * (w_re * derivs.imag + w_im * derivs.real)
    g = np.where(g == g, g, 0.0)
    np.minimum(g, LARGEST, out=g)
    return np.maximum(g, -LARGEST, out=g)


def _unresolved(x, gx, e, v, scale, r, tol):
    """Brackets whose search interval from x to e still needs refining.

    Done once the interval is within ``tol``, |f(x)| has saturated, or
    the slope at x, carried across the interval, changes |f| by at most
    ``_FLAT`` of |f(x)|: a minimum within the interval lies no lower than
    that (for a quadratic, by half of it).  Slopes are ``_slope`` values,
    so d|f|/dt = 2 r scale g / |f|.
    """
    width = np.abs(e - x)
    mod = np.abs(v)
    with np.errstate(all="ignore"):
        drop = (scale / mod) * (2 * r * width * np.abs(gx) / mod)
    return (gx != 0) & (width > tol) & (mod < LARGEST) & ~(drop <= _FLAT)


def _brackets(f: FunctionExpression, df: Optional[FunctionExpression],
              r: float, n_coarse: int, tol: float, sign: float) -> tuple:
    """Coarse pass on the circle |z| = r: the brackets that matter.

    Each bracket a < x < b keeps its best point x inside, with
    sign * |f(x)| = v no larger than at a or b and the objective's slope
    g at all three.  The slope at x points to the side that holds a
    lower value; the search runs between x and that side's end e.
    Returns x and v of each bracket and, given the derivative ``df``, its
    slopes g at a, x and b, its scale and whether it still needs
    refining.  A bracket resolved at once keeps its v, so of those only
    the first least can win, and the rest are left out.
    """
    step = 2 * math.pi / n_coarse
    units = _unit_circle(n_coarse)
    values = evaluate(f, r * units)
    # sign * |f| at the coarse angles, padded by one value wrapped from
    # each end so that both neighbours of every angle are slices
    padded = np.empty(n_coarse + 2)
    vals = padded[1:-1]
    np.abs(values, out=vals)
    if sign < 0:
        np.negative(vals, out=vals)
    padded[0], padded[-1] = vals[-1], vals[0]
    cand = np.nonzero((vals <= padded[:-2]) & (vals <= padded[2:]))[0]
    if cand.size == 0:
        cand = np.array([int(np.argmin(vals))])
    elif cand.size > _MAX_BRACKETS:
        order = np.argsort(vals[cand], kind="stable")
        cand = cand[order[:_MAX_BRACKETS]]
    x, v = cand * step, vals[cand]
    if df is None:
        return x, v
    grid = (cand[:, None] + _NEIGHBOURS) % n_coarse
    near, near_units = values[grid], units[grid]
    scale = np.max(np.abs(near), axis=1)
    scale[scale == 0] = 1.0
    g = _slope(near, evaluate(df, r * near_units), near_units, scale[:, None],
               sign)
    active = _unresolved(x, g[:, 1], np.where(g[:, 1] < 0, x + step, x - step),
                         v, scale, r, tol)
    kept = active.copy()
    if not kept.all():
        resolved = np.nonzero(~active)[0]
        kept[resolved[np.argmin(v[resolved])]] = True
    return x[kept], v[kept], g[kept], scale[kept], active[kept]


def _extremum(f: FunctionExpression, radii, n_coarse: int, tol: float,
              maximize: bool) -> list[RadialExtremum]:
    """Extremum of |f| on the circle |z| = r for each r of ``radii``.

    Coarse sampling runs one circle at a time, so memory does not grow
    with the batch.  Every bracket of every circle then goes through one
    refinement loop, carrying its circle's radius and scale.  A bracket's
    steps do not depend on the others, so each circle's result is the
    same in any batch; ``stop`` is ``budget`` when one of its brackets
    was still active after ``_MAX_ROUNDS`` rounds.
    """
    radii = [_check_radius(r) for r in radii]
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    if n_coarse > MAX_COARSE:
        raise ValueError(f"n_coarse must be at most {MAX_COARSE}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")

    # Minimize sign * |f| throughout.
    sign = -1.0 if maximize else 1.0
    step = 2 * math.pi / n_coarse
    refined = 2 * step > tol
    df = f.derivative() if refined else None
    # One circle's coarse pass at a time, each freeing its samples before
    # the next begins.
    parts = [_brackets(f, df, r, n_coarse, tol, sign) for r in radii]
    counts = [part[0].size for part in parts]
    x, v, *state = [np.concatenate(column) for column in zip(*parts)]
    rounds = np.zeros(x.size, dtype=int)  # rounds each bracket ran
    active = np.zeros(x.size, dtype=bool)
    if refined:
        g, scale, active = state
        radius = np.repeat(radii, counts)
        a, b = x - step, x + step
        ga, gx, gb = g[:, 0], g[:, 1], g[:, 2]
        # stall: rounds the current far end has stayed in place
        stall = np.zeros(x.size, dtype=int)
        for _ in range(_MAX_ROUNDS):
            act = np.nonzero(active)[0]
            if not act.size:
                break
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
            rounds[act] += 1
            R, S = radius[act], scale[act]
            trial_units = np.exp(1j * u)
            fu = evaluate(f, R * trial_units)
            gu = _slope(fu, evaluate(df, R * trial_units), trial_units, S,
                        sign)
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
            active[act] = _unresolved(x[act], gx[act], now_e, v[act], S, R,
                                      tol)

    # A circle ran as many rounds as its longest bracket, and evaluated
    # one new angle per bracket and round; its first least value wins.
    results = []
    start = 0
    for r, count in zip(radii, counts):
        end = start + count
        k = start + int(np.argmin(v[start:end]))
        # |f| of finite values may overflow; report it saturated, like f
        value = min(sign * float(v[k]), LARGEST)
        arg = float(x[k]) % (2 * math.pi)
        ran = rounds[start:end]
        results.append(RadialExtremum(
            r, value, arg, n_coarse + int(ran.sum()), refined,
            2 + 2 * int(ran.max()) if refined else 1,
            BUDGET if active[start:end].any() else CONVERGED))
        start = end
    return results


def min_modulus(f: FunctionExpression, r: float, n_coarse: int = 4096,
                tol: float = 1e-10) -> RadialExtremum:
    """Global minimum of |f| over the circle |z| = r.

    Coarse sampling at ``n_coarse`` uniform angles, then each coarse
    local minimum is refined from the symbolic derivative f': the slope
    of |f|^2 at the best angle so far picks the side that holds a lower
    value, and a false-position (Illinois) step on the slope, or a
    bisection where the slope does not change sign, shrinks that side
    until it is below ``tol`` or |f| is resolved to rounding.  The least
    value found wins.  On plateaus (constant modulus puts a local minimum
    at every angle) refinement keeps the 256 lowest brackets, which
    cannot change the reported minimum.  At most ``_MAX_ROUNDS`` rounds
    run; ``stop`` says whether they sufficed.
    """
    return _extremum(f, [r], n_coarse, tol, maximize=False)[0]


def max_modulus(f: FunctionExpression, r: float, n_coarse: int = 4096,
                tol: float = 1e-10) -> RadialExtremum:
    """Global maximum of |f| over the circle |z| = r (see min_modulus)."""
    return _extremum(f, [r], n_coarse, tol, maximize=True)[0]


@dataclass(frozen=True)
class MinModIterationReport:
    """Trajectory of the iterated minimum-modulus map starting at r0.

    ``sequence[0]`` is r0 itself; ``sequence[k]`` is m^k(r0), attained
    at the angle ``arguments[k - 1]`` on the circle of radius
    ``sequence[k - 1]``.  The verdict is finite-budget evidence, not
    proof; ``witness`` holds the indices/values that triggered it.
    """

    r0: float
    sequence: tuple[float, ...]
    arguments: tuple[float, ...]
    verdict: str
    witness: dict

    @property
    def final(self) -> float:
        return self.sequence[-1]


def iterate_min_modulus(f: FunctionExpression, r0: float, n_max: int = 50,
                        blow_up: float = DEFAULT_BLOW_UP,
                        n_coarse: int = 4096, tol: float = 1e-10
                        ) -> MinModIterationReport:
    """Iterate r -> min_modulus(f, r) from ``r0`` with divergence heuristics.

    Stops with DIVERGES when a value exceeds ``blow_up``, with
    NOT_DIVERGING when a value falls below ``RADIUS_FLOOR`` (a zero of f
    on the circle makes further iterates meaningless in double precision)
    or revisits any earlier value within relative ``REVISIT_RTOL``, and with
    UNDECIDED when ``n_max`` steps elapse first.
    """
    return iterate_min_modulus_many(f, [r0], n_max, blow_up, n_coarse, tol)[0]


def iterate_min_modulus_many(f: FunctionExpression, r0s, n_max: int = 50,
                             blow_up: float = DEFAULT_BLOW_UP,
                             n_coarse: int = 4096, tol: float = 1e-10
                             ) -> list[MinModIterationReport]:
    """``iterate_min_modulus`` from every start of ``r0s``, in lockstep.

    Each step takes the minimum modulus on the circles of all starts
    still running in one batched extremum call.  The reports equal those
    of one call per start, and every start is checked, with the error a
    call of its own would raise, before anything is evaluated.
    """
    starts = []
    for r0 in r0s:
        r0 = _check_radius(r0)
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not blow_up > r0:
            raise ValueError("blow_up must exceed r0")
        starts.append(r0)

    seqs = [[r0] for r0 in starts]
    args: list[list[float]] = [[] for _ in starts]
    ends = [(UNDECIDED, {"note": f"no termination within {n_max} iterations"})
            for _ in starts]
    running = list(range(len(starts)))
    for k in range(1, n_max + 1):
        if not running:
            break
        exts = _extremum(f, [seqs[i][-1] for i in running], n_coarse, tol,
                         maximize=False)
        still = []
        for i, ext in zip(running, exts):
            seqs[i].append(ext.value)
            args[i].append(ext.arg_extremum)
            end = _iteration_end(seqs[i], k, blow_up)
            if end is None:
                still.append(i)
            else:
                ends[i] = end
        running = still
    return [MinModIterationReport(r0, tuple(seq), tuple(arg), *end)
            for r0, seq, arg, end in zip(starts, seqs, args, ends)]


def _iteration_end(seq: list, k: int, blow_up: float
                   ) -> Optional[tuple[str, dict]]:
    """Verdict and witness once ``seq[k]`` ends the iteration, else None."""
    value = seq[-1]
    if value > blow_up:
        return DIVERGES, {"index": k, "value": value, "threshold": blow_up}
    if value < RADIUS_FLOOR:
        return NOT_DIVERGING, {"index": k, "value": value, "floor": RADIUS_FLOOR}
    earlier = np.array(seq[:-1])
    scale = np.maximum(np.abs(earlier), abs(value))
    near = np.nonzero(np.abs(earlier - value) <= REVISIT_RTOL * scale)[0]
    if near.size:
        return NOT_DIVERGING, {"index": k, "revisits": int(near[0]),
                               "value": value}
    return None


@dataclass(frozen=True)
class DiscSequence:
    """Discs about 0 with radii m^n(r0), plus the iteration report.

    Feed the discs to the surround checker to locate the index from which
    each boundary image surrounds the next disc.  The disc list stops at
    the first non-positive radius (the report records why).
    """

    discs: tuple[Disc, ...]
    report: MinModIterationReport


def derive_disc_sequence(f: FunctionExpression, r0: float, count: int,
                         n_coarse: int = 4096, tol: float = 1e-10
                         ) -> DiscSequence:
    """Discs centred at 0 with radii m^n(r0) for n = 0 .. count-1.

    The iteration stops as diverging above ``DEFAULT_BLOW_UP``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    report = iterate_min_modulus(f, r0, n_max=count - 1 if count > 1 else 1,
                                 n_coarse=n_coarse, tol=tol)
    discs = []
    for n, radius in enumerate(report.sequence[:count]):
        if not (radius > 0 and math.isfinite(radius)):
            break
        discs.append(Disc(0j, float(radius), label=f"D'{n}"))
    return DiscSequence(tuple(discs), report)

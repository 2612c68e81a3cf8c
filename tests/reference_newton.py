"""Reference Newton loop: every seed runs the full step budget.

``orbits.find_fixed_points`` retires a seed once a Newton step leaves it
bitwise unchanged.  This is the loop without that retirement, otherwise
the same steps and filters, so the tests can check that retiring a seed
changes no record.
"""

import numpy as np

from orbitplane.domains import _cell_centers, contains
from orbitplane.expressions import evaluate
from orbitplane.orbits import (_SMITH_SAFE_EXPONENT, FixedPointRecord,
                               _classify_multiplier, _ldexp)


def full_budget_fixed_points(f, region, seeds_per_axis=24, newton_tol=1e-10,
                             max_newton=60):
    """The records of ``find_fixed_points`` with every seed run all
    ``max_newton`` steps, unless it fails the derivative or finiteness test."""
    df = f.derivative()
    z = _cell_centers(region, seeds_per_axis)
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
            idx, g, gp = idx[~frozen], g[~frozen], gp[~frozen]
            _, e = np.frexp(np.maximum(np.abs(gp.real), np.abs(gp.imag)))
            e = np.where(e > _SMITH_SAFE_EXPONENT, e, 0)
            z_new = z[idx] - _ldexp(g, -e) / _ldexp(gp, -e)
            ok = np.isfinite(z_new) & (np.abs(z_new) < 1e12)
            z[idx[ok]] = z_new[ok]
            alive[idx[~ok]] = False
        final = np.abs(evaluate(f, z) - z)
    roots = z[(final < newton_tol) & contains(region, z, closed=True)]
    roots = roots[np.lexsort((roots.imag, roots.real))]
    kept = []
    for r in roots:
        if all(abs(r - other) > 1e-6 for other in kept):
            kept.append(complex(r))
    records = []
    for root in kept:
        multiplier = complex(evaluate(df, root))
        records.append(FixedPointRecord(
            root, multiplier, _classify_multiplier(multiplier),
            abs(complex(evaluate(f, root)) - root)))
    return records

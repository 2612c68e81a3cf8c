"""Reference winding number: the atan2 sum over one probe at a time.

The library counts signed crossings for every probe of a call at once
(``curves.winding_numbers``); this is the earlier reading of the same
question that the tests compare it against.  Argument increments between
consecutive samples are summed, segments whose increment exceeds pi/2
are bisected by ``curves.refine`` first, and the sum must round to an
integer within ``_ROUND_RESIDUAL``.
"""

import numpy as np

from orbitplane.curves import SampledCurve, refine
from orbitplane.errors import AliasingUnresolved, CurveTooClose

# A single argument increment above this is treated as aliasing and the
# segment is refined before the winding sum is trusted.
_ALIAS_THRESHOLD = np.pi / 2

# Residual of the winding sum after rounding must stay below this.
_ROUND_RESIDUAL = 0.05


def reference_winding(curve: SampledCurve, w: complex,
                      min_clearance: float = 1e-9,
                      max_points: int = 200_000) -> int:
    """Winding number of a closed curve about ``w``.

    Argument increments between consecutive samples are taken in
    (-pi, pi].  Any increment above pi/2 is treated as aliasing and the
    segment is bisected by :func:`refine` until all increments are
    small; the rounded sum is then exact for the sampled path.  Raises
    :class:`CurveTooClose` if any sample comes within ``min_clearance``
    of ``w``, and :class:`AliasingUnresolved` if refinement cannot settle
    within the point budget or stops adding points.
    """
    inc = None

    def aliased(c: SampledCurve) -> np.ndarray:
        nonlocal inc
        rel = c.points - w
        if np.min(np.abs(rel)) < min_clearance:
            raise CurveTooClose(
                f"curve sample within {min_clearance} of probe {w}")
        angles = np.angle(rel)
        inc = np.diff(np.concatenate([angles, angles[:1]]))
        inc = (inc + np.pi) % (2 * np.pi) - np.pi  # wrap to [-pi, pi)
        return np.nonzero(np.abs(inc) > _ALIAS_THRESHOLD)[0]

    work, stop = refine(curve, aliased, max_points)
    if stop != "converged":
        raise AliasingUnresolved(
            f"aliasing persists ({stop}) at {len(work)} points "
            f"(budget {max_points})")
    total = float(np.sum(inc)) / (2 * np.pi)
    wn = int(round(total))
    if abs(total - wn) >= _ROUND_RESIDUAL:
        raise AliasingUnresolved(
            f"winding residual {abs(total - wn):.3f} after refinement")
    return wn

"""Reference spider's-web probe: a winding-sheet search, one pixel at a time.

The library decides each radius with one complement labeling
(``raster.spiders_web_probe``); this is an independent reading of the
same question that the tests compare it against.  A depth-first walk
over the restricted component carries, per pixel, the signed count of
crossings of the ray x > center.x, y = center.y; reaching a pixel again
with a different count proves a pixel cycle that winds around the center.
"""

import numpy as np


def reference_per_radius(labeling, center, radii):
    """(radius, surrounded) for the largest component, as the probe reports."""
    if not labeling.census:
        return tuple((float(r), False) for r in radii)
    grid = labeling.grid
    xs, ys = grid.x_centers(), grid.y_centers()
    member = labeling.labels == labeling.census[0].component_id
    dist = np.hypot(xs[None, :] - center.real, ys[:, None] - center.imag)
    return tuple((float(r), _has_surrounding_cycle(member & (dist >= r), xs, ys,
                                                   center, labeling.connectivity))
                 for r in radii)


def _has_surrounding_cycle(mask: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                           center: complex, connectivity: int) -> bool:
    """BFS with a winding sheet: a revisit on a different sheet is a loop.

    Steps between adjacent pixels count signed crossings of the ray
    x > center.x at y = center.y; reaching an already-visited pixel with
    a different accumulated crossing count proves a cycle of nonzero
    winding about the center.
    """
    ny, nx = mask.shape
    if connectivity == 8:
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    sheet = np.full(mask.shape, np.iinfo(np.int32).min, dtype=np.int32)
    unseen = sheet[0, 0]
    cy = center.imag

    def crossing(iy1: int, ix1: int, iy2: int, ix2: int) -> int:
        y1, y2 = ys[iy1], ys[iy2]
        up = (y1 <= cy) and (y2 > cy)
        down = (y2 <= cy) and (y1 > cy)
        if not (up or down):
            return 0
        x1, x2 = xs[ix1], xs[ix2]
        t = (cy - y1) / (y2 - y1)
        x_cross = x1 + t * (x2 - x1)
        if x_cross <= center.real:
            return 0
        return 1 if up else -1

    coords = np.argwhere(mask)
    for sy, sx in coords:
        if sheet[sy, sx] != unseen:
            continue
        sheet[sy, sx] = 0
        stack = [(int(sy), int(sx))]
        while stack:
            iy, ix = stack.pop()
            s = sheet[iy, ix]
            for dy, dx in steps:
                jy, jx = iy + dy, ix + dx
                if not (0 <= jy < ny and 0 <= jx < nx and mask[jy, jx]):
                    continue
                s2 = s + crossing(iy, ix, jy, jx)
                if sheet[jy, jx] == unseen:
                    sheet[jy, jx] = s2
                    stack.append((jy, jx))
                elif sheet[jy, jx] != s2:
                    return True
    return False

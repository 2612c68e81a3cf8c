"""Pixel-grid classification, component census, and boundary extraction.

``classify_grid`` runs the orbit kernel of ``orbits`` on every pixel
center at once; a single orbit is the same kernel on a batch of one, so
a pixel is classified exactly as its center would be as a single point.
The component census is a run-based labeling of one suspect class;
its boundary against the other classes is the pixel-level approximation
of the Julia set.  Undecided pixels are excluded from every census so
heuristic uncertainty can never silently merge components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import Rect
from .errors import RadiusOutsideWindow
from .expressions import FunctionExpression
from .orbits import OrbitPolicy, PointClass, _classes, _iterate

__all__ = [
    "GridSpec",
    "PixelClassification",
    "ComponentStat",
    "ComponentLabeling",
    "SpidersWebReport",
    "classify_grid",
    "label_components",
    "boundary_pixels",
    "spiders_web_probe",
    "classification_from_array",
    "write_ppm",
    "PALETTE",
]

# Fixed output palette (PPM): class -> RGB.
PALETTE = {
    PointClass.UNBOUNDED_SUSPECT: (255, 255, 255),
    PointClass.BOUNDED_SUSPECT: (0, 0, 0),
    PointClass.UNDECIDED: (128, 128, 128),
}
BOUNDARY_RGB = (255, 0, 0)


@dataclass(frozen=True)
class GridSpec:
    """Raster window and resolution; pixel centers are window-interior."""

    window: Rect
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 pixels")

    @property
    def dx(self) -> float:
        return (self.window.x_max - self.window.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.window.y_max - self.window.y_min) / self.ny

    @property
    def aspect_distortion(self) -> float:
        """dx/dy; 1.0 means square pixels (reported, never corrected)."""
        return self.dx / self.dy

    def x_centers(self) -> np.ndarray:
        return self.window.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return self.window.y_min + (np.arange(self.ny) + 0.5) * self.dy

    def pixel_centers(self) -> np.ndarray:
        """Complex centers, shape (ny, nx); row iy has increasing y."""
        return self.x_centers()[None, :] + 1j * self.y_centers()[:, None]


@dataclass(frozen=True)
class PixelClassification:
    """Per-pixel suspect classes over a grid, with the policy that made them.

    ``classes`` has shape (ny, nx), values from :class:`PointClass`,
    indexed [iy, ix] with iy increasing upward in the plane.
    """

    grid: GridSpec
    classes: np.ndarray
    policy: OrbitPolicy

    def __post_init__(self):
        if self.classes.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("classes array does not match grid dimensions")


def classification_from_array(classes: np.ndarray, window: Rect | None = None,
                              policy: OrbitPolicy | None = None) -> PixelClassification:
    """Wrap a raw class array (tests, file round-trips) in the result type."""
    classes = np.asarray(classes, dtype=np.uint8)
    ny, nx = classes.shape
    if window is None:
        window = Rect(0.0, float(nx), 0.0, float(ny))
    return PixelClassification(GridSpec(window, nx, ny), classes,
                               policy or OrbitPolicy())


def classify_grid(f: FunctionExpression, grid: GridSpec,
                  policy: OrbitPolicy) -> PixelClassification:
    """Classify every pixel center with the orbit kernel of ``orbits``.

    A pixel gets exactly the class ``classify_point`` gives its center.
    """
    stops = _iterate(f, grid.pixel_centers().ravel(), policy)
    classes = _classes(stops.kind, stops.max_modulus, policy).astype(np.uint8)
    return PixelClassification(grid, classes.reshape(grid.ny, grid.nx), policy)


# ---------------------------------------------------------------------------
# Connected components (run-based two-scan labeling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentStat:
    component_id: int
    pixels: int
    bbox: tuple[int, int, int, int]  # ix_min, ix_max, iy_min, iy_max
    touches_window_edge: bool


@dataclass(frozen=True)
class ComponentLabeling:
    """Component ids over the grid for one target class.

    ``labels[iy, ix]`` is 0 outside the target class; component ids are
    assigned in row-major order of each component's first pixel, so they
    are stable across runs.  ``census`` is sorted by size descending.
    Components touching the window edge are unbounded candidates.
    """

    grid: GridSpec
    labels: np.ndarray
    census: tuple[ComponentStat, ...]
    target: PointClass
    connectivity: int


def label_components(classification: PixelClassification, target: PointClass,
                     connectivity: int = 4) -> ComponentLabeling:
    """Run-based labeling of the target class under 4- or 8-connectivity.

    The mask is cut into horizontal runs; each run is joined to every run
    of the previous row that overlaps it (or touches it diagonally under
    8-connectivity), and a union-find over runs merges them (He, Chao &
    Suzuki, IEEE Trans. Image Process. 17, 2008).
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = classification.classes == int(target)
    ny, nx = mask.shape

    # Runs in row-major order: row, first column, one past the last column.
    padded = np.zeros((ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    run_row, run_start = np.nonzero(edges == 1)
    run_end = np.nonzero(edges == -1)[1]
    n_runs = run_row.size

    # Keyed by row * width + column, the runs of one row sort apart from
    # every other row, so the previous-row runs touching run k are the
    # index range [lo[k], hi[k]).
    width = nx + 2
    reach = 0 if connectivity == 4 else 1
    prev_row = (run_row - 1) * width
    lo = np.searchsorted(run_row * width + run_end,
                         prev_row + run_start - reach, side="right")
    hi = np.searchsorted(run_row * width + run_start,
                         prev_row + run_end + reach, side="left")
    count = np.maximum(hi - lo, 0)
    run_a = np.repeat(np.arange(n_runs), count)
    offset = np.repeat(lo - (np.cumsum(count) - count), count)
    run_b = np.arange(count.sum()) + offset  # lo[k], lo[k] + 1, ..., hi[k] - 1

    parent = list(range(n_runs))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(run_a.tolist(), run_b.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(k) for k in range(n_runs)], dtype=np.int64)

    # A root is the first run of its component, so numbering roots in run
    # order numbers components by their first pixel.
    is_root = roots == np.arange(n_runs)
    root_id = np.cumsum(is_root)
    run_label = root_id[roots].astype(np.int32)
    n_comp = int(is_root.sum())

    run_len = run_end - run_start
    labels = np.zeros(ny * nx, dtype=np.int32)
    labels[mask.ravel()] = np.repeat(run_label, run_len)
    labels = labels.reshape(ny, nx)

    size = np.bincount(run_label, weights=run_len, minlength=n_comp + 1)
    x_min = np.full(n_comp + 1, nx)
    x_max = np.full(n_comp + 1, -1)
    y_min = np.full(n_comp + 1, ny)
    y_max = np.full(n_comp + 1, -1)
    np.minimum.at(x_min, run_label, run_start)
    np.maximum.at(x_max, run_label, run_end - 1)
    np.minimum.at(y_min, run_label, run_row)
    np.maximum.at(y_max, run_label, run_row)
    touches = (x_min == 0) | (x_max == nx - 1) | (y_min == 0) | (y_max == ny - 1)

    stats = [ComponentStat(cid, int(size[cid]),
                           (int(x_min[cid]), int(x_max[cid]),
                            int(y_min[cid]), int(y_max[cid])),
                           bool(touches[cid]))
             for cid in range(1, n_comp + 1)]
    stats.sort(key=lambda s: (-s.pixels, s.component_id))
    return ComponentLabeling(classification.grid, labels, tuple(stats),
                             target, connectivity)


def boundary_pixels(classification: PixelClassification,
                    target: PointClass) -> np.ndarray:
    """Mask of target pixels with at least one non-target 4-neighbor.

    Neighbors outside the grid do not count, so a uniform grid has an
    empty boundary.
    """
    mask = classification.classes == int(target)
    edge = np.zeros_like(mask)
    edge[1:, :] |= mask[1:, :] & ~mask[:-1, :]
    edge[:-1, :] |= mask[:-1, :] & ~mask[1:, :]
    edge[:, 1:] |= mask[:, 1:] & ~mask[:, :-1]
    edge[:, :-1] |= mask[:, :-1] & ~mask[:, 1:]
    return edge


# ---------------------------------------------------------------------------
# Spider's-web probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpidersWebReport:
    """Per-radius evidence that the largest component loops around a center.

    For each radius the probe searches the largest component's pixel
    graph, restricted to pixels at that distance or more from the
    center, for a cycle with nonzero winding about the center.  All
    radii passing is heuristic evidence for a spider's-web structure.
    """

    center: complex
    per_radius: tuple[tuple[float, bool], ...]
    verdict: bool
    component_id: Optional[int]


def spiders_web_probe(labeling: ComponentLabeling, center: complex,
                      radii: list[float]) -> SpidersWebReport:
    """Search for surrounding pixel cycles in the largest target component."""
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    grid = labeling.grid
    win = grid.window
    for r in radii:
        if not (win.x_min < center.real - r and center.real + r < win.x_max
                and win.y_min < center.imag - r and center.imag + r < win.y_max):
            raise RadiusOutsideWindow(
                f"disc of radius {r} about {center} does not fit inside the window")

    if not labeling.census:
        return SpidersWebReport(center, tuple((r, False) for r in radii),
                                False, None)
    cid = labeling.census[0].component_id
    member = labeling.labels == cid
    xs = grid.x_centers()
    ys = grid.y_centers()
    px = xs[None, :] - center.real
    py = ys[:, None] - center.imag
    dist = np.hypot(px, py)

    results = []
    for r in radii:
        sub = member & (dist >= r)
        results.append((r, _has_surrounding_cycle(sub, xs, ys, center,
                                                  labeling.connectivity)))
    return SpidersWebReport(center, tuple(results), all(ok for _, ok in results), cid)


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


# ---------------------------------------------------------------------------
# PPM output
# ---------------------------------------------------------------------------

def write_ppm(path, classification: PixelClassification,
              boundary_overlay: np.ndarray | None = None) -> None:
    """Binary P6 image, maxval 255, top row = largest imaginary part.

    Palette: unbounded suspect white, bounded suspect black, undecided
    gray; the optional boundary overlay is drawn red on top.
    """
    classes = classification.classes
    ny, nx = classes.shape
    rgb = np.zeros((ny, nx, 3), dtype=np.uint8)
    for cls, color in PALETTE.items():
        rgb[classes == int(cls)] = color
    if boundary_overlay is not None:
        rgb[boundary_overlay] = BOUNDARY_RGB
    rgb = rgb[::-1]  # image rows run top-down
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    from .fileio import atomic_write_bytes
    atomic_write_bytes(path, header + rgb.tobytes())

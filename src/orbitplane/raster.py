"""Pixel-grid classification, component census, and boundary extraction.

``classify_grid`` runs the orbit kernel of ``orbits`` on every pixel
center, so a pixel gets exactly its center's single-point class; the
kernel takes the pixels in chunks, which bounds its cycle history, and
runs the pixels still alive after a few steps, from many chunks at once,
in one shared pool for the rest of the budget.  Each chunk's centers are
made when it starts and its stops become classes before the next one, a
pool's when it has run, so a pixel keeps only its class byte.
It first certifies trap discs about the fixed points in the window and
stops the starts that enter one; that saves the steps of orbits that
would creep towards a parabolic point for the rest of the budget and
moves no class.
One run-based labeling serves two questions.  The census labels one
suspect class (undecided pixels never join a census, so heuristic
uncertainty cannot merge components); its boundary is the pixel-level
Julia set.  The spider's-web probe labels the framed complement of the
largest component under the dual connectivity: a radius is surrounded
when the center pixel's complement component misses the frame.  Radii
at or below half the pixel diagonal are rejected.  This module only
computes; ``fileio`` writes the images and archives of its results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import Rect
from .errors import InvalidRadius, RadiusOutsideWindow
from .expressions import FunctionExpression
from .orbits import _TRAPPED, OrbitPolicy, PointClass, _classes, _stream

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
]


# Most pixels a grid may have: 4x the 800x400 benchmark render.  A
# pixel keeps only its class byte; the orbit kernel's state, starts,
# stops and history included, is per chunk of starts.
MAX_PIXELS = 1_280_000


@dataclass(frozen=True)
class GridSpec:
    """Raster window and resolution; pixel centers are window-interior."""

    window: Rect
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 pixels")
        if self.nx * self.ny > MAX_PIXELS:
            raise ValueError(f"grid of {self.nx}x{self.ny} pixels is above "
                             f"the cap of {MAX_PIXELS} pixels")
        dx, dy = self.dx, self.dy
        if not (dx > 0 and dy > 0 and dx / dy < math.inf):
            raise ValueError("pixel sizes and their ratio must be positive "
                             "and finite")

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

    def centers(self, lo: int, hi: int) -> np.ndarray:
        """Complex centers of the pixels lo..hi-1 in row-major order."""
        i = np.arange(lo, hi)
        return self.x_centers()[i % self.nx] + 1j * self.y_centers()[i // self.nx]

    def pixel_centers(self) -> np.ndarray:
        """Complex centers, shape (ny, nx); row iy has increasing y."""
        return self.centers(0, self.nx * self.ny).reshape(self.ny, self.nx)


@dataclass(frozen=True)
class PixelClassification:
    """Per-pixel suspect classes over a grid, with the policy that made them.

    ``classes`` has shape (ny, nx), values from :class:`PointClass`,
    indexed [iy, ix] with iy increasing upward in the plane.  ``traps``
    are the certified trap discs the kernel used and ``trapped`` counts
    the pixels it stopped in one (all bounded suspects).
    """

    grid: GridSpec
    classes: np.ndarray
    policy: OrbitPolicy
    traps: tuple = ()  # of traps.TrapDisc
    trapped: int = 0

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

    The kernel runs over chunks of ``orbits._CHUNK`` pixels in row-major
    order: each chunk's centers are made when it starts, and its stops
    become that chunk's classes and trapped count before the next chunk
    runs.  The starts still alive after ``orbits._HEAD`` steps go on in
    a pool shared by many chunks, the kernel's one tail path, whose
    window takes the place of the chunks' short history where it fits,
    and their classes are written again when it has run.  So beyond the
    class array all memory is per chunk or per pool, history included.
    The kernel gets the trap discs certified about the fixed points in
    the window (see ``orbits``) and stops a start that enters one while
    it and the disc lie below escape_radius / 100.  The orbit of such a
    start provably stays in the disc, where the untrapped kernel would
    also end it a bounded suspect, so a pixel gets exactly the class
    ``classify_point`` gives its center, which uses no traps.
    """
    from .traps import certified_traps  # rational arithmetic, on first use

    traps = certified_traps(f, grid.window, policy.escape_radius)
    classes = np.empty(grid.nx * grid.ny, dtype=np.uint8)
    trapped = 0
    for where, stops in _stream(f, classes.size, grid.centers, policy, traps):
        classes[where] = _classes(stops.kind, stops.max_modulus, policy)
        trapped += int(np.count_nonzero(stops.kind == _TRAPPED))
    return PixelClassification(grid, classes.reshape(grid.ny, grid.nx), policy,
                               traps, trapped)


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


def _runs(mask: np.ndarray):
    """Horizontal runs in row-major order: row, first column, one past the last."""
    padded = np.zeros((mask.shape[0], mask.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    return (*np.nonzero(edges == 1), np.nonzero(edges == -1)[1])


def _label_mask(mask: np.ndarray, connectivity: int) -> tuple:
    """Run-based two-scan labeling of a boolean mask; 0 outside it.

    The mask is cut into horizontal runs; each run is joined to every run
    of the previous row that overlaps it (or touches it diagonally under
    8-connectivity), and a union-find over runs merges them (He, Chao &
    Suzuki, IEEE Trans. Image Process. 17, 2008).  Components are
    numbered from 1 in row-major order of their first pixel.  Returns
    the labels, the runs (see ``_runs``) and the label of each run.
    """
    run_row, run_start, run_end = _runs(mask)
    n_runs = run_row.size

    # Keyed by row * width + column, the runs of one row sort apart from
    # every other row, so the previous-row runs touching run k are the
    # index range [lo[k], hi[k]).
    width = mask.shape[1] + 2
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
    run_label = np.cumsum(is_root)[roots].astype(np.int32)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(run_label, run_end - run_start)
    return labels, (run_row, run_start, run_end), run_label


def label_components(classification: PixelClassification, target: PointClass,
                     connectivity: int = 4) -> ComponentLabeling:
    """Components of the target class under 4- or 8-connectivity."""
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = classification.classes == int(target)
    labels, (run_row, run_start, run_end), run_label = _label_mask(
        mask, connectivity)
    ny, nx = mask.shape
    n_comp = int(labels.max(initial=0))

    size = np.bincount(run_label, weights=run_end - run_start,
                       minlength=n_comp + 1)
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

    A radius is surrounded when the component's pixels at that distance
    or more from the center cut the center pixel off from the window's
    outside, as complement labeling decides (see ``spiders_web_probe``).
    All radii passing is heuristic evidence for a spider's-web structure.
    """

    center: complex
    per_radius: tuple[tuple[float, bool], ...]
    verdict: bool
    component_id: Optional[int]


def spiders_web_probe(labeling: ComponentLabeling, center: complex,
                      radii: list[float]) -> SpidersWebReport:
    """Surrounding verdicts for the largest target component, per radius.

    Each radius labels the framed complement of the component's pixels
    at that distance or more from the center under the dual connectivity
    (Rosenfeld's digital Jordan curve theorem, JACM 17, 1970).  Radii at
    or below half the pixel diagonal raise ``InvalidRadius``: the center
    pixel could lie in the component, and the complement cannot decide.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    grid = labeling.grid
    win = grid.window
    floor = math.hypot(grid.dx, grid.dy) / 2
    for r in radii:
        if not r > floor:
            raise InvalidRadius(
                f"radius {r} is not above half the pixel diagonal {floor}")
        if not (win.x_min < center.real - r and center.real + r < win.x_max
                and win.y_min < center.imag - r and center.imag + r < win.y_max):
            raise RadiusOutsideWindow(
                f"disc of radius {r} about {center} does not fit inside the window")

    if not labeling.census:
        return SpidersWebReport(center, tuple((r, False) for r in radii),
                                False, None)
    cid = labeling.census[0].component_id
    member = labeling.labels == cid
    dist = np.hypot(grid.x_centers()[None, :] - center.real,
                    grid.y_centers()[:, None] - center.imag)
    # The pixel holding the center, one row and column in from the frame.
    iy = min(int((center.imag - win.y_min) // grid.dy), grid.ny - 1) + 1
    ix = min(int((center.real - win.x_min) // grid.dx), grid.nx - 1) + 1
    outside = np.ones((grid.ny + 2, grid.nx + 2), dtype=bool)
    results = []
    for r in radii:
        outside[1:-1, 1:-1] = ~(member & (dist >= r))
        labels = _label_mask(outside, 12 - labeling.connectivity)[0]
        results.append((r, bool(labels[iy, ix] != labels[0, 0])))
    return SpidersWebReport(center, tuple(results), all(ok for _, ok in results), cid)


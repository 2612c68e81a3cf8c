import hashlib
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from orbitplane.domains import Rect
from orbitplane.errors import InvalidRadius, RadiusOutsideWindow
from orbitplane.expressions import parse
from orbitplane.orbits import (_KINDS, OrbitPolicy, PointClass, _iterate,
                               class_of_verdict, iterate_orbit)
from orbitplane.raster import (GridSpec, boundary_pixels,
                               classification_from_array, classify_grid,
                               label_components, spiders_web_probe)
from reference_orbit import assert_within_ulp, reference_orbit
from reference_probe import reference_per_radius

PI = math.pi
U = int(PointClass.UNBOUNDED_SUSPECT)
B = int(PointClass.BOUNDED_SUSPECT)

# SHA-256 of classes.tobytes() for sin z on [-10,10]x[-5,5] at 400x200 with
# the default policy.  Work on the grid kernel must keep it: a faster scan
# may not move a single pixel.
SIN_400_CLASSES_SHA256 = (
    "62cdfacbf4eaf2be997ac7fbe6501ff4e819dd16a03a1d83de02cb8251421cc7")


@pytest.fixture(scope="module")
def sin_400():
    grid = GridSpec(Rect(-10, 10, -5, 5), 400, 200)
    return classify_grid(parse("sin(z)"), grid, OrbitPolicy())


def flood_fill_census(mask, connectivity):
    """Independent BFS flood-fill oracle for component counts and sizes."""
    ny, nx = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    if connectivity == 8:
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                 (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    sizes = []
    for sy in range(ny):
        for sx in range(nx):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            size = 0
            while queue:
                y, x = queue.popleft()
                size += 1
                for dy, dx in steps:
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < ny and 0 <= xx < nx \
                            and mask[yy, xx] and not seen[yy, xx]:
                        seen[yy, xx] = True
                        queue.append((yy, xx))
            sizes.append(size)
    return sorted(sizes, reverse=True)


def test_grid_spec_geometry():
    grid = GridSpec(Rect(-2, 2, -1, 1), 8, 4)
    assert grid.dx == 0.5 and grid.dy == 0.5
    assert grid.aspect_distortion == 1.0
    centers = grid.pixel_centers()
    assert centers.shape == (4, 8)
    assert centers[0, 0] == complex(-2 + 0.25, -1 + 0.25)
    with pytest.raises(ValueError):
        GridSpec(Rect(-1, 1, -1, 1), 1, 4)


def test_classify_grid_squaring():
    grid = GridSpec(Rect(-2, 2, -2, 2), 64, 64)
    pc = classify_grid(parse("z^2"), grid, OrbitPolicy())
    z = grid.pixel_centers()
    outside = np.abs(z) > 1.02
    inside = np.abs(z) < 0.98
    assert np.all(pc.classes[outside] == U)
    assert np.all(pc.classes[inside] == B)


def test_classify_grid_matches_classify_point():
    f = parse("cos(z) + z")
    grid = GridSpec(Rect(0.0, 2 * PI, -1.0, 1.0), 12, 6)
    pol = OrbitPolicy()
    pc = classify_grid(f, grid, pol)
    centers = grid.pixel_centers()
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            verdict = reference_orbit(f, centers[iy, ix], pol)
            assert pc.classes[iy, ix] == int(class_of_verdict(verdict, pol))


def assert_same_verdict(got, want):
    """Equal verdicts, moduli to two ulps (the reference uses Python abs)."""
    assert (got.kind, got.escape_step, got.period, got.representative) == \
        (want.kind, want.escape_step, want.period, want.representative)
    assert_within_ulp(got.max_modulus, want.max_modulus)
    if want.escape_modulus is not None:
        assert_within_ulp(got.escape_modulus, want.escape_modulus)


SHORT_BUDGET = OrbitPolicy(budget=6, escape_radius=30.0, cycle_tol=1e-2,
                           cycle_window=8)


@pytest.mark.parametrize("source, window, policy, periods", [
    # most pixels escape within nine steps (the working set is compacted);
    # the rest creep towards the parabolic fixed point 0 all budget long
    ("sin(z)", Rect(-10.0, 10.0, -5.0, 5.0), OrbitPolicy(), set()),
    ("z^2 - 1", Rect(-2.0, 2.0, -1.0, 1.0), OrbitPolicy(), {2}),
    ("z^2 - 1.3107", Rect(-2.0, 2.0, -1.0, 1.0), OrbitPolicy(), {4}),
    # budget ends while pixels still wait to confirm a near-return, so a
    # lock one step late turns a bounded pixel undecided
    ("cos(z) + z", Rect(-10.0, 10.0, -5.0, 5.0), SHORT_BUDGET, {1}),
    ("z^2 - 1", Rect(-2.0, 2.0, -1.0, 1.0),
     OrbitPolicy(budget=10, escape_radius=4.0, cycle_tol=1e-2, cycle_window=8),
     {2}),
    # budget-exhausted pixels on both sides of the bounded headroom 1.0
    ("sin(z)", Rect(-10.0, 10.0, -5.0, 5.0),
     OrbitPolicy(budget=30, escape_radius=100.0), set()),
    # the chaotic logistic map with a coarse tolerance: coincidental
    # near-returns fail to confirm and the rescan finds several lags at
    # once, of which the smallest must win
    ("4*z*(1-z)", Rect(0.0, 1.0, -1e-6, 1e-6),
     OrbitPolicy(budget=20, escape_radius=4.0, cycle_tol=0.1, cycle_window=8),
     {1, 2, 3, 4, 5, 6}),
], ids=["sin", "period-2", "period-4", "short-budget-fixed-point",
        "short-budget-period-2", "headroom", "chaotic"])
def test_classify_grid_matches_classify_point_grids(source, window, policy,
                                                    periods):
    # The kernel runs once over the grid and every pixel's stop is checked
    # against the reference loop; iterate_orbit, a batch of one, is
    # checked on every 37th pixel.
    f = parse(source)
    grid = GridSpec(window, 40, 20)
    centers = grid.pixel_centers().ravel()
    pc = classify_grid(f, grid, policy)
    stops = _iterate(f, centers.copy(), policy)
    seen = set()
    for k, z0 in enumerate(centers):
        want = reference_orbit(f, z0, policy)
        if want.period:
            seen.add(want.period)
        kind = _KINDS[stops.kind[k]]
        assert kind == want.kind
        if want.escape_step is not None:
            assert stops.step[k] == want.escape_step
            assert_within_ulp(stops.escape_modulus[k], want.escape_modulus)
        if want.period is not None:
            assert (stops.period[k], stops.representative[k]) == \
                (want.period, want.representative)
        assert_within_ulp(stops.max_modulus[k], want.max_modulus)
        assert pc.classes.flat[k] == int(class_of_verdict(want, policy))
        if k % 37 == 0:
            assert_same_verdict(iterate_orbit(f, z0, policy), want)
    assert seen == periods


def test_classify_grid_sin_400_classes_pinned(sin_400):
    digest = hashlib.sha256(sin_400.classes.tobytes()).hexdigest()
    assert digest == SIN_400_CLASSES_SHA256


def classify_grid_peak(nx, ny):
    """tracemalloc's peak over classify_grid of sin z at nx x ny."""
    grid = GridSpec(Rect(-10, 10, -5, 5), nx, ny)
    tracemalloc.start()
    try:
        classify_grid(parse("sin(z)"), grid, OrbitPolicy())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# classify_grid streams the orbit kernel: a chunk's centers, stops and
# cycle history live only while it runs, and the starts alive after the
# head wait, 204 bytes each, for a pool of at most 9,216, so beyond the
# one class byte a pixel all memory is per chunk or per pool.  These grids
# read about 9.8 / 11.0 / 12.8 MiB at 400x200 / 800x400 / 1600x800, and
# 12.8 / 26.1 / 78.3 MiB with every start and its stops (57 bytes a pixel)
# held for the whole grid.  tracemalloc counts the bytes numpy allocates,
# which unlike RSS does not depend on the host.
def test_classify_grid_allocation_peak_is_bounded():
    assert classify_grid_peak(800, 400) < 14 * 2 ** 20


def test_classify_grid_allocation_peak_of_the_sinz_scenario_grid():
    assert classify_grid_peak(400, 200) < 12 * 2 ** 20


def test_classify_grid_allocation_peak_hardly_grows_with_the_grid():
    # four times the pixels adds the class bytes, 0.92 MiB here, and a
    # fuller pool waiting to run: 0.87 MiB more at the peak
    assert classify_grid_peak(1600, 800) < classify_grid_peak(800, 400) + 2 * 2 ** 20


@pytest.mark.parametrize("window, nx, ny", [
    (Rect(-10, 10, -5, 5), 400, 200),
    (Rect(-1.0, 1.0, -1.0, 1.0), 5, 7),  # a center at 0 in each axis
    (Rect(-3e300, 1e-300, -0.5, 2e-310), 33, 17),
])
def test_flat_range_centers_are_the_pixel_centers_bit_for_bit(window, nx, ny):
    grid = GridSpec(window, nx, ny)
    n = nx * ny
    # the centers by broadcasting, computed independently of flat ranges
    whole = (grid.x_centers()[None, :] + 1j * grid.y_centers()[:, None]).ravel()
    assert np.array_equal(grid.pixel_centers().ravel().view(np.uint64),
                          whole.view(np.uint64))
    for lo, hi in [(0, n), (0, 1), (n - 1, n), (nx - 1, 2 * nx + 3),
                   (n // 3, n // 2), (5, 5)]:
        assert np.array_equal(grid.centers(lo, hi).view(np.uint64),
                              whole[lo:hi].view(np.uint64))


def test_classify_grid_serial_rerun_identical():
    f = parse("sin(z)")
    grid = GridSpec(Rect(-3, 3, -2, 2), 30, 20)
    a = classify_grid(f, grid, OrbitPolicy())
    b = classify_grid(f, grid, OrbitPolicy())
    assert np.array_equal(a.classes, b.classes)


def test_sin_real_axis_rows_bounded():
    grid = GridSpec(Rect(-10, 10, -5, 5), 100, 50)
    pc = classify_grid(parse("sin(z)"), grid, OrbitPolicy())
    ys = grid.y_centers()
    rows = np.argsort(np.abs(ys))[:2]
    assert np.all(pc.classes[rows, :] == B)


def test_cos_plus_z_superattracting_neighborhood():
    grid = GridSpec(Rect(0.0, 2 * PI, -1.0, 1.0), 128, 64)
    pc = classify_grid(parse("cos(z) + z"), grid, OrbitPolicy())
    z = grid.pixel_centers()
    near = np.abs(z - PI / 2) < 0.3
    assert np.all(pc.classes[near] == B)


def test_label_synthetic_blobs():
    m = np.full((8, 8), B, dtype=np.uint8)
    m[1:3, 1:3] = U
    m[5:7, 5:7] = U
    lab = label_components(classification_from_array(m),
                           PointClass.UNBOUNDED_SUSPECT, 4)
    assert len(lab.census) == 2
    assert [s.pixels for s in lab.census] == [4, 4]
    assert not any(s.touches_window_edge for s in lab.census)
    # ids are stable row-major-first-pixel order
    assert lab.labels[1, 1] == 1 and lab.labels[5, 5] == 2


def test_label_all_one_class():
    m = np.full((5, 7), U, dtype=np.uint8)
    lab = label_components(classification_from_array(m),
                           PointClass.UNBOUNDED_SUSPECT, 4)
    assert len(lab.census) == 1
    assert lab.census[0].pixels == 35
    assert lab.census[0].touches_window_edge
    assert lab.census[0].bbox == (0, 6, 0, 4)


def test_label_diagonal_connectivity():
    m = np.full((4, 4), B, dtype=np.uint8)
    m[0, 0] = m[1, 1] = m[2, 2] = U
    four = label_components(classification_from_array(m),
                            PointClass.UNBOUNDED_SUSPECT, 4)
    eight = label_components(classification_from_array(m),
                             PointClass.UNBOUNDED_SUSPECT, 8)
    assert len(four.census) == 3
    assert len(eight.census) == 1


def test_label_against_flood_fill_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        ny = int(rng.integers(2, 33))
        nx = int(rng.integers(2, 33))
        density = rng.uniform(0.2, 0.8)
        mask = rng.uniform(size=(ny, nx)) < density
        m = np.where(mask, U, B).astype(np.uint8)
        conn = 4 if trial % 2 == 0 else 8
        lab = label_components(classification_from_array(m),
                               PointClass.UNBOUNDED_SUSPECT, conn)
        expect = flood_fill_census(mask, conn)
        assert [s.pixels for s in lab.census] == expect, (trial, conn)
        # labels partition the mask
        assert int((lab.labels > 0).sum()) == int(mask.sum())


def test_label_ids_follow_first_pixel_order():
    rng = np.random.default_rng(7)
    for conn in (4, 8):
        mask = rng.uniform(size=(60, 80)) < 0.45
        m = np.where(mask, U, B).astype(np.uint8)
        lab = label_components(classification_from_array(m),
                               PointClass.UNBOUNDED_SUSPECT, conn)
        flat = lab.labels.ravel()
        ids_in_scan_order = flat[flat > 0]
        _, first = np.unique(ids_in_scan_order, return_index=True)
        assert len(first) == len(lab.census) > 1
        assert np.all(np.diff(first) > 0)  # id k+1 starts after id k
        assert sorted(s.component_id for s in lab.census) == \
            list(range(1, len(lab.census) + 1))


def _scipy_labels(mask, connectivity):
    ndimage = pytest.importorskip("scipy.ndimage")
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    labels, _ = ndimage.label(mask, structure=structure)
    return labels


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_matches_scipy_on_random_masks(connectivity):
    rng = np.random.default_rng(99)
    for density in (0.3, 0.5, 0.6, 0.7):
        mask = rng.uniform(size=(200, 200)) < density
        m = np.where(mask, U, B).astype(np.uint8)
        lab = label_components(classification_from_array(m),
                               PointClass.UNBOUNDED_SUSPECT, connectivity)
        assert np.array_equal(lab.labels, _scipy_labels(mask, connectivity))


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("target", [PointClass.UNBOUNDED_SUSPECT,
                                    PointClass.BOUNDED_SUSPECT])
def test_label_matches_scipy_on_sin_grid(sin_400, target, connectivity):
    lab = label_components(sin_400, target, connectivity)
    mask = sin_400.classes == int(target)
    expect = _scipy_labels(mask, connectivity)
    assert np.array_equal(lab.labels, expect)
    sizes = np.bincount(expect.ravel())[1:]
    assert [s.pixels for s in lab.census] == sorted(sizes.tolist(), reverse=True)
    for s in lab.census:
        ys, xs = np.nonzero(expect == s.component_id)
        assert s.bbox == (xs.min(), xs.max(), ys.min(), ys.max())


def test_jordan_property_on_lattice():
    # a 4-connected closed curve separates inside from outside when the
    # complement is read with 8-connectivity
    rng = np.random.default_rng(31)
    for _ in range(20):
        ny = int(rng.integers(9, 24))
        nx = int(rng.integers(9, 24))
        y0 = int(rng.integers(1, ny // 2))
        x0 = int(rng.integers(1, nx // 2))
        y1 = int(rng.integers(y0 + 2, ny - 1))
        x1 = int(rng.integers(x0 + 2, nx - 1))
        m = np.full((ny, nx), B, dtype=np.uint8)
        m[y0, x0:x1 + 1] = U
        m[y1, x0:x1 + 1] = U
        m[y0:y1 + 1, x0] = U
        m[y0:y1 + 1, x1] = U
        ring = label_components(classification_from_array(m),
                                PointClass.UNBOUNDED_SUSPECT, 4)
        assert len(ring.census) == 1
        comp = label_components(classification_from_array(m),
                                PointClass.BOUNDED_SUSPECT, 8)
        assert len(comp.census) == 2
        inside = [s for s in comp.census if not s.touches_window_edge]
        assert len(inside) == 1
        assert inside[0].pixels == (y1 - y0 - 1) * (x1 - x0 - 1)


def test_boundary_pixels_squaring_circle():
    grid = GridSpec(Rect(-2, 2, -2, 2), 64, 64)
    pc = classify_grid(parse("z^2"), grid, OrbitPolicy())
    edge = boundary_pixels(pc, PointClass.UNBOUNDED_SUSPECT)
    assert edge.any()
    z = grid.pixel_centers()[edge]
    diag = math.hypot(grid.dx, grid.dy)
    assert float(np.max(np.abs(np.abs(z) - 1.0))) <= 2 * diag


def test_boundary_pixels_uniform_grid_empty():
    m = np.full((6, 6), U, dtype=np.uint8)
    pc = classification_from_array(m)
    assert not boundary_pixels(pc, PointClass.UNBOUNDED_SUSPECT).any()


def test_spiders_web_synthetic_annulus():
    n = 41
    yy, xx = np.mgrid[0:n, 0:n]
    c = (n - 1) / 2
    d = np.hypot(xx - c, yy - c)
    m = np.full((n, n), B, dtype=np.uint8)
    m[(d >= 8) & (d <= 14)] = U
    pc = classification_from_array(m, Rect(0.0, float(n), 0.0, float(n)))
    lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, 4)
    center = complex(c + 0.5, c + 0.5)
    assert spiders_web_probe(lab, center, [5.0]).verdict
    # a radius beyond the ring leaves nothing to cycle through
    assert not spiders_web_probe(lab, center, [16.0]).verdict


def test_spiders_web_full_grid():
    n = 31
    m = np.full((n, n), U, dtype=np.uint8)
    pc = classification_from_array(m, Rect(0.0, float(n), 0.0, float(n)))
    lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, 4)
    center = complex(n / 2, n / 2)
    assert spiders_web_probe(lab, center, [4.0, 9.0]).verdict


def test_spiders_web_radius_validation():
    n = 16
    m = np.full((n, n), U, dtype=np.uint8)
    pc = classification_from_array(m, Rect(0.0, float(n), 0.0, float(n)))
    lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, 4)
    with pytest.raises(RadiusOutsideWindow):
        spiders_web_probe(lab, complex(8, 8), [9.0])
    with pytest.raises(ValueError):
        spiders_web_probe(lab, complex(8, 8), [3.0, 2.0])


def test_spiders_web_radius_floor_is_half_pixel_diagonal():
    m = np.full((16, 8), U, dtype=np.uint8)
    pc = classification_from_array(m, Rect(0.0, 4.0, 0.0, 6.0))
    lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, 4)
    floor = math.hypot(0.5, 0.375) / 2  # dx = 0.5, dy = 0.375
    center = complex(2.0, 3.0)
    for radii in ([floor], [0.5 * floor, 1.0], [-1.0, 1.0]):
        with pytest.raises(InvalidRadius):
            spiders_web_probe(lab, center, radii)
    assert spiders_web_probe(lab, center, [np.nextafter(floor, 1.0)]).verdict


def random_probe_cases(seed, count):
    """Seeded masks with centers inside pixels, on edges and on corners."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        ny, nx = (int(n) for n in rng.integers(8, 21, size=2))
        fill = rng.uniform(0.3, 0.75)
        m = np.where(rng.random((ny, nx)) < fill, U, B).astype(np.uint8)
        x = int(rng.integers(2, nx - 1)) + 0.0
        y = int(rng.integers(2, ny - 1)) + 0.0
        inside = rng.uniform(0.05, 0.95, size=2)
        if k % 3 == 0:  # pixel interior
            x, y = x + inside[0], y + inside[1]
        elif k % 3 == 1:  # pixel edge, vertical or horizontal
            if rng.random() < 0.5:
                y += inside[1]
            else:
                x += inside[0]
        floor = math.hypot(1.0, 1.0) / 2
        reach = min(x, nx - x, y, ny - y)
        radii = floor + (reach - floor) * np.sort(rng.uniform(0.001, 0.999, 2))
        yield m, complex(x, y), [float(r) for r in radii]


@pytest.mark.parametrize("connectivity", [4, 8])
def test_spiders_web_matches_oracle_on_random_masks(connectivity):
    answers = []
    for m, center, radii in random_probe_cases(20 + connectivity, 400):
        pc = classification_from_array(m)
        lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, connectivity)
        got = spiders_web_probe(lab, center, radii).per_radius
        assert got == reference_per_radius(lab, center, radii), (m, center, radii)
        answers += [s for _, s in got]
    assert min(sum(answers), len(answers) - sum(answers)) >= 10


def ring(n, gap):
    """A 4-pixel-thick annulus about the center pixel, optionally slit."""
    yy, xx = np.mgrid[0:n, 0:n]
    c = n // 2
    inside = (np.hypot(xx - c, yy - c) >= 6) & (np.hypot(xx - c, yy - c) <= 10)
    if gap:
        inside[c, c + 1:] = False  # a one-pixel-wide slit out to the edge
    return inside


def spiral(n, gap):
    """A one-pixel square spiral with one-pixel corridors, closed at the end.

    Its arms run 2, 2, 4, ..., 10, 10 pixels out from the center pixel.
    One more arm runs back along the outside of the last arm in its
    direction and turns onto that arm's end, closing a loop around the
    center, unless ``gap`` leaves out the pixel that closes it.
    """
    c = n // 2
    path = [(c, c)]
    (dy, dx), length = (0, 1), 2
    for arm in range(10):
        for _ in range(length):
            path.append((path[-1][0] + dy, path[-1][1] + dx))
        dy, dx = dx, -dy  # turn left
        length += 2 * (arm % 2)
    y, x = path[-1]
    closer = [(y + dy * step, x + dx * step) for step in range(1, length - 1)]
    dy, dx = dx, -dy
    closer.append((closer[-1][0] + dy, closer[-1][1] + dx))
    if gap:
        closer.pop()
    inside = np.zeros((n, n), dtype=bool)
    for y, x in path + closer:
        inside[y, x] = True
    return inside


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("gap", [False, True], ids=["closed", "gap"])
@pytest.mark.parametrize("shape", [ring, spiral])
def test_spiders_web_rings_and_spirals(shape, gap, connectivity):
    n = 31
    m = np.where(shape(n, gap), U, B).astype(np.uint8)
    lab = label_components(classification_from_array(m),
                           PointClass.UNBOUNDED_SUSPECT, connectivity)
    assert len(lab.census) == 1
    center = complex(n // 2 + 0.5, n // 2 + 0.5)
    got = spiders_web_probe(lab, center, [1.0, 3.0]).per_radius
    assert got == reference_per_radius(lab, center, [1.0, 3.0])
    assert got == ((1.0, not gap), (3.0, not gap))


@pytest.mark.parametrize("connectivity", [4, 8])
def test_spiders_web_matches_oracle_on_sin_grid(sin_400, connectivity):
    lab = label_components(sin_400, PointClass.UNBOUNDED_SUSPECT, connectivity)
    got = spiders_web_probe(lab, 0j, [2.0, 4.0]).per_radius
    assert got == reference_per_radius(lab, 0j, [2.0, 4.0])
    assert got == ((2.0, False), (4.0, False))


def test_resolution_probe_reports_counts():
    # reported, not asserted: the component count of the unbounded class
    # under doubling resolution is recorded for the report
    f = parse("sin(z)")
    counts = []
    for cols in (50, 100):
        grid = GridSpec(Rect(-10, 10, -5, 5), cols, cols // 2)
        lab = label_components(classify_grid(f, grid, OrbitPolicy()),
                               PointClass.UNBOUNDED_SUSPECT, 4)
        counts.append(len(lab.census))
    assert all(c >= 1 for c in counts)


# a window too wide for a double is refused by Rect itself (test_domains)
@pytest.mark.parametrize("window", [(-1, 1, -1e-320, 1e-320), (-1, 1, 0, 1e-323)],
                         ids=["ratio-overflows", "height-underflows"])
def test_grid_refuses_non_finite_pixel_sizes(window):
    with pytest.raises(ValueError, match="pixel sizes"):
        GridSpec(Rect(*window), 4, 4)

"""Acceptance gate: quantitative reproduction of the worked studies.

Each test covers one numbered criterion at its stated tolerance and
prints one pass/fail line (run with ``pytest -v -s`` to see them).
"""

import math
import time
from collections import deque

import numpy as np
import pytest

from orbitplane.curves import image_curve, winding_number
from orbitplane.domains import Disc, Rect, boundary
from orbitplane.expressions import _format_complex, evaluate, parse
from orbitplane.modulus import (DIVERGES, derive_disc_sequence,
                                iterate_min_modulus, max_modulus, min_modulus)
from orbitplane.orbits import (OrbitPolicy, PointClass, REPELLING,
                               SUPERATTRACTING, find_fixed_points)
from orbitplane.raster import (GridSpec, boundary_pixels,
                               classification_from_array, classify_grid,
                               label_components)
from orbitplane.scenarios import (EX51_SOURCE, EX52_SOURCE, SINZ_SOURCE,
                                  ex51_domain, ex52_domain)
from orbitplane.surround import check_spl, check_nested_domains

PI = math.pi


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}  {detail}")


def test_criterion_01_right_edge_bound():
    start = time.monotonic()
    f = parse(EX51_SOURCE)
    y = np.linspace(-8 * PI, 8 * PI, 1001)
    z = 8 * PI + 1j * y
    deviation = float(np.max(np.abs(evaluate(f, z) + z / 2)))
    elapsed = time.monotonic() - start
    ok = deviation < 1e-3 and elapsed < 1.0
    report(1, ok, f"max |f(z)+z/2| = {deviation:.3e} < 1e-3 on Re z = 8pi, "
                  f"1001 samples, {elapsed:.2f} s")
    assert deviation < 1e-3
    assert elapsed < 1.0


def test_criterion_02_endpoint_values():
    f = parse(EX51_SOURCE)
    worst = 0.0
    for n in range(1, 6):
        value = complex(evaluate(f, 4 * n * PI * 1j))
        expect = -42 * n * PI * 1j
        worst = max(worst, abs(value - expect) / abs(expect))
    ok = worst < 1e-9
    report(2, ok, f"f(4n pi i) = -42n pi i for n=1..5, worst rel err {worst:.2e}")
    assert ok


def test_criterion_03_surround_suite():
    start = time.monotonic()
    f = parse(EX51_SOURCE)
    domains = [ex51_domain(n) for n in range(2, 7)]
    rep = check_nested_domains(f, domains, density=4.0, probe_grid=5)
    elapsed = time.monotonic() - start
    distances = [p.report.min_distance for p in rep.pairs]
    ok = (len(rep.pairs) == 4
          and all(p.verdict for p in rep.pairs)
          and all(d > 0 for d in distances)
          and all(len({w for _, w in p.report.winding_values}) == 1
                  and 0 not in {w for _, w in p.report.winding_values}
                  and p.report.probes_tested >= 1
                  for p in rep.pairs)
          and elapsed < 30.0)
    report(3, ok, f"image(dD_n) vs D_(n+1) for n=2..5: distances "
                  f"{[round(d, 3) for d in distances]}, {elapsed:.1f} s")
    assert ok


def test_criterion_04_minmod_never_diverges():
    f = parse(EX51_SOURCE)
    diverged = []
    for r0 in range(1, 51):
        rep = iterate_min_modulus(f, float(r0), n_max=50, blow_up=1e50)
        if rep.verdict == DIVERGES:
            diverged.append(r0)
    ok = not diverged
    report(4, ok, f"iterated min modulus from r0=1..50: DIVERGES at {diverged or 'none'}")
    assert ok


def test_criterion_05_annulus_bound():
    f = parse(EX52_SOURCE)
    worst_margin = math.inf
    ok = True
    for n in range(4):
        dom = ex52_domain(n)
        height = 2 * (n + 1) * PI
        x = np.linspace(dom.x_min, dom.x_max, 1001)
        lo = 0.5 * math.exp(height) - 4 * (n + 1) * PI
        hi = 0.5 * math.exp(height) + 4 * (n + 1) * PI
        for side in (height, -height):
            m = np.abs(evaluate(f, x + 1j * side))
            ok &= float(m.min()) >= lo * (1 - 1e-6)
            ok &= float(m.max()) <= hi * (1 + 1e-6)
            worst_margin = min(worst_margin,
                               (float(m.min()) - lo) / lo,
                               (hi - float(m.max())) / hi)
    report(5, ok, f"horizontal sides of D_0..D_3 map into the annulus, "
                  f"worst relative margin {worst_margin:.2e}")
    assert ok


def test_criterion_06_spl_suite():
    f = parse(EX52_SOURCE)
    domains = [ex52_domain(n) for n in range(4)]
    rep = check_spl(f, domains, density=4.0, probe_grid=5)
    ok = rep.condition_i and rep.condition_iii
    report(6, ok, f"(i) {[p.verdict for p in rep.self_surround]}, "
                  f"(iii) {list(rep.closure_nested)}")
    assert ok


def test_criterion_07_fixed_points():
    f = parse(EX52_SOURCE)
    records = find_fixed_points(f, Rect(0.0, 4 * PI, -1.0, 1.0))
    expected = [((k + 0.5) * PI, 0.0, SUPERATTRACTING) if k % 2 == 0
                else ((k + 0.5) * PI, 2.0, REPELLING) for k in range(4)]
    ok = len(records) == 4
    for rec, (loc, mult, cls) in zip(records, expected):
        ok &= abs(rec.location - loc) <= 1e-8
        ok &= abs(rec.multiplier - mult) <= 1e-8
        ok &= rec.classification == cls
    report(7, ok, f"{len(records)} fixed points on [0,4pi]x[-1,1]: "
                  f"{[round(r.location.real / PI, 3) for r in records]} "
                  f"(units of pi), multipliers "
                  f"{[round(abs(r.multiplier), 9) for r in records]}")
    assert ok


def test_criterion_08_sin_disconnection():
    start = time.monotonic()
    f = parse(SINZ_SOURCE)
    grid = GridSpec(Rect(-10.0, 10.0, -5.0, 5.0), 400, 200)
    policy = OrbitPolicy(budget=200, escape_radius=1e6)
    pc = classify_grid(f, grid, policy)
    elapsed = time.monotonic() - start

    half = grid.dy / 2
    ys = grid.y_centers()
    band_rows = np.nonzero(np.abs(ys) < half)[0]
    band_ok = bool(np.all(pc.classes[band_rows, :]
                          == int(PointClass.BOUNDED_SUSPECT)))

    lab = label_components(pc, PointClass.UNBOUNDED_SUSPECT, 4)
    # The two dominant components are the upper and lower escaping bands;
    # both reach the window edge.  Smaller interior pieces are genuinely
    # escaping pixels on sub-pixel channels and are counted, not asserted.
    census_ok = (len(lab.census) >= 2
                 and all(s.touches_window_edge for s in lab.census[:2]))
    ok = band_ok and census_ok and elapsed < 60.0
    report(8, ok, f"{len(band_rows)} rows with |Im z| < {half} all bounded: "
                  f"{band_ok}; {len(lab.census)} unbounded components, "
                  f"largest two touch edge: {census_ok}; {elapsed:.1f} s")
    assert band_ok
    assert len(band_rows) >= 1  # the criterion is not vacuous on this grid
    assert census_ok
    assert elapsed < 60.0


def _brute_moduli(f, r, n=10**6):
    theta = 2 * PI * np.arange(n) / n
    return np.abs(evaluate(f, r * np.exp(1j * theta)))


def test_criterion_09a_modulus_oracle():
    functions = [parse(s) for s in
                 ("z^2", "sin(z)", EX52_SOURCE, EX51_SOURCE)]
    rng = np.random.default_rng(137)
    radii = rng.uniform(0.1, 30.0, 20)
    worst = 0.0
    for f in functions:
        for r in radii:
            moduli = _brute_moduli(f, float(r))
            for extremum, ref in ((min_modulus, moduli.min()),
                                  (max_modulus, moduli.max())):
                mine = extremum(f, float(r)).value
                ref = float(ref)
                worst = max(worst, abs(mine - ref) / max(abs(ref), 1e-300))
    ok = worst < 1e-6
    report(9, ok, f"min/max modulus vs 1e6-angle brute force: worst rel err "
                  f"{worst:.2e} over 20 radii x 4 functions")
    assert ok


def test_criterion_09b_winding_oracle():
    rng = np.random.default_rng(137)
    checked = 0
    while checked < 50:
        deg = int(rng.integers(1, 6))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        x0 = rng.uniform(-2.0, 0.5)
        y0 = rng.uniform(-2.0, 0.5)
        rect = Rect(x0, x0 + rng.uniform(0.5, 2.5),
                    y0, y0 + rng.uniform(0.5, 2.5))
        w = complex(rng.normal(), rng.normal())
        shifted = np.array(coeffs)
        shifted[0] -= w
        roots = np.roots(shifted[::-1])
        margin = min((min(abs(r.real - rect.x_min), abs(r.real - rect.x_max),
                          abs(r.imag - rect.y_min), abs(r.imag - rect.y_max))
                      for r in roots), default=1.0)
        if margin < 1e-3:
            continue
        inside = sum(bool(rect.x_min < r.real < rect.x_max
                          and rect.y_min < r.imag < rect.y_max)
                     for r in roots)
        p = parse("+".join(f"({_format_complex(complex(c))})*z^{k}"
                           for k, c in enumerate(coeffs)))
        img = image_curve(p, boundary(rect, 30.0))
        assert winding_number(img, w) == inside
        checked += 1
    report(9, True, "winding numbers equal companion-matrix root counts, "
                    "50 random polynomial/rectangle/probe cases")


def _flood_sizes(mask, connectivity):
    ny, nx = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    steps = ([(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
             if connectivity == 8 else [(-1, 0), (1, 0), (0, -1), (0, 1)])
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
                    if 0 <= yy < ny and 0 <= xx < nx and mask[yy, xx] \
                            and not seen[yy, xx]:
                        seen[yy, xx] = True
                        queue.append((yy, xx))
            sizes.append(size)
    return sorted(sizes, reverse=True)


def test_criterion_09c_labeling_oracle():
    rng = np.random.default_rng(137)
    for trial in range(100):
        ny = int(rng.integers(2, 33))
        nx = int(rng.integers(2, 33))
        mask = rng.uniform(size=(ny, nx)) < rng.uniform(0.2, 0.8)
        m = np.where(mask, int(PointClass.UNBOUNDED_SUSPECT),
                     int(PointClass.BOUNDED_SUSPECT)).astype(np.uint8)
        conn = 4 if trial % 2 == 0 else 8
        lab = label_components(classification_from_array(m),
                               PointClass.UNBOUNDED_SUSPECT, conn)
        assert [s.pixels for s in lab.census] == _flood_sizes(mask, conn)
    report(9, True, "component census equals flood-fill oracle on 100 masks")


def test_criterion_09d_derivative_oracle():
    rng = np.random.default_rng(137)
    h = 1e-6
    worst = 0.0
    for source in ("z^2", "sin(z)", EX52_SOURCE, EX51_SOURCE):
        f = parse(source)
        d = f.derivative()
        r = 5.0 * np.sqrt(rng.uniform(0, 1, 1000))
        t = rng.uniform(0, 2 * PI, 1000)
        z = r * np.exp(1j * t)
        fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        rel = np.abs(evaluate(d, z) - fd) / np.maximum(np.abs(fd), 1e-12)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-5
    report(9, ok, f"symbolic derivative vs central differences: worst rel "
                  f"err {worst:.2e} over 1000 points x 4 functions")
    assert ok


def test_criterion_10_squaring_sanity():
    f = parse("z^2")
    grid = GridSpec(Rect(-2.0, 2.0, -2.0, 2.0), 200, 200)
    pc = classify_grid(f, grid, OrbitPolicy())
    edge = boundary_pixels(pc, PointClass.UNBOUNDED_SUSPECT)
    centers = grid.pixel_centers()[edge]
    diag = math.hypot(grid.dx, grid.dy)
    worst = float(np.max(np.abs(np.abs(centers) - 1.0)))
    boundary_ok = edge.any() and worst <= 2 * diag

    seq = derive_disc_sequence(f, 2.0, 3)
    radii = [d.radius for d in seq.discs]
    radii_ok = np.allclose(radii, [2.0, 4.0, 16.0], rtol=1e-9)
    rep = check_nested_domains(f, list(seq.discs), density=8.0)
    ok = boundary_ok and radii_ok and rep.verdict
    report(10, ok, f"Julia boundary within {worst:.3f} <= 2 diagonals of "
                   f"|z|=1; disc radii {[round(r, 6) for r in radii]}; "
                   f"surround suite verdict {rep.verdict}")
    assert ok

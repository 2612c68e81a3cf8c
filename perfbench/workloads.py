"""Seeded workloads: each is a list of orbitplane CLI calls with expected outcomes.

A call is a dict ``{"argv": [...], "check": <name>, "expect": {...}}``.
``argv`` is exactly what ``orbitplane.cli.main`` receives, including its
own ``--out`` directory under ``base``; ``check`` names the verifier in
``checks.py`` and ``expect`` carries what it needs.

Parameters are drawn by stratified sampling (one seeded point per equal
slice of each range) so different seeds give different inputs while the
total work, and hence the timing, stays comparable from seed to seed.
Only ``random.Random.random`` is used, whose stream is fixed per seed.
"""

from __future__ import annotations

import math
import random

EX51 = "-10*z*exp(-z) - 0.5*z"
EX52 = "cos(z) + z"
SINZ = "sin(z)"

WORKLOADS = ("minmod", "raster", "point-checks")

# Iterated minimum modulus: one r0 per slice of (1, 50).
MINMOD_ITERATES = 36
# Single-circle extrema: this many radii per function, r in [0.5, 30].
MINMOD_RADII_PER_FUNCTION = 60
MINMOD_FUNCTIONS = (EX51, SINZ, EX52)

# Render of sin(z) over [-10, 10] x [-5, 5] shifted by a sub-pixel offset.
RENDER_NX, RENDER_NY = 800, 400
RENDER_WINDOW = (-10.0, 10.0, -5.0, 5.0)

SURROUND_CHECKS = 16
SPL_CHECKS = 16
SIN_DISC_CHECKS = 4
FIXED_POINT_CALLS = 4
REAL_AXIS_ORBITS = 4
GRID_ORBITS = 8
# Off-axis orbit starts are pixel centers of this grid, so the verifier
# can compare each orbit's class with classify_grid on the same start.
ORBIT_GRID_NX, ORBIT_GRID_NY = 16, 8


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


def _shuffled(rng: random.Random, items: list) -> list:
    """Fisher-Yates on random() alone, so the order is fixed per seed."""
    items = list(items)
    for k in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (k + 1))
        items[k], items[j] = items[j], items[k]
    return items


def _num(x: float) -> str:
    return repr(float(x))


class _Calls:
    """Appends calls, giving each its own output directory under ``base``."""

    def __init__(self, base: str):
        self.base = base
        self.calls: list[dict] = []

    def add(self, argv: list[str], check: str, **expect) -> str:
        out = f"{self.base}/c{len(self.calls):03d}"
        self.calls.append({"argv": ["--out", out] + argv, "check": check,
                           "expect": expect})
        return out


def _minmod(rng: random.Random, calls: _Calls) -> None:
    """Scenario ex51 amid the iterations and single-circle calls, shuffled.

    The scenario takes most of a run; splitting the short calls around it
    times them across the whole run rather than in one stretch of it.
    """
    small: list[tuple[list[str], str, dict]] = []
    for r0 in _stratified(rng, 1.0, 50.0, MINMOD_ITERATES):
        if r0 == int(r0):  # starts must be non-integer
            r0 = math.nextafter(r0, 50.0)
        small.append((["minmod-iterate", "--f", EX51, "--r", _num(r0),
                       "--n-max", "50", "--blow-up", "1e50"], "minmod_iterate", {}))
    for f in MINMOD_FUNCTIONS:
        for r in _stratified(rng, 0.5, 30.0, MINMOD_RADII_PER_FUNCTION):
            small.append((["minmod", "--f", f, "--r", _num(r)], "minmod",
                          {"function": f}))
    small = _shuffled(rng, small)
    half = len(small) // 2
    for argv, check, expect in small[:half]:
        calls.add(argv, check, **expect)
    calls.add(["scenario", "ex51"], "scenario")
    for argv, check, expect in small[half:]:
        calls.add(argv, check, **expect)


def _raster(rng: random.Random, calls: _Calls) -> None:
    calls.add(["scenario", "sinz"], "scenario")
    x0, x1, y0, y1 = RENDER_WINDOW
    ox = (rng.random() - 0.5) * (x1 - x0) / RENDER_NX
    oy = (rng.random() - 0.5) * (y1 - y0) / RENDER_NY
    window = ",".join(_num(v) for v in (x0 + ox, x1 + ox, y0 + oy, y1 + oy))
    render_out = calls.add(
        ["render", "--f", SINZ, "--window", window, "--nx", str(RENDER_NX),
         "--ny", str(RENDER_NY), "--budget", "200", "--escape-radius", "1e6",
         "--overlay-boundary", "unbounded_suspect"], "render")
    archive = f"{render_out}/render.npz"
    calls.add(["components", "--input", archive], "components")
    calls.add(["sw-probe", "--input", archive, "--radii", "2,4"], "sw_probe")


def _density_and_grid(rng: random.Random, count: int) -> list[tuple[float, int]]:
    """Seeded densities in [4, 32]; probe grids 5, 7, 9 cycle over the slices
    so the costliest pairing, and with it call_tail_s, is the same for every seed."""
    return [(d, (5, 7, 9)[k % 3])
            for k, d in enumerate(_stratified(rng, 4.0, 32.0, count))]


def _point_checks(rng: random.Random, calls: _Calls) -> None:
    calls.add(["scenario", "ex52"], "scenario")
    small: list[tuple[list[str], str, dict]] = []
    for d, g in _density_and_grid(rng, SURROUND_CHECKS):
        small.append((["surround-check", "--f", EX51, "--family", "ex51",
                       "--density", _num(d), "--probe-grid", str(g)],
                      "surround_holds", {}))
    for d, g in _density_and_grid(rng, SPL_CHECKS):
        small.append((["spl-check", "--f", EX52, "--family", "ex52",
                       "--density", _num(d), "--probe-grid", str(g)],
                      "spl_holds", {}))
    for d, g in _density_and_grid(rng, SIN_DISC_CHECKS):
        small.append((["surround-check", "--f", SINZ, "--discs", "1,2,3",
                       "--density", _num(d), "--probe-grid", str(g)],
                      "surround_fails", {}))
    for s in _stratified(rng, 16.0, 33.0, FIXED_POINT_CALLS):
        small.append((["fixed-points", "--f", EX52, "--rect",
                       f"0,{_num(4 * math.pi)},-1,1", "--seeds", str(int(s))],
                      "fixed_points", {}))
    for x in _stratified(rng, -10.0, 10.0, REAL_AXIS_ORBITS):
        small.append((["orbit", "--f", SINZ, "--z0", f"{_num(x)},0.0"],
                      "orbit_real_axis", {}))
    small.extend(_grid_orbits(rng))
    for argv, check, expect in _shuffled(rng, small):
        calls.add(argv, check, **expect)


def _grid_orbits(rng: random.Random) -> list[tuple[list[str], str, dict]]:
    """Orbit starts at pixel centers of a seeded, shifted 16 x 8 grid.

    Centers are computed as ``GridSpec.pixel_centers`` computes them, so
    ``classify_grid`` on ``grid`` classifies exactly these starts.
    """
    nx, ny = ORBIT_GRID_NX, ORBIT_GRID_NY
    x0, x1, y0, y1 = RENDER_WINDOW
    ox = (rng.random() - 0.5) * (x1 - x0) / nx
    oy = (rng.random() - 0.5) * (y1 - y0) / ny
    grid = [x0 + ox, x1 + ox, y0 + oy, y1 + oy, nx, ny]
    dx = (grid[1] - grid[0]) / nx
    dy = (grid[3] - grid[2]) / ny
    picks = _shuffled(rng, [(iy, ix) for iy in range(ny) for ix in range(nx)])
    out = []
    for iy, ix in picks[:GRID_ORBITS]:
        x = grid[0] + (ix + 0.5) * dx
        y = grid[2] + (iy + 0.5) * dy
        out.append((["orbit", "--f", SINZ, "--z0", f"{_num(x)},{_num(y)}"],
                     "orbit_matches_grid", {"grid": grid, "pixel": [iy, ix]}))
    return out


_GENERATORS = {"minmod": _minmod, "raster": _raster, "point-checks": _point_checks}


def build(workload: str, seed: int, base: str) -> list[dict]:
    """The calls of ``workload`` for ``seed``, writing under ``base``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    calls = _Calls(base)
    _GENERATORS[workload](random.Random(seed), calls)
    return calls.calls

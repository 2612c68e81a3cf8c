"""Verifiers for workload calls; run in the child after the timed section.

Each verifier takes the call, its exit code and the JSON report it
printed, and returns None when the outcome is the expected one, else a
one-line reason.  Oracles are computed here, outside the timed calls:
minmod extrema are compared with a dense sampling by plain numpy, and
off-axis orbit classes with ``classify_grid`` on the same start points.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np
from orbitplane import (GridSpec, OrbitPolicy, PointClass, Rect, classify_grid,
                        parse)

from workloads import EX51, EX52, SINZ

# Independent numpy forms of the workload functions (minmod oracle).
_NUMPY_FUNCTIONS = {
    EX51: lambda z: -10 * z * np.exp(-z) - 0.5 * z,
    EX52: lambda z: np.cos(z) + z,
    SINZ: np.sin,
}
_ORACLE_ANGLES = 1 << 14
_SUPERATTRACTING_REPELLING = [0.0, 2.0, 0.0, 2.0]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _scenario(call, code, report):
    if code != 0 or not report.get("passed"):
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return f"scenario did not pass (exit {code}, failed checks {failed})"
    return None


def _minmod_iterate(call, code, report):
    if code != 0:
        return f"exit {code}"
    if report["verdict"] == "DIVERGES":
        return f"ex51 start r0={report['r0']} diverged"
    return None


def _minmod(call, code, report):
    if code != 0:
        return f"exit {code}"
    f = _NUMPY_FUNCTIONS[call["expect"]["function"]]
    r = report["radius"]
    lo, hi = report["minimum"], report["maximum"]
    with np.errstate(all="ignore"):
        thetas = 2 * math.pi * np.arange(_ORACLE_ANGLES) / _ORACLE_ANGLES
        dense = np.abs(f(r * np.exp(1j * thetas)))
        at_lo = abs(f(r * np.exp(1j * lo["arg_extremum"])))
        at_hi = abs(f(r * np.exp(1j * hi["arg_extremum"])))
    rtol, atol = 1e-9, 1e-12
    if lo["value"] > dense.min() * (1 + rtol) + atol:
        return f"min {lo['value']} above dense sampling {dense.min()} at r={r}"
    if hi["value"] < dense.max() * (1 - rtol):
        return f"max {hi['value']} below dense sampling {dense.max()} at r={r}"
    if abs(at_lo - lo["value"]) > rtol * at_lo + atol:
        return f"min {lo['value']} is not |f| at its argument ({at_lo})"
    if abs(at_hi - hi["value"]) > rtol * at_hi + atol:
        return f"max {hi['value']} is not |f| at its argument ({at_hi})"
    return None


def _surround_holds(call, code, report):
    if code != 0 or report.get("verdict") is not True:
        return f"ex51 chain verdict {report.get('verdict')} (exit {code})"
    return None


def _spl_holds(call, code, report):
    if code != 0 or report.get("verdict") is not True:
        return f"ex52 SPL verdict {report.get('verdict')} (exit {code})"
    return None


def _surround_fails(call, code, report):
    if code != 1 or report.get("condition_a") is not False:
        return (f"sin(z) discs: condition_a {report.get('condition_a')} "
                f"(exit {code}, expected exit 1)")
    return None


def _fixed_points(call, code, report):
    if code != 0:
        return f"exit {code}"
    points = report["fixed_points"]
    if len(points) != 4:
        return f"found {len(points)} fixed points, expected 4"
    for p, want in zip(points, _SUPERATTRACTING_REPELLING):
        m = complex(*p["multiplier"])
        if abs(m - want) > 1e-8:
            return f"multiplier {m} at {p['location']}, expected {want}"
    return None


def _orbit_real_axis(call, code, report):
    if code != 0 or report.get("classification") != "BOUNDED_SUSPECT":
        return (f"real-axis start {report.get('z0')} classified "
                f"{report.get('classification')} (exit {code})")
    return None


@functools.lru_cache(maxsize=4)
def _sinz_grid(window: tuple, nx: int, ny: int):
    grid = GridSpec(Rect(*window), nx, ny)
    return grid.pixel_centers(), classify_grid(parse(SINZ), grid, OrbitPolicy()).classes


def _orbit_matches_grid(call, code, report):
    if code != 0:
        return f"exit {code}"
    x0, x1, y0, y1, nx, ny = call["expect"]["grid"]
    iy, ix = call["expect"]["pixel"]
    centers, classes = _sinz_grid((x0, x1, y0, y1), nx, ny)
    z0 = complex(*report["z0"])
    if centers[iy, ix] != z0:
        return f"start {z0} is not the pixel center the oracle classifies"
    want = PointClass(int(classes[iy, ix])).name
    if report["classification"] != want:
        return f"orbit from {z0} classified {report['classification']}, grid says {want}"
    return None


def _render(call, code, report):
    if code != 0:
        return f"exit {code}"
    out = _flag(call["argv"], "--out")
    with np.load(os.path.join(out, report["files"]["npz"])) as data:
        classes = data["classes"]
    y0, y1 = report["window"][2:]
    ny = report["ny"]
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    rows = np.argsort(np.abs(ys))[:2]
    if not np.all(classes[rows, :] == int(PointClass.BOUNDED_SUSPECT)):
        return "real-axis band is not bounded in the render"
    return None


def _components(call, code, report):
    if code != 0:
        return f"exit {code}"
    census = report["census"]
    if len(census) < 2 or not all(c["touches_window_edge"] for c in census[:2]):
        return (f"{len(census)} components; the two largest must touch "
                "the window edge")
    return None


def _sw_probe(call, code, report):
    if code != 0 or report.get("verdict") is not False:
        return f"sw-probe verdict {report.get('verdict')} (exit {code})"
    return None


VERIFIERS = {
    "scenario": _scenario,
    "minmod_iterate": _minmod_iterate,
    "minmod": _minmod,
    "surround_holds": _surround_holds,
    "spl_holds": _spl_holds,
    "surround_fails": _surround_fails,
    "fixed_points": _fixed_points,
    "orbit_real_axis": _orbit_real_axis,
    "orbit_matches_grid": _orbit_matches_grid,
    "render": _render,
    "components": _components,
    "sw_probe": _sw_probe,
}


def verify(call: dict, code, stdout: str, error: str | None) -> str | None:
    """None when the call gave its expected outcome, else the reason."""
    if error is not None:
        return f"raised {error}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code} without a JSON report"
    return VERIFIERS[call["check"]](call, code, report)

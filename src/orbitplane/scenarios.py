"""Built-in study scenarios and their asserted checks.

Each scenario bundles a function, a domain-sequence generator, default
policies, and a list of named checks with frozen tolerances.  Running a
scenario produces CSV/PPM artifacts plus a JSON report; a scenario
passes only if every asserted check passes.

``ex51``   the function -10 z exp(-z) - z/2: its two-rectangle domain
           chain satisfies the nested-surrounding conditions although
           the iterated minimum modulus never diverges.
``ex52``   cos z + z: strongly polynomial-like (boundary images surround
           their own domains) yet the real axis stays bounded, with
           alternating superattracting/repelling fixed points.
``sinz``   sin z: the real line is bounded and splits the unbounded
           suspects into separate components.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import fileio
from .curves import image_curve
from .domains import Disc, Rect, RectUnion, boundary
from .expressions import evaluate, parse
from .modulus import DIVERGES, iterate_min_modulus, iterate_min_modulus_many
from .orbits import (OrbitPolicy, PointClass, REPELLING, SUPERATTRACTING,
                     find_fixed_points)
from .raster import (GridSpec, boundary_pixels, classify_grid,
                     label_components, spiders_web_probe)
from .surround import check_spl, check_nested_domains

__all__ = [
    "SCENARIOS",
    "ex51_domain",
    "ex52_domain",
    "EX51_SOURCE",
    "EX52_SOURCE",
    "SINZ_SOURCE",
    "run_scenario",
]

EX51_SOURCE = "-10*z*exp(-z) - 0.5*z"
EX52_SOURCE = "cos(z) + z"
SINZ_SOURCE = "sin(z)"


def ex51_domain(n: int) -> RectUnion:
    """Two-rectangle domain: (0, 4n pi) x (-4n pi, 4n pi) joined along the
    imaginary axis to (-n pi, 0) x (-n pi, n pi)."""
    if n < 1:
        raise ValueError("domain index must be >= 1")
    pi = math.pi
    return RectUnion(
        (Rect(0.0, 4 * n * pi, -4 * n * pi, 4 * n * pi),
         Rect(-n * pi, 0.0, -n * pi, n * pi)),
        label=f"D{n}")


def ex52_domain(n: int) -> Rect:
    """Rectangle (-(2n+11/4) pi, (2n+9/4) pi) x (-2(n+1) pi, 2(n+1) pi)."""
    if n < 0:
        raise ValueError("domain index must be >= 0")
    pi = math.pi
    return Rect(-(2 * n + 11 / 4) * pi, (2 * n + 9 / 4) * pi,
                -2 * (n + 1) * pi, 2 * (n + 1) * pi, label=f"D{n}")


# ---------------------------------------------------------------------------
# Scenario definitions
# ---------------------------------------------------------------------------

def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _run_ex51(emit) -> dict:
    pi = math.pi
    f = parse(EX51_SOURCE)
    checks = []

    # On the right edge Re z = 8 pi (with |Im z| <= 8 pi) the
    # exponential term is negligible and f tracks -z/2 within 1e-3.
    y = np.linspace(-8 * pi, 8 * pi, 1001)
    z = 8 * pi + 1j * y
    dev = float(np.max(np.abs(evaluate(f, z) + z / 2)))
    checks.append(_check("right_edge_bound", dev < 1e-3,
                         max_deviation=dev, tolerance=1e-3, samples=int(y.size)))

    # Endpoint values f(4 n pi i) = -42 n pi i.
    worst = 0.0
    for n in range(1, 6):
        value = complex(evaluate(f, 4 * n * pi * 1j))
        expect = -42 * n * pi * 1j
        worst = max(worst, abs(value - expect) / abs(expect))
    checks.append(_check("endpoint_values", worst < 1e-9,
                         worst_relative_error=worst, tolerance=1e-9))

    # Surrounding suite over D2..D6 (source indices 2..5).
    domains = [ex51_domain(n) for n in range(2, 7)]
    nested = check_nested_domains(f, domains, density=4.0, probe_grid=5)
    checks.append(_check("surround_suite", nested.verdict,
                         **fileio.encode_nested_report(nested)))
    for n, dom in zip(range(2, 7), domains):
        curve = boundary(dom, 4.0)
        emit(f"ex51_boundary_D{n}.csv",
             lambda p, c=curve: fileio.curves_csv(p, [c]))
        img = image_curve(f, curve)
        emit(f"ex51_image_D{n}.csv",
             lambda p, c=img: fileio.curves_csv(p, [c]))

    # The iterated minimum modulus never diverges from integer starts.
    diverged = []
    verdict_counts: dict[str, int] = {}
    reports = iterate_min_modulus_many(f, [float(r0) for r0 in range(1, 51)],
                                       n_max=50, blow_up=1e50)
    for r0, rep in enumerate(reports, start=1):
        verdict_counts[rep.verdict] = verdict_counts.get(rep.verdict, 0) + 1
        if rep.verdict == DIVERGES:
            diverged.append(r0)
    checks.append(_check("minmod_never_diverges", not diverged,
                         diverged_from=diverged, verdicts=verdict_counts,
                         n_max=50, blow_up=1e50))

    return {"function": EX51_SOURCE, "checks": checks}


def _run_ex52(emit) -> dict:
    pi = math.pi
    f = parse(EX52_SOURCE)
    checks = []

    # Horizontal sides map into the annulus 0.5 e^{2(n+1)pi} +- 4(n+1)pi.
    annulus = []
    ok = True
    for n in range(4):
        height = 2 * (n + 1) * pi
        dom = ex52_domain(n)
        x = np.linspace(dom.x_min, dom.x_max, 1001)
        lo = 0.5 * math.exp(height) - 4 * (n + 1) * pi
        hi = 0.5 * math.exp(height) + 4 * (n + 1) * pi
        seen_lo, seen_hi = math.inf, 0.0
        for side in (height, -height):
            m = np.abs(evaluate(f, x + 1j * side))
            seen_lo = min(seen_lo, float(m.min()))
            seen_hi = max(seen_hi, float(m.max()))
        inside = (seen_lo >= lo * (1 - 1e-6)) and (seen_hi <= hi * (1 + 1e-6))
        ok &= inside
        annulus.append({"n": n, "lo": lo, "hi": hi,
                        "seen_lo": seen_lo, "seen_hi": seen_hi,
                        "inside": inside})
    checks.append(_check("annulus_bound", ok, sides=annulus,
                         relative_tolerance=1e-6))

    # Strongly-polynomial-like suite on D0..D3.
    domains = [ex52_domain(n) for n in range(4)]
    spl = check_spl(f, domains, density=4.0, probe_grid=5)
    checks.append(_check("spl_suite", spl.condition_i and spl.condition_iii,
                         **fileio.encode_spl_report(spl)))
    for n, dom in enumerate(domains):
        img = image_curve(f, boundary(dom, 4.0))
        emit(f"ex52_image_D{n}.csv", lambda p, c=img: fileio.curves_csv(p, [c]))

    # Fixed points on [0, 4 pi] x [-1, 1]: alternating superattracting
    # and repelling with multipliers 0 and 2.
    records = find_fixed_points(f, Rect(0.0, 4 * pi, -1.0, 1.0))
    expected = [((k + 0.5) * pi, 0.0 if k % 2 == 0 else 2.0,
                 SUPERATTRACTING if k % 2 == 0 else REPELLING)
                for k in range(4)]
    fp_ok = len(records) == 4
    rows = []
    for rec, (loc, mult, cls) in zip(records, expected):
        good = (abs(rec.location - loc) <= 1e-8
                and abs(rec.multiplier - mult) <= 1e-8
                and rec.classification == cls)
        fp_ok &= good
        rows.append({**fileio.encode_fixed_point(rec), "matches_expected": good})
    checks.append(_check("fixed_points", fp_ok, records=rows,
                         expected_count=4, location_tolerance=1e-8))

    return {"function": EX52_SOURCE, "checks": checks}


def _run_sinz(emit) -> dict:
    f = parse(SINZ_SOURCE)
    checks = []
    policy = OrbitPolicy(budget=200, escape_radius=1e6)
    grid = GridSpec(Rect(-10.0, 10.0, -5.0, 5.0), 400, 200)
    pc = classify_grid(f, grid, policy)

    overlay = boundary_pixels(pc, PointClass.UNBOUNDED_SUSPECT)
    emit("sinz_render.ppm", lambda p: fileio.write_ppm(p, pc, overlay))
    emit("sinz_render.npz", lambda p: fileio.save_classification(p, pc))

    # Certified trap discs and the pixels stopped in them (reported).
    checks.append(_check("certified_traps", True, reported_only=True,
                         **fileio.encode_traps(pc)))

    # Real-axis band bounded: both pixel rows nearest Im z = 0.
    ys = grid.y_centers()
    rows = np.argsort(np.abs(ys))[:2]
    band_ok = bool(np.all(pc.classes[rows, :] == int(PointClass.BOUNDED_SUSPECT)))
    checks.append(_check("real_axis_bounded", band_ok,
                         rows_checked=[int(r) for r in rows],
                         row_ordinates=[float(ys[r]) for r in rows]))

    # Census: the unbounded suspects split into several components, the
    # two largest touching the window edge (the half-plane bands).
    labeling = label_components(pc, PointClass.UNBOUNDED_SUSPECT, 4)
    big = labeling.census[:2]
    census_ok = (len(labeling.census) >= 2
                 and all(s.touches_window_edge for s in big))
    checks.append(_check("disconnection_census", census_ok,
                         component_count=len(labeling.census),
                         largest=[{"component_id": s.component_id,
                                   "pixels": s.pixels,
                                   "touches_window_edge": s.touches_window_edge}
                                  for s in labeling.census[:6]]))

    # The nested-surrounding condition fails on discs of radius 1, 2, 3.
    nested = check_nested_domains(f, [Disc(0j, 1.0), Disc(0j, 2.0), Disc(0j, 3.0)],
                             density=8.0)
    checks.append(_check("surround_fails_on_discs", not nested.condition_a,
                         **fileio.encode_nested_report(nested)))

    # Iterated minimum modulus stays at or below 1 and never diverges.
    rep = iterate_min_modulus(f, 1.0, n_max=50)
    emit("sinz_minmod.csv", lambda p: fileio.sequence_csv(p, rep.sequence))
    checks.append(_check("minmod_not_diverging", rep.verdict != DIVERGES
                         and max(rep.sequence) <= 1.0,
                         verdict=rep.verdict,
                         max_value=float(max(rep.sequence))))

    # No surrounding pixel cycles in the unbounded class (the bounded real
    # axis blocks them).
    probe = spiders_web_probe(labeling, 0j, [2.0, 4.0])
    checks.append(_check("no_spiders_web", not probe.verdict,
                         per_radius=fileio.encode_probe(probe)["per_radius"]))

    # Resolution probe: component counts as the column count doubles
    # (reported, not asserted).  The finest grid is the one classified
    # above.
    counts = []
    for cols in (100, 200, 400):
        g = GridSpec(Rect(-10.0, 10.0, -5.0, 5.0), cols, cols // 2)
        lab = label_components(pc if g == grid else classify_grid(f, g, policy),
                               PointClass.UNBOUNDED_SUSPECT, 4)
        counts.append({"columns": cols, "components": len(lab.census)})
    checks.append(_check("resolution_probe", True, reported_only=True,
                         counts=counts))

    return {"function": SINZ_SOURCE, "checks": checks}


# Each runner takes ``emit(filename, writer)`` and returns its function and
# checks.
SCENARIOS = {"ex51": _run_ex51, "ex52": _run_ex52, "sinz": _run_sinz}


def run_scenario(name: str, outdir) -> dict:
    """Run a named scenario, writing artifacts under ``outdir``.

    Returns the scenario report; ``report["passed"]`` aggregates all
    asserted checks.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {', '.join(sorted(SCENARIOS))}")
    os.makedirs(outdir, exist_ok=True)
    files: list[str] = []

    def emit(filename: str, writer) -> None:
        path = os.path.join(outdir, filename)
        writer(path)
        files.append(filename)

    body = SCENARIOS[name](emit)
    report = {
        "kind": "scenario",
        "name": name,
        "function": body["function"],
        "checks": body["checks"],
        "passed": all(c["passed"] for c in body["checks"]),
        "files": sorted(files),
    }
    fileio.write_json_report(os.path.join(outdir, f"scenario_{name}.json"),
                             report)
    return report

#!/usr/bin/env python3
"""Pixel pictures of the bounded/unbounded suspects for sin z.

Every pixel center is classified by the finite-budget orbit heuristic.
Orbits that enter a certified trap disc (here the two petal discs
tangent at the parabolic fixed point 0) stop early: f maps each such
disc into itself, so they are bounded.
The real line stays bounded under sin and cuts the picture in two, so
the unbounded-suspect census shows separate components above and below
the axis, and no pixel cycle in that class can wind around the origin
(the spider's-web probe fails, as it should for a disconnected set).

Writes a PPM image (white = unbounded suspect, black = bounded suspect,
gray = undecided, red = boundary overlay approximating the Julia set).
"""

import os

from orbitplane import (GridSpec, OrbitPolicy, PointClass, Rect,
                        boundary_pixels, classify_grid, label_components,
                        parse, spiders_web_probe, write_ppm)

OUT = os.environ.get("ORBITPLANE_OUT", "demo_out")
os.makedirs(OUT, exist_ok=True)

f = parse("sin(z)")
grid = GridSpec(Rect(-10.0, 10.0, -5.0, 5.0), 400, 200)
policy = OrbitPolicy(budget=200, escape_radius=1e6)

pc = classify_grid(f, grid, policy)
for cls in PointClass:
    count = int((pc.classes == int(cls)).sum())
    print(f"{cls.name:18} {count:6d} pixels")

print("\ncertified trap discs (f maps each closed disc into itself):")
for trap in pc.traps:
    print(f"  {trap.kind:16} center {trap.center:.6g}  radius {trap.radius:.6g}")
print(f"{pc.trapped} pixels stopped in a trap instead of iterating the "
      "whole budget")

edge = boundary_pixels(pc, PointClass.UNBOUNDED_SUSPECT)
path = os.path.join(OUT, "sinz.ppm")
write_ppm(path, pc, edge)
print(f"\nimage written to {path} ({grid.nx}x{grid.ny}, P6)")

labeling = label_components(pc, PointClass.UNBOUNDED_SUSPECT, connectivity=4)
print(f"\nunbounded-suspect census ({len(labeling.census)} components):")
for stat in labeling.census[:6]:
    print(f"  id {stat.component_id:3d}  {stat.pixels:6d} px  "
          f"bbox {stat.bbox}  touches edge: {stat.touches_window_edge}")
if len(labeling.census) > 6:
    print(f"  ... and {len(labeling.census) - 6} smaller pieces "
          "(escaping tongues thinner than a pixel)")

probe = spiders_web_probe(labeling, 0j, [2.0, 4.0])
print("\nspider's-web probe about 0 at radii 2 and 4:")
for radius, surrounded in probe.per_radius:
    print(f"  radius {radius}: surrounding cycle found = {surrounded}")
print(f"verdict: {probe.verdict}  (the bounded real axis blocks every loop)")

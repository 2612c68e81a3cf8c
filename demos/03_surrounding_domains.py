#!/usr/bin/env python3
"""The nested-domain surrounding check on the two-rectangle chain.

For f(z) = -10 z exp(-z) - z/2 the iterated minimum modulus never
diverges, but connectedness of the unbounded-orbit set still follows
from a weaker pair of conditions on a sequence of bounded, simply
connected domains D_n:

  (a) the image of the boundary of D_n surrounds D_(n+1), and
  (b) the D_n eventually contain every disc about the origin.

The domains here are unions of a large rectangle in the right half-plane
and a small one in the left half-plane, glued along the imaginary axis.
The check samples each boundary, maps it through f with adaptive
refinement, verifies the image keeps its distance from the next domain,
and demands a unanimous nonzero winding number on an interior probe
lattice.  Curve CSVs are written for plotting.
"""

import os

from orbitplane import boundary, check_nested_domains, ex51_domain, image_curve, parse
from orbitplane.fileio import curves_csv

OUT = os.environ.get("ORBITPLANE_OUT", "demo_out")
os.makedirs(OUT, exist_ok=True)

f = parse("-10*z*exp(-z) - 0.5*z")
domains = [ex51_domain(n) for n in range(2, 7)]

report = check_nested_domains(f, domains, density=4.0, probe_grid=5)
print("inradii about 0 (units of pi):",
      [round(r / 3.141592653589793, 3) for r in report.inradii])
print("inradius strictly increasing:", report.inradius_increasing)
print()
for pair in report.pairs:
    rep = pair.report
    windings = sorted({w for _, w in rep.winding_values})
    print(f"image(dD_{pair.index + 2}) vs D_{pair.index + 3}: "
          f"surrounds={rep.verdict}, min distance={rep.min_distance:.4f}, "
          f"windings={windings} on {rep.probes_tested} probes")
print()
print("overall verdict:", report.verdict)
print("note:", report.note)

for n, dom in zip(range(2, 7), domains):
    curve = boundary(dom, 4.0)
    curves_csv(os.path.join(OUT, f"boundary_D{n}.csv"), [curve])
    curves_csv(os.path.join(OUT, f"image_D{n}.csv"),
               [image_curve(f, curve)])
print(f"curve CSVs written under {OUT}/ (re,im rows, blank line between curves)")

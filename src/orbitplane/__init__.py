"""Numerical exploration of the set of points with unbounded orbit under
an entire function.

The package checks two finite, checkable sufficient conditions for the
connectedness of that set (divergence of the iterated minimum modulus;
boundary images surrounding a nested domain sequence), reproduces two
worked function studies quantitatively, and renders pixel censuses of
the bounded/unbounded suspect sets and their common boundary.
"""

from .curves import SampledCurve, image_curve, winding_number
from .domains import (Disc, DomainSpec, Rect, RectUnion, boundary, clearance,
                      contains, contains_closure, diameter, inradius_about,
                      interior_point)
from .errors import (AliasingUnresolved, CurveTooClose, DegenerateDomain,
                     ExprSyntaxError, InvalidRadius, NonEntireError,
                     OrbitPlaneError, RadiusOutsideWindow)
from .expressions import (FunctionExpression, evaluate,
                          evaluate_with_overflow, parse)
from .fileio import write_ppm
from .modulus import (DIVERGES, NOT_DIVERGING, UNDECIDED, DiscSequence,
                      MinModIterationReport, RadialExtremum,
                      derive_disc_sequence, iterate_min_modulus,
                      iterate_min_modulus_many, max_modulus, min_modulus)
from .orbits import (BUDGET_EXHAUSTED, CYCLE_LOCKED, ESCAPED,
                     FixedPointRecord, OrbitPolicy, OrbitVerdict, PointClass,
                     classify_point, find_fixed_points, iterate_orbit)
from .raster import (ComponentLabeling, ComponentStat, GridSpec,
                     PixelClassification, SpidersWebReport, boundary_pixels,
                     classification_from_array, classify_grid,
                     label_components, spiders_web_probe)
from .scenarios import SCENARIOS, ex51_domain, ex52_domain, run_scenario
from .surround import (NestedDomainsReport, SplReport, SurroundReport,
                       check_spl, check_nested_domains, surrounds)

__version__ = "0.1.0"

__all__ = [
    "AliasingUnresolved", "BUDGET_EXHAUSTED", "CYCLE_LOCKED",
    "ComponentLabeling", "ComponentStat", "CurveTooClose", "DIVERGES",
    "DegenerateDomain", "Disc", "DiscSequence", "DomainSpec", "ESCAPED",
    "ExprSyntaxError", "FixedPointRecord", "FunctionExpression", "GridSpec",
    "InvalidRadius", "MinModIterationReport", "NOT_DIVERGING",
    "NestedDomainsReport", "NonEntireError", "OrbitPlaneError", "OrbitPolicy",
    "OrbitVerdict", "PixelClassification", "PointClass", "RadialExtremum",
    "RadiusOutsideWindow", "Rect", "RectUnion",
    "SCENARIOS", "SampledCurve", "SpidersWebReport", "SplReport",
    "SurroundReport", "UNDECIDED", "boundary", "boundary_pixels",
    "check_spl", "check_nested_domains", "classification_from_array",
    "classify_grid", "classify_point", "clearance", "contains",
    "contains_closure", "derive_disc_sequence", "diameter", "evaluate",
    "evaluate_with_overflow", "ex51_domain", "ex52_domain",
    "find_fixed_points", "image_curve", "inradius_about", "interior_point",
    "iterate_min_modulus", "iterate_min_modulus_many", "iterate_orbit",
    "label_components", "max_modulus", "min_modulus", "parse", "run_scenario",
    "spiders_web_probe", "surrounds", "winding_number", "write_ppm",
]

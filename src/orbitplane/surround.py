"""Surrounding checks: does the image of a boundary enclose a domain?

A closed curve *surrounds* a set when the set lies in a bounded component
of the curve's complement.  For sampled curves this is decided by two
ingredients: the curve keeps its distance from the domain, and the
winding number about every interior probe point is nonzero (and the same
for all probes).  Both ingredients are finite evidence, not proof, and
every report says so.

Each check maps a domain boundary with :func:`curves.image_curve`, which
does not refine; :func:`surrounds` bisects the image's chords that are
longer than their endpoints' clearance from the target.  The clearances
of the last round give the deepest penetration and bound which segments
can hold the least distance to the domain.  Once the refined polyline
misses the closed target, one winding, about the first probe, decides
for all probes; otherwise :func:`curves.winding_numbers` winds the whole
lattice, with a crossing count per lattice row.

Two distance regimes are needed in practice.  The nested-domain check
requires the image curve merely to stay out of the open target domain,
with a small touch tolerance so that exact boundary-to-boundary maps
(such as squaring on a disc chain) pass.  The strongly-polynomial-like
check requires the image to clear the *closure* of its own domain by a
positive margin.  Both are fixed fractions of a diameter, and
``_MAX_POINTS`` caps the refined curve and the probe lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (_MAX_POINTS, SampledCurve, image_curve, refine,
                     winding_numbers)
from .domains import (DomainSpec, _cell_centers, _curve_distance, boundary,
                      clearance, contains, contains_closure, diameter,
                      inradius_about, interior_point)
from .errors import CurveTooClose
from .expressions import FunctionExpression

__all__ = [
    "SurroundReport",
    "PairCheck",
    "NestedDomainsReport",
    "SplReport",
    "surrounds",
    "check_nested_domains",
    "check_spl",
    "FINITE_HORIZON_NOTE",
]

FINITE_HORIZON_NOTE = (
    "checked on the supplied finite family only; conditions quantified over "
    "all n are reported as finite-horizon evidence, not proof")

# Rounds of clearance-driven bisection before segment distances are trusted.
_REFINE_ROUNDS = 48

# Touch tolerance of the nested-domain check and closure margin of the
# strongly-polynomial-like check, relative to the target's diameter.
_TOUCH_RTOL = 1e-9
_CLOSURE_EPS_RTOL = 1e-9


@dataclass(frozen=True)
class SurroundReport:
    """Evidence that a closed curve surrounds a domain.

    ``min_distance`` is the least distance from the sampled polyline
    segments to the closed domain (zero when they touch or cross);
    ``max_penetration`` is the deepest incursion of any curve sample into
    the open domain (zero when no sample is inside).  With the default
    strict settings the verdict is true iff ``min_distance > 0`` and all
    probe windings are nonzero and unanimous.  ``refine_stop`` says why
    chord refinement of the curve stopped (see :func:`curves.refine`)
    and ``curve_points`` how many samples the refined curve has.
    """

    verdict: bool
    min_distance: float
    max_penetration: float
    winding_values: tuple[tuple[complex, int], ...]
    probes_tested: int
    refine_stop: str
    curve_points: int
    note: str = ""


def _probe_points(domain: DomainSpec, probe_grid: int) -> np.ndarray:
    grid = _cell_centers(domain, max(1, int(probe_grid)))
    keep = contains(domain, grid, closed=False)
    probes = grid[keep]
    if probes.size == 0:
        probes = np.array([interior_point(domain)])
    return probes


def surrounds(curve: SampledCurve, domain: DomainSpec, probe_grid: int = 5,
              *, min_distance_required: float = 0.0,
              touch_tolerance: float | None = None) -> SurroundReport:
    """Check that ``curve`` surrounds ``domain``.

    Default (strict): the curve must not intersect the closed domain
    (``min_distance > min_distance_required``) and the winding number
    about every interior probe on a ``probe_grid`` x ``probe_grid``
    lattice (at least one point) must be nonzero and unanimous.  When
    the refined polyline misses the closed domain, the winding about the
    first probe is reported for every probe, since the connected domain
    lies in one component of the polyline's complement.

    With ``touch_tolerance`` set, the distance requirement is replaced by
    a sample-penetration bound: curve samples may touch the boundary but
    not enter the open domain deeper than the tolerance.  This is the
    right test against open target domains whose boundary the image may
    hit exactly.
    """
    if int(probe_grid) ** 2 > _MAX_POINTS:
        raise ValueError(f"a {int(probe_grid)} x {int(probe_grid)} probe "
                         f"lattice exceeds the {_MAX_POINTS}-point cap")

    c = None

    def too_long(work: SampledCurve) -> np.ndarray:
        # Chords no longer than their endpoints' clearance cannot cross the
        # domain unnoticed.  A curve that truly touches it stops shrinking
        # here, and the distance test below reports zero.
        nonlocal c
        c = clearance(domain, work.points)
        d = np.abs(c)
        seglen = np.abs(work.segment_ends() - work.segment_starts())
        return np.nonzero(
            seglen > 0.9 * np.maximum(np.maximum(d, np.roll(d, -1)), 1e-300))[0]

    # refine calls too_long last on the curve it returns, so ``c`` holds
    # that curve's clearances.
    work, stop = refine(curve, too_long, _MAX_POINTS, _REFINE_ROUNDS)
    max_penetration = float(max(0.0, -np.min(c)))
    min_distance = _curve_distance(work, domain, c)

    if touch_tolerance is None:
        geom_ok = min_distance > min_distance_required
    else:
        geom_ok = max_penetration <= touch_tolerance

    probes = _probe_points(domain, probe_grid)
    # With min_distance > 0 the polyline misses the closed target, which
    # is connected (a disc, a rectangle or a Jordan union) and so lies in
    # one component of its complement.  Every probe lies in the open
    # target, so all share one winding number, whose crossing count is
    # exact, and no sample comes within min_clearance < min_distance of
    # a probe.  A polyline that touches or crosses the target winds all.
    tested = probes[:1] if min_distance > 0 else probes
    try:
        values = np.broadcast_to(winding_numbers(
            work, tested, min_clearance=min(1e-9, max(min_distance / 2, 1e-300)),
            max_points=_MAX_POINTS), probes.shape)
        windable = True
    except CurveTooClose as exc:
        values, windable = exc.partial, False
    windings = [(complex(w), int(wn)) for w, wn in zip(probes, values)]
    seen = {wn for _, wn in windings}
    wind_ok = windable and len(seen) == 1 and 0 not in seen

    return SurroundReport(
        verdict=bool(geom_ok and wind_ok),
        min_distance=min_distance,
        max_penetration=max_penetration,
        winding_values=tuple(windings),
        probes_tested=len(probes),
        refine_stop=stop,
        curve_points=len(work),
        note=FINITE_HORIZON_NOTE,
    )


@dataclass(frozen=True)
class PairCheck:
    index: int
    report: SurroundReport

    @property
    def verdict(self) -> bool:
        return self.report.verdict


@dataclass(frozen=True)
class NestedDomainsReport:
    """Evidence for the nested-domain sufficient condition.

    Condition (a): the image of each boundary surrounds the next domain.
    Condition (b): the inradii about 0 are strictly increasing across the
    supplied family (the finite-horizon proxy for exhausting the plane).
    """

    pairs: tuple[PairCheck, ...]
    inradii: tuple[float, ...]
    inradius_increasing: bool
    note: str = FINITE_HORIZON_NOTE

    @property
    def condition_a(self) -> bool:
        return all(p.verdict for p in self.pairs)

    @property
    def condition_b(self) -> bool:
        return self.inradius_increasing

    @property
    def verdict(self) -> bool:
        return self.condition_a and self.condition_b


def check_nested_domains(f: FunctionExpression, domains: list[DomainSpec],
                    density: float = 4.0, probe_grid: int = 5
                    ) -> NestedDomainsReport:
    """Check the nested-domain conditions on a finite family.

    For each consecutive pair, the image of the boundary of ``D[n]``
    under ``f`` must surround ``D[n+1]``; touching the target boundary
    within ``_TOUCH_RTOL * diameter`` is tolerated because equality cases
    (boundary mapping exactly onto boundary) are legitimate.
    """
    if len(domains) < 2:
        raise ValueError("need at least two domains")
    pairs = []
    for n in range(len(domains) - 1):
        img = image_curve(f, boundary(domains[n], density))
        tol = _TOUCH_RTOL * diameter(domains[n + 1])
        rep = surrounds(img, domains[n + 1], probe_grid, touch_tolerance=tol)
        pairs.append(PairCheck(n, rep))
    inradii = tuple(inradius_about(d) for d in domains)
    increasing = all(b > a for a, b in zip(inradii, inradii[1:]))
    return NestedDomainsReport(tuple(pairs), inradii, increasing)


@dataclass(frozen=True)
class SplReport:
    """Evidence for the strongly-polynomial-like characterisation.

    (i) each boundary image surrounds the closure of its own domain
    (closure handled by requiring a positive distance margin),
    (iii) each closure is contained in the next domain, and (ii) is
    reported as the inradius growth proxy.
    """

    self_surround: tuple[PairCheck, ...]
    closure_nested: tuple[bool, ...]
    inradii: tuple[float, ...]
    inradius_increasing: bool
    note: str = FINITE_HORIZON_NOTE

    @property
    def condition_i(self) -> bool:
        return all(p.verdict for p in self.self_surround)

    @property
    def condition_iii(self) -> bool:
        return all(self.closure_nested)

    @property
    def verdict(self) -> bool:
        return self.condition_i and self.condition_iii and self.inradius_increasing


def check_spl(f: FunctionExpression, domains: list[DomainSpec],
              density: float = 4.0, probe_grid: int = 5) -> SplReport:
    """Check the strongly-polynomial-like conditions on a finite family."""
    if len(domains) < 2:
        raise ValueError("need at least two domains")
    self_surround = []
    for n, dom in enumerate(domains):
        img = image_curve(f, boundary(dom, density))
        eps = _CLOSURE_EPS_RTOL * diameter(dom)
        rep = surrounds(img, dom, probe_grid, min_distance_required=eps)
        self_surround.append(PairCheck(n, rep))
    nested = tuple(contains_closure(domains[n + 1], domains[n])
                   for n in range(len(domains) - 1))
    inradii = tuple(inradius_about(d) for d in domains)
    increasing = all(b > a for a, b in zip(inradii, inradii[1:]))
    return SplReport(tuple(self_surround), nested, inradii, increasing)

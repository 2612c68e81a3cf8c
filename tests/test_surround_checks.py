import math

import numpy as np
import pytest

from orbitplane.curves import image_curve
from orbitplane.domains import Disc, Rect, boundary
from orbitplane.expressions import evaluate, parse
from orbitplane.scenarios import ex51_domain, ex52_domain
from orbitplane.surround import (_probe_points, check_nested_domains, check_spl,
                                 surrounds)

PI = math.pi


@pytest.fixture(scope="module")
def ex51():
    return parse("-10*z*exp(-z) - 0.5*z")


@pytest.fixture(scope="module")
def ex52():
    return parse("cos(z) + z")


def test_surrounds_trivial_true():
    curve = boundary(Disc(0j, 2.0), 20.0)
    rep = surrounds(curve, Disc(0j, 1.0))
    assert rep.verdict
    assert rep.min_distance == pytest.approx(1.0, rel=1e-3)
    assert rep.probes_tested >= 1
    assert all(w == 1 for _, w in rep.winding_values)


def test_surrounds_disjoint_false():
    curve = boundary(Disc(0j, 2.0), 20.0)
    rep = surrounds(curve, Disc(5.0 + 0j, 1.0))
    assert not rep.verdict
    assert all(w == 0 for _, w in rep.winding_values)


def test_surrounds_small_curve_inside_domain_false():
    curve = boundary(Disc(0j, 0.1), 50.0)
    rep = surrounds(curve, Disc(0j, 1.0))
    assert not rep.verdict
    assert rep.max_penetration > 0


def test_surrounds_mixed_windings_false():
    # a figure-probing case: curve around only part of the domain
    curve = boundary(Disc(1.0 + 0j, 1.05), 40.0)
    rep = surrounds(curve, Rect(-0.5, 0.5, -0.25, 0.25), probe_grid=5)
    assert not rep.verdict


def test_nested_domains_squaring_chain(ex51):
    f = parse("z^2")
    rep = check_nested_domains(f, [Disc(0j, 2.0), Disc(0j, 4.0), Disc(0j, 16.0)],
                          density=8.0)
    assert rep.verdict
    assert rep.inradii == (2.0, 4.0, 16.0)
    for pair in rep.pairs:
        assert {w for _, w in pair.report.winding_values} == {2}


def test_nested_domains_sin_fails():
    rep = check_nested_domains(parse("sin(z)"),
                          [Disc(0j, 1.0), Disc(0j, 2.0), Disc(0j, 3.0)],
                          density=8.0)
    assert not rep.condition_a
    assert not rep.pairs[0].verdict
    # direct evaluation oracle: the image of |z| = 1 stays inside |w| < 2
    th = np.linspace(0, 2 * PI, 1000, endpoint=False)
    img = np.abs(evaluate(parse("sin(z)"), np.exp(1j * th)))
    assert float(img.max()) < 2.0


# The sin z disc chain is the benchmark traffic that refines near the
# target domain: pair 1 stops on the round cap at density 8 and stalls at
# density 29.  Values, and the refined point counts, were recorded before
# that refinement moved into curves.refine.
SIN_CHAIN_WINDINGS = (
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 0, 2, 1, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1],
)


@pytest.mark.parametrize("density, refined", [
    (8.0, [(51, 51, "converged"), (101, 967, "rounds")]),
    (29.0, [(183, 183, "converged"), (365, 1195, "stalled")]),
])
def test_nested_domains_sin_refinement_pinned(monkeypatch, density, refined):
    import orbitplane.surround as surround_module

    seen = []
    original = surround_module.refine

    def spy(curve, bad, max_points, max_rounds=None):
        work, stop = original(curve, bad, max_points, max_rounds)
        seen.append((len(curve), len(work), stop))
        return work, stop

    monkeypatch.setattr(surround_module, "refine", spy)
    rep = check_nested_domains(parse("sin(z)"),
                               [Disc(0j, 1.0), Disc(0j, 2.0), Disc(0j, 3.0)],
                               density=density)
    assert seen == refined
    assert [p.report.min_distance for p in rep.pairs] == [0.0, 0.0]
    assert [p.report.max_penetration for p in rep.pairs] == [
        1.1585290151921035, 2.090702573174318]
    assert [[w for _, w in p.report.winding_values]
            for p in rep.pairs] == list(SIN_CHAIN_WINDINGS)


@pytest.mark.parametrize("source, domains, density, spl, stops, points, verdicts", [
    ("sin(z)", [Disc(0j, 1.0), Disc(0j, 2.0), Disc(0j, 3.0)], 8.0, False,
     ["converged", "rounds"], [51, 967], [False, False]),
    # The images of |z| = 2 and 4 lie exactly on the target circles, so
    # refinement runs out of points although the verdicts are true.
    ("z^2", [Disc(0j, 2.0), Disc(0j, 4.0), Disc(0j, 16.0)], 8.0, False,
     ["budget", "budget"], [103_424, 103_424], [True, True]),
    ("-10*z*exp(-z) - 0.5*z", [ex51_domain(n) for n in range(2, 7)], 4.0,
     False, ["converged"] * 4, None, [True] * 4),
    ("cos(z) + z", [ex52_domain(n) for n in range(4)], 4.0, True,
     ["converged"] * 4, None, [True] * 4),
], ids=["sin-discs", "squaring-discs", "ex51", "ex52"])
def test_surround_reports_say_why_refinement_stopped(source, domains, density,
                                                     spl, stops, points,
                                                     verdicts):
    if spl:
        pairs = check_spl(parse(source), domains, density).self_surround
    else:
        pairs = check_nested_domains(parse(source), domains, density).pairs
    assert [p.report.refine_stop for p in pairs] == stops
    if points is not None:
        assert [p.report.curve_points for p in pairs] == points
    assert [p.verdict for p in pairs] == verdicts


def test_nested_domains_ex51(ex51):
    domains = [ex51_domain(n) for n in range(2, 7)]
    rep = check_nested_domains(ex51, domains, density=4.0, probe_grid=5)
    assert rep.verdict
    assert rep.condition_a and rep.condition_b
    np.testing.assert_allclose(rep.inradii,
                               [n * PI for n in range(2, 7)], rtol=1e-12)
    for pair in rep.pairs:
        values = {w for _, w in pair.report.winding_values}
        assert len(values) == 1 and 0 not in values
        assert pair.report.min_distance > 0


def test_ex51_right_edge_bound(ex51):
    # on Re z = 8 pi, |Im z| <= 8 pi the function is within 1e-3 of -z/2
    y = np.linspace(-8 * PI, 8 * PI, 1001)
    z = 8 * PI + 1j * y
    assert float(np.max(np.abs(evaluate(ex51, z) + z / 2))) < 1e-3


def test_ex51_top_edge_image_in_left_half_plane(ex51):
    # the top edge of the n = 2 domain: z = x + 8 pi i, 0 <= x <= 8 pi maps
    # into the left half-plane below Im w = -4 pi
    x = np.linspace(0, 8 * PI, 2000)
    w = evaluate(ex51, x + 8j * PI)
    assert float(w.real.max()) <= 1e-12
    assert float(w.imag.max()) < -4 * PI


def test_ex51_winding_segment_endpoints(ex51):
    # the winding section joins f(4 n pi i) = -42 n pi i to f(n pi i);
    # the latter equals (19/2) n pi i for odd n but -(21/2) n pi i for
    # even n, so both endpoint values are recorded rather than asserted
    # from a single formula
    for n in (1, 2, 3):
        far = complex(evaluate(ex51, 4 * n * PI * 1j))
        near = complex(evaluate(ex51, n * PI * 1j))
        assert far == pytest.approx(-42 * n * PI * 1j, rel=1e-9)
        if n % 2 == 1:
            assert near == pytest.approx(9.5 * n * PI * 1j, rel=1e-9)
        else:
            assert near == pytest.approx(-10.5 * n * PI * 1j, rel=1e-9)


def test_spl_ex52(ex52):
    domains = [ex52_domain(n) for n in range(4)]
    rep = check_spl(ex52, domains, density=4.0, probe_grid=5)
    assert rep.condition_i and rep.condition_iii
    assert rep.verdict
    for pair in rep.self_surround:
        assert pair.report.min_distance > 0.5  # cosh(y)/sqrt(2) margin


def test_spl_sin_fails():
    rep = check_spl(parse("sin(z)"),
                    [Disc(0j, 1.0), Disc(0j, 2.0), Disc(0j, 3.0)],
                    density=8.0)
    assert not rep.condition_i


def test_spl_squaring_chain():
    rep = check_spl(parse("z^2"),
                    [Disc(0j, 2.0), Disc(0j, 8.0), Disc(0j, 128.0)],
                    density=8.0)
    assert rep.condition_i and rep.condition_iii


def test_ex52_annulus_bound(ex52):
    # horizontal sides of D_n map into the annulus
    # 0.5 e^{2(n+1)pi} +- 4(n+1)pi in modulus
    for n in range(4):
        dom = ex52_domain(n)
        height = 2 * (n + 1) * PI
        x = np.linspace(dom.x_min, dom.x_max, 1001)
        lo = 0.5 * math.exp(height) - 4 * (n + 1) * PI
        hi = 0.5 * math.exp(height) + 4 * (n + 1) * PI
        for side in (height, -height):
            m = np.abs(evaluate(ex52, x + 1j * side))
            assert float(m.min()) >= lo * (1 - 1e-6)
            assert float(m.max()) <= hi * (1 + 1e-6)


def test_reports_carry_finite_horizon_note(ex52):
    rep = check_spl(ex52, [ex52_domain(0), ex52_domain(1)], density=4.0)
    assert "finite" in rep.note
    assert "finite" in rep.self_surround[0].report.note


def test_probe_lattice_above_cap_is_refused_before_allocating():
    curve = image_curve(parse("2*z"), boundary(Disc(0j, 1.0), 4.0))
    for grid in (448, 100_000):  # 100,000^2 probes would need 149 GiB
        with pytest.raises(ValueError, match="probe lattice"):
            surrounds(curve, Disc(0j, 1.0), grid)
    assert surrounds(curve, Disc(0j, 1.0), 447).verdict


def test_huge_image_reports_its_true_distance():
    # |z| = 1 takes 26 samples at density 4, so its image under
    # 1e308 (1 + i) z is a regular 26-gon of circumradius sqrt(2) 1e308;
    # the disc of radius 2 is nearest to the middles of its edges
    rep = check_nested_domains(parse("1e308*(1+i)*z"),
                               [Disc(0j, 1.0), Disc(0j, 2.0)])
    pair = rep.pairs[0].report
    assert (pair.curve_points, pair.refine_stop) == (26, "converged")
    want = math.sqrt(2) * 1e308 * math.cos(PI / 26) - 2
    assert pair.min_distance == pytest.approx(want, rel=1e-12)
    assert pair.probes_tested == 21
    assert {wn for _, wn in pair.winding_values} == {1}
    assert rep.verdict


# --- one winding decides a surround --------------------------------------
# Once the refined polyline misses the closed target, surrounds winds the
# first probe alone and repeats its winding; otherwise it winds the whole
# lattice.  A spy on the kernel sees which, and the original kernel on the
# spied curve gives what the whole lattice would have reported.

def _spy_on_windings(monkeypatch):
    import orbitplane.surround as surround_module

    original, calls = surround_module.winding_numbers, []

    def spy(curve, probes, **kwargs):
        calls.append((curve, np.array(probes), kwargs))
        return original(curve, probes, **kwargs)

    monkeypatch.setattr(surround_module, "winding_numbers", spy)
    return original, calls


def _assert_one_winding_decides(reports, original, calls):
    assert len(calls) == len(reports)
    for rep, (curve, tested, kwargs) in zip(reports, calls):
        if rep.min_distance == 0:
            assert tested.size == rep.probes_tested
            continue
        probes = np.array([w for w, _ in rep.winding_values])
        assert probes.size == rep.probes_tested > 1
        assert tested.tolist() == probes[:1].tolist()
        want = original(curve, probes, **kwargs)
        assert [wn for _, wn in rep.winding_values] == want.tolist()


def _seeded_pairs(seed, probe_grid):
    # images of discs and rectangles about 0 against smaller targets
    # within 3 of it: surrounds of winding 1 to 3, misses and crossings
    rng = np.random.default_rng(seed)
    sources = ["z^2", "2*z", "z^3 + z", "cos(z) + z", "exp(z)", "3*z - z^2"]

    def domain(spread, lo, hi):
        c = complex(*rng.uniform(-spread, spread, 2))
        if rng.random() < 0.5:
            return Disc(c, float(rng.uniform(lo, hi)))
        w, h = rng.uniform(lo, hi, 2)
        return Rect(c.real - w, c.real + w, c.imag - h, c.imag + h)

    return [surrounds(image_curve(parse(sources[rng.integers(len(sources))]),
                                  boundary(domain(0.5, 1.0, 2.0), 8.0)),
                      domain(3.0, 0.2, 1.0), probe_grid)
            for _ in range(12)]


def test_one_winding_decides_on_the_worked_examples(monkeypatch, ex51, ex52):
    original, calls = _spy_on_windings(monkeypatch)
    nested = check_nested_domains(ex51, [ex51_domain(n) for n in range(2, 7)],
                                  density=4.0)
    spl = check_spl(ex52, [ex52_domain(n) for n in range(4)], density=4.0)
    reports = [p.report for p in nested.pairs + spl.self_surround]
    assert all(rep.min_distance > 0 for rep in reports)
    _assert_one_winding_decides(reports, original, calls)


@pytest.mark.parametrize("probe_grid", [5, 7, 9])
def test_one_winding_decides_on_seeded_pairs(monkeypatch, probe_grid):
    original, calls = _spy_on_windings(monkeypatch)
    reports = _seeded_pairs(200 + probe_grid, probe_grid)
    # surrounds that keep a distance, and crossings
    assert any(rep.verdict for rep in reports)
    assert any(rep.min_distance == 0 for rep in reports)
    _assert_one_winding_decides(reports, original, calls)


@pytest.mark.parametrize("source, radii, verdicts", [
    # the image of |z| = 1 is the target circle |w| = 2: touch mode passes
    ("2*z", [1.0, 2.0], [True]),
    ("sin(z)", [1.0, 2.0, 3.0], [False, False]),
])
def test_every_probe_is_wound_when_the_image_meets_the_target(
        monkeypatch, source, radii, verdicts):
    _, calls = _spy_on_windings(monkeypatch)
    domains = [Disc(0j, r) for r in radii]
    rep = check_nested_domains(parse(source), domains, density=4.0)
    assert [p.verdict for p in rep.pairs] == verdicts
    assert len(calls) == len(rep.pairs)
    for pair, target, (_, tested, _) in zip(rep.pairs, domains[1:], calls):
        assert pair.report.min_distance == 0.0
        assert tested.tolist() == _probe_points(target, 5).tolist()
        assert tested.size == pair.report.probes_tested > 1

"""Command-line front end.

Subcommands: parse-check, minmod, minmod-iterate, disc-seq,
surround-check, spl-check, orbit, fixed-points, render, components,
sw-probe, scenario.

Each subcommand body computes its result and returns the report as the
echoed flags plus the ``fileio`` encoding of that result: bodies compute,
``fileio`` encodes.

Exit codes: 0 on success with all asserted checks passing, 1 on a failed
check (a JSON failure report is still written), 2 on usage or expression
errors.  All numeric parameters are flags; a ``key=value`` config file
may supply defaults (flags win).  The only environment variable honored
is ORBITPLANE_OUT, which overrides the default output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import zipfile

from . import fileio
from .curves import image_curve
from .domains import Disc, Rect, boundary
from .errors import (DegenerateDomain, ExprSyntaxError, InvalidRadius,
                     NonEntireError, OrbitPlaneError, RadiusOutsideWindow)
from .expressions import parse as parse_expr
from .modulus import (MAX_COARSE, derive_disc_sequence, iterate_min_modulus,
                      max_modulus, min_modulus)
from .orbits import OrbitPolicy, PointClass, find_fixed_points, iterate_orbit
from .raster import (GridSpec, boundary_pixels, classify_grid,
                     label_components, spiders_web_probe)
from .scenarios import SCENARIOS, ex51_domain, ex52_domain, run_scenario
from .surround import check_spl, check_nested_domains

__all__ = ["main"]


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise argparse.ArgumentTypeError(
            f"{what} needs {count} comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


def _complex_flag(text: str) -> complex:
    re_, im_ = _parse_floats(text, 2, "a complex value")
    if not (math.isfinite(re_) and math.isfinite(im_)):
        raise argparse.ArgumentTypeError(
            f"a complex value needs finite parts, got {text!r}")
    return complex(re_, im_)


def _window_flag(text: str) -> Rect:
    x0, x1, y0, y1 = _parse_floats(text, 4, "a window")
    try:
        return Rect(x0, x1, y0, y1)
    except DegenerateDomain as exc:
        raise argparse.ArgumentTypeError(f"window {text!r}: {exc}") from exc


def _positive_flag(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"needs a positive finite number, got {text!r}")
    return value


def _int_at_least(low: int, at_most: int | None = None):
    """An argparse type: an integer no smaller than ``low``.

    With ``at_most``, an integer above it is refused too.
    """
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"needs an integer >= {low}, got {text!r}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(
                f"needs an integer <= {at_most}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse names the type in its own messages
    return parse


def _radii_flag(text: str) -> list[float]:
    radii = [float(p) for p in text.split(",")]
    if not (all(0 < r < math.inf for r in radii)
            and all(a < b for a, b in zip(radii, radii[1:]))):
        raise argparse.ArgumentTypeError(
            "radii need comma-separated positive finite numbers in "
            f"strictly increasing order, got {text!r}")
    return radii


def _class_flag(text: str) -> PointClass:
    try:
        return PointClass[text.upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown class {text!r}; use unbounded_suspect, "
            "bounded_suspect or undecided")


def _policy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_int_at_least(1), default=200,
                   help="max iterations per orbit (default 200)")
    p.add_argument("--escape-radius", type=_positive_flag, default=1e6,
                   help="modulus treated as escaped (default 1e6)")
    p.add_argument("--cycle-tol", type=_positive_flag, default=1e-9,
                   help="near-return tolerance for cycle locking (default 1e-9)")
    p.add_argument("--cycle-window", type=_int_at_least(1), default=32,
                   help="history window for near-return scans (default 32)")


def _policy_of(args) -> OrbitPolicy:
    return OrbitPolicy(args.budget, args.escape_radius, args.cycle_tol,
                       args.cycle_window)


def _domain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--discs", help="comma-separated radii of discs about 0")
    p.add_argument("--rects",
                   help="semicolon-separated rectangles, each x0,x1,y0,y1")
    p.add_argument("--family", choices=["ex51", "ex52"],
                   help="built-in domain family")
    p.add_argument("--n-lo", type=int, default=None,
                   help="first family index (ex51 default 2, ex52 default 0)")
    p.add_argument("--n-hi", type=int, default=None,
                   help="last family index inclusive (ex51 default 6, ex52 default 3)")
    p.add_argument("--density", type=_positive_flag, default=4.0)
    p.add_argument("--probe-grid", type=_int_at_least(1), default=5)


def _domains_of(args) -> list:
    given = sum(bool(v) for v in (args.discs, args.rects, args.family))
    if given != 1:
        raise SystemExit2("give exactly one of --discs, --rects, --family")
    try:
        if args.discs:
            return [Disc(0j, float(r)) for r in args.discs.split(",")]
        if args.rects:
            return [_window_flag(chunk) for chunk in args.rects.split(";")]
    except (ValueError, argparse.ArgumentTypeError, DegenerateDomain) as exc:
        raise SystemExit2(f"bad domain: {exc}") from exc
    builder = ex51_domain if args.family == "ex51" else ex52_domain
    lo = args.n_lo if args.n_lo is not None else (2 if args.family == "ex51" else 0)
    hi = args.n_hi if args.n_hi is not None else (6 if args.family == "ex51" else 3)
    if hi < lo:
        raise SystemExit2("--n-hi must be >= --n-lo")
    try:
        return [builder(n) for n in range(lo, hi + 1)]
    except ValueError as exc:
        raise SystemExit2(f"bad domain: {exc}") from exc


def _refusable(what: str, call, *call_args):
    """``call(*call_args)``; input it refuses is a usage error.

    Flags that need a value of their own are checked at parse time; the
    library refuses what only several flags together make wrong, such as
    a --blow-up not above --r, fewer than two domains, a boundary or probe
    lattice above the sample cap, an orbit history above its cap, or a
    boundary mapped to a single point or beyond the double range, and a
    --seeds lattice above the sample cap.
    """
    try:
        return call(*call_args)
    except ValueError as exc:
        raise SystemExit2(f"{what}: {exc}") from exc


class SystemExit2(Exception):
    """Usage error carrying exit code 2."""


# Values like "-10,10,-5,5" must parse as flag values, not option names.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once; parsing leaves no state on it."""
    root = argparse.ArgumentParser(
        prog="orbitplane",
        description="Numerical exploration of the set of unbounded orbits "
                    "of an entire function.")
    root._negative_number_matcher = _NEGATIVE_VALUE
    root.add_argument("--out", default=None,
                      help="output directory (default: ORBITPLANE_OUT or .)")
    root.add_argument("--config", default=None,
                      help="key=value file of flag defaults (flags win)")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-check", help="validate an expression")
    p.add_argument("--f", required=True, help="expression source")

    p = sub.add_parser("minmod", help="min/max modulus on one circle")
    p.add_argument("--f", required=True)
    p.add_argument("--r", type=_positive_flag, required=True)
    p.add_argument("--n-coarse", type=_int_at_least(64, MAX_COARSE),
                   default=4096)
    p.add_argument("--tol", type=_positive_flag, default=1e-10)

    p = sub.add_parser("minmod-iterate", help="iterate r -> min modulus")
    p.add_argument("--f", required=True)
    p.add_argument("--r", dest="r0", type=_positive_flag, required=True)
    p.add_argument("--n-max", type=_int_at_least(1), default=50)
    p.add_argument("--blow-up", type=_positive_flag, default=1e50)
    p.add_argument("--n-coarse", type=_int_at_least(64, MAX_COARSE),
                   default=4096)
    p.add_argument("--tol", type=_positive_flag, default=1e-10)

    p = sub.add_parser("disc-seq", help="disc sequence from iterated min modulus")
    p.add_argument("--f", required=True)
    p.add_argument("--r", dest="r0", type=_positive_flag, required=True)
    p.add_argument("--count", type=_int_at_least(1), default=4)
    p.add_argument("--n-coarse", type=_int_at_least(64, MAX_COARSE),
                   default=4096)
    p.add_argument("--tol", type=_positive_flag, default=1e-10)

    p = sub.add_parser("surround-check",
                       help="nested-domain surrounding conditions")
    p.add_argument("--f", required=True)
    _domain_args(p)
    p.add_argument("--emit-curves", action="store_true",
                   help="also write boundary and image curve CSVs")

    p = sub.add_parser("spl-check",
                       help="strongly-polynomial-like conditions")
    p.add_argument("--f", required=True)
    _domain_args(p)

    p = sub.add_parser("orbit", help="iterate one orbit")
    p.add_argument("--f", required=True)
    p.add_argument("--z0", type=_complex_flag, required=True,
                   help="start point as re,im")
    _policy_args(p)
    p.add_argument("--trace", action="store_true",
                   help="also write the orbit trace CSV")

    p = sub.add_parser("fixed-points", help="locate and classify fixed points")
    p.add_argument("--f", required=True)
    p.add_argument("--rect", type=_window_flag, required=True,
                   help="search region as x0,x1,y0,y1")
    p.add_argument("--seeds", type=_int_at_least(1), default=24)
    p.add_argument("--newton-tol", type=_positive_flag, default=1e-10)
    p.add_argument("--max-newton", type=_int_at_least(0), default=60)

    p = sub.add_parser("render", help="classify a pixel grid")
    p.add_argument("--f", required=True)
    p.add_argument("--window", type=_window_flag, required=True,
                   help="x0,x1,y0,y1")
    p.add_argument("--nx", type=_int_at_least(2), required=True)
    p.add_argument("--ny", type=_int_at_least(2), required=True)
    _policy_args(p)
    p.add_argument("--overlay-boundary", type=_class_flag, default=None,
                   metavar="CLASS", help="draw this class's boundary in red")
    p.add_argument("--prefix", default="render",
                   help="output file prefix (default render)")

    p = sub.add_parser("components", help="census of a rendered class")
    p.add_argument("--input", default="render.npz",
                   help="classification archive from render")
    p.add_argument("--target", type=_class_flag,
                   default=PointClass.UNBOUNDED_SUSPECT)
    p.add_argument("--connectivity", type=int, choices=[4, 8], default=4)

    p = sub.add_parser("sw-probe", help="spider's-web evidence probe")
    p.add_argument("--input", default="render.npz")
    p.add_argument("--target", type=_class_flag,
                   default=PointClass.UNBOUNDED_SUSPECT)
    p.add_argument("--connectivity", type=int, choices=[4, 8], default=4)
    p.add_argument("--center", type=_complex_flag, default=0j,
                   help="probe center as re,im (default 0,0)")
    p.add_argument("--radii", type=_radii_flag, required=True,
                   help="comma-separated increasing radii")

    p = sub.add_parser("scenario", help="run a built-in study")
    p.add_argument("name", choices=sorted(SCENARIOS))

    for action in sub.choices.values():
        action._negative_number_matcher = _NEGATIVE_VALUE
    return root


def _expand_config(argv: list[str]) -> list[str]:
    """Inline --config key=value pairs ahead of the explicit flags.

    The file is named as ``--config FILE`` or ``--config=FILE``.
    """
    at = next((k for k, token in enumerate(argv)
               if token == "--config" or token.startswith("--config=")), None)
    if at is None:
        return argv
    if argv[at] == "--config":
        if at + 1 >= len(argv):
            raise SystemExit2("--config needs a file path")
        path, rest = argv[at + 1], argv[:at] + argv[at + 2:]
    else:
        path, rest = argv[at][len("--config="):], argv[:at] + argv[at + 1:]
    if not os.path.exists(path):
        raise SystemExit2(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8
        raise SystemExit2(f"cannot read config file {path}: {exc}") from exc
    injected: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit2(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        injected += [f"--{key.strip()}", value.strip()]
    # Config defaults go right after the subcommand (and its positional,
    # for scenario) so explicit flags, parsed later, win.  The value of a
    # root --out may name a subcommand too; it is not the subcommand.
    for k, token in enumerate(rest):
        if token in _COMMANDS and (k == 0 or rest[k - 1] != "--out"):
            at = k + 2 if token == "scenario" else k + 1
            at = min(at, len(rest))
            return rest[:at] + injected + rest[at:]
    return rest + injected


# ---------------------------------------------------------------------------
# Subcommand bodies; each returns (exit_code, report_dict, fname), with
# report_dict None when the command wrote fname itself
# ---------------------------------------------------------------------------

def _cmd_parse_check(args, outdir):
    f = parse_expr(args.f)
    report = {"kind": "parse_check", "function": args.f,
              "canonical": f.to_source(),
              "derivative": f.derivative().to_source()}
    return 0, report, "parse_check.json"


def _cmd_minmod(args, outdir):
    f = parse_expr(args.f)
    lo = min_modulus(f, args.r, args.n_coarse, args.tol)
    hi = max_modulus(f, args.r, args.n_coarse, args.tol)
    report = {"kind": "minmod", "function": args.f, "radius": args.r,
              "n_coarse": args.n_coarse, "tol": args.tol,
              "minimum": fileio.encode_extremum(lo),
              "maximum": fileio.encode_extremum(hi)}
    return 0, report, "minmod.json"


def _cmd_minmod_iterate(args, outdir):
    f = parse_expr(args.f)
    rep = _refusable("cannot iterate", iterate_min_modulus, f, args.r0,
                     args.n_max, args.blow_up, args.n_coarse, args.tol)
    fileio.sequence_csv(os.path.join(outdir, "minmod_iterate.csv"),
                        rep.sequence)
    report = {"kind": "minmod_iterate", "function": args.f, "r0": args.r0,
              "n_max": args.n_max, "blow_up": args.blow_up,
              **fileio.encode_iteration(rep)}
    return 0, report, "minmod_iterate.json"


def _cmd_disc_seq(args, outdir):
    f = parse_expr(args.f)
    seq = _refusable("cannot iterate", derive_disc_sequence, f, args.r0,
                     args.count, args.n_coarse, args.tol)
    report = {"kind": "disc_seq", "function": args.f, "r0": args.r0,
              "count": args.count, **fileio.encode_disc_sequence(seq)}
    fileio.sequence_csv(os.path.join(outdir, "disc_seq.csv"), report["radii"])
    return 0, report, "disc_seq.json"


def _cmd_surround_check(args, outdir):
    f = parse_expr(args.f)
    domains = _domains_of(args)
    rep = _refusable("cannot check these domains", check_nested_domains, f,
                     domains, args.density, args.probe_grid)
    if args.emit_curves:
        for n, dom in enumerate(domains):
            curve = boundary(dom, args.density)
            fileio.curves_csv(os.path.join(outdir, f"boundary_{n}.csv"), [curve])
            img = image_curve(f, curve)
            fileio.curves_csv(os.path.join(outdir, f"image_{n}.csv"), [img])
    report = {"kind": "surround_check", "function": args.f,
              "domains": [fileio.encode_domain(d) for d in domains],
              "density": args.density, "probe_grid": args.probe_grid,
              **fileio.encode_nested_report(rep)}
    return (0 if report["verdict"] else 1), report, "surround_check.json"


def _cmd_spl_check(args, outdir):
    f = parse_expr(args.f)
    domains = _domains_of(args)
    rep = _refusable("cannot check these domains", check_spl, f, domains,
                     args.density, args.probe_grid)
    report = {"kind": "spl_check", "function": args.f,
              "domains": [fileio.encode_domain(d) for d in domains],
              "density": args.density, "probe_grid": args.probe_grid,
              **fileio.encode_spl_report(rep)}
    ok = report["condition_i"] and report["condition_iii"]
    return (0 if ok else 1), report, "spl_check.json"


def _cmd_orbit(args, outdir):
    f = parse_expr(args.f)
    policy = _policy_of(args)
    verdict = _refusable("cannot iterate this orbit", iterate_orbit, f,
                         args.z0, policy, args.trace)
    if args.trace and verdict.trace:
        fileio.orbit_csv(os.path.join(outdir, "orbit.csv"), verdict.trace)
    report = {"kind": "orbit", "function": args.f,
              "z0": fileio.encode_complex(args.z0),
              **fileio.encode_orbit(verdict, policy)}
    return 0, report, "orbit.json"


def _cmd_fixed_points(args, outdir):
    f = parse_expr(args.f)
    records = _refusable("cannot search for fixed points", find_fixed_points,
                         f, args.rect, args.seeds, args.newton_tol,
                         args.max_newton)
    report = {"kind": "fixed_points", "function": args.f,
              "region": fileio.encode_domain(args.rect),
              "seeds_per_axis": args.seeds, "newton_tol": args.newton_tol,
              "fixed_points": [fileio.encode_fixed_point(r) for r in records]}
    return 0, report, "fixed_points.json"


def _cmd_render(args, outdir):
    f = parse_expr(args.f)
    policy = _policy_of(args)
    grid = _refusable("cannot render this window", GridSpec, args.window,
                      args.nx, args.ny)
    pc = _refusable("cannot render this window", classify_grid, f, grid,
                    policy)
    overlay = None
    if args.overlay_boundary is not None:
        overlay = boundary_pixels(pc, args.overlay_boundary)
    ppm = f"{args.prefix}.ppm"
    npz = f"{args.prefix}.npz"
    fileio.write_ppm(os.path.join(outdir, ppm), pc, overlay)
    fileio.save_classification(os.path.join(outdir, npz), pc)
    report = {"kind": "render_meta", "function": args.f,
              "window": list(args.window.bounding_box()),
              "nx": args.nx, "ny": args.ny,
              "policy": fileio.encode_policy(policy),
              "aspect_distortion": grid.aspect_distortion,
              "counts": fileio.encode_counts(pc),
              **fileio.encode_traps(pc),
              "files": {"ppm": ppm, "npz": npz}}
    return 0, report, f"{args.prefix}.json"


def _label_input(args, outdir):
    """Components of ``--target`` in the ``--input`` classification archive.

    A relative ``--input`` that does not exist from the working directory
    is read from the output directory, where ``render`` writes it.  A
    missing or unreadable archive is a usage error.
    """
    path = args.input
    if not (os.path.isabs(path) or os.path.exists(path)):
        path = os.path.join(outdir, path)
    try:
        pc = fileio.load_classification(path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise SystemExit2(f"cannot read --input {args.input!r}: {exc}") from exc
    return label_components(pc, args.target, args.connectivity)


def _cmd_components(args, outdir):
    lab = _label_input(args, outdir)
    report = {"kind": "components", "input": args.input,
              "target": args.target.name, "connectivity": args.connectivity,
              **fileio.encode_labeling(lab)}
    return 0, report, "components.json"


def _cmd_sw_probe(args, outdir):
    lab = _label_input(args, outdir)
    try:
        rep = spiders_web_probe(lab, args.center, args.radii)
    except (InvalidRadius, RadiusOutsideWindow) as exc:
        raise SystemExit2(f"bad --radii: {exc}") from exc
    report = {"kind": "sw_probe", "input": args.input,
              "target": args.target.name, "connectivity": args.connectivity,
              "center": fileio.encode_complex(args.center),
              "radii": args.radii, **fileio.encode_probe(rep)}
    return 0, report, "sw_probe.json"


def _cmd_scenario(args, outdir):
    report = run_scenario(args.name, outdir)
    # run_scenario wrote the report; main prints that file as it stands
    return (0 if report["passed"] else 1), None, f"scenario_{args.name}.json"


_COMMANDS = {
    "parse-check": _cmd_parse_check,
    "minmod": _cmd_minmod,
    "minmod-iterate": _cmd_minmod_iterate,
    "disc-seq": _cmd_disc_seq,
    "surround-check": _cmd_surround_check,
    "spl-check": _cmd_spl_check,
    "orbit": _cmd_orbit,
    "fixed-points": _cmd_fixed_points,
    "render": _cmd_render,
    "components": _cmd_components,
    "sw-probe": _cmd_sw_probe,
    "scenario": _cmd_scenario,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_expand_config(argv))
        if args.config is not None:  # an abbreviation _expand_config left
            raise SystemExit2("name the config file as --config FILE "
                              "or --config=FILE")
        outdir = args.out or os.environ.get("ORBITPLANE_OUT") or "."
        os.makedirs(outdir, exist_ok=True)
        code, report, fname = _COMMANDS[args.command](args, outdir)
    except SystemExit as exc:
        # argparse already printed its message
        return 2 if exc.code not in (0, None) else 0
    except SystemExit2 as exc:
        print(json.dumps({"kind": "error", "error_type": "usage",
                          "message": str(exc)}), file=sys.stderr)
        return 2
    except OrbitPlaneError as exc:
        report = {"kind": "error", "error_type": type(exc).__name__,
                  "message": str(exc)}
        if isinstance(exc, (ExprSyntaxError, NonEntireError)):
            print(fileio.report_json(report), end="")
            return 2
        print(fileio.write_json_report(os.path.join(outdir, "error.json"),
                                       report), end="")
        return 1
    path = os.path.join(outdir, fname)
    if report is None:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = fileio.write_json_report(path, report)
    print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())

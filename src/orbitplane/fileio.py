"""Every report and file format: JSON report encoders, atomic writes,
CSV, PPM images and render archives.

``cli`` and the scenarios compute results; the encoders here turn them
into report dicts.  All writes go through a write-then-rename so a
failed run never leaves a partial file behind.  Floats are formatted
with 17 significant digits, which round-trips IEEE doubles exactly; no
output embeds timestamps or randomness, so repeated runs with identical
flags are byte-identical.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
from importlib import resources
from typing import Iterable

import numpy as np

from .domains import Disc, DomainSpec, Rect
from .modulus import DiscSequence, MinModIterationReport, RadialExtremum
from .orbits import (FixedPointRecord, OrbitPolicy, OrbitVerdict, PointClass,
                     class_of_verdict)
from .raster import (ComponentLabeling, PixelClassification, SpidersWebReport,
                     classification_from_array)
from .surround import NestedDomainsReport, SplReport, SurroundReport

__all__ = [
    # files
    "fmt", "atomic_write_bytes", "atomic_write_text", "report_json",
    "write_json_report", "write_csv", "curves_csv", "sequence_csv",
    "orbit_csv", "write_ppm", "PALETTE", "save_classification",
    "load_classification", "schema_text",
    # report encoders
    "encode_complex", "encode_domain", "encode_policy", "encode_extremum",
    "encode_iteration", "encode_disc_sequence", "encode_surround_report",
    "encode_nested_report", "encode_spl_report", "encode_orbit",
    "encode_fixed_point", "encode_counts", "encode_traps", "encode_labeling",
    "encode_probe",
]

_HEURISTIC_NOTE = ("finite-budget heuristic: verdicts are evidence from "
                   "finitely many iterates, not proof")

# Fixed output palette (PPM): class -> RGB.
PALETTE = {
    PointClass.UNBOUNDED_SUSPECT: (255, 255, 255),
    PointClass.BOUNDED_SUSPECT: (0, 0, 0),
    PointClass.UNDECIDED: (128, 128, 128),
}
BOUNDARY_RGB = (255, 0, 0)


def fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    return f"{float(x):.17g}"


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def encode_domain(domain: DomainSpec) -> dict:
    if isinstance(domain, Disc):
        return {"shape": "disc", "center": encode_complex(domain.center),
                "radius": domain.radius, "label": domain.label}
    if isinstance(domain, Rect):
        return {"shape": "rect", "x_min": domain.x_min, "x_max": domain.x_max,
                "y_min": domain.y_min, "y_max": domain.y_max,
                "label": domain.label}
    return {"shape": "rect_union",
            "rects": [encode_domain(r) for r in domain.rects],
            "label": domain.label}


def encode_surround_report(report: SurroundReport) -> dict:
    return {
        "verdict": report.verdict,
        "min_distance": report.min_distance,
        "max_penetration": report.max_penetration,
        "windings": [{"probe": encode_complex(p), "winding": w}
                     for p, w in report.winding_values],
        "probes_tested": report.probes_tested,
        "refine_stop": report.refine_stop,
        "curve_points": report.curve_points,
        "note": report.note,
    }


def encode_nested_report(report: NestedDomainsReport) -> dict:
    return {
        "pairs": [{"index": p.index, "report": encode_surround_report(p.report)}
                  for p in report.pairs],
        "inradii": list(report.inradii),
        "inradius_increasing": report.inradius_increasing,
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "verdict": report.verdict,
        "note": report.note,
    }


def encode_spl_report(report: SplReport) -> dict:
    return {
        "self_surround": [{"index": p.index,
                           "report": encode_surround_report(p.report)}
                          for p in report.self_surround],
        "closure_nested": list(report.closure_nested),
        "inradii": list(report.inradii),
        "inradius_increasing": report.inradius_increasing,
        "condition_i": report.condition_i,
        "condition_iii": report.condition_iii,
        "verdict": report.verdict,
        "note": report.note,
    }


def encode_policy(policy: OrbitPolicy) -> dict:
    return {"budget": policy.budget, "escape_radius": policy.escape_radius,
            "cycle_tol": policy.cycle_tol, "cycle_window": policy.cycle_window}


def encode_extremum(extremum: RadialExtremum) -> dict:
    return {"value": extremum.value, "arg_extremum": extremum.arg_extremum,
            "samples_used": extremum.samples_used, "refined": extremum.refined,
            "evaluations": extremum.evaluations, "stop": extremum.stop}


def encode_iteration(report: MinModIterationReport) -> dict:
    return {"verdict": report.verdict, "witness": report.witness,
            "sequence": list(report.sequence),
            "arguments": list(report.arguments),
            "heuristic_note": _HEURISTIC_NOTE}


def encode_disc_sequence(sequence: DiscSequence) -> dict:
    return {"radii": [d.radius for d in sequence.discs],
            "verdict": sequence.report.verdict,
            "witness": sequence.report.witness,
            "heuristic_note": _HEURISTIC_NOTE}


def encode_orbit(verdict: OrbitVerdict, policy: OrbitPolicy) -> dict:
    rep = verdict.representative
    return {
        "policy": encode_policy(policy),
        "verdict": {
            "kind": verdict.kind,
            "escape_step": verdict.escape_step,
            "escape_modulus": verdict.escape_modulus,
            "period": verdict.period,
            "representative": None if rep is None else encode_complex(rep),
            "max_modulus": verdict.max_modulus,
        },
        "classification": class_of_verdict(verdict, policy).name,
    }


def encode_fixed_point(record: FixedPointRecord) -> dict:
    return {"location": encode_complex(record.location),
            "multiplier": encode_complex(record.multiplier),
            "classification": record.classification,
            "residual": record.residual}


def encode_counts(classification: PixelClassification) -> dict:
    """Pixels per class, keyed by class name."""
    return {c.name: int(np.sum(classification.classes == int(c)))
            for c in PointClass}


def encode_traps(classification: PixelClassification) -> dict:
    """The certified trap discs a grid used and the pixels stopped in them."""
    return {"traps": [{"center": encode_complex(t.center), "radius": t.radius,
                       "kind": t.kind, "evidence": "certified"}
                      for t in classification.traps],
            "trapped": classification.trapped}


def encode_labeling(labeling: ComponentLabeling) -> dict:
    return {"component_count": len(labeling.census),
            "census": [{"component_id": s.component_id, "pixels": s.pixels,
                        "bbox": list(s.bbox),
                        "touches_window_edge": s.touches_window_edge}
                       for s in labeling.census]}


def encode_probe(report: SpidersWebReport) -> dict:
    return {"per_radius": [{"radius": r, "surrounded": s}
                           for r, s in report.per_radius],
            "verdict": report.verdict, "component_id": report.component_id,
            "heuristic_note": _HEURISTIC_NOTE}


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path, data) -> None:
    """Write the bytes-like ``data`` to ``path`` via a renamed temporary file.

    The file gets the mode a plain ``open`` would give it (0o666 less
    the umask), not the owner-only mode of the temporary file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            os.fchmod(fd, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def report_json(report: dict) -> str:
    """The text of a JSON report, as written to its file and to stdout.

    Strict JSON: a non-finite number raises ``ValueError``.
    """
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_report(path, report: dict) -> str:
    """Write ``report`` as JSON to ``path`` and return the text written."""
    text = report_json(report)
    atomic_write_text(path, text)
    return text


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(str(cell) for cell in row) + "\r\n")
    atomic_write_text(path, buf.getvalue())


def curves_csv(path, curves) -> None:
    """CSV of one or more curves: re,im rows, blank line between curves."""
    def rows():
        for k, curve in enumerate(curves):
            if k:
                yield ()
            for p in curve.points:
                yield fmt(p.real), fmt(p.imag)
    write_csv(path, ["re", "im"], rows())


def sequence_csv(path, values) -> None:
    """CSV of an iterated minimum-modulus sequence: n,m_n."""
    write_csv(path, ["n", "m_n"], ((n, fmt(v)) for n, v in enumerate(values)))


def orbit_csv(path, trace) -> None:
    write_csv(path, ["n", "re", "im"],
              ((n, fmt(z.real), fmt(z.imag)) for n, z in enumerate(trace)))


def write_ppm(path, classification: PixelClassification,
              boundary_overlay: np.ndarray | None = None) -> None:
    """Binary P6 image, maxval 255, top row = largest imaginary part.

    Palette: unbounded suspect white, bounded suspect black, undecided
    gray; the optional boundary overlay is drawn red on top.
    """
    classes = classification.classes
    ny, nx = classes.shape
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    # The whole file is one buffer: the header, then each pixel's color
    # looked up by its class byte (black outside the palette).
    data = np.empty(len(header) + ny * nx * 3, dtype=np.uint8)
    data[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    rgb = data[len(header):].reshape(ny, nx, 3)
    table = np.zeros((256, 3), dtype=np.uint8)
    for cls, color in PALETTE.items():
        table[int(cls)] = color
    rgb[...] = table[classes[::-1]]  # image rows run top-down
    if boundary_overlay is not None:
        rgb[boundary_overlay[::-1]] = BOUNDARY_RGB
    atomic_write_bytes(path, data)


def _deterministic_npz(arrays: dict[str, np.ndarray]) -> bytes:
    """npz bytes with fixed zip metadata (np.savez embeds timestamps)."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            payload = io.BytesIO()
            np.lib.format.write_array(payload, np.asarray(array))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, payload.getvalue())
    return buf.getvalue()


def save_classification(path, classification: PixelClassification) -> None:
    """Archive a pixel classification (npz) for the census subcommands."""
    pol = classification.policy
    data = _deterministic_npz({
        "classes": classification.classes,
        "window": np.array(classification.grid.window.bounding_box()),
        "policy": np.array([pol.budget, pol.escape_radius, pol.cycle_tol,
                            pol.cycle_window]),
    })
    atomic_write_bytes(path, data)


def load_classification(path) -> PixelClassification:
    with np.load(path) as data:
        classes = data["classes"]
        x0, x1, y0, y1 = (float(v) for v in data["window"])
        budget, escape, tol, window = (float(v) for v in data["policy"])
    return classification_from_array(
        classes, Rect(x0, x1, y0, y1),
        OrbitPolicy(int(budget), escape, tol, int(window)))


def schema_text() -> str:
    """The published JSON schema covering every report this package emits."""
    return resources.files("orbitplane").joinpath(
        "schema/report.schema.json").read_text(encoding="utf-8")

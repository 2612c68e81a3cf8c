"""File emission: atomic writes, CSV and JSON formats, report encoders,
render archives.

All writes go through a write-then-rename so a failed run never leaves a
partial file behind.  Floats are formatted with 17 significant digits,
which round-trips IEEE doubles exactly; no output embeds timestamps or
randomness, so repeated runs with identical flags are byte-identical.
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
from .orbits import OrbitPolicy
from .raster import GridSpec, PixelClassification
from .surround import NestedDomainsReport, SplReport

__all__ = [
    "fmt",
    "atomic_write_bytes",
    "atomic_write_text",
    "report_json",
    "write_json_report",
    "write_csv",
    "curves_csv",
    "sequence_csv",
    "orbit_csv",
    "save_classification",
    "load_classification",
    "schema_text",
    "encode_complex",
    "encode_domain",
    "encode_surround_report",
    "encode_nested_report",
    "encode_spl_report",
    "encode_policy",
]


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


def encode_surround_report(report) -> dict:
    return {
        "verdict": report.verdict,
        "min_distance": report.min_distance,
        "max_penetration": report.max_penetration,
        "windings": [{"probe": encode_complex(p), "winding": w}
                     for p, w in report.winding_values],
        "probes_tested": report.probes_tested,
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


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a renamed temporary file.

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
    buf = io.StringIO()
    buf.write("re,im\r\n")
    for k, curve in enumerate(curves):
        if k:
            buf.write("\r\n")
        for p in curve.points:
            buf.write(f"{fmt(p.real)},{fmt(p.imag)}\r\n")
    atomic_write_text(path, buf.getvalue())


def sequence_csv(path, values) -> None:
    """CSV of an iterated minimum-modulus sequence: n,m_n."""
    write_csv(path, ["n", "m_n"], ((n, fmt(v)) for n, v in enumerate(values)))


def orbit_csv(path, trace) -> None:
    write_csv(path, ["n", "re", "im"],
              ((n, fmt(z.real), fmt(z.imag)) for n, z in enumerate(trace)))


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
    grid = classification.grid
    pol = classification.policy
    data = _deterministic_npz({
        "classes": classification.classes,
        "window": np.array([grid.window.x_min, grid.window.x_max,
                            grid.window.y_min, grid.window.y_max]),
        "policy": np.array([pol.budget, pol.escape_radius, pol.cycle_tol,
                            pol.cycle_window]),
    })
    atomic_write_bytes(path, data)


def load_classification(path) -> PixelClassification:
    with np.load(path) as data:
        classes = data["classes"].astype(np.uint8)
        x0, x1, y0, y1 = (float(v) for v in data["window"])
        budget, escape, tol, window = (float(v) for v in data["policy"])
    ny, nx = classes.shape
    grid = GridSpec(Rect(x0, x1, y0, y1), nx, ny)
    policy = OrbitPolicy(int(budget), escape, tol, int(window))
    return PixelClassification(grid, classes, policy)


def schema_text() -> str:
    """The published JSON schema covering every report this package emits."""
    return resources.files("orbitplane").joinpath(
        "schema/report.schema.json").read_text(encoding="utf-8")

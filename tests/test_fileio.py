import json
import math
import os

import numpy as np
import pytest

from orbitplane import fileio
from orbitplane.curves import SampledCurve
from orbitplane.domains import Rect
from orbitplane.orbits import OrbitPolicy, PointClass
from orbitplane.fileio import write_ppm
from orbitplane.raster import (GridSpec, PixelClassification,
                               classification_from_array)


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(8)
    values = list(rng.normal(scale=1e10, size=50)) + [1 / 3, 1e-300, math.pi]
    for v in values:
        assert float(fileio.fmt(float(v))) == float(v)


def test_atomic_write_replaces_not_appends(tmp_path):
    path = tmp_path / "a.txt"
    fileio.atomic_write_text(path, "one")
    fileio.atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                         (0o002, 0o664)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        path = tmp_path / "a.txt"
        fileio.atomic_write_text(path, "one")
        fileio.atomic_write_text(path, "two")
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode


def test_atomic_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # another thread creating a file while the umask is changed would
    # get the wrong mode
    calls, umask = [], os.umask
    monkeypatch.setattr(os, "umask",
                        lambda mask: calls.append(mask) or umask(mask))
    fileio.atomic_write_text(tmp_path / "a.txt", "one")
    assert calls == []
    assert (tmp_path / "a.txt").read_text() == "one"


def test_curves_csv_blank_line_between_curves(tmp_path):
    a = SampledCurve(np.array([0j, 1 + 0j, 1j]))
    b = SampledCurve(np.array([2 + 0j, 3 + 0j, 3 + 1j]))
    path = tmp_path / "curves.csv"
    fileio.curves_csv(path, [a, b])
    text = path.read_bytes().decode("utf-8")
    assert text.startswith("re,im\r\n")
    assert "\r\n\r\n" in text
    blocks = text.strip().split("\r\n\r\n")
    assert len(blocks) == 2


def test_sequence_csv_format(tmp_path):
    path = tmp_path / "seq.csv"
    fileio.sequence_csv(path, [2.0, 4.0, 16.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "n,m_n"
    assert lines[1] == "0,2"
    assert lines[3] == "2,16"


def test_orbit_csv_format(tmp_path):
    path = tmp_path / "orbit.csv"
    fileio.orbit_csv(path, [0j, 1 + 2j])
    lines = path.read_text().splitlines()
    assert lines[0] == "n,re,im"
    assert lines[2] == "1,1,2"


def test_classification_round_trip(tmp_path):
    classes = np.array([[1, 2, 3], [2, 2, 1]], dtype=np.uint8)
    pc = PixelClassification(GridSpec(Rect(-1, 2, 0, 2), 3, 2), classes,
                             OrbitPolicy(budget=77, escape_radius=1e5))
    path = tmp_path / "c.npz"
    fileio.save_classification(path, pc)
    back = fileio.load_classification(path)
    assert np.array_equal(back.classes, classes)
    assert back.grid.window == Rect(-1, 2, 0, 2)
    assert back.policy.budget == 77
    assert back.policy.escape_radius == 1e5


def test_ppm_header_and_palette(tmp_path):
    classes = np.array([[1, 2], [3, 1]], dtype=np.uint8)
    pc = classification_from_array(classes)
    path = tmp_path / "img.ppm"
    write_ppm(path, pc)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    pixels = data[len(b"P6\n2 2\n255\n"):]
    assert len(pixels) == 12
    # top row of the image is the highest-y row of the grid
    assert pixels[0:3] == bytes((128, 128, 128))   # UNDECIDED gray
    assert pixels[3:6] == bytes((255, 255, 255))   # UNBOUNDED white
    assert pixels[6:9] == bytes((255, 255, 255))
    assert pixels[9:12] == bytes((0, 0, 0))        # BOUNDED black


def test_ppm_boundary_overlay(tmp_path):
    classes = np.full((2, 2), int(PointClass.BOUNDED_SUSPECT), dtype=np.uint8)
    pc = classification_from_array(classes)
    overlay = np.zeros((2, 2), dtype=bool)
    overlay[0, 0] = True
    path = tmp_path / "img.ppm"
    write_ppm(path, pc, overlay)
    pixels = path.read_bytes()[len(b"P6\n2 2\n255\n"):]
    # overlay pixel (iy=0) lands on the bottom image row
    assert pixels[6:9] == bytes((255, 0, 0))


def test_schema_is_valid_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(fileio.schema_text())
    jsonschema.Draft202012Validator.check_schema(schema)


def _schema_objects(node, path="#"):
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _schema_objects(value, f"{path}/{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _schema_objects(value, f"{path}/{k}")


def test_schema_objects_with_properties_are_closed():
    schema = json.loads(fileio.schema_text())
    open_objects, unknown_required = [], []
    for path, node in _schema_objects(schema):
        if "properties" not in node:
            continue
        if node.get("additionalProperties") is not False:
            open_objects.append(path)
        if not set(node.get("required", ())) <= set(node["properties"]):
            unknown_required.append(path)
    assert open_objects == []
    assert unknown_required == []

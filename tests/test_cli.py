import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from orbitplane import cli, fileio
from orbitplane.cli import main
from orbitplane.errors import InvalidRadius

jsonschema = pytest.importorskip("jsonschema")

PI = math.pi

VALIDATOR = None


def validator():
    global VALIDATOR
    if VALIDATOR is None:
        schema = json.loads(fileio.schema_text())
        VALIDATOR = jsonschema.Draft202012Validator(schema)
    return VALIDATOR


def run(tmp_path, *argv):
    code = main(["--out", str(tmp_path), *argv])
    return code


def load_and_validate(tmp_path, name):
    with open(os.path.join(tmp_path, name), encoding="utf-8") as handle:
        report = json.load(handle)
    validator().validate(report)
    return report


def test_parse_check(tmp_path):
    assert run(tmp_path, "parse-check", "--f", "cos(z)+z") == 0
    rep = load_and_validate(tmp_path, "parse_check.json")
    assert rep["canonical"] == "(cos(z) + z)"


def test_parse_check_rejects_non_entire(tmp_path, capsys):
    assert run(tmp_path, "parse-check", "--f", "1/z") == 2
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "error"
    validator().validate(out)


@pytest.mark.parametrize("source", ["+".join(["z"] * 3000), "z*1e400",
                                    "z^(1e308*10)"],
                         ids=["sum-of-3000-terms", "huge-literal",
                              "overflowing-exponent"])
def test_parse_check_rejects_deep_and_non_finite(tmp_path, capsys, source):
    assert run(tmp_path, "parse-check", "--f", source) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "error"
    validator().validate(out)


def test_usage_error_exit_code(tmp_path):
    assert run(tmp_path, "no-such-command") == 2
    assert run(tmp_path, "minmod", "--f", "z^2") == 2  # missing --r


@pytest.fixture(scope="module")
def sin_archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("archive")
    assert main(["--out", str(out), "render", "--f", "sin(z)", "--window",
                 "-10,10,-5,5", "--nx", "40", "--ny", "20"]) == 0
    return str(out / "render.npz")


BAD_FLAG_VALUES = {
    "radii-decreasing": ["sw-probe", "--radii", "4,2"],
    "radii-not-a-number": ["sw-probe", "--radii", "abc"],
    "radii-nan": ["sw-probe", "--radii", "nan,2"],
    "radii-zero": ["sw-probe", "--radii", "0,2"],
    "center-nan": ["sw-probe", "--radii", "2", "--center", "nan,0"],
    "window-unordered": ["render", "--f", "z", "--window", "1,-1,-1,1",
                         "--nx", "4", "--ny", "4"],
    "window-nan": ["render", "--f", "z", "--window", "nan,1,-1,1",
                   "--nx", "4", "--ny", "4"],
    "rect-unordered": ["fixed-points", "--f", "z", "--rect", "1,-1,-1,1"],
    "rects-unordered": ["surround-check", "--f", "z", "--rects", "1,-1,-1,1"],
    "rects-not-a-number": ["surround-check", "--f", "z", "--rects", "abc,1,-1,1"],
    "rects-three-numbers": ["surround-check", "--f", "z", "--rects", "-1,1,-1"],
    "discs-not-a-number": ["surround-check", "--f", "z", "--discs", "abc"],
    "discs-negative": ["surround-check", "--f", "z", "--discs", "-1,2"],
    "z0-nan": ["orbit", "--f", "z", "--z0", "nan,0"],
    "z0-inf": ["orbit", "--f", "z", "--z0", "0,inf"],
    "radii-below-pixel-floor": ["sw-probe", "--radii", "0.1"],
    "radii-outside-window": ["sw-probe", "--radii", "6"],
    "surround-density-zero": ["surround-check", "--f", "z", "--discs", "1,2",
                              "--density", "0"],
    "surround-density-nan": ["surround-check", "--f", "z", "--discs", "1,2",
                             "--density", "nan"],
    "surround-density-inf": ["surround-check", "--f", "z", "--discs", "1,2",
                             "--density", "inf"],
    "spl-density-zero": ["spl-check", "--f", "z", "--discs", "1,2",
                         "--density", "0"],
    "spl-density-nan": ["spl-check", "--f", "z", "--discs", "1,2",
                        "--density", "nan"],
    "spl-density-inf": ["spl-check", "--f", "z", "--discs", "1,2",
                        "--density", "inf"],
    "spl-one-domain": ["spl-check", "--f", "z", "--discs", "1"],
    "family-negative-index": ["surround-check", "--f", "z", "--family", "ex51",
                              "--n-lo", "-5", "--n-hi", "-4"],
    "discs-huge": ["surround-check", "--f", "z", "--discs", "1e308,1e308"],
    "spl-discs-huge": ["spl-check", "--f", "z", "--discs", "1e308,1e308"],
    "constant-image": ["surround-check", "--f", "1", "--discs", "1,2"],
    "minmod-n-coarse-zero": ["minmod", "--f", "z", "--r", "1", "--n-coarse", "0"],
    "minmod-tol-zero": ["minmod", "--f", "z", "--r", "1", "--tol", "0"],
    "minmod-tol-nan": ["minmod", "--f", "z", "--r", "1", "--tol", "nan"],
    "minmod-r-nan": ["minmod", "--f", "z", "--r", "nan"],
    "minmod-r-negative": ["minmod", "--f", "z", "--r", "-1"],
    "minmod-r-inf": ["minmod", "--f", "z", "--r", "inf"],
    "iterate-n-max-zero": ["minmod-iterate", "--f", "z", "--r", "1",
                           "--n-max", "0"],
    "iterate-blow-up-below-r": ["minmod-iterate", "--f", "z", "--r", "2",
                                "--blow-up", "1"],
    "iterate-blow-up-inf": ["minmod-iterate", "--f", "z^2", "--r", "2",
                            "--blow-up", "inf"],
    "disc-seq-count-zero": ["disc-seq", "--f", "z", "--r", "1", "--count", "0"],
    "disc-seq-r-above-blow-up": ["disc-seq", "--f", "z", "--r", "1e60"],
    "orbit-budget-zero": ["orbit", "--f", "z", "--z0", "1,0", "--budget", "0"],
    "orbit-cycle-window-zero": ["orbit", "--f", "z", "--z0", "1,0",
                                "--cycle-window", "0"],
    "orbit-escape-radius-nan": ["orbit", "--f", "z", "--z0", "1,0",
                                "--escape-radius", "nan"],
    "orbit-cycle-tol-negative": ["orbit", "--f", "z", "--z0", "1,0",
                                 "--cycle-tol", "-1"],
    "orbit-cycle-tol-inf": ["orbit", "--f", "z", "--z0", "1,0",
                            "--cycle-tol", "inf"],
    "render-nx-zero": ["render", "--f", "z", "--window", "-1,1,-1,1",
                       "--nx", "0", "--ny", "4"],
    "render-nx-one": ["render", "--f", "z", "--window", "-1,1,-1,1",
                      "--nx", "1", "--ny", "4"],
    "render-window-overflows": ["render", "--f", "z", "--window",
                                "-1.7e308,1.7e308,-1,1", "--nx", "4", "--ny", "4"],
    "render-pixel-underflows": ["render", "--f", "z", "--window",
                                "-1,1,0,1e-323", "--nx", "4", "--ny", "4"],
    "fixed-points-seeds-zero": ["fixed-points", "--f", "z", "--rect",
                                "-1,1,-1,1", "--seeds", "0"],
    "fixed-points-max-newton-negative": ["fixed-points", "--f", "z", "--rect",
                                         "-1,1,-1,1", "--max-newton", "-1"],
    "fixed-points-newton-tol-inf": ["fixed-points", "--f", "z^2", "--rect",
                                    "-1,1,-1,1", "--newton-tol", "inf"],
    "spl-probe-grid-zero": ["spl-check", "--f", "z", "--discs", "1,2",
                            "--probe-grid", "0"],
    "spl-probe-grid-negative": ["spl-check", "--f", "z", "--discs", "1,2",
                                "--probe-grid", "-3"],
    "spl-probe-grid-above-cap": ["spl-check", "--f", "z", "--discs", "1,2",
                                 "--probe-grid", "448"],
    "surround-probe-grid-above-cap": ["surround-check", "--f", "z", "--discs",
                                      "1,2", "--probe-grid", "448"],
}


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES)
def test_bad_flag_values_exit_2_without_traceback(tmp_path, capsys, sin_archive,
                                                  argv):
    if argv[0] == "sw-probe":
        argv = [*argv, "--input", sin_archive]
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert not any(tmp_path.iterdir())  # no report, not even error.json


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["orbit", "--f", "z", "--z0", "1,0",
                               "--budget", "5", "--trace"])
    again = parser.parse_args(["orbit", "--f", "z", "--z0", "-1,0"])
    assert (first.budget, first.trace, first.z0) == (5, True, 1)
    assert (again.budget, again.trace, again.z0) == (200, False, -1)


def test_minmod(tmp_path):
    assert run(tmp_path, "minmod", "--f", "z^2", "--r", "2") == 0
    rep = load_and_validate(tmp_path, "minmod.json")
    assert rep["minimum"]["value"] == pytest.approx(4.0, rel=1e-9)
    assert rep["maximum"]["value"] == pytest.approx(4.0, rel=1e-9)


def test_minmod_reports_refinement_work(tmp_path):
    assert run(tmp_path, "minmod", "--f", "cos(z) + z", "--r", "2.5") == 0
    rep = load_and_validate(tmp_path, "minmod.json")
    for ext in (rep["minimum"], rep["maximum"]):
        assert ext["stop"] == "converged"
        assert 2 <= ext["evaluations"] <= 87
        assert ext["samples_used"] >= 4096


def test_minmod_iterate_squaring(tmp_path):
    assert run(tmp_path, "minmod-iterate", "--f", "z^2", "--r", "2",
               "--blow-up", "1e100") == 0
    rep = load_and_validate(tmp_path, "minmod_iterate.json")
    assert rep["verdict"] == "DIVERGES"
    np.testing.assert_allclose(rep["sequence"][:3], [2, 4, 16], rtol=1e-9)
    assert len(rep["arguments"]) == len(rep["sequence"]) - 1
    assert all(0 <= a < 2 * PI for a in rep["arguments"])
    lines = (tmp_path / "minmod_iterate.csv").read_text().splitlines()
    assert lines[0] == "n,m_n"
    assert lines[1] == "0,2"


def test_disc_seq(tmp_path):
    assert run(tmp_path, "disc-seq", "--f", "z^2", "--r", "2",
               "--count", "4") == 0
    rep = load_and_validate(tmp_path, "disc_seq.json")
    np.testing.assert_allclose(rep["radii"], [2, 4, 16, 256], rtol=1e-9)


def test_surround_check_family(tmp_path):
    assert run(tmp_path, "surround-check", "--f", "z^2",
               "--discs", "2,4,16", "--density", "8") == 0
    rep = load_and_validate(tmp_path, "surround_check.json")
    assert rep["verdict"] is True


def test_surround_check_failure_exit(tmp_path):
    assert run(tmp_path, "surround-check", "--f", "sin(z)",
               "--discs", "1,2,3", "--density", "8") == 1
    rep = load_and_validate(tmp_path, "surround_check.json")
    assert rep["condition_a"] is False


def _refuse(*args, **kwargs):
    raise InvalidRadius("refused for the test")


@pytest.mark.parametrize("argv, name", [
    (["surround-check", "--f", "sin(z)", "--discs", "1,2,3"], "surround_check.json"),
    (["minmod", "--f", "z", "--r", "1"], "error.json"),
    (["scenario", "ex52"], "scenario_ex52.json"),
], ids=["report", "error", "scenario"])
def test_stdout_is_the_report_file(tmp_path, capsys, monkeypatch, argv, name):
    if name == "error.json":  # a library error past the flag checks: exit 1
        monkeypatch.setattr(cli, "min_modulus", _refuse)
    run(tmp_path, *argv)
    assert capsys.readouterr().out == (tmp_path / name).read_text(encoding="utf-8")


def test_scenario_report_is_encoded_once(tmp_path, monkeypatch):
    calls = []

    def counting(report):
        calls.append(report["kind"])
        return encode(report)

    encode = fileio.report_json
    monkeypatch.setattr(fileio, "report_json", counting)
    assert run(tmp_path, "scenario", "ex52") == 0
    assert calls == ["scenario"]


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, name, field", [
    (["orbit", "--f", "(1+i)*z", "--z0", "1.5e308,0"], "orbit.json",
     ("verdict", "escape_modulus")),
    (["orbit", "--f", "z", "--z0", "1.5e308,1.5e308"], "orbit.json",
     ("verdict", "max_modulus")),
    (["minmod", "--f", "(1+i)*z", "--r", "1.7e308"], "minmod.json",
     ("maximum", "value")),
], ids=["orbit-escape-modulus", "orbit-start-modulus", "minmod-maximum"])
def test_overflowed_modulus_reads_as_largest_float(tmp_path, capsys, argv, name,
                                                   field):
    assert run(tmp_path, *argv) == 0
    report = _strict(capsys.readouterr().out)
    assert report[field[0]][field[1]] == sys.float_info.max
    assert report == load_and_validate(tmp_path, name)


def test_reports_are_strict_json():
    with pytest.raises(ValueError):
        fileio.report_json({"value": math.inf})


def test_spl_check_rects(tmp_path):
    assert run(tmp_path, "spl-check", "--f", "cos(z)+z",
               "--family", "ex52", "--n-lo", "0", "--n-hi", "1") == 0
    rep = load_and_validate(tmp_path, "spl_check.json")
    assert rep["condition_i"] is True and rep["condition_iii"] is True


def test_orbit_with_trace(tmp_path):
    assert run(tmp_path, "orbit", "--f", "z^2", "--z0", "2,0",
               "--trace") == 0
    rep = load_and_validate(tmp_path, "orbit.json")
    assert rep["verdict"]["kind"] == "ESCAPED"
    assert rep["verdict"]["escape_step"] == 5
    assert rep["classification"] == "UNBOUNDED_SUSPECT"
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert lines[0] == "n,re,im"
    assert len(lines) == 7  # header + z0..z5


def test_fixed_points(tmp_path):
    assert run(tmp_path, "fixed-points", "--f", "cos(z)+z",
               "--rect", f"0,{4 * PI},-1,1") == 0
    rep = load_and_validate(tmp_path, "fixed_points.json")
    classes = [r["classification"] for r in rep["fixed_points"]]
    assert classes == ["superattracting", "repelling"] * 2


def test_fixed_points_of_huge_function_keep_stderr_empty(tmp_path):
    # the Newton step overflows on every seed; numpy must not warn
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "orbitplane.cli", "--out", str(tmp_path),
         "fixed-points", "--f", "1e308*(1+i)*z", "--rect", "-1,1,-1,1"],
        capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["kind"] == "fixed_points"


def test_render_components_swprobe_pipeline(tmp_path):
    assert run(tmp_path, "render", "--f", "sin(z)",
               "--window", "-10,10,-5,5", "--nx", "100", "--ny", "50") == 0
    rep = load_and_validate(tmp_path, "render.json")
    assert rep["counts"]["BOUNDED_SUSPECT"] > 0
    assert (tmp_path / "render.ppm").exists()
    assert (tmp_path / "render.npz").exists()

    assert run(tmp_path, "components", "--input", "render.npz") == 0
    census = load_and_validate(tmp_path, "components.json")
    assert census["component_count"] >= 2

    assert run(tmp_path, "sw-probe", "--input", "render.npz",
               "--radii", "2,4") == 0
    probe = load_and_validate(tmp_path, "sw_probe.json")
    assert probe["verdict"] is False

    # census of the complementary class through the same archive
    assert run(tmp_path, "components", "--input", "render.npz",
               "--target", "bounded_suspect", "--connectivity", "8") == 0
    census = load_and_validate(tmp_path, "components.json")
    assert census["target"] == "BOUNDED_SUSPECT"
    assert census["connectivity"] == 8
    assert census["component_count"] >= 1


def test_relative_input_resolves_against_out(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run(out, "render", "--f", "sin(z)", "--window", "-10,10,-5,5",
               "--nx", "40", "--ny", "20") == 0
    # from elsewhere, a relative --input is read from --out ...
    monkeypatch.chdir(tmp_path)
    assert run(out, "components", "--input", "render.npz") == 0
    from_out = load_and_validate(out, "components.json")
    assert run(out, "sw-probe", "--input", "render.npz", "--radii", "2") == 0
    assert load_and_validate(out, "sw_probe.json")["input"] == "render.npz"
    # ... unless it exists from the working directory
    other = tmp_path / "other"
    assert run(other, "components", "--input", "out/render.npz") == 0
    assert load_and_validate(other, "components.json")["census"] == \
        from_out["census"]
    # a missing or unreadable archive is a usage error, not a traceback
    assert run(other, "components", "--input", "render.npz") == 2
    (tmp_path / "junk.npz").write_text("not an archive")
    assert run(other, "sw-probe", "--input", "junk.npz", "--radii", "2") == 2


def test_scenario_reports_validate(tmp_path):
    assert run(tmp_path, "scenario", "ex52") == 0
    rep = load_and_validate(tmp_path, "scenario_ex52.json")
    assert rep["passed"] is True
    assert {c["name"] for c in rep["checks"]} == {
        "annulus_bound", "spl_suite", "fixed_points"}


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert main(["--out", str(out), "minmod-iterate", "--f",
                     "cos(z)+z", "--r", "1", "--n-max", "5"]) == 0
        assert main(["--out", str(out), "render", "--f", "z^2",
                     "--window", "-2,2,-2,2", "--nx", "16", "--ny", "16"]) == 0
    for name in ("minmod_iterate.json", "minmod_iterate.csv",
                 "render.json", "render.ppm", "render.npz"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=2\nblow-up=1e100\n")
    assert run(tmp_path, "minmod-iterate", "--config", str(cfg),
               "--f", "z^2") == 0
    rep = load_and_validate(tmp_path, "minmod_iterate.json")
    assert rep["r0"] == 2.0 and rep["blow_up"] == 1e100
    # explicit flag wins over the config value
    assert run(tmp_path, "minmod-iterate", "--config", str(cfg),
               "--f", "z^2", "--r", "3") == 0
    rep = load_and_validate(tmp_path, "minmod_iterate.json")
    assert rep["r0"] == 3.0


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("ORBITPLANE_OUT", str(target))
    assert main(["parse-check", "--f", "z^2"]) == 0
    assert (target / "parse_check.json").exists()

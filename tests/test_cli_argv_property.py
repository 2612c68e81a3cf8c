"""Property test: any argv the flag grammar builds exits 0, 1 or 2, cleanly.

Each example picks a subcommand, draws a value for each of its flags
within bounds that keep one run small (nx, ny <= 64; budget <= 50;
n-max <= 20; density <= 16 with disc radii <= 10; probe-grid <= 8), and
may replace one numeric flag by a non-finite, zero or negative value,
or a render size above the pixel cap, which must exit 2 without writing
a file.  Exit codes 0 and 1 must come
with a strict-JSON report on stdout that validates against the schema.
A sweep then tries every refused value of every numeric flag once.
Valid ``scenario`` runs take seconds each and are covered by the
acceptance tests, so only refused scenario names are drawn here.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from orbitplane import fileio  # noqa: E402
from orbitplane.cli import main  # noqa: E402

VALIDATOR = jsonschema.Draft202012Validator(json.loads(fileio.schema_text()))

FUNCTIONS = ["z", "2*z", "z^2", "z^2 - 1", "z^3 + z", "sin(z)", "cos(z) + z",
             "exp(z)", "-10*z*exp(-z) - 0.5*z", "(1+i)*z", "1", "1/z"]
CLASSES = ["unbounded_suspect", "bounded_suspect", "undecided"]

NON_FINITE = ["nan", "inf", "-inf"]
NOT_POSITIVE = NON_FINITE + ["0", "-1", "-2.5"]


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


def _complex(lo, hi):
    return st.tuples(_num(lo, hi), _num(lo, hi)).map(",".join)


@st.composite
def _box(draw, lo=-10.0, hi=10.0):
    x0, y0 = draw(st.floats(lo, hi - 1)), draw(st.floats(lo, hi - 1))
    w, h = draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0))
    return f"{x0!r},{x0 + w!r},{y0!r},{y0 + h!r}"


@st.composite
def _increasing(draw, lo, hi, min_size, max_size):
    values = draw(st.lists(st.floats(lo, hi), min_size=min_size,
                           max_size=max_size, unique=True))
    return ",".join(repr(v) for v in sorted(values))


# flag -> (valid values, values that must exit 2)
POLICY = {
    "--budget": (_int(1, 50), NON_FINITE + ["0", "-3"]),
    "--escape-radius": (_num(1e-3, 1e12), NOT_POSITIVE),
    "--cycle-tol": (_num(1e-12, 1.0), NOT_POSITIVE),
    "--cycle-window": (_int(1, 40), NON_FINITE + ["0", "-3"]),
}
DOMAIN = {
    "--density": (_num(0.5, 16.0), NOT_POSITIVE),
    "--probe-grid": (_int(1, 8), NON_FINITE + ["0", "-3"]),
}
GRAMMAR = {
    "parse-check": ({}, {}),
    "minmod": ({"--r": (_num(1e-3, 1e3), NOT_POSITIVE)},
               {"--n-coarse": (_int(64, 4096), NON_FINITE + ["0", "-64"]),
                "--tol": (_num(1e-14, 1e-2), NOT_POSITIVE)}),
    "minmod-iterate": ({"--r": (_num(1e-3, 1e3), NOT_POSITIVE)},
                       {"--n-max": (_int(1, 20), NON_FINITE + ["0", "-1"]),
                        "--blow-up": (_num(1.0, 1e300), NOT_POSITIVE),
                        "--n-coarse": (_int(64, 4096), NON_FINITE + ["0"]),
                        "--tol": (_num(1e-14, 1e-2), NOT_POSITIVE)}),
    "disc-seq": ({"--r": (_num(1e-3, 1e3), NOT_POSITIVE)},
                 {"--count": (_int(1, 6), NON_FINITE + ["0", "-1"]),
                  "--n-coarse": (_int(64, 4096), NON_FINITE + ["0"]),
                  "--tol": (_num(1e-14, 1e-2), NOT_POSITIVE)}),
    "surround-check": ({}, DOMAIN),
    "spl-check": ({}, DOMAIN),
    "orbit": ({"--z0": (_complex(-10.0, 10.0), ["nan,0", "0,inf", "-inf,1"])},
              POLICY),
    "fixed-points": ({"--rect": (_box(), ["nan,1,-1,1", "-1,inf,-1,1",
                                          "0,0,-1,1"])},
                     {"--seeds": (_int(1, 24), NON_FINITE + ["0", "-1"]),
                      "--newton-tol": (_num(1e-14, 1e-2), NOT_POSITIVE),
                      "--max-newton": (_int(0, 60), NON_FINITE + ["-1"])}),
    "render": ({"--window": (_box(), ["nan,1,-1,1", "-1,1,-inf,1",
                                      "1,1,-1,1"]),
                "--nx": (_int(2, 64), NON_FINITE + ["0", "1", "-4",
                                                    "2000000"]),
                "--ny": (_int(2, 64), NON_FINITE + ["0", "1", "-4",
                                                    "2000000"])},
               POLICY),
    "components": ({}, {}),
    "sw-probe": ({"--radii": (_increasing(0.1, 6.0, 1, 3),
                              ["nan", "inf", "0", "-1", "0,2", "2,nan"])},
                 {"--center": (_complex(-3.0, 3.0), ["nan,0", "0,-inf"])}),
    "scenario": ({}, {}),
}


@st.composite
def _domains(draw):
    kind = draw(st.sampled_from(["discs", "rects", "family"]))
    if kind == "discs":
        return ["--discs", draw(_increasing(0.1, 10.0, 2, 3))]
    if kind == "rects":
        boxes = draw(st.lists(_box(-5.0, 5.0), min_size=1, max_size=3))
        return ["--rects", ";".join(boxes)]
    family = draw(st.sampled_from(["ex51", "ex52"]))
    argv = ["--family", family]
    for flag in ("--n-lo", "--n-hi"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-1, 4)))]
    return argv


@st.composite
def argvs(draw, archive):
    """(argv, whether it must exit 2) for one drawn subcommand."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional = GRAMMAR[command]
    flags = dict(required)
    flags.update((k, v) for k, v in optional.items() if draw(st.booleans()))
    broken = None
    if flags and draw(st.booleans()):
        broken = draw(st.sampled_from(sorted(flags)))

    argv = [command]
    if command == "parse-check":
        argv += ["--f", draw(st.sampled_from(FUNCTIONS) | st.text(
            "z0123456789.+-*/^()ie sincoxp", max_size=12))]
    elif command in ("components", "sw-probe"):
        argv += ["--input", archive]
        if draw(st.booleans()):
            argv += ["--target", draw(st.sampled_from(CLASSES))]
        if draw(st.booleans()):
            argv += ["--connectivity", draw(st.sampled_from(["4", "8"]))]
    elif command == "scenario":
        argv += [draw(st.sampled_from(["", "ex53", "sin"]))]
    else:
        argv += ["--f", draw(st.sampled_from(FUNCTIONS))]
    if command in ("surround-check", "spl-check"):
        argv += draw(_domains())
        if command == "surround-check" and draw(st.booleans()):
            argv.append("--emit-curves")
    if command == "orbit" and draw(st.booleans()):
        argv.append("--trace")
    if command == "render" and draw(st.booleans()):
        argv += ["--overlay-boundary", draw(st.sampled_from(CLASSES))]
    for flag, (valid, invalid) in flags.items():
        value = (draw(st.sampled_from(invalid)) if flag == broken
                 else draw(valid))
        argv += [flag, value]
    return argv, broken is not None or command == "scenario"


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("archive")
    assert main(["--out", str(out), "render", "--f", "sin(z)", "--window",
                 "-10,10,-5,5", "--nx", "40", "--ny", "20"]) == 0
    return str(out / "render.npz")


# The smallest valid value of each required flag, for the sweep below.
BASE = {"--r": "2", "--z0": "1,0", "--rect": "-1,1,-1,1",
        "--window": "-1,1,-1,1", "--nx": "4", "--ny": "4", "--radii": "2"}


def _bad_value_cases(archive):
    for command, (required, optional) in sorted(GRAMMAR.items()):
        base = [command]
        if command in ("components", "sw-probe"):
            base += ["--input", archive]
        elif command != "scenario":
            base += ["--f", "z"]
        if command in ("surround-check", "spl-check"):
            base += ["--discs", "1,2"]
        for flag in required:
            base += [flag, BASE[flag]]
        for flag, (_, invalid) in {**required, **optional}.items():
            for value in invalid:
                yield [*base, flag, value]


def _run(argv):
    """Exit code, stdout, stderr and the files written of one CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["--out", out, *argv])
        written = os.listdir(out)
    return code, stdout.getvalue(), stderr.getvalue(), written


def test_every_bad_numeric_value_exits_2(archive):
    """Each refused value of each numeric flag, on an otherwise valid argv."""
    wrong = []
    for argv in _bad_value_cases(archive):
        code, _, err, written = _run(argv)
        if code != 2 or written or "Traceback" in err:
            wrong.append(argv)
    assert wrong == []


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_grammar_argv_exits_cleanly(archive, data):
    argv, must_fail = data.draw(argvs(archive))
    code, out, err, written = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if must_fail:
        assert code == 2
        assert written == []
    if code in (0, 1):
        VALIDATOR.validate(_strict(out))

"""Span tracing around orbitplane's public functions, and per-layer metrics.

``Tracer.install`` replaces every public function of each layer module
with a wrapper, wherever a module of the package binds it (for example
``orbitplane.modulus.evaluate`` and ``orbitplane.cli.classify_grid``).
A wrapper appends one span (function, parent span, start, end) and two
counts read from the arguments or the return value.  Spans stay in flat
arrays in memory; ``save`` writes them out after the run and
``uninstall`` puts every original function back.

A layer is a module of the package; a span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("expressions", "modulus", "curves", "domains", "surround", "orbits",
          "raster", "fileio", "cli", "scenarios")


def _sample_counts(args, kwargs, result):
    return np.size(result[0]), int(np.count_nonzero(result[1]))


# Function -> (count a, count b) read after the call returns.
COUNTERS = {
    "expressions.evaluate_with_overflow": _sample_counts,
    "modulus.min_modulus": lambda a, k, r: (r.samples_used, 0),
    "modulus.max_modulus": lambda a, k, r: (r.samples_used, 0),
    "modulus.iterate_min_modulus": lambda a, k, r: (len(r.sequence) - 1, 0),
    "raster.classify_grid": lambda a, k, r: (r.classes.size, 0),
    "raster.label_components": lambda a, k, r: (len(r.census), 0),
    "curves.image_curve": lambda a, k, r: (len(r), 0),
    "domains.boundary": lambda a, k, r: (len(r), 0),
    "surround.surrounds": lambda a, k, r: (r.probes_tested, 0),
    "orbits.find_fixed_points": lambda a, k, r: (len(r), 0),
    "fileio.atomic_write_bytes": lambda a, k, r: (len(a[1]), 0),
}

# Functions that write files; fileio.write_s is the time spent in them.
WRITE_FUNCTIONS = tuple(f"fileio.{fn}" for fn in (
    "atomic_write_bytes", "atomic_write_text", "write_json_report", "write_csv",
    "curves_csv", "sequence_csv", "orbit_csv", "save_classification"))

# (metric, unit, better, which end-to-end metric it should move on which workload)
LAYER_METRICS = (
    ("expressions.calls", "count", "lower", "run_s on minmod most, run_s on raster a little"),
    ("expressions.points", "count", "lower", "run_s on minmod most, run_s on raster a little"),
    ("expressions.overflow_points", "count", "lower", "run_s on raster"),
    ("expressions.self_s", "s", "lower", "run_s on minmod most, run_s on raster a little; negligible on point-checks"),
    ("expressions.parse_s", "s", "lower", "call_p50_s on point-checks"),
    ("modulus.extremum_calls", "count", "lower", "run_s and call_tail_s on minmod"),
    ("modulus.samples", "count", "lower", "run_s and call_tail_s on minmod"),
    ("modulus.evals_per_extremum", "ratio", "lower", "run_s and call_tail_s on minmod (target 86 -> 12)"),
    ("modulus.self_s", "s", "lower", "run_s and call_tail_s on minmod; nothing on raster"),
    ("modulus.iterate_calls", "count", "lower", "run_s on minmod"),
    ("modulus.iterate_steps", "count", "lower", "run_s on minmod"),
    ("raster.classify_s", "s", "lower", "run_s and peak_rss_mb on raster"),
    ("raster.classify_self_s", "s", "lower", "run_s and peak_rss_mb on raster"),
    ("raster.pixels", "count", "lower", "run_s on raster"),
    ("raster.pixel_steps", "count", "lower", "run_s on raster"),
    ("raster.steps_per_pixel", "ratio", "lower", "run_s on raster (waste against the budget of 200)"),
    ("raster.label_s", "s", "lower", "run_s on raster"),
    ("raster.label_calls", "count", "lower", "run_s on raster"),
    ("raster.components", "count", "higher", "run_s on raster"),
    ("raster.probe_s", "s", "lower", "run_s on raster"),
    ("curves.image_calls", "count", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("curves.image_points", "count", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("curves.winding_calls", "count", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("curves.self_s", "s", "lower", "call_p50_s and call_tail_s on point-checks; under 1% of run_s on minmod"),
    ("domains.boundary_points", "count", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("domains.self_s", "s", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("surround.surrounds_calls", "count", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("surround.probes", "count", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("surround.self_s", "s", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("surround.check_s", "s", "lower", "call_p50_s and call_tail_s on point-checks"),
    ("orbits.orbit_calls", "count", "lower", "call_p50_s on point-checks"),
    ("orbits.orbit_steps", "count", "lower", "call_p50_s on point-checks"),
    ("orbits.self_s", "s", "lower", "call_p50_s on point-checks"),
    ("orbits.newton_s", "s", "lower", "call_p50_s on point-checks"),
    ("orbits.fixed_points_found", "count", "higher", "call_p50_s on point-checks"),
    ("fileio.files_written", "count", "lower", "run_s on raster, call_p50_s on point-checks"),
    ("fileio.bytes_written", "count", "lower", "run_s on raster, call_p50_s on point-checks"),
    ("fileio.write_s", "s", "lower", "run_s on raster, call_p50_s on point-checks"),
    ("fileio.read_s", "s", "lower", "run_s on raster"),
    ("cli.calls", "count", "lower", "call_p50_s on point-checks"),
    ("cli.self_s", "s", "lower", "call_p50_s on point-checks"),
    ("scenarios.self_s", "s", "lower", "call_p50_s on point-checks"),
    ("trace.spans", "count", "lower", "nothing: spans recorded by the traced run"),
    ("trace.overhead_s", "s", "lower", "nothing: traced run_s minus untraced run_s"),
)

# Counts that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = tuple(name for name, unit, _, _ in LAYER_METRICS if unit == "count")


class Tracer:
    """Records spans of wrapped orbitplane functions into flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("q")
        self.count_b = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        count_a, count_b, stack = self.count_a, self.count_b, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            count_a.append(0)
            count_b.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count_a[idx], count_b[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each layer's public functions at every binding in the package."""
        modules = [importlib.import_module(f"orbitplane.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules + [importlib.import_module("orbitplane")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        """Put back every function ``install`` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> dict:
        return {"names": np.array(self.names, dtype=str),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "count_a": np.frombuffer(self.count_a, dtype=np.int64).copy(),
                "count_b": np.frombuffer(self.count_b, dtype=np.int64).copy()}

    def save(self, path) -> None:
        np.savez(path, **self.spans())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    covered = np.zeros(duration.size)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def layer_metrics(spans: dict) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS except trace.overhead_s."""
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    count_a, count_b = spans["count_a"], spans["count_b"]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def of(*qualnames):
        return np.isin(name, [names.index(q) for q in qualnames if q in names])

    def child_of(*qualnames):
        return np.isin(parent_name, [names.index(q) for q in qualnames if q in names])

    def under(*qualnames):
        """Spans that have one of ``qualnames`` among their ancestors."""
        target = of(*qualnames).tolist()
        inside = []
        for p in parent.tolist():
            inside.append(p >= 0 and (target[p] or inside[p]))
        return np.array(inside, dtype=bool)

    def calls(*qualnames):
        return int(of(*qualnames).sum())

    def counted(*qualnames):
        return int(count_a[of(*qualnames)].sum())

    def seconds(*qualnames):
        return float(duration[of(*qualnames)].sum())

    def self_s(layer):
        return float(own[of(*[q for q in names if q.startswith(layer + ".")])].sum())

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    evaluate = "expressions.evaluate_with_overflow"
    evals = of(evaluate)
    extremum = ("modulus.min_modulus", "modulus.max_modulus")
    pixels = counted("raster.classify_grid")
    pixel_steps = int(count_a[evals & child_of("raster.classify_grid")].sum())
    return {
        "expressions.calls": calls(evaluate),
        "expressions.points": counted(evaluate),
        "expressions.overflow_points": int(count_b[evals].sum()),
        "expressions.self_s": self_s("expressions"),
        "expressions.parse_s": seconds("expressions.parse"),
        "modulus.extremum_calls": calls(*extremum),
        "modulus.samples": counted(*extremum),
        "modulus.evals_per_extremum": ratio((evals & under(*extremum)).sum(),
                                            calls(*extremum)),
        "modulus.self_s": self_s("modulus"),
        "modulus.iterate_calls": calls("modulus.iterate_min_modulus"),
        "modulus.iterate_steps": counted("modulus.iterate_min_modulus"),
        "raster.classify_s": seconds("raster.classify_grid"),
        "raster.classify_self_s": float(own[of("raster.classify_grid")].sum()),
        "raster.pixels": pixels,
        "raster.pixel_steps": pixel_steps,
        "raster.steps_per_pixel": ratio(pixel_steps, pixels),
        "raster.label_s": seconds("raster.label_components"),
        "raster.label_calls": calls("raster.label_components"),
        "raster.components": counted("raster.label_components"),
        "raster.probe_s": seconds("raster.spiders_web_probe"),
        "curves.image_calls": calls("curves.image_curve"),
        "curves.image_points": counted("curves.image_curve"),
        "curves.winding_calls": calls("curves.winding_number"),
        "curves.self_s": self_s("curves"),
        "domains.boundary_points": counted("domains.boundary"),
        "domains.self_s": self_s("domains"),
        "surround.surrounds_calls": calls("surround.surrounds"),
        "surround.probes": counted("surround.surrounds"),
        "surround.self_s": self_s("surround"),
        "surround.check_s": seconds("surround.check_nested_domains", "surround.check_spl"),
        "orbits.orbit_calls": calls("orbits.iterate_orbit"),
        "orbits.orbit_steps": int((evals & child_of("orbits.iterate_orbit")).sum()),
        "orbits.self_s": self_s("orbits"),
        "orbits.newton_s": seconds("orbits.find_fixed_points"),
        "orbits.fixed_points_found": counted("orbits.find_fixed_points"),
        "fileio.files_written": calls("fileio.atomic_write_bytes"),
        "fileio.bytes_written": counted("fileio.atomic_write_bytes"),
        "fileio.write_s": float(duration[of(*WRITE_FUNCTIONS)
                                         & ~child_of(*WRITE_FUNCTIONS)].sum()),
        "fileio.read_s": seconds("fileio.load_classification"),
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli"),
        "scenarios.self_s": self_s("scenarios"),
        "trace.spans": int(name.size),
    }

"""Self-tests of the benchmark harness.

Run from the root of a checkout with either of:

    python3 -m unittest discover -s perfbench
    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spans(rows: list[tuple[str, int, float, float, int, int]]) -> dict:
    """Span arrays from (function, parent index, start, end, count a, count b) rows."""
    names = sorted({r[0] for r in rows})
    return {"names": np.array(names),
            "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
            "parent": np.array([r[1] for r in rows], dtype=np.int32),
            "start": np.array([r[2] for r in rows]),
            "end": np.array([r[3] for r in rows]),
            "count_a": np.array([r[4] for r in rows], dtype=np.int64),
            "count_b": np.array([r[5] for r in rows], dtype=np.int64)}


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_calls_and_different_seeds_differ(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = workloads.build(name, 7, "out")
                self.assertEqual(first, workloads.build(name, 7, "out"))
                self.assertNotEqual(first, workloads.build(name, 8, "out"))

    def test_every_call_has_its_own_output_directory(self):
        for name in workloads.WORKLOADS:
            calls = workloads.build(name, 3, "out")
            outs = [c["argv"][c["argv"].index("--out") + 1] for c in calls]
            self.assertEqual(len(outs), len(set(outs)))

    def test_minmod_starts_are_not_integers(self):
        for call in workloads.build("minmod", 5, "out"):
            if call["argv"][2] == "minmod-iterate":
                r0 = float(call["argv"][call["argv"].index("--r") + 1])
                self.assertTrue(1.0 < r0 < 50.0 and r0 != int(r0))


class SelfTimeTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        parent = np.array([-1, 0, 1, 0], dtype=np.int32)
        duration = np.array([10.0, 3.0, 1.0, 4.0])
        np.testing.assert_allclose(tracing.self_times(parent, duration),
                                   [3.0, 2.0, 1.0, 4.0])

    def test_layer_metrics_on_a_synthetic_tree(self):
        ev = "expressions.evaluate_with_overflow"
        spans = _spans([
            ("cli.main", -1, 0.0, 10.0, 0, 0),                  # 0
            ("raster.classify_grid", 0, 1.0, 7.0, 100, 0),      # 1
            (ev, 1, 2.0, 3.0, 100, 4),                          # 2
            (ev, 1, 4.0, 4.5, 60, 0),                           # 3
            ("modulus.min_modulus", 0, 7.0, 9.0, 4096, 0),      # 4
            ("expressions.evaluate", 4, 7.5, 8.5, 4096, 0),     # 5
            (ev, 5, 7.6, 8.4, 4096, 0),                         # 6
            ("fileio.write_json_report", 0, 9.0, 9.5, 0, 0),    # 7
            ("fileio.atomic_write_bytes", 7, 9.1, 9.4, 321, 0),  # 8
        ])
        m = tracing.layer_metrics(spans)
        self.assertAlmostEqual(m["cli.self_s"], 10.0 - 6.0 - 2.0 - 0.5)
        self.assertAlmostEqual(m["raster.classify_s"], 6.0)
        self.assertAlmostEqual(m["raster.classify_self_s"], 6.0 - 1.0 - 0.5)
        self.assertEqual(m["raster.pixels"], 100)
        self.assertEqual(m["raster.pixel_steps"], 160)
        self.assertAlmostEqual(m["raster.steps_per_pixel"], 1.6)
        self.assertEqual(m["expressions.calls"], 3)
        self.assertEqual(m["expressions.points"], 4256)
        self.assertEqual(m["expressions.overflow_points"], 4)
        self.assertAlmostEqual(m["expressions.self_s"], 1.0 + 0.5 + 0.2 + 0.8)
        self.assertEqual(m["modulus.extremum_calls"], 1)
        self.assertEqual(m["modulus.samples"], 4096)
        self.assertEqual(m["modulus.evals_per_extremum"], 1.0)
        self.assertAlmostEqual(m["modulus.self_s"], 1.0)
        self.assertEqual(m["fileio.files_written"], 1)
        self.assertEqual(m["fileio.bytes_written"], 321)
        self.assertAlmostEqual(m["fileio.write_s"], 0.5)
        self.assertEqual(m["trace.spans"], 9)
        self.assertEqual(m["orbits.orbit_calls"], 0)

    def test_layer_metrics_report_every_named_metric(self):
        m = tracing.layer_metrics(_spans([("cli.main", -1, 0.0, 1.0, 0, 0)]))
        names = {name for name, _, _, _ in tracing.LAYER_METRICS}
        self.assertEqual(set(m) | {"trace.overhead_s"}, names)


class TracerTests(unittest.TestCase):
    def test_wrappers_are_removed_after_a_traced_run(self):
        import orbitplane
        from orbitplane import cli, modulus

        modules = [orbitplane] + [getattr(orbitplane, layer) for layer in tracing.LAYERS]
        before = [dict(vars(module)) for module in modules]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(modulus.evaluate, before[0]["evaluate"])
            self.assertIsNot(cli.classify_grid, before[0]["classify_grid"])
            f = orbitplane.parse("sin(z)")
            modulus.min_modulus(f, 2.0)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        self.assertGreater(spans["name"].size, 2)
        for module, snapshot in zip(modules, before):
            for attr, obj in snapshot.items():
                self.assertIs(vars(module)[attr], obj, f"{module.__name__}.{attr}")
        recorded = spans["name"].size
        modulus.min_modulus(orbitplane.parse("sin(z)"), 2.0)
        self.assertEqual(tracer.spans()["name"].size, recorded)


class OutputTests(unittest.TestCase):
    def test_call_tail_keeps_ten_calls_beyond_it(self):
        value, percentile, n = run.call_tail([float(k) for k in range(100)])
        self.assertEqual((value, percentile, n), (89.0, 90.0, 100))
        self.assertEqual(run.call_tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_benchmark_json_lists_the_metrics_the_harness_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _, _, _ in tracing.LAYER_METRICS])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"setup_s", "run_s", "call_p50_s", "call_tail_s", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()

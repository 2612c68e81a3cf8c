"""Benchmark of the orbitplane command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {minmod,raster,point-checks} \\
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one client: the calls of a workload
(``workloads.py``, generated from the seed) go one after another,
in-process through ``orbitplane.cli.main``, each with its own output
directory.  Each run of the workload happens in a fresh child
interpreter (``child.py``), and only one child runs at a time.

``--trace 0`` measures end to end with tracing off: it first launches
a few children that only import orbitplane (set-up time), then repeats
the workload, one child per run, while another run still fits in
``--seconds``.  ``--trace 1`` makes one untraced run and two traced runs
of the same calls; it reports the per-layer metrics of the first traced
run, the tracing overhead, and fails if the two traced runs' counts differ.

Every call is checked against its expected outcome.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the details, which
are also written with the machine record to ``.perfbench_out/``.  The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
benchmark could not run (for example, without ``src/orbitplane``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PROBES = 9
DEADLINE_S = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# Grids classify_grid sees in the raster workload, and its cycle window.
# Its per-grid arrays take 16 * CYCLE_WINDOW bytes a pixel for the cycle
# history plus 75 for the rest: three complex128 (z0, z, pending target),
# three 8-byte (max modulus, pending due and period) and three 1-byte
# (active, kind, class) arrays.
GRIDS = ((400, 200), (800, 400))
CYCLE_WINDOW = 32


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(calls: list[dict], trace: bool, deadline: float,
              spans: Path | None = None) -> dict:
    """Run ``calls`` in a fresh interpreter and return its timings."""
    shutil.rmtree(WORK / "calls", ignore_errors=True)
    job, result = WORK / "job.json", WORK / "result.json"
    job.write_text(json.dumps({"root": str(ROOT), "calls": calls, "trace": trace,
                               "spans": str(spans) if spans else None}))
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), str(job), str(result)],
                            cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    try:
        code = proc.wait(timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("a run did not finish before the deadline") from None
    if code != 0:
        raise BenchError(f"a benchmark child exited with code {code}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - launched
    out["wall_s"] = time.monotonic() - launched
    return out


def call_tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten calls beyond it: (value, percentile, n).

    With ten calls or fewer no percentile qualifies; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def failures_of(runs: list[dict], calls: list[dict]) -> list[str]:
    return [f"{call['argv'][2]}: {reason}"
            for run in runs
            for call, reason in zip(calls, run["failures"]) if reason is not None]


def measure_end_to_end(calls, seconds, deadline):
    run_child([], False, deadline)  # warm-up: byte-compile, fill the file cache
    setups = [run_child([], False, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    started = time.monotonic()
    while True:
        runs.append(run_child(calls, False, deadline))
        longest = max(r["wall_s"] for r in runs)
        if time.monotonic() - started + longest > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    pooled = [t for r in runs for t in r["call_s"]]
    run_times = [r["run_s"] for r in runs]
    # The tail is taken per run, where its percentile is fixed by the
    # workload, and its median over runs is reported: pooling would move
    # the percentile with the number of runs that fit in --seconds.
    tails = [call_tail(r["call_s"]) for r in runs]
    tail = statistics.median(t[0] for t in tails)
    _, percentile, samples = tails[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(run_times), "s"),
        "call_p50_s": (statistics.median(pooled), "s"),
        "call_tail_s": (tail, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    details = {
        "runs": len(runs), "calls_per_run": len(calls),
        "run_s_quartiles": quartiles(run_times),
        "setup_s_samples": len(setups),
        "call_tail_s": {"percentile": round(percentile, 3), "samples_per_run": samples,
                        "runs": len(runs)},
    }
    return runs, metrics, details


def measure_layers(calls, workload, seed, deadline):
    run_child([], False, deadline)
    plain = run_child(calls, False, deadline)
    # The second traced run only repeats the first, to check its counts.
    traced = [run_child(calls, True, deadline,
                        spans=OUT / f"spans-{workload}-seed{seed}.npz"),
              run_child(calls, True, deadline)]
    layer = dict(traced[0]["layer"])
    layer["trace.overhead_s"] = traced[0]["run_s"] - plain["run_s"]
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    metrics = {name: (layer[name], units[name]) for name in units}
    mismatched = {name: [t["layer"][name] for t in traced]
                  for name in tracing.COUNT_METRICS
                  if traced[0]["layer"][name] != traced[1]["layer"][name]}
    details = {
        "untraced_run_s": plain["run_s"], "traced_run_s": traced[0]["run_s"],
        "count_mismatch": mismatched,
        "expected_moves": {name: moves for name, _, _, moves in tracing.LAYER_METRICS},
    }
    return [plain] + traced, metrics, details


def machine_record(numpy_version: str, python_version: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(), "l3_size": l3,
        "python": python_version, "numpy": numpy_version,
        "children": "one at a time, " + ", ".join(f"{k}={v}" for k, v in CHILD_ENV.items()),
        "classify_grid_bytes_computed": {
            f"{nx}x{ny}": {"cycle_history": 16 * CYCLE_WINDOW * nx * ny,
                           "per_grid_arrays": (75 + 16 * CYCLE_WINDOW) * nx * ny}
            for nx, ny in GRIDS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "orbitplane" / "__init__.py").is_file():
        print(f"perfbench: no orbitplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    OUT.mkdir(exist_ok=True)
    calls = workloads.build(args.workload, args.seed,
                            str((WORK / "calls").relative_to(ROOT)))
    try:
        if args.trace:
            runs, metrics, details = measure_layers(calls, args.workload, args.seed,
                                                    deadline)
        else:
            runs, metrics, details = measure_end_to_end(calls, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failures = failures_of(runs, calls)
    attempted = len(calls) * len(runs)
    details["error_rate"] = len(failures) / attempted
    correct = not failures and not details.get("count_mismatch")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(runs[0]["numpy"], runs[0]["python"]),
              "details": details, "failures": failures,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "runs": [{k: r[k] for k in ("setup_s", "run_s", "peak_rss_mb", "call_s")}
                       for r in runs]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("perfbench machine: " + json.dumps(record["machine"]))
    print("perfbench details: " + json.dumps(
        {k: v for k, v in details.items() if k != "expected_moves"}))
    for failure in failures:
        print(f"perfbench FAILED {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

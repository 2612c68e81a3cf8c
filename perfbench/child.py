"""One benchmark run in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json RESULT.json

The job names the checkout root, the CLI calls to make and whether to
trace them.  The child imports orbitplane from ``<root>/src``, notes the
moment it is ready (set-up ends there), makes every call in-process
through ``orbitplane.cli.main`` and times each one.  After the timed
section it removes the tracing wrappers, verifies every call and writes
the result.  A job without calls only measures set-up.
"""

import time

import orbitplane.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after set-up is measured)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402


def _run_calls(calls: list[dict]) -> tuple[list, float]:
    records = []
    started = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = orbitplane.cli.main(list(call["argv"]))
        except (Exception, SystemExit) as exc:  # a raising call fails; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        records.append((time.perf_counter() - t, code, out.getvalue(), error))
    return records, time.perf_counter() - started


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = os.path.realpath(os.path.join(job["root"], "src"))
    loaded = os.path.realpath(orbitplane.cli.__file__)
    if not loaded.startswith(src + os.sep):
        print(f"orbitplane was imported from {loaded}, not from {src}", file=sys.stderr)
        return 2
    result = {"ready": READY, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    calls = job["calls"]
    if calls:
        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        records, run_s = _run_calls(calls)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            result["layer"] = tracing.layer_metrics(tracer.spans())
            if job["spans"]:
                tracer.save(job["spans"])

        import checks

        result.update(
            run_s=run_s, peak_rss_mb=peak_kib / 1024.0,
            call_s=[r[0] for r in records],
            failures=[checks.verify(call, code, out, error)
                      for call, (_, code, out, error) in zip(calls, records)])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

"""One measuring process: runs passes of a workload closed-loop, one at a
time, until its time budget is spent, and writes the results as JSON.

Started by ``run.py``; not meant to be run by hand. With ``--trace 1`` it
installs the kernel counters before importing atomsqueeze, wraps the
package with span recorders, and adds per-layer figures to each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import calibrate  # binds scipy.fft before the tracer wraps it: never counted


def cpu_seconds() -> float:
    """User+sys CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, in MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_pass(ops, out_root: Path, reference: dict, tracer, warning_type):
    """Run every operation once (timed), then check each (untimed).

    The calibration kernel runs before the first operation and after each
    one; ``*_cal_s`` are the operation times scaled to the kernel's
    reference speed (see calibrate.py).
    """
    dirs = [out_root / op.spec for op in ops]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    results, errors, ill = [], [], 0
    times = {"wall_s": 0.0, "cpu_s": 0.0, "wall_cal_s": 0.0, "cpu_cal_s": 0.0}
    if tracer is not None:
        tracer.start_pass()
    before = calibrate.measure()
    for op, d in zip(ops, dirs):
        result, error = None, None
        if tracer is not None:
            tracer.resume()
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if tracer is not None:
                    with tracer.root_span(f"bench.{op.spec}"):
                        result = op.run(d)
                else:
                    result = op.run(d)
            except Exception:  # a failed operation is counted, not fatal
                error = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if tracer is not None:
            tracer.pause()
        # an operation much shorter than the kernel keeps the previous speed
        after = calibrate.measure() if wall > 2.0 * calibrate.REFERENCE_S else before
        times["wall_s"] += wall
        times["cpu_s"] += cpu
        times["wall_cal_s"] += wall * 2.0 * calibrate.REFERENCE_S / (before[0] + after[0])
        times["cpu_cal_s"] += cpu * 2.0 * calibrate.REFERENCE_S / (before[1] + after[1])
        before = after
        ill += sum(issubclass(w.category, warning_type) for w in caught)
        results.append(result)
        errors.append(error)
    if tracer is not None:
        tracer.stop_pass()

    failures, done = [], {}
    failed_ops = 0
    stats = {"scattering.ill_conditioned": ill}
    for op, d, result, error in zip(ops, dirs, results, errors):
        if error is not None:
            op_failures = [f"{op.spec}: raised\n{error}"]
        else:
            try:
                op_failures, values, op_stats = op.check(d, result, reference.get(op.key), done)
            except Exception:  # unreadable or missing output files
                op_failures = [f"{op.spec}: check raised\n{traceback.format_exc(limit=4)}"]
            else:
                if values is not None:
                    done[op.spec] = values
                for k, v in op_stats.items():
                    stats[k] = stats.get(k, 0) + v
        failures += op_failures
        failed_ops += bool(op_failures)
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return dict(times, attempted=len(ops), failed=failed_ops, failures=failures,
                stats=stats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer, per_layer_metrics

        tracer = Tracer()
        tracer.install_kernels()

    import numpy
    import scipy

    import atomsqueeze
    import workloads
    from atomsqueeze.errors import IllConditionedWarning

    if tracer is not None:
        tracer.wrap_package(atomsqueeze)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()

    out_root = Path(args.out)
    work = out_root / "work"
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.pick(args.workload, args.size, args.seed)
    for op in ops:
        op.prepare(work)

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        p = run_pass(ops, work, reference, tracer, IllConditionedWarning)
        p["elapsed_s"] = time.perf_counter() - t0
        if tracer is not None:
            p["layers"] = per_layer_metrics(tracer.summarize(tracer.archive[-1]),
                                            tracer.counters, tracer.kernels, p["stats"],
                                            speed=p["wall_cal_s"] / p["wall_s"])
        passes.append(p)
        spent = time.perf_counter() - start
        typical = statistics.median(q["elapsed_s"] for q in passes)
        if spent + typical / 2.0 > args.seconds:
            break

    if tracer is not None:
        arrays = {"names": numpy.asarray(tracer.names)}
        for i, spans in enumerate(tracer.archive):
            for k, v in spans.items():
                arrays[f"pass{i}.{k}"] = v
        numpy.savez_compressed(out_root / "spans.npz", **arrays)

    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "atomsqueeze": atomsqueeze.__version__},
        "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "ops": [op.key or op.spec for op in ops],
    }
    (out_root / "result.json").write_text(json.dumps(result, indent=1))
    return 0

if __name__ == "__main__":
    sys.exit(main())

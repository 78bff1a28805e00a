"""Benchmark of atomsqueeze: one workload per invocation.

Run from the repository root:

    python3 bench/run.py --workload steady-output --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): spectrum-sweep,
steady-output, pair-bell, norm-movie. The run is closed-loop: one worker
process runs one pass after another, each pass waiting for the previous
one, with BLAS/OpenMP thread counts pinned to 1.

* ``setup_s``: median over fresh interpreters of the time to import
  atomsqueeze and parse a config (``probe.py``).
* ``wall_s`` / ``cpu_s``: median wall and user+sys CPU time of one pass,
  from invocation until every data file and run_record.json is written.
* ``peak_rss_mb``: peak resident memory of the measuring process.

The three times are scaled to a reference host speed measured by a fixed
calibration kernel next to each operation (``calibrate.py``), with this
process and its children pinned to one CPU; the raw times are kept in the
run record.

With ``--trace 1`` an untraced worker runs for a third of ``--seconds`` and
a traced worker (``spans.py``) for the rest; the per-layer metrics are
medians over the traced passes, and ``trace.overhead_s`` is the traced
minus the untraced median pass time.

Every operation's outputs are checked against ``reference.json`` and the
package's acceptance bounds. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. The exit code is
0 when a result was printed, also if some operation failed.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
STEADINESS_FILE = BENCH / "steadiness.json"

#: Fresh interpreters timed for setup_s in every run.
SETUP_SAMPLES = 5
#: Everything a run does must end within this many seconds.
RUN_DEADLINE_S = 170.0
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

#: Config parsed by the set-up probe: the README's physical operating point.
PROBE_CONFIG = {"mode": "spectrum",
                "physical": {"g0": 2e4, "mu": 1.467e6, "a": 3e-6, "m": 3.82e-26,
                             "gamma": 0.5, "n0": 1e6}}


class BenchError(Exception):
    """A run that cannot produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the last one allowed.

    The host's CPUs slow down independently of each other; on one CPU the
    calibration kernel measures the speed of the CPU the operations ran on.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe(env, config_path: Path, deadline: float):
    """(raw, calibrated) set-up seconds of one fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(config_path)],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    ready, speed = map(float, proc.stdout.split())
    return ready - t0, (ready - t0) * speed


def worker(env, args, seconds: float, trace: int, out: Path, deadline: float) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--size", args.size,
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads((out / "result.json").read_text())


def spread(values) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "atomsqueeze" / "__init__.py").is_file():
        raise BenchError(f"no atomsqueeze sources under {ROOT / 'src'}")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    cpu = pin_to_one_cpu()
    out = OUT / f"{args.workload}-trace{args.trace}"  # replaced by the next such run
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "probe.json"
    config_path.write_text(json.dumps(PROBE_CONFIG))
    setup_raw, setup = zip(*(probe(env, config_path, deadline)
                             for _ in range(SETUP_SAMPLES)))

    plain_s = args.seconds / 3.0 if args.trace else args.seconds
    plain = worker(env, args, plain_s, 0, out / "plain", deadline)
    runs = [plain]
    if args.trace:
        runs.append(worker(env, args, args.seconds - plain_s, 1, out / "traced", deadline))
    passes = [p for r in runs for p in r["passes"]]
    walls = [p["wall_cal_s"] for p in plain["passes"]]
    cpus = [p["cpu_cal_s"] for p in plain["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    samples = {
        "setup_s": spread(setup),
        "wall_s": spread(walls),
        "cpu_s": spread(cpus),
        "peak_rss_mb": spread([plain["peak_rss_mb"]]),
    }
    raw = {
        "setup_s": spread(setup_raw),
        "wall_s": spread([p["wall_s"] for p in plain["passes"]]),
        "cpu_s": spread([p["cpu_s"] for p in plain["passes"]]),
    }
    if args.trace:
        from spans import PER_LAYER_UNITS

        traced = runs[1]["passes"]
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in PER_LAYER_UNITS if k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_cal_s"] for p in traced)
                                      - statistics.median(walls))
        layers["error_rate"] = failed / attempted
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": samples[k]["median"], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    steadiness = {}
    if STEADINESS_FILE.is_file():
        proof = json.loads(STEADINESS_FILE.read_text()).get(args.workload, {})
        steadiness = {
            "sets": [{kind: {k: {"median": m["median"], "spread": m["spread"]}
                             for k, m in s[kind].items()}
                      for kind in ("metrics", "uncalibrated")}
                     for s in proof.get("sets", [])],
            "agreement": proof.get("agreement", {}),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "ops": plain["ops"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "pinned_cpu": cpu,
        "versions": plain["versions"], "thread_env": plain["threads"],
        "samples": samples, "uncalibrated": raw, "error_rate": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]],
        "steadiness": steadiness,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1))
    return {"record": record, "samples": samples, "correct": failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every grid; for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        res = measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for failure in res["record"]["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {res['attempted']} operations, "
          f"{res['failed']} failed")
    for name, s in res["samples"].items():
        print(f"  {name:<12} median {s['median']:.6g} {END_TO_END_UNITS[name]}"
              f"  (n={s['n']}, min {s['min']:.6g}, max {s['max']:.6g})")
    print(f"  {'error_rate':<12} {res['record']['error_rate']:.6g}"
          f"  (n={res['attempted']}, {res['failed']} failed)")
    print("record " + json.dumps(res["record"], sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Prove the benchmark steady: run every workload once per seed, in two sets
of seeds, and record the spread of each end-to-end metric in
``bench/steadiness.json``.

Run from the repository root (about twenty minutes per set of ten seeds
over the four workloads):

    python3 bench/prove.py --sets 1-10 11-20

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; BENCHMARK.json bounds each end-to-end metric's spread. The
first set runs on every workload before the second starts; ``agreement``
is the second set's median over the first's, minus 1, which BENCHMARK.json
bounds as well. Each run's uncalibrated times (see calibrate.py) are
recorded next to the reported ones, with their own spreads. ``run.py``
copies the recorded medians and spreads into the run record of every run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STEADINESS_FILE = BENCH / "steadiness.json"


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int):
    """(reported, uncalibrated) end-to-end values of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    return ({k: v["value"] for k, v in result["metrics"].items()},
            {k: v["median"] for k, v in record["uncalibrated"].items()})


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=seeds, nargs="+",
                        default=[seeds("1-10"), seeds("11-20")],
                        help="one seed range per set, e.g. 1-10 11-20")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    recorded = json.loads(STEADINESS_FILE.read_text()) if STEADINESS_FILE.is_file() else {}
    for workload in args.workloads:
        recorded[workload] = {"run_seconds": spec["run_seconds"],
                              "date": time.strftime("%Y-%m-%d"),
                              "python": platform.python_version(), "sets": []}
    for set_seeds in args.sets:
        for workload in args.workloads:
            reported, raw = {}, {}
            for seed in set_seeds:
                rep, unc = run_once(workload, seed, spec["run_seconds"])
                for name, v in rep.items():
                    reported.setdefault(name, []).append(v)
                for name, v in unc.items():
                    raw.setdefault(name, []).append(v)
                print(workload, seed, {k: round(v, 4) for k, v in rep.items()},
                      "uncalibrated", {k: round(v, 4) for k, v in unc.items()}, flush=True)
            entry = recorded[workload]
            entry["sets"].append({
                "seeds": set_seeds,
                "metrics": {k: dict(summarize(v), bound=bounds[k]) for k, v in reported.items()},
                "uncalibrated": {k: summarize(v) for k, v in raw.items()},
            })
            for kind in ("metrics", "uncalibrated"):
                for name, s in entry["sets"][-1][kind].items():
                    print(f"  {kind[:5]} {name:<12} median {s['median']:.5g}"
                          f"  spread {s['spread']:.4f}", flush=True)
            if len(entry["sets"]) >= 2:
                first, last = entry["sets"][0]["metrics"], entry["sets"][-1]["metrics"]
                entry["agreement"] = {k: last[k]["median"] / first[k]["median"] - 1.0
                                      for k in first}
                print("  agreement", {k: round(v, 4) for k, v in entry["agreement"].items()},
                      flush=True)
            STEADINESS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on tiny grids.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
import worker
from atomsqueeze.errors import IllConditionedWarning

BENCH = Path(workloads.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=1, trace=0, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    return json.loads(lines[-1]), record


@pytest.fixture(scope="module")
def traced():
    """Traced tiny runs of every workload for seeds 1 and 2."""
    return {(w, s): result(bench(w, seed=s, trace=1))
            for w in workloads.WORKLOADS for s in (1, 2)}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_prints_end_to_end_metrics(workload):
    out, record = result(bench(workload))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert record["nproc"] >= 1 and record["versions"]["numpy"]
    assert record["thread_env"]["OMP_NUM_THREADS"] == "1"


def test_traced_run_prints_per_layer_metrics(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for (w, s), (out, _) in traced.items():
        assert out["correct"], (w, s)
        assert list(out["metrics"]) == names
        assert all(out["metrics"][k]["unit"] == units[k] for k in names)


def test_each_layer_works_on_its_workload(traced):
    def m(w):
        return {k: v["value"] for k, v in traced[(w, 1)][0]["metrics"].items()}

    spec = m("spectrum-sweep")
    for k in ("analytic.calls", "params.calls", "scattering.calls",
              "scattering.linalg_calls", "spectrum.threshold_evals"):
        assert spec[k] > 0, k
    assert spec["dynamics.steps"] == 0 and spec["pairs.steps"] == 0
    steady = m("steady-output")
    assert steady["dynamics.steps"] > 0 and steady["dynamics.transforms_per_step"] > 0
    assert steady["cli.bytes_written"] > 0 and steady["config.bytes_hashed"] > 0
    pairs = m("pair-bell")
    assert pairs["pairs.steps"] > 0 and pairs["pairs.points_transformed_per_step"] > 0
    movie = m("norm-movie")
    assert movie["dynamics.snapshots"] > 0 and movie["cli.bytes_written"] == 0


def test_work_counts_do_not_depend_on_seed(traced):
    picked_differently = False
    for w in workloads.WORKLOADS:
        (a, ra), (b, rb) = traced[(w, 1)], traced[(w, 2)]
        picked_differently |= ra["ops"] != rb["ops"]
        for k, v in a["metrics"].items():
            if k.endswith((".steps", ".calls", "_evals", "transforms_per_step",
                           "linalg_calls", ".snapshots")):
                assert v["value"] == b["metrics"][k]["value"], (w, k)
    assert picked_differently


class _Perturbed:
    """An operation whose result is altered after it ran."""

    def __init__(self, op, alter):
        self.op, self.alter = op, alter
        self.spec, self.key = op.spec, op.key

    def prepare(self, work):
        self.op.prepare(work)

    def run(self, out):
        return self.alter(out, self.op.run(out))

    def check(self, *args):
        return self.op.check(*args)


def _pass(ops, tmp_path):
    for op in ops:
        op.prepare(tmp_path)
    return worker.run_pass(ops, tmp_path, workloads.load_reference(), None,
                           IllConditionedWarning)


def _edit_file(pattern, transform):
    """Alter an output file and record its new digest in the run record, so
    that only the value checks can catch the change."""

    def alter(out, result):
        target = next(out.glob(pattern))
        target.write_text(transform(target.read_text()))
        record_path = out / "run_record.json"
        record = json.loads(record_path.read_text())
        record["manifest"][target.name] = workloads.sha256(target)
        record_path.write_text(json.dumps(record))
        return result

    return alter


def _nudge_csv(field):
    """Scale one field of the first data row by 1 + 1e-6 (or set 0 to 1e-6)."""

    def transform(text):
        lines = text.split("\n")
        row = next(i for i, ln in enumerate(lines)
                   if ln and not ln.startswith("#") and ln[0] in "-0123456789")
        cells = lines[row].split(",")
        value = float(cells[field])
        cells[field] = repr(value * (1 + 1e-6) if value else 1e-6)
        lines[row] = ",".join(cells)
        return "\n".join(lines)

    return transform


def _nudge_json(key):
    def transform(text):
        payload = json.loads(text)
        payload["metrics"][key] *= 1 - 1e-6
        return json.dumps(payload)

    return transform


def _nudge_result(key, index=None, by=1e-6):
    """Scale one figure of a library result by 1 + ``by``."""

    def alter(out, result):
        if index is None:
            result[key] *= 1 + by
        else:
            result[key][index] *= 1 + by
        return result

    return alter


class _OffShell:
    """A scattering solution that breaks |alpha|^2 - |beta|^2 = 1 by 1e-6."""

    def norm_defects(self):
        return (1e-6, 0.0)

    def cross_defect(self):
        return 0.0


def _break_first_solution(out, result):
    return [_OffShell()] + result[1:]


@pytest.mark.parametrize("workload,index,alter,named", [
    ("steady-output", 0, _edit_file("dynamics.csv", _nudge_csv(1)), "beta2"),
    ("pair-bell", 0, _edit_file("pairs_metrics.json", _nudge_json("fidelity")), "fidelity"),
    ("spectrum-sweep", 0, _edit_file("spectrum_scattering.csv", _nudge_csv(2)),
     "scattering.r_"),
    ("spectrum-sweep", 3, _break_first_solution, "max_norm_defect"),
    ("norm-movie", 0, _nudge_result("final_plus_norm"), "final_plus_norm"),
    ("norm-movie", 0, _nudge_result("norms", -1), "symplectic drift"),
])
def test_perturbed_output_is_a_failed_operation(tmp_path, workload, index, alter, named):
    ops = workloads.pick(workload, "tiny", 1)
    clean = _pass(ops, tmp_path)
    assert clean["failed"] == 0, clean["failures"]
    ops[index] = _Perturbed(ops[index], alter)
    bad = _pass(ops, tmp_path)
    assert bad["attempted"] == len(ops)
    assert bad["failed"] == 1, bad["failures"]
    messages = "\n".join(bad["failures"])
    assert named in messages and "checksum" not in messages, messages


def test_round_off_drift_is_not_a_failed_operation(tmp_path):
    """The norm movie's drift is round-off; only its 1e-8 bound is checked."""
    ops = workloads.pick("norm-movie", "tiny", 1)
    ops[0] = _Perturbed(ops[0], _nudge_result("norms", -1, 1e-10))
    assert _pass(ops, tmp_path)["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("norm-movie", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_calls_no_private_name_and_no_jobs_flag():
    banned = re.compile(r"--jobs|r_point|_row\b|_Stepper|_dst2|free_pair_oracle"
                        r"|atomsqueeze(\.\w+)*\._(?!_)")
    for path in BENCH.glob("*.py"):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            assert not banned.search(line), f"{path.name}:{n}: {line}"

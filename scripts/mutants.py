"""Mutation check: each listed one-line change to ``src/`` must fail a test.

A mutant is (file, old text, new text, tests expected to fail). The script
copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory, runs the union of the listed tests there once
unchanged (they must pass), then for each mutant replaces the one
occurrence of its old text, runs only its tests with ``pytest -x`` (a
killed mutant stops at its first failing test) and puts the file back.
A mutant is killed when pytest reports a failing test (exit code 1);
every other outcome, a pass included, counts as a survivor.

    python3 scripts/mutants.py

prints one line per mutant and exits 1 if a mutant survives, if an old
text is not found exactly once, or if the unchanged tests fail.

Left out:
- ``dynamics.ABSORBER_STRENGTH`` 6 -> 3 passes Tier-1. Whether that
  change is within the model's tolerance is for the steady-output error
  budget to say, and a profile chosen there replaces the constant.
- ``scattering.solve_matching``'s channel shift with its phase back on
  ``(kw - ku) * a``. Both constraints are blind to it: the shift has
  modulus 1 and cancels from each. It fails only the dense-LU oracle at
  M = 1000, which builds the same closed-form shift, by its round-off
  (above 1e-13 relative), so that kill says nothing of the physics.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DYN = "tests/test_dynamics.py::TestInstabilityAndWindows::"
LOCAL = "tests/test_dynamics.py::TestLocalStepExponential::"
PAIRS = "tests/test_pairs.py::"

#: (file under src/atomsqueeze/, old text, new text, tests expected to fail)
MUTANTS = [
    ("dynamics.py", "win = np.hanning(len(xs))", "win = np.ones(len(xs))",
     [DYN + "test_plane_wave_reads_as_pure_incidence"]),
    ("dynamics.py", "INSTABILITY_MARGIN = 1.5", "INSTABILITY_MARGIN = 1e6",
     [DYN + "test_guard_trips_on_runaway_local_step"]),
    # the guard skips the run's last, partial schedule block
    ("dynamics.py", "        if guarded:\n",
     "        if guarded and steps.size == _SCHEDULE_STEPS:\n",
     [DYN + "test_guard_checks_a_run_shorter_than_one_block"]),
    ("dynamics.py", "t_meas - 2.0 * grid.dt * i", "t_meas - 20.0 * grid.dt * i",
     [DYN + "test_extractor_zero_coupling"]),
    # the slab may reach into the steady-output analysis window
    ("dynamics.py", "not a > 0.15 * length", "True",
     ["tests/test_dynamics.py::TestNamedInputErrors::"
      "test_steady_output_window_inside_slab"]),
    ("dynamics.py", "times, t_last >= times - 1e-12,", "times, True,",
     ["tests/test_dynamics.py::TestNamedInputErrors::"
      "test_evolve_snapshot_time_after_last_step"]),
    ("dynamics.py", "f[1, s] = ch * w + ish * u", "f[1, s] = ch * w - ish * u",
     [LOCAL + "test_no_potential_half_weight_edges"]),
    ("dynamics.py", "np.negative(f[:, s], out=f[:, self.mirror])",
     "np.copyto(f[:, self.mirror], f[:, s])",
     [LOCAL + "test_no_potential_half_weight_edges"]),
    ("dynamics.py", "f[0, imirror] -= kicks[j]", "f[0, imirror] += kicks[j]",
     ["tests/test_dynamics.py::TestOddExtension::test_sourced_absorbing_run_stays_odd"]),
    ("pairs.py", "PERTURBATION_NORM_LIMIT = 0.1", "PERTURBATION_NORM_LIMIT = 10",
     [PAIRS + "TestPairAmplitude::test_perturbation_guard"]),
    ("pairs.py",
     "leak = float(np.abs(f[np.ix_(inside, inside)]).max()) if inside.any() else 0.0",
     "leak = 0.0",
     [PAIRS + "TestPairAmplitude::test_escape_leaves_region"]),
    # the pulse spectrum's powers in the wrong time order
    ("pairs.py", "rev = coeff[::-1]", "rev = coeff",
     [PAIRS + "TestPairAmplitude::test_matches_free_propagator_oracle"]),
    ("pairs.py", "f_rl = f[right, left].T", "f_rl = f[right, left]",
     [PAIRS + "TestQuadrants::test_blocks_match_masked_quadrants"]),
    ("scattering.py", "CHANNEL_TOL = 10.0 * SOLVER_TOL", "CHANNEL_TOL = 1e6",
     ["tests/test_scattering.py::TestRFromCoefficients::"
      "test_inconsistent_channels_guard"]),
    # one sign of the u experiment's Cramer step
    ("scattering.py", "bw[1] * edges[:, 0] - bw[0] * edges[:, 1]",
     "bw[1] * edges[:, 0] + bw[0] * edges[:, 1]",
     ["tests/test_scattering.py::TestSolveScattering::"
      "test_symplectic_constraints_on_grid"]),
    # alpha_m on its own phase exp(2i kw a), rounded apart from the carrier
    ("scattering.py", "alpha_m=np.conj(q2) * carrier * np.conj(shift) ** 2",
     "alpha_m=np.conj(q2 * np.exp(2j * kw * a))",
     ["tests/test_scattering.py::TestSolveScattering::"
      "test_symplectic_constraints_over_domain"]),
    # a dynamics run past threshold, where no steady output exists
    ("cli.py", "    if kappa >= kappa_th:\n", "    if False:\n",
     ["tests/test_cli.py::test_malformed_value_is_named_config_error"
      "[dynamics-kappa-past-threshold]"]),
    ("config.py", "e.min() < p - 22", "e.min() < p - 23",
     ["tests/test_cli.py::TestExponentCells::test_declines"]),
    ("config.py", "digest.update(data)", "digest.update(data[:-1])",
     ["tests/test_cli.py::TestWriteCsv::test_matches_per_value_formatting"]),
]


def pytest(work: Path, tests) -> int:
    """Exit code of pytest on ``tests`` in ``work``, stopping at the
    first failure; no bytecode is cached, so a restored file is never
    shadowed by the mutant's."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(work / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work / name)
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        if pytest(work, every) != 0:
            print("the listed tests fail on the unchanged source", file=sys.stderr)
            return 1
        survivors = 0
        for name, old, new, tests in MUTANTS:
            path = work / "src" / "atomsqueeze" / name
            source = path.read_text()
            if source.count(old) != 1:
                print(f"NOT FOUND  {name}: {old!r} is not in the file exactly once")
                survivors += 1
                continue
            path.write_text(source.replace(old, new))
            start = time.perf_counter()
            code = pytest(work, tests)
            path.write_text(source)
            verdict = "killed  " if code == 1 else f"SURVIVED (pytest exit {code})"
            survivors += code != 1
            print(f"{verdict}  {name}: {old!r} -> {new!r}"
                  f"  ({time.perf_counter() - start:.1f} s)", flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

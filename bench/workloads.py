"""Benchmark workloads: operating points, the operations of one pass, and
the checks that decide whether an operation failed.

A workload is a list of operation specs. Each spec holds a fixed set of
variants (operating points). The run's seed picks one variant per spec, so
the inputs depend on the seed but the amount of work does not. One pass
runs the picked operations in order. An operation is timed while it runs;
its outputs are summarized and checked afterwards, outside the timed
region:

* against the summary recorded for that variant in ``reference.json``
  (written by ``make_reference.py``), and
* against the physics invariants and acceptance bounds of the package.

The program is driven from outside only: ``atomsqueeze.cli.main`` with JSON
configs, and public library functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

import atomsqueeze
import atomsqueeze.cli

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

#: Default (relative, absolute) bound against the reference. Round-off
#: refactors pass it: the fused-stepper prototype moved steady-output
#: figures by 3e-14 relative. Every acceptance tolerance is looser.
TOL = (1e-9, 1e-12)
#: Symplectic identities of a converged scattering solve (acceptance 4).
SOLVER_TOL = 1e-10
#: Relative symplectic-norm drift of the norm movie (acceptance 6b).
DRIFT_TOL = 1e-8
#: Bell metrics of the symmetric pair configuration (acceptance 7a).
MIN_FIDELITY = 0.999
BELL_TOL = 1e-3

#: The physical operating point of the README (sodium, g0 = 2e4 rad/s).
README_PHYSICAL = {"g0": 2e4, "mu": 1.467e6, "a": 3e-6, "m": 3.82e-26,
                   "gamma": 0.5, "n0": 1e6}
README_BIG_M = README_PHYSICAL["mu"] / README_PHYSICAL["g0"]

SIZES = {
    "full": {
        "spectrum_grid": (161, 120),
        "compare_grid": (81, 60),
        "scattering_samples": 64,
        "dynamics": {"length": 160.0, "n_points": 3200, "dt": 0.01},
        "pairs": {"half_width": 24.0, "n_points": 256, "dt": 0.02, "t0": 6.0},
        "movie": {"n_points": 512, "dt": 2e-4, "steps": 10_000, "every": 10},
    },
    "tiny": {
        "spectrum_grid": (9, 8),
        "compare_grid": (7, 6),
        "scattering_samples": 8,
        "dynamics": {"length": 80.0, "n_points": 1600, "dt": 0.05},
        "pairs": {"half_width": 24.0, "n_points": 128, "dt": 0.05, "t0": 6.0},
        "movie": {"n_points": 256, "dt": 2e-3, "steps": 500, "every": 10},
    },
}


# -- comparison helpers ---------------------------------------------------

def compare(values: dict, reference: dict, tolerances: dict) -> list:
    """Names and values of every entry of ``values`` off its reference."""
    failures = []
    for key, ref in reference.items():
        got = values.get(key)
        rtol, atol = tolerances.get(key, TOL)
        refs = ref if isinstance(ref, list) else [ref]
        gots = got if isinstance(got, list) else [got]
        if got is None or len(gots) != len(refs):
            failures.append(f"{key}: got {got!r}, reference {ref!r}")
            continue
        for g, r in zip(gots, refs):
            if isinstance(r, float) and math.isfinite(r):
                ok = isinstance(g, (int, float)) and abs(g - r) <= rtol * abs(r) + atol
            else:
                ok = g == r
            if not ok:
                failures.append(f"{key}: got {g!r}, reference {r!r}")
                break
    return failures


def read_csv(path: Path, header: bool = True):
    """Data rows of a '#'-commented CSV as a 2-D float array."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.loadtxt(lines[1:] if header else lines, delimiter=",", ndmin=2)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- operations -----------------------------------------------------------

class Op:
    """One operation of a pass: prepared, timed, then checked.

    ``key`` names the variant in ``reference.json``; None means the
    operation is checked by invariants alone.
    """

    tolerances: dict = {}

    def __init__(self, spec: str, key):
        self.spec = spec
        self.key = key

    def prepare(self, work: Path) -> None:
        pass

    def run(self, out: Path):
        raise NotImplementedError

    def values(self, out: Path, result, failures: list, stats: dict):
        """Summary figures of the outputs, or None if they are unusable."""
        raise NotImplementedError

    def invariants(self, values: dict, done: dict) -> list:
        return []

    def check(self, out: Path, result, reference, done: dict):
        """(failures, values, stats) of one finished run of this operation.

        ``done`` maps the spec names of earlier operations of the same pass
        to their values.
        """
        failures, stats = [], {}
        values = self.values(out, result, failures, stats)
        if values is not None:
            if self.key is not None:
                if reference is None:
                    failures.append(f"{self.key}: no reference recorded")
                else:
                    failures += compare(values, reference, self.tolerances)
            failures += self.invariants(values, done)
        return failures, values, stats


class CliOp(Op):
    """One ``atomsqueeze.cli.main`` invocation with a JSON config."""

    def __init__(self, spec, key, config: dict, args=()):
        super().__init__(spec, key)
        self.config = config
        self.args = list(args)

    def prepare(self, work):
        self.config_path = work / f"{self.spec}.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))

    def run(self, out):
        return atomsqueeze.cli.main(
            [self.config["mode"], "--config", str(self.config_path),
             "--out", str(out), *self.args])

    def values(self, out, result, failures, stats):
        if result != 0:
            failures.append(f"{self.key}: exit code {result}")
            return None
        record_path = out / "run_record.json"
        if not record_path.is_file():
            failures.append(f"{self.key}: no run_record.json")
            return None
        manifest = json.loads(record_path.read_text())["manifest"]
        mismatches = [n for n, digest in manifest.items()
                      if not (out / n).is_file() or sha256(out / n) != digest]
        if mismatches:
            failures.append(f"{self.key}: checksum mismatch in {mismatches}")
        stats["cli.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        stats["config.bytes_hashed"] = sum(
            (out / n).stat().st_size for n in manifest if (out / n).is_file())
        stats["cli.checksum_mismatches"] = len(mismatches)
        return self.outputs(out, stats)

    def outputs(self, out: Path, stats: dict) -> dict:
        raise NotImplementedError


class SpectrumOp(CliOp):
    def outputs(self, out, stats):
        values = {}
        for method in ("analytic", "scattering"):
            data = read_csv(out / f"spectrum_{method}.csv")
            r = data[:, 2]
            finite = r[np.isfinite(r)]
            probe = np.linspace(0, len(r) - 1, 16).astype(int)
            values[f"{method}.rows"] = len(r)
            values[f"{method}.above"] = int(data[:, 3].sum())
            values[f"{method}.r_sum"] = float(finite.sum())
            values[f"{method}.r_max"] = float(finite.max())
            values[f"{method}.r_probe"] = [float(v) for v in r[probe]]
        flux = json.loads((out / "flux.json").read_text())
        values["flux_atoms_per_s"] = flux["flux_atoms_per_s"]
        return values

    def invariants(self, values, done):
        grid = self.config["grid"]
        n = grid["d_points"] * grid["kappa_points"]
        return [f"{self.key}: {m} has {values[f'{m}.rows']} rows, expected {n}"
                for m in ("analytic", "scattering") if values[f"{m}.rows"] != n]


class ThresholdOp(CliOp):
    # acceptance 2 locates the threshold to 1e-9 in absolute terms
    tolerances = {"kappa": (0.0, 1e-9), "peak_argument": (0.0, 1e-9)}

    def outputs(self, out, stats):
        payload = json.loads((out / "threshold.json").read_text())
        return {k: payload[k] for k in ("found", "diverges", "kappa", "peak_argument")}

    def invariants(self, values, done):
        if values["found"] and values["diverges"]:
            return []
        return [f"{self.key}: no divergence found in the bracket"]


class CompareOp(CliOp):
    def outputs(self, out, stats):
        payload = json.loads((out / "compare.json").read_text())
        values = {"passed": payload["passed"]}
        skipped = attempted = 0
        for row in payload["m_dependence"]:
            tag = f"M={row['big_m']:g}"
            for k in ("max_abs", "mean_abs", "n_points", "n_skipped"):
                values[f"{tag}.{k}"] = row[k]
            skipped += row["n_skipped"]
            attempted += row["n_points"] + row["n_skipped"]
        stats["spectrum.compare_skipped"] = skipped
        stats["spectrum.compare_attempted"] = attempted
        return values

    def invariants(self, values, done):
        return [] if values["passed"] else [f"{self.key}: compare did not pass"]


class DynamicsOp(CliOp):
    def outputs(self, out, stats):
        dyn = self.config["dynamics"]
        table = read_csv(out / "dynamics.csv")
        (snap_path,) = out.glob("state_gamma_*.csv")
        snap = read_csv(snap_path)
        grid = atomsqueeze.GridSpec(x_min=0.0, x_max=dyn["length"],
                                    n_points=dyn["n_points"], dt=dyn["dt"])
        big_m = dyn["big_m"]
        state = atomsqueeze.ModeState(
            u=snap[:, 1] + 1j * snap[:, 2], w=snap[:, 3] + 1j * snap[:, 4], t=0.0,
            label=atomsqueeze.ModeLabel(mu=big_m, k0=math.sqrt(big_m)))
        # the analysis window of the steady-output experiment
        window = atomsqueeze.OutputWindow(0.15 * grid.length, 0.48 * grid.length)
        est = atomsqueeze.extract_output_correlators([state], window, grid)
        return {
            "beta2": float(table[0, 1]),
            "snapshot_rows": len(snap),
            "snapshot.alpha2": est["alpha2"][0.0],
            "snapshot.beta2": est["beta2"][0.0],
        }

    def invariants(self, values, done):
        n = self.config["dynamics"]["n_points"] - 1
        if values["snapshot_rows"] != n:
            return [f"{self.key}: snapshot has {values['snapshot_rows']} rows, expected {n}"]
        return []


class PairsOp(CliOp):
    # the density file carries 9 significant digits per entry
    tolerances = {"density.sum": (1e-7, 0.0)}

    def outputs(self, out, stats):
        payload = json.loads((out / "pairs_metrics.json").read_text())
        dens = read_csv(out / "pair_density.csv", header=False)
        values = dict(payload["metrics"])
        values["created_norm2"] = payload["created_norm2"]
        values["leakage"] = payload["leakage"]
        values["density.shape"] = list(dens.shape)
        values["density.sum"] = float(dens.sum())
        return values

    def invariants(self, values, done):
        failures = []
        if self.config["pairs"].get("asymmetry", 0.0) == 0.0:
            if values["fidelity"] < MIN_FIDELITY:
                failures.append(f"{self.key}: fidelity {values['fidelity']}")
            if abs(values["entropy"] - math.log(2.0)) > BELL_TOL:
                failures.append(f"{self.key}: entropy {values['entropy']}")
            if abs(values["chsh"] - 2.0 * math.sqrt(2.0)) > BELL_TOL:
                failures.append(f"{self.key}: chsh {values['chsh']}")
            return failures
        sym = done.get("pairs-symmetric")
        if sym is None:
            return [f"{self.key}: symmetric run missing from the pass"]
        for k in ("fidelity", "entropy", "chsh"):
            if not values[k] < sym[k]:
                failures.append(f"{self.key}: {k} {values[k]} not below "
                                f"symmetric {sym[k]}")
        return failures


class ScatteringSamplesOp(Op):
    """Library ``solve_scattering`` at seeded points; symplectic identities."""

    def __init__(self, spec, points, big_m):
        super().__init__(spec, None)
        self.points = points
        self.big_m = big_m

    def run(self, out):
        return [atomsqueeze.solve_scattering(
            atomsqueeze.DimensionlessParams(d=d, big_m=self.big_m, kappa=k))
            for d, k in self.points]

    def values(self, out, result, failures, stats):
        return {
            "max_norm_defect": max(max(c.norm_defects()) for c in result),
            "max_cross_defect": max(c.cross_defect() for c in result),
        }

    def invariants(self, values, done):
        return [f"scattering samples: {k} = {v:.3e}" for k, v in values.items()
                if not v < SOLVER_TOL]


class NormMovieOp(Op):
    """Library ``evolve`` of a packet through a constant periodic slab.

    The acceptance-6b setup (periodic 512-point grid, g = 1 on [20, 40], a
    Gaussian packet with mu = 9 and no source, so the instability guard
    runs) over its physical interval t = 2, in 10 000 steps with a snapshot
    every 10 steps. Over longer intervals the packet is amplified by many
    orders of magnitude and |u|^2 - |w|^2 cancels to round-off of |u|^2,
    so a relative drift bound would measure that cancellation instead of
    the stepper.
    """

    # max_drift is round-off (about 3e-12) that a reordered stepper moves
    # freely; it is held to its bound only, here and in invariants()
    tolerances = {"final_plus_norm": (1e-9, 0.0), "max_drift": (0.0, DRIFT_TOL)}

    def __init__(self, spec, key, x0, k, movie):
        super().__init__(spec, key)
        self.x0, self.k, self.movie = x0, k, movie

    def run(self, out):
        mv = self.movie
        grid = atomsqueeze.GridSpec(x_min=0.0, x_max=60.0, n_points=mv["n_points"],
                                    dt=mv["dt"], boundary="periodic")
        ramp = atomsqueeze.CouplingRamp(g0_peak=1.0, gamma=1.0, shape="const",
                                        x_lo=20.0, x_hi=40.0)
        state = atomsqueeze.gaussian_packet(grid, x0=self.x0, sigma=5.0, k=self.k, mu=9.0)
        times = [grid.dt * mv["every"] * (i + 1) for i in range(mv["steps"] // mv["every"])]
        final, snaps = atomsqueeze.evolve(state, ramp, None, grid,
                                          t_final=mv["steps"] * grid.dt,
                                          snapshot_times=times)
        norms = [atomsqueeze.symplectic_norm(s, grid) for s in snaps]
        return {
            "n0": atomsqueeze.symplectic_norm(state, grid),
            "norms": norms,
            "final_plus_norm": atomsqueeze.dynamics.plus_norm(final, grid),
        }

    def values(self, out, result, failures, stats):
        n0 = result["n0"]
        return {
            "snapshots": len(result["norms"]),
            "max_drift": max(abs(n - n0) / abs(n0) for n in result["norms"]),
            "final_plus_norm": result["final_plus_norm"],
        }

    def invariants(self, values, done):
        failures = []
        want = self.movie["steps"] // self.movie["every"]
        if values["snapshots"] != want:
            failures.append(f"{self.key}: {values['snapshots']} snapshots, expected {want}")
        if not values["max_drift"] < DRIFT_TOL:
            failures.append(f"{self.key}: symplectic drift {values['max_drift']:.3e}")
        return failures


# -- workloads --------------------------------------------------------------

def spectrum_sweep(size: str, rng: random.Random) -> list:
    """Frequency-domain modules only: spectrum, threshold, compare, solves."""
    sz = SIZES[size]
    nd, nk = sz["spectrum_grid"]
    cd, ck = sz["compare_grid"]
    spectra = [
        SpectrumOp("spectrum", f"{size}/spectrum/a={a:g}", {
            "mode": "spectrum",
            "physical": dict(README_PHYSICAL, a=a),
            "grid": {"d_min": 0.0, "d_max": 3.0, "d_points": nd,
                     "kappa_min": 0.0, "kappa_max": 1.45, "kappa_points": nk},
        }, args=["--method", "both"])
        for a in (2.9e-6, 3.0e-6, 3.1e-6)
    ]
    thresholds = [
        ThresholdOp("threshold", f"{size}/threshold/lo={lo:g}", {
            "mode": "threshold",
            "physical": README_PHYSICAL,
            "grid": {"kappa_min": lo, "kappa_max": lo + 1.0},
        })
        for lo in (1.0, 1.1, 1.2)
    ]
    compares = [
        CompareOp("compare", f"{size}/compare/d={d0:g}-{d1:g}", {
            "mode": "compare",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
            "grid": {"d_min": d0, "d_max": d1, "d_points": cd,
                     "kappa_min": 0.05, "kappa_max": 1.3, "kappa_points": ck},
        })
        for d0, d1 in ((0.0, 3.0), (0.0, 2.5), (0.5, 3.0))
    ]
    points = [(rng.uniform(0.0, 3.0), rng.uniform(0.05, 1.3))
              for _ in range(sz["scattering_samples"])]
    samples = [ScatteringSamplesOp("scattering", points, README_BIG_M)]
    return [spectra, thresholds, compares, samples]


def steady_output(size: str, rng: random.Random) -> list:
    """The time-domain stepper with a source, absorber and Dirichlet walls."""
    dyn = SIZES[size]["dynamics"]
    return [[
        DynamicsOp("dynamics", f"{size}/dynamics/kappa={kappa:g}", {
            "mode": "dynamics",
            "dimensionless": {"big_m": 100.0, "kappa": kappa},
            "dynamics": dict(dyn, gamma_ratios=[0.3], kappa=kappa, big_m=100.0),
        })
        for kappa in (1.0, 1.1, 1.2)
    ]]


def pair_bell(size: str, rng: random.Random) -> list:
    """The two-atom amplitude: symmetric run, then one barrier height."""
    pc = SIZES[size]["pairs"]

    def op(spec, height):
        pairs = dict(pc, asymmetry=height) if height else dict(pc)
        return PairsOp(spec, f"{size}/{spec}/height={height:g}", {
            "mode": "pairs",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
            "pairs": pairs,
        })

    return [[op("pairs-symmetric", 0.0)],
            [op("pairs-barrier", h) for h in (0.5, 1.0, 1.5, 2.0)]]


def norm_movie(size: str, rng: random.Random) -> list:
    """The stepper's FFT branch with the guard and frequent snapshots."""
    mv = SIZES[size]["movie"]
    return [[
        NormMovieOp("movie", f"{size}/movie/x0={x0:g},k={k:g}", x0, k, mv)
        for x0, k in ((30.0, 3.0), (27.0, 3.0), (33.0, 3.0), (30.0, 2.5))
    ]]


WORKLOADS = {
    "spectrum-sweep": spectrum_sweep,
    "steady-output": steady_output,
    "pair-bell": pair_bell,
    "norm-movie": norm_movie,
}


def pick(name: str, size: str, seed: int) -> list:
    """The operations of one pass of workload ``name`` for ``seed``."""
    rng = random.Random(seed)
    return [rng.choice(variants) for variants in WORKLOADS[name](size, rng)]


def every_variant(name: str, size: str) -> list:
    """Every operation the seed can pick, for recording references."""
    specs = WORKLOADS[name](size, random.Random(0))
    return [op for variants in specs for op in variants]


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())

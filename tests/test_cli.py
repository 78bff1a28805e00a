import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import atomsqueeze
from atomsqueeze import flux_estimate, spectrum_grid
from atomsqueeze.analytic import spectrum_large_mu
from atomsqueeze.cli import _write_csv, main
from atomsqueeze.config import BLOCKS, parse_config
from atomsqueeze.errors import AboveThresholdError, ConfigError
from atomsqueeze.spectrum import find_threshold, ridge_locus


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_fresh_python(code, *args, **env):
    """Run ``code`` in a fresh interpreter that imports this package;
    return its standard output."""
    src = str(Path(atomsqueeze.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=600, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


BASE = {
    "mode": "spectrum",
    "method": "analytic",
    "dimensionless": {"big_m": 100.0, "kappa": 1.2},
}


class TestConfigValidation:
    def test_both_blocks_rejected(self):
        cfg = dict(BASE)
        cfg["physical"] = {"g0": 2e4, "mu": 1.47e6, "a": 3e-6, "m": 3.82e-26}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg)

    def test_neither_block_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"mode": "spectrum"})

    def test_unknown_key_named(self):
        cfg = dict(BASE)
        cfg["grdi"] = {}
        with pytest.raises(ConfigError, match="grdi"):
            parse_config(cfg)

    def test_bad_mode(self):
        cfg = dict(BASE)
        cfg["mode"] = "plot"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(cfg)

    def test_physical_block_converted(self):
        cfg = {
            "mode": "spectrum",
            "physical": {
                "g0": 2e4,
                "mu": 1.4670409e6,
                "a": 3e-6,
                "m": 3.82e-26,
            },
        }
        parsed = parse_config(cfg)
        assert parsed.kappa == pytest.approx(4.0 / 3.0, rel=1e-3)
        assert parsed.g0 == 2e4

    def test_roundtrip_is_lossless(self):
        parsed = parse_config(dict(BASE))
        again = parse_config(json.loads(parsed.canonical_json()))
        assert again.config_hash() == parsed.config_hash()


PHYSICAL = {"g0": 2e4, "mu": 1.467e6, "a": 3e-6, "m": 3.82e-26,
            "gamma": 0.5, "n0": 1e6}

#: (config, extra command-line arguments, the block.key the error names)
MALFORMED = {
    "dynamics-count-text": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"n_points": "abc"}}, [], "dynamics.n_points"),
    "dynamics-scalar-gamma-ratios": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"gamma_ratios": 0.1}}, [], "dynamics.gamma_ratios"),
    "dynamics-empty-gamma-ratios": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"gamma_ratios": []}}, [], "dynamics.gamma_ratios"),
    "dynamics-gamma-ratio-entry": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"gamma_ratios": [0.1, "x"]}}, [],
        "dynamics.gamma_ratios[1]"),
    "pairs-list": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"dt": [1]}}, [], "pairs.dt"),
    "pairs-zero-ramp-time": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"ramp_time": 0}}, [], "pairs.ramp_time"),
    "grid-fractional-count": (
        {**BASE, "grid": {"d_points": 2.7}}, [], "grid.d_points"),
    "grid-bool": (
        {**BASE, "grid": {"kappa_max": True}}, [], "grid.kappa_max"),
    "grid-too-large-for-float": (
        {**BASE, "grid": {"d_max": 10**400}}, [], "grid.d_max"),
    "grid-override-fractional-count": (
        BASE, ["--d-points", "2.5"], "grid.d_points"),
    "grid-override-text": (
        BASE, ["--kappa-min", "low"], "grid.kappa_min"),
    "dimensionless-detuning": (
        {**BASE, "dimensionless": {"big_m": 100.0, "kappa": 1.2,
                                   "delta_over_g0": "abc"}}, [],
        "dimensionless.delta_over_g0"),
    "dimensionless-missing": (
        {**BASE, "dimensionless": {"big_m": 100.0}}, [], "dimensionless.kappa"),
    "physical-detuning": (
        {"mode": "spectrum", "physical": {**PHYSICAL, "delta": [1.0]}}, [],
        "physical.delta"),
    "physical-missing": (
        {"mode": "spectrum", "physical": {"g0": 2e4, "mu": 1.467e6, "a": 3e-6}},
        [], "physical.m"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_is_named_config_error(case, tmp_path, capsys):
    payload, args, where = MALFORMED[case]
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert main([payload["mode"], "--config", cfg, "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_config_root_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    assert main(["spectrum", "--config", str(cfg), "--d-points", "3"]) == 1
    assert "config root must be a JSON object" in capsys.readouterr().err


class TestConfigHash:
    """The hash covers the config as given; these were recorded before the
    config table replaced the per-key lookups and must never move."""

    def test_base(self):
        assert parse_config(dict(BASE)).config_hash() == (
            "03b4cd555d1e2ad264e4fb74c2d40126e1d545dde4d2692bdcad30794aee9cdf")

    def test_physical_with_grid_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"mode": "spectrum", "physical": PHYSICAL})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out),
                     "--method", "both", "--d-points", "7",
                     "--kappa-points", "5", "--kappa-min", "0.05",
                     "--kappa-max", "1.3", "--d-max", "2"]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert record["config_hash"] == (
            "f5b1064941f428b427d390ead77c5de7cfcf2b2c3e1a5a9e27b55f5a1de2dc6f")

    def test_coerced_values_not_written_back(self):
        raw = {**BASE, "grid": {"d_points": 5.0, "kappa_max": "1.3"}}
        before = json.dumps(raw, sort_keys=True)
        parsed = parse_config(raw)
        assert parsed.grid["d_points"] == 5 and parsed.grid["kappa_max"] == 1.3
        assert json.dumps(parsed.raw, sort_keys=True) == before


def test_readme_block_keys_match_config_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Block keys:")[1].split("\n\n")[0]
    listed = {}
    for segment in paragraph.split(";"):
        block, *keys = re.findall(r"`([a-z_0-9]+)`", segment)
        listed[block] = keys
    assert listed == {block: list(keys) for block, keys in BLOCKS.items()}


class TestSpectrumCommand:
    def test_csv_schema_and_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            **BASE,
            "grid": {"d_points": 5, "kappa_points": 7, "kappa_max": 1.45,
                     "d_max": 3.0},
        })
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum_analytic.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "delta_over_g0,kappa,r,above_threshold"
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 5 * 7
        # all kappa = 0 rows have r = 0
        for row in rows:
            if float(row[1]) == 0.0:
                assert float(row[2]) == 0.0

    def test_reference_row_value(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            **BASE,
            "grid": {"d_points": 2, "d_max": 1.0, "kappa_min": 1.333,
                     "kappa_max": 1.333, "kappa_points": 1},
        })
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum_analytic.csv").read_text().splitlines()
        row0 = [ln for ln in lines if not ln.startswith("#")][1].split(",")
        # d = 0, kappa = 1.333: finite-M value within 1e-2 of 2.1248
        assert float(row0[2]) == pytest.approx(2.124760058450118, abs=1e-2)

    def test_threshold_rows_flagged(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "spectrum",
            "dimensionless": {"big_m": 1e9, "kappa": 1.0},
            "grid": {"d_points": 1, "d_max": 0.0, "kappa_min": 0.0,
                     "kappa_max": math.pi, "kappa_points": 3},
        })
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum_analytic.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        # kappa grid = [0, pi/2, pi]: middle row above threshold at d = 0
        assert rows[1][3] == "1"
        assert rows[0][3] == "0" and rows[2][3] == "0"

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            **BASE,
            "grid": {"d_points": 4, "kappa_points": 4},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
        assert sha(out1 / "spectrum_analytic.csv") == sha(out2 / "spectrum_analytic.csv")
        rec1 = json.loads((out1 / "run_record.json").read_text())
        rec2 = json.loads((out2 / "run_record.json").read_text())
        assert rec1["manifest"] == rec2["manifest"]
        assert rec1["config_hash"] == rec2["config_hash"]

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["spectrum", "--config", str(p)]) == 1

    def test_solver_error_exit_code(self, tmp_path):
        # scattering at big_m = 2 with detunings up to 3: closed exterior
        # channel mid-sweep surfaces as exit code 2
        cfg = write_config(tmp_path / "c.json", {
            "mode": "spectrum",
            "method": "scattering",
            "dimensionless": {"big_m": 2.0, "kappa": 0.5},
            "grid": {"d_points": 4, "d_max": 3.0, "kappa_points": 2},
        })
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


def reference_fmt(v):
    """The per-value formatting the CSV writer must reproduce."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        values = [math.inf, -math.inf, math.nan, -0.0, 1e-300,
                  123456789012345.0, 0.1, -2.5e-7, 1.0]
        rows = [(v, w, flag, np.float64(w))
                for v in values for w in values[::-1] for flag in (True, False)]
        path = tmp_path / "rows.csv"
        _write_csv(path, ["# header"], ["a", "b", "c", "d"], rows)
        want = "# header\na,b,c,d\n" + "".join(
            ",".join(reference_fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()

    def test_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, ["# header"], ["a"], [])
        assert path.read_text() == "# header\na\n"


class TestThresholdCommand:
    def test_large_mu_first_threshold(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "threshold",
            "dimensionless": {"big_m": 1e12, "kappa": 1.0},
            "grid": {"kappa_min": 1.0, "kappa_max": 2.0},
        })
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["found"]
        assert payload["kappa"] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_finite_m_near_pi_half(self):
        res = find_threshold(1.0, 2.0, d=0.0, big_m=100.0)
        assert res.found and res.diverges
        assert abs(res.kappa - math.pi / 2) < 1e-3

    def test_none_in_range(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "threshold",
            "dimensionless": {"big_m": 1e12, "kappa": 1.0},
            "grid": {"kappa_min": 0.01, "kappa_max": 1.0},
        })
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert not payload["found"]
        assert payload["note"] == "none in range"


class TestCompareCommand:
    def test_pass_at_m100(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "compare",
            "method": "both",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
            "grid": {"d_points": 5, "kappa_points": 5, "kappa_min": 0.05,
                     "kappa_max": 1.3},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "compare.json").read_text())
        assert payload["passed"]
        table = {row["big_m"]: row["max_abs"] for row in payload["m_dependence"]}
        assert table[10.0] > table[100.0]  # M-dependence reported and sane

    def test_tight_tolerance_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "compare",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
            "grid": {"d_points": 4, "kappa_points": 4, "kappa_min": 0.05,
                     "kappa_max": 1.3},
        })
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg, "--out", str(out),
                     "--tolerance", "1e-9"])
        assert code == 3

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "compare",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
            "grid": {"d_points": 0},
        })
        assert main(["compare", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1


class TestFluxEstimate:
    def test_zero_spectrum(self):
        spec = spectrum_large_mu(np.linspace(-2, 2, 21), kappa=0.0)
        assert flux_estimate(spec, g0=2e4) == 0.0

    def test_single_bin_definitional(self):
        # one bin with sinh^2(r) = 1 over unit dimensionless width: g0/pi
        from atomsqueeze.analytic import SqueezingSpectrum, SqueezingValue

        r = math.asinh(1.0)
        val = SqueezingValue(r=r, above_threshold=False,
                             arctanh_argument=math.tanh(r))
        spec = SqueezingSpectrum(points=((0.0, val),), big_m=math.inf,
                                 kappa=0.5)
        assert flux_estimate(spec, g0=2e4) == pytest.approx(2e4 / math.pi)

    def test_above_threshold_rejected(self):
        spec = spectrum_large_mu([0.0], kappa=math.pi / 2)
        with pytest.raises(AboveThresholdError):
            flux_estimate(spec, g0=2e4)

    def test_worked_example_order_of_magnitude(self):
        # adopted-definition diagnostic lands within a broad factor of the
        # reference figure 680 atoms/ms (not an equality target)
        ds = np.linspace(-3.0, 3.0, 241)
        spec = spectrum_large_mu(ds, kappa=4.0 / 3.0)
        flux_ms = flux_estimate(spec, g0=2e4) / 1e3
        assert 680.0 / 30.0 < flux_ms < 680.0 * 30.0


class TestRidgeLocus:
    def test_locus_definition(self):
        assert ridge_locus(0.0) == pytest.approx(math.pi / 2)
        assert ridge_locus(1.0) == pytest.approx(math.pi / 2 / math.sqrt(2.0))

    def test_grid_peaks_follow_locus(self):
        kappas = np.linspace(0.05, 1.45, 57)
        for d in (0.5, 1.0, 2.0, 3.0):
            rows = spectrum_grid([d], kappas, big_m=1e9, method="analytic")
            rs = np.array([row[2] for row in rows])
            k_at_peak = kappas[int(np.argmax(rs))]
            assert abs(k_at_peak - ridge_locus(d)) <= (kappas[1] - kappas[0])


class TestDynamicsAndPairsCommands:
    def test_pairs_run_writes_metrics(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "pairs",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
            "pairs": {"n_points": 128, "half_width": 12.0, "dt": 0.04,
                      "t0": 3.0, "mu": 4.0, "a": 1.5},
        })
        out = tmp_path / "out"
        assert main(["pairs", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "pairs_metrics.json").read_text())
        assert payload["metrics"]["fidelity"] >= 0.999
        assert (out / "pair_density.csv").exists()
        assert (out / "run_record.json").exists()
        # identical rerun, identical checksums
        out2 = tmp_path / "out2"
        assert main(["pairs", "--config", cfg, "--out", str(out2)]) == 0
        rec1 = json.loads((out / "run_record.json").read_text())
        rec2 = json.loads((out2 / "run_record.json").read_text())
        assert rec1["manifest"] == rec2["manifest"]

    def test_pairs_checksums_independent_of_blas_threads(self, tmp_path):
        # the pair amplitude adds one small matrix product per step; its
        # bits must not depend on the BLAS thread count
        cfg = write_config(tmp_path / "c.json", {
            "mode": "pairs",
            "dimensionless": {"big_m": 100.0, "kappa": 1.2},
        })
        sums = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            run_fresh_python(
                "import sys; from atomsqueeze.cli import main; sys.exit(main())",
                "pairs", "--config", cfg, "--out", str(out),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            )
            sums.append([sha(out / name)
                         for name in ("pair_density.csv", "pairs_metrics.json")])
        assert sums[0] == sums[1]

    def test_dynamics_run_reports_discrepancy(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "mode": "dynamics",
            "dimensionless": {"big_m": 100.0, "kappa": 1.0},
            "dynamics": {"gamma_ratios": [0.1], "kappa": 1.0,
                         "n_points": 3200, "dt": 0.02, "measure_c": 5.0},
        })
        out = tmp_path / "out"
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "dynamics.csv").read_text().splitlines()
        row = [ln for ln in lines if not ln.startswith("#")][1].split(",")
        assert float(row[3]) < 0.1  # moderate-ramp smoke accuracy
        snap = (out / "state_gamma_0.1.csv").read_text().splitlines()
        header = [ln for ln in snap if not ln.startswith("#")][0]
        assert header == "x,re_u,im_u,re_w,im_w"


class TestColdStart:
    """The frequency-domain modes run on numpy alone; scipy.fft loads with
    the first time-domain stepper. Checks which modules are loaded, no
    timing."""

    SCIPY_LOADED = (
        "import sys; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))"
    )

    def test_frequency_domain_modes_never_load_scipy(self, tmp_path):
        grid = {"d_points": 4, "kappa_points": 3, "kappa_min": 0.05,
                "kappa_max": 1.3}
        configs = {
            "spectrum": {"mode": "spectrum", "method": "both", "grid": grid,
                         "physical": PHYSICAL},
            "threshold": {"mode": "threshold",
                          "dimensionless": {"big_m": 100.0, "kappa": 1.0},
                          "grid": {"kappa_min": 1.0, "kappa_max": 2.0}},
            "compare": {"mode": "compare", "grid": grid,
                        "dimensionless": {"big_m": 100.0, "kappa": 1.2}},
        }
        args = []
        for mode, payload in configs.items():
            cfg = write_config(tmp_path / f"{mode}.json", payload)
            args += [mode, cfg, str(tmp_path / mode)]
        code = (
            "import sys, atomsqueeze, atomsqueeze.cli\n"
            "a = sys.argv[1:]\n"
            "for mode, cfg, out in zip(a[::3], a[1::3], a[2::3]):\n"
            "    code = atomsqueeze.cli.main([mode, '--config', cfg, '--out', out])\n"
            "    assert code == 0, (mode, code)\n"
            + self.SCIPY_LOADED
        )
        assert run_fresh_python(code, *args).strip() == "[]"
        for mode in configs:
            assert (tmp_path / mode / "run_record.json").exists()

    def test_first_stepper_loads_scipy_fft(self):
        code = (
            "import sys, atomsqueeze as a\n"
            "grid = a.GridSpec(x_min=0.0, x_max=10.0, n_points=32, dt=0.01)\n"
            "ramp = a.CouplingRamp(g0_peak=0.0, gamma=1.0, shape='const')\n"
            "state = a.gaussian_packet(grid, x0=5.0, sigma=1.0, k=0.5)\n"
            "assert 'scipy' not in sys.modules\n"
            "a.evolve(state, ramp, None, grid, 0.02)\n"
            + self.SCIPY_LOADED
        )
        assert "'scipy.fft'" in run_fresh_python(code)

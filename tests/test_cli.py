import hashlib
import json
import math

import numpy as np
import pytest

from atomsqueeze import flux_estimate, spectrum_grid
from atomsqueeze.analytic import spectrum_large_mu
from atomsqueeze.cli import main
from atomsqueeze.config import parse_config
from atomsqueeze.errors import AboveThresholdError, ConfigError
from atomsqueeze.spectrum import find_threshold, ridge_locus


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

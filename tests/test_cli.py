import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomsqueeze
from atomsqueeze import config, flux_estimate, r_closed_form, spectrum_grid
from atomsqueeze.cli import main
from atomsqueeze.config import BLOCKS, MODES, RunRecord, parse_config
from atomsqueeze.errors import AboveThresholdError, ConfigError, ParameterDomainError
from atomsqueeze.spectrum import find_threshold


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

#: One small config per mode, each writing every file of its mode.
SMALL = {
    "spectrum": {"mode": "spectrum", "method": "both", "physical": PHYSICAL,
                 "grid": {"d_points": 4, "kappa_points": 3, "kappa_min": 0.05,
                          "kappa_max": 1.3}},
    "threshold": {"mode": "threshold",
                  "dimensionless": {"big_m": 1e12, "kappa": 1.0},
                  "grid": {"kappa_min": 1.0, "kappa_max": 2.0}},
    "compare": {"mode": "compare",
                "dimensionless": {"big_m": 100.0, "kappa": 1.2},
                "grid": {"d_points": 5, "kappa_points": 5, "kappa_min": 0.05,
                         "kappa_max": 1.3}},
    "dynamics": {"mode": "dynamics",
                 "dimensionless": {"big_m": 100.0, "kappa": 1.0},
                 "dynamics": {"gamma_ratios": [0.1], "kappa": 1.0,
                              "n_points": 3200, "dt": 0.02, "measure_c": 5.0}},
    "pairs": {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
              "pairs": {"n_points": 128, "half_width": 12.0, "dt": 0.04,
                        "t0": 3.0, "mu": 4.0, "a": 1.5}},
}

#: BASE in compare mode, which reads no method
COMPARE = {"mode": "compare", "dimensionless": {"big_m": 100.0, "kappa": 1.2}}

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
    # values outside the domain of the grid, ramp and source they build
    "pairs-dt-negative": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"dt": -0.02}}, [], "pairs.dt"),
    "pairs-mu-nan": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"mu": math.nan}}, [], "pairs.mu"),
    "pairs-n-points-negative": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"n_points": -5}}, [], "pairs.n_points"),
    "pairs-n-points-too-large-for-float": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"n_points": 10**400}}, [], "pairs.n_points"),
    "pairs-g-peak-negative": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"g_peak": -1}}, [], "pairs.g_peak"),
    "dynamics-gamma-ratio-negative": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"gamma_ratios": [-0.1]}}, [], "dynamics.gamma_ratios"),
    "dynamics-n-points-negative": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"n_points": -3}}, [], "dynamics.n_points"),
    "dynamics-dt-zero": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"dt": 0}}, [], "dynamics.dt"),
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
    "dimensionless-big-m-too-large-for-float": (
        {**BASE, "dimensionless": {"big_m": 10**400, "kappa": 1.2}}, [],
        "dimensionless.big_m"),
    "dimensionless-missing": (
        {**BASE, "dimensionless": {"big_m": 100.0}}, [], "dimensionless.kappa"),
    "physical-detuning": (
        {"mode": "spectrum", "physical": {**PHYSICAL, "delta": [1.0]}}, [],
        "physical.delta"),
    "physical-missing": (
        {"mode": "spectrum", "physical": {"g0": 2e4, "mu": 1.467e6, "a": 3e-6}},
        [], "physical.m"),
    "out-dir-null": ({**BASE, "out_dir": None}, [], "out_dir"),
    "out-dir-number": ({**BASE, "out_dir": 5}, [], "out_dir"),
    # compare clips kappa to [0.05, 1.3]: nothing of this grid is left
    "compare-clipped-kappa-empty": (
        {**COMPARE,
         "grid": {"kappa_min": 1.4, "kappa_max": 1.45, "kappa_points": 3}},
        [], "grid.kappa_min/grid.kappa_max"),
    # sinh^2(r0) is inf at threshold and 0 at kappa = 0: no relative
    # discrepancy exists, so the run must stop before stepping
    "dynamics-kappa-at-threshold": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": math.pi / 2}},
        [], "dimensionless.kappa"),
    "dynamics-kappa-zero": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 0.0}},
        [], "dimensionless.kappa"),
    # past kappa_th(100) = 1.5707767 the output grows without a steady
    # value: this run once exited 0 with a discrepancy of 10.85
    "dynamics-kappa-past-threshold": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.7},
         "dynamics": {"gamma_ratios": [0.3], "dt": 0.02}},
        [], "dimensionless.kappa"),
    "dynamics-kappa-negative": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": -1.0}},
        [], "dimensionless.kappa"),
    # the carrier is sqrt(big_m): no run exists for big_m <= 0 or infinite,
    # not even when the dynamics block repeats the value
    "dynamics-big-m-negative": (
        {"mode": "dynamics", "dimensionless": {"big_m": -4.0, "kappa": 1.2}},
        [], "dimensionless.big_m"),
    "dynamics-big-m-zero": (
        {"mode": "dynamics", "dimensionless": {"big_m": 0.0, "kappa": 1.2}},
        [], "dimensionless.big_m"),
    "dynamics-big-m-infinite": (
        {"mode": "dynamics", "dimensionless": {"big_m": math.inf, "kappa": 1.2},
         "dynamics": {"big_m": math.inf}}, [], "dimensionless.big_m"),
    # kappa and M have one source, the parameter block
    "dynamics-kappa-mismatch": (
        {"mode": "dynamics", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "dynamics": {"kappa": 1.0}}, [], "dynamics.kappa"),
    # a barrier of zero width has no finite samples
    "pairs-barrier-sigma-zero": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"asymmetry": 1.0, "barrier_sigma": 0.0}}, [],
        "pairs.barrier_sigma"),
    # a NaN tolerance would also be written as NaN, which is not JSON
    "compare-tolerance-nan": (COMPARE, ["--tolerance", "nan"], "--tolerance"),
    "compare-tolerance-negative": (COMPARE, ["--tolerance", "-1"], "--tolerance"),
    # the dimensionless block is held to the domain of DimensionlessParams
    "dimensionless-big-m-negative": (
        {**BASE, "dimensionless": {"big_m": -5.0, "kappa": 1.2}}, [],
        "dimensionless.big_m"),
    "dimensionless-big-m-nan": (
        {**BASE, "dimensionless": {"big_m": math.nan, "kappa": 1.2}}, [],
        "dimensionless.big_m"),
    "dimensionless-kappa-negative": (
        {**BASE, "dimensionless": {"big_m": 100.0, "kappa": -1.0}}, [],
        "dimensionless.kappa"),
    "dimensionless-detuning-nan": (
        {**BASE, "dimensionless": {"big_m": 100.0, "kappa": 1.2,
                                   "delta_over_g0": math.nan}}, [],
        "dimensionless.delta_over_g0"),
    "compare-dimensionless-kappa-negative": (
        {**COMPARE,
         "dimensionless": {"big_m": 100.0, "kappa": -1.0}}, [],
        "dimensionless.kappa"),
    # big_m = inf (the mu >> g0 limit) only where the closed form alone runs
    "spectrum-both-big-m-infinite": (
        {**BASE, "method": "both",
         "dimensionless": {"big_m": math.inf, "kappa": 1.2}}, [],
        "dimensionless.big_m"),
    "spectrum-scattering-big-m-infinite": (
        {**BASE, "dimensionless": {"big_m": math.inf, "kappa": 1.2}},
        ["--method", "scattering"], "dimensionless.big_m"),
    "compare-big-m-infinite": (
        {**COMPARE,
         "dimensionless": {"big_m": math.inf, "kappa": 1.2}}, [],
        "dimensionless.big_m"),
    "dynamics-run-big-m-infinite": (
        {"mode": "dynamics", "dimensionless": {"big_m": math.inf, "kappa": 1.2}},
        [], "dimensionless.big_m"),
    # a barrier of infinite or undefined height has no finite samples
    "pairs-asymmetry-infinite": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"asymmetry": math.inf}}, [], "pairs.asymmetry"),
    "pairs-asymmetry-nan": (
        {"mode": "pairs", "dimensionless": {"big_m": 100.0, "kappa": 1.2},
         "pairs": {"asymmetry": math.nan}}, [], "pairs.asymmetry"),
    # keys that only the spectral modes read
    **{f"{mode}-{key}": ({**SMALL[mode], key: value}, [], repr(key))
       for mode in ("dynamics", "pairs")
       for key, value in (("method", "analytic"), ("grid", {}))},
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


#: (mode, a key or block the mode does not read, its value)
UNREAD = [
    ("threshold", "method", "scattering"),
    ("threshold", "method", "analytic"),
    ("compare", "method", "both"),
    ("compare", "method", "analytic"),
    ("spectrum", "pairs", {"mu": -3}),
    ("spectrum", "pairs", {}),
    ("spectrum", "dynamics", {}),
    ("threshold", "pairs", {}),
    ("threshold", "dynamics", {"gamma_ratios": [0.1]}),
    ("compare", "pairs", {}),
    ("compare", "dynamics", {}),
    ("dynamics", "pairs", {}),
    ("dynamics", "pairs", {"mu": 4.0}),
    ("pairs", "dynamics", {}),
    ("pairs", "dynamics", {"kappa": 1.2}),
]


@pytest.mark.parametrize("mode, key, value", UNREAD,
                         ids=[f"{m}-{k}-{i}" for i, (m, k, _) in enumerate(UNREAD)])
def test_unread_key_is_named_config_error(mode, key, value, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {**SMALL[mode], key: value})
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


def test_pairs_runs_without_parameter_block(tmp_path):
    payload = {k: v for k, v in SMALL["pairs"].items() if k != "dimensionless"}
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert main(["pairs", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["validity"] is None
    assert set(record["manifest"]) == {"pairs_metrics.json", "pair_density.csv"}


@pytest.mark.parametrize("mode", ["spectrum", "threshold", "dynamics", "pairs"])
def test_tolerance_is_a_compare_flag(mode, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", SMALL[mode])
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out),
                 "--tolerance", "nan"]) == 1
    assert "--tolerance" in capsys.readouterr().err
    assert not out.exists()


# --method belongs to spectrum alone; the grid overrides to the modes
# that read the grid block (spectrum, threshold, compare)
@pytest.mark.parametrize("mode, args", [
    *(pytest.param(mode, ["--method", "both"], id=f"{mode}--method")
      for mode in ("threshold", "compare", "dynamics", "pairs")),
    *(pytest.param(mode, [f"--{key.replace('_', '-')}", "1"], id=f"{mode}--{key}")
      for mode in ("dynamics", "pairs") for key in BLOCKS["grid"]),
])
def test_flag_outside_its_modes_is_a_usage_error(mode, args, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", SMALL[mode])
    out = tmp_path / "out"
    assert main([mode, "--config", cfg, "--out", str(out), *args]) == 1
    assert args[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (["--bogus", "1"], "--bogus"),
    (["--method", "bogus"], "--method"),
])
def test_usage_error_is_a_config_error(args, named, tmp_path, capsys):
    # exit 1 like any config error; 2 is left to solver errors
    cfg = write_config(tmp_path / "c.json", SMALL["spectrum"])
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out), *args]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, block, key", [
    ("pairs", "pairs", "t0"),
    ("pairs", "pairs", "t_on"),
    ("pairs", "pairs", "t_off"),
    ("dynamics", "dynamics", "measure_c"),
])
def test_non_finite_time_is_a_config_error(mode, block, key, tmp_path, capsys):
    # named by its block.key before any solver runs (they were solver
    # errors, exit code 2); no traceback reaches the caller
    payload = json.loads(json.dumps(SMALL[mode]))
    payload[block][key] = math.nan
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "o"
    assert main([mode, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {block}.{key} must be finite, got nan\n"
    assert not out.exists()


def test_missing_config_is_a_config_error(capsys):
    assert main(["spectrum"]) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["spectrum", "--help"]])
def test_help_and_version_exit_zero(args, capsys):
    assert main(args) == 0
    assert capsys.readouterr().out


class TestLargeMuLimitRuns:
    """big_m = inf in the dimensionless block runs the mu >> g0 limit."""

    def test_spectrum_analytic(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            **BASE, "dimensionless": {"big_m": math.inf, "kappa": 1.2},
            "grid": {"d_points": 3, "kappa_points": 4, "kappa_max": math.pi / 2}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum_analytic.csv").read_text().splitlines()
        assert "# big_m = inf" in lines
        start = lines.index("delta_over_g0,kappa,r,above_threshold") + 1
        ds, ks = np.linspace(0.0, 3.0, 3), np.linspace(0.0, math.pi / 2, 4)
        want = [(d, k, r_closed_form(d, math.inf, k)) for d in ds for k in ks]
        assert lines[start:] == [f"{d:.12g},{k:.12g},{v.r:.12g},{v.above_threshold:d}"
                                 for d, k, v in want]
        assert lines[start + 3].endswith(",inf,1")  # d = 0 at kappa = pi/2

    def test_threshold(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            **SMALL["threshold"], "dimensionless": {"big_m": math.inf, "kappa": 1.0}})
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "threshold.json").read_text())
        assert payload["found"] and payload["diverges"]
        assert payload["kappa"] == float(f"{math.pi / 2:.12g}")


def test_config_root_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    assert main(["spectrum", "--config", str(cfg), "--d-points", "3"]) == 1
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(math.isfinite(float(v)) for v in printed)


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


class TestValidityRecord:
    """run_record.json reports the validity of the run's parameters, the
    library versions and the time spent writing; they live in the record
    only, so the data files keep the checksums they had before."""

    def run(self, tmp_path, payload):
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([payload["mode"], "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        manifest = record["manifest"]
        assert manifest == {name: sha(out / name) for name in manifest}
        return record

    def test_physical_block(self, tmp_path):
        record = self.run(tmp_path, {"mode": "spectrum", "physical": PHYSICAL,
                                     "grid": {"d_points": 4, "kappa_points": 3}})
        report = record["validity"]
        assert set(report) == {"steady_output_ok", "steady_output_margin",
                               "large_mu_ok", "large_mu_margin", "below_threshold",
                               "threshold_distance"}
        assert report["steady_output_margin"] == PHYSICAL["gamma"] / PHYSICAL["g0"]
        assert report["large_mu_margin"] == PHYSICAL["g0"] / PHYSICAL["mu"]
        assert report["below_threshold"] and report["large_mu_ok"]
        # kappa = 1.333 at the README operating point
        assert report["threshold_distance"] == pytest.approx(math.pi / 2 - 4 / 3,
                                                             abs=2e-3)
        blas = record["versions"].pop("blas")
        assert record["versions"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}
        assert set(blas) == {"corename", "one_thread_pin"}
        # numpy's Linux wheels carry the bundled scipy-openblas, which names
        # its kernel set and takes a thread count
        build = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        if sys.platform == "linux" and build == "scipy-openblas":
            assert blas["one_thread_pin"] is True
            assert isinstance(blas["corename"], str) and blas["corename"]
        assert 0.0 < record["write_s"] < record["finished_at"] - record["started_at"]
        assert record["manifest"] == {
            "flux.json":
                "703b4beb54385b0c754233a49f1fbeb529e5b4516cf29c87dedfd0907c5bf697",
            "spectrum_analytic.csv":
                "0c184aca748deeaeea5dd14a242020ee10612ff7b134a79b8701fb52634c2fa4",
        }

    def test_dimensionless_block(self, tmp_path):
        record = self.run(tmp_path, SMALL["threshold"])
        assert record["validity"] == {"threshold_distance": math.pi / 2 - 1.0}
        assert record["manifest"] == {
            "threshold.json":
                "65312d2c09f9c29e8d81aacbd0fe1ff0ff453c16f3774b109df14540054cf888",
        }


def test_readme_block_keys_match_config_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Block keys:")[1].split("\n\n")[0]
    listed = {}
    for segment in paragraph.split(";"):
        block, *keys = re.findall(r"`([a-z_0-9]+)`", segment)
        listed[block] = keys
    assert listed == {block: list(keys) for block, keys in BLOCKS.items()}


def test_readme_mode_table_matches_config_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| mode | blocks read | flags |")[1].split("\n\n")[0]
    listed = {}
    for row in rows.splitlines()[2:]:
        mode, blocks, flags = (re.findall(r"`([-a-z_]+)`", cell)
                               for cell in row.strip("|").split("|"))
        listed[mode[0]] = (blocks, flags)
    grid_flags = [f"--{key.replace('_', '-')}" for key in BLOCKS["grid"]]
    assert listed == {
        mode: (["dimensionless", "physical"] * ("parameters" in reads)
               + [block for block in reads if block in BLOCKS]
               + ["method"] * ("method" in reads),
               ["--method"] * ("method" in reads) + grid_flags * ("grid" in reads)
               + [flag for flag in reads if flag.startswith("--")])
        for mode, reads in MODES.items()}


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

    def test_no_flux_at_or_above_first_threshold(self, tmp_path):
        # a = 4.5e-6 m gives kappa = 2.00003 > pi/2, where the M = inf closed
        # form the flux integrates is finite again at every d but the output
        # grows; TestValidityRecord pins the flux bytes at kappa = 1.333
        cfg = write_config(tmp_path / "c.json", {
            "mode": "spectrum", "physical": {**PHYSICAL, "a": 4.5e-6},
            "grid": {"d_points": 4, "kappa_points": 3}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        assert list(record["manifest"]) == ["spectrum_analytic.csv"]
        assert not (out / "flux.json").exists()

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
    """The run record's table writer, byte for byte: metadata header
    (floats at 12 significant digits), column line, rows."""

    HEADER = (
        f"# atomsqueeze {atomsqueeze.__version__}\n"
        "# config_hash = "
        "03b4cd555d1e2ad264e4fb74c2d40126e1d545dde4d2692bdcad30794aee9cdf\n"
        "# mode = spectrum\n"
        "# x = 0.3\n"
    )

    def test_matches_per_value_formatting(self, tmp_path):
        values = [math.inf, -math.inf, math.nan, -0.0, 1e-300,
                  123456789012345.0, 0.1, -2.5e-7, 1.0]
        rows = [(v, w, flag, np.float64(w))
                for v in values for w in values[::-1] for flag in (True, False)]
        record = RunRecord(parse_config(dict(BASE)), tmp_path)
        record.table("rows.csv", {"x": 0.1 + 0.2}, "%.12g", rows, ["a", "b", "c", "d"])
        path = tmp_path / "rows.csv"
        want = self.HEADER + "a,b,c,d\n" + "".join(
            ",".join(reference_fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()
        # the 0/1 flag column has the bytes of `%d` row by row
        assert want == self.HEADER + "a,b,c,d\n" + "".join(
            "%.12g,%.12g,%d,%.12g\n" % row for row in rows)
        assert record.manifest == {"rows.csv": sha(path)}

    def test_no_rows(self, tmp_path):
        record = RunRecord(parse_config(dict(BASE)), tmp_path)
        record.table("empty.csv", {"x": 0.1 + 0.2}, "%.12g", [], ["a"])
        assert (tmp_path / "empty.csv").read_text() == self.HEADER + "a\n"

    @pytest.mark.parametrize("fmt", ["%.8e", "%.10e"])
    def test_exponent_rows_match_savetxt(self, fmt, tmp_path):
        # the snapshot and pair-density format, as np.savetxt wrote it
        rng = np.random.default_rng(5)
        data = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
        data[0, :4] = [0.0, -0.0, 1e-320, 1.0]
        record = RunRecord(parse_config(dict(BASE)), tmp_path)
        record.table("grid.csv", {"x": 0.1 + 0.2}, fmt, data)
        want = io.StringIO()
        np.savetxt(want, data, fmt=fmt, delimiter=",")
        assert (tmp_path / "grid.csv").read_text() == self.HEADER + want.getvalue()

    def test_every_chunk_size(self, tmp_path, monkeypatch):
        # chunks of one row (1 and 3 cells), of several rows with a shorter
        # last chunk (14 cells; 600, two density rows), and of more cells
        # than any table; blocks of one row, of three density rows (1000
        # cells, so a declined block is two `%` chunks of 600 and one of
        # 14 cells at most), and of the whole table. 0.0 and -0.0 share a
        # column, in a `%.12g` table and in a `%.10e` one whose every block
        # numpy declines, and the pair density is 255 x 255, once with one
        # 0.0 cell: its block is declined and written as `%` chunks
        rng = np.random.default_rng(19)
        cycle = np.tile([0.0, -0.0, 1.5, 0.0], 30)
        flags = np.column_stack([cycle, -cycle, cycle > 0])
        density = rng.standard_normal((255, 255)) ** 2
        zero = density.copy()
        zero[100, 17] = 0.0
        tables = [("%.12g", flags), ("%.10e", flags), ("%.8e", density), ("%.8e", zero)]
        wants = ["".join((",".join([fmt] * len(row)) + "\n") % tuple(row)
                         for row in data.tolist())
                 for fmt, data in tables]
        for chunk in (1, 3, 14, 600, 10**6):
            for block in (1, 1000, 10**6):
                monkeypatch.setattr(config, "_CHUNK_CELLS", chunk)
                monkeypatch.setattr(config, "_BLOCK_CELLS", block)
                for (fmt, data), want in zip(tables, wants):
                    record = RunRecord(parse_config(dict(BASE)), tmp_path)
                    record.table("t.csv", None, fmt, data)
                    assert (tmp_path / "t.csv").read_text() == want, (chunk, block)

    def test_density_takes_one_numpy_call_per_block(self, tmp_path, monkeypatch):
        # a 255 x 255 density whose every cell numpy writes (quarters: exact
        # mantissas, far from a rounding tie) is a few blocks of rows, not
        # one call a row; with one 0.0 cell only that cell's block of rows
        # goes to `%`
        built = []

        def counted(chunk, p):
            built.append(exponent_cells(chunk, p))
            return built[-1]

        exponent_cells = config._exponent_cells
        monkeypatch.setattr(config, "_exponent_cells", counted)
        data = np.arange(1, 255 * 255 + 1).reshape(255, 255) / 4.0
        record = RunRecord(parse_config(dict(BASE)), tmp_path)
        record.table("t.csv", None, "%.8e", data)
        assert None not in built
        assert len(built) <= math.ceil(data.size / config._BLOCK_CELLS)
        assert (tmp_path / "t.csv").read_text() == "".join(built)
        built.clear()
        data[100, 17] = 0.0
        record.table("t.csv", None, "%.8e", data)
        rows = config._BLOCK_CELLS // 255
        assert built.count(None) == 1
        assert sum(text.count("\n") for text in built if text is not None) == 255 - rows
        assert (tmp_path / "t.csv").read_text() == TestExponentCells.percent("%.8e", data)


def _next(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


#: Rows of cells for the exponent formats, each list from one kind or a
#: mix: any float (NaN, infinities, subnormals and both zeros included),
#: ordinary magnitudes of both signs, values a few ulps from a power of ten
#: or from the rounding boundary next to it (9.9999999995e-05 at p = 8), and
#: exact binary ties at the 8th digit ((2N + 1)·10^s / 2, N of nine digits).
_CELL_KINDS = [
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda x, sign: sign * x, st.floats(1e-30, 1e30),
              st.sampled_from([1.0, -1.0])),
    st.builds(lambda k, f, ulps, sign: sign * _next(10.0**k * f, ulps),
              st.integers(-101, 101),
              st.sampled_from([1.0, 0.99999999995, 0.9999999999995, 1.00000000005]),
              st.integers(-2, 2), st.sampled_from([1.0, -1.0])),
    st.builds(lambda n, s: (2 * n + 1) * 10**s / 2,
              st.integers(10**8, 10**9 - 1), st.integers(0, 4)),
]
EXPONENT_ROWS = st.one_of(*(st.lists(kind, min_size=1, max_size=60)
                            for kind in [*_CELL_KINDS, st.one_of(*_CELL_KINDS)]))


class TestExponentCells:
    """The vectorized ``%.Ne`` cells of the table writer: the bytes of
    Python's ``%`` for every cell, or a decline to it."""

    @staticmethod
    def written(tmp, fmt, data):
        record = RunRecord(parse_config(dict(BASE)), tmp)
        record.table("t.csv", None, fmt, data)
        return (tmp / "t.csv").read_text()

    @staticmethod
    def percent(fmt, data):
        """``data`` printed row by row with Python's ``%``."""
        rows = np.asarray(data, float).tolist()
        return "".join((",".join([fmt] * len(row)) + "\n") % tuple(row) for row in rows)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(cells=EXPONENT_ROWS, cols=st.integers(1, 7), p=st.sampled_from([8, 10]))
    @example(cells=[9.9999999995e-05, 123456789.5, 1e-300, -0.0], cols=2, p=8)
    def test_cells_match_percent(self, tmp_path_factory, cells, cols, p):
        data = np.resize(np.array(cells), (max(1, len(cells) // cols), cols))
        tmp = tmp_path_factory.mktemp("cells")
        assert self.written(tmp, f"%.{p}e", data) == self.percent(f"%.{p}e", data)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           cols=st.integers(1, 300), p=st.sampled_from([8, 10]),
           decades=st.sampled_from([600.0, 60.0, 6.0]),
           centre=st.sampled_from([-270.0, -30.0, 0.0, 30.0, 270.0]))
    def test_random_tables_match_percent(self, tmp_path_factory, seed, rows, cols, p,
                                         decades, centre):
        # both signs, magnitudes across `decades` decades inside 1e-300 ... 1e300
        rng = np.random.default_rng(seed)
        low = min(max(centre - decades / 2.0, -300.0), 300.0 - decades)
        data = (rng.choice([-1.0, 1.0], (rows, cols))
                * 10.0 ** rng.uniform(low, low + decades, (rows, cols)))
        tmp = tmp_path_factory.mktemp("random")
        assert self.written(tmp, f"%.{p}e", data) == self.percent(f"%.{p}e", data)

    @pytest.mark.parametrize("p", [8, 10])
    def test_density_rows_take_the_vectorized_path(self, p):
        # the pair density's shape and range, every other row negated: all
        # but a few rows (those holding a declined cell) are built with numpy
        rng = np.random.default_rng(20)
        data = rng.standard_normal((255, 255)) ** 2 * 1e-3
        data[::2] *= -1.0
        built = [config._exponent_cells(row[None, :], p) for row in data]
        assert sum(text is not None for text in built) >= 250
        for row, text in zip(data, built):
            if text is not None:
                assert text == self.percent(f"%.{p}e", row[None, :])

    @pytest.mark.parametrize("cell", [
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308,  # not normal
        1e100, 1e-100,  # a three-digit exponent
        1e-15, 1e31,  # p - e = 23 and -23: 10^23 is not a double
        1e-40, 1e60,  # farther still
        123456789.5, 1234567895.0,  # exact ties at the 8th digit
        9.9999999995e-05,  # rounds up to ten digits, 1.00000000e-04
    ])
    def test_declines(self, cell):
        chunk = np.array([[1.5, cell]])
        assert config._exponent_cells(chunk, 8) is None

    @pytest.mark.parametrize("p, n", [(8, 123456789), (10, 98765432101)])
    def test_near_ties_are_written(self, p, n):
        # cells 1 to 3 ulps either side of the ties (N + 1/2)·10^s, whose
        # correctly rounded mantissas all lie off the tie, on the exact
        # mantissa's side: each is written with %'s bytes (a margin around
        # the tie declined them all)
        for s in (-22, -9, -1, 0, 5, 13):
            tie = float(Fraction(2 * n + 1, 2) * Fraction(10) ** s)
            for ulps in (-3, -2, -1, 1, 2, 3):
                cell = tie
                for _ in range(abs(ulps)):
                    cell = np.nextafter(cell, math.copysign(math.inf, ulps))
                assert float(Fraction(cell) * Fraction(10) ** -s) != n + 0.5
                for x in (cell, -cell):
                    text = config._exponent_cells(np.array([[x]]), p)
                    assert text == self.percent(f"%.{p}e", [[x]])

    @pytest.mark.parametrize("off", [-1.0, 1.0])
    def test_exponent_off_by_one_declines(self, monkeypatch, off):
        # a log10 that misses the decimal exponent either way gives a
        # mantissa of p or p+2 digits, which the digit-count test declines
        chunk = np.random.default_rng(3).uniform(1.0, 9.9, (4, 64))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        assert config._exponent_cells(chunk, 8) is None


def _floats(value):
    """Every float in a parsed JSON value."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


def test_header_and_json_floats_at_12_digits(tmp_path):
    """Every float of a header line or a JSON data file, in every mode, is
    printed at the 12 significant digits of the CSV columns."""
    seen = []
    for mode, payload in SMALL.items():
        cfg = write_config(tmp_path / f"{mode}.json", payload)
        out = tmp_path / mode
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "run_record.json").read_text())
        for path in (out / name for name in record["manifest"]):
            if path.suffix == ".json":
                values = list(_floats(json.loads(path.read_text())))
            else:
                values = []
                for line in path.read_text().splitlines():
                    if not line.startswith("#"):
                        break
                    try:
                        values.append(float(line.partition(" = ")[2]))
                    except ValueError:
                        pass
            seen.append(path.name)
            for v in values:
                assert math.isnan(v) or float(f"{v:.12g}") == v, (path.name, v)
    assert {"flux.json", "threshold.json", "compare.json", "dynamics.csv",
            "state_gamma_0.1.csv", "pairs_metrics.json",
            "pair_density.csv"} <= set(seen)


class TestThresholdCommand:
    def test_large_mu_first_threshold(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SMALL["threshold"])
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
        cfg = write_config(tmp_path / "c.json", SMALL["compare"])
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
        ds = np.linspace(-2, 2, 21)
        assert flux_estimate(ds, r_closed_form(ds, math.inf, 0.0).r, g0=2e4) == 0.0

    def test_single_bin_definitional(self):
        # one bin with sinh^2(r) = 1 over unit dimensionless width: g0/pi
        assert flux_estimate([0.0], [math.asinh(1.0)], g0=2e4) == pytest.approx(
            2e4 / math.pi)

    def test_above_threshold_rejected(self):
        r = r_closed_form([0.0], math.inf, math.pi / 2).r
        with pytest.raises(AboveThresholdError):
            flux_estimate([0.0], r, g0=2e4)

    def test_strictly_increasing_required(self):
        ds = [0.0, 0.0, 1.0]
        with pytest.raises(ParameterDomainError, match="strictly increasing"):
            flux_estimate(ds, r_closed_form(ds, math.inf, 1.0).r, g0=2e4)

    def test_worked_example_order_of_magnitude(self):
        # adopted-definition diagnostic lands within a broad factor of the
        # reference figure 680 atoms/ms (not an equality target)
        ds = np.linspace(-3.0, 3.0, 241)
        r = r_closed_form(ds, math.inf, 4.0 / 3.0).r
        flux_ms = flux_estimate(ds, r, g0=2e4) / 1e3
        assert 680.0 / 30.0 < flux_ms < 680.0 * 30.0


class TestRidgeLocus:
    def test_locus_definition(self):
        # the ridge kappa * sqrt(1 + d^2) = pi/2 is the first peak of the
        # large-mu arctanh argument in kappa
        assert find_threshold(0.0, 2.0, 0.0).kappa == pytest.approx(math.pi / 2)
        assert find_threshold(0.0, 2.0, 1.0).kappa == pytest.approx(
            math.pi / 2 / math.sqrt(2.0))

    def test_grid_peaks_follow_locus(self):
        kappas = np.linspace(0.05, 1.45, 57)
        for d in (0.5, 1.0, 2.0, 3.0):
            rows = spectrum_grid([d], kappas, big_m=1e9, method="analytic")
            rs = np.array([row[2] for row in rows])
            k_at_peak = kappas[int(np.argmax(rs))]
            ridge = find_threshold(0.0, 2.0, d).kappa
            assert abs(k_at_peak - ridge) <= (kappas[1] - kappas[0])


class TestDynamicsAndPairsCommands:
    def test_unresolved_carrier_is_a_solver_error(self, tmp_path, capsys):
        # dx = 0.1 samples the source carrier k0 = sqrt(M) = 10 too coarsely;
        # evolve's resolution check names both
        payload = SMALL["dynamics"] | {"dynamics": {
            "gamma_ratios": [0.1], "length": 160.0, "n_points": 1600}}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "solver error: dx=0.1 too coarse for k_max=10: need dx <= 0.07854\n")

    def test_pairs_run_writes_metrics(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SMALL["pairs"])
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
        # the default pairs run has no barrier, so no eigh: its source and
        # power-table products run inside _blas.one_thread, and the files
        # must not depend on the BLAS thread count. They round |f|^2 to 9
        # digits and the metrics to 12, so the bit check of f, eigh
        # included, is test_pairs' test_same_bits_at_one_and_two_blas_threads
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
        cfg = write_config(tmp_path / "c.json", SMALL["dynamics"])
        out = tmp_path / "out"
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "dynamics.csv").read_text().splitlines()
        row = [ln for ln in lines if not ln.startswith("#")][1].split(",")
        assert float(row[3]) < 0.1  # moderate-ramp smoke accuracy
        snap = (out / "state_gamma_0.1.csv").read_text().splitlines()
        header = [ln for ln in snap if not ln.startswith("#")][0]
        assert header == "x,re_u,im_u,re_w,im_w"


#: The package modules a fresh ``import atomsqueeze.cli`` and config parse
#: load, and those each mode's run adds.
CONFIG_LAYER = {"_blas", "cli", "config", "errors", "params"}
FREQUENCY_DOMAIN = CONFIG_LAYER | {"analytic", "scattering", "spectrum"}
MODE_LOADS = {"spectrum": FREQUENCY_DOMAIN, "threshold": FREQUENCY_DOMAIN,
              "compare": FREQUENCY_DOMAIN,
              "dynamics": CONFIG_LAYER | {"analytic", "dynamics"},
              "pairs": CONFIG_LAYER | {"dynamics", "pairs"}}

#: Every public name of the package, by the submodule that defines it.
EXPORTS = {
    "analytic": ("SqueezingValue", "r_closed_form", "wavenumber_phase"),
    "dynamics": ("CouplingRamp", "GridSpec", "ModeLabel", "ModeState",
                 "OutputWindow", "evolve", "extract_output_correlators",
                 "gaussian_packet", "steady_state_beta_squared",
                 "symplectic_norm"),
    "pairs": ("PairAmplitude", "QuadrantDecomposition", "bell_metrics",
              "internal_reduced_state", "pair_amplitude", "quadrant_decompose"),
    "params": ("DimensionlessParams", "PhysicalParams", "ValidityReport",
               "to_dimensionless", "transit_time", "validity"),
    "scattering": ("BogoliubovCoefficients", "r_from_coefficients",
                   "solve_scattering"),
    "spectrum": ("CompareResult", "ThresholdResult", "compare_methods",
                 "find_threshold", "flux_estimate", "spectrum_grid"),
}


class TestColdStart:
    """A run loads only the package modules its mode uses, and scipy.fft
    loads with the first time-domain stepper; the package binds its names
    on first access. Checks which modules are loaded, no timing."""

    SCIPY_LOADED = (
        "import sys; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))"
    )
    PACKAGE_LOADED = (
        "import sys; print(*sorted(m.partition('.')[2] for m in sys.modules"
        " if m.startswith('atomsqueeze.')))"
    )

    def test_cli_and_config_parse_load_the_config_layer_only(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mode": "spectrum",
                                                 "physical": PHYSICAL})
        code = (
            "import sys, atomsqueeze.cli\n"
            "from atomsqueeze.config import load_config\n"
            "load_config(sys.argv[1])\n"
            + self.PACKAGE_LOADED
        )
        assert set(run_fresh_python(code, cfg).split()) == CONFIG_LAYER

    @pytest.mark.parametrize("mode", list(MODE_LOADS))
    def test_each_mode_loads_its_own_modules_only(self, mode, tmp_path):
        cfg = write_config(tmp_path / "c.json", SMALL[mode])
        code = (
            "import sys, atomsqueeze.cli\n"
            "mode, cfg, out = sys.argv[1:]\n"
            "code = atomsqueeze.cli.main([mode, '--config', cfg, '--out', out])\n"
            "assert code == 0, code\n"
            + self.PACKAGE_LOADED
        )
        loaded = run_fresh_python(code, mode, cfg, str(tmp_path / "out")).split()
        assert set(loaded) == MODE_LOADS[mode]

    @pytest.mark.parametrize("how", ["attribute", "from-import", "star-import"])
    def test_every_public_name_resolves_to_its_modules_object(self, how):
        code = (
            "import importlib, sys, atomsqueeze\n"
            "how, specs = sys.argv[1], sys.argv[2:]\n"
            "names = [spec.partition('.')[2] for spec in specs]\n"
            "assert set(names) <= set(dir(atomsqueeze))\n"
            "namespace = {}\n"
            "if how == 'star-import':\n"
            "    exec('from atomsqueeze import *', namespace)\n"
            "for spec, name in zip(specs, names):\n"
            "    module = spec.partition('.')[0]\n"
            "    if how == 'attribute':\n"
            "        got = getattr(atomsqueeze, name)\n"
            "        assert getattr(atomsqueeze, module) is sys.modules['atomsqueeze.' + module]\n"
            "    elif how == 'from-import':\n"
            "        exec(f'from atomsqueeze import {name}', namespace)\n"
            "        got = namespace[name]\n"
            "    else:\n"
            "        got = namespace[name]\n"
            "    want = getattr(importlib.import_module('atomsqueeze.' + module), name)\n"
            "    assert got is want, spec\n"
            "print(len(specs))"
        )
        specs = [f"{module}.{name}" for module, names in EXPORTS.items()
                 for name in names]
        assert run_fresh_python(code, how, *specs).strip() == str(len(specs))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            atomsqueeze.no_such_name
        with pytest.raises(ImportError):
            from atomsqueeze import no_such_name  # noqa: F401

    def test_frequency_domain_modes_never_load_scipy(self, tmp_path):
        configs = {mode: SMALL[mode] for mode in ("spectrum", "threshold", "compare")}
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
            record = json.loads((tmp_path / mode / "run_record.json").read_text())
            assert record["versions"]["scipy"] == importlib.metadata.version("scipy")

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

"""Command-line driver: spectrum | threshold | compare | dynamics | pairs.

Data files are columnar CSV with a '#'-prefixed metadata header, or JSON;
the run record (config.RunRecord) writes them all, then a run_record.json
with the config hash and file checksums once the command has returned.
Exit codes: 0 success, 1 config error (a usage error on the command line
included), 2 solver error, 3 tolerance failure in compare mode.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import r_large_mu_limit, spectrum_large_mu
from .config import (BLOCKS, METHODS, MODES, RunConfig, RunRecord,
                     parse_config, parse_value, read_config)
from .dynamics import steady_state_beta_squared
from .errors import AtomsqueezeError, ConfigError, ParameterDomainError
from .pairs import bell_metrics, quadrant_decompose
from .spectrum import (
    FLUX_DEFINITION,
    compare_methods,
    find_threshold,
    flux_estimate,
    spectrum_grid,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_TOLERANCE = 3


def cmd_spectrum(config: RunConfig, record: RunRecord) -> int:
    g = config.grid
    d_grid = np.linspace(g["d_min"], g["d_max"], g["d_points"])
    k_grid = np.linspace(g["kappa_min"], g["kappa_max"], g["kappa_points"])
    methods = (
        ["analytic", "scattering"] if config.method == "both" else [config.method]
    )
    for method in methods:
        record.table(
            f"spectrum_{method}.csv",
            {"big_m": config.big_m, "method": method},
            ["%.12g", "%.12g", "%.12g", "%d"],
            spectrum_grid(d_grid, k_grid, config.big_m, method),
            ["delta_over_g0", "kappa", "r", "above_threshold"],
        )
    # flux diagnostic over the d-grid at the configured kappa (both signs of
    # detuning contribute; the grid is reflected evenly)
    if config.g0 is not None and config.kappa > 0:
        ds = np.unique(np.concatenate([-d_grid[::-1], d_grid]))
        spec = spectrum_large_mu(ds, config.kappa)
        if not spec.any_above_threshold():
            flux = flux_estimate(spec, config.g0)
            record.json("flux.json", {
                "flux_atoms_per_s": flux,
                "flux_atoms_per_ms": flux / 1e3,
                "definition": FLUX_DEFINITION,
                "kappa": config.kappa,
                "g0_rad_per_s": config.g0,
            })
    return EXIT_OK


def cmd_threshold(config: RunConfig, record: RunRecord) -> int:
    result = find_threshold(config.grid["kappa_min"], config.grid["kappa_max"],
                            d=config.delta_over_g0, big_m=config.big_m)
    record.json("threshold.json", {
        "found": result.found,
        "kappa": result.kappa,
        "nearest_reference": result.nearest_reference,
        "deviation": result.deviation,
        "diverges": result.diverges,
        "peak_argument": result.peak_argument,
        "search_interval": [result.lo, result.hi],
        "note": "none in range" if not result.found else "",
    })
    return EXIT_OK


def cmd_compare(config: RunConfig, record: RunRecord, tolerance: float) -> int:
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ConfigError(f"--tolerance must be finite and >= 0, got {tolerance!r}")
    g = config.grid
    d_grid = np.linspace(g["d_min"], g["d_max"], g["d_points"])
    k_lo, k_hi = max(g["kappa_min"], 0.05), min(g["kappa_max"], 1.3)
    if k_hi < k_lo:
        raise ConfigError(
            f"grid.kappa_min/grid.kappa_max: [{g['kappa_min']!r}, "
            f"{g['kappa_max']!r}] leaves nothing of the compared range [0.05, 1.3]"
        )
    k_grid = np.linspace(k_lo, k_hi, g["kappa_points"])
    big_ms = (10.0, 30.0, config.big_m, 3.0 * config.big_m)
    results = [compare_methods(d_grid, k_grid, m) for m in big_ms]
    table = [
        {"big_m": m, "max_abs": res.max_abs, "mean_abs": res.mean_abs,
         "n_points": res.n_points, "n_skipped": res.n_skipped}
        for m, res in zip(big_ms, results)
    ]
    passed = results[2].max_abs <= tolerance
    record.json("compare.json", {
        "tolerance": tolerance,
        "passed": passed,
        "at_big_m": config.big_m,
        "m_dependence": table,
    })
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_dynamics(config: RunConfig, record: RunRecord) -> int:
    from .dynamics import export_state_columns

    # the keys left after these three are steady_state_beta_squared options
    dyn = dict(config.dynamics)
    gamma_ratios, kappa, big_m = (dyn.pop(k) for k in ("gamma_ratios", "kappa", "big_m"))
    if not (big_m > 0 and math.isfinite(big_m)):
        raise ConfigError(f"dynamics.big_m must be finite and > 0, got {big_m!r}")
    try:
        target = math.sinh(r_large_mu_limit(0.0, kappa).r) ** 2
    except ParameterDomainError:  # kappa negative or not finite
        target = math.nan
    if not 0.0 < target < math.inf:
        raise ConfigError(
            f"dynamics.kappa must give a finite target sinh^2(r0) > 0, "
            f"got kappa = {kappa!r} (target {target!r})"
        )
    rows = []
    for gr in gamma_ratios:
        res = steady_state_beta_squared(big_m, kappa, gr, **dyn)
        rows.append(
            (gr, res["beta2"], target, abs(res["beta2"] - target) / target)
        )
        record.table(
            f"state_gamma_{gr}.csv",
            {"gamma_over_g0": gr, "t": res["final_state"].t},
            ["%.10e"] * 5,
            export_state_columns(res["final_state"], res["grid"]),
            ["x", "re_u", "im_u", "re_w", "im_w"],
        )
    record.table(
        "dynamics.csv",
        {"kappa": kappa, "big_m": big_m, "target_sinh2_r0": target},
        ["%.12g"] * 4,
        rows,
        ["gamma_over_g0", "beta0_squared", "sinh2_r0", "rel_discrepancy"],
    )
    return EXIT_OK


def cmd_pairs(config: RunConfig, record: RunRecord) -> int:
    from .dynamics import CouplingRamp, GridSpec
    from .pairs import pair_amplitude

    pc = config.pairs
    half_width = pc["half_width"]
    asym = pc["asymmetry"]
    if not math.isfinite(asym):
        raise ConfigError(f"pairs.asymmetry must be finite, got {asym!r}")
    if not pc["ramp_time"] > 0:
        raise ConfigError(f"pairs.ramp_time must be > 0, got {pc['ramp_time']!r}")
    grid = GridSpec(
        x_min=-half_width, x_max=half_width, n_points=pc["n_points"],
        dt=pc["dt"], boundary="dirichlet",
    )
    ramp = CouplingRamp(
        g0_peak=pc["g_peak"],
        gamma=1.0 / pc["ramp_time"],
        shape="pulse",
        t_on=pc["t_on"],
        t_off=pc["t_off"],
        x_lo=-pc["a"],
        x_hi=pc["a"],
    )
    vplus = None
    if asym != 0.0:
        xc, sig = pc["barrier_center"], pc["barrier_sigma"]
        if not sig > 0:
            raise ConfigError(f"pairs.barrier_sigma must be > 0 when "
                              f"pairs.asymmetry is nonzero, got {sig!r}")
        vplus = asym * np.exp(-((grid.x - xc) ** 2) / (2.0 * sig**2))
    fa = pair_amplitude(ramp, grid, pc["t0"], pc["mu"], potential_plus=vplus)
    quads = quadrant_decompose(fa)
    record.json("pairs_metrics.json", {
        "metrics": bell_metrics(quads),
        "weights": {
            "w_ll": quads.w_ll,
            "w_lr": quads.w_lr,
            "w_rl": quads.w_rl,
            "w_rr": quads.w_rr,
            "in_region": quads.in_region_weight,
            "total": quads.total,
        },
        "created_norm2": fa.created_norm2,
        "leakage": fa.leakage,
        "asymmetry": asym,
    })
    # dense |f|^2 export for plotting
    density = np.abs(fa.f) ** 2
    record.table(
        "pair_density.csv",
        {"grid": "rows: x of +1 atom, cols: y of -1 atom",
         "half_width": half_width},
        ["%.8e"] * density.shape[1],
        density,
    )
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "threshold": cmd_threshold,
    "compare": cmd_compare,
    "dynamics": cmd_dynamics,
    "pairs": cmd_pairs,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomsqueeze",
        description="Squeezing spectra, scattering coefficients, beam "
        "dynamics, and pair entanglement for condensate-coupled atomic "
        "beams.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--method", default=None, choices=METHODS)
        if name == "compare":
            p.add_argument("--tolerance", type=float, default=0.01,
                           help="pass/fail tolerance on max |dr|")
        for key in BLOCKS["grid"]:
            p.add_argument(f"--{key.replace('_', '-')}", default=None,
                           help=f"override grid.{key}")
    return parser


def _apply_overrides(raw: dict, args) -> dict:
    overrides = {key: parse_value("grid", key, getattr(args, key))
                 for key in BLOCKS["grid"] if getattr(args, key) is not None}
    grid = raw.get("grid", {})
    if overrides and isinstance(grid, dict):
        raw["grid"] = {**grid, **overrides}
    if args.method is not None:
        raw["method"] = args.method
    if args.command:
        raw["mode"] = args.command
    return raw


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: a usage error, or --help/--version
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        config = parse_config(_apply_overrides(read_config(args.config), args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out if args.out is not None else config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    record = RunRecord(config, out_dir)
    options = {"tolerance": args.tolerance} if args.command == "compare" else {}
    try:
        code = COMMANDS[args.command](config, record, **options)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomsqueezeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    record.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())

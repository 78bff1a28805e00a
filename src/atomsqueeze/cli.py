"""Command-line driver: spectrum | threshold | compare | dynamics | pairs.

Data files are columnar CSV with a '#'-prefixed metadata header; every run
also writes a run_record.json with the config hash and file checksums.
Exit codes: 0 success, 1 config error, 2 solver error, 3 tolerance failure
in compare mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import r_large_mu_limit, spectrum_large_mu
from .config import (BLOCKS, METHODS, MODES, RecordBuilder, RunConfig,
                     parse_config, parse_value, read_config)
from .dynamics import steady_state_beta_squared
from .errors import AtomsqueezeError, ConfigError, ParameterDomainError
from .pairs import bell_metrics, post_select, quadrant_decompose
from .spectrum import (
    FLUX_DEFINITION,
    compare_methods,
    find_threshold,
    flux_estimate,
    linspace_grid,
    spectrum_grid,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_TOLERANCE = 3


def _header_lines(config: RunConfig, extra: dict) -> list:
    lines = [
        f"# atomsqueeze {__version__}",
        f"# config_hash = {config.config_hash()}",
        f"# mode = {config.mode}",
    ]
    for key, value in extra.items():
        lines.append(f"# {key} = {value}")
    return lines


def _write_csv(path, header_lines, columns, rows):
    """Write a '#'-header CSV. One str.format template, built from the
    types of the first row, formats every row: bools as 0/1, floats at 12
    significant digits, anything else as str()."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        if rows:
            template = ",".join(
                "{:d}" if isinstance(v, bool)
                else "{:.12g}" if isinstance(v, float) else "{}"
                for v in rows[0]
            ) + "\n"
            fh.writelines(template.format(*row) for row in rows)


def cmd_spectrum(config: RunConfig, out_dir: Path) -> int:
    rec = RecordBuilder(config)
    g = config.grid
    d_grid = linspace_grid((g["d_min"], g["d_max"], g["d_points"]))
    k_grid = linspace_grid((g["kappa_min"], g["kappa_max"], g["kappa_points"]))
    methods = (
        ["analytic", "scattering"] if config.method == "both" else [config.method]
    )
    for method in methods:
        rows = spectrum_grid(d_grid, k_grid, config.big_m, method)
        path = out_dir / f"spectrum_{method}.csv"
        _write_csv(
            path,
            _header_lines(config, {"big_m": config.big_m, "method": method}),
            ["delta_over_g0", "kappa", "r", "above_threshold"],
            rows,
        )
        rec.add_file(path)
    # flux diagnostic over the d-grid at the configured kappa (both signs of
    # detuning contribute; the grid is reflected evenly)
    if config.g0 is not None and config.kappa > 0:
        ds = np.unique(np.concatenate([-d_grid[::-1], d_grid]))
        spec = spectrum_large_mu(ds, config.kappa)
        if not spec.any_above_threshold():
            flux = flux_estimate(spec, config.g0)
            path = out_dir / "flux.json"
            path.write_text(
                json.dumps(
                    {
                        "flux_atoms_per_s": flux,
                        "flux_atoms_per_ms": flux / 1e3,
                        "definition": FLUX_DEFINITION,
                        "kappa": config.kappa,
                        "g0_rad_per_s": config.g0,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            rec.add_file(path)
    rec.finish(out_dir)
    return EXIT_OK


def cmd_threshold(config: RunConfig, out_dir: Path) -> int:
    rec = RecordBuilder(config)
    big_m = None if math.isinf(config.big_m) else config.big_m
    result = find_threshold(config.grid["kappa_min"], config.grid["kappa_max"],
                            d=config.delta_over_g0, big_m=big_m)
    payload = {
        "found": result.found,
        "kappa": result.kappa,
        "nearest_reference": result.nearest_reference,
        "deviation": result.deviation,
        "diverges": result.diverges,
        "peak_argument": result.peak_argument,
        "search_interval": [result.lo, result.hi],
        "note": "none in range" if not result.found else "",
    }
    path = out_dir / "threshold.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    rec.add_file(path)
    rec.finish(out_dir)
    return EXIT_OK


def cmd_compare(config: RunConfig, out_dir: Path, tolerance: float = 0.01) -> int:
    rec = RecordBuilder(config)
    g = config.grid
    d_grid = linspace_grid((g["d_min"], g["d_max"], g["d_points"]))
    k_lo, k_hi = max(g["kappa_min"], 0.05), min(g["kappa_max"], 1.3)
    if k_hi < k_lo:
        raise ConfigError(
            f"grid.kappa_min/grid.kappa_max: [{g['kappa_min']!r}, "
            f"{g['kappa_max']!r}] leaves nothing of the compared range [0.05, 1.3]"
        )
    k_grid = linspace_grid((k_lo, k_hi, g["kappa_points"]))
    big_ms = (10.0, 30.0, config.big_m, 3.0 * config.big_m)
    results = [compare_methods(d_grid, k_grid, m, tolerance) for m in big_ms]
    table = [
        {"big_m": m, "max_abs": res.max_abs, "mean_abs": res.mean_abs,
         "n_points": res.n_points, "n_skipped": res.n_skipped}
        for m, res in zip(big_ms, results)
    ]
    passed = results[2].passed
    payload = {
        "tolerance": tolerance,
        "passed": passed,
        "at_big_m": config.big_m,
        "m_dependence": table,
    }
    path = out_dir / "compare.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    rec.add_file(path)
    rec.finish(out_dir)
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_dynamics(config: RunConfig, out_dir: Path) -> int:
    from .dynamics import export_state_columns

    rec = RecordBuilder(config)
    # the keys left after these three are steady_state_beta_squared options
    dyn = dict(config.dynamics)
    gamma_ratios, kappa, big_m = (dyn.pop(k) for k in ("gamma_ratios", "kappa", "big_m"))
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
        snap_path = out_dir / f"state_gamma_{gr}.csv"
        cols = export_state_columns(res["final_state"], res["grid"])
        with open(snap_path, "w") as fh:
            for line in _header_lines(config, {"gamma_over_g0": gr,
                                               "t": res["final_state"].t}):
                fh.write(line + "\n")
            fh.write("x,re_u,im_u,re_w,im_w\n")
            np.savetxt(fh, cols, fmt="%.10e", delimiter=",")
        rec.add_file(snap_path)
    path = out_dir / "dynamics.csv"
    _write_csv(
        path,
        _header_lines(config, {"kappa": kappa, "big_m": big_m,
                               "target_sinh2_r0": target}),
        ["gamma_over_g0", "beta0_squared", "sinh2_r0", "rel_discrepancy"],
        rows,
    )
    rec.add_file(path)
    rec.finish(out_dir)
    return EXIT_OK


def cmd_pairs(config: RunConfig, out_dir: Path) -> int:
    from .dynamics import CouplingRamp, GridSpec
    from .pairs import pair_amplitude

    rec = RecordBuilder(config)
    pc = config.pairs
    half_width = pc["half_width"]
    asym = pc["asymmetry"]
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
        vplus = asym * np.exp(-((grid.x - xc) ** 2) / (2.0 * sig**2))
    fa = pair_amplitude(ramp, grid, pc["t0"], pc["mu"], potential_plus=vplus)
    quads = quadrant_decompose(fa)
    state = post_select(quads)
    metrics = bell_metrics(state)
    payload = {
        "metrics": metrics,
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
    }
    path = out_dir / "pairs_metrics.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    rec.add_file(path)
    # dense |f|^2 export for plotting
    dens_path = out_dir / "pair_density.csv"
    dens = np.abs(fa.f) ** 2
    with open(dens_path, "w") as fh:
        for line in _header_lines(config, {"grid": "rows: x of +1 atom, "
                                           "cols: y of -1 atom",
                                           "half_width": half_width}):
            fh.write(line + "\n")
        np.savetxt(fh, dens, fmt="%.8e", delimiter=",")
    rec.add_file(dens_path)
    rec.finish(out_dir)
    return EXIT_OK


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
        p.add_argument("--tolerance", type=float, default=0.01,
                       help="compare-mode pass/fail tolerance on max |dr|")
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
    args = build_parser().parse_args(argv)
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

    try:
        if args.command == "spectrum":
            return cmd_spectrum(config, out_dir)
        if args.command == "threshold":
            return cmd_threshold(config, out_dir)
        if args.command == "compare":
            return cmd_compare(config, out_dir, tolerance=args.tolerance)
        if args.command == "dynamics":
            return cmd_dynamics(config, out_dir)
        if args.command == "pairs":
            return cmd_pairs(config, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomsqueezeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"error: unknown command {args.command!r}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

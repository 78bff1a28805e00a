"""Run configuration and run records for the command-line pipeline.

Configs are JSON objects with a documented key set (see KEYS below and the
README). Exactly one of the "dimensionless" / "physical" parameter blocks
must be present; a physical block is reduced through the unit-conversion
boundary before any solver runs. Run records capture the config hash, tool
version, timestamps, and a checksummed manifest of every produced file;
re-running an identical config reproduces identical data checksums (the
pipeline is deterministic; wall-clock only ever appears in the record).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import ConfigError
from .params import PhysicalParams, to_dimensionless

MODES = ("spectrum", "threshold", "compare", "dynamics", "pairs")
METHODS = ("analytic", "scattering", "both")

#: Documented configuration keys, by block.
KEYS = {
    "top": ("mode", "method", "out_dir", "dimensionless", "physical", "grid",
            "dynamics", "pairs"),
    "dimensionless": ("big_m", "kappa", "delta_over_g0"),
    "physical": ("g0", "mu", "a", "m", "gamma", "n0", "delta"),
    "grid": ("d_min", "d_max", "d_points", "kappa_min", "kappa_max",
             "kappa_points"),
    "dynamics": ("gamma_ratios", "kappa", "big_m", "length", "n_points", "dt",
                 "measure_c"),
    "pairs": ("mu", "a", "g_peak", "t0", "half_width", "n_points", "dt",
              "t_on", "t_off", "ramp_time", "asymmetry", "barrier_center",
              "barrier_sigma"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    ``big_m``, ``kappa`` and ``delta_over_g0`` are always populated after
    validation (converted from the physical block when that form is
    given). Grid fields override the spectrum defaults.
    """

    mode: str
    method: str = "analytic"
    out_dir: str = "runs"
    big_m: float = 100.0
    kappa: float = 1.2
    delta_over_g0: float = 0.0
    g0: Optional[float] = None  # physical coupling, rad/s, when given
    d_min: float = 0.0
    d_max: float = 3.0
    d_points: int = 41
    kappa_min: float = 0.0
    kappa_max: float = 1.45
    kappa_points: int = 30
    dynamics: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _check_keys(block: dict, allowed, where: str):
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {where}; allowed: {sorted(allowed)}"
            )


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping into a RunConfig.

    Raises ConfigError with the offending field named for: unknown keys,
    missing mode, both or neither parameter block, and malformed values.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, KEYS["top"], "config")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    method = raw.get("method", "analytic")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

    dim = raw.get("dimensionless")
    phys = raw.get("physical")
    if (dim is None) == (phys is None):
        raise ConfigError(
            "exactly one of 'dimensionless' or 'physical' parameter blocks "
            "must be present"
        )
    g0 = None
    if dim is not None:
        _check_keys(dim, KEYS["dimensionless"], "dimensionless block")
        try:
            big_m = float(dim["big_m"])
            kappa = float(dim["kappa"])
        except KeyError as exc:
            raise ConfigError(f"dimensionless block missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dimensionless block malformed: {exc}") from exc
        delta = float(dim.get("delta_over_g0", 0.0))
    else:
        _check_keys(phys, KEYS["physical"], "physical block")
        try:
            p = PhysicalParams(
                g0=float(phys["g0"]),
                mu=float(phys["mu"]),
                a=float(phys["a"]),
                m=float(phys["m"]),
                gamma=float(phys.get("gamma", 0.0)),
                n0=float(phys.get("n0", 1e6)),
            )
        except KeyError as exc:
            raise ConfigError(f"physical block missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"physical block malformed: {exc}") from exc
        dp = to_dimensionless(p, float(phys.get("delta", 0.0)))
        big_m, kappa, delta = dp.big_m, dp.kappa, dp.d
        g0 = p.g0

    grid = raw.get("grid", {})
    _check_keys(grid, KEYS["grid"], "grid block")
    dyn = raw.get("dynamics", {})
    _check_keys(dyn, KEYS["dynamics"], "dynamics block")
    pairs = raw.get("pairs", {})
    _check_keys(pairs, KEYS["pairs"], "pairs block")

    try:
        cfg = RunConfig(
            mode=mode,
            method=method,
            out_dir=str(raw.get("out_dir", "runs")),
            big_m=big_m,
            kappa=kappa,
            delta_over_g0=delta,
            g0=g0,
            d_min=float(grid.get("d_min", 0.0)),
            d_max=float(grid.get("d_max", 3.0)),
            d_points=int(grid.get("d_points", 41)),
            kappa_min=float(grid.get("kappa_min", 0.0)),
            kappa_max=float(grid.get("kappa_max", 1.45)),
            kappa_points=int(grid.get("kappa_points", 30)),
            dynamics=dict(dyn),
            pairs=dict(pairs),
            raw=raw,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed grid value: {exc}") from exc
    if cfg.d_points < 1 or cfg.kappa_points < 1:
        raise ConfigError("grid point counts must be >= 1")
    if cfg.d_max < cfg.d_min or cfg.kappa_max < cfg.kappa_min:
        raise ConfigError("grid ranges must be nondecreasing")
    return cfg


def read_config(path) -> dict:
    """The raw JSON mapping of a config file; ConfigError if unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}, line {exc.lineno}): "
                          f"{exc.msg}") from exc


def load_config(path) -> RunConfig:
    return parse_config(read_config(path))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunRecord:
    """Provenance of one pipeline run; serialized next to the outputs."""

    config_hash: str
    tool_version: str
    started_at: float
    finished_at: float
    manifest: dict  # file name -> sha256
    validity: Optional[dict] = None

    def write(self, path):
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True))


class RecordBuilder:
    def __init__(self, config: RunConfig):
        self.config = config
        self.started = time.time()
        self.files = {}
        self.validity = None

    def add_file(self, path):
        self.files[Path(path).name] = sha256_file(path)

    def finish(self, out_dir) -> RunRecord:
        rec = RunRecord(
            config_hash=self.config.config_hash(),
            tool_version=__version__,
            started_at=self.started,
            finished_at=time.time(),
            manifest=dict(sorted(self.files.items())),
            validity=self.validity,
        )
        rec.write(Path(out_dir) / "run_record.json")
        return rec

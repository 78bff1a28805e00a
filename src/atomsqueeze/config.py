"""Run configuration and run records for the command-line pipeline.

Configs are JSON objects with a documented key set (see BLOCKS below and the
README). Exactly one of the "dimensionless" / "physical" parameter blocks
must be present; a physical block is reduced through the unit-conversion
boundary before any solver runs. The run record writes every data file of
a run, in one number format, and captures the config hash, tool version,
timestamps, and a checksummed manifest of the files; re-running an
identical config reproduces identical data checksums (the pipeline is
deterministic; wall-clock only ever appears in the record).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import time
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, ParameterDomainError
from .params import PhysicalParams, check_dimensionless, to_dimensionless

MODES = ("spectrum", "threshold", "compare", "dynamics", "pairs")
METHODS = ("analytic", "scattering", "both")
#: Top-level keys that the time-domain modes never read: a ``dynamics`` or
#: ``pairs`` config that sets one is a ConfigError, not a key ignored.
SPECTRAL_KEYS = ("method", "grid")

#: Every config block with its keys: the authoritative key list. A key maps
#: to its default, whose type is the key's type; a bare type marks a
#: required key, and ``type | None`` a key whose default lives with its
#: consumer (``PhysicalParams``, ``steady_state_beta_squared``, or the
#: run's parameters for the dynamics ``kappa`` and ``big_m``). A tuple
#: default is a non-empty list of numbers.
BLOCKS = {
    "dimensionless": {"big_m": float, "kappa": float, "delta_over_g0": 0.0},
    "physical": {"g0": float, "mu": float, "a": float, "m": float,
                 "gamma": float | None, "n0": float | None, "delta": 0.0},
    "grid": {"d_min": 0.0, "d_max": 3.0, "d_points": 41, "kappa_min": 0.0,
             "kappa_max": 1.45, "kappa_points": 30},
    "dynamics": {"gamma_ratios": (0.1,), "kappa": float | None,
                 "big_m": float | None, "length": float | None,
                 "n_points": int | None, "dt": float | None,
                 "measure_c": float | None},
    "pairs": {"mu": 4.0, "a": 1.5, "g_peak": 0.05, "t0": 6.0,
              "half_width": 24.0, "n_points": 256, "dt": 0.02, "t_on": 0.8,
              "t_off": 2.2, "ramp_time": 0.35, "asymmetry": 0.0,
              "barrier_center": 3.0, "barrier_sigma": 0.8},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the run's parameters (converted from
    the physical block when that form is given; ``g0`` is None otherwise),
    and the grid, dynamics and pairs blocks as typed mappings of every key
    that has a value. ``raw`` is the config as given, which the hash covers.
    """

    mode: str
    method: str
    out_dir: str
    big_m: float
    kappa: float
    delta_over_g0: float
    g0: Optional[float]
    grid: dict
    dynamics: dict
    pairs: dict
    raw: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def parse_value(block: str, key: str, value):
    """``value`` as the type of ``block.key`` in BLOCKS (numbers may come
    as text, as on the command line); ConfigError naming ``block.key`` for
    a bool, a non-number, a non-integral count or an empty or scalar list.
    """
    spec = BLOCKS[block][key]
    kind = typing.get_args(spec)[0] if isinstance(spec, types.UnionType) else spec
    kind = kind if isinstance(kind, type) else type(kind)
    where = f"{block}.{key}"
    if kind is not tuple:
        return _number(where, value, kind)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers, got {value!r}")
    return tuple(_number(f"{where}[{i}]", v, float) for i, v in enumerate(value))


def _number(where: str, value, kind):
    try:
        number = float(value) if isinstance(value, str) else value
        if isinstance(number, numbers.Real) and not isinstance(number, bool):
            if kind is float or isinstance(number, int) or number.is_integer():
                return kind(number)
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _read_block(name: str, block) -> dict:
    """The keys of ``block`` with a value, coerced, defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    table = BLOCKS[name]
    _check_keys(block, table, f"{name} block")
    out = {}
    for key, spec in table.items():
        if key in block:
            out[key] = parse_value(name, key, block[key])
        elif isinstance(spec, type):
            raise ConfigError(f"{name}.{key} is required")
        elif not isinstance(spec, types.UnionType):
            out[key] = spec
    return out


def _check_keys(block: dict, allowed, where: str):
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {where}; allowed: {sorted(allowed)}"
            )


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping into a RunConfig.

    Raises ConfigError with the offending field named for: unknown keys,
    ``method`` or ``grid`` in a ``dynamics`` or ``pairs`` config, missing
    mode, both or neither parameter block, and malformed values.
    ``raw`` itself is never modified.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, ("mode", "method", "out_dir", *BLOCKS), "config")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if mode in ("dynamics", "pairs"):
        for key in SPECTRAL_KEYS:
            if key in raw:
                raise ConfigError(f"{key!r} is not read in mode {mode!r}; remove it")
    method = raw.get("method", "analytic")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

    dim, phys = raw.get("dimensionless"), raw.get("physical")
    if (dim is None) == (phys is None):
        raise ConfigError(
            "exactly one of 'dimensionless' or 'physical' parameter blocks "
            "must be present"
        )
    g0 = None
    if dim is not None:
        dim = _read_block("dimensionless", dim)
        big_m, kappa, delta = dim["big_m"], dim["kappa"], dim["delta_over_g0"]
        try:
            check_dimensionless(delta, big_m, kappa)
        except ParameterDomainError as exc:
            key = "delta_over_g0" if exc.name == "d" else exc.name
            raise ConfigError(f"dimensionless.{key}: {exc}") from exc
        # the mu >> g0 limit has no scattering solve and no dynamics run
        if math.isinf(big_m) and not (
                mode == "threshold" or (mode == "spectrum" and method == "analytic")):
            raise ConfigError(
                "dimensionless.big_m: inf (the mu >> g0 limit) is only for "
                "threshold and spectrum with method analytic")
    else:
        phys = _read_block("physical", phys)
        delta = phys.pop("delta")
        try:
            dp = to_dimensionless(PhysicalParams(**phys), delta)
        except ParameterDomainError as exc:
            raise ConfigError(f"physical block: {exc}") from exc
        big_m, kappa, delta = dp.big_m, dp.kappa, dp.d
        g0 = phys["g0"]

    out_dir = raw.get("out_dir", "runs")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    grid = _read_block("grid", raw.get("grid", {}))
    if grid["d_points"] < 1 or grid["kappa_points"] < 1:
        raise ConfigError("grid point counts must be >= 1")
    if grid["d_max"] < grid["d_min"] or grid["kappa_max"] < grid["kappa_min"]:
        raise ConfigError("grid ranges must be nondecreasing")
    return RunConfig(
        mode=mode,
        method=method,
        out_dir=out_dir,
        big_m=big_m,
        kappa=kappa,
        delta_over_g0=delta,
        g0=g0,
        grid=grid,
        dynamics={"kappa": kappa, "big_m": big_m,
                  **_read_block("dynamics", raw.get("dynamics", {}))},
        pairs=_read_block("pairs", raw.get("pairs", {})),
        raw=raw,
    )


def read_config(path) -> dict:
    """The raw JSON mapping of a config file; ConfigError if unreadable."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}, line {exc.lineno}): "
                          f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path) -> RunConfig:
    return parse_config(read_config(path))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def significant(value):
    """``value`` with every float in it (inside dicts, lists and tuples
    too) rounded to 12 significant digits, the precision of the CSV
    columns: the one number format of header values and JSON data files."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: significant(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [significant(v) for v in value]
    return value


class RunRecord:
    """Provenance of one pipeline run, and the writer of its files.

    Each writer puts one file into ``out_dir`` and records its sha256 in
    ``manifest``; the text files start with a '#'-prefixed metadata
    header (tool version, config hash, mode, then ``meta``). ``finish``
    writes run_record.json next to them, so identical configs reproduce
    identical data checksums while wall-clock lives only in the record.
    """

    def __init__(self, config: RunConfig, out_dir):
        self.config = config
        self.out_dir = Path(out_dir)
        self.started_at = time.time()
        self.manifest = {}  # file name -> sha256

    @contextlib.contextmanager
    def _open(self, name: str, meta: Optional[dict]):
        path = self.out_dir / name
        with open(path, "w") as fh:
            if meta is not None:
                meta = {"config_hash": self.config.config_hash(),
                        "mode": self.config.mode, **meta}
                fh.write(f"# atomsqueeze {__version__}\n")
                fh.writelines(f"# {key} = {significant(value)}\n"
                              for key, value in meta.items())
            yield fh
        self.manifest[name] = sha256_file(path)

    def table(self, name: str, meta: dict, formats, rows, columns=None):
        """A table of numbers, under the column line if ``columns`` are
        given. The per-column ``%`` formats (``"%.12g"`` for data, ``"%d"``
        for 0/1 flags) joined by commas are one template, applied to each
        row as the rows stream in; ``rows`` is a 2-D array or a list of
        equal-length tuples of numbers."""
        template = ",".join(formats) + "\n"
        with self._open(name, meta) as fh:
            if columns is not None:
                fh.write(",".join(columns) + "\n")
            fh.writelines(template % tuple(row.tolist())
                          for row in np.asarray(rows, dtype=float))

    def json(self, name: str, payload: dict):
        """A JSON object, keys sorted, floats at 12 significant digits."""
        with self._open(name, None) as fh:
            fh.write(json.dumps(significant(payload), indent=2, sort_keys=True))

    def finish(self):
        """Write run_record.json (no validity report is made yet)."""
        record = {
            "config_hash": self.config.config_hash(),
            "tool_version": __version__,
            "started_at": self.started_at,
            "finished_at": time.time(),
            "manifest": dict(sorted(self.manifest.items())),
            "validity": None,
        }
        (self.out_dir / "run_record.json").write_text(
            json.dumps(record, indent=2, sort_keys=True))

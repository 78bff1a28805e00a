"""Run configuration and run records for the command-line pipeline.

Configs are JSON objects: MODES says what each mode reads, BLOCKS lists
every block's keys with their defaults and domains (see the README), and
the command-line parser and parse_config follow from both. A physical
block is reduced through the unit-conversion boundary before any solver
runs. The run record writes every data file of a run, in one number
format, with the config hash, tool version, timestamps, validity report,
library versions, write time and a checksummed manifest; re-running an
identical config reproduces identical data checksums (wall-clock only
ever appears in the record).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import numbers
import platform
import re
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, _blas
from .errors import ConfigError, ParameterDomainError
from .params import (MIN_GRID_POINTS, PhysicalParams, check_dimensionless,
                     threshold_distance, to_dimensionless,
                     validity as validity_report)

METHODS = ("analytic", "scattering", "both")
PARAMETER_BLOCKS = ("dimensionless", "physical")


#: Every config block with its keys: the authoritative key list. A key maps
#: to its default, whose type is the key's type; a bare type marks a
#: required key, ``type | None`` a key whose default lives with its consumer,
#: and a tuple default a non-empty list of numbers. A (default, domain) pair
#: adds a domain: "finite", or finite and "> x" or ">= x", x a number or an
#: earlier key. The library checks (and names) the parameter blocks; the
#: times are only held finite here, and the solvers check how they relate
#: (the pulse ends before ``t0``, ``t0`` is whole steps). The dynamics
#: ``kappa`` and ``big_m`` only repeat the parameters.
BLOCKS = {
    "dimensionless": {"big_m": float, "kappa": float, "delta_over_g0": 0.0},
    "physical": {"g0": float, "mu": float, "a": float, "m": float,
                 "gamma": float | None, "n0": float | None, "delta": 0.0},
    "grid": {"d_min": (0.0, "finite"), "d_max": (3.0, ">= d_min"),
             "d_points": (41, ">= 1"), "kappa_min": (0.0, "finite"),
             "kappa_max": (1.45, ">= kappa_min"), "kappa_points": (30, ">= 1")},
    "dynamics": {"gamma_ratios": ((0.1,), "> 0"), "kappa": float | None,
                 "big_m": float | None, "length": (float | None, "> 0"),
                 "n_points": (int | None, f">= {MIN_GRID_POINTS}"),
                 "dt": (float | None, "> 0"),
                 "measure_c": (float | None, "finite")},
    "pairs": {"mu": (4.0, "> 0"), "a": (1.5, "> 0"), "g_peak": (0.05, ">= 0"),
              "t0": (6.0, "finite"), "half_width": (24.0, "> a"),
              "n_points": (256, f">= {MIN_GRID_POINTS}"), "dt": (0.02, "> 0"),
              "t_on": (0.8, "finite"), "t_off": (2.2, "finite"),
              "ramp_time": (0.35, "> 0"),
              "asymmetry": (0.0, "finite"), "barrier_center": (3.0, "finite"),
              "barrier_sigma": (0.8, "> 0")},
}

#: What each mode reads: "parameters" (one parameter block; other modes may
#: give one, which is checked), "method", its blocks and options. Reading
#: the method adds ``--method``, the grid a flag per key (``--d-points``).
MODES = {
    "spectrum": ("parameters", "method", "grid"),
    "threshold": ("parameters", "grid"),
    "compare": ("parameters", "grid", "--tolerance"),
    "dynamics": ("parameters", "dynamics"),
    "pairs": ("pairs",),
}
#: The options, flags that set no config key: (default, domain, help).
OPTIONS = {"--tolerance": (0.01, ">= 0", "pass/fail tolerance on max |dr|")}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the run's parameters (converted from
    the physical block when that form is given; ``g0`` is None otherwise)
    and their validity report, all None without a parameter block; the
    method and the grid, dynamics and pairs blocks as typed mappings of
    every key with a value, None or empty where the mode does not read
    them. ``raw`` is the config as given, which the hash covers."""

    mode: str
    method: Optional[str]
    out_dir: str
    big_m: Optional[float]
    kappa: Optional[float]
    delta_over_g0: Optional[float]
    g0: Optional[float]
    validity: Optional[dict]
    grid: dict
    dynamics: dict
    pairs: dict
    raw: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _spec(block: str, key: str) -> tuple:
    """(default or bare type, domain or None) of ``block.key``."""
    spec = BLOCKS[block][key]
    has_domain = isinstance(spec, tuple) and isinstance(spec[-1], str)
    return spec if has_domain else (spec, None)


def parse_value(block: str, key: str, value):
    """``value`` as the type of ``block.key`` in BLOCKS (numbers may come
    as text, as on the command line); ConfigError naming ``block.key`` for
    a bool, a non-number, a non-integral count or an empty or scalar list.
    """
    spec = _spec(block, key)[0]
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
            # float() raises OverflowError for an int too large for a float
            if kind is float or float(number).is_integer():
                return kind(number)
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _in_domain(where: str, value, domain: str, block: dict):
    """``value`` if it (every entry of a list) is in ``domain``, bound keys
    read from ``block``; ConfigError naming ``where`` otherwise."""
    op, _, bound = domain.partition(" ")
    limit = block[bound] if bound in block else float(bound or 0)
    for v in value if isinstance(value, tuple) else (value,):
        if not (abs(v) < math.inf and (op == "finite" or v > limit
                                       or (op == ">=" and v == limit))):
            what = "" if op == "finite" else f" and {domain}"
            raise ConfigError(f"{where} must be finite{what}, got {v!r}")
    return value


def _read_block(name: str, block) -> dict:
    """The keys of ``block`` with a value, coerced and in their domains,
    defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    _check_keys(block, BLOCKS[name], f"{name} block")
    out = {}
    for key in BLOCKS[name]:
        spec, domain = _spec(name, key)
        if key in block:
            out[key] = parse_value(name, key, block[key])
        elif isinstance(spec, type):
            raise ConfigError(f"{name}.{key} is required")
        elif not isinstance(spec, types.UnionType):
            out[key] = spec
        if domain and key in out:
            _in_domain(f"{name}.{key}", out[key], domain, out)
    return out


def _check_keys(block: dict, allowed, where: str):
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"{key!r} is not read in {where}; allowed: {sorted(allowed)}")


def parse_options(mode: str, given: dict) -> dict:
    """The options of ``mode`` from ``given``, ConfigError if out of domain."""
    return {flag[2:]: _in_domain(flag, given[flag[2:]], OPTIONS[flag][1], {})
            for flag in MODES[mode] if flag in OPTIONS}


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping into a RunConfig.

    Raises ConfigError with the offending field named for: a key or block
    the mode does not read, missing mode, a missing or second parameter
    block, malformed or out-of-domain values, and a dynamics ``kappa`` or
    ``big_m`` other than the parameter block's. ``raw`` is never modified.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {tuple(MODES)}, got {mode!r}")
    reads = MODES[mode]
    _check_keys(raw, ["mode", "out_dir", *PARAMETER_BLOCKS,
                      *(key for key in reads if key in ("method", *BLOCKS))],
                f"mode {mode!r}")
    method = raw.get("method", "analytic") if "method" in reads else None
    if "method" in reads and method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

    given = [name for name in PARAMETER_BLOCKS if raw.get(name) is not None]
    if len(given) > 1 or ("parameters" in reads and not given):
        raise ConfigError(f"{'exactly' if 'parameters' in reads else 'at most'} one "
                          "parameter block ('dimensionless' or 'physical') must be given")
    big_m = kappa = delta = g0 = validity = None
    try:
        if given == ["physical"]:
            phys = _read_block("physical", raw["physical"])
            delta, physical = phys.pop("delta"), PhysicalParams(**phys)
            dp, g0 = to_dimensionless(physical, delta), physical.g0
            big_m, kappa, delta = dp.big_m, dp.kappa, dp.d
            validity = asdict(validity_report(physical))
        elif given:
            dim = _read_block("dimensionless", raw["dimensionless"])
            big_m, kappa, delta = dim["big_m"], dim["kappa"], dim["delta_over_g0"]
            check_dimensionless(delta, big_m, kappa)
            validity = {"threshold_distance": threshold_distance(kappa)}
    except ParameterDomainError as exc:
        key = "delta_over_g0" if exc.name == "d" else exc.name
        raise ConfigError(f"{given[0]}.{key}: {exc}") from exc
    # the mu >> g0 limit is for the closed form alone (method is None where
    # the mode does not read it)
    if big_m == math.inf and mode != "threshold" and method != "analytic":
        raise ConfigError("dimensionless.big_m: inf (the mu >> g0 limit) is only for "
                          "threshold and spectrum with method analytic")

    out_dir = raw.get("out_dir", "runs")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    blocks = {name: _read_block(name, raw.get(name, {})) if name in reads else {}
              for name in ("grid", "dynamics", "pairs")}
    for key, value in (("kappa", kappa), ("big_m", big_m)):
        if (repeated := blocks["dynamics"].pop(key, value)) != value:
            raise ConfigError(f"dynamics.{key} = {repeated!r} differs from the "
                              f"parameter block's {value!r}; give it there alone")
    return RunConfig(mode=mode, method=method, out_dir=out_dir, big_m=big_m,
                     kappa=kappa, delta_over_g0=delta, g0=g0,
                     validity=validity, raw=raw, **blocks)


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


#: Cells per chunk of a RunRecord table written with ``%``: each chunk is
#: one ``%`` of the repeated line template. Small, for the peak RSS, as
#: ``%`` builds a tuple of Python floats and a string per chunk: ``%``
#: chunks of 16384 cells raised the CLI pairs run's peak by 1.1-1.3 MiB and
#: of 2048 by about 0.13 MiB, and 1024-cell chunks raised the resident peak
#: of three in-process spectrum-sweep passes by 0.45-0.52 MiB over 256 (the
#: spectrum tables take the ``%`` path). A block that ``_exponent_cells``
#: declines is written in ``%`` chunks of this size too.
_CHUNK_CELLS = 256

#: Cells per block of a RunRecord table written with ``_exponent_cells``,
#: one call per block. Its arrays cost a few bytes a cell, not a Python
#: object, and each call costs some 20 numpy reductions whatever its size,
#: so blocks are larger than chunks: a 255 x 255 pair density is 8 calls,
#: not 255 (one a row at 256 cells). Numpy chunks of 256, 512 and 1024
#: cells, and ``%`` alone, gave one in-process pair-bell pass the same
#: 61.8-62.0 MiB peak (three runs each). Calibrated pair-bell wall_s, three
#: benchmark runs each: 0.066-0.071 s at one row a call; 0.047-0.051 s at
#: 2048, 4096 and 8192 cells; 0.048-0.050 s at 16384, with the peak RSS up
#: from 66.8-67.2 to 67.5-67.8 MiB; and 0.055-0.057 s for the whole table
#: in one block, with the peak at 73.6-73.7 MiB.
_BLOCK_CELLS = 8192

#: 10**0 ... 10**22, the powers of ten a double holds exactly.
_POW10 = np.array([float(10**k) for k in range(23)])
#: The three digit bytes of 0 ... 999, and the exponent bytes "e-99" ... "e+99".
_DIGITS3 = np.frombuffer(
    "".join(f"{i:03d}" for i in range(1000)).encode(), np.uint8).reshape(1000, 3)
_EXPONENT = np.frombuffer(
    "".join(f"e{i:+03d}" for i in range(-99, 100)).encode(), np.uint8).reshape(199, 4)


def _exponent_cells(chunk: np.ndarray, p: int) -> Optional[str]:
    """The lines of ``chunk`` (rows of floats) with every cell printed as
    ``"%.{p}e"`` (1 <= p <= 13), cells joined by commas, each row ended by a
    newline, built with numpy; None where the bytes of Python's ``%`` are
    not proven for every cell of the chunk.

    Each cell |x| = X is written as N·10^(e-p): e = floor(log10 X), the
    mantissa m = X·10^(p-e), and N = rint(m), p+1 digits. ``%`` prints X
    with its exact decimal exponent E and N* = X·10^(p-E) rounded
    half-even to an integer, N* = 10^(p+1) printed as 1.0…0e(E+1).

    Rounding bound: m is X times 10^k, k = p - e, |k| <= 22, formed by one
    correctly rounded multiplication or division by the exact power
    10^|k| (10^0 … 10^22 are doubles), so |m - M| <= u·M with u = 2^-53
    and M the exact X·10^(p-e). An accepted cell has M < 10^(p+1), hence
    |m - M| < δ = 2.3e-16·10^(p+1) <= 0.023 for p <= 13 (δ is more than
    twice u·10^(p+1)), where also m < 2^53, so rint(m) and m - rint(m)
    are exact.

    Ties: a cell is accepted only if |m - N| < 1/2. m is M correctly
    rounded, and N ± 1/2 are doubles for p <= 13, so m lands on M's side
    of a tie or on the tie, which the strict test declines. So M lies
    strictly inside (N - 1/2, N + 1/2) and rounds to N under any rounding
    rule: no tie is ever resolved here.

    Exponent: a cell is accepted only if m >= 10^p and N < 10^(p+1). If
    e = E, N* = M rounds to N: the same bytes. e < E would make
    M >= 10^(p+1), so N >= 10^(p+1): declined. e = E + 1 (log10 rounded up
    to a power of ten) leaves 10^p - δ < M < 10^p, so N = 10^p and
    N* = 10·M > 10^(p+1) - 10δ rounds to 10^(p+1) (10δ < 1/2), which ``%``
    prints as 1.0…0e(E+1), the bytes written here. Any other e > E gives
    m < 10^p: declined; only a log10 rounded up can reach that test.

    Declined, so the writer falls back to ``%``: zero and -0.0, non-finite
    and subnormal cells, |p - e| > 22 (every three-digit exponent among
    them), and cells failing the tie or the digit-count test. Negative
    cells are written with a leading sign byte.
    """
    x = chunk.ravel()
    a = np.abs(x)
    # NaN fails both comparisons
    if not (a.min() >= 2.2250738585072014e-308 and a.max() <= 1.7976931348623157e308):
        return None
    e = np.floor(np.log10(a)).astype(np.intp)
    if e.min() < p - 22 or e.max() > p + 22:
        return None
    # one rounding: the unused factor of the pair is 10^0 = 1
    k = p - e
    m = a * _POW10.take(np.maximum(k, 0)) / _POW10.take(np.maximum(-k, 0))
    n = np.rint(m)
    if not (m.min() >= 10.0**p and n.max() < 10.0**(p + 1)
            and np.abs(m - n).max() < 0.5):
        return None
    # N in groups of three digits, the leading group first (floor(N / 1000^j)
    # is exact for N < 2^53), their bytes from the lookup table
    groups = (p + 3) // 3
    q = np.floor(n / _POW10[3 * np.arange(groups - 1, -1, -1), None])
    q[1:] -= 1000.0 * q[:-1]
    digits = _DIGITS3.take(q.T.astype(np.intp), axis=0).reshape(x.size, 3 * groups)
    digits = digits[:, 3 * groups - p - 1:]
    # one cell: sign, first digit, ".", p digits, exponent, separator
    cells = np.empty((x.size, p + 8), np.uint8)
    cells[:, 0] = ord("-")
    cells[:, 1] = digits[:, 0]
    cells[:, 2] = ord(".")
    cells[:, 3:p + 3] = digits[:, 1:]
    cells[:, p + 3:p + 7] = _EXPONENT.take(e + 99, axis=0)
    cells[:, p + 7] = ord(",")
    cells.reshape(chunk.shape[0], -1)[:, -1] = ord("\n")
    negative = x < 0
    if negative.any():
        keep = np.ones(cells.shape, bool)
        keep[:, 0] = negative
        return cells[keep].tobytes().decode("ascii")
    return cells[:, 1:].tobytes().decode("ascii")


@functools.cache
def _versions() -> tuple:
    """(name, version) of python, numpy and scipy, and ("blas", its
    description): the kernel set of numpy's OpenBLAS and whether the
    one-thread pin of ``pairs.pair_amplitude`` is available, both from
    ``_blas``'s one handle. A run that has not loaded scipy (the
    frequency-domain modes) reads scipy's version from its installed
    metadata, so recording it does not import scipy; importlib.metadata
    loads here, on the first such record, as its import takes about 20 ms
    and 0.7 MiB."""
    scipy = sys.modules.get("scipy")
    if scipy is None:
        from importlib.metadata import version
        scipy_version = version("scipy")
    else:
        scipy_version = scipy.__version__
    return (("python", platform.python_version()), ("numpy", np.__version__),
            ("scipy", scipy_version), ("blas", _blas.describe()))


class RunRecord:
    """Provenance of one pipeline run, and the writer of its files.

    Each writer puts one file into ``out_dir`` and records in ``manifest``
    the sha256 of the bytes it wrote; the text files start with a
    '#'-prefixed metadata header (tool version, config hash, mode, then
    ``meta``). ``finish``
    writes run_record.json next to them, so identical configs reproduce
    identical data checksums while wall-clock (the run's timestamps and
    ``write_s``, the seconds spent in the writers) and the python, numpy,
    scipy and BLAS versions live only in the record.
    """

    def __init__(self, config: RunConfig, out_dir):
        self.config = config
        self.out_dir = Path(out_dir)
        self.started_at = time.time()
        self.manifest = {}  # file name -> sha256
        self.write_s = 0.0  # time spent in the data-file writers

    @contextlib.contextmanager
    def _open(self, name: str, meta: Optional[dict]):
        """A writer of text to ``out_dir / name``, after the header if
        ``meta`` is given; each text is encoded once, and its bytes are
        both hashed into the manifest and written."""
        start = time.perf_counter()
        digest = hashlib.sha256()
        with open(self.out_dir / name, "wb") as fh:

            def write(text: str):
                data = text.encode()
                digest.update(data)
                fh.write(data)

            if meta is not None:
                meta = {"config_hash": self.config.config_hash(),
                        "mode": self.config.mode, **meta}
                write(f"# atomsqueeze {__version__}\n" + "".join(
                    f"# {key} = {significant(value)}\n" for key, value in meta.items()))
            yield write
        self.manifest[name] = digest.hexdigest()
        self.write_s += time.perf_counter() - start

    def table(self, name: str, meta: dict, fmt: str, rows, columns=None):
        """A table of numbers, under the column line if ``columns`` are
        given. Every cell is printed with the one ``%`` format ``fmt``
        (``"%.12g"`` for the spectrum and dynamics tables, ``"%.8e"`` and
        ``"%.10e"`` for the density and snapshot dumps), cells joined by
        commas, one line per row; ``rows`` is a 2-D array or a list of
        equal-length tuples of numbers. The bytes are always those of
        ``",".join([fmt] * len(row)) % tuple(row)`` row by row. Where
        ``fmt`` is ``"%.{p}e"``, rows are written in blocks of about
        ``_BLOCK_CELLS`` cells, each built with numpy by one call of
        ``_exponent_cells``; a block it declines, like every block of
        another format, is written in chunks of about ``_CHUNK_CELLS``
        cells, each one ``%`` of the line template repeated."""
        data = np.asarray(rows, dtype=float)
        width = max(1, data.shape[-1])  # 1 for a table of no rows
        line = ",".join([fmt] * width) + "\n"
        step = max(1, _CHUNK_CELLS // width)
        exponent = re.fullmatch(r"%\.(\d+)e", fmt)
        p = int(exponent[1]) if exponent and 1 <= int(exponent[1]) <= 13 else None
        block = step if p is None else max(1, _BLOCK_CELLS // width)
        with self._open(name, meta) as write:
            if columns is not None:
                write(",".join(columns) + "\n")
            for lo in range(0, len(data), block):
                text = None if p is None else _exponent_cells(data[lo:lo + block], p)
                if text is not None:
                    write(text)
                    continue
                end = min(lo + block, len(data))
                for start in range(lo, end, step):
                    chunk = data[start:min(start + step, end)]
                    write(line * len(chunk) % tuple(chunk.ravel().tolist()))

    def json(self, name: str, payload: dict):
        """A JSON object, keys sorted, floats at 12 significant digits."""
        with self._open(name, None) as write:
            write(json.dumps(significant(payload), indent=2, sort_keys=True))

    def finish(self):
        """Write run_record.json."""
        record = {
            "config_hash": self.config.config_hash(),
            "tool_version": __version__,
            "started_at": self.started_at,
            "finished_at": time.time(),
            "manifest": dict(sorted(self.manifest.items())),
            "validity": self.config.validity,
            "versions": dict(_versions()),
            "write_s": self.write_s,
        }
        (self.out_dir / "run_record.json").write_text(
            json.dumps(record, indent=2, sort_keys=True))

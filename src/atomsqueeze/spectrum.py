"""Spectrum grids, threshold location, cross-solver comparison, and flux.

These are the computations behind the CLI subcommands; they are kept
importable so the analysis pipeline can be driven programmatically and so
the tests can exercise them without file I/O.
Grids are evaluated over the flattened, row-major (d, kappa) grid in
blocks of at most BLOCK_POINTS points, one array call per block, which
amortizes the fixed cost of a call; the bound exists because one call
for the whole grid raised the peak RSS of a 161 x 120 CLI spectrum from
67 to 79 MiB. Thresholds come from the closed form, whose phase is
linear in kappa. big_m = inf is the mu >> g0 limit, which only the
closed form takes: the scattering solve needs a finite M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import r_closed_form, wavenumber_phase
from .errors import AboveThresholdError, ParameterDomainError, SolverError
from .params import _first, _require, nearest_threshold
from .scattering import r_from_coefficients, solve_matching

#: Most (d, kappa) points per array call of a grid sweep. A few hundred
#: points amortize the fixed cost of a call and keep the peak RSS flat:
#: blocks of 2048 and 4096 points raised the peak of the benchmark's
#: full-size spectra and compares by about 2 and 5 MiB.
BLOCK_POINTS = 512


def _blocks(ds: np.ndarray, kappas: np.ndarray):
    """Yield ``(lo, hi, d, kappa)`` for the points ``lo:hi`` of the
    flattened, row-major (d, kappa) grid, at most BLOCK_POINTS at a time."""
    n = ds.size * kappas.size
    for lo in range(0, n, BLOCK_POINTS):
        hi = min(lo + BLOCK_POINTS, n)
        row, col = np.divmod(np.arange(lo, hi), kappas.size)
        yield lo, hi, ds[row], kappas[col]


def spectrum_grid(
    d_grid: Sequence[float],
    kappa_grid: Sequence[float],
    big_m: float,
    method: str = "analytic",
) -> np.ndarray:
    """Rectangular sweep as one row-ordered (N, 4) float table with the
    columns d, kappa, r and above_threshold (0 or 1).

    Each block of at most BLOCK_POINTS grid points is one array call: the
    closed form (``big_m = inf`` gives the mu >> g0 limit) or one
    scattering solve, which raises SolverError naming the first singular
    point in row-major order and emits at most one IllConditionedWarning
    per block.
    """
    if method not in ("analytic", "scattering"):
        raise ParameterDomainError(f"unknown method {method!r}")
    ds = np.asarray(d_grid, dtype=float)
    kappas = np.asarray(kappa_grid, dtype=float)
    table = np.empty((ds.size * kappas.size, 4))
    for lo, hi, d, kappa in _blocks(ds, kappas):
        if method == "analytic":
            value = r_closed_form(d, big_m, kappa)
        else:
            coeffs = solve_matching(d, big_m, kappa)
            singular = ~np.isfinite(coeffs.condition_number)
            if singular.any():
                raise SolverError(
                    f"singular matching system at d={_first(d, singular)}, "
                    f"kappa={_first(kappa, singular)}"
                )
            value = r_from_coefficients(coeffs)
        table[lo:hi, 0] = d
        table[lo:hi, 1] = kappa
        table[lo:hi, 2] = value.r
        table[lo:hi, 3] = value.above_threshold
    return table


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search over a kappa interval.

    ``found`` means the interval contains a peak of |arctanh argument|;
    ``diverges`` whether that peak actually saturates it (a true threshold;
    at d != 0 the peak stays below 1 and no divergence exists).
    """

    found: bool
    kappa: Optional[float]
    nearest_reference: Optional[float]  # closest pi/2 + n*pi
    deviation: Optional[float]
    diverges: bool
    peak_argument: Optional[float]  # signed: -1 at 3 pi/2 when d = 0
    lo: float
    hi: float


def find_threshold(
    lo: float,
    hi: float,
    d: float = 0.0,
    big_m: float = math.inf,
) -> ThresholdResult:
    """Locate a squeezing divergence in kappa from the closed form.

    The phase is linear in kappa, phi = c * kappa, with c the phase at
    kappa = 1 (:func:`wavenumber_phase`; exactly sqrt(1 + d^2) in the
    mu >> g0 limit big_m = inf). The modulus of the arctanh argument
    sin(phi)/sqrt(1 + d^2) therefore peaks exactly at
    kappa_n = (pi/2 + n*pi)/c. The result is the first kappa_n inside
    (lo, hi); an interval holding none reports found=False. The peak
    saturates the argument only at d = 0; then with big_m = inf the
    located kappa is the textbook threshold pi/2 + n*pi.

    A bracket without 0 <= lo < hi, or with hi = inf, is a
    ParameterDomainError (the latter naming ``hi``).
    """
    if not 0.0 <= lo < hi:
        raise ParameterDomainError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    # the phase checks d and big_m; lo < hi leaves hi = inf to name
    c = float(wavenumber_phase(d, big_m, 1.0))
    _require("hi", hi)
    # floor() can land one peak low or high at the rounding edge
    n = max(0, math.floor((lo * c - math.pi / 2.0) / math.pi))
    while (kappa_star := (math.pi / 2.0 + n * math.pi) / c) <= lo:
        n += 1
    if kappa_star >= hi:
        return ThresholdResult(
            found=False, kappa=None, nearest_reference=None, deviation=None,
            diverges=False, peak_argument=None, lo=lo, hi=hi,
        )
    peak = float(r_closed_form(d, big_m, kappa_star).arctanh_argument)
    nearest = nearest_threshold(kappa_star)
    return ThresholdResult(
        found=True,
        kappa=kappa_star,
        nearest_reference=nearest,
        deviation=abs(kappa_star - nearest),
        diverges=abs(peak) >= 1.0 - 1e-9,
        peak_argument=peak,
        lo=lo,
        hi=hi,
    )


@dataclass(frozen=True)
class CompareResult:
    """Discrepancy summary between two spectrum methods on a shared grid."""

    max_abs: float
    mean_abs: float
    n_points: int
    n_skipped: int  # above-threshold or solver-failed points


def compare_methods(
    d_grid: Sequence[float],
    kappa_grid: Sequence[float],
    big_m: float,
) -> CompareResult:
    """Max/mean |r scattering - r closed form| over a shared grid, in
    blocks of at most BLOCK_POINTS points in row-major order.

    Points above threshold by either method, or with a singular matching
    matrix, are skipped and counted. Each block emits at most one
    IllConditionedWarning.
    """
    kept = []
    skipped = 0
    for _, _, d, kappa in _blocks(np.asarray(d_grid, dtype=float),
                                  np.asarray(kappa_grid, dtype=float)):
        ana = r_closed_form(d, big_m, kappa)
        coeffs = solve_matching(d, big_m, kappa)
        sca = r_from_coefficients(coeffs)
        keep = (np.isfinite(coeffs.condition_number)
                & ~ana.above_threshold & ~sca.above_threshold)
        skipped += int(keep.size - np.count_nonzero(keep))
        kept.append(np.abs(sca.r[keep] - ana.r[keep]))
    diffs = np.concatenate(kept) if kept else np.empty(0)
    if not diffs.size:
        raise ParameterDomainError("comparison grid is empty or all above threshold")
    return CompareResult(
        max_abs=float(np.max(diffs)),
        mean_abs=float(np.mean(diffs)),
        n_points=int(diffs.size),
        n_skipped=skipped,
    )


#: The flux definition below is an adopted diagnostic, not a published
#: formula: flux = (g0 / 2 pi) * integral d(d) of [2 * sinh^2(r(d))] over
#: the computed spectrum, the factor 2 counting both outgoing channels.
FLUX_DEFINITION = (
    "flux = (g0/2pi) * integral dDelta sum_channels sinh^2(r_Delta), "
    "trapezoid over the computed spectrum; adopted definition (no closed "
    "form is published), order-of-magnitude diagnostic only"
)


def flux_estimate(detunings: Sequence[float], r: Sequence[float], g0: float) -> float:
    """Output atom flux (atoms/s) from a below-threshold spectrum: r at
    each of the strictly increasing detuning ratios ``detunings``.

    Raises ParameterDomainError if the detunings do not strictly increase
    and AboveThresholdError if any r is infinite (a point above threshold).
    See FLUX_DEFINITION for the adopted formula and its caveat.
    """
    ds = np.asarray(detunings, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(np.diff(ds) <= 0):
        raise ParameterDomainError("detuning grid must be strictly increasing")
    if np.any(np.isinf(r)):
        raise AboveThresholdError("spectrum contains above-threshold points")
    integrand = 2.0 * np.sinh(r) ** 2
    if len(ds) == 1:
        # single-bin convention: one channel-pair bin of width g0 (in d units: 1)
        return float(g0 * integrand[0] / (2.0 * math.pi))
    return float(g0 * np.trapezoid(integrand, ds) / (2.0 * math.pi))

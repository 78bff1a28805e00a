"""Spectrum grids, threshold location, cross-solver comparison, and flux.

These are the computations behind the CLI subcommands; they are kept
importable so the analysis pipeline can be driven programmatically and so
the tests can exercise them without file I/O.
Grids are evaluated in one array call per d-row (a row, not the whole
grid, bounds the memory of the stacked 4x4 solves); thresholds come from
the closed form, whose phase is linear in kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analytic import SqueezingSpectrum, r_closed_form, wavenumber_phase
from .errors import AboveThresholdError, ParameterDomainError, SolverError
from .params import DimensionlessParams, check_dimensionless, nearest_threshold
from .scattering import r_from_coefficients, solve_matching


def linspace_grid(spec: Tuple[float, float, int]) -> np.ndarray:
    lo, hi, n = spec
    if n < 1 or hi < lo:
        raise ParameterDomainError(f"bad grid spec {spec!r}")
    return np.linspace(lo, hi, int(n))


def spectrum_grid(
    d_grid: Sequence[float],
    kappa_grid: Sequence[float],
    big_m: float,
    method: str = "analytic",
) -> List[Tuple[float, float, float, bool]]:
    """Rectangular (d, kappa, r, above_threshold) sweep, row-ordered.

    Each d-row is one array call: the closed form (``big_m = inf`` gives
    the mu >> g0 limit) or one stacked scattering solve, which raises
    SolverError if a matching matrix of the row is singular.
    """
    if method not in ("analytic", "scattering"):
        raise ParameterDomainError(f"unknown method {method!r}")
    kappas = np.asarray(kappa_grid, dtype=float)
    out = []
    for d in np.asarray(d_grid, dtype=float).tolist():
        if method == "analytic":
            value = r_closed_form(d, None if math.isinf(big_m) else big_m, kappas)
        else:
            coeffs = solve_matching(d, big_m, kappas)
            if not np.isfinite(coeffs.condition_number).all():
                raise SolverError(f"singular matching system in the row d={d}")
            value = r_from_coefficients(coeffs)
        out += zip([d] * kappas.size, kappas.tolist(), value.r.tolist(),
                   value.above_threshold.tolist())
    return out


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search over a kappa interval.

    ``found`` means the interval contains a local maximum of the arctanh
    argument; ``diverges`` whether that maximum actually saturates the
    argument (a true threshold; at d != 0 the peak stays below 1 and no
    divergence exists).
    """

    found: bool
    kappa: Optional[float]
    nearest_reference: Optional[float]  # closest pi/2 + n*pi
    deviation: Optional[float]
    diverges: bool
    peak_argument: Optional[float]
    lo: float
    hi: float


def find_threshold(
    lo: float,
    hi: float,
    d: float = 0.0,
    big_m: Optional[float] = None,
) -> ThresholdResult:
    """Locate a squeezing divergence in kappa from the closed form.

    The phase is linear in kappa, phi = c * kappa, with c the phase at
    kappa = 1 (:func:`wavenumber_phase`; sqrt(1 + d^2) when big_m is None,
    the large-mu form). The arctanh argument sin(phi)/sqrt(1 + d^2)
    therefore peaks exactly at kappa_n = (pi/2 + 2*n*pi)/c. The result is
    the first kappa_n inside (lo, hi); an interval holding none (only a
    minimum of the argument, or no extremum) reports found=False. The peak
    saturates the argument only at d = 0; then with big_m=None the located
    kappa is the textbook threshold pi/2 + 2*n*pi.
    """
    if not 0.0 <= lo < hi:
        raise ParameterDomainError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    check_dimensionless(d, big_m, hi)
    if big_m is None:
        c = math.sqrt(1.0 + d * d)
    else:
        c = float(wavenumber_phase(DimensionlessParams(d=d, big_m=big_m, kappa=1.0)))
    # floor() can land one peak low or high at the rounding edge
    n = max(0, math.floor((lo * c - math.pi / 2.0) / (2.0 * math.pi)))
    while (kappa_star := (math.pi / 2.0 + 2.0 * n * math.pi) / c) <= lo:
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
        diverges=peak >= 1.0 - 1e-9,
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
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs <= self.tolerance


def compare_methods(
    d_grid: Sequence[float],
    kappa_grid: Sequence[float],
    big_m: float,
    tolerance: float = 0.01,
) -> CompareResult:
    """Max/mean |r_scattering - r_analytic| over a shared grid, by rows.

    Points above threshold by either method, or with a singular matching
    matrix, are skipped and counted.
    """
    kappas = np.asarray(kappa_grid, dtype=float)
    rows = []
    skipped = 0
    for d in np.asarray(d_grid, dtype=float).tolist():
        ana = r_closed_form(d, big_m, kappas)
        coeffs = solve_matching(d, big_m, kappas)
        sca = r_from_coefficients(coeffs)
        keep = (np.isfinite(coeffs.condition_number)
                & ~ana.above_threshold & ~sca.above_threshold)
        skipped += int(keep.size - np.count_nonzero(keep))
        rows.append(np.abs(sca.r[keep] - ana.r[keep]))
    diffs = np.concatenate(rows) if rows else np.empty(0)
    if not diffs.size:
        raise ParameterDomainError("comparison grid is empty or all above threshold")
    return CompareResult(
        max_abs=float(np.max(diffs)),
        mean_abs=float(np.mean(diffs)),
        n_points=int(diffs.size),
        n_skipped=skipped,
        tolerance=tolerance,
    )


#: The flux definition below is an adopted diagnostic, not a published
#: formula: flux = (g0 / 2 pi) * integral d(d) of [2 * sinh^2(r(d))] over
#: the computed spectrum, the factor 2 counting both outgoing channels.
FLUX_DEFINITION = (
    "flux = (g0/2pi) * integral dDelta sum_channels sinh^2(r_Delta), "
    "trapezoid over the computed spectrum; adopted definition (no closed "
    "form is published), order-of-magnitude diagnostic only"
)


def flux_estimate(spectrum: SqueezingSpectrum, g0: float) -> float:
    """Output atom flux (atoms/s) from a below-threshold spectrum.

    Raises AboveThresholdError if any point of the spectrum diverges. See
    FLUX_DEFINITION for the adopted formula and its caveat.
    """
    if spectrum.any_above_threshold():
        raise AboveThresholdError("spectrum contains above-threshold points")
    ds = np.asarray(spectrum.detunings)
    integrand = np.array([2.0 * math.sinh(v.r) ** 2 for _, v in spectrum.points])
    if len(ds) == 1:
        # single-bin convention: one channel-pair bin of width g0 (in d units: 1)
        return float(g0 * integrand[0] / (2.0 * math.pi))
    return float(g0 * np.trapezoid(integrand, ds) / (2.0 * math.pi))


def ridge_locus(d: float) -> float:
    """kappa of maximal r at fixed detuning ratio, (pi/2)/sqrt(1 + d^2).

    In the large-mu spectrum the divergence ridge follows
    kappa * sqrt(1 + d^2) = pi/2; grid sweeps should peak along this locus.
    """
    return (math.pi / 2.0) / math.sqrt(1.0 + d * d)

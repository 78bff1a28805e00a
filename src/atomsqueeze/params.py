"""Model parameters, unit reduction, and validity diagnostics.

All solver mathematics runs in dimensionless variables: detuning ratio
``d = delta/g0``, chemical-potential ratio ``M = mu/g0`` and interaction
coefficient ``kappa = g0 * tbar``, where ``tbar`` is the in-and-out
transmission time (path length ``2a``) of an atom crossing the coupling
region at velocity ``vbar = sqrt(2*hbar*mu/m)``. Physical units (SI, with
rates in rad/s) appear only at this conversion boundary.

Unit reduction used throughout: rates ``g0``, ``mu``, ``gamma`` and the
detuning ``delta`` are angular rates in rad/s (energy = hbar * rate);
lengths in meters; masses in kg. Then

    vbar = sqrt(2 * hbar * mu / m)      [m/s]
    tbar = 2 * a / vbar                 [s]
    kappa = g0 * tbar                   [dimensionless]

Note: a quoted coupling "g0 ~ 20 kHz" is interpreted as 2e4 rad/s, not
2*pi*2e4 rad/s. Only this reading reproduces the reference squeezing
r0 ~ 2 for the standard sodium parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError

HBAR = 1.054571817e-34  # J s

#: Cutoff of the ratios gamma/g0 and g0/mu in the validity report.
DEFAULT_MARGIN = 0.1

#: Fewest points of a time-domain grid (dynamics.GridSpec, and the config
#: domains of the dynamics and pairs blocks).
MIN_GRID_POINTS = 16


def _require(name, value, ok=True, what="finite", finite=True):
    """Raise ParameterDomainError unless ``ok`` holds and (with ``finite``)
    ``value`` is finite, elementwise for arrays, naming the first
    offending value."""
    ok = (np.isfinite(value) if finite else True) & np.asarray(ok)
    if not np.all(ok):
        raise ParameterDomainError(
            f"{name} must be {what}, got {_first(value, ~ok)!r}", name)


def _first(value, mask) -> float:
    """The first entry of ``value`` where ``mask`` holds, as a float."""
    return float(np.broadcast_to(value, np.shape(mask))[mask].flat[0])


@dataclass(frozen=True)
class PhysicalParams:
    """Physical parameters of the coupled-beam model.

    Attributes:
        g0: peak spin-exchange coupling rate (rad/s), > 0.
        mu: condensate chemical potential as an angular rate (rad/s), > 0.
        a: length of the coupling (condensate) region (m), >= 0.
           Zero is allowed as the degenerate no-region limit.
        m: atomic mass (kg), > 0.
        gamma: coupling ramp rate (rad/s), >= 0.
        n0: condensate atom number, >= 1.
    """

    g0: float
    mu: float
    a: float
    m: float
    gamma: float = 0.0
    n0: float = 1e6

    def __post_init__(self):
        _require("g0", self.g0, self.g0 > 0, "finite and > 0")
        _require("mu", self.mu, self.mu > 0, "finite and > 0")
        _require("a", self.a, self.a >= 0, "finite and >= 0")
        _require("m", self.m, self.m > 0, "finite and > 0")
        _require("gamma", self.gamma, self.gamma >= 0, "finite and >= 0")
        _require("n0", self.n0, self.n0 >= 1, "finite and >= 1")


@dataclass(frozen=True)
class DimensionlessParams:
    """Reduced parameters (d, M, kappa) of one operating point, which
    fully determine the spectra. Rows of points pass as three arrays,
    checked by :func:`check_dimensionless`.

    Attributes:
        d: detuning ratio delta/g0 (any real).
        big_m: chemical-potential ratio mu/g0, > 0; inf is the mu >> g0
            limit, which only the closed form takes (the scattering solve
            needs a finite M).
        kappa: interaction coefficient g0 * tbar, >= 0.
    """

    d: float
    big_m: float
    kappa: float

    def __post_init__(self):
        check_dimensionless(self.d, self.big_m, self.kappa)


def check_dimensionless(d, big_m, kappa) -> None:
    """Raise ParameterDomainError unless every (d, big_m, kappa) is valid.

    The domain of :class:`DimensionlessParams`: finite d, big_m > 0 (inf,
    the mu >> g0 limit, included; NaN not), finite kappa >= 0, elementwise
    for arrays.
    """
    _require("d", d)
    _require("big_m", big_m, np.greater(big_m, 0), "> 0 (inf for mu >> g0)",
             finite=False)
    _require("kappa", kappa, kappa >= 0, "finite and >= 0")


@dataclass(frozen=True)
class ValidityReport:
    """Diagnostics for the approximations behind the closed-form spectrum.

    ``steady_output_ok`` checks the slow-ramp condition gamma << g0,
    ``large_mu_ok`` checks mu >> g0, and ``below_threshold`` checks that
    kappa lies below the first parametric threshold pi/2 (by more than
    1e-12): past it the output grows instead of settling, and the closed
    form describes no steady state. ``threshold_distance`` is the distance
    to the nearest threshold pi/2 + n*pi, n >= 0, wherever kappa lies.
    Margins are the raw ratios / distances so callers can apply their own
    cutoffs.
    """

    steady_output_ok: bool
    steady_output_margin: float  # gamma / g0
    large_mu_ok: bool
    large_mu_margin: float  # g0 / mu
    below_threshold: bool
    threshold_distance: float  # min_n |kappa - (pi/2 + n pi)|


def vbar(p: PhysicalParams) -> float:
    """Beam velocity sqrt(2*hbar*mu/m) in m/s of an atom emerging at mu."""
    return math.sqrt(2.0 * HBAR * p.mu / p.m)


def transit_time(p: PhysicalParams) -> float:
    """Transmission time tbar = 2a / sqrt(2*hbar*mu/m), in seconds."""
    return 2.0 * p.a / vbar(p)


def to_dimensionless(p: PhysicalParams, delta: float = 0.0) -> DimensionlessParams:
    """Reduce physical parameters to (d, M, kappa) at detuning ``delta`` (rad/s)."""
    _require("delta", delta)
    return DimensionlessParams(
        d=delta / p.g0,
        big_m=p.mu / p.g0,
        kappa=p.g0 * transit_time(p),
    )


def nearest_threshold(kappa: float) -> float:
    """The parametric threshold pi/2 + n*pi (n >= 0) nearest to kappa."""
    n = max(0, round((kappa - math.pi / 2.0) / math.pi))
    return math.pi / 2.0 + n * math.pi


def threshold_distance(kappa: float) -> float:
    """Distance from kappa to the nearest parametric threshold pi/2 + n*pi."""
    _require("kappa", kappa, kappa >= 0, "finite and >= 0")
    return abs(kappa - nearest_threshold(kappa))


def validity(p: PhysicalParams) -> ValidityReport:
    """Check the operating point of ``p`` against the model's regime:
    steady output needs gamma/g0 <= DEFAULT_MARGIN, the large-mu regime
    g0/mu <= DEFAULT_MARGIN, below threshold a kappa < pi/2 - 1e-12."""
    kappa = to_dimensionless(p).kappa
    g_ratio = p.gamma / p.g0
    mu_ratio = p.g0 / p.mu
    return ValidityReport(
        steady_output_ok=g_ratio <= DEFAULT_MARGIN,
        steady_output_margin=g_ratio,
        large_mu_ok=mu_ratio <= DEFAULT_MARGIN,
        large_mu_margin=mu_ratio,
        below_threshold=kappa < math.pi / 2.0 - 1e-12,
        threshold_distance=threshold_distance(kappa),
    )

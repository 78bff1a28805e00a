"""Closed-form squeezing spectrum for the hard-wall + uniform-slab model.

The two outgoing channels at mu +/- delta form a two-mode squeezed state
whose squeezing parameter, for a wall at x = 0 and uniform coupling on
0 <= x <= a, is

    r(d) = | arctanh[ tanh(2*theta) * sin(phi) ] |

with ``tanh(2*theta) = 1/sqrt(1 + d^2)`` (d = delta/g0) and ``phi`` the
phase difference accumulated by the two interior branches across the slab,
``phi = (k_plus - k_minus) * a``. The raw definition of theta,
arctanh[sqrt(d^2+1) - d], overflows at d = 0 and leaves its domain for
d < 0; the simplified form is algebraically identical for d > 0 and
extends the spectrum evenly. The mu >> g0 limit is M = inf, where phi
is exactly kappa * sqrt(1 + d^2); at zero detuning it gives the textbook
r0 = |arctanh(sin kappa)| with its thresholds at kappa = pi/2 + n*pi
(``r_large_mu_limit(0.0, kappa)``). The scattering solve has no such
limit and needs a finite M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ClosedChannelError, ParameterDomainError
from .params import DimensionlessParams, _first

#: |arctanh_argument| within this distance below 1 is flagged near-threshold.
NEAR_THRESHOLD_BAND = 1e-12


@dataclass(frozen=True)
class SqueezingValue:
    """Squeezing parameter at one operating point (inside the package also
    a row of points, one array per field; see :func:`r_closed_form`).

    ``arctanh_argument`` is tanh(2*theta) * sin(phi); the point is above
    threshold when its magnitude reaches 1, in which case ``r`` is inf and
    the linearized no-depletion model has broken down. ``near_threshold``
    marks arguments within NEAR_THRESHOLD_BAND below saturation; the value
    of r is still reported as-is (no clipping) so divergences stay visible.
    """

    r: float
    above_threshold: bool
    arctanh_argument: float
    near_threshold: bool = False


@dataclass(frozen=True)
class SqueezingSpectrum:
    """r over a strictly increasing detuning-ratio grid, with context:
    ``value`` holds one array per field, an entry per detuning."""

    detunings: np.ndarray
    value: SqueezingValue
    big_m: float
    kappa: float

    def __post_init__(self):
        if np.any(np.diff(self.detunings) <= 0):
            raise ParameterDomainError("detuning grid must be strictly increasing")

    def any_above_threshold(self) -> bool:
        return bool(np.any(self.value.above_threshold))


def _value_from_phase(d, phi) -> SqueezingValue:
    """SqueezingValue for argument sin(phi)/sqrt(1+d^2), saturation-stable;
    1/sqrt(1+d^2) is tanh(2*theta).

    Near threshold the argument rounds to 1 long before the true
    divergence, so 1 - |arg| is assembled from cancellation-free pieces:
    s - 1 = d^2/(1+s) and 1 - |sin(phi)| = 2*sin^2(pi/4 -/+ phi/2). The
    threshold flag then flips at the floating-point representation of the
    divergence itself rather than ~1e-8 early, and r keeps full relative
    accuracy arbitrarily close to threshold. Elementwise over arrays.
    """
    s = np.sqrt(1.0 + d * d)
    t = np.sin(phi)
    half = np.where(t >= 0.0, math.pi / 4.0 - phi / 2.0, math.pi / 4.0 + phi / 2.0)
    s_minus_abs_t = d * d / (1.0 + s) + 2.0 * np.sin(half) ** 2  # = s - |t|, stable
    above = s_minus_abs_t <= 0.0
    with np.errstate(divide="ignore"):
        r = np.maximum(0.0, 0.5 * np.log((s + np.abs(t)) / s_minus_abs_t))
    return SqueezingValue(
        r=np.where(above, math.inf, np.where(t == 0.0, 0.0, r)),
        above_threshold=above,
        arctanh_argument=t / s,
        near_threshold=~above & (s_minus_abs_t / s < NEAR_THRESHOLD_BAND),
    )


def _scalar(value: SqueezingValue) -> SqueezingValue:
    """A one-point array-valued SqueezingValue as Python scalars."""
    return SqueezingValue(*(np.asarray(f).item() for f in vars(value).values()))


def wavenumber_phase(params: DimensionlessParams) -> float:
    """Phase difference (k_plus - k_minus) * a of the interior branches.

    The interior wavenumbers are k_pm = sqrt(2m(mu +/- g0*s))/hbar with
    s = sqrt(1 + d^2). Eliminating a via kappa = g0 * 2a/sqrt(2*hbar*mu/m)
    leaves the dimensionless form

        phi = kappa * M * (sqrt(1 + s/M) - sqrt(1 - s/M))

    evaluated here as 2*kappa*s / (sqrt(1 + s/M) + sqrt(1 - s/M)), which
    avoids catastrophic cancellation at large M and at M = inf (the
    mu >> g0 limit) is exactly kappa * s. Elementwise when the parameters
    are arrays.

    Raises ClosedChannelError when M < s (k_minus imaginary: the lower
    interior branch is evanescent and the closed form does not apply).
    """
    d, M = params.d, params.big_m
    s = np.sqrt(1.0 + d * d)
    closed = M < s
    if np.any(closed):
        raise ClosedChannelError(
            f"lower interior branch evanescent: big_m={_first(M, closed)} "
            f"< sqrt(1+d^2)={_first(s, closed)}"
        )
    return 2.0 * params.kappa * s / (np.sqrt(1.0 + s / M) + np.sqrt(1.0 - s / M))


def r_closed_form(d, big_m, kappa) -> SqueezingValue:
    """Closed-form squeezing over broadcast arrays (d, M, kappa), one array
    per field of the result; big_m = inf gives the mu >> g0 limit."""
    d, kappa = np.asarray(d, dtype=float), np.asarray(kappa, dtype=float)
    params = DimensionlessParams(d=d, big_m=big_m, kappa=kappa)
    return _value_from_phase(d, wavenumber_phase(params))


def r_analytic(params: DimensionlessParams) -> SqueezingValue:
    """Squeezing parameter with the exact interior wavenumbers (M = inf
    is the mu >> g0 limit)."""
    return _scalar(r_closed_form(params.d, params.big_m, params.kappa))


def r_large_mu_limit(d: float, kappa: float) -> SqueezingValue:
    """Squeezing parameter in the mu >> g0 regime: :func:`r_analytic` at
    M = inf.

    arctanh_argument = sin(kappa*sqrt(1+d^2)) / sqrt(1+d^2), even in d,
    and finite for all d != 0.
    """
    return _scalar(r_closed_form(d, math.inf, kappa))


def spectrum_large_mu(d_grid: Sequence[float], kappa: float) -> SqueezingSpectrum:
    """Evaluate the mu >> g0 spectrum (M = inf) over a detuning grid."""
    return spectrum_analytic(d_grid, math.inf, kappa)


def spectrum_analytic(
    d_grid: Sequence[float], big_m: float, kappa: float
) -> SqueezingSpectrum:
    """Evaluate the closed-form spectrum over a detuning grid in one call;
    big_m = inf gives the mu >> g0 limit."""
    ds = np.asarray(d_grid, dtype=float)
    return SqueezingSpectrum(ds, r_closed_form(ds, big_m, kappa), big_m, kappa)

"""Frequency-domain two-channel scattering for the hard-wall + slab model.

Under the steady output condition the stationary pair (u, w), the mode
coefficients of the two coupled field components at detuning delta, obeys

    (mu + delta) u = -u''/2m + V u + g0 w
    (mu - delta) w = -w''/2m + V w + g0 u

with u(0) = w(0) = 0 at the wall and free propagation beyond the slab.
Everything here is expressed in coupling units (energies in g0, 2m = 1, so
wavenumbers are square roots of dimensionless energies): exterior channels
carry k_u = sqrt(M + d), k_w = sqrt(M - d); the interior branches are the
eigenvectors of [[M + d, -1], [-1, M - d]] with wavenumbers sqrt(M +/- s),
s = sqrt(1 + d^2); the slab length is a = kappa * sqrt(M).

Each scattering experiment (unit flux injected in one channel) produces a
column of the Bogoliubov input-output relation. Amplitudes are converted
to flux normalization so the coefficients satisfy the symplectic
constraints |alpha|^2 - |beta|^2 = 1 and alpha_p beta_m = alpha_m beta_p.
Outgoing/incoming amplitudes are referenced at the origin (the plane-wave
phase convention of the asymptotic expansion), so the decoupled g0 -> 0
limit gives the bare hard-wall reflection alpha = -1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .analytic import NEAR_THRESHOLD_BAND, SqueezingValue, _points
from .errors import (
    ClosedExteriorChannelError,
    IllConditionedWarning,
    InconsistentChannelsError,
    SolverError,
)
from .params import DimensionlessParams, _first

#: 2-norm condition number above which a matching system counts as nearly
#: singular. solve_matching computes the exact 1-norm condition number
#: kappa_1 = ||A||_1 ||A^-1||_1 and warns when kappa_1 > CONDITION_LIMIT / 4;
#: since kappa_2 <= 4 kappa_1 for 4x4 matrices, every system above this
#: limit in the 2-norm is flagged.
CONDITION_LIMIT = 1e12

#: Default tolerance for the symplectic identities of a converged solve.
SOLVER_TOL = 1e-10


@dataclass(frozen=True)
class InteriorModes:
    """Eigenstructure of the coupled slab at one operating point.

    ``wavevectors`` are the two interior wavenumbers (the lower branch is
    purely imaginary with Im > 0 when evanescent); ``eigenvalues`` are the
    corresponding k^2 in coupling units; ``eigenvectors`` holds the unit
    (u, w) polarization of each branch as rows.
    """

    eigenvalues: Tuple[float, float]
    eigenvectors: Tuple[Tuple[float, float], Tuple[float, float]]
    wavevectors: Tuple[complex, complex]


@dataclass(frozen=True)
class BogoliubovCoefficients:
    """Flux-normalized input-output coefficients at one operating point
    (one array per field for a row of points, see :func:`solve_matching`).

    For well-conditioned below-threshold inputs these satisfy, to solver
    tolerance, |alpha_p|^2 - |beta_p|^2 = 1 (same for the minus channel),
    alpha_p*beta_m - alpha_m*beta_p = 0, and equal channel ratios
    |beta_p|/|alpha_p| = |beta_m|/|alpha_m| = tanh(r).

    ``condition_number`` is the exact 1-norm condition number
    ||A||_1 ||A^-1||_1 of the matching matrix A (inf when A is singular);
    :func:`solve_matching` warns when it exceeds CONDITION_LIMIT / 4.
    """

    alpha_p: complex
    beta_p: complex
    alpha_m: complex
    beta_m: complex
    d: float
    big_m: float
    kappa: float
    condition_number: float

    def norm_defects(self) -> Tuple[float, float]:
        return (
            abs(abs(self.alpha_p) ** 2 - abs(self.beta_p) ** 2 - 1.0),
            abs(abs(self.alpha_m) ** 2 - abs(self.beta_m) ** 2 - 1.0),
        )

    def cross_defect(self) -> float:
        return abs(self.alpha_p * self.beta_m - self.alpha_m * self.beta_p)


def interior_modes(params: DimensionlessParams) -> InteriorModes:
    """Eigenpairs of the interior coupling matrix [[M+d, -1], [-1, M-d]].

    Closed channels are represented, not rejected: a negative eigenvalue
    yields an imaginary wavevector (Im > 0 by convention), and the
    corresponding slab solution is the sinh-like combination vanishing at
    the wall. Elementwise when the parameters are arrays.
    """
    d, M = params.d, params.big_m
    s = np.sqrt(1.0 + d * d)
    lams = (M + s, M - s)
    # eigenvector of [[M+d, -1], [-1, M-d]] for eigenvalue M+s: (1, d-s)
    norms = [np.sqrt(1.0 + w * w) for w in (d - s, d + s)]
    return InteriorModes(
        eigenvalues=lams,
        eigenvectors=tuple((1.0 / n, w / n) for w, n in zip((d - s, d + s), norms)),
        wavevectors=tuple(np.sqrt(lam + 0j) for lam in lams),
    )


def _matching_system(d, big_m, kappa):
    """Assemble the matching problem of a row of points.

    ``d``, ``big_m`` and ``kappa`` are 1-D arrays of one shape. Returns
    ``(mat, rhs, a, ku, kw)``: the (N, 4, 4) matching matrices, the
    (N, 4, 6) right-hand sides [rhs | I4] (one column per incoming channel,
    then the identity, whose solution is the inverse), the slab length and
    the exterior wavenumbers. Raises ClosedExteriorChannelError as
    :func:`solve_matching` does.
    """
    modes = interior_modes(DimensionlessParams(d=d, big_m=big_m, kappa=kappa))
    closed = big_m - np.abs(d) <= 0
    if np.any(closed):
        raise ClosedExteriorChannelError(
            f"exterior channel closed: big_m={_first(big_m, closed)}, "
            f"|d|={_first(np.abs(d), closed)}"
        )
    a = kappa * np.sqrt(big_m)
    ku = np.sqrt(big_m + d)
    kw = np.sqrt(big_m - d)

    # Unknowns per experiment: interior coefficients c1, c2 and outgoing
    # amplitudes p (u channel) and q (w channel), referenced at x = a.
    mat = np.zeros(d.shape + (4, 4), dtype=complex)
    for j, (k, (eu, ew)) in enumerate(zip(modes.wavevectors, modes.eigenvectors)):
        sin, kcos = np.sin(k * a), k * np.cos(k * a)
        mat[:, :, j] = np.stack([sin * eu, kcos * eu, sin * ew, kcos * ew], axis=-1)
    mat[:, 0, 2] = mat[:, 2, 3] = -1.0
    mat[:, 1, 2], mat[:, 3, 3] = -1j * ku, 1j * kw
    # experiment 1: unit incident u wave exp(-i ku (x-a)); experiment 2:
    # unit incident w wave exp(+i kw (x-a)).
    rhs = np.zeros(d.shape + (4, 6), dtype=complex)
    rhs[:, 0, 0] = rhs[:, 2, 1] = 1.0
    rhs[:, 1, 0], rhs[:, 3, 1] = -1j * ku, 1j * kw
    rhs[:, :, 2:] = np.eye(4)
    return mat, rhs, a, ku, kw


def _norm_1(mat):
    """Matrix 1-norm (largest column sum of moduli) of each matrix of a stack."""
    return np.abs(mat).sum(axis=-2).max(axis=-1)


def solve_matching(d, big_m, kappa) -> BogoliubovCoefficients:
    """Solve the 4x4 boundary-matching problem at every point of a row.

    Two interior coefficients (one per branch, each vanishing at the wall)
    and two outgoing amplitudes are matched against continuity of (u, w)
    and their derivatives at x = a, once per incoming channel. The row of
    N points (``d``, ``big_m``, ``kappa`` broadcast) is one stacked solve
    of the (N, 4, 4) matrices A against [rhs | I4]: one LU factorization
    per point gives both the coefficients and A^-1, hence the exact 1-norm
    condition number ||A||_1 ||A^-1||_1. A singular point (a non-finite
    condition number, or a matrix the solve finds exactly singular) is
    reported with condition number inf and NaN coefficients.

    Raises ClosedExteriorChannelError when mu - |delta| <= 0 (an exterior
    channel carries no flux and the input-output map is undefined). Emits
    one IllConditionedWarning when any 1-norm condition number exceeds
    CONDITION_LIMIT / 4, which happens approaching threshold: for 4x4
    matrices the 2-norm condition number is at most 4 times the 1-norm
    one, so every point whose 2-norm condition number exceeds
    CONDITION_LIMIT is flagged.
    """
    d, big_m, kappa = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (d, big_m, kappa))
    )
    mat, rhs, a, ku, kw = _matching_system(d, big_m, kappa)
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        # a matrix LAPACK finds exactly singular (e.g. M = sqrt(1 + d^2),
        # where the lower branch has k = 0 and its sin(kx) column vanishes)
        # fails the whole stack: solve point by point, leaving those NaN
        sol = np.full(rhs.shape, np.nan, dtype=complex)
        for i in range(d.size):
            try:
                sol[i] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    cond = _norm_1(mat) * _norm_1(sol[:, :, 2:])
    singular = ~np.isfinite(cond)
    cond[singular] = np.inf
    sol[singular] = np.nan
    ill = cond > CONDITION_LIMIT / 4.0
    if np.any(ill):
        i = int(np.argmax(cond))
        warnings.warn(
            f"{int(ill.sum())} of {cond.size} matching systems nearly singular "
            f"(worst 1-norm cond ~ {cond[i]:.2e} at d={d[i]}, M={big_m[i]}, "
            f"kappa={kappa[i]}); coefficients may be inaccurate",
            IllConditionedWarning,
            stacklevel=2,
        )
    p1, q1 = sol[:, 2, 0], sol[:, 3, 0]
    p2, q2 = sol[:, 2, 1], sol[:, 3, 1]

    # Re-reference amplitudes to the origin and flux-normalize. The w
    # channel rides on the conjugate field, so its coefficients conjugate.
    return BogoliubovCoefficients(
        alpha_p=p1 * np.exp(-2j * ku * a),
        beta_p=p2 * np.exp(1j * (kw - ku) * a) * np.sqrt(ku / kw),
        alpha_m=np.conj(q2 * np.exp(2j * kw * a)),
        beta_m=np.conj(q1 * np.exp(1j * (kw - ku) * a)) * np.sqrt(kw / ku),
        d=d,
        big_m=big_m,
        kappa=kappa,
        condition_number=cond,
    )


def solve_scattering(params: DimensionlessParams) -> BogoliubovCoefficients:
    """Solve the 4x4 boundary-matching problem for one operating point.

    :func:`solve_matching` with one point; raises SolverError when its
    matching matrix is singular.
    """
    c = solve_matching(params.d, params.big_m, params.kappa)
    if not np.isfinite(c.condition_number[0]):
        raise SolverError(f"singular matching system at {params}")
    amplitudes = (c.alpha_p, c.beta_p, c.alpha_m, c.beta_m)
    return BogoliubovCoefficients(
        *(complex(x[0]) for x in amplitudes), params.d, params.big_m,
        params.kappa, float(c.condition_number[0]),
    )


def r_from_coefficients(
    c: BogoliubovCoefficients, consistency_factor: float = 10.0
) -> SqueezingValue:
    """Squeezing parameter tanh(r) = |beta|/|alpha| from solved coefficients.

    The two channel ratios are averaged to suppress round-off asymmetry;
    a genuine mismatch beyond consistency_factor * SOLVER_TOL (relative to
    the ratio scale) raises InconsistentChannelsError. Elementwise when
    the coefficients are arrays (NaN coefficients give NaN r); the result
    then holds one array per field, else Python scalars.
    """
    t_p = np.abs(c.beta_p) / np.abs(c.alpha_p)
    t_m = np.abs(c.beta_m) / np.abs(c.alpha_m)
    scale = np.maximum(np.maximum(t_p, t_m), 1.0)
    bad = np.abs(t_p - t_m) > consistency_factor * SOLVER_TOL * scale
    if np.any(bad):
        raise InconsistentChannelsError(
            f"channel ratios disagree: |b+/a+|={_first(t_p, bad)!r}, "
            f"|b-/a-|={_first(t_m, bad)!r}"
        )
    t = 0.5 * (t_p + t_m)
    above = (t_p >= 1.0) | (t_m >= 1.0) | (t >= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(above, np.inf, np.arctanh(t))
    value = SqueezingValue(
        r=r, above_threshold=above, arctanh_argument=t,
        near_threshold=~above & (t > 1.0 - NEAR_THRESHOLD_BAND),
    )
    return value if np.ndim(t) else _points(value)[0]


def r_scattering(params: DimensionlessParams) -> SqueezingValue:
    """Convenience composition: solve_scattering then r_from_coefficients."""
    return r_from_coefficients(solve_scattering(params))

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
column of the Bogoliubov input-output relation. Matching at the slab edge
is a 4x4 linear problem per point; eliminating the two outgoing amplitudes
leaves a 2x2 system in the interior coefficients, solved elementwise over
a row of points by Cramer's rule. Amplitudes are converted
to flux normalization so the coefficients satisfy the symplectic
constraints |alpha|^2 - |beta|^2 = 1 and alpha_p beta_m = alpha_m beta_p.
Outgoing/incoming amplitudes are referenced at the origin (the plane-wave
phase convention of the asymptotic expansion), so the decoupled g0 -> 0
limit gives the bare hard-wall reflection alpha = -1. One carrier phase
exp(-2i k_u a) and one channel shift exp(i (k_w - k_u) a), with
k_w - k_u = -2d / (k_w + k_u), re-reference all four.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .analytic import SqueezingValue
from .errors import (
    ClosedExteriorChannelError,
    IllConditionedWarning,
    InconsistentChannelsError,
    SolverError,
)
from .params import DimensionlessParams, _first, _require, check_dimensionless

#: 2-norm condition number above which a matching system counts as nearly
#: singular. solve_matching takes the exact 1-norm condition number
#: kappa_1 = ||A||_1 ||A^-1||_1 of the 4x4 matching matrix A from
#: np.linalg.cond(A, 1) and warns when kappa_1 > CONDITION_LIMIT / 4;
#: since kappa_2 <= 4 kappa_1 for 4x4 matrices, every system above this
#: limit in the 2-norm is flagged.
CONDITION_LIMIT = 1e12

#: Default tolerance for the symplectic identities of a converged solve.
SOLVER_TOL = 1e-10

#: Largest disagreement of the two channel ratios |beta|/|alpha|, relative
#: to the ratio scale, that :func:`r_from_coefficients` averages away.
CHANNEL_TOL = 10.0 * SOLVER_TOL


@dataclass(frozen=True)
class BogoliubovCoefficients:
    """Flux-normalized input-output coefficients at one operating point
    (one array per field for a row of points, see :func:`solve_matching`).

    For well-conditioned below-threshold inputs these satisfy, to solver
    tolerance, |alpha_p|^2 - |beta_p|^2 = 1 (same for the minus channel),
    alpha_p*beta_m - alpha_m*beta_p = 0, and equal channel ratios
    |beta_p|/|alpha_p| = |beta_m|/|alpha_m| = tanh(r).

    The amplitudes come from the 2x2 elimination of :func:`solve_matching`.
    ``condition_number`` is np.linalg.cond(A, 1), the exact 1-norm
    condition number ||A||_1 ||A^-1||_1 of the 4x4 matching matrix A (inf,
    with NaN amplitudes, when the point is singular); :func:`solve_matching`
    warns when it exceeds CONDITION_LIMIT / 4.
    """

    alpha_p: complex
    beta_p: complex
    alpha_m: complex
    beta_m: complex
    condition_number: float

    def norm_defects(self) -> Tuple[float, float]:
        return (
            abs(abs(self.alpha_p) ** 2 - abs(self.beta_p) ** 2 - 1.0),
            abs(abs(self.alpha_m) ** 2 - abs(self.beta_m) ** 2 - 1.0),
        )

    def cross_defect(self) -> float:
        return abs(self.alpha_p * self.beta_m - self.alpha_m * self.beta_p)


def _branches(d, big_m):
    """Interior branches of [[M+d, -1], [-1, M-d]] over a row of points.

    Returns ``(k, e)``: the wavenumbers sqrt(M +/- s), s = sqrt(1 + d^2),
    of shape (2, N), and the unit (u, w) polarizations of shape (2, 2, N),
    indexed [component, branch, point]. An evanescent branch (M < s) has
    an imaginary wavenumber with Im > 0; its slab solution is the
    sinh-like combination vanishing at the wall.
    """
    s = np.sqrt(1.0 + d * d)
    # eigenvector of [[M+d, -1], [-1, M-d]] for eigenvalue M+s: (1, d-s)
    w = np.stack([d - s, d + s])
    norm = np.sqrt(1.0 + w * w)
    k = np.sqrt(np.stack([big_m + s, big_m - s]) + 0j)
    return k, np.stack([1.0 / norm, w / norm])


def _matching_system(d, big_m, kappa):
    """Assemble the matching problem of a row of points.

    ``d``, ``big_m`` and ``kappa`` are 1-D arrays of one shape, held to
    the domain of :func:`~atomsqueeze.params.check_dimensionless`. With
    S_j = sin(k_j a), K_j = k_j cos(k_j a) and (e_j^u, e_j^w) the
    polarization of interior branch j (:func:`_branches`), returns
    ``(mat, rows, edges, a, ku, kw)``: the (N, 4, 4) matching matrices A,
    the rows e_j^u (K_j - i ku S_j) and e_j^w (K_j + i kw S_j) of the 2x2
    system, the edge values S_j e_j^u and S_j e_j^w of u and w (both
    indexed [row, j, point]), the slab length and the exterior
    wavenumbers. Raises ClosedExteriorChannelError as
    :func:`solve_matching` does.
    """
    check_dimensionless(d, big_m, kappa)
    closed = big_m - np.abs(d) <= 0
    if np.any(closed):
        raise ClosedExteriorChannelError(
            f"exterior channel closed: big_m={_first(big_m, closed)}, "
            f"|d|={_first(np.abs(d), closed)}"
        )
    a = kappa * np.sqrt(big_m)
    ku = np.sqrt(big_m + d)
    kw = np.sqrt(big_m - d)
    k, e = _branches(d, big_m)
    sin, kcos = np.sin(k * a), k * np.cos(k * a)
    edges = e * sin
    rows = e * (kcos + 1j * np.stack([-ku, kw])[:, None] * sin)

    mat = np.zeros((4, 4) + d.shape, dtype=complex)
    mat[0::2, :2], mat[1::2, :2] = edges, e * kcos
    mat[0, 2] = mat[2, 3] = -1.0
    mat[1, 2], mat[3, 3] = -1j * ku, 1j * kw
    return mat.transpose(2, 0, 1), rows, edges, a, ku, kw


def solve_matching(d, big_m, kappa) -> BogoliubovCoefficients:
    """Solve the boundary-matching problem at every point of a row.

    Two interior coefficients c_j (one per branch, each vanishing at the
    wall) and the outgoing amplitudes p, q are matched against continuity
    of (u, w) and their derivatives at x = a, once per incoming channel
    (a unit wave exp(-i ku (x-a)) in u, or exp(+i kw (x-a)) in w).
    Eliminating p and q leaves a 2x2 system in c_j with right-hand side
    (-2i ku, 0) for the u experiment and (0, 2i kw) for the w one, solved
    by Cramer's rule elementwise over the row of N points (``d``,
    ``big_m``, ``kappa`` broadcast). The 4x4 matrices A serve only
    np.linalg.cond(A, 1), the exact 1-norm condition number. A point whose
    determinant is zero or whose condition number is not finite is
    singular: condition number inf and NaN coefficients.

    Raises ParameterDomainError for a non-finite M (at M = inf the slab
    a = kappa sqrt(M) has no finite end to match at; only the closed form
    takes the mu >> g0 limit), and
    ClosedExteriorChannelError when mu - |delta| <= 0 (an exterior
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
    _require("big_m", big_m, what="finite for the scattering solve")
    mat, (bu, bw), edges, a, ku, kw = _matching_system(d, big_m, kappa)
    det = bu[0] * bw[1] - bu[1] * bw[0]
    cond = np.linalg.cond(mat, 1)
    singular = (det == 0) | ~np.isfinite(cond)
    cond[singular] = np.inf
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
    inv_det = np.divide(1.0, det, out=np.full_like(det, np.nan), where=~singular)
    # Cramer's rule for c_j, then (p, q) = (u, w) at x = a less the
    # incident wave, for the u experiment (p1, q1) and the w one (p2, q2)
    p1, q1 = (-2j * ku * inv_det * (bw[1] * edges[:, 0] - bw[0] * edges[:, 1])
              - [[1.0], [0.0]])
    p2, q2 = (2j * kw * inv_det * (bu[0] * edges[:, 1] - bu[1] * edges[:, 0])
              - [[0.0], [1.0]])

    # Re-reference amplitudes to the origin and flux-normalize. The w
    # channel rides on the conjugate field, so its coefficients conjugate.
    # alpha_m shares the carrier's rounding, so the cross constraint holds
    carrier = np.exp(-2j * ku * a)
    shift = np.exp(-2j * d / (kw + ku) * a)
    return BogoliubovCoefficients(
        alpha_p=p1 * carrier,
        beta_p=p2 * shift * np.sqrt(ku / kw),
        alpha_m=np.conj(q2) * carrier * np.conj(shift) ** 2,
        beta_m=np.conj(q1 * shift) * np.sqrt(kw / ku),
        condition_number=cond,
    )


def solve_scattering(params: DimensionlessParams) -> BogoliubovCoefficients:
    """Solve the boundary-matching problem for one operating point.

    :func:`solve_matching` with one point; raises SolverError when its
    matching matrix is singular.
    """
    c = solve_matching(params.d, params.big_m, params.kappa)
    if not np.isfinite(c.condition_number[0]):
        raise SolverError(f"singular matching system at {params}")
    amplitudes = (c.alpha_p, c.beta_p, c.alpha_m, c.beta_m)
    return BogoliubovCoefficients(
        *(complex(x[0]) for x in amplitudes), float(c.condition_number[0])
    )


def r_from_coefficients(c: BogoliubovCoefficients) -> SqueezingValue:
    """Squeezing parameter tanh(r) = |beta|/|alpha| from solved coefficients.

    The two channel ratios are averaged to suppress round-off asymmetry;
    a genuine mismatch beyond CHANNEL_TOL (relative to the ratio scale)
    raises InconsistentChannelsError. Elementwise over the coefficients
    (NaN coefficients give NaN r); the result holds one array per field,
    0-d for the Python scalars of :func:`solve_scattering`.
    """
    t_p = np.abs(c.beta_p) / np.abs(c.alpha_p)
    t_m = np.abs(c.beta_m) / np.abs(c.alpha_m)
    scale = np.maximum(np.maximum(t_p, t_m), 1.0)
    bad = np.abs(t_p - t_m) > CHANNEL_TOL * scale
    if np.any(bad):
        raise InconsistentChannelsError(
            f"channel ratios disagree: |b+/a+|={_first(t_p, bad)!r}, "
            f"|b-/a-|={_first(t_m, bad)!r}"
        )
    t = 0.5 * (t_p + t_m)
    above = (t_p >= 1.0) | (t_m >= 1.0) | (t >= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(above, np.inf, np.arctanh(t))
    return SqueezingValue(r=r, above_threshold=above, arctanh_argument=t)


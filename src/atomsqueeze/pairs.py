"""Weak-coupling pair production: two-atom amplitude and Bell-type metrics.

In the regime where at most one atom pair is created per detection
interval, first-order perturbation theory gives a two-atom state with
amplitude f(x, y, t): x the position of the +1 atom, y of the -1 atom.
In the frame rotating at mu per particle the amplitude obeys

    i df/dt = (H_+ (x) + H_- (y) - 2 mu) f + g(x, t) delta(x - y)

driven on the diagonal by the pair-creation source (the vacuum component
is dropped; it does not affect any post-selected quantity). H_+/- may
carry different potentials when probing internal-state asymmetries. The
delta source is discretized as 1/dx on the grid diagonal.

The amplitude is that of Strang steps of the 2-D field, computed without
stepping the field: H_+(x) + H_-(y) is separable and the source sits on
the diagonal inside the coupling slab, so f is a sum over steps of
products of 1-D source columns, each stepped on its own axis to the
final time (see ``pair_amplitude``). A step costs 1-D transforms of the
slab's source columns and one matrix product of rank the slab's width in
grid points.

Once the pair has escaped the coupling region the amplitude is decomposed
by exit side into quadrants LL/LR/RL/RR (left: coordinate < -a; right:
> a). Post-selecting one atom on each side keeps the LR and RL pieces and
produces an effective two-qubit internal state in the basis
{|+1 left, -1 right>, |-1 left, +1 right>}; when potentials are identical
for the two internal components, the exchange symmetry f_LR(x, y) =
f_RL(y, x) makes that state maximally entangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import CouplingRamp, GridSpec, _SpectralPropagator
from .errors import (
    EmptyPostSelectionError,
    ParameterDomainError,
    PerturbationInvalidError,
)

#: First-order treatment is rejected above this created norm^2.
PERTURBATION_NORM_LIMIT = 0.1


@dataclass(frozen=True)
class PairAmplitude:
    """Two-atom amplitude f on an (x, y) grid after free escape.

    ``leakage`` is the residual max |f| over the coupling square
    [-a, a] x [-a, a]; ``created_norm2`` the total norm^2 of the created
    component (excluding vacuum), which must stay small for the
    first-order (single-pair) treatment to hold.
    """

    f: np.ndarray
    x: np.ndarray
    dx: float
    a: float
    t0: float
    created_norm2: float
    leakage: float


@dataclass(frozen=True)
class QuadrantDecomposition:
    """Exit-side decomposition of a pair amplitude.

    Weights are norm^2 of the restrictions; the restricted amplitudes are
    kept on the full grid (zero outside their quadrant) so downstream
    overlaps can use one quadrature. in_region_weight is everything not in
    a quadrant (atoms not yet escaped).
    """

    w_ll: float
    w_lr: float
    w_rl: float
    w_rr: float
    in_region_weight: float
    total: float
    f_lr: np.ndarray
    f_rl: np.ndarray
    x: np.ndarray
    dx: float
    a: float


@dataclass(frozen=True)
class ProjectedPairState:
    """Post-selected one-atom-each-side state.

    ``psi_a`` is the motional amplitude of the |+1 left, -1 right> branch
    over (left coordinate, right coordinate); ``psi_b`` the |-1 left,
    +1 right> branch in the same coordinates. Norm one after projection.
    """

    psi_a: np.ndarray
    psi_b: np.ndarray
    dx: float
    success_probability: float


def _samples(v: Optional[np.ndarray], name: str, x: np.ndarray) -> np.ndarray:
    """Potential samples on ``x``; zero for None, named errors otherwise."""
    if v is None:
        return np.zeros_like(x)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ParameterDomainError(f"{name} samples must match grid.x")
    if not np.isfinite(v).all():
        raise ParameterDomainError(f"{name} samples must be finite")
    return v


def pair_amplitude(
    ramp: CouplingRamp,
    grid: GridSpec,
    t0: float,
    mu: float,
    potential_plus: Optional[np.ndarray] = None,
    potential_minus: Optional[np.ndarray] = None,
    raise_on_invalid: bool = True,
) -> PairAmplitude:
    """Evolve the sourced two-atom amplitude to time ``t0``.

    ``grid`` must be a symmetric Dirichlet grid containing the coupling
    support [-a, a] (a is taken from the ramp support, which must be
    symmetric). ``mu`` is the chemical potential in coupling units (the
    escape carrier is k0 = sqrt(mu)); it must be finite and > 0. The
    potentials are per internal component, finite samples on grid.x; both
    default to zero.

    The ramp should switch off before t0 (shape 'pulse') so the pair has a
    free escape interval; the leakage metric reports how completely it
    left the coupling square. ``t0`` must be a whole number of steps
    ``grid.dt`` (ParameterDomainError otherwise).

    The result is that of N = t0/dt Strang steps T = K_h A V K_h of the
    2-D field (K_h the kinetic half-kick, V the potential phase, A the
    absorber decay, the diagonal source added after V), computed without
    stepping the field: every factor of T is a tensor product of 1-D
    operators, T = T_+ (x) T_- with each component's potential on its own
    axis, so the source of step n reaches t0 as

        c_n * G_+ diag(m_S) G_-^T,   G_+/- = (T_+/-)^k K_h A e_S,

    with k = N-1-n, S the support of the coupling mask, m_S the mask on
    it (half weights included) and c_n = -i dt/dx g(t_n + dt/2); steps
    with g below 1e-14 g0_peak add nothing. The |S| columns G_+/- are
    stepped by 1-D kicks of the shared spectral propagator (see
    ``dynamics``), one forward transform giving both the half-kicked
    columns G and the fully kicked columns of the next k; the minus
    columns are the plus columns when both potentials are the same
    array. f is accumulated by one rank-|S| product per step: one
    product over many steps would have an inner dimension in the
    hundreds, where the BLAS result depends on its thread count.
    """
    if grid.boundary != "dirichlet":
        raise ParameterDomainError("pair evolution uses a Dirichlet box")
    x = grid.x
    if abs(grid.x_min + grid.x_max) > 1e-9 * grid.length:
        raise ParameterDomainError("pair grid must be symmetric about 0")
    if abs(ramp.x_lo + ramp.x_hi) > 1e-12:
        raise ParameterDomainError("coupling support must be symmetric about 0")
    a = ramp.x_hi
    if a <= 0 or a >= grid.x_max:
        raise ParameterDomainError("coupling support must satisfy 0 < a < x_max")
    if not math.isfinite(ramp.t_off) or ramp.t_off >= t0:
        raise ParameterDomainError(
            "ramp must switch off before t0 (use shape='pulse')"
        )
    ratio = t0 / grid.dt
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * max(1.0, abs(ratio)):
        raise ParameterDomainError(
            f"t0={t0!r} is not a multiple of dt={grid.dt!r} (t0/dt = {ratio!r})"
        )
    if not (mu > 0 and math.isfinite(mu)):
        raise ParameterDomainError(f"mu must be finite and > 0, got {mu!r}")
    grid.validate_resolution(math.sqrt(mu))
    vp = _samples(potential_plus, "potential_plus", x)
    sides = [vp]
    if potential_minus is not potential_plus:
        sides.append(_samples(potential_minus, "potential_minus", x))

    n = x.size
    dt = grid.dt
    # frame: each particle rotated by mu
    half = np.exp(-1j * (grid.wavenumbers() ** 2 - mu) * dt / 2.0)
    kinetic = _SpectralPropagator([half[:, None, None]], dirichlet=True,
                                  axes=(0,))
    decay = np.exp(-grid.absorber_profile() * dt)
    # local factor A V per point and side, broadcast over the source columns
    v = np.stack(sides, axis=1)
    local = (decay[:, None] * np.exp(-1j * dt * v))[:, :, None]
    gmask = ramp.spatial_mask(grid)
    support = np.flatnonzero(gmask)
    # cols[:, side, j] = A e_{S_j}, to be stepped by A V K_f
    cols = np.zeros((n, len(sides), support.size), dtype=complex)
    cols[support, :, np.arange(support.size)] = decay[support, None]
    m = gmask[support]
    env = np.array([ramp.envelope((k + 0.5) * dt) for k in range(steps)])
    coeff = (-1j * dt / grid.dx) * env
    on = env > 1e-14 * ramp.g0_peak
    first = int(np.argmax(on)) if on.any() else steps

    f = np.zeros((n, n), dtype=complex)
    # after k steps of the columns, g is G^(k), which carries the source of
    # step steps-1-k to t0; sources before the first active step add nothing
    for k in range(steps - first):
        g, cols = kinetic.split_kick(cols)
        cols *= local
        src = steps - 1 - k
        if on[src]:
            f += g[:, 0] @ (g[:, -1] * (coeff[src] * m)).T

    norm2 = float(np.sum(np.abs(f) ** 2) * grid.dx**2)
    inside = np.abs(x) <= a
    leak = float(np.abs(f[np.ix_(inside, inside)]).max()) if inside.any() else 0.0
    if not norm2 <= PERTURBATION_NORM_LIMIT and raise_on_invalid:
        raise PerturbationInvalidError(
            f"created norm^2 = {norm2:.3g} is not <= {PERTURBATION_NORM_LIMIT}"
        )
    return PairAmplitude(
        f=f, x=x, dx=grid.dx, a=a, t0=t0, created_norm2=norm2, leakage=leak
    )


def quadrant_decompose(fa: PairAmplitude) -> QuadrantDecomposition:
    """Split f by exit side of each atom; weights partition the total norm^2."""
    x, dx, a = fa.x, fa.dx, fa.a
    left = x < -a
    right = x > a
    f = fa.f

    def _restrict(mx, my):
        out = np.zeros_like(f)
        block = np.ix_(mx, my)
        out[block] = f[block]
        return out

    f_lr = _restrict(left, right)
    f_rl = _restrict(right, left)
    w = lambda g: float(np.sum(np.abs(g) ** 2) * dx * dx)
    w_ll = w(_restrict(left, left))
    w_rr = w(_restrict(right, right))
    w_lr = w(f_lr)
    w_rl = w(f_rl)
    total = w(f)
    return QuadrantDecomposition(
        w_ll=w_ll,
        w_lr=w_lr,
        w_rl=w_rl,
        w_rr=w_rr,
        in_region_weight=total - (w_ll + w_lr + w_rl + w_rr),
        total=total,
        f_lr=f_lr,
        f_rl=f_rl,
        x=x,
        dx=dx,
        a=a,
    )


def post_select(q: QuadrantDecomposition) -> ProjectedPairState:
    """Project onto the one-atom-each-side subspace and normalize.

    The |-1 left, +1 right> branch amplitude over (left, right) coordinates
    is f_RL with its arguments swapped (its first argument is the +1 atom's
    position, which after projection lives on the right side).
    """
    n2 = q.w_lr + q.w_rl
    if n2 <= 0.0:
        raise EmptyPostSelectionError("no amplitude with one atom on each side")
    left = q.x < -q.a
    right = q.x > q.a
    psi_a = q.f_lr[np.ix_(left, right)]
    psi_b = q.f_rl[np.ix_(right, left)].T
    scale = 1.0 / math.sqrt(n2)
    return ProjectedPairState(
        psi_a=psi_a * scale,
        psi_b=psi_b * scale,
        dx=q.dx,
        success_probability=n2 / q.total if q.total > 0 else 0.0,
    )


def internal_reduced_state(s: ProjectedPairState) -> np.ndarray:
    """2x2 internal density matrix in the branch basis, motional traced out.

    rho = [[w_A, c], [c*, w_B]] with w_A/B the branch weights and
    c = <psi_B, psi_A> the motional overlap; unit trace. The single-side
    internal state is its diagonal (the off-diagonal element is killed by
    the orthogonal internal label of the other side), so the one-side
    entropy depends on the weights alone while fidelity and CHSH also see
    the coherence c.
    """
    d2 = s.dx * s.dx
    w_a = float(np.sum(np.abs(s.psi_a) ** 2) * d2)
    w_b = float(np.sum(np.abs(s.psi_b) ** 2) * d2)
    c = complex(np.sum(np.conj(s.psi_b) * s.psi_a) * d2)
    rho = np.array([[w_a, c], [np.conj(c), w_b]], dtype=complex)
    return rho / np.trace(rho).real


def single_side_entropy(rho: np.ndarray) -> float:
    """Entanglement entropy of one side's internal qubit, in nats."""
    probs = np.real(np.diag(rho))
    return float(-sum(p * math.log(p) for p in probs if p > 1e-300))


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _embed_two_qubit(rho: np.ndarray) -> np.ndarray:
    """Embed the branch-basis 2x2 into the |+-⟩,|-+⟩ block of two qubits."""
    full = np.zeros((4, 4), dtype=complex)
    full[1, 1] = rho[0, 0]
    full[1, 2] = rho[0, 1]
    full[2, 1] = rho[1, 0]
    full[2, 2] = rho[1, 1]
    return full


def chsh_maximum(rho: np.ndarray) -> float:
    """Largest CHSH value over local settings, from the correlation matrix.

    For a two-qubit state with correlation matrix T_ij = Tr(rho s_i x s_j)
    the optimum is 2*sqrt(m1 + m2) with m1, m2 the two largest eigenvalues
    of T^T T: 2 for product states, 2*sqrt(2) for Bell states.
    """
    full = _embed_two_qubit(rho)
    t = np.empty((3, 3))
    for i, pi in enumerate(_PAULIS):
        for j, pj in enumerate(_PAULIS):
            t[i, j] = float(np.real(np.trace(full @ np.kron(pi, pj))))
    ev = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return 2.0 * math.sqrt(max(ev[0] + ev[1], 0.0))


def bell_metrics(s: ProjectedPairState) -> dict:
    """Fidelity with the symmetric Bell state, CHSH maximum, side entropy.

    Fidelity is <Phi|rho|Phi> with |Phi> = (|+1,-1> + |-1,+1>)/sqrt(2) in
    the internal space; all three quantities are invariant under a global
    phase of the pair amplitude.
    """
    rho = internal_reduced_state(s)
    fidelity = float(
        0.5 * np.real(rho[0, 0] + rho[1, 1] + rho[0, 1] + rho[1, 0])
    )
    return {
        "fidelity": fidelity,
        "chsh": chsh_maximum(rho),
        "entropy": single_side_entropy(rho),
        "success_probability": s.success_probability,
    }

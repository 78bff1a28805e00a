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
final time (see ``pair_amplitude``). The sum is kept in the sine basis: a
step costs one forward and one inverse 1-D transform of the slab's source
columns, the spectra of a block of steps are added by one matrix product
of inner dimension at most ``BLOCK_WIDTH``, and one 2-D inverse transform
per run returns the sum to (x, y).

Once the pair has escaped the coupling region the amplitude is decomposed
by exit side into quadrants LL/LR/RL/RR (left: coordinate < -a; right:
> a), read as block views of f. Post-selecting one atom on each side
keeps the LR and RL blocks and produces an effective two-qubit internal
state in the basis {|+1 left, -1 right>, |-1 left, +1 right>}; when
potentials are identical for the two internal components, the exchange
symmetry f_LR(x, y) = f_RL(y, x) makes that state maximally entangled.
That state needs only the two block weights and the overlap of the
blocks, so the metrics are read straight off the decomposition:
``bell_metrics(quadrant_decompose(fa))``. The state lives in a
two-dimensional subspace of the two qubits, so its CHSH maximum has a
closed form in the branch coherence alone (see ``chsh_maximum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    CouplingRamp,
    GridSpec,
    _potential_samples,
    _SpectralPropagator,
)
from .errors import (
    EmptyPostSelectionError,
    ParameterDomainError,
    PerturbationInvalidError,
)
from .params import _require

#: First-order treatment is rejected above this created norm^2.
PERTURBATION_NORM_LIMIT = 0.1

#: Largest inner dimension of a product that adds a block of steps to the
#: pair amplitude. Up to this inner dimension OpenBLAS gave the same bits
#: at 1 and 2 threads for every row count tried; from 129 on most
#: inner dimensions gave other bits (see ``pair_amplitude``).
BLOCK_WIDTH = 128


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

    Weights are norm^2 of the quadrant blocks of f; in_region_weight is
    everything not in a quadrant (atoms not yet escaped). The two
    off-diagonal blocks are kept for post-selection, both over (left
    coordinate, right coordinate): ``f_lr`` is f(x, y) with x < -a < a < y
    (the |+1 left, -1 right> branch), and ``f_rl`` is f(x, y) with
    y < -a < a < x, transposed (the |-1 left, +1 right> branch). Both are
    views of the amplitude's array.
    """

    w_ll: float
    w_lr: float
    w_rl: float
    w_rr: float
    in_region_weight: float
    total: float
    f_lr: np.ndarray
    f_rl: np.ndarray
    dx: float


def pair_amplitude(
    ramp: CouplingRamp,
    grid: GridSpec,
    t0: float,
    mu: float,
    potential_plus: Optional[np.ndarray] = None,
    potential_minus: Optional[np.ndarray] = None,
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
    left the coupling square. ``t0`` must be finite and a whole number of
    steps ``grid.dt`` (ParameterDomainError naming it otherwise).

    The result is that of N = t0/dt Strang steps T = K_h A V K_h of the
    2-D field (K_h the kinetic half-kick, V the potential phase, A the
    absorber decay, the diagonal source added after V), computed without
    stepping the field: every factor of T is a tensor product of 1-D
    operators, T = T_+ (x) T_- with each component's potential on its own
    axis, so the source of step n reaches t0 as

        c_n * G_+ diag(m_S) G_-^T,   G_+/- = (T_+/-)^k K_h A e_S,

    with k = N-1-n, S the support of the coupling mask, m_S the mask on
    it (half weights included) and c_n = -i dt/dx g(t_n + dt/2); steps
    with g below 1e-14 g0_peak add nothing. The sum is taken in the sine
    basis. With C^(k) = (A V K_f)^k A e_S the stepped columns and
    Q the inverse sine transform, G^(k) = K_h C^(k) = Q diag(h) C^(k)^,
    where ^ is the forward transform and h the half-kick phase, so

        f = Q diag(h) F^ diag(h) Q^T,   F^ = sum_n c_n C_+^ diag(m_S) (C_-^)^T.

    Each step makes one forward transform of the columns along axis 0,
    keeps the spectrum C^ for F^, multiplies it by the full-kick phase and
    makes one inverse transform to continue the columns: two transform
    calls of the shared spectral propagator (see ``dynamics``) per step.
    The minus columns are the plus columns when both potentials are the
    same array. The spectra of max(1, BLOCK_WIDTH // |S|) active steps
    are laid side by side and added to F^ by one product, blocks in step
    order; the last block may be partial, and a slab wider than
    BLOCK_WIDTH points gives one step per block, added in column chunks
    of at most BLOCK_WIDTH. f is then one 2-D inverse transform of
    diag(h) F^ diag(h) (Q is symmetric).

    No product has an inner dimension above BLOCK_WIDTH, so the result
    does not depend on the BLAS thread count: OpenBLAS 0.3.31 (Haswell
    kernels) gave the same bits at 1 and 2 threads for every inner
    dimension 1-128 on 63 to 1023 rows, and other bits for most above
    (all except multiples of 8 and one less, from 129 to 5000 on 255
    rows). ``tests/test_pairs.py`` compares f bit for bit at 1 and 2
    threads.
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
    _require("t0", t0)
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
    sides = [_potential_samples(potential_plus, "potential_plus", x)]
    if potential_minus is not potential_plus:
        sides.append(_potential_samples(potential_minus, "potential_minus", x))

    n = x.size
    dt = grid.dt
    # frame: each particle rotated by mu
    half = np.exp(-1j * (grid.wavenumbers() ** 2 - mu) * dt / 2.0)
    kinetic = _SpectralPropagator(half[:, None, None], dirichlet=True, axis=0)
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

    # the spectra of one block of active steps (BLOCK_WIDTH // |S| of them,
    # at least one), side by side: plus columns, and minus columns scaled
    # by c_n m
    width = max(1, BLOCK_WIDTH // max(support.size, 1)) * support.size
    plus = np.empty((n, width), dtype=complex)
    minus = np.empty((n, width), dtype=complex)
    filled = 0
    fhat = np.zeros((n, n), dtype=complex)
    # after k steps the columns' spectrum, times half, is that of G^(k),
    # which carries the source of step steps-1-k to t0; sources before the
    # first active step add nothing
    for k in range(steps - first):
        spec = kinetic.forward(cols)
        src = steps - 1 - k
        if on[src]:
            block = slice(filled, filled + support.size)
            plus[:, block] = spec[:, 0]
            np.multiply(spec[:, -1], coeff[src] * m, out=minus[:, block])
            filled = block.stop
            # the last step is the first active one: it adds the partial block
            if filled == width or k == steps - first - 1:
                # one product per block; a slab wider than BLOCK_WIDTH
                # points is split so no inner dimension exceeds it
                for j in range(0, filled, BLOCK_WIDTH):
                    cut = slice(j, min(j + BLOCK_WIDTH, filled))
                    fhat += plus[:, cut] @ minus[:, cut].T
                filled = 0
        spec *= kinetic.full
        cols = kinetic.inverse(spec)
        cols *= local
    fhat *= half[:, None]
    fhat *= half
    f = kinetic.inverse(kinetic.inverse(fhat), axis=1)

    norm2 = float(np.sum(np.abs(f) ** 2) * grid.dx**2)
    inside = np.abs(x) <= a
    leak = float(np.abs(f[np.ix_(inside, inside)]).max()) if inside.any() else 0.0
    if not norm2 <= PERTURBATION_NORM_LIMIT:
        raise PerturbationInvalidError(
            f"created norm^2 = {norm2:.3g} is not <= {PERTURBATION_NORM_LIMIT}"
        )
    return PairAmplitude(
        f=f, x=x, dx=grid.dx, a=a, t0=t0, created_norm2=norm2, leakage=leak
    )


def quadrant_decompose(fa: PairAmplitude) -> QuadrantDecomposition:
    """Split f by exit side of each atom; weights partition the total norm^2.

    The grid positions ``fa.x`` increase, so each side is one run of
    indices and each quadrant a block view of f.
    """
    n, dx = fa.x.size, fa.dx
    left = slice(0, int(np.count_nonzero(fa.x < -fa.a)))
    right = slice(n - int(np.count_nonzero(fa.x > fa.a)), n)
    f = fa.f
    f_lr = f[left, right]
    f_rl = f[right, left].T
    w = lambda g: float(np.sum(np.abs(g) ** 2) * dx * dx)
    w_ll = w(f[left, left])
    w_rr = w(f[right, right])
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
        dx=dx,
    )


def internal_reduced_state(q: QuadrantDecomposition) -> np.ndarray:
    """2x2 internal density matrix after post-selecting one atom per side.

    In the branch basis {|+1 left, -1 right>, |-1 left, +1 right>} with the
    motion traced out, rho = [[w_lr, c], [c*, w_rl]] / (w_lr + w_rl), where
    c = <f_rl, f_lr> is the motional overlap of the two exit blocks; unit
    trace. The single-side internal state is its diagonal (the
    off-diagonal element is killed by the orthogonal internal label of the
    other side), so the one-side entropy depends on the weights alone while
    fidelity and CHSH also see the coherence c. EmptyPostSelectionError
    when neither block holds any amplitude.
    """
    n2 = q.w_lr + q.w_rl
    if n2 <= 0.0:
        raise EmptyPostSelectionError("no amplitude with one atom on each side")
    c = complex(np.sum(np.conj(q.f_rl) * q.f_lr) * q.dx * q.dx)
    rho = np.array([[q.w_lr, c], [np.conj(c), q.w_rl]], dtype=complex)
    return rho / n2


def chsh_maximum(rho: np.ndarray) -> float:
    """Largest CHSH value over local settings of a branch-basis state.

    ``rho`` is the unit-trace 2x2 state of ``internal_reduced_state``, with
    c = rho[0, 1] the branch coherence. As a two-qubit state it lives on
    the span of |+1 -1> and |-1 +1>, where its correlation matrix
    T_ij = Tr(rho s_i (x) s_j) has T_xx = T_yy = 2 Re c,
    T_xy = -T_yx = 2 Im c and T_zz = -1 (the trace), all else zero. So
    T^T T = diag(4|c|^2, 4|c|^2, 1), and the Horodecki optimum
    2*sqrt(m1 + m2) over its two largest eigenvalues (R., P. and
    M. Horodecki, Phys. Lett. A 200, 340 (1995)) is 2*sqrt(1 + 4|c|^2):
    2 for a product state, 2*sqrt(2) for a Bell state (|c| = 1/2).
    """
    return 2.0 * math.sqrt(1.0 + 4.0 * abs(rho[0, 1]) ** 2)


def bell_metrics(q: QuadrantDecomposition) -> dict:
    """Fidelity with the symmetric Bell state, CHSH maximum, side entropy.

    All from the post-selected state of ``internal_reduced_state``.
    Fidelity is <Phi|rho|Phi> with |Phi> = (|+1,-1> + |-1,+1>)/sqrt(2) in
    the internal space; the entropy is that of one side's internal qubit,
    in nats; the success probability is the share (w_lr + w_rl) / total of
    the created norm^2 that post-selection keeps. All four are invariant
    under a global factor of the pair amplitude.
    """
    rho = internal_reduced_state(q)
    fidelity = float(
        0.5 * np.real(rho[0, 0] + rho[1, 1] + rho[0, 1] + rho[1, 0])
    )
    probs = np.real(np.diag(rho))
    return {
        "fidelity": fidelity,
        "chsh": chsh_maximum(rho),
        "entropy": float(-sum(p * math.log(p) for p in probs if p > 1e-300)),
        "success_probability": (q.w_lr + q.w_rl) / q.total,
    }

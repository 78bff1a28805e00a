"""Weak-coupling pair production: two-atom amplitude and Bell-type metrics.

In the regime where at most one atom pair is created per detection
interval, first-order perturbation theory gives a two-atom state with
amplitude f(x, y, t): x the position of the +1 atom, y of the -1 atom.
In the frame rotating at mu per particle the amplitude obeys

    i df/dt = (H_+ (x) + H_- (y) - 2 mu) f + g(x, t) delta(x - y)

driven on the diagonal by the pair-creation source (the vacuum component
is dropped; it does not affect any post-selected quantity). H_+ may carry
a potential (a barrier on the +1 side probes internal-state asymmetry);
H_- is free. The delta source is discretized as 1/dx on the grid
diagonal.

The amplitude is that of Strang steps of the 2-D field, computed without
stepping the field: H_+(x) + H_-(y) is separable and the source sits on
the diagonal inside the coupling slab, so f is a sum over steps of
products of 1-D source columns, each carried to the final time by powers
of its own side's one-step map (see ``pair_amplitude``). The kinetic part
of that map is a phase in the type-I sine basis of the grid's points,
whose transforms and phases this module keeps (``_SineBasis``); no other
module uses that basis (``dynamics.evolve`` kicks in the Fourier basis of
its own field). The pair grid is a closed box: the pair is read after it
has escaped freely, and an absorber would remove the amplitude the
metrics count. So that map is unitary and complex symmetric, and
diagonal in a real orthogonal basis (the sine basis itself on a side
with no potential); in those bases the sum over time closes: each pair of
modes is weighted by the pulse's discrete spectrum at the pair energy,
and no step is taken. The dense algebra runs at one BLAS thread, so f
does not depend on the BLAS thread count.

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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _blas
from .dynamics import CouplingRamp, GridSpec, _potential_samples
from .errors import (
    EmptyPostSelectionError,
    ParameterDomainError,
    PerturbationInvalidError,
    SolverError,
)
from .params import _require

#: First-order treatment is rejected above this created norm^2.
PERTURBATION_NORM_LIMIT = 0.1

#: Powers per product in the pulse spectrum; it bounds the power tables,
#: which set the peak memory of a pair run.
POWER_BLOCK = 32

#: Weight of Im S in the real combination Re S + MIX Im S whose
#: eigenvectors diagonalize a side's step S (see ``pair_amplitude``).
MIX = math.pi / 6
#: Eigenvalues of that combination closer than this form one cluster.
#: ``eigh`` mixes eigenvectors by about eps / gap, so outside clusters the
#: eigen residual stays below about 2 eps / CLUSTER_GAP = 4e-13.
CLUSTER_GAP = 1e-3
#: Largest |S O - O D| accepted; a side above it is a SolverError.
EIGEN_RESIDUAL = 1e-12


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


class _SineBasis:
    """The type-I sine basis of a pair grid's points, in which either
    side's kinetic kick is a phase, for fields whose columns lie along
    axis 0.

    The wavenumbers are pi*j/L, j = 1 .. n_points-1; ``half`` is the
    phase of one Strang half-kick in the frame rotated by mu, as a column,
    and ``full`` its square. ``forward`` and ``inverse`` are the 1-D
    ``scipy.fft`` calls ``dst``/``idst`` of type I, bound once to axis 0
    (the n-D wrappers run the same pocketfft kernel behind a per-call
    dispatch), in place on the caller's array; ``inverse(..., axis=1)``
    ends a 2-D inverse transform.
    """

    def __init__(self, grid: GridSpec, mu: float):
        # not at module level: scipy loads with the first pair amplitude
        from scipy.fft import dst, idst

        self.forward = functools.partial(dst, type=1, axis=0, overwrite_x=True)
        self.inverse = functools.partial(idst, type=1, axis=0, overwrite_x=True)
        k = np.pi * np.arange(1, grid.n_points) / grid.length
        self.half = np.exp(-1j * (k**2 - mu) * grid.dt / 2.0)[:, None]
        self.full = self.half**2


def pair_amplitude(
    ramp: CouplingRamp,
    grid: GridSpec,
    t0: float,
    mu: float,
    potential_plus: Optional[np.ndarray] = None,
) -> PairAmplitude:
    """Evolve the sourced two-atom amplitude to time ``t0``.

    ``grid`` must be a symmetric Dirichlet grid without absorber (a
    closed box; ParameterDomainError naming ``absorber_width`` otherwise)
    containing the coupling support [-a, a] (a is taken from the ramp
    support, which must be symmetric). ``mu`` is the chemical potential
    in coupling units (the escape carrier is k0 = sqrt(mu)); it must be
    finite and > 0.
    ``potential_plus`` is the potential of the +1 component, finite
    samples on grid.x, zero by default; the -1 component is free.

    The ramp should switch off before t0 (shape 'pulse') so the pair has a
    free escape interval; the leakage metric reports how completely it
    left the coupling square. ``t0`` must be finite and a whole number of
    steps ``grid.dt`` (ParameterDomainError naming it otherwise).

    The result is that of N = t0/dt Strang steps T = K_h V K_h of the 2-D
    field (K_h the kinetic half-kick, V the potential phase, the diagonal
    source added after V), computed without stepping the field: every
    factor of T is a tensor product of 1-D operators, T = T_+ (x) T_-
    with each component's potential on its own axis, so the source of
    step n reaches t0 as

        c_n * G_+ diag(m_S) G_-^T,   G_+/- = (T_+/-)^k K_h e_S,

    with k = N-1-n, S the support of the coupling mask, m_S the mask on
    it (half weights included) and c_n = -i dt/dx g(t_n + dt/2); steps
    with g below 1e-14 g0_peak add nothing. The sum is taken in the
    half-kicked sine frame: with Q the inverse sine transform (symmetric),
    H = diag(h) the half-kick phase and L = diag(e^{-iV dt}) the potential
    phase of one side, Q^T G^(k) = S^k H C0^, where C0^ is the spectrum of
    the unit columns e_S and S = H Q L Q H is the step of that side. S is
    unitary and complex symmetric, so Re S and Im S are commuting real
    symmetric matrices and S = O diag(D) O^T with O real orthogonal and
    |D| = 1 (R. A. Horn and C. R. Johnson, *Matrix Analysis*, 2nd ed.,
    Cambridge 2013, on the Takagi factorization). So the sum over n
    closes, and f is one 2-D inverse transform of

        O_+ (X o C') O_-^T,   X = O_+^T H C0^ diag(m_S) C0^T H O_-,
        C'(r, q) = sum_n c_n (D_+,r D_-,q)^(N-1-n),

    C' being the pulse's discrete spectrum at the pair energy (energy
    conservation of pair creation). It is the product (P_+ diag(c)) P_-^T
    of the power tables P_rk = D_r^k, built by running products and
    multiplied POWER_BLOCK powers at a time. The free -1 side, and the +1
    side when ``potential_plus`` is None, is the case O = I, D = h^2, and
    no eigendecomposition runs for it; with no potential both sides share
    that one basis. On a +1 side with a potential S is applied to columns
    by one transform pair, O comes from ``eigh`` of Re S + MIX Im S, and
    within each run of its eigenvalues closer than CLUSTER_GAP, where two
    phases may map to nearly one value, the eigenvectors are turned by
    ``eigh`` of the complementary Im S - MIX Re S. D is the diagonal of
    O^T S O; if |S O - O diag(D)| exceeds EIGEN_RESIDUAL, SolverError
    names ``potential_plus`` and the residual.

    Thread count: the eigendecompositions and products run inside
    ``_blas.one_thread``, which pins numpy's bundled OpenBLAS to one
    thread and restores the caller's count afterwards, so f has the same
    bits at any OpenBLAS thread count (without the pin, f of a barrier
    run had other bits at 2 threads than at 1 under both the SkylakeX and
    the Haswell kernels). Where numpy carries no such OpenBLAS the pin does
    nothing, and the bits may depend on that BLAS's thread count. The
    sine transforms run on one thread.
    """
    if grid.boundary != "dirichlet":
        raise ParameterDomainError("pair evolution uses a Dirichlet box")
    if grid.absorber_width > 0:
        raise ParameterDomainError(
            "absorber_width must be 0 on a pair grid: an absorber would "
            "remove the escaped pair", name="absorber_width",
        )
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
    if potential_plus is not None:
        sides.append(np.zeros_like(x))  # the free -1 side

    dt = grid.dt
    kinetic = _SineBasis(grid, mu)
    gmask = ramp.spatial_mask(grid)
    support = np.flatnonzero(gmask)
    m = gmask[support]
    env = np.array([ramp.envelope((k + 0.5) * dt) for k in range(steps)])
    # c_n of each step from the first active one on (sources before it add
    # nothing); 0 where g is below the source skip
    coeff = np.trim_zeros(
        np.where(env > 1e-14 * ramp.g0_peak, (-1j * dt / grid.dx) * env, 0.0), "f"
    )
    with _blas.one_thread():
        bases = [_step_basis(kinetic, v, dt) for v in sides]
        fhat = _closed_sum(kinetic, bases, support, m, coeff)
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


def _real_left(o, z) -> np.ndarray:
    """o @ z for a real o and a complex z, as one real product."""
    z = np.ascontiguousarray(z)
    return (o @ z.view(np.float64)).view(complex)


def _apply_step(kinetic, phase, x) -> np.ndarray:
    """S x = H Q L Q H x for the columns of x, L = diag(phase), by one
    transform pair (their unnormalized scales cancel)."""
    y = kinetic.forward(x * kinetic.half)
    y *= phase[:, None]
    y = kinetic.inverse(y)
    y *= kinetic.half
    return y


def _step_basis(kinetic, v, dt):
    """(O, D) with S = O diag(D) O^T the step of a side with potential
    ``v`` in the half-kicked sine frame (see ``pair_amplitude``);
    SolverError naming ``potential_plus`` if |S O - O D| exceeds
    ``EIGEN_RESIDUAL``. A side with no potential is (None, h^2)."""
    if not v.any():
        return None, kinetic.full[:, 0]
    phase = np.exp(-1j * dt * v)
    s = _apply_step(kinetic, phase, np.eye(v.size))
    combo = s.real + MIX * s.imag
    # S goes before the eigendecomposition, which keeps the peak memory
    # down; S times columns is two transforms
    del s
    w, o = np.linalg.eigh(combo)
    del combo
    # in a run of eigenvalues closer than CLUSTER_GAP the combination may
    # mix two phases e^{it} it maps to nearly one value: with tan p = MIX
    # it is sqrt(1 + MIX^2) cos(t - p), and sin(t - p) tells them apart
    edges = np.flatnonzero(np.diff(np.r_[0, np.diff(w) < CLUSTER_GAP, 0]))
    for lo, hi in zip(edges[::2], edges[1::2] + 1):
        block = o[:, lo:hi]
        sb = _apply_step(kinetic, phase, block)
        _, turn = np.linalg.eigh(block.T @ (sb.imag - MIX * sb.real))
        o[:, lo:hi] = block @ turn
    so = _apply_step(kinetic, phase, o)
    d = np.einsum("ij,ij->j", o, so)
    so.real -= o * d.real
    so.imag -= o * d.imag
    residual = np.abs(so).max()
    if not residual <= EIGEN_RESIDUAL:
        raise SolverError(
            f"potential_plus: step eigen residual {residual:.3g} exceeds "
            f"EIGEN_RESIDUAL = {EIGEN_RESIDUAL:g}"
        )
    return o, d


def _pulse_spectrum(bases, coeff) -> np.ndarray:
    """C'(r, q) = sum_n c_n (D_+,r D_-,q)^(N-1-n) (see ``pair_amplitude``),
    as one product (P_+ diag(c)) P_-^T per POWER_BLOCK powers, the power
    tables P_rk = D_r^k continued by running products."""
    ds = [d for _, d in bases]
    rev = coeff[::-1]
    spectrum = np.zeros((ds[0].size, ds[-1].size), dtype=complex)
    start = [np.ones(d.size, dtype=complex) for d in ds]
    for lo in range(0, rev.size, POWER_BLOCK):
        c = rev[lo:lo + POWER_BLOCK]
        tables = []
        for i, d in enumerate(ds):
            table = np.repeat(d[:, None], c.size, axis=1)
            table[:, 0] = start[i]
            np.cumprod(table, axis=1, out=table)
            start[i] = table[:, -1] * d
            tables.append(table)
        spectrum += (tables[0] * c) @ tables[-1].T
    return spectrum


def _closed_sum(kinetic, bases, support, m, coeff) -> np.ndarray:
    """O_+ (X o C') O_-^T (see ``pair_amplitude``) with O_- = I (the free
    -1 side); ``bases`` holds (O, D) per side, one entry when both sides
    are free, and O is None for a free side (O = I)."""
    n = kinetic.full.shape[0]
    spec0 = np.zeros((n, support.size))
    spec0[support, np.arange(support.size)] = 1.0
    spec0 = kinetic.forward(spec0) * kinetic.half
    o_plus = bases[0][0]
    y_plus = spec0 if o_plus is None else _real_left(o_plus.T, spec0)
    spectrum = _pulse_spectrum(bases, coeff)
    fhat = (y_plus * m) @ spec0.T
    fhat *= spectrum
    del spectrum
    if o_plus is not None:
        fhat = _real_left(o_plus, fhat)
    return fhat


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

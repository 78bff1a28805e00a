import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst, idst
from scipy.integrate import simpson

import atomsqueeze
from atomsqueeze import _blas, pairs
from atomsqueeze import (
    CouplingRamp,
    GridSpec,
    bell_metrics,
    internal_reduced_state,
    pair_amplitude,
    quadrant_decompose,
)
from atomsqueeze.errors import (
    EmptyPostSelectionError,
    ParameterDomainError,
    PerturbationInvalidError,
    SolverError,
)
from atomsqueeze.pairs import PairAmplitude, chsh_maximum

A_REGION = 1.5
MU = 4.0


def pair_grid(n=256, half_width=24.0, dt=0.02):
    return GridSpec(x_min=-half_width, x_max=half_width, n_points=n, dt=dt,
                    boundary="dirichlet")


def pulse_ramp(g_peak=0.05, t_on=0.8, t_off=2.2, tau=0.35, a=A_REGION):
    return CouplingRamp(g0_peak=g_peak, gamma=1.0 / tau, shape="pulse",
                        t_on=t_on, t_off=t_off, x_lo=-a, x_hi=a)


def barrier(height, grid, center=3.0, sigma=0.8):
    return height * np.exp(-((grid.x - center) ** 2) / (2.0 * sigma**2))


@pytest.fixture(scope="module")
def symmetric_run():
    grid = pair_grid()
    fa = pair_amplitude(pulse_ramp(), grid, t0=6.0, mu=MU)
    return grid, fa


def free_pair_oracle(
    x_targets: np.ndarray,
    y_targets: np.ndarray,
    ramp: CouplingRamp,
    mu: float,
    t0: float,
    source_half_width: float,
    n_source: int = 61,
    n_time: int = 121,
) -> np.ndarray:
    """Quadrature evaluation of the free-space first-order amplitude.

    Independent check of :func:`pair_amplitude` for V = 0: the amplitude is

        f(x, y, t0) = -i * int_0^t0 dt' g(t') K(x - x', t0 - t')
                                            K(y - x', t0 - t') dx'

    with the free single-particle propagator in the mu frame,
    K(z, t) = exp(i mu t) * exp(i z^2 / (4 t)) / sqrt(4 pi i t), integrated
    over the source support by Simpson quadrature in x' and t'. Valid when
    the ramp switches off before t0 (no propagator singularity).
    """
    if not math.isfinite(ramp.t_off) or ramp.t_off >= t0:
        raise ParameterDomainError("oracle requires the source off before t0")
    ts = np.linspace(0.0, min(ramp.t_off + 6.0 / ramp.gamma, t0 - 1e-6), n_time)
    xs = np.linspace(-source_half_width, source_half_width, n_source)
    g_t = np.array([ramp.envelope(t) for t in ts])

    def kernel(z, tau):
        return np.exp(1j * mu * tau) * np.exp(1j * z**2 / (4.0 * tau)) / np.sqrt(
            4.0j * math.pi * tau
        )

    out = np.zeros((len(x_targets), len(y_targets)), dtype=complex)
    for i, xt in enumerate(x_targets):
        for j, yt in enumerate(y_targets):
            # integrand over (t', x'), vectorized in x'
            vals_t = np.empty(len(ts), dtype=complex)
            for it, tp in enumerate(ts):
                tau = t0 - tp
                integ = kernel(xt - xs, tau) * kernel(yt - xs, tau)
                vals_t[it] = g_t[it] * simpson(integ, x=xs)
            out[i, j] = -1j * simpson(vals_t, x=ts)
    return out


def unfused_pair_reference(ramp, grid, t0, mu, vp):
    """The pair amplitude by plain Strang steps (oracle for the closed sum).

    Every step is two unfused half-kicks, each a 1-D sine transform pair
    per axis, around the +1 side's potential phase (along x; the -1 side
    is free) and the diagonal source.
    """
    n = grid.x.size
    dt = grid.dt
    k = np.pi * np.arange(1, grid.n_points) / grid.length  # the sine basis
    half = np.exp(-1j * (k**2 - mu) * dt / 2.0)
    phase_pot = np.exp(-1j * vp * dt)[:, None]
    gmask = ramp.spatial_mask(grid)
    diag = np.arange(n)

    def half_kick(f):
        f = idst(dst(f, type=1, axis=0) * half[:, None], type=1, axis=0)
        return idst(dst(f, type=1, axis=1) * half[None, :], type=1, axis=1)

    f = np.zeros((n, n), dtype=complex)
    t = 0.0
    for _ in range(int(round(t0 / dt))):
        t_mid = t + dt / 2.0
        f = half_kick(f) * phase_pot
        g_env = ramp.envelope(t_mid)
        if g_env > 1e-14 * ramp.g0_peak:
            f[diag, diag] += (-1j * dt / grid.dx) * g_env * gmask
        f = half_kick(f)
        t += dt
    return f


class TestPairAmplitude:
    def test_zero_coupling_zero_amplitude(self):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.0, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        fa = pair_amplitude(ramp, grid, t0=1.0, mu=1.0)
        assert np.abs(fa.f).max() == 0.0
        assert fa.created_norm2 == 0.0

    def test_exchange_symmetry(self, symmetric_run):
        _, fa = symmetric_run
        scale = np.abs(fa.f).max()
        assert scale > 0
        assert np.abs(fa.f - fa.f.T).max() < 1e-10 * scale

    def test_escape_leaves_region(self, symmetric_run):
        grid, fa = symmetric_run
        dens = np.abs(fa.f) ** 2
        inside = np.abs(grid.x) <= A_REGION
        in_square = dens[np.ix_(inside, inside)].sum() / dens.sum()
        assert in_square < 5e-3
        # pointwise leakage metric shrinks as the pair escapes
        early = pair_amplitude(pulse_ramp(), grid, t0=3.0, mu=MU)
        assert fa.leakage < early.leakage

    def test_perturbative_scaling(self):
        # first order: amplitude linear in the coupling strength
        grid = pair_grid(n=128, half_width=12.0, dt=0.04)
        fa1 = pair_amplitude(pulse_ramp(g_peak=0.02), grid, t0=3.0, mu=MU)
        fa2 = pair_amplitude(pulse_ramp(g_peak=0.04), grid, t0=3.0, mu=MU)
        assert np.abs(fa2.f - 2.0 * fa1.f).max() < 1e-12 * np.abs(fa2.f).max()

    def test_perturbation_guard(self):
        grid = pair_grid(n=128, half_width=12.0, dt=0.04)
        with pytest.raises(PerturbationInvalidError):
            pair_amplitude(pulse_ramp(g_peak=30.0), grid, t0=3.0, mu=MU)

    def test_requires_pulse_off_before_t0(self):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.05, gamma=2.0, shape="tanh", t_on=0.5,
                            x_lo=-1.0, x_hi=1.0)
        with pytest.raises(ParameterDomainError):
            pair_amplitude(ramp, grid, t0=2.0, mu=MU)

    def test_t0_must_be_a_whole_number_of_steps(self):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.05, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        with pytest.raises(ParameterDomainError, match=r"t0=1\.01 .*dt=0\.05"):
            pair_amplitude(ramp, grid, t0=1.01, mu=1.0)
        # a multiple of dt up to round-off of t0/dt passes
        fa = pair_amplitude(ramp, grid, t0=0.3 * 3 + 0.1, mu=1.0)
        assert fa.created_norm2 > 0

    @pytest.mark.parametrize(
        "h_plus, tau, t0, a, n",
        [
            # steps below the source skip at both ends
            (1.5, 0.02, 3.0, A_REGION, 64),
            # a 145-point slab reaching over the barrier
            (1.5, 0.35, 2.0, 5.4, 320),
            # both sides free (the sine basis on both)
            (0.0, 0.35, 3.0, A_REGION, 64),
            (0.0, 0.02, 3.0, A_REGION, 64),
            # a barrier on the +1 side: that side in its step's eigenbasis,
            # the free -1 side in the sine basis
            (1.5, 0.35, 3.0, A_REGION, 64),
            (0.5, 0.35, 3.0, A_REGION, 64),
            (2.0, 0.35, 3.0, A_REGION, 64),
        ],
        ids=["fast_edges", "wide_slab", "both_free", "both_free_fast_edges",
             "minus_free", "plus_half", "plus_two"],
    )
    def test_matches_unfused_strang_steps(self, h_plus, tau, t0, a, n):
        # the closed time sum against dense 2-D Strang steps
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_points=n, dt=0.04,
                        boundary="dirichlet")
        ramp = pulse_ramp(t_on=0.6, t_off=1.6, tau=tau, a=a)
        vp = barrier(h_plus, grid)
        env = np.array([ramp.envelope((k + 0.5) * grid.dt)
                        for k in range(int(round(t0 / grid.dt)))])
        below = env <= 1e-14 * ramp.g0_peak
        # fast edges leave steps below the source skip at both ends
        assert (below[0] and below[-1]) == (tau < 0.1)
        fa = pair_amplitude(ramp, grid, t0=t0, mu=MU,
                            potential_plus=vp if h_plus else None)
        ref = unfused_pair_reference(ramp, grid, t0, MU, vp)
        scale = np.abs(ref).max()
        assert scale > 0
        assert np.abs(fa.f - ref).max() < 1e-12 * scale

    @pytest.mark.parametrize("width", [3.0, 24.0, 0.1],
                             ids=["one_sided", "whole_domain", "between_points"])
    def test_absorber_named(self, width):
        # the pair is read after free escape; a pair grid is a closed box,
        # also where the layer is too thin to reach a grid point
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_points=64, dt=0.04,
                        boundary="dirichlet", absorber_width=width)
        with pytest.raises(ParameterDomainError,
                           match="^absorber_width must be 0") as err:
            pair_amplitude(pulse_ramp(t_on=0.6, t_off=1.6), grid, t0=3.0,
                           mu=MU)
        assert err.value.name == "absorber_width"

    def test_same_bits_at_one_and_two_blas_threads(self):
        # fresh interpreters, since OpenBLAS reads its thread count at load.
        # Guards the eigh of each side's step and the power-table and basis
        # products, which run inside _blas.one_thread: without the pin, eigh
        # and products of inner dimension 255 gave other bits at 2 threads
        # than at 1. A barrier on the plus side of a 9-point and of a
        # 145-point slab, then the 9-point slab with no barrier (no eigh).
        # This is the bit check: the CLI test compares files that round f
        # to 9 digits.
        code = (
            "import hashlib, numpy as np, atomsqueeze as a\n"
            "for n, w, hp in ((64, 1.5, 1.5), (320, 5.4, 1.5), (64, 1.5, 0.0)):\n"
            "    grid = a.GridSpec(x_min=-12.0, x_max=12.0, n_points=n,\n"
            "                      dt=0.04, boundary='dirichlet')\n"
            "    ramp = a.CouplingRamp(g0_peak=0.05, gamma=1 / 0.35,\n"
            "                          shape='pulse', t_on=0.6, t_off=1.6,\n"
            "                          x_lo=-w, x_hi=w)\n"
            "    v = np.exp(-(grid.x - 3.0) ** 2 / 1.28)\n"
            "    fa = a.pair_amplitude(ramp, grid, t0=3.0, mu=4.0,\n"
            "                          potential_plus=hp * v if hp else None)\n"
            "    print(hashlib.sha256(fa.f.tobytes()).hexdigest())\n"
        )
        src = str(Path(atomsqueeze.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        digests = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path,
                         OPENBLAS_NUM_THREADS=threads), timeout=600)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.split())
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(height=st.floats(0.1, 30.0), center=st.floats(0.0, 6.0),
           dt=st.sampled_from([0.02, 0.04, 0.05, 0.1]),
           n=st.sampled_from([48, 64, 80]),
           shape=st.sampled_from(["single", "double"]))
    def test_step_eigenbasis(self, height, center, dt, n, shape):
        # a barrier, or a symmetric double barrier whose parity doublets
        # are nearly degenerate, on a grid without absorber: the basis of
        # the step S (built here from the dense sine matrix) and the closed
        # sum it gives, against plain Strang steps
        grid = GridSpec(x_min=-8.0, x_max=8.0, n_points=n, dt=dt,
                        boundary="dirichlet")
        vp = barrier(height, grid, center=center)
        if shape == "double":
            vp = vp + barrier(height, grid, center=-center)
        k = np.pi * np.arange(1, n) / grid.length  # the sine basis
        half = np.exp(-1j * (k**2 - MU) * dt / 2.0)
        size = half.size
        idx = np.arange(1, size + 1)
        q = math.sqrt(2.0 / (size + 1)) * np.sin(math.pi * np.outer(idx, idx)
                                                 / (size + 1))
        step = half[:, None] * (q @ (np.exp(-1j * dt * vp)[:, None] * q)) * half
        o, d = pairs._step_basis(pairs._SineBasis(grid, MU), vp, dt)
        assert np.abs(step @ o - o * d).max() <= 1e-12
        assert np.abs(o.T @ o - np.eye(size)).max() <= 1e-13
        ramp = pulse_ramp(t_on=0.6, t_off=1.6)
        fa = pair_amplitude(ramp, grid, t0=3.0, mu=MU, potential_plus=vp)
        ref = unfused_pair_reference(ramp, grid, 3.0, MU, vp)
        scale = np.abs(ref).max()
        assert np.abs(fa.f - ref).max() < 1e-12 * scale

    def test_basis_above_residual_bound_is_a_solver_error(self, monkeypatch):
        # with no basis accepted, the side with the barrier is named (the
        # free side takes the sine basis and no residual)
        monkeypatch.setattr(pairs, "EIGEN_RESIDUAL", 0.0)
        grid = GridSpec(x_min=-12.0, x_max=12.0, n_points=64, dt=0.04,
                        boundary="dirichlet")
        ramp = pulse_ramp(t_on=0.6, t_off=1.6)
        with pytest.raises(SolverError,
                           match="^potential_plus: step eigen residual "
                                 "[0-9.e+-]+ exceeds EIGEN_RESIDUAL = 0$"):
            pair_amplitude(ramp, grid, t0=3.0, mu=MU,
                           potential_plus=barrier(1.5, grid))

    @pytest.mark.parametrize("t0", [math.nan, math.inf])
    def test_t0_not_finite_named(self, t0):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.05, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        with pytest.raises(ParameterDomainError, match=r"^t0 must be finite"):
            pair_amplitude(ramp, grid, t0=t0, mu=1.0)

    @pytest.mark.parametrize("mu", [0.0, -4.0, math.nan, math.inf])
    def test_mu_outside_domain_named(self, mu):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.05, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        with pytest.raises(ParameterDomainError, match=r"^mu must be finite"):
            pair_amplitude(ramp, grid, t0=1.0, mu=mu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_potential_named(self, bad):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.05, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        v = np.zeros(grid.x.size)
        v[40] = bad
        with pytest.raises(ParameterDomainError, match="^potential_plus samples"):
            pair_amplitude(ramp, grid, t0=1.0, mu=1.0, potential_plus=v)

    def test_nan_norm_trips_perturbation_guard(self, monkeypatch):
        # a coupling mask that is NaN on its support makes every amplitude
        # NaN; a NaN created norm is not a valid first-order result. (A NaN
        # envelope would not do: steps whose envelope is not above the skip
        # level add nothing.)
        grid = GridSpec(x_min=-8.0, x_max=8.0, n_points=64, dt=0.05,
                        boundary="dirichlet")
        mask = CouplingRamp.spatial_mask
        monkeypatch.setattr(
            CouplingRamp, "spatial_mask",
            lambda self, grid: np.where(mask(self, grid) != 0, math.nan, 0.0))
        ramp = CouplingRamp(g0_peak=0.05, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        with pytest.raises(PerturbationInvalidError, match="nan"):
            pair_amplitude(ramp, grid, t0=1.0, mu=1.0)

    def test_matches_free_propagator_oracle(self):
        # independent quadrature oracle on a small free-space instance,
        # compared at off-region target points. The pulse tail ends well
        # before t0 (no propagator singularity). The closed box is wide
        # enough to act as free space: the fastest wave on the grid
        # (speed 2 pi/dx < 42) needs over 3.2 > t0 to go from the source
        # to a wall and back to a target. Half-widths 18 and 36 let the fast
        # off-shell source components reflect back (errors 7e-2 and 4e-2).
        grid = GridSpec(x_min=-72.0, x_max=72.0, n_points=960, dt=0.01,
                        boundary="dirichlet")
        ramp = CouplingRamp(g0_peak=0.03, gamma=1.0 / 0.15, shape="pulse",
                            t_on=0.4, t_off=1.0, x_lo=-0.75, x_hi=0.75)
        t0 = 2.2
        fa = pair_amplitude(ramp, grid, t0=t0, mu=MU)
        targets = [-5.5, -4.0, 4.0, 5.5]
        ix = [int(np.argmin(np.abs(grid.x - t))) for t in targets]
        xt = grid.x[ix]
        oracle = free_pair_oracle(xt, xt, ramp, MU, t0,
                                  source_half_width=0.75,
                                  n_source=121, n_time=201)
        got = fa.f[np.ix_(ix, ix)]
        scale = np.abs(oracle).max()
        assert scale > 0
        assert np.abs(got - oracle).max() < 0.05 * scale

    def test_energy_shell_correlation(self, symmetric_run):
        # the two-atom light cone: with total kinetic energy pinned near
        # 2*mu, the escaped density concentrates on the radial shell
        # sqrt(x^2 + y^2) ~ 2*sqrt(2*mu)*(t0 - t_source)
        grid, fa = symmetric_run
        dens = np.abs(fa.f) ** 2
        x = grid.x
        rho = np.sqrt(x[:, None] ** 2 + x[None, :] ** 2)
        far = rho > 3.0
        w = dens[far]
        r = rho[far]
        hist, edges = np.histogram(r, bins=40, weights=w)
        r_peak = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        t_mid = 1.5  # center of the source pulse
        assert r_peak == pytest.approx(
            2.0 * math.sqrt(2.0 * MU) * (fa.t0 - t_mid), rel=0.1
        )
        in_shell = w[np.abs(r - r_peak) / r_peak < 0.25].sum()
        assert in_shell > 0.8 * w.sum()


class TestOneBlasThread:
    def test_pin_restores_the_callers_count(self):
        lib = _blas.openblas()
        if lib is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        get_threads, set_threads, _ = lib
        before = get_threads()
        try:
            set_threads(2)
            with _blas.one_thread():
                assert get_threads() == 1
            assert get_threads() == 2
            with pytest.raises(ZeroDivisionError):
                with _blas.one_thread():
                    assert get_threads() == 1
                    1 / 0
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_without_openblas_the_pin_does_nothing(self, monkeypatch):
        monkeypatch.setattr(_blas, "openblas", lambda: None)
        with _blas.one_thread():
            pass
        assert _blas.describe() == {"corename": None, "one_thread_pin": False}
        # and the pair amplitude is still computed
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        ramp = CouplingRamp(g0_peak=0.05, gamma=4.0, shape="pulse", t_on=0.2,
                            t_off=0.6, x_lo=-1.0, x_hi=1.0)
        assert pair_amplitude(ramp, grid, t0=1.0, mu=1.0).created_norm2 > 0


class TestQuadrants:
    def test_partition_is_exact(self, symmetric_run):
        _, fa = symmetric_run
        q = quadrant_decompose(fa)
        s = q.w_ll + q.w_lr + q.w_rl + q.w_rr + q.in_region_weight
        assert s == pytest.approx(q.total, rel=1e-12)
        assert q.in_region_weight >= 0

    def test_symmetric_weights(self, symmetric_run):
        _, fa = symmetric_run
        q = quadrant_decompose(fa)
        assert q.w_ll == pytest.approx(q.w_rr, rel=1e-10)
        assert q.w_lr == pytest.approx(q.w_rl, rel=1e-10)

    def test_single_quadrant_support(self):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        x = grid.x
        f = np.zeros((len(x), len(x)), dtype=complex)
        ll = np.where(x < -2.0)[0]
        f[np.ix_(ll, ll)] = 1.0
        fa = PairAmplitude(f=f, x=x, dx=grid.dx, a=2.0, t0=1.0,
                           created_norm2=1.0, leakage=0.0)
        q = quadrant_decompose(fa)
        assert q.w_ll > 0
        assert q.w_lr == q.w_rl == q.w_rr == 0.0


    def test_blocks_match_masked_quadrants(self):
        # the block views against boolean-mask restrictions of a random f,
        # with a coupling half-width between grid points
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        x = grid.x
        rng = np.random.default_rng(7)
        f = rng.normal(size=(x.size, x.size)) + 1j * rng.normal(size=(x.size, x.size))
        fa = PairAmplitude(f=f, x=x, dx=grid.dx, a=1.9, t0=1.0,
                           created_norm2=1.0, leakage=0.0)
        q = quadrant_decompose(fa)
        left, right = x < -1.9, x > 1.9
        assert np.array_equal(q.f_lr, f[np.ix_(left, right)])
        assert np.array_equal(q.f_rl, f[np.ix_(right, left)].T)
        for w, (mx, my) in ((q.w_ll, (left, left)), (q.w_lr, (left, right)),
                            (q.w_rl, (right, left)), (q.w_rr, (right, right))):
            block = f[np.ix_(mx, my)]
            assert w == pytest.approx(np.sum(np.abs(block) ** 2) * grid.dx**2,
                                      rel=1e-12)
        assert q.in_region_weight > 0


class TestPostSelection:
    def test_empty_post_selection(self):
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        x = grid.x
        f = np.zeros((len(x), len(x)), dtype=complex)
        ll = np.where(x < -2.0)[0]
        f[np.ix_(ll, ll)] = 1.0
        fa = PairAmplitude(f=f, x=x, dx=grid.dx, a=2.0, t0=1.0,
                           created_norm2=1.0, leakage=0.0)
        with pytest.raises(EmptyPostSelectionError):
            bell_metrics(quadrant_decompose(fa))

    def test_success_probability(self, symmetric_run):
        _, fa = symmetric_run
        q = quadrant_decompose(fa)
        m = bell_metrics(q)
        assert m["success_probability"] == pytest.approx(
            (q.w_lr + q.w_rl) / q.total, rel=1e-12
        )
        # normalized after projection
        rho = internal_reduced_state(q)
        assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)


class TestInternalState:
    def test_symmetric_case_maximally_entangled(self, symmetric_run):
        _, fa = symmetric_run
        q = quadrant_decompose(fa)
        rho = internal_reduced_state(q)
        assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
        # both branches equal and fully coherent: rho -> |Phi><Phi|
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-10)
        assert abs(rho[0, 1]) == pytest.approx(0.5, abs=1e-10)
        assert bell_metrics(q)["entropy"] == pytest.approx(math.log(2.0),
                                                           abs=1e-10)

    def test_product_state(self):
        # amplitude only in the LR block: one branch, no coherence
        grid = pair_grid(n=64, half_width=8.0, dt=0.05)
        x = grid.x
        f = np.zeros((len(x), len(x)), dtype=complex)
        f[np.ix_(np.where(x < -2.0)[0], np.where(x > 2.0)[0])] = 1.0
        fa = PairAmplitude(f=f, x=x, dx=grid.dx, a=2.0, t0=1.0,
                           created_norm2=1.0, leakage=0.0)
        q = quadrant_decompose(fa)
        rho = internal_reduced_state(q)
        assert np.array_equal(rho, np.array([[1.0, 0.0], [0.0, 0.0]]))
        m = bell_metrics(q)
        assert m["fidelity"] == pytest.approx(0.5, abs=1e-12)
        assert m["chsh"] == pytest.approx(2.0, abs=1e-9)
        assert m["entropy"] == 0.0
        assert m["success_probability"] == 1.0


PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def correlation_matrix(rho2):
    """T_ij = Tr(rho s_i (x) s_j) of a branch-basis 2x2 state embedded in
    the |+1 -1>, |-1 +1> block of two qubits."""
    full = np.zeros((4, 4), dtype=complex)
    full[1:3, 1:3] = rho2
    return np.array([[np.trace(full @ np.kron(pi, pj)).real for pj in PAULIS]
                     for pi in PAULIS])


def chsh_by_eigenvalues(rho2):
    """Horodecki optimum 2*sqrt(m1 + m2), m1 >= m2 the two largest
    eigenvalues of T^T T."""
    t = correlation_matrix(rho2)
    ev = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(ev[-1] + ev[-2])


def chsh_by_angle_scan(rho2, n_angles=49):
    """Direct CHSH optimization over measurement settings (oracle).

    Scans unit Bloch vectors (theta, phi) on a product grid for all four
    settings, evaluating E(a, b) = a^T T b from the correlation matrix.
    Independent of the closed-form eigenvalue route; a lower bound that
    approaches the optimum as the grid refines.
    """
    t = correlation_matrix(rho2)
    thetas = np.linspace(0.0, math.pi, n_angles)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * n_angles)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    vecs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    # E(a, b) = a^T T b; for fixed a, a' the optimal unit b, b' give exactly
    # |T^T (a + a')| and |T^T (a - a')|, so only (a, a') is scanned, in
    # chunks of the first setting a to bound the memory of the pair grid;
    # both lengths come from one Gram block, |u +- v|^2 = |u|^2 + |v|^2 +- 2 u.v
    ta = vecs @ t
    sq = np.einsum("ij,ij->i", ta, ta)
    best = -math.inf
    for start in range(0, len(ta), 256):
        base = sq[start:start + 256, None] + sq[None, :]
        cross = 2.0 * (ta[start:start + 256] @ ta.T)
        total = np.sqrt(np.maximum(base + cross, 0.0))
        total += np.sqrt(np.maximum(base - cross, 0.0))
        best = max(best, float(total.max()))
    return best


class TestBellMetrics:
    def test_ideal_symmetric_values(self, symmetric_run):
        _, fa = symmetric_run
        m = bell_metrics(quadrant_decompose(fa))
        assert m["fidelity"] >= 0.999
        assert m["chsh"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
        assert m["entropy"] == pytest.approx(math.log(2.0), abs=1e-3)

    def test_chsh_against_angle_scan(self):
        # the closed form 2*sqrt(1 + 4|c|^2) against the T^T T eigenvalue
        # route and against direct optimization over settings
        for rho in (
            np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),  # Bell
            np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),  # product
            np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex),  # partial
            np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]),  # complex c
        ):
            closed = chsh_maximum(rho)
            assert closed == pytest.approx(chsh_by_eigenvalues(rho), abs=1e-12)
            scanned = chsh_by_angle_scan(rho)
            assert scanned <= closed + 1e-6
            assert scanned == pytest.approx(closed, abs=0.02)
        # random valid states: unit trace, |c|^2 <= w_a w_b, any phase of c
        rng = np.random.default_rng(1995)
        for _ in range(300):
            w_a = rng.uniform()
            c = (math.sqrt(w_a * (1.0 - w_a) * rng.uniform())
                 * np.exp(2j * math.pi * rng.uniform()))
            rho = np.array([[w_a, c], [np.conj(c), 1.0 - w_a]])
            assert chsh_maximum(rho) == pytest.approx(chsh_by_eigenvalues(rho),
                                                      abs=1e-12)

    def test_global_phase_invariance(self, symmetric_run):
        # a global phase, and a phase with a scale: the metrics are those
        # of the normalized post-selected state
        _, fa = symmetric_run
        m0 = bell_metrics(quadrant_decompose(fa))
        for factor in (np.exp(1.23j), 0.03 * np.exp(1.23j)):
            rotated = PairAmplitude(
                f=fa.f * factor, x=fa.x, dx=fa.dx, a=fa.a, t0=fa.t0,
                created_norm2=fa.created_norm2, leakage=fa.leakage,
            )
            m1 = bell_metrics(quadrant_decompose(rotated))
            for key in ("fidelity", "chsh", "entropy", "success_probability"):
                assert m1[key] == pytest.approx(m0[key], rel=1e-12), key


class TestAsymmetryMonotonicity:
    def test_one_sided_barrier_degrades_all_metrics(self):
        # smoke version at coarse resolution; the acceptance suite runs the
        # full five-point sweep on the production grid
        grid = pair_grid(n=192, half_width=20.0, dt=0.03)
        heights = [0.0, 1.0, 2.0]
        fids, ents, chshs = [], [], []
        for h in heights:
            vplus = barrier(h, grid) if h > 0 else None
            # 167 steps of dt = 0.03
            fa = pair_amplitude(pulse_ramp(), grid, t0=5.01, mu=MU,
                                potential_plus=vplus)
            m = bell_metrics(quadrant_decompose(fa))
            fids.append(m["fidelity"])
            ents.append(m["entropy"])
            chshs.append(m["chsh"])
        assert all(b < a for a, b in zip(fids, fids[1:]))
        assert all(b < a for a, b in zip(ents, ents[1:]))
        assert all(b < a for a, b in zip(chshs, chshs[1:]))

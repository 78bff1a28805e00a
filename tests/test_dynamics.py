import math

import numpy as np
import pytest
from scipy.fft import dst, dstn, fftn, idst, idstn, ifftn
from scipy.linalg import expm

from atomsqueeze import (
    CouplingRamp,
    GridSpec,
    ModeLabel,
    ModeState,
    OutputWindow,
    evolve,
    extract_output_correlators,
    gaussian_packet,
    steady_state_beta_squared,
    symplectic_norm,
)
from atomsqueeze import dynamics, pairs
from atomsqueeze.dynamics import _Stepper, plus_norm
from atomsqueeze.errors import (
    InstabilityDetectedError,
    ParameterDomainError,
    ResolutionError,
    WindowTooShortError,
)
from atomsqueeze.scattering import _branches

NO_RAMP = CouplingRamp(g0_peak=0.0, gamma=1.0, shape="const")


def periodic_grid(length=60.0, n=512, dt=0.004):
    return GridSpec(x_min=0.0, x_max=length, n_points=n, dt=dt, boundary="periodic")


class TestGridSpec:
    def test_too_few_points(self):
        with pytest.raises(ParameterDomainError):
            GridSpec(x_min=0.0, x_max=1.0, n_points=8, dt=0.1)

    def test_absorber_must_fit(self):
        with pytest.raises(ParameterDomainError,
                           match=r"^absorber_width must be finite and in \[0, ") as err:
            GridSpec(x_min=0.0, x_max=1.0, n_points=32, dt=0.1, absorber_width=2.0)
        assert err.value.name == "absorber_width"
        # the whole domain may absorb
        GridSpec(x_min=0.0, x_max=1.0, n_points=32, dt=0.1, absorber_width=1.0)

    def test_absorber_profile(self):
        # quadratic in depth, reaching ABSORBER_STRENGTH at x_max
        grid = GridSpec(x_min=0.0, x_max=10.0, n_points=100, dt=0.1,
                        absorber_width=2.0)
        x = grid.x
        depth = (x - 8.0) / 2.0
        want = np.where(x > 8.0, dynamics.ABSORBER_STRENGTH * depth**2, 0.0)
        assert np.array_equal(grid.absorber_profile(), want)
        assert not GridSpec(x_min=0.0, x_max=10.0, n_points=100,
                            dt=0.1).absorber_profile().any()

    def test_resolution_guard(self):
        grid = GridSpec(x_min=0.0, x_max=10.0, n_points=32, dt=0.01)
        with pytest.raises(ResolutionError):
            grid.validate_resolution(k_max=10.0)
        grid.validate_resolution(k_max=0.5)

    def test_dirichlet_points_interior(self):
        grid = GridSpec(x_min=0.0, x_max=1.0, n_points=16, dt=0.1)
        assert len(grid.x) == 15
        assert grid.x[0] == pytest.approx(grid.dx)


class TestNamedInputErrors:
    """Each invalid stepper input is a ParameterDomainError naming its field."""

    @pytest.mark.parametrize("name, value", [
        ("dt", math.nan), ("dt", math.inf), ("x_min", math.nan),
        ("x_min", -math.inf), ("x_max", math.nan), ("x_max", math.inf),
        ("n_points", math.nan), ("n_points", math.inf),
        ("n_points", -math.inf), ("n_points", 100.5),
        ("absorber_width", -1.0), ("absorber_width", math.nan),
        ("absorber_width", math.inf),
    ])
    def test_grid_field(self, name, value):
        kw = dict(x_min=0.0, x_max=10.0, n_points=32, dt=0.01)
        kw[name] = value
        with pytest.raises(ParameterDomainError, match=name):
            GridSpec(**kw)

    @pytest.mark.parametrize("name, value", [
        ("g0_peak", math.inf), ("g0_peak", math.nan), ("gamma", math.inf),
        ("gamma", math.nan), ("t_on", math.inf), ("t_on", math.nan),
        ("t_off", math.nan),
    ])
    @pytest.mark.parametrize("shape", ["tanh", "pulse"])
    def test_ramp_field(self, name, value, shape):
        kw = dict(g0_peak=1.0, gamma=2.0, shape=shape, t_on=1.0, t_off=3.0)
        kw[name] = value
        with pytest.raises(ParameterDomainError, match=name):
            CouplingRamp(**kw)

    def test_ramp_open_ended_and_const_accepted(self):
        assert CouplingRamp(g0_peak=1.0, gamma=2.0, shape="pulse",
                            t_off=math.inf).envelope(0.0) > 0
        # a constant coupling never reads its ramp rate or turn-on time
        const = CouplingRamp(g0_peak=1.0, gamma=math.nan, shape="const",
                             t_on=math.nan)
        assert const.envelope(5.0) == 1.0

    @pytest.mark.parametrize("name, x_lo, x_hi", [
        ("x_lo", math.nan, math.nan), ("x_lo", math.nan, 40.0),
        ("x_lo", -math.inf, 40.0), ("x_hi", 20.0, math.nan),
        ("x_hi", 20.0, math.inf), ("x_hi", 40.0, 20.0),
    ])
    def test_ramp_support_named(self, name, x_lo, x_hi):
        # a NaN or reversed support held no grid point, so the run went
        # uncoupled without an error
        with pytest.raises(ParameterDomainError,
                           match=f"^{name} must be finite") as err:
            CouplingRamp(g0_peak=1.0, gamma=1.0, x_lo=x_lo, x_hi=x_hi)
        assert err.value.name == name

    @pytest.mark.parametrize("name, kw", [
        ("sigma", {"sigma": 0.0}), ("sigma", {"sigma": -1.0}),
        ("sigma", {"sigma": math.nan}), ("sigma", {"sigma": math.inf}),
        ("x0", {"x0": math.nan}), ("x0", {"x0": math.inf}),
        ("k", {"k": math.inf}), ("k", {"k": math.nan}),
        # finite, but no weight on a grid point
        ("sigma", {"sigma": 1e-10, "x0": 30.01}), ("sigma", {"x0": 1e6}),
    ])
    def test_gaussian_packet_named(self, name, kw):
        # each ended in a RuntimeWarning or a NaN state
        args = dict(x0=30.0, sigma=5.0, k=3.0, mu=9.0) | kw
        with pytest.raises(ParameterDomainError, match=f"^{name} must be") as err:
            gaussian_packet(periodic_grid(n=64), **args)
        assert err.value.name == name

    @pytest.mark.parametrize("big_m", [0.0, -4.0, math.nan, math.inf])
    def test_steady_output_big_m(self, big_m):
        with pytest.raises(ParameterDomainError, match="^big_m must be"):
            steady_state_beta_squared(big_m, 1.2, 0.1)

    @pytest.mark.parametrize("value, name", [
        *((v, n) for v in (math.nan, math.inf)
          for n in ("measure_c", "kappa", "gamma_ratio")),
        (-0.5, "kappa"), (0.0, "gamma_ratio"), (-1.0, "gamma_ratio"),
    ])
    def test_steady_output_times(self, name, value):
        # the slab and ramp inputs are named too, before any grid is built
        kw = dict(big_m=100.0, kappa=1.2, gamma_ratio=0.1)
        kw[name] = value
        with pytest.raises(ParameterDomainError,
                           match=f"^{name} must be finite") as err:
            steady_state_beta_squared(**kw)
        assert err.value.name == name

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_evolve_t_final(self, t_final):
        grid = periodic_grid(n=256, dt=0.01)
        state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
        with pytest.raises(ParameterDomainError, match="^t_final must be finite"):
            evolve(state, NO_RAMP, None, grid, t_final)
        later = state.copy_with(state.u, state.w, t_final)
        with pytest.raises(ParameterDomainError, match=r"^state\.t must be finite"):
            evolve(later, NO_RAMP, None, grid, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_evolve_snapshot_time(self, bad):
        # a NaN time would never be reached, so its snapshot never taken
        grid = periodic_grid(n=256, dt=0.01)
        state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
        with pytest.raises(ParameterDomainError, match="^snapshot_times must be"):
            evolve(state, NO_RAMP, None, grid, 0.1, snapshot_times=[0.05, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["mu", "k0"])
    def test_evolve_label_named(self, field, bad):
        # a NaN mu gave an all-NaN sourced field, a NaN k0 skipped the
        # resolution check
        grid = GridSpec(x_min=0.0, x_max=20.0, n_points=64, dt=0.01)
        zeros = np.zeros(grid.x.shape, dtype=complex)
        label = ModeLabel(**{"mu": 4.0, "k0": 2.0, field: bad})
        state = ModeState(u=zeros, w=zeros, t=0.0, label=label)
        with pytest.raises(ParameterDomainError,
                           match=rf"^label\.{field} must be finite") as err:
            evolve(state, NO_RAMP, None, grid, 0.1, source_x=10.0)
        assert err.value.name == f"label.{field}"

    @pytest.mark.parametrize("k0", [50.0, -50.0])
    def test_evolve_carrier_unresolved_at_either_sign(self, k0):
        # exp(-i 50 x) needs the dx of exp(+i 50 x); dx = 0.3125 fits neither
        grid = GridSpec(x_min=0.0, x_max=20.0, n_points=64, dt=0.01)
        zeros = np.zeros(grid.x.shape, dtype=complex)
        state = ModeState(u=zeros, w=zeros, t=0.0, label=ModeLabel(mu=4.0, k0=k0))
        with pytest.raises(ResolutionError, match=f"k_max={k0:.4g}"):
            evolve(state, NO_RAMP, None, grid, 0.1)

    @pytest.mark.parametrize("source_x", [-0.5, 40.5, math.nan])
    def test_evolve_source_outside_grid(self, source_x):
        # nearest-point placement would move it to the edge point silently
        grid = GridSpec(x_min=0.0, x_max=40.0, n_points=400, dt=0.01)
        zeros = np.zeros(grid.x.shape, dtype=complex)
        state = ModeState(u=zeros, w=zeros, t=0.0, label=ModeLabel(mu=4.0, k0=2.0))
        with pytest.raises(ParameterDomainError,
                           match=r"^source_x must be in \[grid") as err:
            evolve(state, NO_RAMP, None, grid, 0.1, source_x=source_x)
        assert err.value.name == "source_x"

    @pytest.mark.parametrize("source_x", [0.0, 40.0])
    def test_evolve_source_on_grid_edge_accepted(self, source_x):
        grid = GridSpec(x_min=0.0, x_max=40.0, n_points=400, dt=0.01)
        zeros = np.zeros(grid.x.shape, dtype=complex)
        state = ModeState(u=zeros, w=zeros, t=0.0, label=ModeLabel(mu=4.0, k0=2.0))
        final, _ = evolve(state, NO_RAMP, None, grid, 0.1, source_x=source_x)
        assert np.abs(final.u).max() > 0


class TestFreeEvolution:
    def test_free_packet_translates_at_group_velocity(self):
        grid = periodic_grid()
        k0 = 2.0 * math.pi * 20 / grid.length  # on-grid carrier
        state = gaussian_packet(grid, x0=15.0, sigma=3.0, k=k0, mu=0.0)
        final, _ = evolve(state, NO_RAMP, None, grid, t_final=4.0)
        # w untouched by free evolution
        assert np.abs(final.w).max() == 0.0
        dens = np.abs(final.u) ** 2
        centroid = float(np.sum(grid.x * dens) / np.sum(dens))
        assert centroid == pytest.approx(15.0 + 2.0 * k0 * 4.0, abs=0.05)
        # norm conserved
        assert symplectic_norm(final, grid) == pytest.approx(1.0, abs=1e-12)

    def test_snapshots_recorded(self):
        grid = periodic_grid(n=256, dt=0.01)
        state = gaussian_packet(grid, x0=30.0, sigma=4.0, k=1.0, mu=0.0)
        final, snaps = evolve(state, NO_RAMP, None, grid, t_final=0.5,
                              snapshot_times=[0.1, 0.3, 0.5])
        assert len(snaps) == 3
        assert snaps[-1].t == pytest.approx(final.t)
        # snapshots hold their own arrays, apart from each other and final
        arrays = [final.u] + [s.u for s in snaps]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])
        # the times may come as an array
        _, again = evolve(state, NO_RAMP, None, grid, t_final=0.5,
                          snapshot_times=np.array([0.1, 0.3, 0.5]))
        assert [s.t for s in again] == [s.t for s in snaps]


class TestSymplecticStructure:
    def test_norm_conservation_with_coupling(self):
        # uniform coupling, no absorber: drift at round-off level over 1e3 steps
        grid = periodic_grid(n=256, dt=0.002)
        ramp = CouplingRamp(g0_peak=1.0, gamma=1.0, shape="const",
                            x_lo=0.0, x_hi=grid.length)
        state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
        norms = [symplectic_norm(state, grid)]
        cur = state
        for _ in range(4):
            cur, _ = evolve(cur, ramp, None, grid, t_final=cur.t + 250 * grid.dt)
            norms.append(symplectic_norm(cur, grid))
        drift = max(abs(n - norms[0]) for n in norms)
        assert drift < 1e-8  # structurally conserved; round-off only
        # squeezing actually happened (w grew), so the check is nontrivial
        assert plus_norm(cur, grid) > 1.5

    def test_second_order_accuracy_in_dt(self):
        # solution error vs a fine-dt reference scales ~ dt^2 (Strang order)
        length, n = 40.0, 256
        k0 = 2.0 * math.pi * 12 / length
        mu = k0 * k0

        def run(dt, t_final=1.0):
            grid = GridSpec(x_min=0.0, x_max=length, n_points=n, dt=dt,
                            boundary="periodic")
            ramp = CouplingRamp(g0_peak=1.0, gamma=2.0, shape="tanh", t_on=0.3,
                                x_lo=10.0, x_hi=30.0)
            state = gaussian_packet(grid, x0=20.0, sigma=4.0, k=k0, mu=mu)
            final, _ = evolve(state, ramp, None, grid, t_final=t_final)
            return np.concatenate([final.u, final.w])

        # dts dividing t_final exactly, so every run ends at the same time;
        # the asymptotic regime for this setup starts near dt = 0.01
        ref = run(0.0002)
        errs = [np.abs(run(dt) - ref).max() for dt in (0.01, 0.005, 0.0025)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.7 < o < 2.3 for o in orders), (errs, orders)

    def test_linearity(self):
        grid = periodic_grid(n=256, dt=0.01)
        ramp = CouplingRamp(g0_peak=0.8, gamma=1.0, shape="const",
                            x_lo=20.0, x_hi=40.0)
        s1 = gaussian_packet(grid, x0=15.0, sigma=3.0, k=2.0, mu=4.0)
        s2 = gaussian_packet(grid, x0=35.0, sigma=2.0, k=-1.0, mu=4.0)
        a, b = 0.3 - 1.1j, 0.8 + 0.2j
        combo = ModeState(u=a * s1.u + b * s2.u, w=a * s1.w + b * s2.w, t=0.0,
                          label=s1.label)
        f1, _ = evolve(s1, ramp, None, grid, 0.5)
        f2, _ = evolve(s2, ramp, None, grid, 0.5)
        fc, _ = evolve(combo, ramp, None, grid, 0.5)
        assert np.abs(fc.u - (a * f1.u + b * f2.u)).max() < 1e-12
        assert np.abs(fc.w - (a * f1.w + b * f2.w)).max() < 1e-12


def unfused_strang_reference(state, ramp, v, grid, n_steps, source_x):
    """Dirichlet evolve by plain Strang steps (oracle for the fused stepper).

    Every step is two unfused half-kicks, u and w transformed separately,
    around the source (the unit carrier switched on at t = 3, as a scalar
    per step), the 2x2 exponential on the whole grid (written with
    np.sinc) and the absorber decay on the whole grid.
    """
    dt = grid.dt
    k = np.pi * np.arange(1, grid.n_points) / grid.length  # the sine basis
    half = np.exp(-1j * (k**2 - state.label.mu) * dt / 2.0)
    gmask = ramp.spatial_mask(grid)
    decay = np.exp(-grid.absorber_profile() * dt)
    isrc = int(np.argmin(np.abs(grid.x - source_x)))

    def half_kick(u, w):
        return (idst(dst(u, type=1) * half, type=1),
                idst(dst(w, type=1) * np.conj(half), type=1))

    u, w = state.u.astype(complex), state.w.astype(complex)
    t = state.t
    for step in range(n_steps):
        t_mid = t + dt / 2.0
        u, w = half_kick(u, w)
        u[isrc] += (-1j * dt / grid.dx) * 0.5 * (1.0 + math.tanh(t_mid - 3.0))
        g = ramp.envelope(t_mid) * gmask
        om = np.sqrt((v * v - g * g).astype(complex))
        c = np.cos(om * dt)
        snc = dt * np.sinc(om * dt / np.pi)  # sin(om dt) / om
        u, w = ((c - 1j * snc * v) * u - 1j * snc * g * w,
                (c + 1j * snc * v) * w + 1j * snc * g * u)
        u, w = half_kick(u * decay, w * decay)
        t = state.t + (step + 1) * dt
    return state.copy_with(u, w, t)


def sourced_dirichlet_setup():
    """(grid, ramp, potential, state): walls, an absorbing layer, a slab
    ramped on at the left wall and a potential step beyond it; the state
    is empty, for a source at x = 20."""
    grid = GridSpec(x_min=0.0, x_max=40.0, n_points=400, dt=0.01,
                    absorber_width=10.0)
    ramp = CouplingRamp(g0_peak=1.0, gamma=2.0, shape="tanh", t_on=0.5,
                        x_lo=0.0, x_hi=5.0)
    step_potential = np.where((grid.x > 8.0) & (grid.x < 10.0), 0.5, 0.0)
    zeros = np.zeros(grid.x.shape, dtype=complex)
    state = ModeState(u=zeros, w=zeros, t=0.0, label=ModeLabel(mu=4.0, k0=2.0))
    return grid, ramp, step_potential, state


def assert_same_final_state(got, ref):
    scale = max(np.abs(ref.u).max(), np.abs(ref.w).max())
    assert scale > 0
    assert got.t == ref.t
    assert np.abs(got.u - ref.u).max() < 1e-12 * scale
    assert np.abs(got.w - ref.w).max() < 1e-12 * scale


class TestKickFusion:
    """Fusing adjacent half-kicks changes round-off only: a snapshot at every
    step forces every step boundary to exist, a run without snapshots fuses
    all but the guard checks and the final step."""

    def test_sourced_dirichlet_run_with_absorber(self):
        grid, ramp, step_potential, state = sourced_dirichlet_setup()
        n = 150
        plain, none = evolve(state, ramp, step_potential, grid, n * grid.dt,
                             source_x=20.0)
        every, snaps = evolve(state, ramp, step_potential, grid, n * grid.dt,
                              source_x=20.0,
                              snapshot_times=[grid.dt * (i + 1) for i in range(n)])
        assert none == [] and len(snaps) == n
        assert_same_final_state(every, plain)
        # the restricted local step matches the dense one
        ref = unfused_strang_reference(state, ramp, step_potential, grid, n, 20.0)
        assert_same_final_state(plain, ref)

    def test_periodic_run_with_guard(self, monkeypatch):
        grid = periodic_grid(n=256, dt=0.01)
        ramp = CouplingRamp(g0_peak=1.0, gamma=1.0, shape="const",
                            x_lo=20.0, x_hi=40.0)
        state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
        n = 100
        # guard checks every 7 steps split the unsnapshotted run off-period
        monkeypatch.setattr(dynamics, "_CHECK_EVERY", 7)
        plain, _ = evolve(state, ramp, None, grid, n * grid.dt)
        every, snaps = evolve(state, ramp, None, grid, n * grid.dt,
                              snapshot_times=[grid.dt * (i + 1) for i in range(n)])
        assert len(snaps) == n
        assert_same_final_state(every, plain)
        # a snapshot keeps the state of its own step boundary
        mid, _ = evolve(state, ramp, None, grid, 50 * grid.dt)
        assert_same_final_state(snaps[49], mid)


class TestOddExtension:
    """A Dirichlet field is stepped on its odd extension, the periodic grid
    of 2 n_points points: an FFT kick there is the type-I sine-transform
    kick of the grid's points, and a run keeps the extension odd."""

    @pytest.mark.parametrize("n", [16, 1601, 3200])
    def test_kick_matches_sine_transform(self, n):
        # 1601 is prime: the FFT of 3202 points takes pocketfft's Bluestein
        # path
        grid = GridSpec(x_min=0.0, x_max=0.05 * n, n_points=n, dt=0.01)
        stepper = _Stepper(grid, NO_RAMP, None, mu=100.0)
        rng = np.random.default_rng(n)
        g = rng.normal(size=(2, n - 1)) + 1j * rng.normal(size=(2, n - 1))
        k = np.pi * np.arange(1, n) / grid.length  # the sine basis
        half = np.exp(-1j * (k**2 - 100.0) * grid.dt / 2.0)
        half = np.stack([half, np.conj(half)])
        for full in (False, True):
            want = idst((half**2 if full else half) * dst(g, type=1), type=1)
            f = stepper.kick(stepper.embed(*g), full=full)
            # a few ulps: at most 4.1e-15 of the field at these three n
            assert (np.abs(f[:, stepper.points] - want).max()
                    < 1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_states_keep_their_points_only(self, boundary):
        # a Dirichlet snapshot or final state holds a copy of the grid's
        # points, not a view that keeps the (2, 2 n_points) extension
        # alive; on a periodic grid the (2, n_points) field is the points
        grid = GridSpec(x_min=0.0, x_max=60.0, n_points=256, dt=0.01,
                        boundary=boundary)
        state = gaussian_packet(grid, x0=30.0, sigma=4.0, k=1.0)
        final, snaps = evolve(state, NO_RAMP, None, grid, t_final=0.5,
                              snapshot_times=[0.1, 0.5])
        assert len(snaps) == 2
        for mode in [final] + snaps:
            owner = mode.u if mode.u.base is None else mode.u.base
            assert owner.base is None
            assert owner.nbytes == mode.u.nbytes + mode.w.nbytes

    def test_sourced_absorbing_run_stays_odd(self, monkeypatch):
        # the output of the final half-kick is the extension whose points
        # the final state holds
        kicked = []
        kick = _Stepper.kick

        def recorded(self, f, full):
            kicked.append(kick(self, f, full))
            return kicked[-1]

        monkeypatch.setattr(_Stepper, "kick", recorded)
        grid, ramp, step_potential, state = sourced_dirichlet_setup()
        # to t = 6: the source is on from t = 3
        final, _ = evolve(state, ramp, step_potential, grid, 600 * grid.dt,
                          source_x=20.0)
        f, n = kicked[-1], grid.n_points
        assert np.array_equal(f[0, 1:n], final.u)
        assert np.array_equal(f[1, 1:n], final.w)
        # the mirror images and the two walls: round-off of the even part,
        # 2.1e-14 and 2.3e-15 of the field
        scale = np.abs(f).max()
        assert np.abs(f[:, :n:-1] + f[:, 1:n]).max() < 1e-13 * scale
        assert np.abs(f[:, [0, n]]).max() < 1e-13 * scale


class TestSchedule:
    """evolve's per-block schedule (midpoints, source kicks, 2x2 factors)
    gives the bits of the step-by-step expressions at every block size."""

    GRID = GridSpec(x_min=0.0, x_max=40.0, n_points=400, dt=0.01,
                    absorber_width=10.0)
    # the envelope moves every step up to t = 0.34, then saturates at 1.2
    # exactly: the later steps keep the gathered matrix
    RAMP = CouplingRamp(g0_peak=1.2, gamma=100.0, shape="tanh", t_on=0.15,
                        x_lo=2.0, x_hi=8.0)

    def run(self, source_x):
        grid = self.GRID
        if source_x is None:  # guarded: a packet, no source
            state = gaussian_packet(grid, x0=15.0, sigma=3.0, k=3.0, mu=9.0)
        else:
            zeros = np.zeros(grid.x.size, dtype=complex)
            state = ModeState(u=zeros, w=zeros, t=0.03, label=ModeLabel(mu=9.0, k0=3.0))
        # snapshots and guard checks on the boundaries of 7- and 3-step blocks
        times = [state.t + k * grid.dt for k in (7, 21, 22, 40)]
        final, snaps = evolve(state, self.RAMP, 0.3 * (grid.x > 5.0), grid,
                              state.t + 45 * grid.dt, source_x=source_x,
                              snapshot_times=times)
        return [(s.t, s.u.tobytes(), s.w.tobytes()) for s in [final, *snaps]]

    @pytest.mark.parametrize("source_x", [20.0, None])
    def test_same_bits_at_every_block_size(self, monkeypatch, source_x):
        monkeypatch.setattr(dynamics, "_CHECK_EVERY", 7)
        runs = []
        for steps in (1, 3, 7, 64, 10**6):
            monkeypatch.setattr(dynamics, "_SCHEDULE_STEPS", steps)
            runs.append(self.run(source_x))
        assert len(runs[0]) == 5
        assert all(r == runs[0] for r in runs[1:])

    def test_source_values_have_the_scalar_bits(self):
        # the fixed carrier against the general source it replaced, at the
        # one setting in use (amplitude 1, delta 0, t_on 3, tau_on 1): as
        # that source's block expression, and as its scalar expression per
        # step times the step's kick
        ts = (0.03 + np.arange(2000) * 0.01) + 0.01 / 2.0
        got = dynamics._carrier(ts)
        edge = [math.tanh(x) for x in ((ts - 3.0) / 1.0).tolist()]
        block = 1.0 * (0.5 * (1.0 + np.array(edge))) * np.exp(-1j * 0.0 * ts)
        assert block.tobytes() == got.tobytes()
        kick = -1j * 0.01 / 0.05
        want = [kick * (1.0 * (0.5 * (1.0 + math.tanh((t - 3.0) / 1.0)))
                        * np.exp(-1j * 0.0 * t)) for t in ts.tolist()]
        assert np.array(want).tobytes() == (kick * got).tobytes()


def expm_local_step(f, v, g, dt):
    """f after exp(-i dt [[V, g], [-g, -V]]) at each point, by scipy's expm
    (oracle for the stepper's closed form)."""
    out = np.empty_like(f)
    for j in range(f.shape[1]):
        e = expm(-1j * dt * np.array([[v[j], g[j]], [-g[j], -v[j]]]))
        out[:, j] = e @ f[:, j]
    return out


@pytest.mark.parametrize("x", [0.0, 30.0])
def test_zero_length_support_couples_no_point(x):
    # both edge rules gave the grid point lying at x the weight 0.5 (dx =
    # 0.9375); [0, 0] is the default support
    grid = periodic_grid(n=64)
    ramp = CouplingRamp(g0_peak=1.0, gamma=1.0, x_lo=x, x_hi=x)
    assert not ramp.spatial_mask(grid).any()


class TestLocalStepExponential:
    """The closed-form 2x2 exponential, evaluated on the distinct
    (V, g-mask) pairs of the coupled span and gathered to the points,
    against a per-point matrix exponential."""

    GRID = GridSpec(x_min=0.0, x_max=20.0, n_points=200, dt=0.05)
    RAMP = CouplingRamp(g0_peak=1.5, gamma=1.0, shape="tanh", t_on=0.0,
                        x_lo=5.0, x_hi=10.0)
    # envelopes from about 4e-3 to 1.5, then a repeat (the cached matrix)
    T_MIDS = (-3.0, -0.4, 0.0, 0.7, 3.0, 3.0)

    def check(self, potential, n_distinct):
        grid, ramp = self.GRID, self.RAMP
        v = np.zeros(grid.x.size) if potential is None else potential(grid.x)
        stepper = _Stepper(grid, ramp, v, mu=4.0)
        assert stepper.v.size == n_distinct
        gmask = ramp.spatial_mask(grid)
        rng = np.random.default_rng(5)
        # the grid's points on the stepper's odd extension
        f = stepper.embed(*(rng.normal(size=(2, grid.x.size))
                            + 1j * rng.normal(size=(2, grid.x.size))))
        points, n = stepper.points, grid.n_points
        signs = set()
        for t_mid in self.T_MIDS:
            g = ramp.envelope(t_mid) * gmask
            want = expm_local_step(f[:, points], v, g, grid.dt)
            stepper.local_step(f, stepper.local_factors(np.array([t_mid]))[0])
            assert np.abs(f[:, points] - want).max() < 1e-13 * np.abs(want).max()
            # the mirror images carry the negated values bit for bit
            assert np.array_equal(f[:, :n:-1], -f[:, points])
            signs.update(np.sign(v * v - g * g))
        return signs

    def test_no_potential_half_weight_edges(self):
        gmask = self.RAMP.spatial_mask(self.GRID)
        assert np.count_nonzero(gmask == 0.5) == 2
        # the slab's full and half weights: V^2 - g^2 < 0 throughout
        assert self.check(None, n_distinct=2) == {-1.0, 0.0}

    def test_smooth_potential_all_distinct(self):
        def potential(x):
            return 0.3 + 0.5 * np.tanh((x - 7.0) / 3.0)

        span = self.GRID.x.size  # nonzero everywhere: the whole grid couples
        assert self.check(potential, n_distinct=span) == {-1.0, 1.0}

    def test_potential_outside_slab(self):
        # a step at [12, 14] beyond the slab [5, 10]: the span runs from the
        # slab to the step, through points where V = g = 0
        def potential(x):
            return np.where((x > 12.0) & (x < 14.0), 0.7, 0.0)

        # (0, 0.5), (0, 1), (0, 0) between them, (0.7, 0)
        assert self.check(potential, n_distinct=4) == {-1.0, 0.0, 1.0}

    def test_env_on_both_signs(self):
        # V = 0.75 on the slab: V^2 - g^2 changes sign at env = 0.75 (full
        # weight) and 1.5 (half weight, not reached), so full-weight points
        # take both branches of the complex square root; at t_mid = 0 the
        # envelope is 0.75 exactly, the nilpotent case V = g of the
        # small-phase branch
        def potential(x):
            return np.where((x > 4.0) & (x < 11.0), 0.75, 0.0)

        assert self.RAMP.envelope(0.0) == 0.75
        signs = self.check(potential, n_distinct=3)
        assert {-1.0, 0.0, 1.0} <= signs


def nd_kick(f, half, full):
    """One kick by the n-D scipy.fft transforms over the last axis only."""
    spec = fftn(f, axes=(-1,))
    return ifftn(spec * (half**2 if full else half), axes=(-1,))


class TestOneAxisTransforms:
    """The steppers' 1-D transform calls give the n-D calls' numbers
    exactly: the FFT kicks of ``_Stepper``'s (2, n) field along the last
    axis, and the type-I sine transforms of the pair amplitude's (n, |S|)
    column blocks along axis 0, with the axis-1 inverse that ends its 2-D
    transform."""

    N = 125

    def field(self, shape):
        rng = np.random.default_rng(11)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def test_kick(self):
        stepper = _Stepper(periodic_grid(n=self.N), NO_RAMP, None, mu=4.0)
        f = self.field((2, self.N))
        for full in (False, True):
            assert np.array_equal(stepper.kick(f.copy(), full=full),
                                  nd_kick(f, stepper.half, full))

    def test_split_kick(self):
        stepper = _Stepper(periodic_grid(n=self.N), NO_RAMP, None, mu=4.0)
        f = self.field((2, self.N))
        at, on = stepper.split_kick(f.copy())
        assert np.array_equal(at, nd_kick(f, stepper.half, False))
        assert np.array_equal(on, nd_kick(f, stepper.half, True))

    def test_sine_columns(self):
        grid = GridSpec(x_min=-8.0, x_max=8.0, n_points=self.N + 1, dt=0.02)
        basis = pairs._SineBasis(grid, mu=4.0)
        f = self.field((self.N, 5))
        phase = np.exp(-1j * np.linspace(0.0, 6.0, self.N))
        # one side's step S = H Q L Q H on the columns
        spec = dstn(f * basis.half, type=1, axes=(0,)) * phase[:, None]
        want = idstn(spec, type=1, axes=(0,)) * basis.half
        assert np.array_equal(pairs._apply_step(basis, phase, f), want)
        g = self.field((self.N, self.N))
        want = idstn(idstn(g, type=1, axes=(0,)), type=1, axes=(1,))
        assert np.array_equal(basis.inverse(basis.inverse(g.copy()), axis=1), want)


class TestStationaryInterior:
    def test_single_k_rotation_matches_interior_branches(self):
        # uniform coupling over the whole (Dirichlet) box: a sine mode of the
        # box is an eigenmode of the coupled pair, rotating at the interior
        # frequency Omega = sqrt((eps_k - mu)^2 - 1). The scattering solve's
        # interior branches state the inverse relation: the upper branch at
        # detuning d sits at eps = mu + sqrt(1 + d^2), so Omega must equal
        # that d.
        length, n = 20.0, 256
        grid = GridSpec(x_min=0.0, x_max=length, n_points=n, dt=0.001,
                        boundary="dirichlet")
        mu = 4.0
        k = math.pi * 24 / length  # on-grid sine mode
        eps = k * k
        big_a = eps - mu
        assert big_a > 1.0
        d_pred = math.sqrt(big_a**2 - 1.0)
        # cross-check the prediction through the branches themselves
        k_branch, _ = _branches(np.float64(d_pred), np.float64(mu))
        assert (k_branch[0] ** 2).real == pytest.approx(eps, rel=1e-12)

        omega = d_pred  # rotation frequency of the +Omega eigenvector
        vec_w = omega - big_a  # w/u of that eigenvector (g = 1)
        profile = np.sin(k * grid.x)
        state = ModeState(
            u=profile.astype(complex),
            w=vec_w * profile.astype(complex),
            t=0.0,
            label=ModeLabel(mu=mu, k0=k),
        )
        ramp = CouplingRamp(g0_peak=1.0, gamma=1.0, shape="const",
                            x_lo=0.0, x_hi=length)
        # phase advances fold mod 2*pi: accumulate over short snapshots
        n_snap, t_snap = 40, 0.05
        phases = []
        cur = state
        for i in range(n_snap):
            cur, _ = evolve(cur, ramp, None, grid, cur.t + t_snap)
            overlap = complex(np.sum(np.conj(profile) * cur.u))
            phases.append(np.angle(overlap))
        increments = np.diff(np.unwrap([0.0] + phases))
        omega_measured = -float(np.mean(increments)) / t_snap
        assert omega_measured == pytest.approx(omega, rel=1e-4)


def plane_wave_snapshot(mu=9.0):
    """(state, window, grid): the incident wave exp(-3i x) in u on 512
    points of [0, 60], labelled with ``mu``, and the window [10, 14]."""
    grid = GridSpec(x_min=0.0, x_max=60.0, n_points=512, dt=0.01)
    state = ModeState(
        u=np.exp(-1j * 3.0 * grid.x),
        w=np.zeros_like(grid.x, dtype=complex),
        t=0.0,
        label=ModeLabel(mu=mu, k0=3.0),
    )
    return state, OutputWindow(x_lo=10.0, x_hi=14.0), grid


class TestInstabilityAndWindows:
    def test_extractor_zero_coupling(self):
        res = steady_state_beta_squared(100.0, 1e-30, 0.1, length=160.0,
                                        n_points=2560, dt=0.02, measure_c=2.0)
        assert res["beta2"] == pytest.approx(0.0, abs=1e-10)
        assert res["alpha2"] == pytest.approx(1.0, abs=0.05)
        assert set(res) == {"beta2", "alpha2", "grid", "final_state"}

    def test_plane_wave_reads_as_pure_incidence(self):
        # an incident wave alone: nothing converted, and no reflection
        # beyond the Hann window's leakage of the incident wave (3e-5 on
        # this 4-unit window)
        state, window, grid = plane_wave_snapshot()
        est = extract_output_correlators([state, state], window, grid)
        assert est["alpha2"][0.0] < 1e-4
        assert est["beta2"] == {0.0: 0.0}

    def test_window_too_short(self):
        # [1.0, 1.2] holds fewer than 8 of the grid's points
        state, _, grid = plane_wave_snapshot()
        with pytest.raises(WindowTooShortError, match="fewer than 8 points"):
            extract_output_correlators([state], OutputWindow(x_lo=1.0, x_hi=1.2),
                                       grid)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -9.0])
    def test_undefined_channel_named(self, mu):
        # NaN compares False against the closed-channel bound and would
        # give NaN estimates, mu <= 0 has no propagating exterior wave.
        # Named before the window's length is looked at: [1.0, 1.2] holds
        # fewer than 8 points.
        state, window, grid = plane_wave_snapshot(mu)
        for win in (window, OutputWindow(x_lo=1.0, x_hi=1.2)):
            with pytest.raises(ParameterDomainError,
                               match=r"^label\.mu must be finite and > 0") as err:
                extract_output_correlators([state], win, grid)
            assert err.value.name == "label.mu"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_potential_named(self, bad):
        grid = periodic_grid(n=256, dt=0.01)
        state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
        v = np.zeros(grid.x.size)
        v[100] = bad
        with pytest.raises(ParameterDomainError, match="^potential samples"):
            evolve(state, NO_RAMP, v, grid, 10 * grid.dt)

    @pytest.mark.parametrize("scale", [1.1, math.nan], ids=["growth", "nan"])
    def test_guard_trips_on_runaway_local_step(self, monkeypatch, scale):
        # a local step that scales f by 1.1 (or turns it to NaN) each step
        # must trip the guard of a packet with no source, on a periodic
        # grid and on a Dirichlet grid's odd extension, whose guard reads
        # the grid's points
        local_step = _Stepper.local_step

        def runaway(self, f, factors):
            local_step(self, f, factors)
            f *= scale

        monkeypatch.setattr(_Stepper, "local_step", runaway)
        monkeypatch.setattr(dynamics, "_CHECK_EVERY", 10)
        ramp = CouplingRamp(g0_peak=1.0, gamma=1.0, shape="const",
                            x_lo=20.0, x_hi=40.0)
        for boundary in ("periodic", "dirichlet"):
            grid = GridSpec(x_min=0.0, x_max=60.0, n_points=256, dt=0.01,
                            boundary=boundary)
            state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
            with pytest.raises(InstabilityDetectedError):
                evolve(state, ramp, None, grid, 100 * grid.dt)

    def test_history_required(self):
        grid = GridSpec(x_min=0.0, x_max=60.0, n_points=512, dt=0.01)
        with pytest.raises(ParameterDomainError):
            extract_output_correlators([], OutputWindow(10.0, 50.0), grid)


class TestSteadyOutputSmoke:
    def test_beta_matches_scattering_at_moderate_ramp(self):
        # fast smoke version of the steady-output experiment; the full
        # gamma sweep with tight tolerance lives in the acceptance suite
        kappa = 1.0
        res = steady_state_beta_squared(100.0, kappa, 0.1, length=160.0,
                                        n_points=3200, dt=0.02, measure_c=5.0)
        r0 = abs(math.atanh(math.sin(kappa)))
        target = math.sinh(r0) ** 2
        assert res["beta2"] == pytest.approx(target, rel=0.08)
        # symplectic consistency of the measured pair: |alpha|^2 - |beta|^2 = 1
        assert res["alpha2"] - res["beta2"] == pytest.approx(1.0, abs=0.15)

    def test_grid_refinement_within_tolerance(self):
        # halving dx and dt moves the extracted |beta|^2 by less than the
        # claimed experiment tolerance
        kappa = 1.0
        coarse = steady_state_beta_squared(100.0, kappa, 0.1, length=160.0,
                                           n_points=2048, dt=0.04,
                                           measure_c=4.0)
        fine = steady_state_beta_squared(100.0, kappa, 0.1, length=160.0,
                                         n_points=4096, dt=0.02,
                                         measure_c=4.0)
        target = math.sinh(abs(math.atanh(math.sin(kappa)))) ** 2
        assert abs(fine["beta2"] - coarse["beta2"]) / target < 0.05

    def test_threshold_approach_keeps_growing(self):
        # near kappa = pi/2 the output grows without saturating over the
        # run, while a below-threshold point has settled
        def probe(kappa, c):
            return steady_state_beta_squared(
                100.0, kappa, 0.2, length=160.0, n_points=3200, dt=0.02,
                measure_c=c,
            )["beta2"]

        near = [probe(1.55, c) for c in (4.0, 6.0, 8.0)]
        assert near[0] < near[1] < near[2]
        assert (near[2] - near[1]) / near[1] > 0.10  # still growing hard
        far = [probe(1.0, c) for c in (6.0, 8.0)]
        assert abs(far[1] - far[0]) / far[0] < 0.02  # settled
        assert near[2] > 3.0 * far[1]


class TestExports:
    def test_state_columns(self):
        from atomsqueeze.dynamics import export_state_columns

        grid = periodic_grid(n=64, dt=0.01)
        state = gaussian_packet(grid, x0=30.0, sigma=4.0, k=1.0, mu=0.0)
        cols = export_state_columns(state, grid)
        assert cols.shape == (len(grid.x), 5)
        assert np.allclose(cols[:, 0], grid.x)
        assert np.allclose(cols[:, 1] + 1j * cols[:, 2], state.u)
        assert np.allclose(cols[:, 3] + 1j * cols[:, 4], state.w)

    def test_symplectic_norm_trivial_values(self):
        grid = periodic_grid(n=64, dt=0.01)
        state = gaussian_packet(grid, x0=30.0, sigma=4.0, k=1.0, mu=0.0)
        assert symplectic_norm(state, grid) == pytest.approx(1.0, abs=1e-12)
        equal = ModeState(u=state.u, w=state.u.copy(), t=0.0, label=state.label)
        assert symplectic_norm(equal, grid) == pytest.approx(0.0, abs=1e-14)

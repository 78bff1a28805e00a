"""Time-dependent evolution of coupled mode pairs on a spatial grid.

A mode pair (u, w) holds the coefficients of one incoming-mode operator
in the two field components. In the rotating frame it obeys

    i du/dt = (-d2/dx2 /2m + V(x) - mu) u + g(x,t) w
    i dw/dt = -(-d2/dx2 /2m + V(x) - mu) w - g(x,t) u

in coupling units (g0 = 1, 2m = 1, so kinetic energy is k^2 and the group
velocity 2k). The w component evolves under the time-reversed Hamiltonian;
the generator G satisfies sigma3 G = hermitian, so the symplectic norm
integral(|u|^2 - |w|^2) dx is an exact invariant of the continuum flow.

A stationary solution at detuning delta oscillates as u ~ exp(-i*delta*t),
w ~ exp(+i*delta*t) in this frame; substituting recovers the stationary
pair equations of the scattering module, so the two solvers share one
interior eigenstructure. That consistency is what the cross-validation
tests check.

Stepping scheme: Strang splitting between the kinetic phases (applied
exactly in a sine/Fourier basis) and the local 2x2 potential-coupling
generator (applied via its exact matrix exponential). Both stages preserve
the symplectic norm to round-off, so norm conservation is structural; the
solution error is second order in dt. Dirichlet boundaries use a type-I
discrete sine transform (a hard wall at x_min comes for free); periodic
boundaries use the FFT.

One private spectral propagator serves this module and, through its
bound forward and inverse transforms, the pair amplitude of ``pairs``,
which applies one side's step to columns along axis 0, sums over time in
each side's step eigenbasis without stepping, and ends with one 2-D
inverse transform (see ``pairs.pair_amplitude``). The trailing
half-kick of one step and the leading half-kick of the next are fused
into one full kick (the phase squared), which leaves the scheme second
order (Strang, SIAM J. Numer. Anal. 5, 506 (1968)); where the state must
exist at a step boundary (a snapshot time, an instability-guard check)
one forward transform yields both the half-kicked boundary state and
the fully kicked state the next step continues from, and the final step
ends with a half-kick. u and w are carried as one (2, n) array, so each
kick is one forward and one inverse call of a 1-D transform along the
grid axis.
The 2x2 local exponential runs only on the span where g or V is nonzero,
evaluated once per distinct (V, coupling-mask) pair of that span and
gathered to its points; the absorber decay runs only on the absorbing
layer. ``evolve`` precomputes its schedule per block of steps: the step
midpoints, the source kicks and, for the steps whose coupling envelope
moved, the 2x2 factors of the distinct pairs, each as one array
expression with the bits of the step-by-step scalar expression (the tanh
edges stay ``math.tanh`` per step); a block whose envelope does not move
reuses the gathered matrix.

The propagator is the package's only user of scipy: ``scipy.fft`` is
imported when the first propagator is built (the first ``evolve`` or
``pair_amplitude`` call), not with this module, so ``import atomsqueeze``
and the frequency-domain CLI modes load numpy only.

Open geometries are handled with an absorbing layer at the far edge plus a
domain long enough that absorbed flux never re-enters the analysis window,
and a continuous plane-wave source for scattering experiments that would
otherwise need an infinite incoming wave train.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InstabilityDetectedError,
    ParameterDomainError,
    ResolutionError,
    WindowTooShortError,
)
from .params import _require

#: Minimum sampling of the shortest expected wavelength, points per 2*pi/k.
MIN_POINTS_PER_WAVELENGTH = 8

#: Fewest points of a GridSpec.
MIN_GRID_POINTS = 16

#: Norm growth beyond exp(2*g0_peak*t) by this factor trips the instability guard.
INSTABILITY_MARGIN = 1.5

#: Steps per block of ``evolve``'s precomputed schedule (midpoints, source
#: kicks, 2x2 factors): the schedule's memory is this many steps, never the
#: run's length. Each temporary of the factors holds this many rows of the
#: distinct (V, g-mask) pairs: 2 on a slab with no potential, at most one
#: per grid point (3.3 MB of complex on 3200 points) for a potential that
#: differs everywhere.
_SCHEDULE_STEPS = 64


@dataclass(frozen=True)
class AbsorberSpec:
    """Quadratic absorbing layer of ``width`` at the far edge (x_max) of
    the domain; the wall at x_min reflects."""

    width: float = 0.0
    strength: float = 6.0

    def __post_init__(self):
        _require("width", self.width, self.width >= 0, "finite and >= 0")
        _require("strength", self.strength, self.strength >= 0, "finite and >= 0")


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid and step size for one evolution.

    ``boundary`` is 'dirichlet' (field pinned at both edges; the wall of
    the scattering geometry) or 'periodic'. The absorber, when present,
    must fit inside the domain.
    """

    x_min: float
    x_max: float
    n_points: int
    dt: float
    absorber: AbsorberSpec = field(default_factory=AbsorberSpec)
    boundary: str = "dirichlet"

    def __post_init__(self):
        # NaN and +-inf fail the whole-number test too (their remainder is NaN)
        _require("n_points", self.n_points,
                 self.n_points % 1 == 0 and self.n_points >= MIN_GRID_POINTS,
                 f"a whole number >= {MIN_GRID_POINTS}")
        _require("dt", self.dt, self.dt > 0, "finite and > 0")
        _require("x_min", self.x_min)
        _require("x_max", self.x_max)
        if self.x_max <= self.x_min:
            raise ParameterDomainError("x_max must exceed x_min")
        if self.boundary not in ("dirichlet", "periodic"):
            raise ParameterDomainError(f"unknown boundary {self.boundary!r}")
        if not 0.0 <= self.absorber.width <= (self.x_max - self.x_min):
            raise ParameterDomainError("absorber must fit inside the domain")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        """Grid point positions carrying field values.

        Dirichlet grids store the interior points only (endpoints are
        identically zero); periodic grids store n_points points with the
        x_max point identified with x_min.
        """
        if self.boundary == "dirichlet":
            return self.x_min + np.arange(1, self.n_points) * self.dx
        return self.x_min + np.arange(self.n_points) * self.dx

    def wavenumbers(self) -> np.ndarray:
        if self.boundary == "dirichlet":
            return np.pi * np.arange(1, self.n_points) / self.length
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def validate_resolution(self, k_max: float) -> None:
        """Assert at least MIN_POINTS_PER_WAVELENGTH points per 2*pi/k_max."""
        if k_max <= 0:
            return
        needed = 2.0 * np.pi / k_max / MIN_POINTS_PER_WAVELENGTH
        if self.dx > needed:
            raise ResolutionError(
                f"dx={self.dx:.4g} too coarse for k_max={k_max:.4g}: "
                f"need dx <= {needed:.4g}"
            )

    def absorber_profile(self) -> np.ndarray:
        """Damping rate Gamma(x), quadratic in depth into the layer."""
        x = self.x
        g = np.zeros_like(x)
        if self.absorber.width > 0:
            x0 = self.x_max - self.absorber.width
            inside = x > x0
            g[inside] = self.absorber.strength * (
                (x[inside] - x0) / self.absorber.width
            ) ** 2
        return g


@dataclass(frozen=True)
class ModeLabel:
    """Provenance of a mode pair: chemical potential (in coupling units)
    and the nominal carrier wavenumber."""

    mu: float = 0.0
    k0: float = 0.0


@dataclass(frozen=True)
class ModeState:
    """A (u, w) mode pair sampled on a grid at time t."""

    u: np.ndarray
    w: np.ndarray
    t: float
    label: ModeLabel = field(default_factory=ModeLabel)

    def copy_with(self, u, w, t) -> "ModeState":
        return ModeState(u=u, w=w, t=t, label=self.label)


@dataclass(frozen=True)
class CouplingRamp:
    """Coupling field g(x, t): a named temporal profile on a spatial support.

    Shapes:
        'tanh'  : g0_peak * (1 + tanh(gamma*(t - t_on)))/2, ramp on and stay on.
        'pulse' : smooth on at t_on and off at t_off, edge time 1/gamma.
        'const' : g0_peak for all t.

    The spatial support is [x_lo, x_hi] sampled with half weight exactly at
    the edges (trapezoid rule), which keeps the effective slab length
    correct to second order in dx.
    """

    g0_peak: float
    gamma: float
    shape: str = "tanh"
    t_on: float = 0.0
    t_off: float = math.inf
    x_lo: float = 0.0
    x_hi: float = 0.0

    def __post_init__(self):
        _require("g0_peak", self.g0_peak, self.g0_peak >= 0, "finite and >= 0")
        if self.shape not in ("tanh", "pulse", "const"):
            raise ParameterDomainError(f"unknown ramp shape {self.shape!r}")
        if self.shape != "const":
            _require("gamma", self.gamma, self.gamma > 0,
                     "finite and > 0 for ramped shapes")
            _require("t_on", self.t_on, what="finite for ramped shapes")
        if math.isnan(self.t_off):
            raise ParameterDomainError("t_off must be a number or +inf, got nan")

    def envelope(self, t: float) -> float:
        if self.shape == "const":
            return self.g0_peak
        on = 0.5 * (1.0 + math.tanh(self.gamma * (t - self.t_on)))
        if self.shape == "tanh":
            return self.g0_peak * on
        off = 0.5 * (1.0 + math.tanh(self.gamma * (self.t_off - t)))
        return self.g0_peak * on * off

    def spatial_mask(self, grid: GridSpec) -> np.ndarray:
        x = grid.x
        tol = 1e-9 * grid.dx
        mask = np.where((x > self.x_lo + tol) & (x < self.x_hi - tol), 1.0, 0.0)
        mask[np.abs(x - self.x_lo) <= tol] = 0.5
        mask[np.abs(x - self.x_hi) <= tol] = 0.5
        return mask


@dataclass(frozen=True)
class PlaneWaveSource:
    """Continuous injection into the u component at a single grid point.

    Radiates, at frame detuning ``delta`` (zero for a carrier at mu), a
    steady wave train in both directions; in an open geometry the outward
    half is absorbed and the inward half plays the incident beam of a
    scattering experiment. The turn-on is a tanh edge of time scale
    ``tau_on`` centered at ``t_on``. Injected amplitude is per unit time
    per grid cell (the discrete delta carries the 1/dx).
    """

    x_pos: float
    amplitude: float = 1.0
    delta: float = 0.0
    t_on: float = 3.0
    tau_on: float = 1.0

    def __post_init__(self):
        for name in ("x_pos", "amplitude", "delta", "t_on"):
            _require(name, getattr(self, name))
        _require("tau_on", self.tau_on, self.tau_on > 0, "finite and > 0")

    def values(self, ts: np.ndarray) -> np.ndarray:
        """The source at each time of ``ts``. The tanh edge is math.tanh,
        entry by entry (numpy's tanh rounds differently); the rest is one
        array expression with the bits of the same expression on one time.
        """
        edge = [math.tanh(x) for x in ((ts - self.t_on) / self.tau_on).tolist()]
        env = 0.5 * (1.0 + np.array(edge))
        return self.amplitude * env * np.exp(-1j * self.delta * ts)


def symplectic_norm(state: ModeState, grid: GridSpec) -> float:
    """integral(|u|^2 - |w|^2) dx by the grid quadrature.

    On Dirichlet grids the stored interior points with weight dx are the
    trapezoid rule (endpoints vanish identically).
    """
    return float(
        (np.sum(np.abs(state.u) ** 2) - np.sum(np.abs(state.w) ** 2)) * grid.dx
    )


def plus_norm(state: ModeState, grid: GridSpec) -> float:
    return float(
        (np.sum(np.abs(state.u) ** 2) + np.sum(np.abs(state.w) ** 2)) * grid.dx
    )


def _runs(mask: np.ndarray) -> List[slice]:
    """Maximal runs of nonzero entries of a 1-D array, as slices."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask != 0, [False]))))
    return [slice(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]


def _potential_samples(v, name: str, x: np.ndarray) -> np.ndarray:
    """Potential samples on the grid points ``x``: zeros for None, else
    finite floats of x's shape; a ParameterDomainError naming ``name``
    otherwise."""
    if v is None:
        return np.zeros_like(x)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ParameterDomainError(
            f"{name} samples shape {v.shape} != grid shape {x.shape}"
        )
    if not np.isfinite(v).all():
        raise ParameterDomainError(f"{name} samples must be finite")
    return v


class _SpectralPropagator:
    """Exact kinetic kicks of a field, in the sine or Fourier basis.

    ``half`` is the spectral phase of one Strang half-kick, broadcast
    against the transformed field; ``axis`` is the one transformed axis.
    A full kick (two adjacent half-kicks fused) multiplies the precomputed
    squared phase, so it costs one forward and one inverse transform, the
    same as a half-kick. The transforms are the 1-D ``scipy.fft`` calls
    (type-I ``dst``/``idst`` or ``fft``/``ifft``), bound once to the axis:
    the n-D wrappers run the same pocketfft kernel behind a per-call
    dispatch that costs about as much as the kernel on small grids. They
    run in place on the caller's field, and are the attributes
    ``forward`` and ``inverse`` for callers that work in the spectral
    basis themselves (``pairs.pair_amplitude``, which builds a side's
    step from them and ``half``, and also passes ``axis=1`` for its one
    2-D inverse).
    """

    def __init__(self, half: np.ndarray, dirichlet: bool, axis: int):
        # not at module level: scipy loads with the first stepper only
        from scipy.fft import dst, fft, idst, ifft

        self.half = half
        self.full = half**2
        if dirichlet:
            forward, inverse, kw = dst, idst, {"type": 1}
        else:
            forward, inverse, kw = fft, ifft, {}
        self.forward = functools.partial(forward, axis=axis, overwrite_x=True, **kw)
        self.inverse = functools.partial(inverse, axis=axis, overwrite_x=True, **kw)

    def kick(self, f: np.ndarray, full: bool) -> np.ndarray:
        spec = self.forward(f)
        spec *= self.full if full else self.half
        return self.inverse(spec)

    def split_kick(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Half-kicked and full-kicked ``f`` from one forward transform."""
        spec = self.forward(f)
        half = spec * self.half
        spec *= self.full
        return self.inverse(half), self.inverse(spec)


class _Stepper:
    """Precomputed stage operators for one (grid, ramp, potential) setup.

    The field is the stacked pair f = [u, w] of shape (2, n), so one
    transform along the last axis kicks both components.
    """

    def __init__(self, grid: GridSpec, ramp: CouplingRamp, potential, mu: float):
        self.grid = grid
        self.ramp = ramp
        k = grid.wavenumbers()
        half = np.exp(-1j * (k**2 - mu) * grid.dt / 2.0)
        self.kinetic = _SpectralPropagator(
            np.stack([half, np.conj(half)]),
            dirichlet=grid.boundary == "dirichlet",
            axis=-1,
        )
        x = grid.x
        if callable(potential):
            potential = potential(x)
        v = _potential_samples(potential, "potential", x)
        gmask = ramp.spatial_mask(grid)
        # outside the span where g or V can be nonzero the 2x2 step is the
        # identity; the absorber decay is a real scalar per point, so it
        # commutes with the 2x2 step and runs on its own layer(s) only
        runs = _runs((gmask != 0) | (v != 0))
        self.coupled = slice(runs[0].start, runs[-1].stop) if runs else None
        if self.coupled is not None:
            # the 2x2 step of a point depends on its (V, g-mask) pair only:
            # keep the distinct pairs (the complex key holds both exactly)
            # and, per point, the index of its pair
            pairs, self._index = np.unique(
                v[self.coupled] + 1j * gmask[self.coupled], return_inverse=True
            )
            self.v = pairs.real
            self.gmask = pairs.imag
            self._env = math.nan  # the envelope of the last scheduled step
        profile = grid.absorber_profile()
        self.absorber = [(s, np.exp(-profile[s] * grid.dt)) for s in _runs(profile)]

    def local_factors(self, t_mids: np.ndarray) -> list:
        """The 2x2 factors of a block of steps at midpoints ``t_mids``, one
        entry per step for ``local_step``, in step order.

        With Omega = sqrt(V^2 - g^2) (possibly imaginary) the exponential of
        -i*dt*[[V, g], [-g, -V]] is cos(Omega dt) I - i sinc-like(Omega dt)
        [[V, g], [-g, -V]]; evaluated with the complex cos/sin so both signs
        of V^2 - g^2 are covered by one formula. An entry is (uu, uw, ww) on
        the distinct (V, g-mask) pairs of the coupled span (two on a slab
        with no potential) where the envelope moved from the step before,
        all such steps of the block evaluated as one array; it is None where
        the envelope did not move (a constant or saturated ramp), and for
        every step when nothing couples: ``local_step`` then keeps the
        matrix it gathered last.
        """
        factors = [None] * len(t_mids)
        if self.coupled is None:
            return factors
        env = np.array([self.ramp.envelope(t) for t in t_mids.tolist()])
        moved = np.flatnonzero(env != np.concatenate(([self._env], env[:-1])))
        self._env = env[-1]
        if moved.size:
            g = env[moved, None] * self.gmask
            v = self.v
            dt = self.grid.dt
            om = np.sqrt((v * v - g * g).astype(complex))
            phi = om * dt
            c = np.cos(phi)
            # sin(phi)/om -> dt as om -> 0
            small = np.abs(phi) < 1e-8
            snc = np.where(small, dt, np.sin(np.where(small, 1.0, phi)) /
                           np.where(small, 1.0 / dt, om))
            rows = zip(c - 1j * snc * v, 1j * snc * g, c + 1j * snc * v)
            for step, row in zip(moved.tolist(), rows):
                factors[step] = row
        return factors

    def local_step(self, f, factors):
        """One step's 2x2 exponential at each point of the coupled span,
        then the absorber decay; in place on the stacked field.

        ``factors`` is the step's entry of ``local_factors``: new factors
        are gathered from the distinct pairs to the points, None keeps the
        gathered matrix of the step before.
        """
        s = self.coupled
        if s is not None:
            if factors is not None:
                i = self._index
                self._matrix = tuple(entry[i] for entry in factors)
            uu, uw, ww = self._matrix
            u, w = f[0, s], f[1, s]
            un = uu * u - uw * w
            f[1, s] = ww * w + uw * u
            f[0, s] = un
        for s, decay in self.absorber:
            f[:, s] *= decay


def evolve(
    state: ModeState,
    ramp: CouplingRamp,
    potential,
    grid: GridSpec,
    t_final: float,
    source: Optional[PlaneWaveSource] = None,
    snapshot_times: Optional[Sequence[float]] = None,
    check_every: int = 50,
) -> Tuple[ModeState, List[ModeState]]:
    """Advance a mode pair to ``t_final``; optionally record snapshots.

    Returns (final_state, snapshots). Snapshots are taken at the first step
    boundary at or after each requested time. The instability guard
    compares the plus-norm against the analytic bound
    exp(2*g0_peak*(t-t0)) every ``check_every`` steps.

    Adjacent Strang half-kicks are fused into one kinetic kick. Where the
    state must exist at a step boundary (a snapshot time or a guard check)
    one forward transform gives both the boundary state and the state
    kicked on into the next step; the final step ends with a half-kick.

    ``potential`` is None (zero), samples on grid.x, or a callable of
    grid.x returning them.

    Raises ParameterDomainError at setup, naming the field, if
    ``t_final``, ``state.t`` or a snapshot time is not finite,
    ``t_final`` precedes ``state.t``, ``label.mu`` or ``label.k0`` of
    the state is not finite, ``check_every`` is not a whole number >= 1
    (so not infinite either), the source sits outside
    [grid.x_min, grid.x_max], or the potential samples are not finite or
    not of the grid's shape; ResolutionError
    if the grid cannot resolve the mode's nominal carrier (label.k0), and
    InstabilityDetectedError if the norm is not within the bound (a NaN
    norm included) mid-run.
    """
    _require("t_final", t_final)
    _require("state.t", state.t)
    if t_final < state.t:
        raise ParameterDomainError("t_final precedes the state's current time")
    # a NaN mu turns every kinetic phase NaN; a NaN k0 skips the
    # resolution check
    _require("label.mu", state.label.mu)
    _require("label.k0", state.label.k0)
    if snapshot_times is not None:
        _require("snapshot_times", np.asarray(snapshot_times, dtype=float))
    # NaN, +inf and 1.5 fail the whole-number test (an interval the step
    # count never reaches would turn the guard off)
    _require("check_every", check_every,
             check_every % 1 == 0 and check_every >= 1, "a whole number >= 1")
    if source is not None:
        _require("x_pos", source.x_pos, grid.x_min <= source.x_pos <= grid.x_max,
                 f"in [grid.x_min, grid.x_max] = [{grid.x_min!r}, {grid.x_max!r}]")
    grid.validate_resolution(state.label.k0)
    stepper = _Stepper(grid, ramp, potential, mu=state.label.mu)
    u = np.asarray(state.u)
    w = np.asarray(state.w)
    if u.shape != grid.x.shape or w.shape != grid.x.shape:
        raise ParameterDomainError("state arrays do not match the grid")
    f = np.array([u, w], dtype=complex)
    isrc = None
    if source is not None:
        isrc = int(np.argmin(np.abs(grid.x - source.x_pos)))

    n_steps = int(math.ceil((t_final - state.t) / grid.dt - 1e-12))
    pending = sorted(snapshot_times) if snapshot_times is not None else []
    snapshots: List[ModeState] = []
    norm0 = plus_norm(state, grid)
    guarded = norm0 > 0 and source is None
    t = state.t
    t0 = state.t
    injection = -1j * grid.dt / grid.dx  # a source value's kick at its grid point
    # the kick a step opens with: "half", "full", or "done" by split_kick
    lead = "half"
    for lo in range(0, n_steps, _SCHEDULE_STEPS):
        steps = np.arange(lo, min(lo + _SCHEDULE_STEPS, n_steps))
        # the scalar loop's midpoints t + dt/2, t = t0 + k*dt (t0 at k = 0)
        t_mids = (t0 + steps * grid.dt) + grid.dt / 2.0
        factors = stepper.local_factors(t_mids)
        if isrc is not None:
            kicks = injection * source.values(t_mids)
        for j, step in enumerate(steps.tolist()):
            if lead != "done":
                f = stepper.kinetic.kick(f, full=lead == "full")
            if isrc is not None:
                f[0, isrc] += kicks[j]
            stepper.local_step(f, factors[j])
            t = t0 + (step + 1) * grid.dt

            snap = bool(pending) and t >= pending[0] - 1e-12
            check = guarded and (step + 1) % check_every == 0
            if step == n_steps - 1:
                f = stepper.kinetic.kick(f, full=False)
                at = f.copy() if snap else f  # the last snapshot must not alias f
            elif snap or check:
                # the boundary state (fresh arrays), and f kicked on through
                # the next step's leading half-kick, from one forward transform
                at, f = stepper.kinetic.split_kick(f)
                lead = "done"
            else:
                lead = "full"
                continue
            if snap:
                while pending and t >= pending[0] - 1e-12:
                    pending.pop(0)
                snapshots.append(state.copy_with(at[0], at[1], t))
            if check:
                bound = norm0 * math.exp(2.0 * ramp.g0_peak * (t - t0))
                norm = plus_norm(state.copy_with(at[0], at[1], t), grid)
                if not norm <= INSTABILITY_MARGIN * bound:
                    raise InstabilityDetectedError(
                        f"norm exceeded exp(2 g0 t) bound at t={t:.4g}"
                    )
    final = state.copy_with(f[0], f[1], t)
    return final, snapshots


@dataclass(frozen=True)
class OutputWindow:
    """Analysis region [x_lo, x_hi] for projecting onto outgoing waves."""

    x_lo: float
    x_hi: float

    def indices(self, grid: GridSpec) -> np.ndarray:
        x = grid.x
        return np.where((x >= self.x_lo) & (x <= self.x_hi))[0]


def _hann_project(values: np.ndarray, xs: np.ndarray, k: float) -> complex:
    """Amplitude of the exp(-i k x) component under a Hann window."""
    win = np.hanning(len(xs))
    win = win / win.sum()
    return complex(np.sum(win * values * np.exp(1j * k * xs)))


def extract_output_correlators(
    history: Sequence[ModeState],
    window: OutputWindow,
    grid: GridSpec,
    detunings: Sequence[float] = (0.0,),
):
    """Estimate |alpha|^2 and |beta|^2 per detuning from steady snapshots.

    Projects the window region of each snapshot onto the outgoing plane
    waves of both channels: at frame detuning Delta the u channel reflects
    into exp(+i k_u x) and the w channel radiates exp(-i k_w x), with
    k_{u,w} = sqrt(mu +/- Delta); the incident amplitude is read from the
    exp(-i k_u x) component of u. Returns a dict with per-detuning mean
    estimates and the across-snapshot estimator variance.

    Raises ParameterDomainError, naming the field, when ``label.mu`` or a
    detuning is not finite or ``detunings`` is empty, and when a detuning
    closes an exterior channel (|Delta| >= mu); all are checked before
    WindowTooShortError, raised when the window holds fewer than 8 points
    or the requested detuning spacing is finer than the window's spectral
    resolution (group velocity times 2*pi / window length).
    """
    if not history:
        raise ParameterDomainError("history must contain at least one snapshot")
    mu = history[0].label.mu
    det = np.asarray(list(detunings), dtype=float)
    _require("label.mu", mu)
    _require("number of detunings", det.size, det.size > 0, "> 0")
    _require("detunings", det)
    for dd in det:
        if mu - abs(dd) <= 0:
            raise ParameterDomainError(f"exterior channel closed at detuning {dd}")
    idx = window.indices(grid)
    if len(idx) < 8:
        raise WindowTooShortError("analysis window contains fewer than 8 points")
    xs = grid.x[idx]
    length = xs[-1] - xs[0]
    if det.size > 1:
        spacing = np.min(np.diff(np.sort(det)))
        k0 = math.sqrt(mu)
        resolution = 2.0 * k0 * (2.0 * np.pi / length)  # dDelta = v * dk
        if spacing < resolution:
            raise WindowTooShortError(
                f"detuning spacing {spacing:.4g} below window resolution "
                f"{resolution:.4g}"
            )
    alpha2 = {}
    beta2 = {}
    var_alpha2 = {}
    var_beta2 = {}
    for dd in det:
        ku = math.sqrt(mu + dd)
        kw = math.sqrt(mu - dd)
        a_s, b_s = [], []
        for st in history:
            uu = st.u[idx]
            ww = st.w[idx]
            a_in = _hann_project(uu, xs, ku)
            u_out = _hann_project(uu, xs, -ku)
            w_out = _hann_project(ww, xs, kw)
            if abs(a_in) == 0.0:
                raise ParameterDomainError("no incident amplitude in window")
            a_s.append(abs(u_out / a_in) ** 2)
            # flux normalization: amplitude ratios carry sqrt(k) weights,
            # so the cross-channel power picks up one factor k_w/k_u
            b_s.append((kw / ku) * abs(w_out / a_in) ** 2)
        alpha2[float(dd)] = float(np.mean(a_s))
        beta2[float(dd)] = float(np.mean(b_s))
        var_alpha2[float(dd)] = float(np.var(a_s))
        var_beta2[float(dd)] = float(np.var(b_s))
    return {
        "alpha2": alpha2,
        "beta2": beta2,
        "alpha2_variance": var_alpha2,
        "beta2_variance": var_beta2,
    }


def gaussian_packet(
    grid: GridSpec, x0: float, sigma: float, k: float, mu: float = 0.0
) -> ModeState:
    """Unit-norm Gaussian wavepacket in u (w empty), carrier exp(+i k x)."""
    x = grid.x
    u = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k * x).astype(complex)
    u /= math.sqrt(float(np.sum(np.abs(u) ** 2) * grid.dx))
    w = np.zeros_like(u)
    return ModeState(u=u, w=w, t=0.0, label=ModeLabel(mu=mu, k0=abs(k)))


def steady_state_beta_squared(
    big_m: float,
    kappa: float,
    gamma_ratio: float,
    *,
    length: float = 160.0,
    n_points: int = 3200,
    dt: float = 0.01,
    measure_c: float = 5.0,
) -> dict:
    """Measure |beta(Delta=0)|^2 through a coupling ramp of rate gamma.

    The full steady-output numerical experiment: a hard wall at x = 0, the
    coupling slab on [0, a], an analysis window beyond it, a continuous
    plane-wave source at the carrier k0 = sqrt(M) farther out, and an
    absorbing layer at the far edge. The source settles for 20 time units;
    then g ramps on with rate gamma = gamma_ratio * g0, centered at
    t0 = 20 + 4 / gamma, and the output is measured at
    t0 + measure_c / gamma so every ramp rate is probed at the same point
    of its own schedule (the residual ramp deficit is then identical
    across gamma values and the remaining discrepancy against the
    stationary sinh^2(r) is the non-steady transient, which shrinks as the
    ramp slows).

    The slab edge is placed exactly on a grid point; call with parameters
    that keep kappa*sqrt(M)/dx integral for best accuracy (the default
    length/n_points give dx = 0.05).

    Returns a dict with the measured |beta0|^2, the measured |alpha0|^2,
    snapshot variance, and the run's bookkeeping. A ``big_m`` or
    ``gamma_ratio`` that is not finite and > 0, a ``kappa`` that is not
    finite and >= 0, or a ``measure_c`` that is not finite is a
    ParameterDomainError naming it.
    """
    _require("big_m", big_m, big_m > 0, "finite and > 0")
    _require("kappa", kappa, kappa >= 0, "finite and >= 0")
    _require("gamma_ratio", gamma_ratio, gamma_ratio > 0, "finite and > 0")
    _require("measure_c", measure_c)
    k0 = math.sqrt(big_m)
    a = kappa * math.sqrt(big_m)
    grid = GridSpec(
        x_min=0.0,
        x_max=length,
        n_points=n_points,
        dt=dt,
        absorber=AbsorberSpec(width=0.38 * length, strength=6.0),
        boundary="dirichlet",
    )
    # align the slab edge to the grid; a mismatch biases the slab phase
    ia = round(a / grid.dx)
    if abs(ia * grid.dx - a) > 1e-9 * max(a, 1.0):
        raise ResolutionError(
            f"slab edge a={a!r} not on the grid (dx={grid.dx!r}); "
            "choose length/n_points so a/dx is an integer"
        )
    grid.validate_resolution(k0)
    t0_ramp = 20.0 + 4.0 / gamma_ratio
    t_meas = t0_ramp + measure_c / gamma_ratio
    ramp = CouplingRamp(
        g0_peak=1.0, gamma=gamma_ratio, shape="tanh", t_on=t0_ramp, x_lo=0.0, x_hi=a
    )
    source = PlaneWaveSource(x_pos=0.58 * length, amplitude=1.0, delta=0.0)
    window = OutputWindow(x_lo=0.15 * length, x_hi=0.48 * length)
    state = ModeState(
        u=np.zeros(grid.x.shape, dtype=complex),
        w=np.zeros(grid.x.shape, dtype=complex),
        t=0.0,
        label=ModeLabel(mu=big_m, k0=k0),
    )
    # three closely spaced snapshots at the end give the estimator variance
    snap_times = [t_meas - 2.0 * grid.dt * i for i in range(3)][::-1]
    _, snaps = evolve(
        state, ramp, None, grid, t_meas, source=source, snapshot_times=snap_times
    )
    est = extract_output_correlators(snaps, window, grid, detunings=(0.0,))
    return {
        "beta2": est["beta2"][0.0],
        "alpha2": est["alpha2"][0.0],
        "beta2_variance": est["beta2_variance"][0.0],
        "big_m": big_m,
        "kappa": kappa,
        "gamma_ratio": gamma_ratio,
        "t_ramp_center": t0_ramp,
        "t_measured": t_meas,
        "grid": grid,
        "final_state": snaps[-1],
    }


def export_state_columns(state: ModeState, grid: GridSpec) -> np.ndarray:
    """Snapshot as columns (x, Re u, Im u, Re w, Im w) for inspection."""
    return np.column_stack(
        [grid.x, state.u.real, state.u.imag, state.w.real, state.w.imag]
    )

"""Time-dependent evolution of coupled mode pairs on a spatial grid.

A mode pair (u, w) holds the coefficients of one incoming-mode operator
in the two field components. In the rotating frame it obeys

    i du/dt = (-d2/dx2 /2m - mu) u + g(x,t) w
    i dw/dt = -(-d2/dx2 /2m - mu) w - g(x,t) u

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
exactly in the Fourier basis) and the local 2x2 coupling generator, whose
exponential is the hyperbolic rotation by g dt (cosh and sinh in closed
form). Both stages preserve the symplectic norm to round-off, so norm
conservation is structural; the solution error is second order in dt.
Periodic boundaries use the FFT of the grid. Dirichlet boundaries (hard
walls at x_min and x_max) step the field's odd extension, the periodic
grid of 2 n_points points on which f(2 x_max - x) = -f(x): its FFT kick
is the type-I discrete sine transform kick of the grid, in one complex
FFT pair that costs less than the sine-transform pair (see ``_Stepper``).
The grid's field is embedded once per run; snapshots and the final state
hold copies of its points, and guard norms read them in place. Both
stages are even in x, so round-off in the extension's even part never
feeds its odd part, and the local stage restores the odd symmetry exactly
on the points it touches.

The stepper owns its kinetic kicks: u and w are carried as one (2, m)
array, so each kick is one forward and one inverse call of a 1-D FFT
along the grid axis. The trailing half-kick of one step and the leading
half-kick of the next are fused into one full kick (the phase squared),
which leaves the scheme second order (Strang, SIAM J. Numer. Anal. 5, 506
(1968)). Only a snapshot splits a kick: one forward transform yields the
half-kicked boundary state and the fully kicked state the next step
continues from; the final step ends with a half-kick. The instability
guard reads the kicked field once per schedule block and at the end of
the run: the kicks are unitary and keep the extension odd, so the
field's points hold the plus-norm of the boundary state.
The local rotation runs only on the span where g is nonzero (and, on
the odd extension, is copied negated to the span's mirror image),
evaluated once per distinct coupling-mask value of that span (the slab's
1 and its edges' 0.5) and gathered to its points; the absorber decay
runs only on the absorbing layer (and its mirror image). ``evolve``
precomputes its schedule per block of steps: the step midpoints, the
source kicks and, for the steps whose coupling envelope moved, the
rotation's factors on the distinct mask values, each as one array
expression with the bits of the step-by-step scalar expression (the tanh
edges stay ``math.tanh`` per step); a block whose envelope does not move
reuses the gathered factors.

scipy has two users in the package, ``_Stepper`` here and
``pairs.pair_amplitude``, which keeps its own type-I sine basis: each
imports ``scipy.fft`` on first use (the first stepper built, the first
pair amplitude), not with its module. This module itself loads on first
use too: ``import atomsqueeze`` binds its names lazily, and only the
``dynamics`` and ``pairs`` CLI modes import it, so the frequency-domain
modes load neither it nor scipy.

Open geometries are handled with an absorbing layer at the far edge plus a
domain long enough that absorbed flux never re-enters the analysis window,
and one fixed continuous source for scattering experiments that would
otherwise need an infinite incoming wave train: a unit carrier at mu,
injected into u at one grid point and switched on once (see ``evolve``).
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
from .params import MIN_GRID_POINTS, _require

#: Minimum sampling of the shortest expected wavelength, points per 2*pi/k.
MIN_POINTS_PER_WAVELENGTH = 8

#: Norm growth beyond exp(2*g0_peak*t) by this factor trips the instability guard.
INSTABILITY_MARGIN = 1.5

#: Steps per block of ``evolve``'s precomputed schedule (midpoints, source
#: kicks, rotation factors): the schedule's memory is this many steps (the
#: factors times the slab's distinct mask values, at most 2), never the
#: run's length. The instability guard checks once per block.
_SCHEDULE_STEPS = 64

#: Damping rate at the far edge of a GridSpec's absorbing layer, in g0.
ABSORBER_STRENGTH = 6.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid and step size for one evolution.

    ``boundary`` is 'dirichlet' (field pinned at both edges; the wall of
    the scattering geometry) or 'periodic'. ``absorber_width`` > 0 puts a
    quadratic absorbing layer of that width, rising to
    ``ABSORBER_STRENGTH``, at the far edge (x_max); the wall at x_min
    reflects. The layer must fit inside the domain.
    """

    x_min: float
    x_max: float
    n_points: int
    dt: float
    absorber_width: float = 0.0
    boundary: str = "dirichlet"

    def __post_init__(self):
        # NaN and +-inf fail the whole-number test too (their remainder is NaN)
        _require("n_points", self.n_points,
                 self.n_points % 1 == 0 and self.n_points >= MIN_GRID_POINTS,
                 f"a whole number >= {MIN_GRID_POINTS}")
        _require("dt", self.dt, self.dt > 0, "finite and > 0")
        _require("x_min", self.x_min)
        _require("x_max", self.x_max, self.x_max > self.x_min, "finite and > x_min")
        _require("boundary", self.boundary, self.boundary in ("dirichlet", "periodic"),
                 "'dirichlet' or 'periodic'", finite=False)
        _require("absorber_width", self.absorber_width,
                 0.0 <= self.absorber_width <= self.length,
                 f"finite and in [0, x_max - x_min] = [0, {self.length!r}]")

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

    def validate_resolution(self, k_max: float) -> None:
        """Assert at least MIN_POINTS_PER_WAVELENGTH points per 2*pi/|k_max|
        (a carrier exp(-i k x) needs the dx of exp(+i k x))."""
        if k_max == 0:
            return
        needed = 2.0 * np.pi / abs(k_max) / MIN_POINTS_PER_WAVELENGTH
        if self.dx > needed:
            raise ResolutionError(
                f"dx={self.dx:.4g} too coarse for k_max={k_max:.4g}: "
                f"need dx <= {needed:.4g}"
            )

    def absorber_profile(self) -> np.ndarray:
        """Damping rate Gamma(x), quadratic in depth into the layer."""
        x = self.x
        g = np.zeros_like(x)
        if self.absorber_width > 0:
            x0 = self.x_max - self.absorber_width
            inside = x > x0
            g[inside] = ABSORBER_STRENGTH * (
                (x[inside] - x0) / self.absorber_width
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

    The spatial support is [x_lo, x_hi], finite with x_hi >= x_lo (0, 0
    by default), sampled with half weight exactly at the edges (trapezoid
    rule), which keeps the effective slab length correct to second order
    in dx. A support of zero length (to within the edge tolerance, 1e-9
    dx at each edge) couples no point.
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
        _require("shape", self.shape, self.shape in ("tanh", "pulse", "const"),
                 "'tanh', 'pulse' or 'const'", finite=False)
        if self.shape != "const":
            _require("gamma", self.gamma, self.gamma > 0,
                     "finite and > 0 for ramped shapes")
            _require("t_on", self.t_on, what="finite for ramped shapes")
        _require("t_off", self.t_off, not math.isnan(self.t_off), "a number or +inf",
                 finite=False)
        # a NaN edge matches no grid point and a reversed support none
        # between its edges: both would run uncoupled
        _require("x_lo", self.x_lo)
        _require("x_hi", self.x_hi, self.x_hi >= self.x_lo, "finite and >= x_lo")

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
        # edges closer than their two tolerances bound a support of zero
        # length: both half weights would land on one point
        if self.x_hi - self.x_lo > 2.0 * tol:
            mask[np.abs(x - self.x_lo) <= tol] = 0.5
            mask[np.abs(x - self.x_hi) <= tol] = 0.5
        return mask


def _carrier(ts: np.ndarray) -> np.ndarray:
    """The source of ``evolve`` at each time of ``ts``: a unit carrier at
    frame detuning zero, switched on by a tanh edge of unit time centred
    at t = 3, as complex with imaginary part +0.0. The edge is math.tanh,
    entry by entry (numpy's tanh rounds differently).
    """
    edge = [math.tanh(t - 3.0) for t in ts.tolist()]
    return (0.5 * (1.0 + np.array(edge))).astype(complex)


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


class _Stepper:
    """Precomputed stage operators for one (grid, ramp) setup.

    The field is the stacked pair f = [u, w] of shape (2, m), so one
    transform along the last axis kicks both components. On a periodic
    grid f holds the n grid points (m = n). On a Dirichlet grid it is the
    odd extension of the grid's field: the m = 2n points of the periodic
    grid of length 2L, where f at x_min + j dx is minus f at
    x_min + (2n - j) dx, the walls at j = 0 and n are zero, and the grid's
    points are j = 1 .. n-1. A type-I sine-transform kick of the grid's
    points is an FFT kick of the extension, and the FFT of 2n points is
    the cheaper one. ``points`` is where the grid's points sit in f.

    ``half`` is the spectral phase of one Strang half-kick of f (u's phase
    over w's conjugate one) and ``full`` its square, two half-kicks fused,
    so a full kick costs one forward and one inverse transform, the same
    as a half-kick. The transforms are the 1-D ``scipy.fft`` calls
    ``fft``/``ifft``, bound once to the last axis (the n-D wrappers run the
    same pocketfft kernel behind a per-call dispatch that costs about as
    much as the kernel on small grids), in place on the caller's field.
    """

    def __init__(self, grid: GridSpec, ramp: CouplingRamp, mu: float):
        # not at module level: scipy loads with the first stepper only
        from scipy.fft import fft, ifft

        self.forward = functools.partial(fft, axis=-1, overwrite_x=True)
        self.inverse = functools.partial(ifft, axis=-1, overwrite_x=True)
        self.grid = grid
        self.ramp = ramp
        n = int(grid.n_points)
        self.odd = grid.boundary == "dirichlet"
        self.size = 2 * n if self.odd else n
        first = 1 if self.odd else 0
        self.points = slice(first, first + grid.x.size)
        k = 2.0 * np.pi * np.fft.fftfreq(self.size, d=grid.dx)
        half = np.exp(-1j * (k**2 - mu) * grid.dt / 2.0)
        self.half = np.stack([half, np.conj(half)])
        self.full = self.half**2
        gmask = ramp.spatial_mask(grid)
        # outside the slab the 2x2 step is the identity; the absorber decay
        # is a real scalar per point, so it commutes with the 2x2 step and
        # runs on its own layer(s) only
        runs = _runs(gmask)
        self.coupled = None
        if runs:
            lo, hi = runs[0].start, runs[-1].stop
            self.coupled = slice(first + lo, first + hi)
            # the span's mirror image in the odd extension, point by point
            self.mirror = (slice(self.size - first - lo, self.size - first - hi, -1)
                           if self.odd else None)
            # the 2x2 step of a point depends on its mask value only: keep
            # the distinct values and, per point, the index of its value
            self.gmask, self._index = np.unique(gmask[lo:hi], return_inverse=True)
            self._env = math.nan  # the envelope of the last scheduled step
        profile = grid.absorber_profile()
        if self.odd:
            # even-extended, so the decay damps a point and its mirror
            # alike; the wall at x_max takes its neighbour's rate, which
            # joins the layer and its mirror into one run
            profile = np.concatenate(([0.0], profile, profile[-1:], profile[::-1]))
        self.absorber = [(s, np.exp(-profile[s] * grid.dt)) for s in _runs(profile)]

    def embed(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The stepped field of the grid samples ``u`` and ``w``."""
        f = np.zeros((2, self.size), dtype=complex)
        f[:, self.points] = u, w
        if self.odd:
            n = self.size // 2
            f[:, n + 1:] = -f[:, n - 1:0:-1]
        return f

    def fields(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """u and w on the grid's points of the stepped field ``f``: views
        on a periodic grid, where they are all of f, and a copy on the odd
        extension, whose whole array a view would keep alive."""
        g = f[:, self.points]
        if self.odd:
            g = g.copy()
        return g[0], g[1]

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

    def local_factors(self, t_mids: np.ndarray) -> list:
        """The 2x2 factors of a block of steps at midpoints ``t_mids``, one
        entry per step for ``local_step``, in step order.

        The exponential of -i*dt*[[0, g], [-g, 0]] is the hyperbolic
        rotation cosh(g dt) I - i sinh(g dt) [[0, 1], [-1, 0]]. An entry is
        (cosh(g dt), i sinh(g dt)), complex, on the distinct mask values of
        the coupled span where the envelope moved from the step before, all
        such steps of the block evaluated as one array; it is None where
        the envelope did not move (a constant or saturated ramp), and for
        every step when nothing couples: ``local_step`` then keeps the
        factors it gathered last.
        """
        factors = [None] * len(t_mids)
        if self.coupled is None:
            return factors
        env = np.array([self.ramp.envelope(t) for t in t_mids.tolist()])
        moved = np.flatnonzero(env != np.concatenate(([self._env], env[:-1])))
        self._env = env[-1]
        if moved.size:
            theta = env[moved, None] * self.gmask * self.grid.dt
            # complex, so the products with the field stay complex by
            # complex (a real factor takes numpy's slower casting loop)
            rows = zip(np.cosh(theta).astype(complex), 1j * np.sinh(theta))
            for step, row in zip(moved.tolist(), rows):
                factors[step] = row
        return factors

    def local_step(self, f, factors):
        """One step's 2x2 rotation at each point of the coupled span, then
        the absorber decay; in place on the stacked field.

        ``factors`` is the step's entry of ``local_factors``: new factors
        are gathered from the distinct mask values to the points, None
        keeps the gathered factors of the step before. On the odd extension
        the rotation runs on the grid's points and their mirror images take
        the negated values, which is exact in floating point.
        """
        s = self.coupled
        if s is not None:
            if factors is not None:
                i = self._index
                self._factors = tuple(entry[i] for entry in factors)
            ch, ish = self._factors
            u, w = f[0, s], f[1, s]
            un = ch * u - ish * w
            f[1, s] = ch * w + ish * u
            f[0, s] = un
            if self.mirror is not None:
                np.negative(f[:, s], out=f[:, self.mirror])
        for s, decay in self.absorber:
            f[:, s] *= decay


def evolve(
    state: ModeState,
    ramp: CouplingRamp,
    potential: None,
    grid: GridSpec,
    t_final: float,
    source_x: Optional[float] = None,
    snapshot_times: Optional[Sequence[float]] = None,
) -> Tuple[ModeState, List[ModeState]]:
    """Advance a mode pair to ``t_final``; optionally record snapshots.

    Returns (final_state, snapshots). Snapshots are taken at the first step
    boundary at or after each requested time (``state.t`` itself for the
    times at or before it, as a copy of the input fields), one per boundary
    however many times it takes. Without a source the instability guard
    compares the kicked field's plus-norm against the analytic bound
    exp(2*g0_peak*(t-t0)) once per block of ``_SCHEDULE_STEPS`` = 64 steps
    and at the end of the run.

    ``source_x``, when given, places the continuous source at the grid
    point nearest to it: a unit carrier at frame detuning zero, switched
    on by a tanh edge of unit time centred at t = 3, injected into u per
    unit time per grid cell (the discrete delta carries the 1/dx). It
    radiates a steady wave train both ways; in an open geometry the
    outward half is absorbed and the inward half plays the incident beam
    of a scattering experiment.

    Adjacent Strang half-kicks are fused into one kinetic kick. Only a
    snapshot splits one: one forward transform gives both the boundary
    state and the state kicked on into the next step; the final step ends
    with a half-kick.

    ``potential`` must be None: the stepper runs the coupling alone. The
    parameter stays in third place only for the callers that pass None
    there (the benchmark's norm-movie workload among them).

    Raises ParameterDomainError at setup, naming the field, if
    ``potential`` is not None, ``t_final``, ``state.t`` or a snapshot time
    is not finite, a snapshot time lies after the last step boundary (no
    step would take it), ``t_final`` precedes ``state.t``, ``label.mu`` or
    ``label.k0`` of the state is not finite, ``state.u`` or ``state.w``
    does not have the shape of ``grid.x``, or ``source_x`` is not in
    [grid.x_min, grid.x_max]; ResolutionError if the grid cannot resolve
    the mode's nominal carrier (label.k0), and InstabilityDetectedError if
    the norm is not within the bound (a NaN norm included) at a check.
    """
    if potential is not None:
        raise ParameterDomainError(
            "potential must be None: evolve steps the coupling alone", "potential")
    _require("t_final", t_final)
    _require("state.t", state.t)
    _require("t_final", t_final, t_final >= state.t, f"at least state.t = {state.t!r}")
    # a NaN mu turns every kinetic phase NaN; a NaN k0 skips the
    # resolution check
    _require("label.mu", state.label.mu)
    _require("label.k0", state.label.k0)
    u, w = np.asarray(state.u), np.asarray(state.w)
    for name, samples in (("state.u", u), ("state.w", w)):
        if samples.shape != grid.x.shape:
            raise ParameterDomainError(f"{name} must have the grid's shape "
                                       f"{grid.x.shape}, got {samples.shape}", name)
    n_steps = int(math.ceil((t_final - state.t) / grid.dt - 1e-12))
    if snapshot_times is not None:
        # the loop takes a time at the first step boundary t with
        # t >= time - 1e-12; none comes after t_last
        t_last = state.t + n_steps * grid.dt
        times = np.asarray(snapshot_times, dtype=float)
        _require("snapshot_times", times, t_last >= times - 1e-12,
                 f"finite and at most the last step boundary t = {t_last!r}")
    if source_x is not None:
        _require("source_x", source_x, grid.x_min <= source_x <= grid.x_max,
                 f"in [grid.x_min, grid.x_max] = [{grid.x_min!r}, {grid.x_max!r}]")
    grid.validate_resolution(state.label.k0)
    stepper = _Stepper(grid, ramp, mu=state.label.mu)
    f = stepper.embed(u, w)
    points = stepper.points
    isrc = imirror = None
    if source_x is not None:
        isrc = points.start + int(np.argmin(np.abs(grid.x - source_x)))
        if stepper.odd:  # the odd extension carries the source's mirror image
            imirror = stepper.size - isrc

    pending = sorted(snapshot_times) if snapshot_times is not None else []

    def due(t: float) -> bool:
        """Drop the pending times that the step boundary t takes (those at
        most 1e-12 after it); whether there were any."""
        count = len(pending)
        while pending and t >= pending[0] - 1e-12:
            pending.pop(0)
        return len(pending) < count

    snapshots: List[ModeState] = []
    if due(state.t):  # a copy: the periodic kicks overwrite f in place
        snapshots.append(state.copy_with(*stepper.fields(f.copy()), state.t))
    norm0 = plus_norm(state, grid)
    guarded = norm0 > 0 and source_x is None
    t = state.t
    t0 = state.t
    injection = -1j * grid.dt / grid.dx  # a source value's kick at its grid point
    if n_steps:
        f = stepper.kick(f, full=False)  # the first step's leading half-kick
    for lo in range(0, n_steps, _SCHEDULE_STEPS):
        steps = np.arange(lo, min(lo + _SCHEDULE_STEPS, n_steps))
        # the scalar loop's midpoints t + dt/2, t = t0 + k*dt (t0 at k = 0)
        t_mids = (t0 + steps * grid.dt) + grid.dt / 2.0
        factors = stepper.local_factors(t_mids)
        if isrc is not None:
            kicks = injection * _carrier(t_mids)
        for j, step in enumerate(steps.tolist()):
            if isrc is not None:
                f[0, isrc] += kicks[j]
                if imirror is not None:
                    f[0, imirror] -= kicks[j]
            stepper.local_step(f, factors[j])
            t = t0 + (step + 1) * grid.dt

            # each step ends with one kick: the final half-kick, a split
            # kick at a snapshot's step boundary, or a full kick (this
            # step's trailing half-kick fused with the next one's leading)
            if step == n_steps - 1:
                f = stepper.kick(f, full=False)
            elif due(t):
                # the boundary state (fresh arrays), and f kicked on through
                # the next step's leading half-kick, from one forward transform
                at, f = stepper.split_kick(f)
                snapshots.append(state.copy_with(*stepper.fields(at), t))
            else:
                f = stepper.kick(f, full=True)
        if guarded:
            # the kicks keep the plus-norm, so f's points hold that of the
            # boundary state at t (on the odd extension, half of f's)
            bound = norm0 * math.exp(2.0 * ramp.g0_peak * (t - t0))
            norm = float(np.sum(np.abs(f[:, points]) ** 2) * grid.dx)
            if not norm <= INSTABILITY_MARGIN * bound:
                raise InstabilityDetectedError(
                    f"norm exceeded exp(2 g0 t) bound at t={t:.4g}"
                )
    if due(t):  # a copy: the final state holds f's own arrays
        snapshots.append(state.copy_with(*stepper.fields(f.copy()), t))
    final = state.copy_with(*stepper.fields(f), t)
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
):
    """Estimate |alpha|^2 and |beta|^2 at zero detuning from steady snapshots.

    The source of ``evolve`` drives one frequency, the carrier at mu, so the
    output is read there: the window region of each snapshot is projected
    onto the outgoing plane waves of both channels at k = sqrt(mu), the
    u channel reflecting into exp(+i k x) and the w channel radiating
    exp(-i k x), and the incident amplitude is read from the exp(-i k x)
    component of u. Both channels share k, so the flux ratio of the
    channels is 1. Returns ``{"alpha2": {0.0: a}, "beta2": {0.0: b}}``,
    a and b the means over the snapshots.

    Raises ParameterDomainError naming ``label.mu`` when it is not finite
    and > 0 (an exterior channel open at zero detuning), checked before
    WindowTooShortError, raised when the window holds fewer than 8 points.
    """
    if not history:
        raise ParameterDomainError("history must contain at least one snapshot")
    mu = history[0].label.mu
    _require("label.mu", mu, mu > 0, "finite and > 0 (an open exterior channel)")
    idx = window.indices(grid)
    if len(idx) < 8:
        raise WindowTooShortError("analysis window contains fewer than 8 points")
    xs = grid.x[idx]
    k = math.sqrt(mu)
    a_s, b_s = [], []
    for st in history:
        uu = st.u[idx]
        a_in = _hann_project(uu, xs, k)
        if abs(a_in) == 0.0:
            raise ParameterDomainError("no incident amplitude in window")
        a_s.append(abs(_hann_project(uu, xs, -k) / a_in) ** 2)
        b_s.append(abs(_hann_project(st.w[idx], xs, k) / a_in) ** 2)
    # keyed by the one detuning read, as the benchmark's readout expects
    return {"alpha2": {0.0: float(np.mean(a_s))},
            "beta2": {0.0: float(np.mean(b_s))}}


def gaussian_packet(
    grid: GridSpec, x0: float, sigma: float, k: float, mu: float = 0.0
) -> ModeState:
    """Unit-norm Gaussian wavepacket in u (w empty), carrier exp(+i k x).

    ``x0`` and ``k`` must be finite and ``sigma`` finite and > 0, and the
    packet must have weight on the grid points; ParameterDomainError
    naming the field otherwise.
    """
    _require("x0", x0)
    _require("sigma", sigma, sigma > 0, "finite and > 0")
    _require("k", k)
    x = grid.x
    u = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k * x).astype(complex)
    norm2 = float(np.sum(np.abs(u) ** 2) * grid.dx)
    _require("sigma", sigma, norm2 > 0,
             f"wide enough to put weight on the grid points near x0 = {x0!r}")
    u /= math.sqrt(norm2)
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
    coupling slab on [0, a], an analysis window beyond it, the continuous
    carrier source (k0 = sqrt(M)) farther out, and an absorbing layer at
    the far edge. The source settles for 20 time units;
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

    Returns a dict with the measured |beta0|^2 (``beta2``) and |alpha0|^2
    (``alpha2``), each the mean over three snapshots 2 dt apart at the end
    of the run, the run's ``grid``, and the last snapshot
    (``final_state``). A ``big_m`` or
    ``gamma_ratio`` that is not finite and > 0, a ``kappa`` that is not
    finite and >= 0, or a ``measure_c`` that is not finite is a
    ParameterDomainError naming it, and so is a ``length`` whose
    analysis window, from 0.15 * length, would open inside the slab
    (a > 0.15 * length). A slab edge off the grid is a
    ResolutionError, and so is a grid too coarse for the carrier k0
    (raised by ``evolve``).
    """
    _require("big_m", big_m, big_m > 0, "finite and > 0")
    _require("kappa", kappa, kappa >= 0, "finite and >= 0")
    _require("gamma_ratio", gamma_ratio, gamma_ratio > 0, "finite and > 0")
    _require("measure_c", measure_c)
    k0 = math.sqrt(big_m)
    a = kappa * math.sqrt(big_m)
    _require("length", length, not a > 0.15 * length,
             f"at least a / 0.15 for a = {a!r}: the slab [0, a] ends before "
             "the analysis window opens at 0.15 * length", finite=False)
    grid = GridSpec(
        x_min=0.0,
        x_max=length,
        n_points=n_points,
        dt=dt,
        absorber_width=0.38 * length,
        boundary="dirichlet",
    )
    # align the slab edge to the grid; a mismatch biases the slab phase
    ia = round(a / grid.dx)
    if abs(ia * grid.dx - a) > 1e-9 * max(a, 1.0):
        raise ResolutionError(
            f"slab edge a={a!r} not on the grid (dx={grid.dx!r}); "
            "choose length/n_points so a/dx is an integer"
        )
    t0_ramp = 20.0 + 4.0 / gamma_ratio
    t_meas = t0_ramp + measure_c / gamma_ratio
    ramp = CouplingRamp(
        g0_peak=1.0, gamma=gamma_ratio, shape="tanh", t_on=t0_ramp, x_lo=0.0, x_hi=a
    )
    window = OutputWindow(x_lo=0.15 * length, x_hi=0.48 * length)
    state = ModeState(
        u=np.zeros(grid.x.shape, dtype=complex),
        w=np.zeros(grid.x.shape, dtype=complex),
        t=0.0,
        label=ModeLabel(mu=big_m, k0=k0),
    )
    # the mean over three closely spaced snapshots at the end: the
    # published |beta|^2 carries the bits of all three
    snap_times = [t_meas - 2.0 * grid.dt * i for i in range(3)][::-1]
    _, snaps = evolve(
        state, ramp, None, grid, t_meas, source_x=0.58 * length,
        snapshot_times=snap_times
    )
    est = extract_output_correlators(snaps, window, grid)
    return {
        "beta2": est["beta2"][0.0],
        "alpha2": est["alpha2"][0.0],
        "grid": grid,
        "final_state": snaps[-1],
    }


def export_state_columns(state: ModeState, grid: GridSpec) -> np.ndarray:
    """Snapshot as columns (x, Re u, Im u, Re w, Im w) for inspection."""
    return np.column_stack(
        [grid.x, state.u.real, state.u.imag, state.w.real, state.w.imag]
    )

"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line with its measured numbers on success (run
with `pytest -s tests/test_acceptance.py` to see them), so the suite
doubles as the release checklist.
"""

import math

import numpy as np
import pytest

import mpmath as mp

from atomsqueeze import (
    DimensionlessParams,
    PhysicalParams,
    bell_metrics,
    pair_amplitude,
    quadrant_decompose,
    r_analytic,
    r_scattering,
    r_large_mu_limit,
    solve_scattering,
    steady_state_beta_squared,
    symplectic_norm,
    to_dimensionless,
)
from atomsqueeze.dynamics import CouplingRamp, GridSpec, evolve, gaussian_packet
from atomsqueeze.spectrum import find_threshold, flux_estimate
from atomsqueeze.analytic import spectrum_large_mu

mp.mp.dps = 40


def report(name, detail):
    print(f"ACCEPTANCE PASS [{name}]: {detail}")


class TestCriterion1ZeroDetuningIdentity:
    def test_matches_high_precision_oracle(self):
        # r0(kappa) = |arctanh(sin kappa)| to 1e-12 over 1e4 random kappa
        rng = np.random.default_rng(2024)
        kappas = rng.uniform(0.0, math.pi / 2 - 1e-3, size=10_000)
        worst = 0.0
        for k in kappas:
            mine = r_large_mu_limit(0.0, float(k)).r
            true = float(abs(mp.atanh(mp.sin(mp.mpf(float(k))))))
            worst = max(worst, abs(mine - true))
        assert worst < 1e-12
        report("1 zero-detuning identity", f"max |dr| = {worst:.3e} over 1e4 draws")


class TestCriterion2Threshold:
    def test_bisection_locates_pi_half(self):
        res = find_threshold(1.0, 2.0, d=0.0, big_m=math.inf)
        assert res.found and res.diverges
        assert abs(res.kappa - math.pi / 2) < 1e-9
        report("2 threshold", f"kappa* = {res.kappa!r}, |dev| = "
                              f"{abs(res.kappa - math.pi / 2):.2e}")


class TestCriterion3WorkedExample:
    def test_reference_parameters(self):
        # g0 = 2e4 /s, a = 3 um, vbar = 9 cm/s (sodium mass)
        m = 3.82e-26
        hbar = 1.054571817e-34
        mu = m * 0.09**2 / (2 * hbar)
        p = PhysicalParams(g0=2e4, mu=mu, a=3e-6, m=m)
        dp = to_dimensionless(p)
        assert dp.kappa == pytest.approx(1.33, abs=0.01)
        r0 = r_large_mu_limit(0.0, dp.kappa).r
        assert r0 == pytest.approx(2.1, abs=0.1)
        report("3 worked example", f"kappa = {dp.kappa:.4f}, r0 = {r0:.4f}")


class TestCriterion4BogoliubovConstraints:
    def test_identities_on_grid(self):
        worst_norm = 0.0
        worst_cross = 0.0
        for d in np.linspace(0.0, 3.0, 20):
            for kappa in np.linspace(0.05, 1.3, 20):
                c = solve_scattering(
                    DimensionlessParams(d=float(d), big_m=50.0, kappa=float(kappa))
                )
                n1, n2 = c.norm_defects()
                worst_norm = max(worst_norm, n1, n2)
                worst_cross = max(worst_cross, c.cross_defect())
        assert worst_norm < 1e-10
        assert worst_cross < 1e-10
        report("4 Bogoliubov constraints",
               f"max norm defect = {worst_norm:.2e}, "
               f"max cross defect = {worst_cross:.2e} on 20x20 grid at M=50")


class TestCriterion5CrossSolverEquivalence:
    def test_convergence_and_tolerance(self):
        d_grid = np.linspace(0.0, 3.0, 16)
        k_grid = np.linspace(0.05, 1.3, 16)
        worst = {}
        for M in (10.0, 30.0, 100.0, 300.0):
            w = 0.0
            for d in d_grid:
                for kappa in k_grid:
                    p = DimensionlessParams(d=float(d), big_m=M, kappa=float(kappa))
                    w = max(w, abs(r_scattering(p).r - r_analytic(p).r))
            worst[M] = w
        seq = [worst[M] for M in (10.0, 30.0, 100.0, 300.0)]
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert worst[100.0] <= 0.01
        report("5 cross-solver equivalence",
               "max|dr| over M=(10,30,100,300): "
               + ", ".join(f"{v:.2e}" for v in seq))


class TestCriterion6SteadyOutputValidation:
    def test_gamma_sweep_monotone_and_5pct(self):
        kappa = 1.2
        target = math.sinh(abs(math.atanh(math.sin(kappa)))) ** 2
        discs = []
        for gamma_ratio in (0.3, 0.1, 0.03, 0.01):
            res = steady_state_beta_squared(100.0, kappa, gamma_ratio)
            discs.append(abs(res["beta2"] - target) / target)
        assert all(b < a for a, b in zip(discs, discs[1:])), discs
        assert discs[-1] <= 0.05
        report("6a steady-output",
               "rel disc over gamma/g0=(0.3,0.1,0.03,0.01): "
               + ", ".join(f"{v:.3e}" for v in discs)
               + f" (target sinh^2 r0 = {target:.4f})")

    def test_symplectic_norm_drift(self):
        # no absorber: conservation is structural; 1e3 steps
        grid = GridSpec(x_min=0.0, x_max=60.0, n_points=512, dt=0.002,
                        boundary="periodic")
        ramp = CouplingRamp(g0_peak=1.0, gamma=1.0, shape="const",
                            x_lo=20.0, x_hi=40.0)
        state = gaussian_packet(grid, x0=30.0, sigma=5.0, k=3.0, mu=9.0)
        n0 = symplectic_norm(state, grid)
        final, _ = evolve(state, ramp, None, grid, t_final=1000 * grid.dt)
        drift = abs(symplectic_norm(final, grid) - n0) / abs(n0)
        assert drift < 1e-8
        report("6b symplectic norm", f"relative drift = {drift:.2e} over 1e3 steps")


class TestCriterion7PairEntanglement:
    GRID = dict(n_points=256, half_width=24.0, dt=0.02)

    def _metrics(self, barrier_height):
        grid = GridSpec(x_min=-self.GRID["half_width"],
                        x_max=self.GRID["half_width"],
                        n_points=self.GRID["n_points"],
                        dt=self.GRID["dt"], boundary="dirichlet")
        ramp = CouplingRamp(g0_peak=0.05, gamma=1.0 / 0.35, shape="pulse",
                            t_on=0.8, t_off=2.2, x_lo=-1.5, x_hi=1.5)
        vplus = None
        if barrier_height > 0:
            vplus = barrier_height * np.exp(
                -((grid.x - 3.0) ** 2) / (2.0 * 0.8**2)
            )
        fa = pair_amplitude(ramp, grid, t0=6.0, mu=4.0, potential_plus=vplus)
        return bell_metrics(quadrant_decompose(fa))

    def test_symmetric_configuration(self):
        m = self._metrics(0.0)
        assert m["fidelity"] >= 0.999
        assert m["entropy"] == pytest.approx(math.log(2.0), abs=1e-3)
        assert m["chsh"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
        report("7a pair entanglement (symmetric)",
               f"fidelity = {m['fidelity']:.6f}, entropy = {m['entropy']:.6f}"
               f" (ln2 = {math.log(2.0):.6f}), chsh = {m['chsh']:.6f}")

    def test_asymmetry_strictly_degrades(self):
        heights = (0.0, 0.5, 1.0, 1.5, 2.0)
        ms = [self._metrics(h) for h in heights]
        fids = [m["fidelity"] for m in ms]
        ents = [m["entropy"] for m in ms]
        chshs = [m["chsh"] for m in ms]
        for seq in (fids, ents, chshs):
            assert all(b < a for a, b in zip(seq, seq[1:])), seq
        report("7b pair entanglement (asymmetry)",
               "fidelity " + "->".join(f"{v:.4f}" for v in fids)
               + "; entropy " + "->".join(f"{v:.5f}" for v in ents)
               + "; chsh " + "->".join(f"{v:.4f}" for v in chshs))


class TestCriterion8DiagnosticsInLieuOfFlux:
    def test_flux_diagnostic_order_of_magnitude(self):
        # the published ~680 atoms/ms has no closed-form counterpart; the
        # adopted-definition diagnostic must land within a broad factor
        ds = np.linspace(-3.0, 3.0, 241)
        spec = spectrum_large_mu(ds, kappa=4.0 / 3.0)
        flux_ms = flux_estimate(spec, g0=2e4) / 1e3
        assert 680.0 / 30.0 < flux_ms < 680.0 * 30.0
        report("8a flux diagnostic",
               f"{flux_ms:.1f} atoms/ms (reference scale 680 atoms/ms, "
               "order-of-magnitude only)")

    def test_spectrum_ridge_shape(self):
        # squeezing maximal along kappa ~ (pi/2)/sqrt(1+d^2)
        kappas = np.linspace(0.05, 1.45, 57)
        dk = kappas[1] - kappas[0]
        for d in (0.5, 1.0, 2.0, 3.0):
            rs = [
                r_analytic(DimensionlessParams(d=d, big_m=100.0, kappa=float(k))).r
                for k in kappas
            ]
            k_peak = kappas[int(np.argmax(rs))]
            assert abs(k_peak - find_threshold(0.0, 2.0, d).kappa) <= dk
        report("8b spectrum ridge", "peak kappa follows (pi/2)/sqrt(1+d^2) "
                                    "at d in (0.5, 1, 2, 3)")

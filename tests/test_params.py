import math

import numpy as np
import pytest

from atomsqueeze import (
    DimensionlessParams,
    PhysicalParams,
    to_dimensionless,
    transit_time,
    validity,
)
from atomsqueeze.errors import ParameterDomainError
from atomsqueeze.params import threshold_distance

# reference sodium-style parameter set: g0 = 2e4 rad/s, a = 3 um, and a
# chemical potential chosen so the beam velocity is 9 cm/s
SODIUM_MASS = 3.82e-26
HBAR = 1.054571817e-34
MU_REF = SODIUM_MASS * 0.09**2 / (2 * HBAR)  # = 1.4670e6 rad/s
REF = PhysicalParams(g0=2e4, mu=MU_REF, a=3e-6, m=SODIUM_MASS, gamma=0.5, n0=1e6)


class TestPhysicalParams:
    def test_reference_set_valid(self):
        assert REF.g0 == 2e4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g0=0.0),
            dict(g0=-1.0),
            dict(mu=0.0),
            dict(a=-1e-6),
            dict(m=0.0),
            dict(gamma=-0.1),
            dict(n0=0.5),
            dict(g0=math.nan),
            dict(mu=math.inf),
        ],
    )
    def test_domain_errors(self, kwargs):
        base = dict(g0=2e4, mu=MU_REF, a=3e-6, m=SODIUM_MASS, gamma=0.0, n0=1e6)
        base.update(kwargs)
        with pytest.raises(ParameterDomainError):
            PhysicalParams(**base)

    def test_dimensionless_domain(self):
        with pytest.raises(ParameterDomainError):
            DimensionlessParams(d=0.0, big_m=-1.0, kappa=1.0)
        with pytest.raises(ParameterDomainError):
            DimensionlessParams(d=0.0, big_m=10.0, kappa=-0.1)
        DimensionlessParams(d=-5.0, big_m=10.0, kappa=0.0)  # d any real

    def test_infinite_big_m_is_the_limit(self):
        DimensionlessParams(d=0.5, big_m=math.inf, kappa=1.0)
        for bad in (math.nan, -math.inf, 0.0):
            with pytest.raises(ParameterDomainError, match="big_m") as exc:
                DimensionlessParams(d=0.5, big_m=bad, kappa=1.0)
            assert exc.value.name == "big_m"


class TestTransitTime:
    def test_reference_value(self):
        # 2a/vbar with vbar = 9 cm/s: 66.67 us
        assert transit_time(REF) == pytest.approx(6.6667e-5, rel=1e-3)

    def test_linear_in_a(self):
        doubled = PhysicalParams(g0=2e4, mu=MU_REF, a=6e-6, m=SODIUM_MASS)
        assert transit_time(doubled) == pytest.approx(2 * transit_time(REF), rel=1e-12)

    def test_inverse_sqrt_mu(self):
        quad = PhysicalParams(g0=2e4, mu=4 * MU_REF, a=3e-6, m=SODIUM_MASS)
        assert transit_time(quad) == pytest.approx(transit_time(REF) / 2, rel=1e-12)


class TestToDimensionless:
    def test_reference_kappa(self):
        dp = to_dimensionless(REF)
        assert dp.kappa == pytest.approx(4.0 / 3.0, rel=1e-3)
        assert dp.big_m == pytest.approx(MU_REF / 2e4, rel=1e-12)
        assert dp.d == 0.0

    def test_detuning_ratio(self):
        dp = to_dimensionless(REF, delta=5e3)
        assert dp.d == pytest.approx(0.25, rel=1e-12)

    def test_zero_length_region(self):
        p = PhysicalParams(g0=2e4, mu=MU_REF, a=0.0, m=SODIUM_MASS)
        assert to_dimensionless(p).kappa == 0.0

    def test_doubling_a_doubles_kappa(self):
        p2 = PhysicalParams(g0=2e4, mu=MU_REF, a=6e-6, m=SODIUM_MASS)
        assert to_dimensionless(p2).kappa == pytest.approx(
            2 * to_dimensionless(REF).kappa, rel=1e-12
        )

    def test_scale_consistency(self):
        # rescaling (g0, mu, gamma, delta) by lam and a by 1/sqrt(lam)
        # leaves (d, M, kappa) unchanged
        rng = np.random.default_rng(7)
        for lam in rng.uniform(0.2, 30.0, size=12):
            scaled = PhysicalParams(
                g0=REF.g0 * lam,
                mu=REF.mu * lam,
                a=REF.a / math.sqrt(lam),
                m=REF.m,
                gamma=REF.gamma * lam,
                n0=REF.n0,
            )
            base = to_dimensionless(REF, delta=3e3)
            got = to_dimensionless(scaled, delta=3e3 * lam)
            assert got.d == pytest.approx(base.d, rel=1e-12)
            assert got.big_m == pytest.approx(base.big_m, rel=1e-12)
            assert got.kappa == pytest.approx(base.kappa, rel=1e-12)

    def test_pure(self):
        a = to_dimensionless(REF, delta=1e3)
        b = to_dimensionless(REF, delta=1e3)
        assert (a.d, a.big_m, a.kappa) == (b.d, b.big_m, b.kappa)


class TestValidity:
    def test_reference_regime(self):
        # loss-rate-sized gamma, 2 g0 sinh^2(r0) / n0 at r0 = 2, g0 = 2e4,
        # n0 = 1e6: ~0.53 rad/s
        gamma = 0.5261646567203297
        p = PhysicalParams(g0=2e4, mu=MU_REF, a=3e-6, m=SODIUM_MASS, gamma=gamma)
        rep = validity(p)
        assert rep.steady_output_ok
        assert rep.steady_output_margin == pytest.approx(2.63e-5, rel=1e-2)
        assert rep.large_mu_ok
        assert rep.below_threshold

    def test_fast_ramp_fails_steady_output(self):
        p = PhysicalParams(g0=2e4, mu=MU_REF, a=3e-6, m=SODIUM_MASS, gamma=2e4)
        assert not validity(p).steady_output_ok

    def test_exact_threshold_flagged(self):
        # kappa = pi/2 exactly: a = pi/2 / g0 * vbar / 2
        vbar = math.sqrt(2 * HBAR * MU_REF / SODIUM_MASS)
        a = (math.pi / 2) * vbar / (2 * 2e4)
        p = PhysicalParams(g0=2e4, mu=MU_REF, a=a, m=SODIUM_MASS)
        rep = validity(p)
        assert to_dimensionless(p).kappa == pytest.approx(math.pi / 2, abs=1e-12)
        assert not rep.below_threshold
        assert rep.threshold_distance == pytest.approx(0.0, abs=1e-12)

    def test_margins_nonnegative(self):
        rep = validity(REF)
        assert rep.steady_output_margin >= 0
        assert rep.large_mu_margin >= 0
        assert rep.threshold_distance >= 0


def threshold_distance_by_candidates(kappa):
    """The nearest of three candidate thresholds around the rounded index
    (and the first threshold), by direct comparison."""
    n = round((kappa - math.pi / 2.0) / math.pi)
    best = math.inf
    for nn in (n - 1, n, n + 1):
        if nn >= 0:
            best = min(best, abs(kappa - (math.pi / 2.0 + nn * math.pi)))
    return min(best, abs(kappa - math.pi / 2.0))


class TestThresholdDistance:
    def test_matches_candidate_search(self):
        thresholds = [math.pi / 2.0 + n * math.pi for n in range(6)]
        midpoints = [n * math.pi for n in range(1, 6)]
        kappas = np.concatenate([
            np.linspace(0.0, 20.0, 2001),
            thresholds,
            [math.nextafter(k, 0.0) for k in thresholds],
            [0.0, 1e-9, 1.0, math.pi / 2.0 - 1e-3],
        ])
        assert kappas.min() == 0.0 and (kappas < math.pi / 2.0).sum() > 100
        for kappa in kappas.tolist():
            assert threshold_distance(kappa) == threshold_distance_by_candidates(kappa)
        # halfway between two thresholds both are nearest; the two
        # roundings of the tie differ in the last bits only
        for kappa in midpoints:
            assert abs(threshold_distance(kappa)
                       - threshold_distance_by_candidates(kappa)) <= 4 * math.ulp(kappa)

    def test_zero_at_thresholds(self):
        for n in range(6):
            assert threshold_distance(math.pi / 2.0 + n * math.pi) == 0.0

    def test_negative_rejected(self):
        # NaN and inf are named too, not left to round() inside
        # nearest_threshold (ValueError, OverflowError)
        for kappa in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterDomainError, match="^kappa must be") as err:
                threshold_distance(kappa)
            assert err.value.name == "kappa"

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomsqueeze import (
    DimensionlessParams,
    r_analytic,
    r_large_mu_limit,
    spectrum_large_mu,
    wavenumber_phase,
)
from atomsqueeze.analytic import _value_from_phase, r_closed_form
from atomsqueeze.errors import ClosedChannelError, ParameterDomainError


def tanh_two_theta(d):
    """tanh(2*theta) as the closed form uses it: the arctanh argument at
    sin(phi) = 1, i.e. 1/sqrt(1 + d^2)."""
    return float(_value_from_phase(np.float64(d), math.pi / 2.0).arctanh_argument)


def literal_tanh_two_theta(d):
    """The raw composition, defined for d > 0: tanh(2 arctanh(sqrt(d^2+1)-d))."""
    return math.tanh(2.0 * math.atanh(math.sqrt(d * d + 1.0) - d))


class TestTanhTwoTheta:
    def test_resonance_saturates(self):
        assert tanh_two_theta(0.0) == 1.0

    def test_matches_literal_composition(self):
        # oracle: direct evaluation of the printed composition where defined
        for d in [1e-3, 0.1, 0.5, 1.0, math.sqrt(3.0), 2.0, 7.5]:
            assert tanh_two_theta(d) == pytest.approx(
                literal_tanh_two_theta(d), rel=1e-14
            )

    def test_sqrt3_is_half(self):
        assert tanh_two_theta(math.sqrt(3.0)) == pytest.approx(0.5, rel=1e-14)

    def test_even_in_d(self):
        for d in [0.3, 1.7, 4.0]:
            assert tanh_two_theta(-d) == tanh_two_theta(d)

    def test_monotone_decay_off_resonance(self):
        ds = np.linspace(0.0, 50.0, 200)
        vals = [tanh_two_theta(d) for d in ds]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.03


class TestWavenumberPhase:
    def test_large_m_limit(self):
        # oracle: series limit (k+ - k-) a -> kappa sqrt(1+d^2) as M -> inf
        p = DimensionlessParams(d=0.0, big_m=1e6, kappa=1.0)
        assert wavenumber_phase(p) == pytest.approx(1.0, abs=1e-6)

    def test_zero_kappa(self):
        p = DimensionlessParams(d=1.0, big_m=50.0, kappa=0.0)
        assert wavenumber_phase(p) == 0.0

    def test_closed_channel(self):
        with pytest.raises(ClosedChannelError):
            wavenumber_phase(DimensionlessParams(d=0.0, big_m=0.5, kappa=1.0))

    def test_matches_naive_form_at_moderate_m(self):
        # same quantity via the direct difference of the printed wavenumbers
        for d, M, kappa in [(0.0, 10.0, 1.2), (2.0, 30.0, 0.7), (1.0, 4.0, 0.3)]:
            s = math.sqrt(1 + d * d)
            a = kappa * math.sqrt(M)
            naive = (math.sqrt(M + s) - math.sqrt(M - s)) * a
            p = DimensionlessParams(d=d, big_m=M, kappa=kappa)
            assert wavenumber_phase(p) == pytest.approx(naive, rel=1e-12)


class TestRAnalytic:
    def test_quarter_pi_point(self):
        # oracle: arctanh(sin(pi/4)) = 0.881373587019543 evaluated directly;
        # the finite-M phase correction at M=100 is O(1e-3)
        val = r_analytic(DimensionlessParams(d=0.0, big_m=100.0, kappa=math.pi / 4))
        assert val.r == pytest.approx(0.881373587019543, abs=1e-2)
        assert not val.above_threshold

    def test_zero_kappa(self):
        val = r_analytic(DimensionlessParams(d=0.0, big_m=100.0, kappa=0.0))
        assert val.r == 0.0

    def test_near_threshold_kappa(self):
        val = r_analytic(DimensionlessParams(d=0.0, big_m=100.0, kappa=math.pi / 2))
        assert val.above_threshold or val.r > 10.0

    def test_closed_channel_propagates(self):
        with pytest.raises(ClosedChannelError):
            r_analytic(DimensionlessParams(d=0.0, big_m=0.5, kappa=1.0))


class TestRLargeMuLimit:
    def test_worked_example(self):
        # oracle: arctanh(sin(1.333)) = 2.124760058450118 (direct evaluation)
        assert r_large_mu_limit(0.0, 1.333).r == pytest.approx(
            2.124760058450118, abs=1e-12
        )

    def test_threshold_flag(self):
        assert r_large_mu_limit(0.0, math.pi / 2).above_threshold

    def test_detuned_value(self):
        # oracle: |arctanh(sin(sqrt(10))/sqrt(10))| evaluated directly
        expected = abs(math.atanh(math.sin(math.sqrt(10.0)) / math.sqrt(10.0)))
        assert r_large_mu_limit(3.0, 1.0).r == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.006540800243662336, rel=1e-12)

    def test_even_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.uniform(0.0, 6.0)
            kappa = rng.uniform(0.0, 1.5)
            assert r_large_mu_limit(d, kappa).r == r_large_mu_limit(-d, kappa).r

    def test_negative_kappa_rejected(self):
        with pytest.raises(ParameterDomainError):
            r_large_mu_limit(0.0, -0.1)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-50.0, 50.0),
                # M - sqrt(1 + d^2) >= 0 keeps the interior channel open
                st.floats(0.0, 1e9),
                st.floats(0.0, 20.0),
            ),
            min_size=1, max_size=16,
        ),
        st.booleans(),  # the mu >> g0 limit (big_m = inf)
    )
    def test_closed_form_even_in_d(self, points, limit):
        d, gap, kappa = (np.array(v) for v in zip(*points))
        big_m = math.inf if limit else np.sqrt(1.0 + d * d) + gap
        plus = r_closed_form(d, big_m, kappa)
        minus = r_closed_form(-d, big_m, kappa)
        for name in ("r", "above_threshold", "arctanh_argument", "near_threshold"):
            np.testing.assert_array_equal(getattr(minus, name), getattr(plus, name))

    def test_infinite_m_is_the_limit_phase_bitwise(self):
        # M = inf through the finite-M phase 2 kappa s/(sqrt(1+s/M) +
        # sqrt(1-s/M)) is bit for bit the limit phase kappa * s
        d = np.concatenate([[0.0], np.linspace(-6.0, 6.0, 481)])[:, None]
        thresholds = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        kappa = np.concatenate([np.linspace(0.0, 9.0, 901), thresholds,
                                [math.nextafter(math.pi / 2, 0.0)]])
        got = r_closed_form(d, math.inf, kappa)
        want = _value_from_phase(d, kappa * np.sqrt(1.0 + d * d))
        assert want.above_threshold[0, 901]  # d = 0, kappa = pi/2
        for name in ("r", "above_threshold", "arctanh_argument", "near_threshold"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_limit_of_r_analytic(self):
        # the M -> inf limit is checked against the exact form at M = 1e4
        for d, kappa in [(0.0, 1.2), (1.0, 0.9), (2.5, 1.4)]:
            exact = r_analytic(DimensionlessParams(d=d, big_m=1e4, kappa=kappa)).r
            assert r_large_mu_limit(d, kappa).r == pytest.approx(exact, abs=1e-6)

    def test_channel_consistency_error_decreases_with_m(self):
        d, kappa = 0.7, 1.1
        limit = r_large_mu_limit(d, kappa).r
        errs = []
        for M in [10.0, 100.0, 1000.0, 10000.0]:
            errs.append(
                abs(r_analytic(DimensionlessParams(d=d, big_m=M, kappa=kappa)).r - limit)
            )
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestRZeroDetuning:
    """r0 = |arctanh(sin kappa)|: the mu >> g0 limit at zero detuning."""

    def test_zero(self):
        assert r_large_mu_limit(0.0, 0.0).r == 0.0

    def test_pi_returns_to_zero(self):
        # sin(pi) = 0: r vanishes again past the divergence at pi/2
        assert r_large_mu_limit(0.0, math.pi).r == pytest.approx(0.0, abs=1e-12)

    def test_reference_squeezing(self):
        assert r_large_mu_limit(0.0, 1.333).r == pytest.approx(
            2.124760058450118, abs=1e-12)

    def test_zero_coupling_continuity(self):
        val = r_large_mu_limit(0.0, 1e-6)
        assert not val.above_threshold
        assert val.r <= 1e-6 * (1.0 + 1e-9)

    def test_threshold_bracketing(self):
        eps = 1e-12
        below = r_large_mu_limit(0.0, math.pi / 2 - eps)
        at = r_large_mu_limit(0.0, math.pi / 2)
        assert not below.above_threshold and math.isfinite(below.r)
        assert at.above_threshold
        assert at.arctanh_argument == pytest.approx(1.0, abs=1e-12)

    def test_argument_in_closed_interval_below_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            val = r_large_mu_limit(0.0, rng.uniform(0.0, 6.0))
            if not val.above_threshold:
                assert -1.0 <= val.arctanh_argument <= 1.0

    def test_near_threshold_diagnostic(self):
        # one ulp below pi/2: still below threshold, flagged near, and the
        # (huge) r reported without clipping
        val = r_large_mu_limit(0.0, math.nextafter(math.pi / 2, 0.0))
        assert not val.above_threshold
        assert val.near_threshold
        assert 30.0 < val.r < 50.0
        # an ordinary point is not near-flagged
        assert not r_large_mu_limit(0.0, 1.3).near_threshold


class TestSpectrumContainer:
    def test_strictly_increasing_required(self):
        with pytest.raises(ParameterDomainError):
            spectrum_large_mu([0.0, 0.0, 1.0], kappa=1.0)

    def test_points_flagged(self):
        spec = spectrum_large_mu(np.linspace(0, 3, 11), kappa=1.2)
        assert len(spec.detunings) == len(spec.value.r) == 11
        assert not spec.any_above_threshold()

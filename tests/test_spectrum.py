import math

import numpy as np
import pytest

from atomsqueeze import (
    DimensionlessParams,
    compare_methods,
    find_threshold,
    r_analytic,
    r_large_mu_limit,
    r_scattering,
    solve_scattering,
    spectrum_grid,
    wavenumber_phase,
)
from atomsqueeze import scattering
from atomsqueeze.errors import (
    ClosedExteriorChannelError,
    IllConditionedWarning,
    ParameterDomainError,
    SolverError,
)


def make_first_point_singular(monkeypatch):
    """Make the matching matrix of the first point of every row singular.

    The stacked solve returns NaN for point 0 of each row, so its inverse,
    and with it its 1-norm condition number, is not finite (cond = inf).
    """
    solve = np.linalg.solve

    def fake(a, b):
        x = solve(a, b)
        x[0] = np.nan
        return x

    monkeypatch.setattr(np.linalg, "solve", fake)


class TestFindThreshold:
    def test_finite_m_is_quarter_period_of_the_phase(self):
        c = wavenumber_phase(DimensionlessParams(d=0.0, big_m=100.0, kappa=1.0))
        res = find_threshold(1.0, 2.0, d=0.0, big_m=100.0)
        assert res.found and res.diverges
        assert res.kappa == (math.pi / 2.0) / c
        assert res.nearest_reference == math.pi / 2.0

    def test_detuned_peak_does_not_diverge(self):
        s = math.sqrt(1.0 + 0.5**2)
        res = find_threshold(0.5, 2.0, d=0.5, big_m=math.inf)
        assert res.found and not res.diverges
        assert res.kappa == (math.pi / 2.0) / s
        assert res.peak_argument == pytest.approx(1.0 / s, rel=1e-15)

    def test_limit_phase_constant_is_exact(self):
        # at big_m = inf the phase per unit kappa is sqrt(1 + d^2) exactly
        for d in np.linspace(-10.0, 10.0, 2001).tolist():
            c = wavenumber_phase(DimensionlessParams(d=d, big_m=math.inf, kappa=1.0))
            assert c == math.sqrt(1.0 + d * d)

    def test_minimum_only_bracket_not_found(self):
        # the argument sin(kappa) has its minimum at 3 pi/2, no maximum here
        res = find_threshold(4.0, 5.5)
        assert not res.found and res.kappa is None and not res.diverges

    def test_second_peak(self):
        res = find_threshold(7.0, 8.5)
        assert res.found and res.diverges
        assert res.kappa == math.pi / 2.0 + 2.0 * math.pi
        assert res.nearest_reference == pytest.approx(5.0 * math.pi / 2.0)
        assert res.deviation < 1e-14

    def test_peak_at_open_bracket_edge_excluded(self):
        assert not find_threshold(0.5, math.pi / 2.0).found
        assert find_threshold(math.pi / 2.0, 9.0).kappa == 2.5 * math.pi

    def test_negative_bracket_rejected(self):
        with pytest.raises(ParameterDomainError):
            find_threshold(-1.0, 2.0)


class TestSpectrumGrid:
    @pytest.mark.parametrize("method, big_m", [
        ("analytic", 40.0), ("scattering", 40.0), ("analytic", math.inf),
    ])
    def test_rows_match_the_scalar_api(self, method, big_m):
        ds, ks = [0.0, 0.7, 2.0], np.linspace(0.0, 1.4, 8)
        rows = spectrum_grid(ds, ks, big_m=big_m, method=method)
        assert rows.dtype == np.float64 and rows.shape == (len(ds) * len(ks), 4)
        assert [(d, k) for d, k, _, _ in rows] == [(d, k) for d in ds for k in ks]
        for d, k, r, above in rows.tolist():
            if math.isinf(big_m):
                want = r_large_mu_limit(d, k)
            else:
                p = DimensionlessParams(d=d, big_m=big_m, kappa=k)
                want = r_analytic(p) if method == "analytic" else r_scattering(p)
            assert r == pytest.approx(want.r, rel=1e-13)
            assert above == want.above_threshold and above in (0.0, 1.0)

    def test_scattering_needs_finite_m(self):
        for call in (
            lambda: solve_scattering(
                DimensionlessParams(d=0.3, big_m=math.inf, kappa=0.5)),
            lambda: spectrum_grid([0.3], [0.5, 1.0], big_m=math.inf,
                                  method="scattering"),
        ):
            with pytest.raises(ParameterDomainError, match="big_m") as exc:
                call()
            assert exc.value.name == "big_m"

    def test_closed_exterior_channel_in_a_row(self):
        with pytest.raises(ClosedExteriorChannelError):
            spectrum_grid([0.0, 1.0, 2.5], [0.5, 1.0], big_m=2.0,
                          method="scattering")

    def test_ill_conditioned_row_warns(self, monkeypatch):
        monkeypatch.setattr(scattering, "CONDITION_LIMIT", 1.0)
        with pytest.warns(IllConditionedWarning):
            spectrum_grid([0.3], [0.5, 1.0], big_m=50.0, method="scattering")

    @pytest.mark.filterwarnings("ignore::atomsqueeze.errors.IllConditionedWarning")
    def test_singular_point_raises(self, monkeypatch):
        make_first_point_singular(monkeypatch)
        with pytest.raises(SolverError):
            spectrum_grid([0.3], [0.5, 1.0], big_m=50.0, method="scattering")
        with pytest.raises(SolverError):
            solve_scattering(DimensionlessParams(d=0.3, big_m=50.0, kappa=0.5))


class TestCompareMethods:
    def test_singular_point_skipped_without_its_row(self, monkeypatch):
        ds, ks = np.linspace(0.0, 2.0, 4), np.linspace(0.05, 1.3, 7)
        base = compare_methods(ds, ks, 50.0)
        rest = compare_methods(ds, ks[1:], 50.0)
        make_first_point_singular(monkeypatch)
        with pytest.warns(IllConditionedWarning):
            res = compare_methods(ds, ks, 50.0)
        assert res.n_skipped == base.n_skipped + len(ds)
        assert res.n_points == base.n_points - len(ds) == rest.n_points
        assert res.max_abs == pytest.approx(rest.max_abs, rel=1e-12)
        assert res.mean_abs == pytest.approx(rest.mean_abs, rel=1e-12)

import math

import numpy as np
import pytest

from atomsqueeze import (
    DimensionlessParams,
    compare_methods,
    find_threshold,
    r_closed_form,
    r_from_coefficients,
    solve_scattering,
    spectrum_grid,
    wavenumber_phase,
)
from atomsqueeze import scattering, spectrum
from atomsqueeze.errors import (
    ClosedExteriorChannelError,
    IllConditionedWarning,
    ParameterDomainError,
    SolverError,
)


#: 1 + d^2 = M^2 exactly: the lower interior branch is at rest (k = 0),
#: its sin(kx) column vanishes and every matching matrix of the row d = 0.75
#: at M = 1.25 is singular, whatever kappa
SINGULAR_D, SINGULAR_M = 0.75, 1.25

#: Block sizes of the grid sweeps: one point per block, blocks that cut
#: across d-rows, and one block for the whole grid
BLOCK_SIZES = [1, 5, 10**6]


def in_blocks(monkeypatch, block, sweep, *args, **kwargs):
    """``sweep(*args, **kwargs)`` with blocks of at most ``block`` points."""
    monkeypatch.setattr(spectrum, "BLOCK_POINTS", block)
    return sweep(*args, **kwargs)


class TestFindThreshold:
    def test_finite_m_is_quarter_period_of_the_phase(self):
        c = wavenumber_phase(0.0, 100.0, 1.0)
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
            c = wavenumber_phase(d, math.inf, 1.0)
            assert c == math.sqrt(1.0 + d * d)

    def test_trough_threshold_found(self):
        # the argument sin(kappa) reaches -1 at 3 pi/2: r diverges there too
        res = find_threshold(4.0, 5.5)
        assert res.found and res.diverges
        assert res.kappa == 1.5 * math.pi == res.nearest_reference
        assert res.peak_argument == -1.0

    def test_no_peak_in_bracket(self):
        res = find_threshold(2.0, 4.5)
        assert not res.found and res.kappa is None and not res.diverges

    def test_second_peak(self):
        res = find_threshold(7.0, 8.5)
        assert res.found and res.diverges
        assert res.kappa == math.pi / 2.0 + 2.0 * math.pi
        assert res.nearest_reference == pytest.approx(5.0 * math.pi / 2.0)
        assert res.deviation < 1e-14

    def test_peak_at_open_bracket_edge_excluded(self):
        assert not find_threshold(0.5, math.pi / 2.0).found
        assert find_threshold(math.pi / 2.0, 9.0).kappa == 1.5 * math.pi

    def test_negative_bracket_rejected(self):
        with pytest.raises(ParameterDomainError):
            find_threshold(-1.0, 2.0)

    def test_infinite_top_named_as_hi(self):
        # the caller passed hi, not kappa: the error names the argument
        with pytest.raises(ParameterDomainError,
                           match="^hi must be finite, got inf") as err:
            find_threshold(0.0, math.inf)
        assert err.value.name == "hi"
        # d and big_m are still checked first, under their own names
        with pytest.raises(ParameterDomainError, match="^d must be") as err:
            find_threshold(0.0, math.inf, d=math.nan)
        assert err.value.name == "d"


class TestSpectrumGrid:
    @pytest.mark.parametrize("method, big_m", [
        ("analytic", 40.0), ("scattering", 40.0), ("analytic", math.inf),
    ])
    def test_rows_match_the_scalar_api(self, method, big_m, monkeypatch):
        ds, ks = [0.0, 0.7, 2.0], np.linspace(0.0, 1.4, 8)
        *blocked, rows = [in_blocks(monkeypatch, block, spectrum_grid, ds, ks,
                                    big_m=big_m, method=method)
                          for block in BLOCK_SIZES]
        assert all(np.array_equal(table, rows) for table in blocked)
        assert rows.dtype == np.float64 and rows.shape == (len(ds) * len(ks), 4)
        assert [(d, k) for d, k, _, _ in rows] == [(d, k) for d in ds for k in ks]
        for d, k, r, above in rows.tolist():
            if method == "analytic":
                want = r_closed_form(d, big_m, k)
            else:
                want = r_from_coefficients(solve_scattering(
                    DimensionlessParams(d=d, big_m=big_m, kappa=k)))
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

    def test_closed_exterior_channel_in_a_row(self, monkeypatch):
        # the first closed point in row-major order is named
        for block in BLOCK_SIZES:
            with pytest.raises(ClosedExteriorChannelError,
                               match=r"big_m=2\.0, \|d\|=2\.5$"):
                in_blocks(monkeypatch, block, spectrum_grid, [0.0, 1.0, 2.5, 3.0],
                          [0.5, 1.0], big_m=2.0, method="scattering")

    def test_ill_conditioned_row_warns(self, monkeypatch):
        monkeypatch.setattr(scattering, "CONDITION_LIMIT", 1.0)
        with pytest.warns(IllConditionedWarning):
            spectrum_grid([0.3], [0.5, 1.0], big_m=50.0, method="scattering")

    @pytest.mark.filterwarnings("ignore::atomsqueeze.errors.IllConditionedWarning")
    def test_singular_point_raises(self):
        with pytest.raises(SolverError, match=r"at d=0\.75, kappa=0\.5$"):
            spectrum_grid([SINGULAR_D], [0.5, 1.0], big_m=SINGULAR_M,
                          method="scattering")
        with pytest.raises(SolverError):
            solve_scattering(DimensionlessParams(d=SINGULAR_D, big_m=SINGULAR_M,
                                                 kappa=0.5))


class TestCompareMethods:
    def test_singular_row_skipped_alone(self, monkeypatch):
        # blocks of 5 put the singular row into two blocks
        ds, ks = [0.0, 0.25, 0.5, SINGULAR_D], np.linspace(0.05, 1.3, 7)
        results = []
        for block in BLOCK_SIZES:
            rest = in_blocks(monkeypatch, block, compare_methods, ds[:3], ks,
                             SINGULAR_M)
            with pytest.warns(IllConditionedWarning):
                res = compare_methods(ds, ks, SINGULAR_M)
            assert res.n_skipped == rest.n_skipped + len(ks)
            assert res.n_points == rest.n_points
            assert res.max_abs == rest.max_abs
            assert res.mean_abs == rest.mean_abs
            results.append(res)
        assert all(res == results[-1] for res in results)

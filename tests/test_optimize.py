import math
import sys

import pytest

from hspstats import (
    BracketError,
    FilterBranch,
    FilterSpec,
    PairStatistics,
    SeriesOverflowError,
    SourceParams,
    ValidationError,
    analytic,
    moments_closed_form,
    optimize,
    optimize_mu,
    signal_pmf,
    sweep,
)
from hspstats.optimize import PMF_HEAD, SWEEP_AXES

CONFIGS = [(PairStatistics.POISSON, FilterSpec()),
           (PairStatistics.THERMAL, FilterSpec()),
           (PairStatistics.POISSON, FilterSpec(FilterBranch.SIGNAL, 0.3)),
           (PairStatistics.POISSON, FilterSpec(FilterBranch.HERALD, 0.3))]
CONFIG_IDS = ["poisson", "thermal", "signal", "herald"]


def fano(mu, eta_h, eta_s, d_h):
    """Fano ratio of a Poisson source, from the closed moments."""
    return moments_closed_form(SourceParams(mu, eta_h, eta_s, d_h)).fano


class TestFano:
    def test_unity_at_certain_darks(self):
        assert fano(0.02, 0.5, 0.5, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_dark_dominated_limit(self):
        assert fano(1e-7, 0.5, 0.5, 1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_returns_toward_unity_at_bright_pump(self):
        values = [fano(mu, 0.5, 0.5, 1e-4) for mu in (1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-6)


class TestOptimizeMu:
    def test_reference_optimum(self):
        result = optimize_mu(0.5, 0.5, 1e-4, bounds=(1e-5, 1.0))
        assert 0.014 <= result.mu_opt <= 0.018
        assert result.fano_opt == pytest.approx(0.512, abs=2e-3)

    def test_optimality_certificate(self):
        result = optimize_mu(0.5, 0.5, 1e-4, bounds=(1e-5, 1.0))
        for side in (1 + 2 * optimize.REL_TOL, 1 - 2 * optimize.REL_TOL):
            assert result.fano_opt <= fano(result.mu_opt * side, 0.5, 0.5, 1e-4)

    def test_tight_bracket_same_answer(self):
        wide = optimize_mu(0.5, 0.5, 1e-4, bounds=(1e-5, 1.0))
        tight = optimize_mu(0.5, 0.5, 1e-4, bounds=(0.012, 0.020))
        assert tight.mu_opt == pytest.approx(wide.mu_opt, rel=1e-3)

    def test_interior_result_beats_bracket_ends(self):
        lo, hi = 1e-5, 2.0
        result = optimize_mu(0.4, 0.8, 5e-4, bounds=(lo, hi))
        assert lo <= result.mu_opt <= hi
        assert result.fano_opt <= fano(lo, 0.4, 0.8, 5e-4)
        assert result.fano_opt <= fano(hi, 0.4, 0.8, 5e-4)

    def test_rejects_zero_darks(self):
        with pytest.raises(ValidationError, match="d_h"):
            optimize_mu(0.5, 0.5, 0.0)

    def test_bad_bracket_reports_boundary_minimum(self):
        # both ends on the same side of the minimum: the probe fails, and the
        # scan that follows is minimal at an end
        with pytest.raises(BracketError, match="scan is minimal at an end") as info:
            optimize_mu(0.5, 0.5, 1e-4, bounds=(0.5, 10.0))
        assert "pre_scan" not in str(info.value)

    @pytest.mark.parametrize("bounds", [(1e-200, 1e-100), (2.3e-308, 1e-300)])
    def test_rounding_noise_is_no_minimum(self, monkeypatch, bounds):
        # the Fano ratio is 1 within 2 epsilon across these brackets, so
        # interior points that round below both ends vouch for nothing
        calls, objective = [], optimize._fano

        def counted(point, mu):
            calls.append(mu)
            return objective(point, mu)

        monkeypatch.setattr(optimize, "_fano", counted)
        with pytest.raises(BracketError, match="by rounding at most") as info:
            optimize_mu(0.5, 0.5, 1e-4, bounds=bounds)
        assert "minimal at an end" not in str(info.value)
        values = [fano(mu, 0.5, 0.5, 1e-4) for mu in calls]
        assert min(values) < min(values[:2])   # an interior point rounds below both ends
        assert max(values) - min(values) <= 2 * sys.float_info.epsilon

    def test_rejects_a_subnormal_lower_end(self, monkeypatch):
        # at subnormal mu the moments lose up to 1e-4 relative
        monkeypatch.setattr(optimize, "_fano", None)   # no evaluation may run
        with pytest.raises(ValidationError, match="subnormal"):
            optimize_mu(0.5, 0.5, 1e-4, bounds=(1e-320, 1e-300))
        with pytest.raises(ValidationError, match="subnormal"):
            optimize_mu(0.5, 0.5, 1e-4, bounds=(sys.float_info.min / 2, 1.0))
        monkeypatch.undo()   # the smallest normal double is a valid lower end
        result = optimize_mu(0.5, 0.5, 1e-4, bounds=(sys.float_info.min, 10.0))
        assert 0.014 <= result.mu_opt <= 0.018

    @pytest.mark.parametrize("bounds", [(1.0, 0.5), (0.5, 0.5), (0.0, 1.0), (-1.0, 1.0),
                                        (math.nan, 1.0)])
    def test_rejects_a_bracket_out_of_order(self, monkeypatch, bounds):
        monkeypatch.setattr(optimize, "_fano", None)
        with pytest.raises(ValidationError, match="<= mu_lo < mu_hi"):
            optimize_mu(0.5, 0.5, 1e-4, bounds=bounds)

    def test_failed_probe_falls_back_to_the_scan(self):
        # the golden probe (mu about 2e-4) does not beat the upper end,
        # although the bracket holds the minimum
        bounds = (1e-6, 1.0)
        a, b = (math.log(x) for x in bounds)
        probe = math.exp(b - (b - a) * optimize._INV_PHI)
        ends = [fano(mu, 0.5, 0.5, 1e-4) for mu in bounds]
        assert fano(probe, 0.5, 0.5, 1e-4) >= min(ends)
        result = optimize_mu(0.5, 0.5, 1e-4, bounds=bounds)
        assert 0.014 <= result.mu_opt <= 0.018
        assert result.fano_opt == pytest.approx(0.512, abs=2e-3)
        assert result.evaluations == 24   # the probe, 14 scan points, the search

    @pytest.mark.parametrize("bounds", [(1e-5, 1.0), (1e-6, 5.0), (1e-6, 10.0)])
    def test_evaluation_count_reported(self, bounds):
        # the probe passes on these brackets, so no scan runs
        counts = {(1e-5, 1.0): 11, (1e-6, 5.0): 11, (1e-6, 10.0): 13}
        assert optimize_mu(0.5, 0.5, 1e-4, bounds=bounds).evaluations == counts[bounds]

    @pytest.mark.parametrize("bounds", [(1e-5, 1.0), (1e-6, 1.0), (1e-100, 10.0)])
    def test_evaluations_are_the_objective_calls(self, monkeypatch, bounds):
        calls, objective = [], optimize._fano

        def counted(point, mu):
            calls.append(mu)
            return objective(point, mu)

        monkeypatch.setattr(optimize, "_fano", counted)
        result = optimize_mu(0.5, 0.5, 1e-4, bounds=bounds)
        assert result.evaluations == len(calls)
        # the optimum is an evaluated point, reported with its own value
        assert result.mu_opt in calls
        assert result.fano_opt == fano(result.mu_opt, 0.5, 0.5, 1e-4)

    @pytest.mark.parametrize("eta_h", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("eta_s", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("d_h", [1e-5, 1e-4, 1e-3])
    def test_certificate_over_a_grid(self, eta_h, eta_s, d_h):
        result = optimize_mu(eta_h, eta_s, d_h)
        for side in (1 + 2 * optimize.REL_TOL, 1 - 2 * optimize.REL_TOL):
            assert result.fano_opt <= fano(result.mu_opt * side, eta_h, eta_s, d_h)
        assert result.evaluations < 29   # golden-section search took 29

    @pytest.mark.parametrize("mu_lo", [1e-100, 1e-200, 1e-300])
    def test_scan_resolves_a_dip_in_a_wide_bracket(self, mu_lo):
        # the dip spans about two decades: 16 points over 300 decades
        # would step over it, so the scan steps at most a decade
        result = optimize_mu(0.5, 0.5, 1e-4, bounds=(mu_lo, 10.0))
        assert 0.014 <= result.mu_opt <= 0.018

    @pytest.mark.parametrize("eta_h, d_h", [(0.0, 1e-4), (0.5, 1.0), (0.0, 1.0)])
    def test_rejects_a_herald_without_information(self, monkeypatch, eta_h, d_h):
        # the Fano ratio is exactly 1 at every mu: no bracket can help
        assert fano(0.01, eta_h, 0.5, d_h) == 1.0
        monkeypatch.setattr(optimize, "_fano", None)   # no evaluation may run
        with pytest.raises(ValidationError, match="does not depend on the pair number"):
            optimize_mu(eta_h, 0.5, d_h)

    def test_rejects_a_signal_branch_without_photons(self):
        # eta_s = 0: the mean photon number is 0 at every mu
        with pytest.raises(ValidationError, match="Fano ratio undefined"):
            optimize_mu(0.5, 0.0, 1e-4)


class TestSweep:
    def test_fano_curve_has_interior_minimum(self):
        grid = tuple(1e-4 * (1e4 ** (i / 49)) for i in range(50))
        result = sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="mu", grid=grid)
        fanos = [row.moments.fano for row in result.rows]
        k = fanos.index(min(fanos))
        assert 0 < k < len(fanos) - 1
        assert fanos[0] > fanos[k] < fanos[-1]
        assert min(fanos) < 0.6

    def test_rows_in_grid_order(self):
        grid = (0.1, 0.5, 0.9)
        result = sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="eta_s", grid=grid)
        assert tuple(row.value for row in result.rows) == grid

    def test_full_fraction_herald_filter_equals_thermal(self):
        params = SourceParams(0.01, 0.5, 0.5, 1e-4)
        result = sweep(
            params,
            filt=FilterSpec(FilterBranch.HERALD, 0.5),
            axis="f",
            grid=(1.0,),
        )
        thermal = signal_pmf(PairStatistics.THERMAL, params)
        for a, b in zip(result.rows[0].pmf_head, thermal.probs):
            assert a == pytest.approx(b, rel=1e-12)

    def test_failed_points_marked_not_fatal(self):
        # d_h = 0 with mu = 0 can never herald: that grid point must fail
        # while the rest of the sweep survives
        params = SourceParams(0.01, 0.5, 0.5, 0.0)
        result = sweep(params, axis="mu", grid=(0.0, 0.01, 0.1))
        assert result.rows[0].error is not None
        assert result.rows[0].moments is None
        assert result.rows[1].error is None

    @pytest.mark.parametrize("stat, filt", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_rows_are_the_substituted_configuration(self, axis, stat, filt):
        grid = {"mu": (0.001, 0.01, 0.1), "d_h": (0.0, 1e-4, 0.01)}.get(axis, (0.1, 0.5, 1.0))
        base = {"mu": 0.01, "eta_h": 0.5, "eta_s": 0.5, "d_h": 1e-4, "f": filt.f}
        params = SourceParams(0.01, 0.5, 0.5, 1e-4)
        result = sweep(params, stat, filt, axis=axis, grid=grid)
        for value, row in zip(grid, result.rows, strict=True):
            c = {**base, axis: value}
            point = SourceParams(c["mu"], c["eta_h"], c["eta_s"], c["d_h"])
            point_filt = FilterSpec(filt.branch, c["f"])
            assert row.error is None
            assert row.pmf_head == signal_pmf(stat, point, point_filt).probs[:PMF_HEAD]
            assert row.moments == moments_closed_form(point, stat, point_filt)

    @pytest.mark.parametrize("filt, axis, bad, build", [
        (FilterSpec(), "eta_h", 1.5, lambda v: SourceParams(0.01, v, 0.5, 1e-4)),
        (FilterSpec(FilterBranch.SIGNAL, 0.3), "f", 0.0,
         lambda v: FilterSpec(FilterBranch.SIGNAL, v)),
        (FilterSpec(FilterBranch.HERALD, 0.3), "f", 0.0,
         lambda v: FilterSpec(FilterBranch.HERALD, v)),
    ], ids=["eta_h", "signal-f", "herald-f"])
    def test_error_row_is_the_construction_error(self, filt, axis, bad, build):
        grid = tuple(sorted((bad, 0.5)))
        result = sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), filt=filt, axis=axis, grid=grid)
        with pytest.raises(ValidationError) as exc:
            build(bad)
        assert [row.error for row in result.rows] == [
            str(exc.value) if value == bad else None for value in grid]

    def test_out_of_range_value_marks_its_row_failed(self):
        result = sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="eta_h", grid=(0.5, 1.0, 1.5))
        assert [row.error is None for row in result.rows] == [True, True, False]
        assert "eta_h" in result.rows[2].error
        assert result.rows[2].moments is None and result.rows[2].pmf_head is None

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValidationError):
            sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="n", grid=(1.0,))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="mu", grid=())

    @pytest.mark.parametrize("grid", [(0.1, 0.1), (0.5, math.nan, 0.1), (0.1, math.nan, 0.5)],
                             ids=["repeated", "nan-between-decreasing", "nan-between-increasing"])
    def test_rejects_unsorted_grid(self, grid):
        # b <= a is false for nan, so a nan once slipped past the order check
        with pytest.raises(ValidationError, match="strictly increasing"):
            sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="mu", grid=grid)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_one_point_non_finite_grid_is_a_failed_row(self, value):
        (row,) = sweep(SourceParams(0.01, 0.5, 0.5, 1e-4), axis="mu", grid=(value,)).rows
        assert row.error == f"mu must be finite and >= 0, got {value!r}"
        assert row.moments is None and row.pmf_head is None

    def test_thermal_dimming_curve_same_shape(self):
        # the thermal closed moments must show the same dip below 1 with
        # recovery on both sides
        grid = tuple(1e-6 * (1e6 ** (i / 39)) for i in range(40))
        result = sweep(
            SourceParams(0.01, 0.5, 0.5, 1e-4),
            stat=PairStatistics.THERMAL,
            axis="mu",
            grid=grid,
        )
        fanos = [row.moments.fano for row in result.rows]
        k = fanos.index(min(fanos))
        assert 0 < k < len(fanos) - 1
        assert min(fanos) < 0.6
        assert fanos[0] > 0.95

    def test_rows_never_build_a_truncated_pmf(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep called signal_pmf")

        monkeypatch.setattr(analytic, "signal_pmf", refuse)
        monkeypatch.setattr(optimize, "signal_pmf", refuse, raising=False)
        params = SourceParams(0.01, 0.5, 0.5, 1e-4)
        for stat, filt in ((PairStatistics.POISSON, FilterSpec()),
                           (PairStatistics.THERMAL, FilterSpec()),
                           (PairStatistics.POISSON, FilterSpec(FilterBranch.SIGNAL, 0.3)),
                           (PairStatistics.POISSON, FilterSpec(FilterBranch.HERALD, 0.3))):
            result = sweep(params, stat, filt, axis="mu", grid=(1e-3, 0.1, 10.0))
            assert all(row.error is None for row in result.rows)

    def test_row_beyond_the_pmf_length_limit(self):
        # a thermal pmf at mu = 1e4 needs more than 100,001 terms, which
        # signal_pmf refuses; the row needs none of them
        params = SourceParams(1.0, 0.5, 0.5, 1e-4)
        result = sweep(params, PairStatistics.THERMAL, axis="mu", grid=(100.0, 1e4))
        with pytest.raises(SeriesOverflowError):
            signal_pmf(PairStatistics.THERMAL, SourceParams(1e4, 0.5, 0.5, 1e-4))
        for row in result.rows:
            assert row.error is None
            assert row.moments == moments_closed_form(
                SourceParams(row.value, 0.5, 0.5, 1e-4), PairStatistics.THERMAL)
        assert result.rows[1].moments.mean == pytest.approx(0.5 * 1e4, rel=1e-3)

    @pytest.mark.parametrize("branch", [FilterBranch.SIGNAL, FilterBranch.HERALD])
    def test_full_fraction_rows_are_thermal_bit_for_bit(self, branch):
        params = SourceParams(0.3, 0.6, 0.7, 1e-4)
        thermal = sweep(params, PairStatistics.THERMAL, FilterSpec(), axis="f", grid=(1.0,))
        filtered = sweep(params, filt=FilterSpec(branch, 0.5), axis="f", grid=(0.5, 1.0))
        assert filtered.rows[1] == thermal.rows[0]
        pmf = signal_pmf(PairStatistics.POISSON, params, FilterSpec(branch, 0.5))
        assert filtered.rows[0].pmf_head == pmf.probs[:PMF_HEAD]

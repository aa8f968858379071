"""Unit tests of the closed forms against independent references.

Expected constants were frozen from 40-digit evaluations of the defining
expressions (and, for the pmfs, from the direct conditional series), so a
regression in any closed form shows up against a value it did not produce.
"""

import ast
import itertools
import math
import random
import re
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from hspstats import (
    NO_FILTER,
    Pmf,
    FilterBranch,
    FilterSpec,
    NoHeraldError,
    PairStatistics,
    SeriesOverflowError,
    SourceParams,
    ValidationError,
    asymptotic_tail_check,
    conditional_pmf_series,
    effective_dark_count,
    herald_click_probability,
    herald_filter_convolution_oracle,
    moments_closed_form,
    moments_from_pmf,
    signal_pmf,
    unconditioned_terms,
    xi,
    xi_values,
)
from hspstats import analytic, errors, model, montecarlo, optimize, records, verify
from hspstats.analytic import _clicks, _pair_law, _poisson_tail_bound, _thin
from hspstats.verify import MOMENT_TOL, SERIES_TOL, sample_configurations

REF = SourceParams(0.01, 0.5, 0.5, 1e-4)
POISSON = PairStatistics.POISSON
THERMAL = PairStatistics.THERMAL


def max_term_dev(a, b):
    return max(abs(a.prob(i) - b.prob(i)) for i in range(max(len(a), len(b))))


class TestHeraldProb:
    def test_vacuum_only_dark_counts(self):
        assert _clicks(SourceParams(0.0, 0.5, 0.5, 1e-4))(0) == 1e-4

    def test_single_photon(self):
        assert _clicks(SourceParams(0.01, 0.5, 0.5, 0.0))(1) == pytest.approx(0.5)

    def test_two_photons_with_darks(self):
        assert _clicks(REF)(2) == pytest.approx(0.750025, abs=1e-15)

    def test_monotone(self):
        p = SourceParams(0.3, 0.21, 0.9, 3e-3)
        values = [_clicks(p)(N) for N in range(60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_perfect_detector(self):
        assert _clicks(SourceParams(0.1, 1.0, 0.5, 0.0))(3) == 1.0

    @pytest.mark.parametrize("d_h", [0.0, 5e-324, 1e-4, 0.3, 1.0 - 2.0**-53, 1.0])
    def test_perfect_detector_exactly(self, d_h):
        # the hazard 1e3 at eta_h = 1 misses with e^-1000 = 0: exactly d_h
        # without pairs and exactly 1 with any, by math and by numpy
        params = SourceParams(0.1, 1.0, 0.5, d_h)
        N = np.arange(model.TERM_CAP + 1.0)
        for click in (np.vectorize(_clicks(params)), _clicks(params, np.expm1)):
            values = click(N)
            assert values[0] == d_h
            assert (values[1:] == 1.0).all()


class TestInputPmf:
    def test_vacuum(self):
        assert _pair_law(POISSON, 0.0)[0](0) == 1.0
        assert _pair_law(POISSON, 0.0)[0](3) == 0.0

    def test_thermal_mu_one(self):
        assert _pair_law(THERMAL, 1.0)[0](1) == 0.25

    def test_poisson_value(self):
        assert _pair_law(POISSON, 0.01)[0](2) == pytest.approx(4.9502491687458403e-05, rel=1e-14)

    def test_both_normalize(self):
        for stat in (POISSON, THERMAL):
            total = math.fsum(_pair_law(stat, 0.8)[0](N) for N in range(400))
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 17, 40])
    @pytest.mark.parametrize("mu", [1e-3, 0.5, 4.0, 30.0, 40.0])
    def test_against_40_digit_reference(self, mu, N):
        # the grid crosses the Poisson switch from mu^N/N! to exp(lgamma) at
        # 32; exp(x) carries the rounding of the terms summed into x, about
        # N |log mu| + mu + log N! ulp relative (N ulp for the thermal power)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            m = mp.mpf(mu)
            refs = {POISSON: mp.exp(-m) * m**N / mp.factorial(N),
                    THERMAL: (m / (1 + m)) ** N / (1 + m)}
        for stat, ref in refs.items():
            rel = 4e-16 * (1.0 + N * abs(math.log(mu)) + mu + math.lgamma(N + 1))
            assert _pair_law(stat, mu)[0](N) == pytest.approx(float(ref), rel=rel, abs=0.0), stat

    @pytest.mark.parametrize("mu", [1e-3, 0.3, 5.0, 20.0, 31.9, 32.0])
    def test_poisson_terms_up_to_mean_32_keep_their_form(self, mu):
        # the benchmark's inputs stay below mean 32, so their terms keep these bits
        law = _pair_law(POISSON, mu)[0]
        for N in range(120):
            want = (math.exp(-mu) * mu**N / math.factorial(N) if N <= 32
                    else math.exp(N * math.log(mu) - mu - math.lgamma(N + 1)))
            assert law(N) == want, N

    @pytest.mark.parametrize("mu", [32.5, 100.0, 291.0, 300.0, 500.0, 1000.0])
    def test_bright_poisson_terms_against_40_digit_reference(self, mu):
        # Loader's form: exp(x) still carries the rounding of x, so the bound
        # grows with |log p|.  Measured first over 150 log-uniform means in
        # (32, 1000] and every term >= 1e-300: worst 21.2 eps (1 + |log p|);
        # exp(N log mu - mu - log N!) reached 1365 and summed to 1 - 2.5e-13
        mp = pytest.importorskip("mpmath")
        law, eps = _pair_law(POISSON, mu)[0], sys.float_info.epsilon
        top = int(mu + 40.0 * math.sqrt(mu) + 50.0)
        assert math.fsum(law(N) for N in range(top)) == pytest.approx(1.0, rel=0.0, abs=eps)
        with mp.workdps(40):
            m = mp.mpf(mu)
            for N in range(0, top, 7):
                ref = mp.exp(N * mp.log(m) - m - mp.loggamma(N + 1))
                if ref >= 1e-300:
                    bound = 32 * eps * (1.0 + abs(float(mp.log(ref))))
                    assert law(N) == pytest.approx(float(ref), rel=bound, abs=0.0), N

    @pytest.mark.parametrize("mu", [32.01, 35.0, 50.0])
    def test_poisson_terms_where_the_stirling_series_starts(self, mu):
        # stirlerr(N) leaves lgamma for its series at N = 16, where the
        # series needs its last term; measured worst 15.6 eps over N = 16..35
        mp = pytest.importorskip("mpmath")
        law = _pair_law(POISSON, mu)[0]
        with mp.workdps(40):
            m = mp.mpf(mu)
            for N in range(16, 36):
                ref = float(mp.exp(N * mp.log(m) - m - mp.loggamma(N + 1)))
                assert law(N) == pytest.approx(ref, rel=32 * sys.float_info.epsilon, abs=0.0), N


class TestXi:
    def test_poisson_values_reference(self):
        assert xi(POISSON, REF, NO_FILTER, 0) == pytest.approx(
            0.51044164672069037, rel=1e-13)
        assert xi(POISSON, REF, NO_FILTER, 1) == pytest.approx(
            98.544552886558932, rel=1e-13)

    def test_perfect_source_single_photon_factors(self):
        # eta_s = eta_h = 1, d_h = 0: xi_p(1) = e^mu/(e^mu - 1),
        # xi_t(1) = (1 + mu)/mu
        for mu in (0.001, 0.01, 0.1, 1.0):
            p = SourceParams(mu, 1.0, 1.0, 0.0)
            assert xi(POISSON, p, NO_FILTER, 1) == pytest.approx(
                math.exp(mu) / math.expm1(mu), rel=1e-13)
            assert xi(THERMAL, p, NO_FILTER, 1) == pytest.approx(
                (1.0 + mu) / mu, rel=1e-13)

    def test_vacuum_elimination_is_exact(self):
        p = SourceParams(0.37, 1.0, 1.0, 0.0)
        assert xi(POISSON, p, NO_FILTER, 0) == 0.0
        assert xi(THERMAL, p, NO_FILTER, 0) == 0.0

    def test_reduction_to_thermal_at_full_fraction(self):
        sig = FilterSpec(FilterBranch.SIGNAL, 1.0)
        her = FilterSpec(FilterBranch.HERALD, 1.0)
        for n in range(51):
            ref = xi(THERMAL, REF, NO_FILTER, n)
            assert xi(POISSON, REF, sig, n) == pytest.approx(ref, rel=1e-12)
            assert xi(POISSON, REF, her, n) == pytest.approx(ref, rel=1e-12)

    def test_herald_filtered_survives_perfect_heralding_branch(self):
        # (1-eta_h)^n multiplies a divergent factor at eta_h = 1; the
        # absorbed evaluation must stay finite and match the oracle
        p = SourceParams(0.2, 1.0, 0.6, 1e-3)
        filt = FilterSpec(FilterBranch.HERALD, 0.5)
        closed = signal_pmf(POISSON, p, filt)
        oracle = herald_filter_convolution_oracle(p, 0.5)
        assert max_term_dev(closed, oracle) < 1e-12

    @pytest.mark.parametrize("stat, filt", [
        (POISSON, NO_FILTER),
        (THERMAL, NO_FILTER),
        (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.3)),
        (POISSON, FilterSpec(FilterBranch.HERALD, 0.3)),
    ])
    def test_values_equal_single_factors(self, stat, filt):
        p = SourceParams(0.8, 0.6, 0.7, 1e-3)
        single = [xi(stat, p, filt, n) for n in range(40)]
        assert xi_values(stat, p, filt, 39) == single

    def test_herald_filtered_factor_is_term_over_base(self):
        filt = FilterSpec(FilterBranch.HERALD, 0.3)
        pmf = signal_pmf(POISSON, REF, filt)
        bases = unconditioned_terms(POISSON, REF, filt, len(pmf))
        for n, factor in enumerate(xi_values(POISSON, REF, filt, len(pmf) - 1)):
            assert bases[n] * factor == pytest.approx(pmf.probs[n], rel=1e-15)

    def test_herald_filtered_stays_within_the_click_bound(self):
        # p(n)/Th(a, n) grows past 1e308 at f = 1e-6 from n = 69 on, while
        # p(n)/U(n) lies between xi(0) and 1/P_click, also beyond the pmf
        params = SourceParams(30.0, 0.5, 0.5, 1e-4)
        filt = FilterSpec(FilterBranch.HERALD, 1e-6)
        sup = 1.0 / herald_click_probability(POISSON, params, filt)
        pmf = signal_pmf(POISSON, params, filt)
        factors = xi_values(POISSON, params, filt, len(pmf) + 100)
        assert len(pmf) > 69
        assert all(factors[0] <= x <= sup * (1.0 + 4 * sys.float_info.epsilon) for x in factors)
        bases = unconditioned_terms(POISSON, params, filt, len(pmf))
        for n, p in enumerate(pmf.probs):
            assert bases[n] * factors[n] == pytest.approx(p, rel=1e-12), n

    def test_no_herald_error(self):
        with pytest.raises(NoHeraldError):
            xi(POISSON, SourceParams(0.0, 0.5, 0.5, 0.0), NO_FILTER, 0)

    @pytest.mark.parametrize("filt", [NO_FILTER, FilterSpec(FilterBranch.HERALD, 0.3)])
    def test_negative_table_length_is_validation_error(self, filt):
        with pytest.raises(ValidationError, match="must be >= 0"):
            xi_values(POISSON, REF, filt, -5)
        assert xi_values(POISSON, REF, filt, 0) == [xi(POISSON, REF, filt, 0)]

    @pytest.mark.parametrize("mu", [5e-324, 1e-318])
    def test_underflowed_kept_mode_gives_the_vacuum_factor(self, mu):
        # a = mu*f*eta_s underflows to 0 while the extraneous mean does not:
        # every signal photon is extraneous, so xi(n) = xi(0) <= 1/P_click,
        # where p(n)/Th(a, n) was unbounded beyond n = 0
        params = SourceParams(mu, 0.5, 1.0, 0.1)
        filt = FilterSpec(FilterBranch.HERALD, 1e-6)
        sup = 1.0 / herald_click_probability(POISSON, params, filt)
        vacuum = xi(POISSON, params, filt, 0)
        assert 0.0 < vacuum <= sup
        assert xi_values(POISSON, params, filt, 5) == [vacuum] * 6
        assert [xi(POISSON, params, filt, n) for n in (1, 2, 5)] == [vacuum] * 3
        # the pmf terms stay finite: the signal count is the extraneous one
        assert signal_pmf(POISSON, params, filt).probs[0] == 1.0


class TestXiLimit:
    """The large-n limit of the unfiltered xi, 1/P_click."""

    def test_certain_dark_counts(self):
        assert 1 / herald_click_probability(POISSON, SourceParams(0.01, 0.5, 0.5, 1.0)) == 1.0

    def test_thermal_value_reference(self):
        assert 1 / herald_click_probability(THERMAL, REF) == pytest.approx(
            197.05882352941176, rel=1e-13)

    def test_bounds_xi_over_range(self):
        lim_p = 1 / herald_click_probability(POISSON, REF)
        lim_t = 1 / herald_click_probability(THERMAL, REF)
        for n in range(201):
            assert xi(POISSON, REF, NO_FILTER, n) <= lim_p * (1 + 1e-12)
            assert xi(THERMAL, REF, NO_FILTER, n) <= lim_t * (1 + 1e-12)

    def test_no_herald(self):
        with pytest.raises(NoHeraldError):
            xi_values(POISSON, SourceParams(0.0, 0.5, 0.5, 0.0))


# every closed form that takes a configuration as (stat, params, filt)
CONFIGURATION_ENTRY_POINTS = {
    "signal_pmf": lambda stat, filt: signal_pmf(stat, REF, filt),
    "unconditioned_terms": lambda stat, filt: unconditioned_terms(stat, REF, filt, 2),
    "herald_click_probability": lambda stat, filt: herald_click_probability(stat, REF, filt),
    "moments_closed_form": lambda stat, filt: moments_closed_form(REF, stat, filt),
    "heralded_terms": lambda stat, filt: analytic.heralded_terms(stat, REF, filt, 4),
    "xi": lambda stat, filt: xi(stat, REF, filt, 1),
    "xi_values": lambda stat, filt: xi_values(stat, REF, filt, 5),
}


@pytest.mark.parametrize("branch", [FilterBranch.SIGNAL, FilterBranch.HERALD])
@pytest.mark.parametrize("entry", sorted(CONFIGURATION_ENTRY_POINTS))
def test_mode_filter_refuses_a_thermal_source(entry, branch):
    call = CONFIGURATION_ENTRY_POINTS[entry]
    filt = FilterSpec(branch, 0.5)
    with pytest.raises(ValidationError, match="requires Poisson pair statistics"):
        call(THERMAL, filt)
    call(POISSON, filt)


@pytest.mark.parametrize("filt", [NO_FILTER, FilterSpec(FilterBranch.HERALD, 0.3)])
def test_heralded_terms_refuses_a_negative_count(filt):
    with pytest.raises(ValidationError, match="must be >= 0"):
        analytic.heralded_terms(POISSON, REF, filt, -1)
    assert analytic.heralded_terms(POISSON, REF, filt, 0) == ()


class TestHeraldGainRatio:
    """The heralding gain xi(1)/xi(0), which tends to 1 - eta_h + eta_h/d_h
    as mu -> 0 for both laws."""

    @staticmethod
    def gain(stat, params):
        xi0, xi1 = xi_values(stat, params, NO_FILTER, 1)
        return xi1 / xi0

    def test_small_mu_limit(self):
        p = SourceParams(1e-12, 0.5, 0.5, 1e-4)
        expected = 1.0 - 0.5 + 0.5 / 1e-4
        assert self.gain(POISSON, p) == pytest.approx(expected, rel=1e-6)
        assert self.gain(THERMAL, p) == pytest.approx(expected, rel=1e-6)

    def test_statistics_agree_at_tiny_mu(self):
        p = SourceParams(1e-9, 0.7, 0.4, 2e-4)
        rp = self.gain(POISSON, p)
        rt = self.gain(THERMAL, p)
        assert rp == pytest.approx(rt, rel=1e-6)

    def test_uninformative_herald(self):
        p = SourceParams(0.05, 0.0, 0.5, 1e-3)
        assert self.gain(POISSON, p) == pytest.approx(1.0, rel=1e-12)


class TestConditionalSeries:
    def test_matches_frozen_value(self):
        pmf = conditional_pmf_series(POISSON, REF)
        assert pmf.prob(1) == pytest.approx(0.49026529939294700, rel=1e-12)

    def test_matches_closed_form_everywhere(self):
        for stat in (POISSON, THERMAL):
            series = conditional_pmf_series(stat, REF)
            closed = signal_pmf(stat, REF)
            assert max_term_dev(series, closed) < 1e-12

    def test_certain_dark_count_leaves_statistics_unchanged(self):
        p = SourceParams(0.3, 0.5, 0.7, 1.0)
        pmf = conditional_pmf_series(POISSON, p)
        a = p.mu * p.eta_s
        for n in range(len(pmf)):
            assert pmf.prob(n) == pytest.approx(math.exp(-a) * a**n / math.factorial(n),
                                                abs=1e-12)

    def test_perfect_source_eliminates_vacuum(self):
        pmf = conditional_pmf_series(POISSON, SourceParams(0.01, 1.0, 1.0, 0.0))
        assert pmf.prob(0) == 0.0

    def test_no_herald(self):
        with pytest.raises(NoHeraldError):
            conditional_pmf_series(POISSON, SourceParams(0.0, 0.5, 0.5, 0.0))

    def test_respects_tolerance_contract(self):
        pmf = conditional_pmf_series(THERMAL, SourceParams(0.9, 0.3, 0.8, 1e-3), tol=1e-9)
        assert pmf.tail_bound <= 1e-9
        assert math.fsum(pmf.probs) >= 1.0 - pmf.tail_bound


class TestTolerance:
    ROUTES = pytest.mark.parametrize("route", [
        lambda tol: signal_pmf(POISSON, REF, NO_FILTER, tol),
        lambda tol: conditional_pmf_series(THERMAL, REF, tol),
        lambda tol: herald_filter_convolution_oracle(REF, 0.5, tol),
    ], ids=["signal_pmf", "conditional_pmf_series", "herald_filter_convolution_oracle"])

    # above 1 a tail bound says nothing: tol 20 gave tail_bound 2.98
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 1e-14, 1.5, 20.0])
    @ROUTES
    def test_refused(self, route, tol):
        with pytest.raises(ValidationError, match="tolerance must be finite and >= 1e-13"):
            route(tol)

    @ROUTES
    def test_one_is_accepted(self, route):
        assert route(1.0).tail_bound <= 1.0


def _needed_terms(exc) -> int:
    """The term count that a refused pmf truncation names in its message."""
    return int(re.fullmatch(r"pmf truncation needs at least (\d+) terms", str(exc)).group(1))


class TestSignalPmf:
    def test_perfect_source_poisson(self):
        for mu in (0.001, 0.01, 0.1, 1.0):
            pmf = signal_pmf(POISSON, SourceParams(mu, 1.0, 1.0, 0.0))
            assert pmf.prob(0) == 0.0
            assert abs(pmf.prob(1) - mu / math.expm1(mu)) < 1e-12

    def test_perfect_source_thermal(self):
        for mu in (0.001, 0.01, 0.1, 1.0):
            pmf = signal_pmf(THERMAL, SourceParams(mu, 1.0, 1.0, 0.0))
            assert abs(pmf.prob(1) - 1.0 / (1.0 + mu)) < 1e-12

    def test_tail_bound_honored(self):
        for tol in (1e-6, 1e-9, 1e-12):
            pmf = signal_pmf(POISSON, REF, NO_FILTER, tol)
            assert pmf.tail_bound <= tol
            assert math.fsum(pmf.probs) >= 1.0 - tol

    def test_herald_filtered_matches_oracle_at_deep_filter(self):
        filt = FilterSpec(FilterBranch.HERALD, 0.1)
        closed = signal_pmf(POISSON, REF, filt)
        oracle = herald_filter_convolution_oracle(REF, 0.1)
        assert max_term_dev(closed, oracle) < 1e-10

    def test_vacuum_input(self):
        pmf = signal_pmf(POISSON, SourceParams(0.0, 0.5, 0.5, 1e-4))
        assert pmf.prob(0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("params", [REF, SourceParams(20.0, 0.5, 0.9, 1e-4)])
    def test_herald_filter_at_full_fraction_is_thermal(self, params):
        # no extraneous population at f = 1: same truncation, same terms
        filtered = signal_pmf(POISSON, params, FilterSpec(FilterBranch.HERALD, 1.0))
        thermal = signal_pmf(THERMAL, params)
        assert len(filtered) == len(thermal)
        for a, b in zip(filtered.probs, thermal.probs):
            assert a == pytest.approx(b, rel=2e-15, abs=0.0)

    def test_hopeless_thermal_truncation_refused_up_front(self):
        with pytest.raises(SeriesOverflowError) as info:
            signal_pmf(THERMAL, SourceParams(1e7, 0.5, 0.5, 1e-4))
        assert _needed_terms(info.value) > 100_001

    @pytest.mark.parametrize("filt", [NO_FILTER, FilterSpec(FilterBranch.HERALD, 0.5)])
    def test_hopeless_poisson_base_truncation_refused_up_front(self, filt):
        # the Poisson pmf used to sum 100,000 terms first; the herald filter
        # at mu = 1e6 would run 100,000 recurrence steps
        mu = 1e7 if filt is NO_FILTER else 1e6
        start = time.perf_counter()
        with pytest.raises(SeriesOverflowError) as info:
            signal_pmf(POISSON, SourceParams(mu, 0.5, 0.5, 1e-4), filt)
        assert time.perf_counter() - start < 0.05
        assert _needed_terms(info.value) > 100_001

    @pytest.mark.parametrize("stat, mu, need", [
        (POISSON, 1e7, 5_000_000),          # the kept mean a = mu eta_s
        (POISSON, 198_000.0, 100_002),      # at least TERM_CAP + 2
        (THERMAL, 1e7, 138_681_924),        # where the exact thermal tail meets tol
        (THERMAL, 1e300, 2**63),            # capped
    ])
    def test_refusal_names_the_terms_it_needs(self, stat, mu, need):
        with pytest.raises(SeriesOverflowError) as info:
            signal_pmf(stat, SourceParams(mu, 0.5, 0.5, 1e-4))
        assert _needed_terms(info.value) == need

    @pytest.mark.parametrize("stat, mu, rate", [(POISSON, 1e-318, "6.99997e-319"),
                                                (THERMAL, 3e-309, "2.1e-309")])
    def test_refusal_names_the_herald_rate(self, stat, mu, rate):
        with pytest.raises(SeriesOverflowError) as info:
            signal_pmf(stat, SourceParams(mu, 0.7, 0.5, 0.0))
        assert str(info.value) == f"herald rate {rate} is too small: 1/P_click leaves double range"

    @pytest.mark.parametrize("mu", [291.0, 300.0, 500.0, 1000.0])
    @pytest.mark.parametrize("eta_s", [0.5, 1.0])
    def test_bright_poisson_source_is_accepted(self, mu, eta_s):
        # Pmf refuses a law whose terms sum short of 1 by more than the tail
        # bound, as exp(N log mu - mu - log N!) did from mean 291 on
        p = SourceParams(mu, 0.5, eta_s, 1e-3)
        pmf = signal_pmf(POISSON, p)
        assert pmf.tail_bound <= analytic.DEFAULT_TOL
        assert moments_from_pmf(pmf).mean == pytest.approx(moments_closed_form(p).mean, rel=1e-11)

    @pytest.mark.parametrize("stat, filt", [
        (THERMAL, NO_FILTER),
        (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.3)),
        (POISSON, FilterSpec(FilterBranch.HERALD, 0.3)),
    ])
    @pytest.mark.parametrize("eta_s", [0.0, 1e-20])
    def test_dim_signal_terms_stay_probabilities(self, stat, filt, eta_s):
        # a closed-form p(0) rounding one ulp above 1 used to fail Pmf
        for mu in (0.5, 0.37, 2.0, 13.0):
            pmf = signal_pmf(stat, SourceParams(mu, 0.5, eta_s, 1e-4), filt)
            assert pmf.probs[0] == pytest.approx(1.0, abs=1e-15)
            assert all(p <= 1.0 for p in pmf.probs)
            if eta_s == 0.0:
                assert len(pmf) == 1

    @pytest.mark.parametrize("a", [0.3, 2.0, 49.5, 50.0, 1234.56])
    def test_capped_poisson_tail_bound_is_non_increasing(self, a):
        # signal_pmf gallops and bisects for its truncation order on this;
        # uncapped, the bound exceeds 1 just above n = a - 2
        tail = analytic._pair_law(POISSON, a)[1]
        bounds = [tail(n) for n in range(int(3 * a) + 20)]
        assert all(x >= y for x, y in zip(bounds, bounds[1:]))
        assert max(bounds) <= 1.0

    @pytest.mark.parametrize("n", [0, 3, 10, 60])
    @pytest.mark.parametrize("a", [1e-3, 0.5, 5.0])
    def test_poisson_tail_bound_holds_against_scipy(self, a, n):
        # an upper bound on P(X > n), and within the geometric factor of it
        exact = float(stats.poisson.sf(n, a))
        bound = _poisson_tail_bound(a, n)
        assert bound >= exact * (1.0 - 1e-12)
        if a < n + 2:
            assert bound <= exact / (1.0 - a / (n + 2)) * (1.0 + 1e-12)

    @pytest.mark.parametrize("excess, clamped", [(1, True), (4, True), (5, False), (2**50, False)])
    def test_only_rounding_excess_above_one_is_clamped(self, monkeypatch, excess, clamped):
        # a few ulp above 1 is rounding and stored as 1; more reaches Pmf's check
        real = analytic._factor

        def overshooting(desc, params):
            sup, _, *rest = real(desc, params)
            return sup, lambda count=None: iter([1.0 + excess * sys.float_info.epsilon]), *rest

        monkeypatch.setattr(analytic, "_factor", overshooting)
        params = SourceParams(0.5, 0.5, 0.0, 1e-4)     # eta_s = 0: one term
        if clamped:
            assert signal_pmf(THERMAL, params).probs == (1.0,)
        else:
            with pytest.raises(ValidationError):
                signal_pmf(THERMAL, params)

    @pytest.mark.parametrize("f", [3e-5, 1e-6])
    def test_herald_filtered_matches_oracle_at_tiny_fraction(self, f):
        # the former k-sum weights y^k/k! left double range here
        params = SourceParams(30.0, 0.5, 0.5, 1e-4)
        closed = signal_pmf(POISSON, params, FilterSpec(FilterBranch.HERALD, f))
        oracle = herald_filter_convolution_oracle(params, f)
        assert max_term_dev(closed, oracle) < SERIES_TOL

    def test_herald_filtered_survives_underflowing_extraneous_vacuum(self):
        # e^(-lam) underflows at lam ~ 1000; the terms start from log form
        params = SourceParams(2000.0, 0.5, 0.5, 1e-4)
        pmf = signal_pmf(POISSON, params, FilterSpec(FilterBranch.HERALD, 1e-4))
        lam = 2000.0 * 0.5 * (1.0 - 1e-4)
        assert moments_from_pmf(pmf).mean == pytest.approx(lam, abs=1.0)
        assert moments_from_pmf(pmf).variance == pytest.approx(lam, rel=0.01)


class TestConvolutionOracle:
    def test_full_fraction_equals_thermal(self):
        oracle = herald_filter_convolution_oracle(REF, 1.0)
        thermal = signal_pmf(THERMAL, REF)
        assert max_term_dev(oracle, thermal) < 1e-12

    def test_vacuum_with_darks(self):
        oracle = herald_filter_convolution_oracle(SourceParams(0.0, 0.5, 0.5, 1e-3), 0.5)
        assert oracle.prob(0) == pytest.approx(1.0, abs=1e-13)

    def test_no_herald(self):
        with pytest.raises(NoHeraldError):
            herald_filter_convolution_oracle(SourceParams(0.0, 0.5, 0.5, 0.0), 0.5)


# mu 5..40 at three (eta_h, eta_s) levels and three dark counts, where the
# pair sums run to hundreds or thousands of terms
HIGH_MU_GRID = [SourceParams(mu, eta_h, eta_s, d_h)
                for mu in (5.0, 10.0, 20.0, 40.0)
                for eta_h, eta_s in ((0.4, 0.9), (0.8, 0.2), (0.05, 1.0))
                for d_h in (0.0, 1e-6, 1e-3)]


class TestPairSumTruncation:
    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13])
    def test_tail_bound_within_tol(self, tol):
        # includes (mu 40, eta_h 0.4, eta_s 0.9, d_h 1e-6, f 1, tol 1e-13),
        # where separate budget splits once reported 1.0039e-13
        for p in HIGH_MU_GRID:
            pmfs = [conditional_pmf_series(stat, p, tol) for stat in (POISSON, THERMAL)]
            pmfs += [herald_filter_convolution_oracle(p, f, tol) for f in (1.0, 0.5, 0.1)]
            for pmf in pmfs:
                assert pmf.tail_bound <= tol, p

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    def test_full_fraction_is_the_thermal_series_exactly(self, tol):
        # f = 1 leaves no extraneous photons: one pair sum, same terms and bound
        for p in HIGH_MU_GRID[::3] + [p for p, _ in sample_configurations(12)]:
            assert herald_filter_convolution_oracle(p, 1.0, tol) == \
                conditional_pmf_series(THERMAL, p, tol), p


class TestThinning:
    def test_matches_binomial_definition(self):
        weights = [0.0, 0.4, 0.0, 0.0, 1.5, 0.25, 0.0, 2.0e-3, 0.7, 0.0]
        for eta in (0.3, 1.0):
            expected = [0.0] * len(weights)
            for N, w in enumerate(weights):
                for n in range(N + 1):
                    expected[n] += w * math.comb(N, n) * eta**n * (1.0 - eta) ** (N - n)
            got = _thin(weights, eta)
            assert len(got) == len(weights)
            for a, b in zip(got, expected):
                assert a == pytest.approx(b, rel=1e-13, abs=1e-16)

    def test_matches_exact_binomial_sum_at_300_weights(self):
        # exact in integers: w[N] = W[N]/scale and eta = a/2^k, so that
        # sum_N w[N] C(N,n) eta^n (1-eta)^(N-n) is a^n sum_N W[N] C(N,n)
        # (2^k-a)^(N-n) 2^(k(top-N)) over scale 2^(k top)
        rng = random.Random(7)
        weights = [rng.uniform(0.5, 1.0) * 0.97**N for N in range(300)]
        scale = max(Fraction(w).denominator for w in weights)
        ints = [int(Fraction(w) * scale) for w in weights]
        top = len(weights) - 1
        for eta in (0.0, 0.3, 1.0):
            a, d = eta.as_integer_ratio()
            k = d.bit_length() - 1
            lose = [(d - a) ** j for j in range(top + 1)]
            got = _thin(weights, eta)
            assert len(got) == len(weights)
            for n, value in enumerate(got):
                total = sum(ints[N] * math.comb(N, n) * lose[N - n] << k * (top - N)
                            for N in range(n, top + 1))
                exact = float(Fraction(a**n * total, scale << k * top))
                assert value == pytest.approx(exact, rel=1e-13, abs=0.0)

    @staticmethod
    def exact_thin(weights, eta):
        """sum_N w[N] Binomial(N, eta), each term rounded once from exact
        integers.  With eta = a/d, V_N = w[N] scale (d-a)^N d^(top-N) and
        Q_n = sum_N V_N C(N, n), summed by Pascal's rule in integer additions,
        term n is Q_n a^n / (scale d^top (d-a)^n)."""
        a, d = eta.as_integer_ratio()
        if a == d:  # Binomial(N, 1) keeps every photon
            return list(weights)
        scale = max(Fraction(w).denominator for w in weights)
        top = len(weights) - 1
        v = [int(Fraction(w) * scale) * (d - a) ** N * d ** (top - N)
             for N, w in enumerate(weights)]
        q = [v[top]]
        for N in range(top - 1, -1, -1):
            q = [q[0] + v[N]] + [x + y for x, y in zip(q[1:], q)] + [q[-1]]
        num, den, exact = 1, scale * d**top, []
        for c in q:
            exact.append(c * num / den)   # int true division rounds once
            num, den = num * a, den * (d - a)
        return exact

    @pytest.mark.parametrize("eta", [0.0, 1e-3, 0.3, 0.97, 1.0])
    def test_matches_exact_binomial_sum_across_block_edges(self, eta):
        # lengths at and around the 32-pair block and the 616 pair terms of
        # the thermal series at mu = 20; below the smallest normal double
        # the format holds fewer than 53 bits, so there the relative bound
        # is taken of that double
        rng = random.Random(11)
        weights = [rng.uniform(0.5, 1.0) * 0.97**N for N in range(616)]
        for size in (1, 31, 32, 33, 64, 65, 616):
            got = _thin(weights[:size], eta)
            exact = self.exact_thin(weights[:size], eta)
            assert len(got) == size
            for value, ref in zip(got, exact):
                assert value == pytest.approx(ref, rel=1e-13, abs=1e-13 * sys.float_info.min)

    def test_single_weight_is_returned_as_is(self):
        assert _thin([0.375], 0.3) == [0.375]

    @pytest.mark.parametrize("size", [1, 3, 32, 33, 100])
    def test_returns_a_writable_float_array(self, size):
        # the pair sum's array steps divide and clamp the result in place;
        # a view of the cached, read-only binomial rows would refuse that
        got = _thin([0.5 ** N for N in range(size)], 0.3)
        assert got.dtype == float and got.shape == (size,) and got.flags.writeable

    def test_high_mu_oracles_stay_finite(self):
        # about 1200 pairs: C(N, n) no longer fits in a double
        p = SourceParams(30.0, 1e-6, 0.5, 1e-4)
        series = conditional_pmf_series(THERMAL, p)
        assert all(math.isfinite(x) for x in series.probs)
        assert max_term_dev(series, signal_pmf(THERMAL, p)) < SERIES_TOL
        oracle = herald_filter_convolution_oracle(p, 1.0)
        assert all(math.isfinite(x) for x in oracle.probs)
        closed = signal_pmf(POISSON, p, FilterSpec(FilterBranch.HERALD, 1.0))
        assert max_term_dev(oracle, closed) < SERIES_TOL


class TestHeraldWeights:
    @staticmethod
    def pair_sum(stat, mu, click, stop):
        # one pair-law term per pair number, times click(N) for a weighted
        # law, stopping at the first N >= 8 whose input tail is at most stop
        # times the running sum
        law = _pair_law(stat, mu)[0]
        weights, total, N = [], 0.0, 0
        while True:
            w = law(N) if click is None else law(N) * click(N)
            weights.append(w)
            total += w
            tail = (_poisson_tail_bound(mu, N) if stat is POISSON
                    else (mu / (1.0 + mu)) ** (N + 1))
            if N >= 8 and total > 0.0 and tail <= stop * total:
                return weights, total
            N += 1

    @pytest.mark.parametrize("stat", [POISSON, THERMAL])
    @pytest.mark.parametrize("mu,eta_h,d_h", [
        (mu, eta_h, d_h)
        for mu in (0.0, 1e-3, 0.3, 5.0, 20.0, 30.0)
        for eta_h in (0.6, 1.0)
        for d_h in (1e-4, 0.0)
        if mu > 0.0 or d_h > 0.0   # else the herald never fires: the oracles refuse first
    ])
    def test_equal_to_the_pair_sum_bit_for_bit(self, stat, mu, eta_h, d_h):
        params = SourceParams(mu, eta_h, 0.5, d_h)
        herald = _clicks(params)
        # the convolution oracle weights the kept mode, of mean mu*f
        for law_mu, stop in itertools.product((mu, 0.3 * mu), (0.1 * 1e-12, 0.1 * 1e-13, 1e-7)):
            got = analytic._herald_weights(stat, law_mu, analytic._clicks(params), stop)
            assert got == self.pair_sum(stat, law_mu, herald, stop)

    @pytest.mark.parametrize("mu", [1e-3, 0.3, 5.0, 20.0, 40.0])
    def test_unweighted_extra_law_bit_for_bit(self, mu):
        # the extraneous Poisson photons of the convolution oracle: click = 1
        for stop in (0.1 * 1e-12, 0.1 * 1e-13, 1e-7):
            got = analytic._herald_weights(POISSON, mu, lambda N: 1.0, stop)
            assert got == self.pair_sum(POISSON, mu, None, stop)


class TestArrayWeights:
    """The numpy pass that builds long thermal pair sums, against the loop of
    _herald_weights.  numpy's power and expm1 round differently from math's,
    so the weights agree to a relative bound, measured before this test was
    written: worst 2.9 epsilon over 11,243 configurations (mu 1 to 1000)."""

    RTOL = 4 * sys.float_info.epsilon
    MEANS = [1.0, 3.0, 10.0, 25.0, 32.0, 33.0, 100.0, 300.0, 1000.0]

    @pytest.mark.parametrize("mu", MEANS)
    def test_equal_to_the_loop_within_rounding(self, mu):
        clicks = [SourceParams(mu, eta_h, 0.5, d_h)
                  for eta_h in (0.05, 0.6, 1.0) for d_h in (0.0, 1e-4, 0.3)]
        for params, stop in itertools.product(clicks, (1e-13, 1e-14, 1e-7)):
            want, want_sum = analytic._herald_weights(THERMAL, mu, _clicks(params), stop)
            got, got_sum = analytic._array_weights(mu, params, stop)
            assert len(got) == len(want), (params, stop)   # the same cut
            assert got.tolist() == pytest.approx(
                want, rel=self.RTOL, abs=self.RTOL * sys.float_info.min), (params, stop)
            assert got_sum == pytest.approx(want_sum, rel=self.RTOL, abs=0.0)

    def test_grows_the_array_past_its_first_size(self):
        # a herald this weak weights the thermal law by about N eta_h, which
        # needs 580 terms, past the first array of 512 terms sized for
        # the 314 the unweighted law predicts
        params, stop = SourceParams(10.0, 1e-12, 0.5, 0.0), 1e-13
        first = 1 << int(1.25 * analytic._predicted_length(10.0, stop)).bit_length()
        want, want_sum = analytic._herald_weights(THERMAL, 10.0, _clicks(params), stop)
        got, got_sum = analytic._array_weights(10.0, params, stop)
        assert len(got) == len(want) == 580 > first
        assert got.tolist() == pytest.approx(want, rel=self.RTOL, abs=0.0)
        assert got_sum == pytest.approx(want_sum, rel=self.RTOL, abs=0.0)

    def test_refuses_a_sum_past_the_term_cap(self):
        params = SourceParams(1e5, 0.5, 0.5, 1e-4)
        with pytest.raises(SeriesOverflowError, match="within 100000 terms") as loop:
            analytic._herald_weights(THERMAL, 1e5, _clicks(params), 1e-13)
        with pytest.raises(SeriesOverflowError) as array:
            analytic._array_weights(1e5, params, 1e-13)
        assert str(array.value) == str(loop.value)
        with pytest.raises(SeriesOverflowError, match="within 100000 terms"):
            conditional_pmf_series(THERMAL, params)

    @pytest.mark.parametrize("mu", MEANS)
    def test_predicted_length_tracks_the_cut(self, mu):
        # the pair sum picks its path by this prediction
        for stop in (1e-13, 1e-14, 1e-7):
            size = len(analytic._herald_weights(THERMAL, mu, lambda N: 1.0, stop)[0])
            assert analytic._predicted_length(mu, stop) == pytest.approx(size, rel=0.05, abs=2)

    @pytest.mark.parametrize("mu", [50.0, 200.0])
    @pytest.mark.parametrize("eta_h,eta_s,d_h", [(0.4, 0.9, 1e-6), (0.05, 0.5, 1e-3),
                                                 (1.0, 0.2, 0.0)])
    def test_long_oracles_match_the_closed_forms(self, mu, eta_h, eta_s, d_h):
        # beyond test_high_mu_oracles_stay_finite (mu 30), below the Poisson
        # pmf's refusal near mu 291
        p = SourceParams(mu, eta_h, eta_s, d_h)
        for stat in (POISSON, THERMAL):
            assert max_term_dev(conditional_pmf_series(stat, p), signal_pmf(stat, p)) < SERIES_TOL
        closed = signal_pmf(POISSON, p, FilterSpec(FilterBranch.HERALD, 0.5))
        assert max_term_dev(herald_filter_convolution_oracle(p, 0.5), closed) < SERIES_TOL


class TestArrayTerms:
    """The numpy pass that forms long thermal-base closed-form pmfs, against
    the loop of _factor.  numpy's power and expm1 round differently from
    math's: worst 2.5 epsilon relative over 1,500 random configurations
    (mu 1e-3 to 300) before this test was written, the same bound as
    TestArrayWeights."""

    RTOL = TestArrayWeights.RTOL
    CONFIGS = [(THERMAL, NO_FILTER), (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.5)),
               (POISSON, FilterSpec(FilterBranch.SIGNAL, 1.0)),
               (POISSON, FilterSpec(FilterBranch.HERALD, 1.0))]

    @staticmethod
    def loop_terms(desc, params, count):
        """Th(a, n) sup oms(x_n) one term at a time, written out from the
        closed form of a thermal base without extra photons."""
        _, m, dark, _ = desc
        eta_h, eta_s = params.eta_h, params.eta_s
        sup = (1.0 + m * eta_h) / (dark + m * eta_h)
        lq = math.inf if eta_h == 1.0 else -math.log1p(-eta_h)
        ratio = math.log1p(m * eta_h * (1.0 - eta_s) / (1.0 + m * eta_s))
        a = m * eta_s
        q = a / (1.0 + a)
        x = [(n + 1) * ratio + (n * lq if n else 0.0) + 0.0 for n in range(count)]
        return [q**n / (1.0 + a) * (sup * (dark + (1.0 - dark) * -math.expm1(-x[n])))
                for n in range(count)]

    @pytest.mark.parametrize("mu", TestArrayWeights.MEANS)
    def test_equal_to_the_loop_within_rounding(self, mu, monkeypatch):
        long = 0
        for (stat, filt), eta_h, d_h in itertools.product(
                self.CONFIGS, (0.05, 0.6, 1.0), (0.0, 1e-4, 0.3)):
            params = SourceParams(mu, eta_h, 0.5, d_h)
            got = signal_pmf(stat, params, filt)
            with monkeypatch.context() as patch:
                patch.setattr(analytic, "_ARRAY_FROM", math.inf)
                want = signal_pmf(stat, params, filt)
            assert len(got) == len(want) and got.tail_bound == want.tail_bound
            assert got.probs == pytest.approx(
                want.probs, rel=self.RTOL, abs=self.RTOL * sys.float_info.min), params
            long += len(got) >= analytic._ARRAY_FROM
        assert long > 0 or mu <= 3.0

    @pytest.mark.parametrize("stat, filt", CONFIGS)
    def test_perfect_heralds_raise_no_warning(self, stat, filt):
        # an infinite hazard at eta_h = 1 would give 0 * inf = nan at n = 0
        for mu in (10.0, 30.0, 400.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pmf = signal_pmf(stat, SourceParams(mu, 1.0, 0.5, 0.0), filt)
            assert len(pmf) >= analytic._ARRAY_FROM
            assert all(math.isfinite(p) for p in pmf.probs)

    @pytest.mark.parametrize("stat, filt", CONFIGS)
    def test_only_signal_pmf_takes_the_pass(self, stat, filt, monkeypatch):
        # heads, xi and moments keep their bits at any count: the loop's terms
        params = SourceParams(20.0, 0.6, 0.5, 1e-4)
        desc = analytic._describe(stat, params, filt)
        head = analytic._head(desc, params, 300)
        assert list(head) == self.loop_terms(desc, params, 300)
        outputs = lambda: (analytic._head(desc, params, 300),
                           xi_values(stat, params, filt, 300),
                           moments_closed_form(params, stat, filt))
        loop = outputs()
        monkeypatch.setattr(analytic, "_ARRAY_FROM", 0)
        assert outputs() == loop


class TestPairSumSteps:
    """The pair sum's steps after thinning (_cut), against a reference that
    drops trailing terms one at a time."""

    @staticmethod
    def thinned(mu, params, extra_mu, stop):
        weights, herald_sum = analytic._array_weights(mu, params, stop)
        probs = _thin(weights, params.eta_s)
        if extra_mu > 0.0:
            extra = analytic._herald_weights(POISSON, extra_mu, lambda N: 1.0, stop)[0]
            probs = np.convolve(probs, _thin(extra, params.eta_s))
        return probs, herald_sum, len(weights)

    @staticmethod
    def reference_cut(probs, herald_sum, summed, stop, tol):
        # divide, set to 1 what rounds at most summed ulp above it, and drop
        # trailing terms from the smallest up while the bound stays within tol
        top = 1.0 + summed * sys.float_info.epsilon
        probs = [1.0 if 1.0 < p <= top else p for p in (x / herald_sum for x in probs)]
        missing = max(1.0 - math.fsum(probs), 0.0)
        kept, dropped = len(probs), 0.0
        while kept > 1 and missing + (dropped + probs[kept - 1]) + stop <= tol:
            kept, dropped = kept - 1, dropped + probs[kept - 1]
        return Pmf(tuple(probs[:kept]), missing + dropped + stop)

    @pytest.mark.parametrize("mu", [0.5, 5.0, 20.0, 100.0])
    @pytest.mark.parametrize("eta_s", [0.0, 1e-12, 0.5, 1.0])
    def test_equal_to_the_reference(self, mu, eta_s):
        # eta_s = 0 and 1e-12 round p(0) above 1, where the clamp acts
        for extra_mu, tol in itertools.product((0.0, 3.0), (1e-13, 1e-12, 1e-7)):
            params = SourceParams(mu, 0.6, eta_s, 1e-4)
            probs, herald_sum, summed = self.thinned(mu, params, extra_mu, 0.1 * tol)
            want = self.reference_cut(probs.tolist(), herald_sum, summed, 0.1 * tol, tol)
            assert analytic._cut(probs, herald_sum, summed, 0.1 * tol, tol) == want, (
                extra_mu, tol)

    @pytest.mark.parametrize("tol", [1e-13, 1e-12, 1e-7])
    def test_keeps_the_fewest_terms_within_tol(self, tol):
        # one term fewer would leave the bound above tol (the cut's sign)
        for p in HIGH_MU_GRID[::4]:
            pmfs = [conditional_pmf_series(stat, p, tol) for stat in (POISSON, THERMAL)]
            pmfs += [herald_filter_convolution_oracle(p, f, tol) for f in (1.0, 0.5)]
            for pmf in pmfs:
                assert pmf.tail_bound <= tol
                if len(pmf) > 1:
                    assert pmf.tail_bound + pmf.probs[-1] * (1.0 + 1e-9) > tol, p


class TestPairLawTails:
    """The tail bound that _pair_law returns beside each pair law."""

    MEANS = [0.0, 1e-3, 0.3, 2.0, 7.5, 31.9, 32.5, 120.0]

    @pytest.mark.parametrize("stat", [POISSON, THERMAL])
    @pytest.mark.parametrize("mu", MEANS)
    def test_bounds_the_remaining_mass(self, stat, mu):
        law, tail = analytic._pair_law(stat, mu)
        head = 0.0
        for n in range(int(4 * mu) + 40):
            head += law(n)
            # 1 - sum_{N <= n} law(N), within the rounding of the running sum
            assert tail(n) >= 1.0 - head - (n + 2) * sys.float_info.epsilon
            assert 0.0 <= tail(n) <= 1.0
            assert tail(n + 1) <= tail(n)

    @pytest.mark.parametrize("mu", MEANS[1:])
    def test_thermal_tail_is_exact(self, mu):
        law, tail = analytic._pair_law(THERMAL, mu)
        # the terms beyond n, summed until they drop below 1e-20 of the first
        count = int(math.log(1e-20) / math.log(mu / (1.0 + mu))) + 1
        for n in (0, 1, 4, 20, int(3 * mu)):
            rest = math.fsum(law(N) for N in range(n + 1, n + 1 + count))
            assert tail(n) == pytest.approx(rest, rel=1e-13)

    def test_herald_weights_cap_is_the_term_cap(self):
        # a thermal law that cannot meet its stop within model.TERM_CAP terms
        with pytest.raises(SeriesOverflowError, match=f"within {model.TERM_CAP} terms") as info:
            analytic._herald_weights(THERMAL, 1e5, lambda N: 1.0, 1e-14)


class TestEffectiveDarkCount:
    def test_dominates_bare_rate(self):
        assert effective_dark_count(REF, 0.1) > REF.d_h

    def test_equality_at_full_fraction(self):
        assert effective_dark_count(REF, 1.0) == REF.d_h

    def test_equality_without_heralding(self):
        p = SourceParams(0.0, 0.5, 0.5, 1e-4)
        assert effective_dark_count(p, 0.3) == p.d_h

    def test_closed_expression(self):
        p = SourceParams(0.2, 0.7, 0.5, 1e-3)
        expected = 1.0 - (1.0 - p.d_h) * math.exp(-p.mu * p.eta_h * (1.0 - 0.25))
        assert effective_dark_count(p, 0.25) == pytest.approx(expected, rel=1e-14)


class TestHeraldClickProbability:
    def test_reference_rate(self):
        assert herald_click_probability(POISSON, REF) == pytest.approx(
            5.0870220552369549e-3, rel=1e-13)

    def test_matches_series_denominator(self):
        for stat in (POISSON, THERMAL):
            p = SourceParams(0.3, 0.4, 0.8, 2e-3)
            direct = math.fsum(
                _pair_law(stat, p.mu)[0](N) * _clicks(p)(N) for N in range(300)
            )
            assert herald_click_probability(stat, p) == pytest.approx(direct, rel=1e-12)


class TestMoments:
    def test_certain_dark_counts_keep_poisson(self):
        p = SourceParams(0.3, 0.5, 0.6, 1.0)
        m = moments_closed_form(p)
        a = p.mu * p.eta_s
        assert m.mean == pytest.approx(a, rel=1e-13)
        assert m.variance == pytest.approx(a, rel=1e-13)
        assert m.fano == pytest.approx(1.0, rel=1e-13)
        assert m.g2 == pytest.approx(1.0, rel=1e-10)

    def test_fano_at_optimal_pump(self):
        m = moments_closed_form(SourceParams(0.016, 0.5, 0.5, 1e-4))
        assert m.fano == pytest.approx(0.51210642253485686, rel=1e-13)

    def test_consistent_with_pmf_moments(self):
        closed = moments_closed_form(REF)
        direct = moments_from_pmf(signal_pmf(POISSON, REF, NO_FILTER, 1e-13))
        assert closed.mean == pytest.approx(direct.mean, rel=1e-9)
        assert closed.variance == pytest.approx(direct.variance, rel=1e-9)

    def test_no_herald(self):
        with pytest.raises(NoHeraldError):
            moments_closed_form(SourceParams(0.0, 0.5, 0.5, 0.0))

    def test_zero_mean_leaves_ratios_undefined(self):
        m = moments_closed_form(SourceParams(0.0, 0.5, 0.5, 1e-4))
        assert m.mean == 0.0
        assert m.fano is None and m.g2 is None

    def test_underflowing_mean_square_leaves_g2_undefined(self):
        # mean ~ 3e-228 > 0, but mean^2 is 0: the closed form never divides
        # by it (its g2 does not depend on eta_s), a summed pmf's g2 must
        m = moments_closed_form(SourceParams(0.01, 0.5, 2.75e-228, 1e-4))
        assert 0.0 < m.mean < 1e-200
        assert m.fano == pytest.approx(1.0)
        assert m.g2 == moments_closed_form(REF).g2
        pmf = Pmf((1.0, 1e-200), 1e-12)
        m = moments_from_pmf(pmf)
        assert m.mean == 1e-200 and m.g2 is None

    def test_g2_finite_where_its_square_form_overflows(self):
        # without dark counts gamma*eta_h ~ 1/mu, and (1 + 1e200)^2 overflows
        m = moments_closed_form(SourceParams(1e-200, 0.5, 0.5, 0.0))
        assert 0.0 < m.g2 < 1e-199
        assert m.g2 == pytest.approx(1.5e-200, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-12, 1e-10, 1e-6, 1e-3, 0.1, 3.0, 30.0])
    def test_g2_matches_50_digit_reference(self, mu):
        # reference from the pair law's factorial moments, in which eta_s
        # cancels: g2 = E[N(N-1) H] P_click / E[N H]^2 with
        # E[N^(k) H] = mu^k [1 - (1-d_h) e^(-mu eta_h) (1-eta_h)^k];
        # measured worst over this grid 3.8e-16, where 1 + (var - mean)/mean^2
        # was 6.2e-4 off at mu = 1e-12
        mp = pytest.importorskip("mpmath")
        for eta_h, d_h in itertools.product((1e-6, 1e-3, 0.5, 1.0), (0.0, 1e-4, 0.01, 0.3)):
            with mp.workdps(50):
                miss = (1 - mp.mpf(d_h)) * mp.exp(-mp.mpf(mu) * eta_h)
                ref = ((1 - miss * (1 - mp.mpf(eta_h)) ** 2) * (1 - miss)
                       / (1 - miss * (1 - mp.mpf(eta_h))) ** 2)
            g2 = moments_closed_form(SourceParams(mu, eta_h, 0.5, d_h)).g2
            assert g2 == pytest.approx(float(ref), rel=1e-15, abs=0.0), (eta_h, d_h)


CONFIGURATIONS = {
    "poisson": (POISSON, None),
    "thermal": (THERMAL, None),
    "signal_filtered": (POISSON, FilterBranch.SIGNAL),
    "herald_filtered": (POISSON, FilterBranch.HERALD),
}


def _configuration(name, f):
    stat, branch = CONFIGURATIONS[name]
    return stat, NO_FILTER if branch is None else FilterSpec(branch, f)


def _reference_moments(mp, name, params, f):
    """Mean, variance and g2 at 50 digits from the pair law's weighted
    moments E[N^(k) (1-eta_h)^N], k = 0, 1, 2, which give the herald-weighted
    factorial moments E[N^(k) H] = E[N^(k)] - (1-d) E[N^(k) (1-eta_h)^N].
    The kept mode is the whole source, or a thermal mode of mean mu f whose
    removed twins either raise the herald's dark count (signal filter) or
    add an independent Poisson signal of mean mu eta_s (1-f) (herald filter)."""
    mu, eta_h, eta_s, d, f = (mp.mpf(v) for v in (params.mu, params.eta_h, params.eta_s,
                                                   params.d_h, f))
    lam = mp.mpf(0)
    m, thermal = (mu, name != "poisson") if name in ("poisson", "thermal") else (mu * f, True)
    if name == "signal_filtered":
        d = 1 - (1 - d) * mp.exp(-mu * eta_h * (1 - f))
    elif name == "herald_filtered":
        lam = mu * eta_s * (1 - f)
    u = 1 - eta_h
    if thermal:
        b = 1 + m * eta_h
        weighted = (1 / b, m * u / b**2, 2 * m**2 * u**2 / b**3)
        plain = (1, m, 2 * m**2)
    else:
        miss = mp.exp(-m * eta_h)
        weighted = (miss, m * u * miss, (m * u) ** 2 * miss)
        plain = (1, m, m**2)
    click, e1, e2 = (p - (1 - d) * w for p, w in zip(plain, weighted))
    mean_n, fact_n = e1 / click, e2 / click
    mean = eta_s * mean_n + lam
    var = eta_s**2 * (fact_n + mean_n - mean_n**2) + eta_s * (1 - eta_s) * mean_n + lam
    fact = eta_s**2 * fact_n + 2 * eta_s * mean_n * lam + lam**2
    return mean, var, fact / mean**2


def _near_single_photon(count, seed=11):
    rng = random.Random(seed)
    return [(SourceParams(10 ** rng.uniform(-6, -2), 1 - 10 ** rng.uniform(-6, -1),
                          1 - 10 ** rng.uniform(-6, -1), 0.0), rng.uniform(0.05, 1.0))
            for _ in range(count)]


class TestClosedMomentsEveryConfiguration:
    @pytest.mark.parametrize("box", ["verify", "near_single_photon"])
    @pytest.mark.parametrize("name", list(CONFIGURATIONS))
    def test_matches_50_digit_reference(self, name, box):
        # measured worst over both boxes and all configurations: 1.0e-15
        mp = pytest.importorskip("mpmath")
        configs = sample_configurations(200) if box == "verify" else _near_single_photon(100)
        for params, f in configs:
            got = moments_closed_form(params, *_configuration(name, f))
            with mp.workdps(50):
                want = _reference_moments(mp, name, params, f)
            for label, value, ref in zip(("mean", "variance", "g2"),
                                         (got.mean, got.variance, got.g2), want):
                assert value == pytest.approx(float(ref), rel=1e-13, abs=0.0), (label, params, f)

    @pytest.mark.parametrize("name", list(CONFIGURATIONS))
    def test_agrees_with_summed_pmf(self, name):
        for params, f in sample_configurations(200):
            stat, filt = _configuration(name, f)
            closed = moments_closed_form(params, stat, filt)
            direct = moments_from_pmf(signal_pmf(stat, params, filt, 1e-13))
            assert closed.mean == pytest.approx(direct.mean, rel=MOMENT_TOL, abs=0.0)
            assert closed.variance == pytest.approx(direct.variance, rel=MOMENT_TOL, abs=0.0)

    @pytest.mark.parametrize("name", list(CONFIGURATIONS))
    def test_subnormal_pump_stays_finite(self, name):
        # mu*eta_h subnormal with d_h = 0: gamma = e^(-x)/z overflowed and
        # made the mean inf and g2 nan; the pair that heralds is all there is
        mp = pytest.importorskip("mpmath")
        params = SourceParams(1e-310, 0.5, 0.5, 0.0)
        got = moments_closed_form(params, *_configuration(name, 0.5))
        # 1 - e^(-x) at x ~ 1e-310 needs more than 310 digits
        with mp.workdps(450):
            mean, var, g2 = (float(v) for v in _reference_moments(mp, name, params, 0.5))
        assert got.mean == pytest.approx(mean, rel=1e-12)
        assert got.variance == pytest.approx(var, rel=1e-12)
        assert got.fano == pytest.approx(var / mean, rel=1e-12)
        assert got.g2 == pytest.approx(g2, rel=1e-12, abs=1e-320)

    @pytest.mark.parametrize("name", ["thermal", "herald_filtered"])
    def test_dark_free_moments_keep_their_scale_limit(self, name):
        # with d_h = 0 the herald weights each pair number N by N however dim
        # it is, so the moments at eta_h = 1e-300 and 2.2e-308 are those at
        # 1e-100.  The thermal variance read 15.25 instead of 480.25 at
        # 1e-300 and refused at 2.2e-308; measured worst over this grid: 4.4e-16
        stat, filt = _configuration(name, 0.5)
        for mu, eta_s in itertools.product((2.0, 5.0, 30.0, 1e3, 1e8), (0.05, 0.5, 1.0)):
            want = vars(moments_closed_form(SourceParams(mu, 1e-100, eta_s, 0.0), stat, filt))
            for eta_h in (1e-300, 2.2e-308):
                got = vars(moments_closed_form(SourceParams(mu, eta_h, eta_s, 0.0), stat, filt))
                assert got == pytest.approx(want, rel=1e-15, abs=0.0), (mu, eta_h, eta_s)

    @pytest.mark.parametrize("name", ["thermal", "herald_filtered"])
    def test_subnormal_herald_rate_is_a_domain_error(self, name):
        # m eta_h = 3e-309 is subnormal: 1/(m eta_h) leaves double range
        with pytest.raises(SeriesOverflowError, match="leave double range"):
            moments_closed_form(SourceParams(60.0, 1e-310, 0.5, 0.0), *_configuration(name, 0.5))

    def test_filtered_at_full_fraction_equal_thermal(self):
        thermal = moments_closed_form(REF, THERMAL)
        for branch in (FilterBranch.SIGNAL, FilterBranch.HERALD):
            assert moments_closed_form(REF, POISSON, FilterSpec(branch, 1.0)) == thermal

    def test_poisson_default_equals_explicit_filter(self):
        spec = FilterSpec(FilterBranch.NONE, 1.0)
        assert moments_closed_form(REF) == moments_closed_form(REF, POISSON, spec)

    def test_thermal_beyond_double_range_is_a_domain_error(self):
        # the thermal variance ~ mu^2 leaves double range; no nan escapes
        with pytest.raises(SeriesOverflowError):
            moments_closed_form(SourceParams(1e200, 0.5, 0.5, 1e-4), THERMAL)


@pytest.mark.parametrize("name", list(CONFIGURATIONS))
def test_dark_free_terms_keep_their_scale_limit(name):
    # with d_h = 0 the herald weights each pair number N by about N eta_h, so
    # the pmf terms and xi at eta_h = 1e-300 are those at 1e-100.  Measured
    # worst over 9,000 random configurations (mu 1e-4..20, eta_s and f
    # 0.05..1), terms >= 1e-250, n <= 60: terms 1.5e-15 (herald filter; up to
    # 9.7e-16 elsewhere), xi 3.2e-15.  The herald-filter terms were off by
    # up to 1.0 while P_click p(n) went subnormal in their recurrence
    for mu, eta_s, f in itertools.product((1e-4, 1e-2, 0.3, 2.0, 20.0), (0.05, 0.5, 1.0),
                                          (0.05, 0.4, 1.0)):
        stat, filt = _configuration(name, f)
        tiny, dim = (SourceParams(mu, eta_h, eta_s, 0.0) for eta_h in (1e-300, 1e-100))
        want = analytic.heralded_terms(stat, dim, filt, 61)
        got = analytic.heralded_terms(stat, tiny, filt, 61)
        for n, (x, y) in enumerate(zip(got, want)):
            if y >= 1e-250:
                assert x == pytest.approx(y, rel=1e-14, abs=0.0), (mu, eta_s, f, n)
        want = xi_values(stat, dim, filt, 60)
        assert xi_values(stat, tiny, filt, 60) == pytest.approx(want, rel=1e-14, abs=0.0), (
            mu, eta_s, f)


class TestG2:
    def test_poisson_is_one(self):
        a = 0.7
        probs = [math.exp(-a) * a**n / math.factorial(n) for n in range(60)]
        pmf = Pmf(tuple(probs), 1e-12)
        assert moments_from_pmf(pmf).g2 == pytest.approx(1.0, abs=1e-10)

    def test_thermal_is_two(self):
        a = 0.4
        probs = [(a / (1 + a)) ** n / (1 + a) for n in range(120)]
        pmf = Pmf(tuple(probs), 1e-12)
        assert moments_from_pmf(pmf).g2 == pytest.approx(2.0, abs=1e-10)

    def test_heralded_source_is_sub_poisson(self):
        assert moments_from_pmf(signal_pmf(POISSON, REF)).g2 < 1.0

    def test_zero_mean(self):
        assert moments_from_pmf(signal_pmf(POISSON, SourceParams(0.0, 0.5, 0.5, 1e-4))).g2 is None


class TestAsymptote:
    def test_negative_photon_number_is_refused(self):
        for call in (lambda: xi(POISSON, REF, NO_FILTER, -1),
                     lambda: asymptotic_tail_check(REF, 0.1, -1)):
            with pytest.raises(ValidationError, match="photon number must be >= 0, got -1"):
                call()

    def test_full_fraction_degenerates(self):
        exact0, asym0 = asymptotic_tail_check(REF, 1.0, 0)
        assert asym0 > 0.0
        assert exact0 > 0.0
        _, asym3 = asymptotic_tail_check(REF, 1.0, 3)
        assert asym3 == 0.0

    def test_exact_side_matches_oracle(self):
        oracle = herald_filter_convolution_oracle(REF, 0.1)
        for n in range(4):
            exact, _ = asymptotic_tail_check(REF, 0.1, n)
            assert exact == pytest.approx(oracle.prob(n), abs=1e-12)

    def test_approximation_tracks_tail_decay(self):
        # deep mode filter: extraneous photons dominate the multi-photon
        # tail, whose per-step decay the simplified form then reproduces
        # even though each step shrinks the probability by ~10^3
        p = SourceParams(0.01, 0.5, 0.5, 1e-4)
        for n in range(8, 17):
            e0, a0 = asymptotic_tail_check(p, 0.001, n)
            e1, a1 = asymptotic_tail_check(p, 0.001, n + 1)
            assert e1 / e0 == pytest.approx(a1 / a0, rel=0.25)

    @pytest.mark.parametrize("n", [200, 400])
    def test_far_tail_gives_probabilities_not_overflow(self, n):
        # lam**n / n! overflowed here; the Poisson term is now the pair law's
        p = SourceParams(30.0, 0.5, 0.5, 1e-4)
        exact, asym = asymptotic_tail_check(p, 0.5, n)
        assert 0.0 <= exact <= 1.0
        # Po(lam, n) / P_click / (1 + a), with lam = a = 7.5
        click = herald_click_probability(POISSON, p, FilterSpec(FilterBranch.HERALD, 0.5))
        po = math.exp(n * math.log(7.5) - 7.5 - math.lgamma(n + 1))
        assert asym == pytest.approx(po / click / 8.5, rel=1e-12, abs=0.0)


class TestUnconditioned:
    def test_matches_base_laws(self):
        a = REF.mu * REF.eta_s
        assert unconditioned_terms(POISSON, REF, NO_FILTER, 3)[2] == pytest.approx(
            math.exp(-a) * a**2 / 2, rel=1e-13)
        assert unconditioned_terms(THERMAL, REF, NO_FILTER, 3)[2] == pytest.approx(
            (a / (1 + a)) ** 2 / (1 + a), rel=1e-13)

    @pytest.mark.parametrize("stat, filt", [
        (POISSON, NO_FILTER),
        (THERMAL, NO_FILTER),
        (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.3)),
        (POISSON, FilterSpec(FilterBranch.HERALD, 1.0)),
        (POISSON, FilterSpec(FilterBranch.HERALD, 0.3)),
    ])
    def test_certain_herald_law_is_the_base_law_without_extra_photons(self, stat, filt):
        # a herald with d_h = 1 always fires, so its law is the unheralded
        # one; without extraneous photons (lam = 0) that is the base law at
        # m*eta_s bit for bit, also where the real herald can never fire
        checked = 0
        for mu, eta_h, eta_s, d_h in itertools.product(
                [0.0, 1e-3, 0.7, 40.0], [0.0, 0.5, 1.0], [0.0, 5e-324, 1e-310, 0.6, 1.0],
                [0.0, 1e-3, 1.0]):
            params = SourceParams(mu, eta_h, eta_s, d_h)
            base, m, _, lam = analytic._describe(stat, params, filt)
            if lam > 0.0:
                continue
            law = [_pair_law(base, m * eta_s)[0](n) for n in range(40)]
            assert list(unconditioned_terms(stat, params, filt, 40)) == law, params
            assert [unconditioned_terms(stat, params, filt, n + 1)[n] for n in (0, 1, 7, 39)] == [
                law[0], law[1], law[7], law[39]], params
            checked += 1
        assert checked >= 48

    def test_herald_filtered_law_is_the_extraneous_convolution(self):
        # U = Po(lam) * Th(a) at 50 digits; the kept-mode law alone gave
        # p(0) = 1/(1 + a) = 0.893 here.  Measured before it was fixed:
        # within 2.5e-14 relative for n < 120
        mp = pytest.importorskip("mpmath")
        params, filt = SourceParams(0.5, 0.5, 0.8, 1e-4), FilterSpec(FilterBranch.HERALD, 0.3)
        with mp.workdps(50):
            a = mp.mpf(0.5) * mp.mpf(0.3) * mp.mpf(0.8)
            lam = mp.mpf(0.5) * mp.mpf(0.8) * (1 - mp.mpf(0.3))
            kept = [a**k / (1 + a) ** (k + 1) for k in range(120)]
            extra = [mp.exp(-lam) * lam**k / mp.factorial(k) for k in range(120)]
            ref = [float(mp.fdot(extra[: n + 1], kept[n::-1])) for n in range(120)]
        law = unconditioned_terms(POISSON, params, filt, 120)
        assert round(law[0], 3) == 0.675
        for n, (u, r) in enumerate(zip(law, ref)):
            assert u == pytest.approx(r, rel=1e-13, abs=0.0), n
        assert [unconditioned_terms(POISSON, params, filt, n + 1)[n] for n in (0, 1, 50)] == [
            law[0], law[1], law[50]]

    @pytest.mark.parametrize("extra_mean", [660.0, 1000.0])
    def test_herald_filtered_law_where_the_extraneous_law_underflows(self, extra_mean):
        # e^(-lam) < 1e-280: the recurrence takes Po(lam, n) afresh up to
        # n = lam, not by its term ratio.  Against U = Po(lam) * Th(a) from
        # scipy; measured before this test was written: within 1.3e-12
        f = 1e-3
        params = SourceParams(extra_mean / (1.0 - f), 0.5, 1.0, 1e-4)
        filt = FilterSpec(FilterBranch.HERALD, f)
        _, m, _, lam = analytic._describe(POISSON, params, filt)
        k = np.arange(int(1.5 * lam))
        law = np.array(unconditioned_terms(POISSON, params, filt, len(k)))
        ref = np.convolve(stats.poisson.pmf(k, lam), (m / (1.0 + m)) ** k / (1.0 + m))[:len(k)]
        shown = ref > 1e-250
        assert shown[:int(lam)].any() and shown[int(lam)]
        assert law[shown] == pytest.approx(ref[shown], rel=1e-11, abs=0.0)

    def test_xi_times_base_recovers_pmf(self):
        filt = FilterSpec(FilterBranch.HERALD, 0.1)
        pmf = signal_pmf(POISSON, REF, filt)
        bases = unconditioned_terms(POISSON, REF, filt, len(pmf))
        for n in range(len(pmf)):
            recon = bases[n] * xi(POISSON, REF, filt, n)
            assert recon == pytest.approx(pmf.prob(n), rel=1e-12, abs=1e-300)


def _imports(module, inside_functions: bool = False) -> list:
    """The modules that ``module`` imports outside its functions, or
    anywhere; a relative import keeps its leading dots, and ``from X import
    a`` also lists ``X.a``, which may be a module."""
    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from module_level(child)

    tree = ast.parse(Path(module.__file__).read_text())
    modules = []
    for node in ast.walk(tree) if inside_functions else module_level(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            modules += [base] + [base + sep + alias.name for alias in node.names]
    return modules


def _imports_analytic(module) -> bool:
    return any("analytic" in name.split(".") for name in _imports(module, inside_functions=True))


def test_import_walk_sees_module_level_imports():
    assert "math" in _imports(analytic)
    assert "numpy" in _imports(montecarlo)


def test_import_walk_sees_imports_inside_functions():
    # analytic imports numpy only inside its oracles; verify imports the
    # module analytic, optimize names from it
    assert "numpy" not in _imports(analytic)
    assert "numpy" in _imports(analytic, inside_functions=True)
    assert _imports_analytic(verify) and _imports_analytic(optimize)
    assert not _imports_analytic(records)


def test_montecarlo_never_imports_the_closed_forms():
    # the simulation is an independent route: it builds its own pair-count
    # tables and must not read analytic's pair laws, not even inside a
    # function; it draws on the calling thread and imports no thread pool
    assert "concurrent.futures" not in _imports(montecarlo, inside_functions=True)
    assert not _imports_analytic(montecarlo)


@pytest.mark.parametrize("module", [analytic, model, optimize, records, errors],
                         ids=lambda m: m.__name__)
def test_numpy_is_imported_only_inside_functions(module):
    # the modules that pmf, moments, optimize and sweep need must not import
    # numpy at module level; analytic's oracles import it inside themselves
    assert [m for m in _imports(module) if m.split(".")[0] == "numpy"] == []

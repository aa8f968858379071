"""The box checks of ``verify``: what they report, and that they see faults.

Within one configuration ``verify`` evaluates each closed-form description
and each series input once.  These tests recompute the box checks from the
public closed forms and oracles, one call per check and configuration,
plant faults where reusing a result could hide them, and plant at least one
fault that fails each check.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import hspstats.montecarlo as mc

from hspstats import (FilterBranch, FilterSpec, NO_FILTER, PairStatistics, SourceParams,
                      ValidationError, analytic, verify)
from hspstats.verify import CheckResult, run_verification

POISSON, THERMAL = PairStatistics.POISSON, PairStatistics.THERMAL


def _deviation(pmf_a, pmf_b) -> float:
    pairs = itertools.zip_longest(pmf_a.probs, pmf_b.probs, fillvalue=0.0)
    return max(abs(a - b) for a, b in pairs)


def _direct_box_checks(matrix: str) -> list:
    """The box rows of ``run_verification(matrix, with_mc=False)``, every
    closed form and oracle called afresh for every check."""
    n_configs = verify.MATRIX_SIZES[matrix][0]
    configs = verify.sample_configurations(n_configs)
    tol = 1e-12
    names = ("poisson_closed_vs_series", "thermal_closed_vs_series",
             "signal_filtered_vs_substituted_series", "herald_filtered_vs_convolution")
    series = dict.fromkeys(names, 0.0)
    reduction = moments = 0.0
    for params, f in configs:
        sig, her = FilterSpec(FilterBranch.SIGNAL, f), FilterSpec(FilterBranch.HERALD, f)
        sub = SourceParams(params.mu * f, params.eta_h, params.eta_s,
                           analytic.effective_dark_count(params, f))
        deviations = (
            _deviation(analytic.signal_pmf(POISSON, params, NO_FILTER, tol),
                       analytic.conditional_pmf_series(POISSON, params, tol)),
            _deviation(analytic.signal_pmf(THERMAL, params, NO_FILTER, tol),
                       analytic.conditional_pmf_series(THERMAL, params, tol)),
            _deviation(analytic.signal_pmf(POISSON, params, sig, tol),
                       analytic.conditional_pmf_series(THERMAL, sub, tol)),
            _deviation(analytic.signal_pmf(POISSON, params, her, tol),
                       analytic.herald_filter_convolution_oracle(params, f, tol)),
        )
        for name, dev in zip(names, deviations):
            series[name] = max(series[name], dev)

        refs = analytic.xi_values(THERMAL, params, NO_FILTER, 50)
        for branch in (FilterBranch.SIGNAL, FilterBranch.HERALD):
            xis = analytic.xi_values(POISSON, params, FilterSpec(branch, 1.0), 50)
            for ref, x in zip(refs, xis):
                reduction = max(reduction, abs(x - ref) / max(1.0, abs(ref)))

        closed = analytic.moments_closed_form(params)
        direct = analytic.moments_from_pmf(analytic.signal_pmf(POISSON, params, NO_FILTER, 1e-13))
        moments = max(moments,
                      abs(closed.mean - direct.mean) / max(abs(closed.mean), 1e-300),
                      abs(closed.variance - direct.variance) / max(abs(closed.variance), 1e-300))

    rows = [(name, dev, verify.SERIES_TOL) for name, dev in series.items()]
    rows += [("filtered_reduction_at_f1", reduction, verify.REDUCTION_TOL),
             ("moments_closed_vs_pmf", moments, verify.MOMENT_TOL)]
    return [CheckResult(name, n_configs, dev, tol, dev <= tol) for name, dev, tol in rows]


def _box_rows(matrix: str = "tiny") -> dict:
    return {r.check: r for r in run_verification(matrix, with_mc=False)}


@pytest.mark.parametrize("matrix", ["tiny", "default"])
def test_box_checks_equal_a_direct_recomputation(matrix):
    results = run_verification(matrix, with_mc=False)
    assert results == _direct_box_checks(matrix)
    # the box holds f = 1 draws, where the filtered results are reused
    n_configs = verify.MATRIX_SIZES[matrix][0]
    assert any(f == 1.0 for _, f in verify.sample_configurations(n_configs))


def _faulty_describe(monkeypatch, fault):
    """Replace analytic._describe by fault applied to its parameters, filter
    and result."""
    describe = analytic._describe

    def faulty(stat, params, filt):
        return fault(params, filt, *describe(stat, params, filt))

    monkeypatch.setattr(analytic, "_describe", faulty)


def test_reduction_sees_a_signal_filter_dark_count_fault(monkeypatch):
    # the f = 1 signal-filter dark count moves by 1 part in 1e9: the filtered
    # description differs from the thermal one and must be evaluated
    def fault(params, filt, base, m, dark, lam):
        if filt.branch is FilterBranch.SIGNAL and filt.f == 1.0:
            dark *= 1.0 + 1e-9
        return base, m, dark, lam

    _faulty_describe(monkeypatch, fault)
    rows = _box_rows()
    assert not rows["filtered_reduction_at_f1"].passed
    # a change of 1 part in 1e9 in the dark count moves no pmf term by
    # SERIES_TOL, so only the reduction sees this fault
    assert rows["signal_filtered_vs_substituted_series"].passed


def test_series_check_sees_an_extraneous_heralding_fault(monkeypatch):
    # the twins of the filtered photons herald 10% too often: nu_h takes
    # mu*eta_h*(1 - f)*1.1.  The substituted series states nu_h itself, so
    # the fault shows there; it vanishes at f = 1, where the reduction is blind
    def fault(params, filt, base, m, dark, lam):
        if filt.branch is FilterBranch.SIGNAL:
            dark = analytic._oms(params.mu * params.eta_h * (1.0 - filt.f) * 1.1, params.d_h)
        return base, m, dark, lam

    _faulty_describe(monkeypatch, fault)
    rows = _box_rows()
    assert not rows["signal_filtered_vs_substituted_series"].passed
    assert rows["signal_filtered_vs_substituted_series"].max_deviation > 1e3 * verify.SERIES_TOL
    assert rows["filtered_reduction_at_f1"].passed
    assert rows["poisson_closed_vs_series"].passed and rows["thermal_closed_vs_series"].passed


@pytest.mark.parametrize("at_f1_only", [False, True])
def test_series_check_sees_a_signal_filter_fault(monkeypatch, at_f1_only):
    # the signal-filtered closed form keeps a mean 1 + 1e-6 too large; at
    # f = 1 its description then differs from the thermal one, so no
    # thermal result stands in for it
    def fault(params, filt, base, m, dark, lam):
        if filt.branch is FilterBranch.SIGNAL and (filt.f == 1.0 or not at_f1_only):
            m *= 1.0 + 1e-6
        return base, m, dark, lam

    _faulty_describe(monkeypatch, fault)
    rows = _box_rows()
    assert not rows["signal_filtered_vs_substituted_series"].passed
    assert rows["poisson_closed_vs_series"].passed and rows["thermal_closed_vs_series"].passed


def _perturbed_factor(monkeypatch, applies, perturb):
    """Replace analytic._factor by one that, where applies(desc) holds,
    evaluates the description and parameters that perturb(desc, params)
    returns.  The perturbed law stays normalized, so each pmf is still a
    valid Pmf that only the checks refuse."""
    factor = analytic._factor

    def faulty(desc, params):
        return factor(*perturb(desc, params)) if applies(desc) else factor(desc, params)

    monkeypatch.setattr(analytic, "_factor", faulty)


def _poisson_eta_s_low(monkeypatch):
    # the unfiltered Poisson closed form reads eta_s 1 ppm low
    _perturbed_factor(monkeypatch, lambda desc: desc[0] is POISSON, lambda desc, params: (
        desc, replace(params, eta_s=params.eta_s * (1.0 - 1e-6))))


def _thermal_eta_h_low(monkeypatch):
    # every thermal closed form without extra photons reads eta_h 1 ppm low:
    # the unfiltered thermal source, the signal filter, the herald filter at f = 1
    _perturbed_factor(monkeypatch, lambda desc: desc[0] is THERMAL and desc[3] == 0.0,
                      lambda desc, params: (
                          desc, replace(params, eta_h=params.eta_h * (1.0 - 1e-6))))


def _extra_mean_high(monkeypatch):
    # the herald-filtered closed form takes an extra signal mean 1 ppm high
    _perturbed_factor(monkeypatch, lambda desc: desc[3] > 0.0, lambda desc, params: (
        (*desc[:3], desc[3] * (1.0 + 1e-6)), params))


def _closed_mean_high(monkeypatch):
    # the closed moments report a mean 1e-8 relative high, ten times MOMENT_TOL
    moments = analytic._moments

    def faulty(desc, params):
        closed = moments(desc, params)
        return replace(closed, mean=closed.mean * (1.0 + 1e-8))

    monkeypatch.setattr(analytic, "_moments", faulty)


def _closed_variance_high(monkeypatch):
    # the closed moments report a variance 1e-8 relative high, mean untouched
    moments = analytic._moments

    def faulty(desc, params):
        closed = moments(desc, params)
        return replace(closed, variance=closed.variance * (1.0 + 1e-8))

    monkeypatch.setattr(analytic, "_moments", faulty)


def _thinning_eta_s_low(monkeypatch):
    # the Monte Carlo thins its multi-photon bins with eta_s 0.1% low; the
    # herald rate, drawn before the thinning, is untouched (84 gate units)
    thinning_law = mc._thinning_law
    monkeypatch.setattr(mc, "_thinning_law",
                        lambda s, eta, cap: thinning_law(s, eta * 0.999, cap))


# planted faults and the checks each fails in the tiny matrix, Monte Carlo
# included: measured deviations 8.1e-7, 1.3e-7, 1.2e-7, 1e-8 and 1e-8 against
# tolerances of 1e-10 and 1e-9
PLANTED_FAULTS = {
    _poisson_eta_s_low: {"poisson_closed_vs_series", "moments_closed_vs_pmf"},
    _thermal_eta_h_low: {"thermal_closed_vs_series", "signal_filtered_vs_substituted_series",
                         "herald_filtered_vs_convolution"},
    _extra_mean_high: {"herald_filtered_vs_convolution"},
    _closed_mean_high: {"moments_closed_vs_pmf"},
    _closed_variance_high: {"moments_closed_vs_pmf"},
    _thinning_eta_s_low: {"mc_vs_closed_pmf"},
}


@pytest.mark.parametrize("plant", PLANTED_FAULTS, ids=lambda plant: plant.__name__[1:])
def test_planted_fault_fails_its_checks(monkeypatch, plant):
    plant(monkeypatch)
    failed = {r.check for r in run_verification("tiny") if not r.passed}
    assert failed == PLANTED_FAULTS[plant]


def test_every_check_is_failed_by_a_planted_fault():
    # the table above, and the tests that plant a _describe or dark-herald fault
    elsewhere = {
        "filtered_reduction_at_f1": test_reduction_sees_a_signal_filter_dark_count_fault,
        "signal_filtered_vs_substituted_series": test_series_check_sees_a_signal_filter_fault,
        "mc_herald_rate_vs_closed": test_default_matrix_sees_a_dark_herald_fault,
    }
    caught = set().union(*PLANTED_FAULTS.values(), elsewhere)
    assert {r.check for r in run_verification("tiny")} == caught


def test_unknown_matrix_is_refused():
    with pytest.raises(ValidationError, match="matrix must be one of"):
        run_verification("bogus")


@pytest.mark.parametrize("seed", range(8))
def test_sparse_bins_are_scored_by_their_exact_tail(seed):
    # a correct run whose far bins expect a fraction of a count: at seed 0
    # bin 227 expects 0.083 counts and holds 2, 1.33 gate units by the normal
    # tail and 0.61 by the exact one.  The normal tail failed 5 of these seeds
    params = SourceParams(48.29, 1e-3, 0.492, 5.4e-6)
    est = mc.simulate(mc.McConfig(params=params, stat=THERMAL, trials=65_536, seed=seed,
                                  n_cap=300))
    assert est.heralded < 4000
    assert verify.mc_deviation(est, THERMAL, params) <= verify.MC_TOL


@pytest.mark.parametrize("total", [50, 3007, 10**6, 2**33])
def test_gate_units_follow_the_exact_binomial_tail(total):
    # the normal deviate of scipy's binomial tail, over 5, for counts 6
    # standard deviations below to 8 above the mean, of either outcome
    # (measured worst 4.6e-6 apart, from lgamma at the largest total)
    for expected, k in itertools.product([0.083, 1.0, 30.0, 900.0, 9000.0],
                                         [-6, -2, 0, 2, 5, 8]):
        if expected > total / 2:
            continue
        p = expected / total
        count = max(0, round(expected + k * math.sqrt(expected)))
        if count > expected:
            tail = stats.binom.sf(count - 1, total, p)
        else:
            tail = stats.binom.cdf(count, total, p)
        want = max(0.0, -stats.norm.ppf(min(tail, 0.5))) / 5.0
        assert abs(verify._gate_units(count, total, p) - want) <= 2e-5
        assert abs(verify._gate_units(total - count, total, 1.0 - p) - want) <= 2e-5


@pytest.mark.parametrize("count,total,p", [
    (5_497_854_000, 2**40, 0.005),             # 10^4 or more counts expected
    (1000, 10**6, 1e-7), (0, 10**9, 9e-6)])    # exact tails below e^-700
def test_gate_units_fall_back_to_the_normal_deviate(count, total, p):
    normal = abs(count - total * p) / (5.0 * math.sqrt(total * p * (1.0 - p)))
    assert verify._gate_units(count, total, p) == normal
    assert total * p >= verify.MC_EXACT_BELOW or normal > 5.0


def test_every_seed_of_the_documented_range_runs():
    # the Monte Carlo runs take the seeds seed + i, wrapped into [0, 2**64)
    rows = run_verification("tiny", seed=2**64 - 1)
    assert all(r.passed for r in rows) and any(r.check.startswith("mc_") for r in rows)


@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("scale", [0.97, 0.999])
def test_default_matrix_sees_a_dark_herald_fault(monkeypatch, offset, scale):
    # the dark-herald probability of every cell with no photon on the herald
    # branch scaled by 0.97 or 0.999: the empty cell, and behind a herald
    # filter the extra-only cells.  At 2^40 trials the herald-rate check
    # reads 432.5-433.1 and 14.1-14.6 gate units for these seeds; scaled by
    # 0.9999 it still reads 1.1-1.6
    herald_probability = mc._herald_probability

    def dim_dark_counts(c, d_h, eta_h):
        return np.where(c == 0, scale, 1.0) * herald_probability(c, d_h, eta_h)

    monkeypatch.setattr(mc, "_herald_probability", dim_dark_counts)
    rows = {r.check: r for r in run_verification("default", seed=verify.DEFAULT_SEED + offset)}
    assert not rows["mc_herald_rate_vs_closed"].passed
    assert all(r.passed for name, r in rows.items() if not name.startswith("mc_"))

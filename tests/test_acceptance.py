"""Acceptance suite: one test per release criterion, with a printed
PASS/FAIL line each (run with ``pytest -s tests/test_acceptance.py``).

Criterion 6 is known to fail and is kept failing on purpose: it demands
that a simplified large-n tail formula match the exact herald-filtered
distribution within 5% for n >= 8 at the reference filtered configuration
(mu=0.01, eta=0.5, d_h=1e-4, f=0.1).  The simplified formula reproduces
the Poisson-like decay shape of the extraneous-photon window, but its
level omits the herald-weighted kept-mode contributions: at these
parameters the exact-to-approximate ratio is already ~1.8 at n=8 and grows
with n, independently verified here by brute-force enumeration over both
photon populations.  No implementation consistent with the exact
distribution (criteria 3, 4, 7) can meet the 5% window, so the check is
implemented as stated and left red rather than loosened.
"""

import math

import numpy as np

import hspstats as h
from hspstats.verify import sample_configurations

REF = h.SourceParams(0.01, 0.5, 0.5, 1e-4)
FILTER_F = 0.1
POISSON = h.PairStatistics.POISSON
THERMAL = h.PairStatistics.THERMAL


def report(criterion: int, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def max_term_dev(a, b):
    return max(abs(a.prob(i) - b.prob(i)) for i in range(max(len(a), len(b))))


def test_criterion_1_perfect_source_limits():
    """eta = 1, d_h = 0: p(0) = 0 exactly; p(1) = mu/(e^mu - 1) for Poisson
    and 1/(1+mu) for thermal, within 1e-12 absolute."""
    worst = 0.0
    for mu in (0.001, 0.01, 0.1, 1.0):
        params = h.SourceParams(mu, 1.0, 1.0, 0.0)
        pois = h.signal_pmf(POISSON, params)
        ther = h.signal_pmf(THERMAL, params)
        worst = max(
            worst,
            abs(pois.prob(0)),
            abs(ther.prob(0)),
            abs(pois.prob(1) - mu / math.expm1(mu)),
            abs(ther.prob(1) - 1.0 / (1.0 + mu)),
        )
    passed = worst <= 1e-12
    report(1, passed, f"perfect-source limits, max |dev| = {worst:.3e} (tol 1e-12)")
    assert passed


def test_criterion_2_optimal_dimming():
    """Reference optimum mu_opt in [0.014, 0.018]; dark-dominated limit
    fano -> 1 within 1e-3 at mu = 1e-7."""
    result = h.optimize_mu(0.5, 0.5, 1e-4, bounds=(1e-5, 1.0))
    fano_dark = h.moments_closed_form(h.SourceParams(1e-7, 0.5, 0.5, 1e-4)).fano
    passed = 0.014 <= result.mu_opt <= 0.018 and abs(fano_dark - 1.0) <= 1e-3
    report(2, passed,
           f"mu_opt = {result.mu_opt:.5f} (window [0.014, 0.018]), "
           f"fano(1e-7) = {fano_dark:.6f}")
    assert passed


def test_criterion_3_heralding_gain_three_routes():
    """xi_p(1) in [90, 110] by closed form, by the direct conditional
    series, and by Monte Carlo at 1e7 trials within five standard errors;
    the heralded distribution is sub-Poisson."""
    lo, hi = 90.0, 110.0
    base1 = math.exp(-0.005) * 0.005           # unheralded Poisson p(1)

    xi_closed = h.xi(POISSON, REF, h.NO_FILTER, 1)

    series = h.conditional_pmf_series(POISSON, REF)
    xi_series = series.prob(1) / base1

    est = h.simulate(h.McConfig(params=REF, trials=10_000_000, seed=20260809))
    pmf = h.signal_pmf(POISSON, REF)
    mc_consistent = all(
        abs(est.pmf_hat[n] - pmf.prob(n))
        <= 5.0 * math.sqrt(pmf.prob(n) * (1.0 - pmf.prob(n)) / est.heralded)
        for n in range(5)
    )
    xi_mc = est.pmf_hat[1] / base1

    g2 = h.moments_from_pmf(h.signal_pmf(POISSON, REF)).g2

    passed = (
        lo <= xi_closed <= hi
        and lo <= xi_series <= hi
        and lo <= xi_mc <= hi
        and mc_consistent
        and g2 < 1.0
    )
    report(3, passed,
           f"xi_p(1): closed {xi_closed:.3f}, series {xi_series:.3f}, "
           f"MC {xi_mc:.3f} (5-sigma consistent: {mc_consistent}), g2 = {g2:.4f}")
    assert passed


def test_criterion_4_three_way_equivalence_matrix():
    """>= 200 random box configurations: closed form vs series within
    1e-10 per term (Poisson and thermal), and herald-filtered closed form
    vs the convolution oracle within 1e-10 per term."""
    configs = sample_configurations(200, seed=20260809)
    dev_series = 0.0
    dev_conv = 0.0
    for params, f in configs:
        for stat in (POISSON, THERMAL):
            closed = h.signal_pmf(stat, params)
            series = h.conditional_pmf_series(stat, params)
            dev_series = max(dev_series, max_term_dev(closed, series))
        filt = h.FilterSpec(h.FilterBranch.HERALD, f)
        closed = h.signal_pmf(POISSON, params, filt)
        oracle = h.herald_filter_convolution_oracle(params, f)
        dev_conv = max(dev_conv, max_term_dev(closed, oracle))
    passed = dev_series <= 1e-10 and dev_conv <= 1e-10
    report(4, passed,
           f"200 configurations: series dev {dev_series:.3e}, "
           f"convolution dev {dev_conv:.3e} (tol 1e-10)")
    assert passed


def test_criterion_5_reduction_and_limit_identities():
    """f = 1 reductions within 1e-12 for n = 0..50; xi_p and xi_t bounded
    by their closed-form limits for n = 0..200; the mu -> 0 heralding gain
    equals 1 - eta_h + eta_h/d_h within 1e-6 relative at mu = 1e-12."""
    sig1 = h.FilterSpec(h.FilterBranch.SIGNAL, 1.0)
    her1 = h.FilterSpec(h.FilterBranch.HERALD, 1.0)
    configs = [REF] + [p for p, _ in sample_configurations(10, seed=7)
                        if p.d_h > 0 or p.mu * p.eta_h > 0]

    dev_red = 0.0
    for params in configs:
        for n in range(51):
            ref = h.xi(THERMAL, params, h.NO_FILTER, n)
            dev_red = max(
                dev_red,
                abs(h.xi(POISSON, params, sig1, n) - ref),
                abs(h.xi(POISSON, params, her1, n) - ref),
            )

    bounded = True
    for params in configs:
        for stat in (POISSON, THERMAL):
            limit = 1 / h.herald_click_probability(stat, params)
            slack = 1e-12 * max(1.0, limit)
            bounded = bounded and all(
                h.xi(stat, params, h.NO_FILTER, n) <= limit + slack for n in range(201)
            )

    p_tiny = h.SourceParams(1e-12, 0.5, 0.5, 1e-4)
    expected = 1.0 - 0.5 + 0.5 / 1e-4
    # the heralding gain xi(1)/xi(0)
    gains = [h.analytic.xi_values(stat, p_tiny, h.NO_FILTER, 1) for stat in (POISSON, THERMAL)]
    gain_ok = all(math.isclose(xi1 / xi0, expected, rel_tol=1e-6) for xi0, xi1 in gains)

    passed = dev_red <= 1e-12 and bounded and gain_ok
    report(5, passed,
           f"reduction dev {dev_red:.3e} (tol 1e-12), limits bound xi: {bounded}, "
           f"mu->0 gain matches closed form: {gain_ok}")
    assert passed


def brute_force_herald_filtered(params, f, n_max):
    """Independent enumeration over both photon populations: thermal kept
    mode (drives the herald), Poisson extraneous photons, binomial
    signal-branch losses on the total."""
    mu, eta_h, eta_s, d_h = params.mu, params.eta_h, params.eta_s, params.d_h
    muf, mu_ex = mu * f, mu * (1.0 - f)
    probs = np.zeros(n_max + 1)
    denom = 0.0
    for n1 in range(120):
        w1 = (muf / (1 + muf)) ** n1 / (1 + muf) * (1 - (1 - d_h) * (1 - eta_h) ** n1)
        denom += w1
        for n2 in range(120):
            w = w1 * math.exp(n2 * math.log(mu_ex) - mu_ex - math.lgamma(n2 + 1))
            if w < 1e-60:
                break
            total = n1 + n2
            for n in range(min(total, n_max) + 1):
                probs[n] += w * math.comb(total, n) * eta_s**n * (1 - eta_s) ** (total - n)
    return probs / denom


def test_criterion_6_large_n_asymptote():
    """|exact/asymptote - 1| <= 0.05 for n >= 8 at the reference filtered
    configuration.  Known red: see the module docstring."""
    ratios = []
    for n in range(8, 17):
        exact, asym = h.asymptotic_tail_check(REF, FILTER_F, n)
        ratios.append(exact / asym)
    brute = brute_force_herald_filtered(REF, FILTER_F, 16)
    exact8, _ = h.asymptotic_tail_check(REF, FILTER_F, 8)
    brute_confirms = math.isclose(exact8, brute[8], rel_tol=1e-9)

    worst = max(abs(r - 1.0) for r in ratios)
    passed = worst <= 0.05
    report(6, passed,
           f"exact/asymptote over n=8..16: {ratios[0]:.3f} .. {ratios[-1]:.3f} "
           f"(tol 0.05; exact side independently confirmed by enumeration: "
           f"{brute_confirms})")
    assert brute_confirms, "exact side must match brute-force enumeration"
    assert passed


def test_criterion_7_mc_determinism_normalization_moments():
    """Fixed seed replays bit-identically at 1e7 trials; the estimate
    normalizes exactly; closed-form moments match pmf moments within 1e-9
    relative."""
    config = h.McConfig(params=REF, trials=10_000_000, seed=99)
    a = h.simulate(config)
    b = h.simulate(config)
    deterministic = a == b
    normalized = abs(math.fsum(a.pmf_hat) - 1.0) <= 1e-12

    moments_ok = True
    for params in [REF, h.SourceParams(0.016, 0.5, 0.5, 1e-4),
                   h.SourceParams(0.3, 0.8, 0.4, 1e-3)]:
        closed = h.moments_closed_form(params)
        direct = h.moments_from_pmf(h.signal_pmf(POISSON, params, h.NO_FILTER, 1e-13))
        moments_ok = moments_ok and math.isclose(closed.mean, direct.mean, rel_tol=1e-9)
        moments_ok = moments_ok and math.isclose(closed.variance, direct.variance,
                                                 rel_tol=1e-9)

    passed = deterministic and normalized and moments_ok
    report(7, passed,
           f"bit-identical replay: {deterministic}, sum(pmf_hat) - 1 = "
           f"{math.fsum(a.pmf_hat) - 1.0:.1e}, moment consistency: {moments_ok}")
    assert passed

"""Herald-filtered pmf terms against a 50-digit reference, deep into the tail.

``verify.SERIES_TOL`` bounds each term by 1e-10 *absolute*, which says
nothing about p(n) < 1e-10, the multiphoton tail.  Here every term of the
herald-filtered closed form down to p(n) = 1e-250 must agree with a
50-digit evaluation within a *relative* bound.

The reference never reads the closed form's recurrence.  The heralded
kept mode is the thermal law at a = mu f eta_s minus its no-click part,
both thinned in closed form: sum_N Th(mu f, N) t^N Bin(N, j, eta_s) =
(t eta_s)^j / [(1 + mu f)(1 - t (1-eta_s))^(j+1)] with t = (1-eta_h) q_in,
q_in = mu f/(1 + mu f).  It is normalized by the click probability and
convolved with Po(mu eta_s (1-f)) term by term at 50 digits.

The unheralded law U = Po(mu eta_s (1-f)) * Th(a), the heralded law of a
herald that always fires, is checked the same way, and so are the
correcting factors xi(n) = p(n)/U(n), past the n where p(n) and U(n)
underflow: xi(n) is bounded by 1/P_click there.

The bound was measured before it was fixed: over 240 configurations (the
verify box, mu up to 30, efficiencies, fractions and dark counts down to
1e-6 and up to 1), n <= 400 and p(n) >= 1e-250, the largest relative
deviation was 5.2e-14, growing with n by about 2e-16 per term as the
recurrence accumulates rounding.  RELATIVE_BOUND allows twice that.
"""

import itertools
import sys

import pytest

import hspstats as h
from hspstats import analytic

mp = pytest.importorskip("mpmath")

RELATIVE_BOUND = 1e-13
FLOOR = 1e-250
EPS = sys.float_info.epsilon


def _reference(params, f, n_top):
    """The heralded and the unheralded law, p(n) and U(n), at 50 digits."""
    with mp.workdps(50):
        mu, eta_h, eta_s, d_h = (mp.mpf(x) for x in (params.mu, params.eta_h,
                                                      params.eta_s, params.d_h))
        m = mu * f
        a = m * eta_s
        lam = mu * eta_s * (1 - f)
        t = m / (1 + m) * (1 - eta_h)
        click = 1 - (1 - d_h) / ((1 + m) * (1 - t))
        base = [a**j / (1 + a) ** (j + 1) for j in range(n_top + 1)]
        kept = [(base[j]
                 - (1 - d_h) * (t * eta_s) ** j / ((1 + m) * (1 - t * (1 - eta_s)) ** (j + 1)))
                / click for j in range(n_top + 1)]
        extra = [mp.exp(-lam)]
        for k in range(1, n_top + 1):
            extra.append(extra[-1] * lam / k)
        return [[mp.fdot(extra[: n + 1], law[n::-1]) for n in range(n_top + 1)]
                for law in (kept, base)]


def _closed_terms(params, f, n_top):
    filt = h.FilterSpec(h.FilterBranch.HERALD, f)
    desc = analytic._describe(h.PairStatistics.POISSON, params, filt)
    return list(itertools.islice(analytic._factor(desc, params)[1](), n_top + 1))


TERM_CASES = [
    (h.SourceParams(0.5, 0.5, 0.5, 1e-4), 0.3, 219),
    # the worst configuration of the measurement, from the verify box
    (h.SourceParams(0.7831430516713814, 0.33348116186603183, 0.34828670193261996,
                    2.1910473323776957e-4), 0.7846131591663756, 333),
    (h.SourceParams(0.2, 1.0, 0.6, 1e-3), 0.5, 202),            # eta_h = 1, r = 0
    (h.SourceParams(30.0, 0.5, 0.5, 1e-4), 1e-6, 287),          # k-sum overflowed here
    (h.SourceParams(30.0, 1e-6, 1.0, 1.0), 3e-5, 363),          # certain dark counts
    (h.SourceParams(5.0, 0.01, 0.9, 0.0), 0.05, 355),           # r close to 1
    (h.SourceParams(1e-4, 0.5, 0.5, 1e-4), 0.5, 56),
    (h.SourceParams(0.3, 1e-6, 1e-6, 1e-6), 0.9, 39),
]


def _assert_match_down_to_floor(closed, reference):
    reference = [float(ref) for ref in reference]
    assert min(reference) < 1e-249          # the check reaches the floor
    for n, (x, ref) in enumerate(zip(closed, reference)):
        if ref >= FLOOR:
            assert abs(x - ref) <= RELATIVE_BOUND * ref, n


@pytest.mark.parametrize("params, f, n_top", TERM_CASES)
def test_herald_filtered_terms_match_reference_down_to_1e_250(params, f, n_top):
    _assert_match_down_to_floor(_closed_terms(params, f, n_top), _reference(params, f, n_top)[0])


@pytest.mark.parametrize("params, f, n_top", TERM_CASES)
def test_unheralded_terms_match_reference_down_to_1e_250(params, f, n_top):
    # measured before it was fixed: 1.9e-14 at worst over 240 random
    # configurations and n <= 150
    filt = h.FilterSpec(h.FilterBranch.HERALD, f)
    closed = analytic.unconditioned_terms(h.PairStatistics.POISSON, params, filt, n_top + 1)
    _assert_match_down_to_floor(closed, _reference(params, f, n_top)[1])


def test_pmf_terms_are_the_checked_terms():
    params, f = h.SourceParams(0.5, 0.5, 0.5, 1e-4), 0.3
    pmf = h.signal_pmf(h.PairStatistics.POISSON, params, h.FilterSpec(h.FilterBranch.HERALD, f))
    assert pmf.probs == tuple(_closed_terms(params, f, len(pmf) - 1))


@pytest.mark.parametrize("params, f, n_top", [
    # p(n) and U(n) are subnormal from n = 112 and zero from n = 116
    (h.SourceParams(0.01, 0.5, 0.5, 1e-4), 0.3, 130),
    # p(n)/Th(a, n) passes 1e308 at n = 69, and p(n) underflows from n = 114
    (h.SourceParams(30.0, 0.5, 0.5, 1e-4), 1e-6, 150),
    (h.SourceParams(2000.0, 0.5, 0.5, 1e-4), 1e-4, 60),         # e^(-lam) underflows
    (h.SourceParams(5.0, 0.01, 0.9, 0.0), 0.05, 150),
])
def test_herald_filtered_factors_match_reference_beyond_underflow(params, f, n_top):
    # measured before it was fixed: over 240 random configurations and
    # n <= 150 the largest relative deviation from p(n)/U(n) was 8.9e-15
    filt = h.FilterSpec(h.FilterBranch.HERALD, f)
    p, u = _reference(params, f, n_top)
    factors = analytic.xi_values(h.PairStatistics.POISSON, params, filt, n_top)
    sup = 1.0 / h.herald_click_probability(h.PairStatistics.POISSON, params, filt)
    for n, x in enumerate(factors):
        assert x == pytest.approx(float(p[n] / u[n]), rel=RELATIVE_BOUND, abs=0.0), n
        assert x <= sup * (1.0 + 4 * EPS), n
        assert x == h.xi(h.PairStatistics.POISSON, params, filt, n)

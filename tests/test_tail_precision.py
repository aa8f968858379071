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

The correcting factors xi(n) = p(n)/Th(a, n) are checked the same way,
past the n where p(n) and Th(a, n) underflow and up to where xi(n)
itself leaves double range.

The bound was measured before it was fixed: over 240 configurations (the
verify box, mu up to 30, efficiencies, fractions and dark counts down to
1e-6 and up to 1), n <= 400 and p(n) >= 1e-250, the largest relative
deviation was 5.2e-14, growing with n by about 2e-16 per term as the
recurrence accumulates rounding.  RELATIVE_BOUND allows twice that.
"""

import itertools
import math

import pytest

import hspstats as h
from hspstats import analytic

mp = pytest.importorskip("mpmath")

RELATIVE_BOUND = 1e-13
FLOOR = 1e-250


def _reference(params, f, n_top, per_base=False):
    """p(n) at 50 digits, or xi(n) = p(n)/Th(a, n) with per_base, as floats
    (inf where xi(n) leaves double range)."""
    with mp.workdps(50):
        mu, eta_h, eta_s, d_h = (mp.mpf(x) for x in (params.mu, params.eta_h,
                                                      params.eta_s, params.d_h))
        m = mu * f
        a = m * eta_s
        lam = mu * eta_s * (1 - f)
        t = m / (1 + m) * (1 - eta_h)
        click = 1 - (1 - d_h) / ((1 + m) * (1 - t))
        kept = [(a**j / (1 + a) ** (j + 1)
                 - (1 - d_h) * (t * eta_s) ** j / ((1 + m) * (1 - t * (1 - eta_s)) ** (j + 1)))
                / click for j in range(n_top + 1)]
        extra = [mp.exp(-lam)]
        for k in range(1, n_top + 1):
            extra.append(extra[-1] * lam / k)
        terms = [mp.fdot(extra[: n + 1], kept[n::-1]) for n in range(n_top + 1)]
        if per_base:
            terms = [t * (1 + a) ** (n + 1) / a**n for n, t in enumerate(terms)]
        return [float(t) if t < mp.mpf("1.7976931348623157e308") else math.inf for t in terms]


def _closed_terms(params, f, n_top):
    filt = h.FilterSpec(h.FilterBranch.HERALD, f)
    desc = analytic._describe(h.PairStatistics.POISSON, params, filt)
    return list(itertools.islice(analytic._factor(desc, params)[1](), n_top + 1))


@pytest.mark.parametrize("params, f, n_top", [
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
])
def test_herald_filtered_terms_match_reference_down_to_1e_250(params, f, n_top):
    reference = _reference(params, f, n_top)
    closed = _closed_terms(params, f, n_top)
    assert min(reference) < 1e-249          # the check reaches the floor
    for n, (x, ref) in enumerate(zip(closed, reference)):
        if ref >= FLOOR:
            assert abs(x - ref) <= RELATIVE_BOUND * ref, n


def test_pmf_terms_are_the_checked_terms():
    params, f = h.SourceParams(0.5, 0.5, 0.5, 1e-4), 0.3
    pmf = h.signal_pmf(h.PairStatistics.POISSON, params, h.FilterSpec(h.FilterBranch.HERALD, f))
    assert pmf.probs == tuple(_closed_terms(params, f, len(pmf) - 1))


@pytest.mark.parametrize("params, f, n_top", [
    # p(n) and Th(a, n) are subnormal from n = 112 and zero from n = 116,
    # where xi(n) is about 6.5e3
    (h.SourceParams(0.01, 0.5, 0.5, 1e-4), 0.3, 130),
    (h.SourceParams(30.0, 0.5, 0.5, 1e-4), 1e-6, 80),           # xi(69) > 1e308
    (h.SourceParams(2000.0, 0.5, 0.5, 1e-4), 1e-4, 60),         # e^(-lam) underflows
    (h.SourceParams(5.0, 0.01, 0.9, 0.0), 0.05, 150),
])
def test_herald_filtered_factors_match_reference_beyond_underflow(params, f, n_top):
    # measured before it was fixed: over 240 random configurations and
    # n <= 150 the largest relative deviation was 5.2e-14 (9.2e-14 to n = 400)
    filt = h.FilterSpec(h.FilterBranch.HERALD, f)
    for n, ref in enumerate(_reference(params, f, n_top, per_base=True)):
        if math.isinf(ref):
            with pytest.raises(h.SeriesOverflowError):
                h.xi(h.PairStatistics.POISSON, params, filt, n)
            break
        assert h.xi(h.PairStatistics.POISSON, params, filt, n) == pytest.approx(
            ref, rel=RELATIVE_BOUND, abs=0.0), n

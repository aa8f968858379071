"""Closed forms against the independent oracles over the whole validated
domain, corners included: mu up to 30, efficiencies and mode fractions
down to 1e-6, signal efficiencies also 0 and subnormal, dark-count
probabilities up to 1.

Each draw must either agree term by term within ``verify.SERIES_TOL`` or
raise a documented :class:`HspsError` subclass; a bare ``OverflowError``
or ``ValueError`` fails the test, and so does a closed-form
:class:`SeriesOverflowError` where the oracle returns a pmf.  The oracle
may refuse only by :class:`SeriesOverflowError`: every draw is a valid
configuration whose herald can fire.  The
herald-filtered route draws 100 examples: its convolution oracle takes
up to about 6 ms at mu = 30, and the 100 draws under half a second.
"""

import math

from hypothesis import event, given, settings, strategies as st

import hspstats as h
from hspstats.verify import SERIES_TOL


def _log_uniform(lo, hi):
    """Log-uniform over [lo, hi], with half the draws at one of the ends."""
    return st.one_of(st.sampled_from([lo, hi]),
                     st.floats(math.log(lo), math.log(hi)).map(math.exp))


mus = _log_uniform(1e-4, 30.0)
fractions = _log_uniform(1e-6, 1.0)        # efficiencies and mode fractions
darks = st.one_of(st.just(0.0), fractions)
# the oracles' p(0) rounds up to 14 ulp above 1 at a dim signal branch
signal_efficiencies = st.one_of(fractions, st.sampled_from([0.0, 1e-12, 1e-300, 5e-324]))
POISSON = h.PairStatistics.POISSON
THERMAL = h.PairStatistics.THERMAL


def _substituted_series(params, f):
    sub = h.SourceParams(params.mu * f, params.eta_h, params.eta_s,
                         h.effective_dark_count(params, f))
    return h.conditional_pmf_series(THERMAL, sub)


def _filtered(branch):
    return lambda params, f: h.signal_pmf(POISSON, params, h.FilterSpec(branch, f))


# (closed form, independent oracle) of each configuration
POISSON_ROUTE = (lambda p, f: h.signal_pmf(POISSON, p),
                 lambda p, f: h.conditional_pmf_series(POISSON, p))
THERMAL_ROUTE = (lambda p, f: h.signal_pmf(THERMAL, p),
                 lambda p, f: h.conditional_pmf_series(THERMAL, p))
SIGNAL_ROUTE = (_filtered(h.FilterBranch.SIGNAL), _substituted_series)
HERALD_ROUTE = (_filtered(h.FilterBranch.HERALD), h.herald_filter_convolution_oracle)


def _check(route, params, f):
    closed_form, oracle_route = route
    try:
        oracle = oracle_route(params, f)
    except h.SeriesOverflowError:
        event("oracle: SeriesOverflowError")
        oracle = None
    try:
        closed = closed_form(params, f)
    except h.SeriesOverflowError:
        assert oracle is None, "closed form overflowed where the oracle returns a pmf"
        event("closed: SeriesOverflowError")
        return
    except h.HspsError as exc:
        event(f"closed: {type(exc).__name__}")
        return
    if oracle is None:
        return
    for n in range(max(len(closed), len(oracle))):
        assert abs(closed.prob(n) - oracle.prob(n)) < SERIES_TOL


@given(st.sampled_from([POISSON_ROUTE, THERMAL_ROUTE, SIGNAL_ROUTE]),
       mus, fractions, signal_efficiencies, darks, fractions)
def test_closed_forms_match_series_at_corners(route, mu, eta_h, eta_s, d_h, f):
    _check(route, h.SourceParams(mu, eta_h, eta_s, d_h), f)


@settings(max_examples=100)
@given(mus, fractions, signal_efficiencies, darks, fractions)
def test_herald_filtered_matches_convolution_at_corners(mu, eta_h, eta_s, d_h, f):
    _check(HERALD_ROUTE, h.SourceParams(mu, eta_h, eta_s, d_h), f)

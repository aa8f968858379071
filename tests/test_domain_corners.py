"""Closed forms against the independent oracles over the whole validated
domain, corners included: mu up to 30, efficiencies and mode fractions
down to 1e-6, dark-count probabilities up to 1.

Each draw must either agree term by term within ``verify.SERIES_TOL`` or
raise a documented :class:`HspsError` subclass; a bare ``OverflowError``
or ``ValueError`` fails the test.  The herald-filtered route draws fewer
examples: its closed form is O(n^2) and takes up to about 0.3 s at
mu = 30.
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
POISSON = h.PairStatistics.POISSON
THERMAL = h.PairStatistics.THERMAL


def _poisson(params, f):
    return h.signal_pmf(POISSON, params), h.conditional_pmf_series(POISSON, params)


def _thermal(params, f):
    return h.signal_pmf(THERMAL, params), h.conditional_pmf_series(THERMAL, params)


def _signal_filtered(params, f):
    closed = h.signal_pmf(POISSON, params, h.FilterSpec(h.FilterBranch.SIGNAL, f))
    sub = h.SourceParams(params.mu * f, params.eta_h, params.eta_s,
                         h.effective_dark_count(params, f))
    return closed, h.conditional_pmf_series(THERMAL, sub)


def _herald_filtered(params, f):
    closed = h.signal_pmf(POISSON, params, h.FilterSpec(h.FilterBranch.HERALD, f))
    return closed, h.herald_filter_convolution_oracle(params, f)


def _check(route, params, f):
    try:
        closed, oracle = route(params, f)
    except h.HspsError as exc:
        event(type(exc).__name__)
        return
    for n in range(max(len(closed), len(oracle))):
        assert abs(closed.prob(n) - oracle.prob(n)) < SERIES_TOL


@given(st.sampled_from([_poisson, _thermal, _signal_filtered]),
       mus, fractions, fractions, darks, fractions)
def test_closed_forms_match_series_at_corners(route, mu, eta_h, eta_s, d_h, f):
    _check(route, h.SourceParams(mu, eta_h, eta_s, d_h), f)


@settings(max_examples=20)
@given(mus, fractions, fractions, darks, fractions)
def test_herald_filtered_matches_convolution_at_corners(mu, eta_h, eta_s, d_h, f):
    _check(_herald_filtered, h.SourceParams(mu, eta_h, eta_s, d_h), f)


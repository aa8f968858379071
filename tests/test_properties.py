"""Property-based invariants over the validated parameter box.

The strategies draw mu log-uniformly over [1e-4, 1], efficiencies over
[0.05, 1], dark rates over {0} U [1e-6, 1e-2] and mode fractions over
[0.05, 1], matching the regime every closed form is specified for.
"""

import math

from hypothesis import given, strategies as st

import hspstats as h
from hspstats import records
from hspstats.analytic import DEFAULT_TOL, _clicks
from hspstats.model import to_record

efficiencies = st.floats(0.05, 1.0)
mus = st.floats(math.log(1e-4), math.log(1.0)).map(math.exp)
darks = st.one_of(st.just(0.0), st.floats(math.log(1e-6), math.log(1e-2)).map(math.exp))
fractions = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@st.composite
def source_params(draw, min_dark=None):
    d_h = draw(darks) if min_dark is None else draw(
        st.floats(math.log(min_dark), math.log(1e-2)).map(math.exp))
    return h.SourceParams(draw(mus), draw(efficiencies), draw(efficiencies), d_h)


@st.composite
def configurations(draw):
    params = draw(source_params())
    stat = draw(st.sampled_from([h.PairStatistics.POISSON, h.PairStatistics.THERMAL]))
    if stat is h.PairStatistics.POISSON:
        branch = draw(st.sampled_from(list(h.FilterBranch)))
    else:
        branch = h.FilterBranch.NONE
    filt = h.NO_FILTER if branch is h.FilterBranch.NONE else h.FilterSpec(branch, draw(fractions))
    return stat, params, filt


@given(configurations())
def test_normalization(config):
    stat, params, filt = config
    pmf = h.signal_pmf(stat, params, filt)
    total = math.fsum(pmf.probs)
    assert 1.0 - pmf.tail_bound <= total <= 1.0 + 1e-12
    assert pmf.tail_bound <= DEFAULT_TOL


@given(source_params(), st.integers(0, 200))
def test_herald_prob_monotone_and_bounded(params, N):
    click = _clicks(params)
    a, b = click(N), click(N + 1)
    assert 0.0 <= a <= b <= 1.0


@given(source_params())
def test_xi_growth_concavity_and_limit(params):
    for stat in (h.PairStatistics.POISSON, h.PairStatistics.THERMAL):
        limit = 1 / h.herald_click_probability(stat, params)
        values = [h.xi(stat, params, h.NO_FILTER, n) for n in range(102)]
        slack = 1e-12 * max(1.0, limit)
        for a, b in zip(values, values[1:]):
            assert b >= a - slack             # growing with n
            assert a <= limit + slack         # bounded by the asymptote
        for a, b, c in zip(values, values[1:], values[2:]):
            assert c - b <= b - a + slack     # concave


@given(source_params(), fractions)
def test_effective_dark_count_dominates(params, f):
    nu = h.effective_dark_count(params, f)
    assert nu >= params.d_h
    if f == 1.0 or params.mu * params.eta_h == 0.0:
        assert nu == params.d_h
    elif params.mu * params.eta_h * (1.0 - f) > 1e-12:
        # strict dominance whenever the increment is representable next to
        # d_h <= 1e-2; closer to f = 1 it may round to equality
        assert nu > params.d_h


@given(source_params(), st.integers(0, 50))
def test_filtered_factors_reduce_at_full_fraction(params, n):
    pois = h.PairStatistics.POISSON
    ref = h.xi(h.PairStatistics.THERMAL, params, h.NO_FILTER, n)
    xs = h.xi(pois, params, h.FilterSpec(h.FilterBranch.SIGNAL, 1.0), n)
    xh = h.xi(pois, params, h.FilterSpec(h.FilterBranch.HERALD, 1.0), n)
    scale = max(1.0, abs(ref))
    assert abs(xs - ref) <= 1e-12 * scale
    assert abs(xh - ref) <= 1e-12 * scale


@given(source_params(min_dark=1e-6))
def test_moment_closed_form_matches_pmf(params):
    closed = h.moments_closed_form(params)
    direct = h.moments_from_pmf(h.signal_pmf(h.PairStatistics.POISSON, params, h.NO_FILTER, 1e-13))
    assert math.isclose(closed.mean, direct.mean, rel_tol=1e-9)
    assert math.isclose(closed.variance, direct.variance, rel_tol=1e-9)


@given(source_params())
def test_series_equals_closed_form(params):
    for stat in (h.PairStatistics.POISSON, h.PairStatistics.THERMAL):
        series = h.conditional_pmf_series(stat, params)
        closed = h.signal_pmf(stat, params)
        for n in range(max(len(series), len(closed))):
            assert abs(series.prob(n) - closed.prob(n)) < 1e-10


@given(source_params(), st.floats(0.05, 1.0))
def test_convolution_oracle_equals_closed_form(params, f):
    oracle = h.herald_filter_convolution_oracle(params, f)
    closed = h.signal_pmf(
        h.PairStatistics.POISSON, params, h.FilterSpec(h.FilterBranch.HERALD, f))
    for n in range(max(len(oracle), len(closed))):
        assert abs(oracle.prob(n) - closed.prob(n)) < 1e-10


# measured worst over 2,800 random configurations of this box, n < 40 and
# terms >= 1e-250: 1.0e-15 relative (herald filter), 7.1e-16 for the others
MIXING_RTOL = 4e-15


@given(source_params(min_dark=1e-6), fractions)
def test_dark_count_mixing(params, f):
    # a dark count is independent of the photons, so the rate of a click with
    # n signal photons mixes the certain-herald law and the dark-free one:
    # P_d p_d(n) = d U(n) + (1 - d) P_0 p_0(n), in all four configurations
    d, dark_free = params.d_h, h.SourceParams(params.mu, params.eta_h, params.eta_s, 0.0)
    pois = h.PairStatistics.POISSON
    for stat, filt in [(pois, h.NO_FILTER), (h.PairStatistics.THERMAL, h.NO_FILTER),
                       (pois, h.FilterSpec(h.FilterBranch.SIGNAL, f)),
                       (pois, h.FilterSpec(h.FilterBranch.HERALD, f))]:
        rate, rate_0 = (h.herald_click_probability(stat, p, filt) for p in (params, dark_free))
        terms, terms_0 = (h.heralded_terms(stat, p, filt, 40) for p in (params, dark_free))
        law = h.unconditioned_terms(stat, params, filt, 40)
        for n in range(40):
            mixed = d * law[n] + (1.0 - d) * (rate_0 * terms_0[n])
            if mixed >= 1e-250:
                assert math.isclose(rate * terms[n], mixed, rel_tol=MIXING_RTOL), (stat, filt, n)


# measured worst over 2,400 random configurations of this box (loss factor e
# in [0.05, 1]), n < 40 and terms >= 1e-250: 1.9e-13 relative (Poisson, at
# n = 37..39 and mu near 3e-4), 1.9e-14 for the other three
LOSS_RTOL = 4e-13


def _thinned(terms, e: float, count: int) -> list:
    """q(n) = sum_m p(m) C(m, n) e^n (1 - e)^(m - n), n < count: each signal
    photon kept with probability e, as plain sums of positive terms."""
    return [e**n * math.fsum(p * math.comb(m, n) * (1.0 - e) ** (m - n)
                             for m, p in enumerate(terms) if m >= n) for n in range(count)]


@given(source_params(), efficiencies, fractions)
def test_loss_composition(params, e, f):
    # signal loss is binomial thinning and the herald does not read eta_s, so
    # the law at eta_s e is the law at eta_s thinned by e, in all four
    # configurations; 200 terms hold all but a negligible tail where mu <= 1
    lossy = h.SourceParams(params.mu, params.eta_h, params.eta_s * e, params.d_h)
    pois = h.PairStatistics.POISSON
    for stat, filt in [(pois, h.NO_FILTER), (h.PairStatistics.THERMAL, h.NO_FILTER),
                       (pois, h.FilterSpec(h.FilterBranch.SIGNAL, f)),
                       (pois, h.FilterSpec(h.FilterBranch.HERALD, f))]:
        law = h.heralded_terms(stat, lossy, filt, 40)
        thinned = _thinned(h.heralded_terms(stat, params, filt, 200), e, 40)
        for n in range(40):
            if law[n] >= 1e-250:
                assert math.isclose(thinned[n], law[n], rel_tol=LOSS_RTOL), (stat, filt, n)


@given(source_params(), st.sampled_from(records.FORMATS))
def test_serialization_round_trip(params, fmt):
    rec = records.OutputRecord(records.SCHEMA_VERSION, "pmf", to_record(params), [])
    back = records.parse(records.render(rec, fmt)).inputs
    assert h.SourceParams(back["mu"], back["eta_h"], back["eta_s"], back["d_h"]) == params


@given(st.floats(1e-6, 1.0), st.integers(0, 60))
def test_xi_times_base_is_a_probability(mu, n):
    params = h.SourceParams(mu, 0.5, 0.5, 1e-4)
    stat = h.PairStatistics.POISSON
    base = h.unconditioned_terms(stat, params, h.NO_FILTER, n + 1)[n]
    p = base * h.xi(stat, params, h.NO_FILTER, n)
    assert 0.0 <= p <= 1.0

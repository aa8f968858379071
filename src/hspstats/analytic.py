"""Closed-form photon-number statistics of a heralded single-photon source.

The source emits N photon pairs per time bin (Poisson or thermal law with
mean mu).  Each branch is a compound loss modeled as a single beam splitter,
so a population of N photons survives as a Binomial(N, eta) count.  The
herald is a threshold click: it fires when at least one heralding photon is
detected or a dark count occurs.  Conditioning the signal-branch count on
that click multiplies the unconditioned law by a correcting factor xi(n).

A mode filter keeps one thermal mode of mean mu*f; the twins of the photons
it removes act as dark counts behind a signal filter and as an independent
Poisson signal count behind a herald filter.  So :func:`_describe` gives
every configuration as (base law, kept-mode mean m, effective dark count,
extraneous signal mean lam): Poisson (POISSON, mu, d_h, 0), thermal
(THERMAL, mu, d_h, 0), signal filter (THERMAL, mu*f, nu_h, 0) and herald
filter (THERMAL, mu*f, d_h, mu*eta_s*(1-f)).  The unheralded signal law U
of every configuration is its heralded law under a herald that always fires
(d_h = 1), and xi(n) = p(n)/U(n).  :func:`_pair_law` alone picks a law, with
its tail bound, and :func:`_factor` gives 1/P_click, xi(n) from one exponent
x_n for both laws and the pmf terms; behind a herald filter the terms follow
a positive recurrence and xi a bounded ratio recurrence.  The oracle pair
sum never reads a description, so each closed form is cross-checked against
an independent route.

All functions are pure and safe for concurrent use.
"""

import bisect
import functools
import itertools
import math
import sys

from .errors import NoHeraldError, SeriesOverflowError, ValidationError
from .model import (
    NO_FILTER,
    TERM_CAP,
    FilterBranch,
    FilterSpec,
    MomentSummary,
    PairStatistics,
    Pmf,
    SourceParams,
)

__all__ = [
    "effective_dark_count",
    "xi",
    "xi_values",
    "conditional_pmf_series",
    "signal_pmf",
    "heralded_terms",
    "unconditioned_terms",
    "herald_click_probability",
    "herald_filter_convolution_oracle",
    "moments_closed_form",
    "moments_from_pmf",
    "asymptotic_tail_check",
]

DEFAULT_TOL = 1e-12

# read once: an enum member read through its class costs about 0.1 us, a
# tenth of the moment evaluation that the optimizer repeats per probe
_POISSON = PairStatistics.POISSON

# Requested tail tolerances below this cannot be honored in double precision
# (the builders account mass by floating-point summation).
MIN_TOL = 1e-13


def _check_tol(tol: float):
    """Refuse a pmf tail tolerance below MIN_TOL, above 1 or NaN."""
    if not MIN_TOL <= tol <= 1.0:
        raise ValidationError(f"tolerance must be finite and >= {MIN_TOL} and <= 1, got {tol!r}")


def _oms(x, d_h: float, expm1=math.expm1):
    """1 - (1-d_h)*exp(-x) for x >= 0, evaluated without cancellation; with
    expm1=numpy.expm1, for every entry of an array x."""
    return d_h + (1.0 - d_h) * (-expm1(-x))


def _hazard(eta_h: float) -> float:
    """-log(1 - eta_h), the exponent of the miss probability per pair, or 1e3
    at eta_h = 1: e^-1000 is 0 in doubles, and 0 * 1e3 stays 0."""
    return -math.log1p(-eta_h) if eta_h < 1.0 else 1e3


def _clicks(params: SourceParams, expm1=math.expm1):
    """N -> H(N) = 1 - (1-d_h)(1-eta_h)^N, the probability that the detector
    clicks given N pairs in the bin, with the hazard taken once; with
    expm1=numpy.expm1, for every entry of an array N."""
    d_h, lq = params.d_h, _hazard(params.eta_h)
    return lambda N: _oms(N * lq, d_h, expm1)


def _pair_law(stat: PairStatistics, mu: float) -> tuple:
    """(N -> P_in(N), n -> bound on P(N > n)) of the Poisson or thermal pair
    law of mean mu >= 0.  The thermal tail is exact; the Poisson bound exceeds
    1 just above n = mu - 2, so it is capped at 1 to stay non-increasing for
    the truncation searches.  Above mu = 32 a Poisson term takes Loader's
    saddle-point form (:func:`_loader_poisson`), since exp(N log mu - mu -
    log N!) carries the rounding of its large summands into every term."""
    if mu == 0.0:
        return (lambda N: 1.0 if N == 0 else 0.0), lambda n: 0.0
    if stat is PairStatistics.POISSON:
        e_mu, log_mu = math.exp(-mu), math.log(mu)
        law = ((lambda N: _loader_poisson(N, mu)) if mu > 32.0
               else lambda N: (e_mu * mu**N / math.factorial(N) if N <= 32
                               else math.exp(N * log_mu - mu - math.lgamma(N + 1))))
        return law, lambda n: min(_poisson_tail_bound(mu, n), 1.0)
    q, den = mu / (1.0 + mu), 1.0 + mu
    return (lambda N: q**N / den), lambda n: q ** (n + 1)


def _loader_poisson(N: int, mu: float) -> float:
    """Po(mu, N) = exp(-stirlerr(N) - bd0(N, mu))/sqrt(2 pi N), with
    stirlerr(N) = log N! - log(sqrt(2 pi N) (N/e)^N) and bd0(N, mu) = N log(N/mu)
    + mu - N, the latter by its series in v = (N - mu)/(N + mu) near the mode
    (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000, as in R's dpois)."""
    if N == 0:
        return math.exp(-mu)
    nn, d = N * N, N - mu
    stirlerr = (math.lgamma(N + 1.0) - (N + 0.5) * math.log(N) + N - 0.5 * math.log(2 * math.pi)
                if N <= 15 else (1/12 - (1/360 - (1/1260 - (1/1680 - 1/1188/nn)/nn)/nn)/nn)/N)
    if abs(d) >= 0.1 * (N + mu):
        bd0 = N * math.log(N / mu) - d
    else:
        v = d / (N + mu)
        bd0, odd, v2, j = d * v, 2.0 * N * v, v * v, 3
        while bd0 + odd * v2 / j != bd0:
            odd *= v2
            bd0, j = bd0 + odd / j, j + 2
    return math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * N)


def effective_dark_count(params: SourceParams, f: float) -> float:
    """Dark-count probability as inflated by a signal-branch filter.

    Extraneous heralding photons (twins of filtered-out signal photons) act
    as extra detector noise: nu_h = 1 - (1-d_h)*exp(-mu*eta_h*(1-f)).
    Always >= d_h, with equality iff f = 1 or mu*eta_h = 0.  f is validated
    by :class:`FilterSpec`.
    """
    return _describe(PairStatistics.POISSON, params, FilterSpec(FilterBranch.SIGNAL, f))[2]


def _check_heraldable(d_h: float, rate: float):
    """Raise when the herald can never fire (zero click probability)."""
    if d_h == 0.0 and rate == 0.0:
        raise NoHeraldError(
            "herald can never fire: dark counts are zero and mu*eta_h = 0"
        )


def _log_ratio(mu: float, eta_h: float, eta_s: float) -> float:
    """log[(1 + mu(eta_s+eta_h-eta_s*eta_h)) / (1 + mu*eta_s)] at full
    precision: the two arguments differ by exactly mu*eta_h*(1-eta_s)."""
    return math.log1p(mu * eta_h * (1.0 - eta_s) / (1.0 + mu * eta_s))


def _describe(stat: PairStatistics, params: SourceParams, filt: FilterSpec) -> tuple:
    """(base law, kept-mode mean m, effective dark count, extraneous signal
    mean lam) of a configuration."""
    mu, d_h = params.mu, params.d_h
    if filt.branch is FilterBranch.NONE:
        return stat, mu, d_h, 0.0
    if stat is not PairStatistics.POISSON:
        raise ValidationError(
            "a mode filter requires Poisson pair statistics; the kept mode is "
            "then thermal and the remainder Poisson"
        )
    if filt.branch is FilterBranch.SIGNAL:
        nu_h = _oms(mu * params.eta_h * (1.0 - filt.f), d_h)
        return PairStatistics.THERMAL, mu * filt.f, nu_h, 0.0
    return PairStatistics.THERMAL, mu * filt.f, d_h, mu * params.eta_s * (1.0 - filt.f)


def _click_fraction(desc: tuple, eta_h: float) -> tuple:
    """Herald rate P_click of a described configuration as (numerator,
    denominator), so that P_click and 1/P_click each round only once."""
    base, m, dark, _ = desc
    if base is PairStatistics.POISSON:
        return _oms(m * eta_h, dark), 1.0
    return dark + m * eta_h, 1.0 + m * eta_h


def _factor(desc: tuple, params: SourceParams) -> tuple:
    """1/P_click, terms() over p(0), p(1), ... and xis(start) over xi(start),
    xi(start + 1), ... of a described configuration (fresh iterators).
    terms(count) names how many terms the caller takes: a thermal base
    without extra photons then gives count >= _ARRAY_FROM terms as one numpy
    array, whose power and expm1 may round a term a few ulp off the loop's.

    With oms(x) = 1 - (1-d)e^(-x) and lq = -log(1-eta_h), n kept-mode signal
    photons herald with probability oms(x_n), x_n = (n+1)L + n lq + x0, with
    (L, x0) = (0, m eta_h (1-eta_s)) for a Poisson base (K -> inf modes) and
    (:func:`_log_ratio`, 0) for a thermal one (K = 1).  So p(n) = base(a, n)
    xi(n) with a = m eta_s and xi(n) = oms(x_n)/P_click, and at d = 1, where
    oms = P_click = 1, the terms are the unheralded law base(a, n) itself.

    With lam > 0 the signal count is the heralded kept-mode count plus an
    independent Poisson(lam) count, so p(n) = C(n)/P_click, C the
    convolution of Po(lam) with h(j) = Th(a, j) oms(x_j).  Since
    oms(x_(j+1)) = r oms(x_j) + 1 - r with r = e^(-(L+lq)), C and the
    unheralded law D = Po(lam) * Th(a), which is C at d = 1, follow, with
    q = a/(1+a),
        C(n+1) = Po(lam, n+1) h(0) + q r C(n) + q (1-r) D(n),
        D(n+1) = Po(lam, n+1)/(1+a) + q D(n),
    at O(1) per term.  The terms run this recurrence on p = C/P_click itself,
    with 1/P_click folded into the constants h(0) and q (1-r), so that p(n)
    keeps full precision where C(n) = P_click p(n) would leave the normal
    range at a tiny herald rate.  xi(n) = rho(n)/P_click with rho = C/D, the
    herald probability given n signal photons.  With beta(n) =
    Po(lam, n)/((1+a) D(n)), the share of D(n) without kept photons, and
    alpha = 1 - beta,
        beta(n) = lam beta(n-1)/(lam beta(n-1) + q n),
        rho(n) = beta(n) oms(L) + alpha(n) (r rho(n-1) + 1 - r),
    from beta(0) = 1 and rho(0) = oms(L).  Each step is a convex combination,
    so rho stays within [oms(L), 1] where C(n) and D(n) underflow, and alpha
    is its own quotient, since 1 - beta cancels.  lq is :func:`_hazard`, 1e3
    at eta_h = 1, where r = 0: a perfect herald needs no special case.
    """
    base, m, dark, lam = desc
    eta_h, eta_s = params.eta_h, params.eta_s
    _check_heraldable(dark, m * eta_h)
    num, den = _click_fraction(desc, eta_h)
    sup = den / num
    if sup == math.inf:
        raise SeriesOverflowError(
            f"herald rate {num / den!r} is too small: 1/P_click leaves double range")
    lq = _hazard(eta_h)
    a = m * eta_s
    l_ratio, x0 = ((0.0, m * eta_h * (1.0 - eta_s)) if base is _POISSON
                   else (_log_ratio(m, eta_h, eta_s), 0.0))
    factor = lambda n: sup * _oms((n + 1) * l_ratio + n * lq + x0, dark)
    if lam == 0.0:
        law = _pair_law(base, a)[0]

        def terms(count=None):
            if count is None or count < _ARRAY_FROM or base is _POISSON:
                return (law(n) * factor(n) for n in itertools.count())
            import numpy as np
            n = np.arange(count, dtype=float)
            return law(n) * (sup * _oms((n + 1.0) * l_ratio + n * lq + x0, dark, np.expm1))

        return sup, terms, lambda start: map(factor, itertools.count(start))

    q = a / (1.0 + a)
    o0 = _oms(l_ratio, dark)
    h0 = sup * o0 / (1.0 + a)
    r, s = math.exp(-(l_ratio + lq)), -math.expm1(-(l_ratio + lq))
    qr, qs = q * r, q * (sup * s)

    def terms(count=None):
        # Po(lam, n) by its term ratio, or afresh while e^(-lam) underflows,
        # which only a law that starts below 1e-280 (lam > 644) needs
        po = math.exp(-lam)
        extra = _pair_law(_POISSON, lam)[0] if po <= 1e-280 else None
        c, d = po * h0, po / (1.0 + a)
        for n in itertools.count(1):
            yield c
            po = po * lam / n if po > 1e-280 or n > lam else extra(n)
            c, d = po * h0 + qr * c + qs * d, po / (1.0 + a) + q * d

    def xis():
        beta, rho = 1.0, o0
        for n in itertools.count(1):
            yield sup * rho
            new, old = lam * beta, q * n
            beta, alpha = new / (new + old), old / (new + old)
            rho = beta * o0 + alpha * (r * rho + s)

    return sup, terms, lambda start: itertools.islice(xis(), start, None)


def xi_values(stat: PairStatistics, params: SourceParams, filt: FilterSpec = NO_FILTER,
              n_top: int = 0) -> list:
    """xi(0), ..., xi(n_top) from one evaluation of the factor: O(1) each,
    or one pass of the bounded ratio recurrence behind a herald filter."""
    if n_top < 0:
        raise ValidationError(f"photon number must be >= 0, got {n_top}")
    xis = _factor(_describe(stat, params, filt), params)[2]
    return list(itertools.islice(xis(0), n_top + 1))


def xi(stat: PairStatistics, params: SourceParams, filt: FilterSpec = NO_FILTER,
       n: int = 0) -> float:
    """Correcting factor xi(n): heralded probability of n signal photons over
    the unheralded one, :func:`unconditioned_terms`, in every configuration.
    It lies between xi(0) and 1/P_click behind a herald filter.  One entry of
    :func:`xi_values`, kept as its own name because the benchmark's tracer
    counts its calls."""
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    return next(_factor(_describe(stat, params, filt), params)[2](n))


def _poisson_tail_bound(a: float, n: int) -> float:
    """Upper bound on P(X > n) for X ~ Poisson(a)."""
    if a == 0.0:
        return 0.0
    if a >= n + 2:
        return 1.0
    # geometric domination of successive terms beyond n+1
    head = math.exp((n + 1) * math.log(a) - a - math.lgamma(n + 2))
    return head / (1.0 - a / (n + 2))


_BLOCK = 32  # pair numbers per block of _thin: C(j, n), j <= _BLOCK, is exact in doubles


@functools.cache
def _pascal() -> tuple:
    """C(j, n) and max(j - n, 0) for j, n = 0.._BLOCK, as numpy arrays."""
    import numpy as np
    j, n = np.ogrid[:_BLOCK + 1, :_BLOCK + 1]
    comb = [[math.comb(r, c) for c in range(_BLOCK + 1)] for r in range(_BLOCK + 1)]
    return np.array(comb, dtype=float), np.maximum(j - n, 0)


@functools.lru_cache(maxsize=16)
def _binomial_rows(eta: float):
    """M[j, n] = C(j, n) eta^n (1-eta)^(j-n) for j, n = 0.._BLOCK, zero above
    the diagonal; read-only and cached, since the oracles thin each of their
    populations by the same eta_s."""
    import numpy as np
    comb, gap = _pascal()
    powers = np.arange(_BLOCK + 1)
    rows = comb * eta**powers * ((1.0 - eta) ** powers)[gap]
    rows.flags.writeable = False
    return rows


def _thin(weights, eta: float):
    """sum_N w[N] Binomial(N, eta) as a numpy array over survivors, in blocks of _BLOCK
    pair numbers: with M from :func:`_binomial_rows`, one matrix product thins
    every block, and Horner over blocks combines them, since
    (1-eta + eta*z)^_BLOCK has the coefficients M[_BLOCK].  Only positive floats
    are combined, so nothing cancels or overflows.  weights is a list or a
    numpy array.  numpy is imported here so that importing this module does
    not import numpy."""
    import numpy as np
    rows = _binomial_rows(eta)
    padded = np.zeros(-(-len(weights) // _BLOCK) * _BLOCK)
    padded[:len(weights)] = weights
    blocks = padded.reshape(-1, _BLOCK) @ rows[:_BLOCK, :_BLOCK]
    poly = blocks[-1]
    for block in blocks[-2::-1]:
        poly = np.convolve(poly, rows[_BLOCK])
        poly[:_BLOCK] += block
    return poly[:len(weights)]


def _herald_weights(stat: PairStatistics, mu: float, click, stop: float) -> tuple:
    """The weighted pair law w(N) = P_in(N) click(N), N = 0, 1, ..., from
    :func:`_pair_law`, and its sum, up to the first N >= 8 whose remaining
    input mass is at most stop times the sum.  click is
    :func:`_clicks` for the herald-weighted law, or 1 for an unweighted one.

    One pair per step, at about 0.4 to 1 us each: the pair sum builds every
    law here but its long thermal ones (see _ARRAY_FROM), which
    :func:`_array_weights` builds and which are tested against this loop."""
    law, tail = _pair_law(stat, mu)
    weights, total = [], 0.0
    for N in range(TERM_CAP + 1):
        w = law(N) * click(N)
        weights.append(w)
        total += w
        if N >= 8 and total > 0.0 and tail(N) <= stop * total:
            return weights, total
    raise SeriesOverflowError(
        f"pair sum failed to converge within {TERM_CAP} terms (mu={mu!r})")


# Thermal pair sums predicted to hold, and thermal-base closed-form pmfs
# without extra photons that hold, at least this many terms are built in one
# numpy pass, shorter ones by the loop, bit for bit.  A pass costs about 11 us
# of numpy calls, which the loop's 0.4 to 1 us per term repays from 25 to 30
# terms (2-CPU x86-64 VM, numpy 2.4).
_ARRAY_FROM = 64


def _predicted_length(mu: float, stop: float) -> float:
    """Term count of a thermal pair sum of mean mu cut at stop: where its
    exact tail q^(N+1) falls to stop, or 0 at mu = 0."""
    return math.log(stop) / -math.log1p(1.0 / mu) if mu > 0.0 else 0.0


def _array_weights(mu: float, params: SourceParams, stop: float) -> tuple:
    """:func:`_herald_weights` of the thermal law of mean mu > 0, weighted by
    :func:`_clicks` of params, in one numpy pass: the same pair law, click
    factor, tail and stop rule.  numpy's power and expm1 round differently
    from math's, so a weight may differ from the loop's by a few ulp.  The
    arrays start at a power of two above the predicted length and double up
    to TERM_CAP + 1 terms."""
    import numpy as np
    q, click = mu / (1.0 + mu), _clicks(params, np.expm1)
    size = max(1 << int(1.25 * _predicted_length(mu, stop)).bit_length(), 16)
    while True:
        size = min(size, TERM_CAP + 1)
        N = np.arange(size + 1.0)
        powers = q ** N
        weights, tail = powers[:-1] / (1.0 + mu) * click(N[:-1]), powers[1:]
        sums = np.cumsum(weights)
        hit = (tail[8:] <= stop * sums[8:]) & (sums[8:] > 0.0)
        cut = 8 + int(hit.argmax())
        if hit[cut - 8]:
            return weights[:cut + 1], float(sums[cut])
        if size > TERM_CAP:
            raise SeriesOverflowError(
                f"pair sum failed to converge within {TERM_CAP} terms (mu={mu!r})")
        size *= 2


def _pair_sum(stat: PairStatistics, mu: float, extra_mu: float, params: SourceParams,
              tol: float) -> Pmf:
    """Heralded signal pmf of a stat source of mean mu that alone drives the
    herald, plus independent Poisson(extra_mu) signal photons, by direct
    summation: sum_N P_in(N) H(N) Binomial(N, eta_s), from the herald-weighted
    pair law thinned in blocks (:func:`_thin`), convolved with the thinned
    extra law when extra_mu > 0 and divided by the herald sum.

    Two paths build the herald-weighted law.  A thermal one predicted
    (:func:`_predicted_length`) to hold _ARRAY_FROM terms or more is built by
    :func:`_array_weights`, which keeps the loop's stop rule and differs from
    its weights in the last digits only; every other law, the extra Poisson
    law included, is built by the loop of :func:`_herald_weights`.  Both are
    finished by :func:`_cut`.

    One truncation rule: each pair law stops once its remaining input mass is
    at most tol/10 of its sum, and tail_bound is the mass the stored terms
    miss, 1 - sum p(n) (the dropped tail, the extraneous law's remainder and
    rounding), plus tol/10 for the kept law's remainder, which moves the
    normalized law by at most that.  The pmf keeps the fewest terms whose
    tail_bound is within tol.  numpy is imported here so that importing this
    module does not import numpy."""
    import numpy as np
    _check_tol(tol)
    _check_heraldable(params.d_h, mu * params.eta_h)
    stop = 0.1 * tol
    if stat is not _POISSON and _predicted_length(mu, stop) >= _ARRAY_FROM:
        weights, herald_sum = _array_weights(mu, params, stop)
    else:
        weights, herald_sum = _herald_weights(stat, mu, _clicks(params), stop)
    probs, summed = _thin(weights, params.eta_s), len(weights)
    if extra_mu > 0.0:
        extra = _herald_weights(PairStatistics.POISSON, extra_mu, lambda N: 1.0, stop)[0]
        probs = np.convolve(probs, _thin(extra, params.eta_s))
        summed += len(extra)
    return _cut(probs, herald_sum, summed, stop, tol)


def _cut(probs, herald_sum: float, summed: int, stop: float, tol: float) -> Pmf:
    """The pmf of :func:`_pair_sum` from its thinned terms, a numpy array that
    it overwrites: divided by the herald sum, clamped, and cut to the fewest
    terms with tail_bound <= tol."""
    probs /= herald_sum
    # sums of k positive terms round by under k/2 ulp each, so summed ulp
    # bound the rounding of each quotient
    probs = _clamped(probs, len(probs), summed)
    missing = max(1.0 - math.fsum(probs), 0.0)
    bound = lambda dropped: missing + dropped + stop
    # beyond[k] is the mass of the last k terms, summed from the smallest up
    beyond = [0.0, *itertools.accumulate(reversed(probs[1:]))]
    cut = max(bisect.bisect_right(beyond, tol, key=bound) - 1, 0)
    return Pmf(probs[:len(probs) - cut], bound(beyond[cut]))


def conditional_pmf_series(
    stat: PairStatistics, params: SourceParams, tol: float = DEFAULT_TOL
) -> Pmf:
    """Signal-count pmf conditioned on a herald, by direct summation.

    numerator(n) = sum_{N>=n} C(N,n) P_in(N) H(N) eta_s^n (1-eta_s)^(N-n),
    normalized by sum_N P_in(N) H(N): the pair sum :func:`_pair_sum` with no
    extra photons, whose tail_bound never exceeds tol.  This is the oracle
    route: it never touches the closed forms.
    """
    return _pair_sum(stat, params.mu, 0.0, params, tol)


def signal_pmf(
    stat: PairStatistics,
    params: SourceParams,
    filt: FilterSpec = NO_FILTER,
    tol: float = DEFAULT_TOL,
) -> Pmf:
    """Exact heralded signal pmf from the closed forms (:func:`_factor`),
    truncated so the stored tail_bound <= tol."""
    _check_tol(tol)
    desc = _describe(stat, params, filt)
    base, m, _, lam = desc
    sup, terms, _ = _factor(desc, params)
    a = m * params.eta_s
    base_tail, extra_tail = _pair_law(base, a)[1], _pair_law(_POISSON, lam)[1]
    # count > n forces the kept-mode part > n//2 or the extraneous part > n - n//2
    tail = ((lambda n: sup * base_tail(n)) if lam == 0.0
            else lambda n: sup * (base_tail(n // 2) + extra_tail(n - n // 2)))
    if tail(TERM_CAP) > 0.9 * tol:
        # refused before any term is summed; the Poisson mean and the exact
        # thermal tail bound the length from below
        need = (a if base is PairStatistics.POISSON
                else math.log(sup / (0.9 * tol)) / math.log1p(1.0 / a))
        need = math.ceil(min(max(need, TERM_CAP + 2.0), 2.0**63))
        raise SeriesOverflowError(f"pmf truncation needs at least {need} terms")
    # tail is non-increasing, so the first n that meets the tolerance lies
    # between a galloped bound and its half, where bisection finds it
    hi = 0
    while tail(hi) > 0.9 * tol:
        hi = 2 * hi + 1
    order = bisect.bisect_left(range(hi + 1), True, hi // 2, key=lambda n: tail(n) <= 0.9 * tol)
    return Pmf(_clamped(terms(order + 1), order + 1), tail(order) + 0.1 * tol)


def _clamped(terms, count: int, ulps: int = 4):
    """The first count pmf terms, as a tuple from an iterator, or as a list
    from a numpy array, which is clamped in place.  A term that rounds at
    most ulps ulp above 1 is exactly 1 (tiny a or eta_s); a larger excess is
    left for Pmf to reject."""
    top = 1.0 + ulps * sys.float_info.epsilon
    if not hasattr(terms, "tolist"):
        return tuple([1.0 if 1.0 < p <= top else p for p in itertools.islice(terms, count)])
    terms = terms[:count]
    terms[(terms > 1.0) & (terms <= top)] = 1.0
    return terms.tolist()


def heralded_terms(stat: PairStatistics, params: SourceParams, filt: FilterSpec,
                   count: int) -> tuple:
    """p(0), ..., p(count - 1) of the heralded signal law as :func:`signal_pmf`
    gives them, with no truncation: the terms alone, so no moment can fail."""
    return _head(_describe(stat, params, filt), params, count)


def _head(desc: tuple, params: SourceParams, count: int) -> tuple:
    """The first count pmf terms of a described configuration."""
    if count < 0:
        raise ValidationError(f"term count must be >= 0, got {count}")
    return _clamped(_factor(desc, params)[1](), count)


def unconditioned_terms(stat: PairStatistics, params: SourceParams, filt: FilterSpec,
                        count: int) -> tuple:
    """U(0), ..., U(count - 1) of the unheralded signal law: the heralded law
    of a herald that always fires (d_h = 1)."""
    certain = SourceParams(params.mu, params.eta_h, params.eta_s, 1.0)
    return heralded_terms(stat, certain, filt, count)


def herald_click_probability(
    stat: PairStatistics, params: SourceParams, filt: FilterSpec = NO_FILTER
) -> float:
    """Closed form of the herald rate sum_N P_in(N) H(N) (the normalizer of
    the conditional law), for any supported configuration."""
    num, den = _click_fraction(_describe(stat, params, filt), params.eta_h)
    return num / den


def herald_filter_convolution_oracle(
    params: SourceParams, f: float, tol: float = DEFAULT_TOL
) -> Pmf:
    """Herald-branch-filtered pmf by direct series and convolution.

    The kept mode is thermal with mean mu*f and alone drives the herald
    (extraneous heralding photons are filtered out before the detector);
    the extraneous signal photons are Poisson with mean mu*(1-f).  So this
    is the pair sum :func:`_pair_sum` of the kept mode convolved with the
    thinned extraneous law, with the same truncation rule (tail_bound <= tol);
    at f = 1 it equals the thermal :func:`conditional_pmf_series`.  f is
    validated by :class:`FilterSpec`.  Never reads the closed-form factors.
    """
    f = FilterSpec(FilterBranch.HERALD, f).f
    return _pair_sum(PairStatistics.THERMAL, params.mu * f, params.mu * (1.0 - f), params, tol)


def moments_closed_form(params: SourceParams, stat: PairStatistics = PairStatistics.POISSON,
                        filt: FilterSpec = NO_FILTER) -> MomentSummary:
    """Mean, variance, Fano ratio and g2 of the heralded signal count of any
    configuration, in closed form from its description (base, m, d, lam).

    Given the click, the count is Binomial(N, eta_s) of the kept-mode pair
    count N plus a Po(lam) count; with E, V and G E^2 the mean, variance and
    second factorial moment of N given the click,
        <n> = eta_s E + lam,   var = eta_s (1-eta_s) E + eta_s^2 V + lam,
        g2  = A^2 G + B (2A + B),   A = eta_s E/<n>,  B = lam/<n>.
    With x = m eta_h, u = 1 - eta_h, z = 1 - (1-d) e^(-x) and t = (1-d) e^(-x) x/z,
    a Poisson base has E = m + t, G = m (m + (1+u) t)/E^2 and
        V = m + t [d e^(-x) - (e^(-x) - 1 + x)]/z;
    with b = 1 + x, P = d + x and R = eta_h + x (2+x) + d u, a thermal one has
    E = m R/(b P), G = 2 P [x (3 + 3x + x^2) + eta_h (1+u) + d u^2]/R^2 and
        V = m (1+m) [x^2 (b^2+u) + d eta_h (1 + x^2 + 2m (1+b^2)) + d^2 u]/(b P)^2.
    Only the Poisson V subtracts, never more than half of m, and takes
    e^(-x) - 1 + x from its Taylor series at small x; x/z is carried whole,
    so the moments stay finite at a subnormal x.
    """
    return _moments(_describe(stat, params, filt), params)


def _moments(desc: tuple, params: SourceParams) -> MomentSummary:
    """:func:`moments_closed_form` of a described configuration."""
    base, m, d, lam = desc
    eta_h, eta_s = params.eta_h, params.eta_s
    x = m * eta_h
    _check_heraldable(d, x)
    if base is _POISSON:
        miss, w = math.exp(-x), -math.expm1(-x)
        z = d + (1.0 - d) * w
        t = (1.0 - d) * miss * (x / z)
        # e^(-x) - 1 + x = x - w, by its Taylor series while x - w cancels
        gap = x - w if x > 0.125 else x * x * (
            1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x * (1 / 720 - x * (1 / 5040 - x * (
                1 / 40320 - x * (1 / 362880 - x * (1 / 3628800 - x / 39916800)))))))))
        e_n, v_n = m + t, m + t * (d * miss - gap) / z
        g_n = m / e_n * ((m + (2.0 - eta_h) * t) / e_n) if m > 0.0 else 0.0   # unused at m = 0
    else:
        u, b, p = 1.0 - eta_h, 1.0 + x, d + x
        r, k = eta_h + x * (2.0 + x) + d * u, m / (b * p)
        e_n = k * r
        # grouped so that k ~ 1/eta_h at d = 0 scales each small factor back
        # before it underflows or its product overflows
        v_n = (1.0 + m) * (k * (m * eta_h * (eta_h * k) * (b * b + u) + d / (b * p) * (
            eta_h * (1.0 + x * x + 2.0 * m * (1.0 + b * b)) + d * u)))
        if not math.isfinite(e_n + v_n):
            raise SeriesOverflowError(f"moments leave double range at mean {m!r}")
        g_n = 2.0 * (p / r) * ((x * (3.0 + x * (3.0 + x)) + eta_h * (1.0 + u) + d * u * u) / r)
    mean = eta_s * e_n + lam
    var = eta_s * ((1.0 - eta_s) * e_n + eta_s * v_n) + lam
    if mean == 0.0:
        return MomentSummary(mean, var, None, None)
    if lam > 0.0:
        kept, extra = eta_s * e_n / mean, lam / mean
        g_n = kept * kept * g_n + extra * (2.0 * kept + extra)
    return MomentSummary(mean, var, var / mean, g_n)


def moments_from_pmf(pmf: Pmf) -> MomentSummary:
    """Moments of a truncated pmf by direct summation of n p(n) and
    n(n-1) p(n); g2 is None where <n>^2 underflows to 0."""
    mean = math.fsum(n * p for n, p in enumerate(pmf.probs))
    fact2 = math.fsum(n * (n - 1) * p for n, p in enumerate(pmf.probs))
    var = max(fact2 + mean - mean * mean, 0.0)
    if mean == 0.0:
        return MomentSummary(mean, var, None, None)
    g2 = fact2 / (mean * mean) if mean * mean > 0.0 else None
    return MomentSummary(mean, var, var / mean, g2)


def asymptotic_tail_check(params: SourceParams, f: float, n: int) -> tuple[float, float]:
    """Exact herald-filtered p(n) next to its extraneous-photon-dominated
    approximation, a rescaled Poisson term in the extraneous mean
    mu*eta_s*(1-f).  In regimes where extraneous photons dominate the
    multi-photon tail the approximation captures its n-dependence."""
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    desc = _describe(PairStatistics.POISSON, params, FilterSpec(FilterBranch.HERALD, f))
    _, m, _, lam = desc
    sup, terms, _ = _factor(desc, params)
    exact = next(itertools.islice(terms(), n, None))
    asym = sup / (1.0 + m * params.eta_s) * _pair_law(_POISSON, lam)[0](n)
    return exact, asym

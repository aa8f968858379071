"""Closed-form photon-number statistics of a heralded single-photon source.

The source emits N photon pairs per time bin (Poisson or thermal law with
mean mu).  Each branch is a compound loss modeled as a single beam splitter,
so a population of N photons survives as a Binomial(N, eta) count.  The
herald is a threshold click: it fires when at least one heralding photon is
detected or a dark count occurs.  Conditioning the signal-branch count on
that click multiplies the unconditioned law by a correcting factor xi(n);
this module evaluates every such factor exactly, together with a direct
series evaluation of the defining conditional sum and a convolution oracle
for the mode-filtered source, so each closed form can be cross-checked
against an independent route.

All functions are pure and safe for concurrent use.
"""

import math
from enum import Enum

from .errors import (
    NoHeraldError,
    PerfectHeraldError,
    SeriesOverflowError,
    UndefinedMomentError,
    ValidationError,
)
from .model import (
    NO_FILTER,
    FilterBranch,
    FilterSpec,
    MomentSummary,
    PairStatistics,
    Pmf,
    SourceParams,
)

__all__ = [
    "XiKind",
    "xi_kind_for",
    "binomial_loss",
    "herald_prob",
    "input_pmf",
    "laguerre",
    "exp_partial_sum",
    "effective_dark_count",
    "xi",
    "xi_limit",
    "herald_gain_ratio",
    "conditional_pmf_series",
    "signal_pmf",
    "unconditioned_pmf",
    "herald_click_probability",
    "herald_filter_convolution_oracle",
    "moments_closed_form",
    "moments_from_pmf",
    "g2_from_pmf",
    "asymptotic_tail_check",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-12

# Requested tail tolerances below this cannot be honored in double precision
# (the builders account mass by floating-point summation).
MIN_TOL = 1e-13

LAGUERRE_MAX_ORDER = 500


class XiKind(Enum):
    """Which correcting factor applies to a configuration."""

    POISSON_UNFILTERED = "xi_p"
    THERMAL_UNFILTERED = "xi_t"
    SIGNAL_FILTERED = "xi_s"
    HERALD_FILTERED = "xi_h"


def xi_kind_for(stat: PairStatistics, filt: FilterSpec) -> XiKind:
    """Correcting-factor kind uniquely determined by (statistics, filter)."""
    if filt.branch is FilterBranch.NONE:
        if stat is PairStatistics.POISSON:
            return XiKind.POISSON_UNFILTERED
        return XiKind.THERMAL_UNFILTERED
    if stat is not PairStatistics.POISSON:
        raise ValidationError(
            "a mode filter requires Poisson pair statistics; the kept mode is "
            "then thermal and the remainder Poisson"
        )
    if filt.branch is FilterBranch.SIGNAL:
        return XiKind.SIGNAL_FILTERED
    return XiKind.HERALD_FILTERED


def _oms(x: float, d_h: float) -> float:
    """1 - (1-d_h)*exp(-x) for x >= 0, evaluated without cancellation."""
    return d_h + (1.0 - d_h) * (-math.expm1(-x))


def binomial_loss(N: int, n: int, eta: float) -> float:
    """Probability that n of N photons survive a transmission eta."""
    if N < 0 or n < 0 or n > N:
        raise ValidationError(f"need 0 <= n <= N, got N={N}, n={n}")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta!r}")
    return math.comb(N, n) * eta**n * (1.0 - eta) ** (N - n)


def herald_prob(N: int, params: SourceParams) -> float:
    """Probability that the detector clicks given N pairs in the bin:
    1 - (1-d_h)(1-eta_h)^N.  Monotone non-decreasing in N."""
    if N < 0:
        raise ValidationError(f"pair count must be >= 0, got {N}")
    if N == 0:
        return params.d_h
    if params.eta_h == 1.0:
        return 1.0
    return _oms(-N * math.log1p(-params.eta_h), params.d_h)


def input_pmf(stat: PairStatistics, mu: float, N: int) -> float:
    """Pair-number law of the unfiltered source: Poisson or thermal."""
    if N < 0:
        raise ValidationError(f"pair count must be >= 0, got {N}")
    if mu < 0.0:
        raise ValidationError(f"mu must be >= 0, got {mu!r}")
    if mu == 0.0:
        return 1.0 if N == 0 else 0.0
    if stat is PairStatistics.POISSON:
        if N <= 32 and mu <= 32.0:
            return math.exp(-mu) * mu**N / math.factorial(N)
        return math.exp(N * math.log(mu) - mu - math.lgamma(N + 1))
    return (mu / (1.0 + mu)) ** N / (1.0 + mu)


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial of order n.

    For x <= 0 every term of the defining sum is positive, so the sum is
    evaluated directly (no cancellation); elsewhere the three-term
    recurrence is used.  Orders above 500 are refused and intermediate
    overflow raises with the order reached.
    """
    if n < 0:
        raise ValidationError(f"order must be >= 0, got {n}")
    if n > LAGUERRE_MAX_ORDER:
        raise SeriesOverflowError(
            f"Laguerre order {n} exceeds the supported maximum "
            f"{LAGUERRE_MAX_ORDER}", order=n,
        )
    if not math.isfinite(x):
        raise ValidationError(f"argument must be finite, got {x!r}")
    if x <= 0.0:
        term = 1.0
        total = 1.0
        for k in range(1, n + 1):
            term *= -x * (n - k + 1) / (k * k)
            total += term
            if not math.isfinite(total):
                raise SeriesOverflowError(
                    f"Laguerre sum overflowed at term {k} (order {n}, x={x!r})",
                    order=k,
                )
        return total
    prev, cur = 1.0, 1.0 - x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        if not math.isfinite(cur):
            raise SeriesOverflowError(
                f"Laguerre recurrence overflowed at order {k + 1} (x={x!r})",
                order=k + 1,
            )
    return cur


def exp_partial_sum(n: int, x: float) -> float:
    """Truncated exponential series sum_{k=0..n} x^k / k! for x >= 0."""
    if n < 0:
        raise ValidationError(f"order must be >= 0, got {n}")
    if not math.isfinite(x) or x < 0.0:
        raise ValidationError(f"argument must be finite and >= 0, got {x!r}")
    term = 1.0
    total = 1.0
    for k in range(1, n + 1):
        term *= x / k
        total += term
        if not math.isfinite(total):
            raise SeriesOverflowError(
                f"series overflowed at term {k} (order {n}, x={x!r})", order=k,
            )
    return total


def effective_dark_count(params: SourceParams, f: float) -> float:
    """Dark-count probability as inflated by a signal-branch filter.

    Extraneous heralding photons (twins of filtered-out signal photons) act
    as extra detector noise: nu_h = 1 - (1-d_h)*exp(-mu*eta_h*(1-f)).
    Always >= d_h, with equality iff f = 1 or mu*eta_h = 0.
    """
    if not 0.0 < f <= 1.0:
        raise ValidationError(f"mode fraction f must lie in (0, 1], got {f!r}")
    return _oms(params.mu * params.eta_h * (1.0 - f), params.d_h)


def _check_heraldable(d_h: float, rate: float):
    """Raise when the herald can never fire (zero click probability)."""
    if d_h == 0.0 and rate == 0.0:
        raise NoHeraldError(
            "herald can never fire: dark counts are zero and mu*eta_h = 0"
        )


def _log_q(eta_h: float) -> float:
    """-log(1 - eta_h), +inf at eta_h = 1."""
    return math.inf if eta_h == 1.0 else -math.log1p(-eta_h)


def _xi_poisson(n: int, p: SourceParams) -> float:
    _check_heraldable(p.d_h, p.mu * p.eta_h)
    lq = _log_q(p.eta_h)
    x = p.mu * p.eta_h * (1.0 - p.eta_s) + (n * lq if n else 0.0)
    return _oms(x, p.d_h) / _oms(p.mu * p.eta_h, p.d_h)


def _log_ratio(mu: float, eta_h: float, eta_s: float) -> float:
    """log[(1 + mu(eta_s+eta_h-eta_s*eta_h)) / (1 + mu*eta_s)] at full
    precision: the two arguments differ by exactly mu*eta_h*(1-eta_s)."""
    return math.log1p(mu * eta_h * (1.0 - eta_s) / (1.0 + mu * eta_s))


def _xi_thermal_core(n: int, mu: float, eta_h: float, eta_s: float, dark: float) -> float:
    """Thermal-source correcting factor; also serves the signal-filtered
    case through the substitutions mu -> mu*f, dark -> nu_h."""
    _check_heraldable(dark, mu * eta_h)
    lq = _log_q(eta_h)
    x = (n + 1) * _log_ratio(mu, eta_h, eta_s) + (n * lq if n else 0.0)
    return (1.0 + mu * eta_h) / (dark + mu * eta_h) * _oms(x, dark)


def _xi_herald_filtered(n: int, p: SourceParams, f: float) -> float:
    """Herald-branch-filtered correcting factor.

    Sum over k = number of signal photons contributed by the filtered-out
    (extraneous, Poisson) population; the remaining n-k photons come from
    the kept thermal mode whose herald weight carries the k-independent
    structure of the unfiltered thermal factor.  Written this way every
    term is positive, so the evaluation is cancellation-free, reduces
    bit-exactly to the thermal factor at f = 1, and the eta_h = 1 limit
    needs no special casing (the would-be singular factor is absorbed
    term by term).
    """
    mu, eta_h, eta_s, d_h = p.mu, p.eta_h, p.eta_s, p.d_h
    muf = mu * f
    _check_heraldable(d_h, muf * eta_h)
    s = muf * eta_s
    lam = mu * eta_s * (1.0 - f)
    y = (1.0 - f) * (1.0 + s) / f
    l_ratio = _log_ratio(muf, eta_h, eta_s)
    lq = _log_q(eta_h)

    term = 1.0
    total = 0.0
    for k in range(n + 1):
        if k:
            term *= y / k
            if not math.isfinite(term):
                raise SeriesOverflowError(
                    f"herald-filter series overflowed at term {k} "
                    f"(n={n}, f={f!r})", order=k,
                )
        m = n - k
        x = (m + 1) * l_ratio + (m * lq if m else 0.0)
        total += term * _oms(x, d_h)
    pref = (1.0 + muf * eta_h) / (d_h + muf * eta_h)
    return pref * math.exp(-lam) * total


def xi(kind: XiKind, n: int, params: SourceParams, filt: FilterSpec = NO_FILTER) -> float:
    """Correcting factor xi(n): heralded probability over unconditioned
    probability of n signal photons, for the given configuration kind."""
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    if kind in (XiKind.POISSON_UNFILTERED, XiKind.THERMAL_UNFILTERED):
        if filt.branch is not FilterBranch.NONE:
            raise ValidationError(f"{kind.name} is incompatible with a {filt.branch.value} filter")
        if kind is XiKind.POISSON_UNFILTERED:
            return _xi_poisson(n, params)
        return _xi_thermal_core(n, params.mu, params.eta_h, params.eta_s, params.d_h)
    if kind is XiKind.SIGNAL_FILTERED:
        if filt.branch is not FilterBranch.SIGNAL:
            raise ValidationError("SIGNAL_FILTERED requires a signal-branch filter")
        nu_h = effective_dark_count(params, filt.f)
        return _xi_thermal_core(n, params.mu * filt.f, params.eta_h, params.eta_s, nu_h)
    if filt.branch is not FilterBranch.HERALD:
        raise ValidationError("HERALD_FILTERED requires a herald-branch filter")
    return _xi_herald_filtered(n, params, filt.f)


def xi_limit(kind: XiKind, params: SourceParams) -> float:
    """Large-n limit of the unfiltered correcting factors."""
    _check_heraldable(params.d_h, params.mu * params.eta_h)
    if kind is XiKind.POISSON_UNFILTERED:
        return 1.0 / _oms(params.mu * params.eta_h, params.d_h)
    if kind is XiKind.THERMAL_UNFILTERED:
        return (1.0 + params.mu * params.eta_h) / (params.d_h + params.mu * params.eta_h)
    raise ValidationError(f"no finite large-n limit is defined for {kind.name}")


def herald_gain_ratio(stat: PairStatistics, params: SourceParams) -> float:
    """xi(1)/xi(0): the factor by which heralding boosts one photon over
    vacuum.  Tends to 1 - eta_h + eta_h/d_h as mu -> 0 for both laws."""
    kind = xi_kind_for(stat, NO_FILTER)
    xi0 = xi(kind, 0, params)
    if xi0 == 0.0:
        raise PerfectHeraldError(
            "xi(0) = 0 (perfect herald eliminates vacuum); the gain is infinite"
        )
    return xi(kind, 1, params) / xi0


def _poisson_tail_bound(a: float, n: int) -> float:
    """Upper bound on P(X > n) for X ~ Poisson(a)."""
    if a == 0.0:
        return 0.0
    if a >= n + 2:
        return 1.0
    # geometric domination of successive terms beyond n+1
    head = math.exp((n + 1) * math.log(a) - a - math.lgamma(n + 2))
    return head / (1.0 - a / (n + 2))


def _thermal_tail(q: float, n: int) -> float:
    """Exact P(X > n) for a thermal law with term ratio q = a/(1+a)."""
    return q ** (n + 1)


def _thin(weights: list, eta: float) -> list:
    """sum_N w[N] Binomial(N, eta) as a vector over survivors: the generating
    function sum_N w[N] (1-eta + eta*z)^N in Horner form.  Every step is a
    positive combination of positive floats, so nothing cancels or
    overflows and no binomial coefficient is formed."""
    lose = 1.0 - eta
    poly = [weights[-1]]
    for w in reversed(weights[:-1]):
        poly = [lose * a + eta * b for a, b in zip(poly + [0.0], [0.0] + poly)]
        poly[0] += w
    return poly


def _cut(probs: list, keep_tol: float, reserve: float) -> Pmf:
    """Oracle pmf cut where the remaining mass first drops to keep_tol; the
    tail bound is the summed deficit plus reserve."""
    cum = 0.0
    for n, p in enumerate(probs):
        cum += p
        if 1.0 - cum <= keep_tol:
            probs = probs[: n + 1]
            break
    return Pmf(tuple(probs), max(1.0 - math.fsum(probs), 0.0) + reserve)


def conditional_pmf_series(
    stat: PairStatistics, params: SourceParams, tol: float = DEFAULT_TOL
) -> Pmf:
    """Signal-count pmf conditioned on a herald, by direct summation.

    Evaluates numerator(n) = sum_{N>=n} C(N,n) P_in(N) H(N) eta_s^n
    (1-eta_s)^(N-n) by Horner thinning of the herald-weighted pair law
    (:func:`_thin`) and normalizes by sum_N P_in(N) H(N), truncating the
    pair sum once the remaining input mass cannot move any term by more
    than tol/10.  This is the oracle route: it never touches the closed
    forms.
    """
    if not tol >= MIN_TOL:
        raise ValidationError(f"tolerance must be >= {MIN_TOL}, got {tol!r}")
    _check_heraldable(params.d_h, params.mu * params.eta_h)
    mu, eta_s = params.mu, params.eta_s
    q_in = mu / (1.0 + mu)

    weights = []
    denom = 0.0
    N = 0
    while True:
        w = input_pmf(stat, mu, N) * herald_prob(N, params)
        weights.append(w)
        denom += w
        if stat is PairStatistics.POISSON:
            in_tail = _poisson_tail_bound(mu, N)
        else:
            in_tail = _thermal_tail(q_in, N)
        if N >= 8 and denom > 0.0 and in_tail <= 0.1 * tol * denom:
            break
        N += 1
        if N > 100_000:
            raise SeriesOverflowError(
                f"pair sum failed to converge within 100000 terms (mu={mu!r})",
                order=N,
            )

    return _cut([x / denom for x in _thin(weights, eta_s)], 0.9 * tol, 0.1 * tol)


def _poisson_pmf(a: float, n: int) -> float:
    if a == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= 32 and a <= 32.0:
        return math.exp(-a) * a**n / math.factorial(n)
    return math.exp(n * math.log(a) - a - math.lgamma(n + 1))


def _thermal_pmf(a: float, n: int) -> float:
    return (a / (1.0 + a)) ** n / (1.0 + a)


def signal_pmf(
    stat: PairStatistics,
    params: SourceParams,
    filt: FilterSpec = NO_FILTER,
    tol: float = DEFAULT_TOL,
) -> Pmf:
    """Exact heralded signal pmf from the closed forms: base law times the
    matching correcting factor, truncated so the stored tail_bound <= tol."""
    if not tol >= MIN_TOL:
        raise ValidationError(f"tolerance must be >= {MIN_TOL}, got {tol!r}")
    kind = xi_kind_for(stat, filt)
    mu, eta_h, eta_s, d_h = params.mu, params.eta_h, params.eta_s, params.d_h

    if kind is XiKind.POISSON_UNFILTERED:
        a = mu * eta_s
        sup = xi_limit(kind, params)
        base = lambda n: _poisson_pmf(a, n)
        tail = lambda n: sup * _poisson_tail_bound(a, n)
    elif kind is XiKind.THERMAL_UNFILTERED:
        a = mu * eta_s
        sup = xi_limit(kind, params)
        base = lambda n: _thermal_pmf(a, n)
        tail = lambda n: sup * _thermal_tail(a / (1.0 + a), n)
    elif kind is XiKind.SIGNAL_FILTERED:
        a = mu * filt.f * eta_s
        nu_h = effective_dark_count(params, filt.f)
        _check_heraldable(nu_h, mu * filt.f * eta_h)
        sup = (1.0 + mu * filt.f * eta_h) / (nu_h + mu * filt.f * eta_h)
        base = lambda n: _thermal_pmf(a, n)
        tail = lambda n: sup * _thermal_tail(a / (1.0 + a), n)
    else:
        a = mu * filt.f * eta_s
        _check_heraldable(d_h, mu * filt.f * eta_h)
        lam = mu * eta_s * (1.0 - filt.f)
        p_h = (d_h + mu * filt.f * eta_h) / (1.0 + mu * filt.f * eta_h)
        q = a / (1.0 + a)

        def tail(n, lam=lam, p_h=p_h, q=q):
            # count > n forces the kept-mode part > n//2 or the extraneous
            # part > n - n//2; both tails have analytic bounds
            m = n // 2
            return (_thermal_tail(q, m) + _poisson_tail_bound(lam, n - m)) / p_h

        base = lambda n: _thermal_pmf(a, n)

    probs = []
    bound = math.inf
    n = 0
    while True:
        probs.append(base(n) * xi(kind, n, params, filt))
        bound = tail(n)
        if bound <= 0.9 * tol:
            break
        n += 1
        if n > 100_000:
            raise SeriesOverflowError(
                "pmf truncation failed to converge within 100000 terms", order=n
            )
    return Pmf(tuple(probs), bound + 0.1 * tol)


def unconditioned_pmf(
    stat: PairStatistics, params: SourceParams, filt: FilterSpec = NO_FILTER, n: int = 0
) -> float:
    """Signal-count law at n without herald conditioning: the base
    distribution that the correcting factor xi multiplies."""
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    kind = xi_kind_for(stat, filt)
    if kind is XiKind.POISSON_UNFILTERED:
        return _poisson_pmf(params.mu * params.eta_s, n)
    if kind is XiKind.THERMAL_UNFILTERED:
        return _thermal_pmf(params.mu * params.eta_s, n)
    return _thermal_pmf(params.mu * filt.f * params.eta_s, n)


def herald_click_probability(
    stat: PairStatistics, params: SourceParams, filt: FilterSpec = NO_FILTER
) -> float:
    """Closed form of the herald rate sum_N P_in(N) H(N) (the normalizer of
    the conditional law), for any supported configuration."""
    mu, eta_h, d_h = params.mu, params.eta_h, params.d_h
    kind = xi_kind_for(stat, filt)
    if kind is XiKind.POISSON_UNFILTERED:
        return _oms(mu * eta_h, d_h)
    if kind is XiKind.THERMAL_UNFILTERED:
        return (d_h + mu * eta_h) / (1.0 + mu * eta_h)
    muf = mu * filt.f
    if kind is XiKind.HERALD_FILTERED:
        return (d_h + muf * eta_h) / (1.0 + muf * eta_h)
    nu_h = effective_dark_count(params, filt.f)
    return (nu_h + muf * eta_h) / (1.0 + muf * eta_h)


def herald_filter_convolution_oracle(
    params: SourceParams, f: float, tol: float = DEFAULT_TOL
) -> Pmf:
    """Herald-branch-filtered pmf by direct series and convolution.

    The kept mode is thermal with mean mu*f and alone drives the herald
    (extraneous heralding photons are filtered out before the detector);
    the extraneous signal photons are Poisson with mean mu*(1-f).  Both
    populations are thinned by eta_s through their binomial sums in Horner
    form (:func:`_thin`), convolved, and normalized by the summed herald
    probability.  Entirely independent of the closed-form correcting
    factors.
    """
    if not tol >= MIN_TOL:
        raise ValidationError(f"tolerance must be >= {MIN_TOL}, got {tol!r}")
    if not 0.0 < f <= 1.0:
        raise ValidationError(f"mode fraction f must lie in (0, 1], got {f!r}")
    mu, eta_s, d_h = params.mu, params.eta_s, params.d_h
    muf = mu * f
    _check_heraldable(d_h, muf * params.eta_h)
    q_kept = muf / (1.0 + muf)
    mu_ex = mu * (1.0 - f)
    inner = 0.05 * tol

    # herald-weighted kept-mode pair weights, truncated by the exact
    # thermal tail relative to the accumulating herald probability
    kept_w = []
    p_h = 0.0
    N = 0
    while True:
        w = _thermal_pmf(muf, N) * herald_prob(N, params)
        kept_w.append(w)
        p_h += w
        if N >= 8 and p_h > 0.0 and _thermal_tail(q_kept, N) <= inner * p_h:
            break
        N += 1
        if N > 100_000:
            raise SeriesOverflowError("kept-mode sum failed to converge", order=N)

    ex_w = []
    N = 0
    while True:
        ex_w.append(_poisson_pmf(mu_ex, N))
        if N >= 8 and _poisson_tail_bound(mu_ex, N) <= inner:
            break
        N += 1
        if N > 100_000:
            raise SeriesOverflowError("extraneous sum failed to converge", order=N)

    p1 = _thin(kept_w, eta_s)     # unnormalized: includes the herald weight
    p2 = _thin(ex_w, eta_s)

    probs = [0.0] * (len(p1) + len(p2) - 1)
    for k, a in enumerate(p1):
        if a == 0.0:
            continue
        for j, b in enumerate(p2):
            probs[k + j] += a * b
    return _cut([x / p_h for x in probs], 0.7 * tol, 0.3 * tol)


def moments_closed_form(params: SourceParams) -> MomentSummary:
    """Mean, variance, Fano ratio and g2 of the heralded signal count for a
    Poisson pair source without filtering.

    gamma is the odds of no click against a click:
        gamma = (1-d_h) e^(-mu*eta_h) / [1 - (1-d_h) e^(-mu*eta_h)]
        <n>   = mu*eta_s (1 + gamma*eta_h)
        var   = mu*eta_s {1 + gamma*eta_h [1 - mu*eta_s*eta_h (1+gamma)]}
    """
    mu, eta_h, eta_s, d_h = params.mu, params.eta_h, params.eta_s, params.d_h
    _check_heraldable(d_h, mu * eta_h)
    z = _oms(mu * eta_h, d_h)
    gamma = (1.0 - d_h) * math.exp(-mu * eta_h) / z
    mean = mu * eta_s * (1.0 + gamma * eta_h)
    var = mu * eta_s * (1.0 + gamma * eta_h * (1.0 - mu * eta_s * eta_h * (1.0 + gamma)))
    var = max(var, 0.0)
    if mean > 0.0:
        fano = var / mean
        g2 = 1.0 + (var - mean) / (mean * mean)
    else:
        fano = None
        g2 = None
    return MomentSummary(mean, var, fano, g2)


def moments_from_pmf(pmf: Pmf) -> MomentSummary:
    """Moments of a truncated pmf by direct summation."""
    mean = math.fsum(n * p for n, p in enumerate(pmf.probs))
    m2 = math.fsum(n * n * p for n, p in enumerate(pmf.probs))
    var = max(m2 - mean * mean, 0.0)
    if mean > 0.0:
        fano = var / mean
        g2 = (m2 - mean) / (mean * mean)
    else:
        fano = None
        g2 = None
    return MomentSummary(mean, var, fano, g2)


def g2_from_pmf(pmf: Pmf) -> float:
    """Zero-delay second-order correlation <n(n-1)>/<n>^2 of a pmf."""
    mean = math.fsum(n * p for n, p in enumerate(pmf.probs))
    if mean <= 0.0:
        raise UndefinedMomentError("g2 is undefined for a zero-mean distribution")
    fact2 = math.fsum(n * (n - 1) * p for n, p in enumerate(pmf.probs))
    return fact2 / (mean * mean)


def asymptotic_tail_check(params: SourceParams, f: float, n: int) -> tuple[float, float]:
    """Exact herald-filtered p(n) next to its extraneous-photon-dominated
    approximation, a rescaled Poisson term in the extraneous mean
    mu*eta_s*(1-f).  In regimes where extraneous photons dominate the
    multi-photon tail the approximation captures its n-dependence."""
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    filt = FilterSpec(FilterBranch.HERALD, f)
    a = params.mu * filt.f * params.eta_s
    exact = _thermal_pmf(a, n) * xi(XiKind.HERALD_FILTERED, n, params, filt)
    muf = params.mu * filt.f
    lam = params.mu * params.eta_s * (1.0 - filt.f)
    pref = (1.0 + muf * params.eta_h) / (
        (1.0 + muf * params.eta_s) * (params.d_h + muf * params.eta_h)
    )
    asym = pref * math.exp(-lam) * (lam**n if n else 1.0) / math.factorial(n)
    return exact, asym

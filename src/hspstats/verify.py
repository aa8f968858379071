"""Cross-validation matrix: closed forms vs. series, convolution, and MC.

Every closed-form pmf in this package has at least one independent route:
the direct conditional series, the filtered-source convolution, a
substituted series for the signal-filtered case, and the Monte Carlo
simulation.  ``run_verification`` exercises all of them over randomized
configurations and returns one report row per check.

A closed form is a pure function of its configuration's description
(``analytic._describe``) and a series oracle of its pair law and
parameters.  At f = 1 both filtered descriptions equal the thermal one and
the substituted series takes the thermal parameters, so within one
configuration each distinct description or oracle input is evaluated once
and an equal one reuses the result: the reported deviations are the ones a
repeated evaluation would give.  The convolution oracle runs on its own
inputs every time, and nothing is kept from one configuration to the next.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import ValidationError
from .model import FilterBranch, FilterSpec, NO_FILTER, PairStatistics, SourceParams
from .montecarlo import McConfig, simulate

__all__ = []

# (number of random box configurations, Monte Carlo trials per MC check)
MATRIX_SIZES = {
    "tiny": (12, 100_000),
    "default": (200, 400_000),
}

# sampling seed of the library calls and of the ``verify`` command
DEFAULT_SEED = 20260809

# parameter box for randomized configurations
BOX_MU = (1e-4, 1.0)
BOX_ETA = (0.05, 1.0)
BOX_DH = (0.0, 1e-2)
BOX_F = (0.05, 1.0)

SERIES_TOL = 1e-10          # per-term, closed form vs. independent series
REDUCTION_TOL = 1e-12       # f = 1 reduction of the filtered factors
MOMENT_TOL = 1e-9           # relative, closed moments vs. pmf moments
MC_TOL = 1.0                # deviations in units of 5 sigma
MC_PROB_FLOOR = 1e-6        # bins of smaller analytic probability are not compared


@dataclass(frozen=True)
class CheckResult:
    check: str
    cases: int
    max_deviation: float
    tolerance: float
    passed: bool


def sample_configurations(count: int, seed: int = DEFAULT_SEED) -> list:
    """Random (params, f) draws from the validated parameter box.

    mu and nonzero d_h are log-uniform; one draw in five pins d_h = 0 and,
    independently, f = 1, so the boundary cases stay exercised.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mu = math.exp(rng.uniform(math.log(BOX_MU[0]), math.log(BOX_MU[1])))
        eta_h = rng.uniform(*BOX_ETA)
        eta_s = rng.uniform(*BOX_ETA)
        if rng.random() < 0.2:
            d_h = 0.0
        else:
            d_h = math.exp(rng.uniform(math.log(1e-6), math.log(BOX_DH[1])))
        f = 1.0 if rng.random() < 0.2 else rng.uniform(*BOX_F)
        out.append((SourceParams(mu, eta_h, eta_s, d_h), float(f)))
    return out


def _max_term_deviation(pmf_a, pmf_b) -> float:
    pairs = itertools.zip_longest(pmf_a.probs, pmf_b.probs, fillvalue=0.0)
    return max(abs(a - b) for a, b in pairs)


def _series_pairs(params: SourceParams, f: float, tol: float) -> dict:
    """(closed form, independent route) of each series check at one
    configuration.  Each closed form is evaluated once per description and
    each series once per input; an equal one reuses the result."""
    closed_memo, series_memo = {}, {}

    def closed(stat, filt):
        desc = analytic._describe(stat, params, filt)
        if desc not in closed_memo:
            closed_memo[desc] = analytic.signal_pmf(stat, params, filt, tol)
        return closed_memo[desc]

    def series(stat, point):
        if (stat, point) not in series_memo:
            series_memo[stat, point] = analytic.conditional_pmf_series(stat, point, tol)
        return series_memo[stat, point]

    sig, her = FilterSpec(FilterBranch.SIGNAL, f), FilterSpec(FilterBranch.HERALD, f)
    # signal filter: the kept mode is a thermal source of mean mu*f heralded
    # against nu_h, the dark rate inflated by the twins of the filtered
    # photons, stated here in the closed form's operation order (d_h at f = 1)
    nu_h = params.d_h + (1.0 - params.d_h) * -math.expm1(-params.mu * params.eta_h * (1.0 - f))
    sub = SourceParams(params.mu * f, params.eta_h, params.eta_s, nu_h)
    return {
        "poisson_closed_vs_series": (
            closed(PairStatistics.POISSON, NO_FILTER), series(PairStatistics.POISSON, params)),
        "thermal_closed_vs_series": (
            closed(PairStatistics.THERMAL, NO_FILTER), series(PairStatistics.THERMAL, params)),
        "signal_filtered_vs_substituted_series": (
            closed(PairStatistics.POISSON, sig), series(PairStatistics.THERMAL, sub)),
        "herald_filtered_vs_convolution": (
            closed(PairStatistics.POISSON, her),
            analytic.herald_filter_convolution_oracle(params, f, tol)),
    }


def _series_checks(configs) -> dict:
    """Worst per-term deviation of each closed form from its independent route."""
    worst = {}
    for params, f in configs:
        for name, (closed, route) in _series_pairs(params, f, 1e-12).items():
            worst[name] = max(worst.get(name, 0.0), _max_term_deviation(closed, route))
    return worst


def _reduction_check(configs) -> float:
    """xi_s and xi_h at f = 1 against xi_t, n = 0..50, scale-aware.

    xi is a pure function of the description, so a filtered description
    equal to the thermal one deviates by exactly 0 and is not evaluated;
    only a differing one (a fault in ``analytic._describe``) is compared,
    against the thermal xi, computed at most once per configuration.
    """
    worst = 0.0
    for params, _ in configs:
        if params.d_h == 0.0 and params.mu * params.eta_h == 0.0:
            continue
        thermal = analytic._describe(PairStatistics.THERMAL, params, NO_FILTER)
        refs = None
        for branch in (FilterBranch.SIGNAL, FilterBranch.HERALD):
            filt = FilterSpec(branch, 1.0)
            if analytic._describe(PairStatistics.POISSON, params, filt) == thermal:
                continue
            refs = refs or analytic.xi_values(PairStatistics.THERMAL, params, NO_FILTER, 50)
            for ref, x in zip(refs, analytic.xi_values(PairStatistics.POISSON, params, filt, 50)):
                worst = max(worst, abs(x - ref) / max(1.0, abs(ref)))
    return worst


def _moment_check(configs) -> float:
    worst = 0.0
    for params, _ in configs:
        closed = analytic.moments_closed_form(params)
        pmf = analytic.signal_pmf(PairStatistics.POISSON, params, NO_FILTER, 1e-13)
        direct = analytic.moments_from_pmf(pmf)
        scale_m = max(abs(closed.mean), 1e-300)
        scale_v = max(abs(closed.variance), 1e-300)
        worst = max(
            worst,
            abs(closed.mean - direct.mean) / scale_m,
            abs(closed.variance - direct.variance) / scale_v,
        )
    return worst


def mc_acceptance_matrix() -> list:
    """Canonical configurations exercised end-to-end by the simulator."""
    return [
        ("poisson_baseline", PairStatistics.POISSON,
         SourceParams(0.01, 0.5, 0.5, 1e-4), NO_FILTER),
        ("thermal_baseline", PairStatistics.THERMAL,
         SourceParams(0.05, 0.4, 0.6, 1e-3), NO_FILTER),
        ("dark_dominated", PairStatistics.POISSON,
         SourceParams(1e-3, 0.3, 0.7, 5e-3), NO_FILTER),
        ("bright_source", PairStatistics.POISSON,
         SourceParams(0.5, 0.9, 0.8, 1e-4), NO_FILTER),
        ("signal_filtered", PairStatistics.POISSON,
         SourceParams(0.01, 0.5, 0.5, 1e-4), FilterSpec(FilterBranch.SIGNAL, 0.1)),
        ("herald_filtered", PairStatistics.POISSON,
         SourceParams(0.01, 0.5, 0.5, 1e-4), FilterSpec(FilterBranch.HERALD, 0.1)),
    ]


def mc_deviation(
    est,
    stat: PairStatistics,
    params: SourceParams,
    filt: FilterSpec = NO_FILTER,
) -> float:
    """Worst bin deviation of an estimate from the closed form, in units of
    five binomial standard deviations of the analytic probability."""
    pmf = analytic.signal_pmf(stat, params, filt)
    worst = 0.0
    for n in range(len(est.pmf_hat) - 1):      # cap bin excluded: clamped mass
        p = pmf.prob(n)
        if p < MC_PROB_FLOOR:
            continue
        sigma = math.sqrt(p * (1.0 - p) / est.heralded)
        worst = max(worst, abs(est.pmf_hat[n] - p) / (5.0 * sigma))
    return worst


def _mc_checks(trials: int, seed: int) -> dict:
    worst_pmf = 0.0
    worst_rate = 0.0
    for i, (name, stat, params, filt) in enumerate(mc_acceptance_matrix()):
        est = simulate(McConfig(params=params, stat=stat, filt=filt, trials=trials, seed=seed + i))
        worst_pmf = max(worst_pmf, mc_deviation(est, stat, params, filt))
        rate = analytic.herald_click_probability(stat, params, filt)
        sigma = math.sqrt(rate * (1.0 - rate) / trials)
        worst_rate = max(worst_rate, abs(est.herald_rate - rate) / (5.0 * sigma))
    return {"mc_vs_closed_pmf": worst_pmf, "mc_herald_rate_vs_closed": worst_rate}


def run_verification(
    matrix: str = "default",
    tolerance: float | None = None,
    trials: int | None = None,
    seed: int = DEFAULT_SEED,
    with_mc: bool = True,
) -> list:
    """Run every cross-check and return a list of :class:`CheckResult`.

    ``tolerance``, when given, overrides the default tolerance of every
    check (useful to prove the checks can fail: zero fails every check with
    a nonzero deviation, a negative value every check); a non-finite one is
    refused, since it would decide every check whatever the deviation.
    ``trials`` overrides the per-check Monte Carlo trial count of the chosen
    matrix.
    """
    if matrix not in MATRIX_SIZES:
        raise ValidationError(f"matrix must be one of {sorted(MATRIX_SIZES)}, got {matrix!r}")
    if tolerance is not None and not math.isfinite(tolerance):
        raise ValidationError(f"tolerance must be finite, got {tolerance!r}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed!r}")
    n_configs, mc_trials = MATRIX_SIZES[matrix]
    if trials is not None:
        if trials < 1:
            raise ValidationError(f"trials must be >= 1, got {trials}")
        mc_trials = trials
    configs = sample_configurations(n_configs, seed)

    results = []

    def add(check: str, cases: int, dev: float, default_tol: float):
        tol = default_tol if tolerance is None else tolerance
        results.append(CheckResult(check, cases, dev, tol, dev <= tol))

    for name, dev in _series_checks(configs).items():
        add(name, n_configs, dev, SERIES_TOL)
    add("filtered_reduction_at_f1", n_configs, _reduction_check(configs), REDUCTION_TOL)
    add("moments_closed_vs_pmf", n_configs, _moment_check(configs), MOMENT_TOL)
    if with_mc:
        n_mc = len(mc_acceptance_matrix())
        for name, dev in _mc_checks(mc_trials, seed).items():
            add(name, n_mc, dev, MC_TOL)
    return results

"""Seeded Monte Carlo simulation of the physical heralding model.

Each trial is one time bin: draw a pair count, fire the threshold herald
detector unless it misses every heralding photon and has no dark count, and
when it fires record the signal photons that survive their branch loss.  The
normalized histogram over heralded trials is an end-to-end oracle for every
closed form.

A bin holds a thermal count k of kept-mode pairs and a Poisson count e of
extra pairs, whose photons reach both branches (unfiltered source) or only
the unfiltered one.  Bins are exchangeable: a bin's herald depends only on
its (k, e) cell and its signal count only on its photons.  So a run draws
how many bins fall in each cell, heralds each cell's bins by one binomial
and thins the heralded bins of each signal count together; its work depends
on its count tables, not on its trial count.

Reproducibility contract: a run uses one
``numpy.random.Generator(PCG64(SeedSequence(seed)))`` and draws, in this
order (stream ``STREAM_VERSION``):

1. the histogram of all bins over the kept-count table (k = 0, 1, ...), one
   multinomial;
2. for the kept counts k with at least as many bins as the extra-count
   table (e = 0, 1, ...) has entries, in increasing k and in batches of at
   most ``BATCH`` cells: each k's bins over that table, one multinomial per
   k, then the binomial count of heralded bins of each (k, e) cell, with
   p = 1 - (1 - d_h)(1 - eta_h)^c for the c pairs whose photons reach the
   herald branch;
3. for the other occupied k, in increasing k and in batches of at most
   ``BATCH`` bins: one uniform per bin, inverted through the extra table's
   cumulative sum, then one binomial(1, p) herald per bin;
4. the thinning of the heralded bins, summed per signal count s: one
   binomial count of the s = 1 bins that keep their photon; for the s >= 2
   with more bins than the law of min(Binomial(s, eta_s), n_cap) has
   entries, in increasing s and batches of at most ``BATCH`` law entries,
   one multinomial per s over that law, from its top count down to 0; for
   the other s >= 2, in increasing s, binomial(s, eta_s) per bin.

A (config, seed) pair therefore replays bit-identically for a given numpy
and stream version, and a run holds a few arrays of at most ``BATCH``
entries (or one table row), whatever its trial count.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoHeraldSamplesError, ValidationError
from .model import TERM_CAP, FilterBranch, FilterSpec, NO_FILTER, PairStatistics, SourceParams

__all__ = ["McConfig", "simulate"]

# Version of the draw order above; it moves with every change to the numbers
# a (config, seed) pair produces.  Streams 1 (every bin drawn), 2 (herald
# thinned by a binomial), 3 (herald uniform, every heralded bin thinned on its
# own), 4 (one Poisson or geometric draw per occupied bin), 5 (chunks of 2^20
# bins, one herald exponential per occupied bin) and 6 (every clamped thinning
# tail taken as 1 minus the other entries) do not replay under stream 7.
STREAM_VERSION = 7

# A count table stops where the mass left is below 2^-64, under the 2^-53
# resolution of a uniform double.
TABLE_TAIL = 2.0**-64

# Largest simulated mu: the thermal count table has about 44 (mu + 1/2)
# entries, 44,384 at mu = 1000.
MAX_MU = 1e3

# Cells, bins or law entries drawn at once (2 MiB per array); the filters at
# mu = 1000 hold up to 16 million cells
BATCH = 1 << 18


@dataclass(frozen=True)
class McConfig:
    """One simulation request: physics, trial count, seed, histogram cap."""

    params: SourceParams
    stat: PairStatistics = PairStatistics.POISSON
    filt: FilterSpec = NO_FILTER
    trials: int = 1_000_000
    seed: int = 0
    n_cap: int = 64

    def __post_init__(self):
        for name in ("trials", "n_cap", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.trials < 2**63:  # bin counts are int64
            raise ValidationError(f"trials must lie in [1, 2**63), got {self.trials}")
        if not 8 <= self.n_cap <= TERM_CAP:
            raise ValidationError(f"n_cap must lie in [8, {TERM_CAP}], got {self.n_cap}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if self.params.mu > MAX_MU:
            raise ValidationError(f"mu above {MAX_MU:g} would grow the thermal pair-count table "
                                  f"past {len(_count_table(MAX_MU, True)):,} entries")
        if self.filt.branch is not FilterBranch.NONE and self.stat is not PairStatistics.POISSON:
            raise ValidationError("a mode filter requires Poisson pair statistics")


@dataclass(frozen=True)
class McEstimate:
    """Empirical conditional pmf with per-bin binomial standard errors.

    ``pmf_hat[n]`` covers n = 0..n_cap; counts above n_cap are clamped into
    the top bin, whose mass is also reported as ``cap_mass``.
    """

    pmf_hat: tuple
    stderr: tuple
    herald_rate: float
    trials_used: int
    heralded: int
    cap_mass: float


def _describe(config: McConfig) -> tuple[float, float, bool, bool]:
    """(thermal kept mean, Poisson extra mean, extra photons reach the herald
    branch, extra photons reach the signal branch).  A filter removes the
    extra photons of its own branch, not their twins in the other."""
    mu, branch = config.params.mu, config.filt.branch
    if branch is FilterBranch.NONE:
        if config.stat is PairStatistics.THERMAL:
            return mu, 0.0, True, True
        return 0.0, mu, True, True
    f = config.filt.f
    return mu * f, mu * (1.0 - f), branch is FilterBranch.SIGNAL, branch is FilterBranch.HERALD


@functools.lru_cache(maxsize=16)
def _count_table(mean: float, thermal: bool) -> np.ndarray:
    """P(N = k) for k = 0..K of a thermal or Poisson pair count N of the
    given mean, K the first k whose remaining mass is below ``TABLE_TAIL``
    (a multinomial draw gives the last entry whatever mass the others leave);
    read-only and cached, since every run of a configuration draws from it."""
    if mean < TABLE_TAIL:  # P(N >= 1) < TABLE_TAIL, and mean 0 has this limit
        table = np.ones(1)
    elif thermal:  # (1 - q) q^k, q = m/(1 + m): the mass above k is q^(k + 1)
        log_q = -math.log1p(1.0 / mean)
        size = math.floor(math.log(TABLE_TAIL) / log_q) + 1
        table = np.exp(np.arange(size) * log_q) / (1.0 + mean)
    else:
        # m^k e^-m/k! in logs (e^m overflows near m = 710), summed to 20
        # standard deviations past the mean, beyond which less than e^-150 is left
        k = np.arange(1.0, math.ceil(mean + 20.0 * math.sqrt(mean)) + 50.0)
        p = np.exp(np.concatenate(([0.0], np.cumsum(np.log(mean / k)))) - mean)
        p /= p.sum()
        table = p[:np.count_nonzero(np.cumsum(p[::-1])[::-1] >= TABLE_TAIL)]
    table.flags.writeable = False
    return table


def _herald_probability(c: np.ndarray, d_h: float, eta_h: float) -> np.ndarray:
    """1 - (1 - d_h)(1 - eta_h)^c as -expm1 of minus the miss hazard c0 + c c1,
    free of cancellation: c0 is inf at d_h = 1, and c1 = 1e3 at eta_h = 1
    misses with probability e^-1000, 0 in doubles, and keeps 0 * c1 = 0."""
    c0 = -math.log1p(-d_h) if d_h < 1.0 else math.inf
    c1 = -math.log1p(-eta_h) if eta_h < 1.0 else 1e3
    return -np.expm1(-(c * c1 + c0))


def _thinning_law(s: np.ndarray, eta: float, cap: int) -> np.ndarray:
    """Rows P(min(B, cap) = j) of B ~ Binomial(s, eta) for each count in
    ``s``, j running down from min(max s, cap) to 0, so that a multinomial
    draw leaves its remainder at j = 0, in every row's support.  Built in
    place, in logs, from p(0) = (1 - eta)^s by the ratios p(j + 1)/p(j) =
    (s - j) eta/((j + 1)(1 - eta)); each row sums to 1 after its clamped tail.
    That tail P(B >= cap) is 1 minus the other entries where it holds the
    mode, and otherwise the sum of its terms, which shrink from p(cap), so
    that it keeps its relative accuracy however small it is."""
    law = np.zeros((len(s), min(int(s.max()), cap) + 1))
    up = law[:, ::-1]  # j running up
    if eta in (0.0, 1.0):  # every photon lost, or every one kept
        up[np.arange(len(s)), np.minimum(s * int(eta), cap)] = 1.0
        return law
    j, steps = np.arange(law.shape[1] - 1), up[:, 1:]
    up[:, 0] = s * math.log1p(-eta)
    np.maximum(np.subtract(s[:, None], j, out=steps), 0.0, out=steps)
    steps /= j + 1.0
    with np.errstate(divide="ignore"):  # log 0 = -inf where j passes s
        np.log(steps, out=steps)
    steps += math.log(eta) - math.log1p(-eta)
    np.exp(np.cumsum(up, axis=1, out=up), out=up)
    top = law.shape[1] - 1
    shrinks = (s + 1) * eta < top + 1  # p(j + 1) < p(j) for every j >= top
    rest, summed = (s > top) & ~shrinks, (s > top) & shrinks
    law[rest, 0] = 1.0 - up[rest, :-1].sum(axis=1)
    term = tail = law[summed, 0]
    j = top
    while (term > 2.0**-60 * tail).any():
        term = term * ((s[summed] - j) / (j + 1.0) * (eta / (1.0 - eta)))
        tail = tail + term
        j += 1
    law[summed, 0] = tail
    law /= law.sum(axis=1, keepdims=True)
    return law


def _batches(widths: np.ndarray, per_row: bool = False):
    """Slices of consecutive rows, one slice per draw: rows of non-decreasing
    widths whose rectangle of rows by the last width holds at most
    ``BATCH`` entries, or with ``per_row`` rows whose widths sum to at most
    ``BATCH``; a wider row is a slice of its own."""
    start = 0
    while start < len(widths):
        rest = widths[start:]
        cost = np.cumsum(rest) if per_row else np.arange(1, len(rest) + 1) * rest
        stop = start + max(1, int(np.searchsorted(cost, BATCH, side="right")))
        yield slice(start, stop)
        start = stop


def _cells(rng, trials: int, kept_table: np.ndarray, extra_table: np.ndarray):
    """Batches (k, e, bins) of (k, e) cells, k and e broadcasting to the
    bin counts, drawn from the numpy Generator ``rng`` by steps 1-3 of the
    draw order: a caller draws each batch's heralds before it asks for the
    next.  (``rng`` has no annotation: ``np.random.Generator`` there would
    import numpy.random with the package.)"""
    bins = rng.multinomial(trials, kept_table)
    k = np.flatnonzero(bins)
    width = len(extra_table)
    rows = k[bins[k] >= width]
    for batch in _batches(np.full(len(rows), width)):
        yield rows[batch, None], np.arange(width), rng.multinomial(bins[rows[batch]], extra_table)
    rows, cdf = k[bins[k] < width], np.cumsum(extra_table)
    for batch in _batches(bins[rows], per_row=True):
        kk = np.repeat(rows[batch], bins[rows[batch]])
        e = np.searchsorted(cdf, rng.random(len(kk)), side="right")
        yield kk, np.minimum(e, width - 1, out=e), np.ones(len(kk), dtype=np.int64)


def simulate(config: McConfig) -> McEstimate:
    """Run the configured trials and estimate the heralded signal pmf.

    Deterministic for a given (config, seed), in the draw order of the module
    docstring.  Raises :class:`NoHeraldSamplesError` when no trial produced a
    herald.
    """
    p, cap = config.params, config.n_cap
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(config.seed))))
    kept_mean, extra_mean, extra_herald, extra_signal = _describe(config)
    kept_table, extra_table = _count_table(kept_mean, True), _count_table(extra_mean, False)

    # steps 2-3: each cell's heralded bins, summed per signal count; a branch
    # sees the k + e pairs of a cell, or k where the filter removes the extra
    heralded = np.zeros(len(kept_table) + len(extra_table), dtype=np.int64)
    p_herald = _herald_probability(np.arange(len(heralded)), p.d_h, p.eta_h)
    for k, e, bins in _cells(rng, config.trials, kept_table, extra_table):
        h = rng.binomial(bins, p_herald[k + e if extra_herald else k])
        np.add.at(heralded, np.broadcast_to(k + e if extra_signal else k, h.shape), h)

    # step 4: thin the heralded bins of each signal count s
    hist = np.zeros(cap + 1, dtype=np.int64)
    hist[1] = rng.binomial(heralded[1], p.eta_s)
    hist[0] = heralded[0] + heralded[1] - hist[1]
    s = np.flatnonzero(heralded[2:]) + 2
    width = np.minimum(s, cap) + 1
    many = heralded[s] > width
    rows = s[many]
    for batch in _batches(width[many]):
        thinned = rng.multinomial(heralded[rows[batch]], _thinning_law(rows[batch], p.eta_s, cap))
        hist[:thinned.shape[1]] += thinned.sum(axis=0)[::-1]
    rows = s[~many]
    for batch in _batches(heralded[rows], per_row=True):
        photons = rng.binomial(np.repeat(rows[batch], heralded[rows[batch]]), p.eta_s)
        hist += np.bincount(np.minimum(photons, cap, out=photons), minlength=cap + 1)
    total = int(heralded.sum())
    if total == 0:
        raise NoHeraldSamplesError(f"no heralded trials out of {config.trials}")
    pmf_hat = hist / total
    stderr = np.sqrt(pmf_hat * (1.0 - pmf_hat) / total)
    return McEstimate(
        pmf_hat=tuple(pmf_hat.tolist()),
        stderr=tuple(stderr.tolist()),
        herald_rate=total / config.trials,
        trials_used=config.trials,
        heralded=total,
        cap_mass=float(pmf_hat[cap]),
    )

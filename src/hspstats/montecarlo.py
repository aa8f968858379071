"""Seeded Monte Carlo simulation of the physical heralding model.

Each trial is one time bin: draw a pair count, fire the threshold herald
detector unless it misses every heralding photon and has no dark count, and
when it fires record the signal photons that survive their branch loss.  The
normalized histogram over heralded trials is an end-to-end oracle for every
closed form.

A bin holds a thermal count of kept-mode pairs and a Poisson count of extra
pairs, whose photons reach both branches (unfiltered source) or only the
unfiltered one.  Each chunk splits its bins by occupation with one
multinomial draw and draws only the occupied ones; the empty bins' dark
heralds are one binomial count.

Reproducibility contract: chunk ``i`` of ``CHUNK_TRIALS`` trials uses
``numpy.random.Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))`` and
draws, in this order (stream ``STREAM_VERSION``): the multinomial split into
kept-only, extra-only, both and empty bins; one multinomial histogram of pair
counts over a count table for each of the kept-only bins, the both bins, the
both bins' extras and the extra-only bins, then a shuffle of the both bins'
extra counts; one herald exponential per occupied bin; the binomial count of
heralded one-signal-photon bins that keep it, then the per-bin thinning of
heralded bins with two or more; the dark heralds among the empty bins.  The
exponential and thinning draws run over blocks of ``BLOCK_BINS`` occupied
bins and give the numbers of whole-array calls, so a (config, seed) pair
replays bit-identically for a given numpy and stream version.  Chunks run at
most one per CPU at a time, each holding 5 to 6 MiB at mu = 0.5; they merge
in chunk order, independent of the thread count.
"""

import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import NoHeraldSamplesError, ValidationError
from .model import TERM_CAP, FilterBranch, FilterSpec, NO_FILTER, PairStatistics, SourceParams

__all__ = ["McConfig", "simulate"]

CHUNK_TRIALS = 1 << 20
# Occupied bins per draw block; a dim verify chunk (up to ~50,000) is one block.
BLOCK_BINS = 1 << 16

# Version of the draw order above; it moves with every change to the numbers
# a (config, seed) pair produces.  Streams 1 (every bin drawn), 2 (herald
# thinned by a binomial), 3 (herald uniform, every heralded bin thinned on its
# own) and 4 (one Poisson or geometric draw per occupied bin) do not replay
# under stream 5.
STREAM_VERSION = 5

# A count table stops where the mass left is below 2^-64, under the 2^-53
# resolution of a uniform double.
TABLE_TAIL = 2.0**-64

# Largest simulated mu: the thermal count table has about 44 (mu + 1/2)
# entries, 44,384 at mu = 1000.
MAX_MU = 1e3


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
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
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
    """P(N = k | N >= 1) for k = 1..K of a thermal or Poisson pair count N of
    the given mean, K the first k whose remaining mass is below ``TABLE_TAIL``
    (a multinomial draw gives the last entry whatever mass the others leave);
    read-only and cached, since every chunk of a run draws from the same tables."""
    if mean < TABLE_TAIL:  # P(N > 1 | N >= 1) < TABLE_TAIL, and mean 0 has this limit
        table = np.ones(1)
    elif thermal:  # (1 - q) q^(k - 1), q = m/(1 + m): the mass above k is q^k
        log_q = -math.log1p(1.0 / mean)
        size = math.floor(math.log(TABLE_TAIL) / log_q) + 1
        table = np.exp(np.arange(size) * log_q) / (1.0 + mean)
    else:
        # m^k/(k! (e^m - 1)) as m^k e^-m/k! in logs (e^m overflows near m = 710)
        # over its sum 1 - e^-m, summed to 20 standard deviations past the mean,
        # beyond which less than e^-150 is left
        k = np.arange(1.0, math.ceil(mean + 20.0 * math.sqrt(mean)) + 50.0)
        p = np.exp(np.cumsum(np.log(mean / k)) - mean)
        p /= p.sum()
        table = p[:np.count_nonzero(np.cumsum(p[::-1])[::-1] >= TABLE_TAIL)]
    table.flags.writeable = False
    return table


def _pair_counts(rng, kept_mean: float, extra_mean: float,
                 n_kept: int, n_both: int, n_extra: int) -> tuple[np.ndarray, np.ndarray]:
    """Kept counts of the kept-only then both bins, and extra counts of the
    both then extra-only bins, each group's counts drawn from the numpy
    Generator ``rng`` as one multinomial histogram over its count table:
    bins are exchangeable, so each group comes out sorted.  The both bins'
    extra counts are shuffled, so that they pair with the sorted kept counts
    independently.  (``rng`` has no annotation: ``np.random.Generator``
    there would import numpy.random with the package.)"""
    kept_table, extra_table = _count_table(kept_mean, True), _count_table(extra_mean, False)
    hists = [rng.multinomial(n, table) for n, table in
             ((n_kept, kept_table), (n_both, kept_table), (n_both, extra_table),
              (n_extra, extra_table))]
    kept = np.repeat(np.tile(np.arange(1, len(kept_table) + 1), 2), np.concatenate(hists[:2]))
    extra = np.repeat(np.tile(np.arange(1, len(extra_table) + 1), 2), np.concatenate(hists[2:]))
    rng.shuffle(extra[:n_both])
    return kept, extra


def _counts(kept: np.ndarray, extra: np.ndarray, n_kept: int, a: int, b: int, with_extra: bool):
    """Pair counts of occupied bins a..b-1 in one branch: the kept pairs of bins
    0.. and, when the branch sees them, the extra pairs of bins n_kept.."""
    k = kept[a:b]
    x = extra[max(a - n_kept, 0):max(b - n_kept, 0)] if with_extra else extra[:0]
    if 0 in (len(k), len(x)) and len(k) + len(x) == b - a:
        return x if len(x) else k  # one kind of pair: a view, no copy
    out = np.zeros(b - a, dtype=np.int64)
    out[:len(k)] = k
    out[b - a - len(x):] += x
    return out


def _simulate_chunk(config: McConfig, index: int, size: int) -> tuple[np.ndarray, int]:
    """Histogram of clamped signal counts over heralded trials of one chunk,
    and the number of heralded trials; draws in the order of the module
    docstring, the herald and thinning draws over blocks of bins."""
    p = config.params
    seq = np.random.SeedSequence(entropy=int(config.seed), spawn_key=(index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    kept_mean, extra_mean, extra_herald, extra_signal = _describe(config)
    kept0, kept1 = 1.0 / (1.0 + kept_mean), kept_mean / (1.0 + kept_mean)
    extra0, extra1 = math.exp(-extra_mean), -math.expm1(-extra_mean)
    n_kept, n_extra, n_both, n_empty = rng.multinomial(
        size, [kept1 * extra0, kept0 * extra1, kept1 * extra1, kept0 * extra0])

    # occupied bins in the order kept-only, both, extra-only
    occupied = n_kept + n_both + n_extra
    kept, extra = _pair_counts(rng, kept_mean, extra_mean, n_kept, n_both, n_extra)
    # dark, with probability (1 - d_h)(1 - eta_h)^h, when one exponential outlasts
    # the miss hazard c0 + h c1: c0 is inf at d_h = 1, and c1 = 1e3 at eta_h = 1
    # misses with probability e^-1000, 0 in doubles, and keeps 0 * c1 = 0 at h = 0
    c0 = -math.log1p(-p.d_h) if p.d_h < 1.0 else math.inf
    c1 = -math.log1p(-p.eta_h) if p.eta_h < 1.0 else 1e3
    blocks = [(a, min(a + BLOCK_BINS, occupied)) for a in range(0, occupied, BLOCK_BINS)]
    exponentials, hazard = np.empty((2, min(occupied, BLOCK_BINS)))  # reused by each block
    many = np.empty(occupied, dtype=bool)  # heralded with two or more signal photons
    heralds = ones = 0
    for a, b in blocks:
        np.multiply(_counts(kept, extra, n_kept, a, b, extra_herald), c1, out=hazard[:b - a])
        hazard[:b - a] += c0
        heralded = rng.standard_exponential(out=exponentials[:b - a]) < hazard[:b - a]
        signal = _counts(kept, extra, n_kept, a, b, extra_signal)
        heralds += int(np.count_nonzero(heralded))
        ones += int(np.count_nonzero(heralded & (signal == 1)))
        np.logical_and(heralded, signal > 1, out=many[a:b])
    del exponentials, hazard  # free before the thinning: chunks in flight hold their peaks
    # the branches thin independently given the counts: one binomial count for the
    # heralded one-photon bins, one per bin with more (np.compress beats a bool index)
    ones = int(rng.binomial(ones, p.eta_s))
    hist = np.zeros(config.n_cap + 1, dtype=np.int64)
    for a, b in blocks:
        if len(blocks) > 1:  # a single block still holds its signal counts
            signal = _counts(kept, extra, n_kept, a, b, extra_signal)
        photons = rng.binomial(np.compress(many[a:b], signal), p.eta_s)
        hist += np.bincount(np.minimum(photons, config.n_cap, out=photons), minlength=len(hist))
    heralds += int(rng.binomial(n_empty, p.d_h))  # an empty bin heralds by a dark count
    hist[1] += ones
    hist[0] = heralds - hist[1:].sum()  # every other herald is left with no signal photon
    return hist, heralds


def _chunks(trials: int):
    for i, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        yield i, min(CHUNK_TRIALS, trials - start)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor  # a one-chunk run never imports it
    return ThreadPoolExecutor(_cpus(), thread_name_prefix="hspstats-mc")


if hasattr(os, "register_at_fork"):  # a forked child inherits no pool thread
    os.register_at_fork(after_in_child=_pool.cache_clear)


def simulate(config: McConfig) -> McEstimate:
    """Run the configured trials and estimate the heralded signal pmf.

    Deterministic for a given (config, seed).  Raises
    :class:`NoHeraldSamplesError` when no trial produced a herald.
    """
    hist = np.zeros(config.n_cap + 1, dtype=np.int64)
    heralded = 0
    workers = _cpus() if config.trials > CHUNK_TRIALS else 1
    run = map if workers == 1 else _pool().map
    chunks = _chunks(config.trials)
    while batch := tuple(itertools.islice(chunks, workers)):
        for h, k in run(_simulate_chunk, itertools.repeat(config), *zip(*batch)):
            hist += h
            heralded += k
    if heralded == 0:
        raise NoHeraldSamplesError(f"no heralded trials out of {config.trials}")
    pmf_hat = hist / heralded
    stderr = np.sqrt(pmf_hat * (1.0 - pmf_hat) / heralded)
    return McEstimate(
        pmf_hat=tuple(pmf_hat.tolist()),
        stderr=tuple(stderr.tolist()),
        herald_rate=heralded / config.trials,
        trials_used=config.trials,
        heralded=heralded,
        cap_mass=float(pmf_hat[config.n_cap]),
    )

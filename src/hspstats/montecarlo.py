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
kept-only, extra-only, both and empty bins; the kept counts of the kept-only
and both bins; the first-arrival uniforms, then the Poisson remainders, of
the both and extra-only bins; one herald exponential per occupied bin;
the binomial count of heralded one-signal-photon bins that keep it, then
the per-bin thinning of heralded bins with two or more; the dark heralds
among the empty bins.  A (config, seed) pair therefore replays
bit-identically for a given numpy version and stream version.  Chunks run
on up to one thread per available CPU, one at a time per thread (about 11
MiB each at mu = 0.5), and merge in chunk order: the result does not
depend on the thread count.
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

# Version of the draw order above; it moves with every change to the numbers
# a (config, seed) pair produces.  Streams 1 (every bin drawn), 2 (herald
# thinned by a binomial) and 3 (herald uniform, every heralded bin thinned on
# its own) do not replay under stream 4.
STREAM_VERSION = 4

# Largest simulated mu: pair counts stay far inside int64 and numpy's Poisson range.
MAX_MU = 1e15


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
            raise ValidationError(f"mu above {MAX_MU:g} would overflow the pair counts")
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


def _simulate_chunk(config: McConfig, index: int, size: int) -> tuple[np.ndarray, int]:
    """Histogram of clamped signal counts over heralded trials of one chunk,
    and the number of heralded trials; draws in the order of the module
    docstring."""
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
    kept = np.zeros(occupied, dtype=np.int64)
    # the geometric law is memoryless: thermal N given N >= 1 is geometric
    # on 1, 2, ... with the same success probability P(N = 0)
    kept[:n_kept + n_both] = rng.geometric(kept0, size=n_kept + n_both)
    # Poisson N given N >= 1: 1 + Poisson(m (1 - T)), the first arrival time T
    # by inverse CDF given T < 1, clipped so that rounding keeps m (1 - T) >= 0
    extra = rng.random(n_both + n_extra)
    np.log1p(np.multiply(extra, -extra1, out=extra), out=extra)
    extra = rng.poisson(np.maximum(np.add(extra, extra_mean, out=extra), 0.0, out=extra))
    extra += 1
    total = kept if extra_herald and extra_signal else kept.copy()
    total[n_kept:] += extra
    del extra  # free each array after its last use: chunks in flight hold their peaks
    # dark, with probability (1 - d_h)(1 - eta_h)^h, when one exponential outlasts
    # the miss hazard c0 + h c1: c0 is inf at d_h = 1, and c1 = 1e3 at eta_h = 1
    # misses with probability e^-1000, 0 in doubles, and keeps 0 * c1 = 0 at h = 0
    c0 = -math.log1p(-p.d_h) if p.d_h < 1.0 else math.inf
    c1 = -math.log1p(-p.eta_h) if p.eta_h < 1.0 else 1e3
    heralded = rng.standard_exponential(occupied) < (total if extra_herald else kept) * c1 + c0
    signal = total if extra_signal else kept
    del kept, total
    # the branches thin independently given the counts: one binomial count for the
    # heralded one-photon bins, one per bin with more (np.compress beats a bool index)
    heralds = int(np.count_nonzero(heralded))
    ones = int(rng.binomial(np.count_nonzero(heralded & (signal == 1)), p.eta_s))
    heralded &= signal > 1
    many = rng.binomial(np.compress(heralded, signal), p.eta_s)
    hist = np.bincount(np.minimum(many, config.n_cap, out=many), minlength=config.n_cap + 1)
    # an empty bin heralds only by a dark count, and then with no signal photon
    dark = int(rng.binomial(n_empty, p.d_h))
    hist[1] += ones
    hist[0] += heralds - len(many) - ones + dark
    return hist, heralds + dark


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
        raise NoHeraldSamplesError(f"no heralded trials out of {config.trials}",
                                   trials=config.trials)
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

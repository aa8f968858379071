"""Seeded Monte Carlo simulation of the physical heralding model.

Each trial is one time bin: draw a pair count, thin each photon population
through its branch losses, fire the threshold detector (dark count OR'd
with any surviving heralding photon), and record the signal-side survivor
count when the herald fired.  The estimator is the normalized histogram
over heralded trials, an end-to-end oracle for every closed form.

Reproducibility contract: trials are processed in fixed chunks of
``CHUNK_TRIALS``; chunk ``i`` uses ``numpy.random.Generator(PCG64(
SeedSequence(seed, spawn_key=(i,))))`` and draws in a fixed order, so a
(config, seed) pair replays bit-identically for a given numpy version, and
distributing whole chunks across workers cannot change the merged result.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoHeraldSamplesError, ValidationError
from .model import FilterBranch, FilterSpec, NO_FILTER, PairStatistics, SourceParams

__all__ = ["McConfig", "McEstimate", "simulate", "CHUNK_TRIALS"]

CHUNK_TRIALS = 1 << 20


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
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.n_cap < 8:
            raise ValidationError(f"n_cap must be >= 8, got {self.n_cap}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError(f"seed must lie in [0, 2**64), got {self.seed!r}")
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


def _chunk_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(index,))


def _thermal_counts(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """Thermal pair counts via the geometric law with success 1/(1+mean)."""
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    return rng.geometric(1.0 / (1.0 + mean), size=size) - 1


def _simulate_chunk(config: McConfig, index: int, size: int) -> tuple[np.ndarray, int]:
    """Histogram of clamped signal counts over heralded trials of one chunk.

    Draw order (fixed): pair counts (kept mode first when filtered), then
    herald-side thinning, then signal-side thinning, then dark-count
    uniforms.
    """
    p = config.params
    rng = np.random.Generator(np.random.PCG64(_chunk_seed(config.seed, index)))

    if config.filt.branch is FilterBranch.NONE:
        if config.stat is PairStatistics.POISSON:
            pairs = rng.poisson(p.mu, size=size)
        else:
            pairs = _thermal_counts(rng, p.mu, size)
        herald_photons = rng.binomial(pairs, p.eta_h)
        signal = rng.binomial(pairs, p.eta_s)
    else:
        f = config.filt.f
        kept = _thermal_counts(rng, p.mu * f, size)
        extra = rng.poisson(p.mu * (1.0 - f), size=size)
        if config.filt.branch is FilterBranch.HERALD:
            # extraneous heralding photons are filtered out before the
            # detector; their signal twins remain
            herald_photons = rng.binomial(kept, p.eta_h)
            signal = rng.binomial(kept + extra, p.eta_s)
        else:
            # signal filter: extraneous signal photons removed, but their
            # heralding twins still reach the detector
            herald_photons = rng.binomial(kept + extra, p.eta_h)
            signal = rng.binomial(kept, p.eta_s)

    dark = rng.random(size) < p.d_h
    heralded = (herald_photons >= 1) | dark
    clamped = np.minimum(signal[heralded], config.n_cap)
    hist = np.bincount(clamped, minlength=config.n_cap + 1)
    return hist, int(heralded.sum())


def _chunks(trials: int):
    full, rest = divmod(trials, CHUNK_TRIALS)
    for i in range(full):
        yield i, CHUNK_TRIALS
    if rest:
        yield full, rest


def simulate(config: McConfig) -> McEstimate:
    """Run the configured trials and estimate the heralded signal pmf.

    Deterministic for a given (config, seed).  Raises
    :class:`NoHeraldSamplesError` when no trial produced a herald.
    """
    hist = np.zeros(config.n_cap + 1, dtype=np.int64)
    heralded = 0
    for index, size in _chunks(config.trials):
        h, k = _simulate_chunk(config, index, size)
        hist += h
        heralded += k
    if heralded == 0:
        raise NoHeraldSamplesError(
            f"no heralded trials out of {config.trials}", trials=config.trials
        )
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


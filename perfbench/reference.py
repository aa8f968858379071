"""Reference heralded signal law by direct enumeration over pair numbers.

This module is the benchmark's yardstick and deliberately shares no code
with the package under test (it never imports ``hspstats``).  It writes the
physical model out as sums over pair numbers and evaluates them with
numpy/scipy.stats:

* a pair number N is Poisson or thermal with mean mu;
* each pair's heralding photon survives with eta_h and its signal photon
  with eta_s, independently;
* the threshold detector clicks unless every heralding photon is lost and
  no dark count occurs: H(N) = 1 - (1 - d_h)(1 - eta_h)^N;
* a mode filter keeps a thermal mode of mean mu*f next to an extraneous
  Poisson population of mean mu*(1-f).  A signal filter removes the
  extraneous signal photons (their heralding twins still reach the
  detector); a herald filter removes the extraneous heralding photons
  (their signal twins remain).

The pair sums are truncated at an explicit bound: the input mass left out is
at most ``TRUNCATION`` times the click probability, so every heralded term is
exact to about that relative accuracy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats

__all__ = ["SignalLaw", "signal_law", "fano", "CONFIGURATIONS", "TRUNCATION"]

# Input mass left out of every pair sum, relative to the click probability.
TRUNCATION = 1e-16

# (statistics, filtered branch) of the four source configurations
CONFIGURATIONS = {
    "poisson": ("poisson", "none"),
    "thermal": ("thermal", "none"),
    "signal_filtered": ("poisson", "signal"),
    "herald_filtered": ("poisson", "herald"),
}


@dataclass(frozen=True)
class SignalLaw:
    """Heralded and unconditioned signal-count laws of one configuration.

    ``heralded[n]`` and ``unconditioned[n]`` cover n = 0..len-1; ``tail``
    bounds the heralded mass left out by the truncation.
    """

    heralded: np.ndarray
    unconditioned: np.ndarray
    p_click: float
    tail: float

    @property
    def mean(self) -> float:
        n = np.arange(len(self.heralded), dtype=float)
        return float(np.dot(n, self.heralded))

    @property
    def variance(self) -> float:
        n = np.arange(len(self.heralded), dtype=float)
        return float(np.dot((n - self.mean) ** 2, self.heralded))


def _pair_law(stat: str, mean: float, tail: float) -> np.ndarray:
    """P(N) for N = 0..K, with P(N > K) <= tail."""
    if mean == 0.0:
        return np.array([1.0])
    if stat == "thermal":
        q = mean / (1.0 + mean)
        k = max(int(math.ceil(math.log(tail) / math.log(q))), 1)
        n = np.arange(k + 1, dtype=float)
        return (1.0 - q) * q**n
    if stat != "poisson":
        raise ValueError(f"unknown pair statistics {stat!r}")
    k = int(mean + 10.0 * math.sqrt(mean) + 10)
    while stats.poisson.sf(k, mean) > tail:
        k = int(k * 1.25) + 1
    return stats.poisson.pmf(np.arange(k + 1), mean)


@lru_cache(maxsize=8)
def _thinning(size: int, eta: float) -> np.ndarray:
    """B[n, N] = P(n of N photons survive eta) for n, N < size (read-only)."""
    n = np.arange(size)
    b = stats.binom.pmf(n[:, None], n[None, :], eta)
    b.setflags(write=False)
    return b


def _thin(weights: np.ndarray, eta: float) -> np.ndarray:
    """Survivor-count law of a population with pair weights ``weights``."""
    size = len(weights)
    cached = 1 << max(size - 1, 1).bit_length()      # reuse across nearby sizes
    return _thinning(cached, eta)[:size, :size] @ weights


def _click(n_pairs: np.ndarray, eta_h: float, d_h: float) -> np.ndarray:
    """H(N): herald click probability given N pairs reaching the detector."""
    return 1.0 - (1.0 - d_h) * (1.0 - eta_h) ** n_pairs


def _enumerate(stat, mu, eta_h, eta_s, d_h, branch, f, tail):
    """(joint heralded weights over n, unconditioned law, click probability)."""
    if branch == "none":
        p = _pair_law(stat, mu, tail)
        w = p * _click(np.arange(len(p)), eta_h, d_h)
        return _thin(w, eta_s), _thin(p, eta_s), float(w.sum())
    if stat != "poisson":
        raise ValueError("a mode filter needs a Poisson pair source")
    kept = _pair_law("thermal", mu * f, tail / 2)
    extra = _pair_law("poisson", mu * (1.0 - f), tail / 2)
    n1 = np.arange(len(kept))
    if branch == "signal":
        # the detector sees kept and extraneous pairs, the signal only kept ones
        n2 = np.arange(len(extra))
        h = _click(n1[:, None] + n2[None, :], eta_h, d_h) @ extra
        w = kept * h
        return _thin(w, eta_s), _thin(kept, eta_s), float(w.sum())
    if branch != "herald":
        raise ValueError(f"unknown filter branch {branch!r}")
    # the detector sees kept pairs only, the signal both populations
    w_kept = kept * _click(n1, eta_h, d_h)
    joint = _thin(np.convolve(w_kept, extra), eta_s)
    uncond = _thin(np.convolve(kept, extra), eta_s)
    return joint, uncond, float(w_kept.sum())


def signal_law(
    config: str,
    mu: float,
    eta_h: float,
    eta_s: float,
    d_h: float,
    f: float = 1.0,
) -> SignalLaw:
    """Heralded signal law of ``config`` (a key of :data:`CONFIGURATIONS`)."""
    stat, branch = CONFIGURATIONS[config]
    tail = TRUNCATION
    while True:
        joint, uncond, p_click = _enumerate(stat, mu, eta_h, eta_s, d_h, branch, f, tail)
        if p_click <= 0.0:
            raise ValueError("the herald can never fire")
        if tail <= TRUNCATION * p_click:
            break
        tail = 0.5 * TRUNCATION * p_click
    return SignalLaw(joint / p_click, uncond, p_click, tail / p_click)


def fano(mu: float, eta_h: float, eta_s: float, d_h: float) -> float:
    """Fano ratio of the heralded Poisson source, from the enumerated law."""
    law = signal_law("poisson", mu, eta_h, eta_s, d_h)
    return law.variance / law.mean

"""Domain types for a heralded single-photon source (HSPS).

A source configuration is the quadruple (mu, eta_h, eta_s, d_h): mean pair
number per time bin, heralding-branch transmission (detector efficiency
included), signal-branch transmission, and dark-count probability per bin.
All types are immutable value types and may be shared freely across threads.

The dataclasses here, ``optimize.SweepRow`` and ``montecarlo``'s
``McConfig`` and ``McEstimate`` are frozen and have their own ``__init__``:
it validates its arguments and writes each field once into the instance
dict, which costs less than the generated frozen ``__init__``'s setattr call
per field.  ``==``, ``hash``, ``repr``, pickling and ``dataclasses.replace``,
which validates too, are the dataclass's own.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError

__all__ = [
    "SourceParams",
    "PairStatistics",
    "FilterBranch",
    "FilterSpec",
    "NO_FILTER",
    "Pmf",
    "MomentSummary",
]

# Smallest accepted transmitted mode fraction.  The filtered-source formulas
# divide by f, so f = 0 is rejected rather than extrapolated.
MIN_MODE_FRACTION = 1e-6

# Largest photon number of a pmf term, a pmf table row or a Monte Carlo
# histogram bin, and the most points of a log-spaced sweep: larger sizes are
# refused before any work, so no table outgrows the longest pmf.
TERM_CAP = 100_000

# Rounding slack allowed above exact normalization of a stored pmf.
PMF_ROUND_EPS = 1e-12


class PairStatistics(Enum):
    """Photon-pair number law of the unfiltered source."""

    POISSON = "poisson"
    THERMAL = "thermal"


class FilterBranch(Enum):
    """Which branch carries a mode filter."""

    NONE = "none"
    SIGNAL = "signal"
    HERALD = "herald"


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True, init=False)
class SourceParams:
    """Physical parameters of one HSPS configuration.

    mu     -- mean photon pairs generated per time bin (>= 0)
    eta_h  -- heralding-branch transmission probability, detector included
    eta_s  -- signal-branch transmission probability
    d_h    -- dark-count probability per time bin
    """

    mu: float
    eta_h: float
    eta_s: float
    d_h: float

    def __init__(self, mu: float, eta_h: float, eta_s: float, d_h: float):
        mu = float(mu)
        if not math.isfinite(mu) or mu < 0.0:
            raise ValidationError(f"mu must be finite and >= 0, got {mu!r}")
        fields = self.__dict__
        fields["mu"], fields["eta_h"], fields["eta_s"], fields["d_h"] = (
            mu, _check_unit("eta_h", eta_h), _check_unit("eta_s", eta_s), _check_unit("d_h", d_h))


@dataclass(frozen=True, init=False)
class FilterSpec:
    """Mode filter placement and transmitted mode fraction f.

    With ``branch == NONE`` the fraction is ignored.  A filter on either
    branch is only meaningful for a Poisson pair source (the kept mode is
    thermal with mean mu*f, the remainder Poisson with mean mu*(1-f));
    that restriction is enforced where the statistics enter, not here.
    """

    branch: FilterBranch = FilterBranch.NONE
    f: float = 1.0

    def __init__(self, branch: FilterBranch = FilterBranch.NONE, f: float = 1.0):
        if not isinstance(branch, FilterBranch):
            raise ValidationError(f"branch must be a FilterBranch, got {branch!r}")
        f = float(f)
        if not math.isfinite(f) or not MIN_MODE_FRACTION <= f <= 1.0:
            raise ValidationError(
                f"mode fraction f must lie in [{MIN_MODE_FRACTION}, 1], got {f!r}"
            )
        self.__dict__["branch"], self.__dict__["f"] = branch, f


NO_FILTER = FilterSpec(FilterBranch.NONE, 1.0)


@dataclass(frozen=True, init=False)
class Pmf:
    """Truncated photon-number distribution with an explicit tail bound.

    ``probs[n]`` is p(n) for n = 0..len-1; ``tail_bound`` bounds the mass
    beyond the stored range, so sum(probs) >= 1 - tail_bound always holds.
    """

    probs: tuple
    tail_bound: float

    def __init__(self, probs: tuple, tail_bound: float):
        probs = tuple(map(float, probs))
        if not probs:
            raise ValidationError("a pmf needs at least one term")
        for n, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:  # also false for nan
                raise ValidationError(f"p({n}) = {p!r} is not a probability")
        tail = float(tail_bound)
        if not math.isfinite(tail) or tail < 0.0:
            raise ValidationError(f"tail_bound must be finite and >= 0, got {tail!r}")
        total = math.fsum(probs)
        if not (1.0 - tail <= total <= 1.0 + PMF_ROUND_EPS):
            raise ValidationError(
                f"pmf mass {total!r} outside [1 - {tail!r}, 1 + {PMF_ROUND_EPS}]"
            )
        self.__dict__["probs"], self.__dict__["tail_bound"] = probs, tail

    def __len__(self) -> int:
        return len(self.probs)

    def prob(self, n: int) -> float:
        """p(n), zero beyond the stored range."""
        if n < 0:
            raise ValidationError(f"photon number must be >= 0, got {n}")
        return self.probs[n] if n < len(self.probs) else 0.0


@dataclass(frozen=True, init=False)
class MomentSummary:
    """First two moments of a photon-number law plus derived ratios.

    ``fano`` is (Delta n)^2 / <n> and ``g2`` is <n(n-1)> / <n>^2; both are
    None when the mean vanishes, and ``g2`` of a summed pmf also when <n>^2
    underflows to 0.
    """

    mean: float
    variance: float
    fano: float | None
    g2: float | None

    def __init__(self, mean: float, variance: float, fano: float | None, g2: float | None):
        if not variance >= 0.0:
            raise ValidationError(f"variance must be >= 0, got {variance!r}")
        fields = self.__dict__
        fields["mean"], fields["variance"], fields["fano"], fields["g2"] = mean, variance, fano, g2


def to_record(params: SourceParams, filt: FilterSpec = NO_FILTER) -> dict:
    """Canonical flat key-value serialization of a configuration."""
    return {
        "mu": params.mu,
        "eta_h": params.eta_h,
        "eta_s": params.eta_s,
        "d_h": params.d_h,
        "filter_branch": filt.branch.value,
        "f": filt.f,
    }

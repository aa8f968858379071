"""Photon-number statistics of heralded single-photon sources.

Exact conditional distributions and moments of the heralded signal branch
for Poisson and thermal pair sources with losses, dark counts, and mode
filtering; an optimal-dimming optimizer; and a seeded Monte Carlo
simulation of the same physical model used to cross-validate every closed
form.
"""

from .analytic import (
    asymptotic_tail_check,
    conditional_pmf_series,
    effective_dark_count,
    g2_from_pmf,
    herald_click_probability,
    herald_filter_convolution_oracle,
    herald_gain_ratio,
    moments_closed_form,
    moments_from_pmf,
    signal_pmf,
    unconditioned_pmf,
    xi,
    xi_limit,
)
from .errors import (
    BracketError,
    HspsError,
    NoHeraldError,
    NoHeraldSamplesError,
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
from .montecarlo import McConfig, simulate
from .optimize import fano_ratio, optimize_mu, sweep
from .verify import sample_configurations

__version__ = "0.1.0"

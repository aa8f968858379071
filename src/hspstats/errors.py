"""Exception hierarchy shared by all hspstats modules."""


class HspsError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(HspsError, ValueError):
    """A parameter or configuration violates its documented range."""


class NoHeraldError(HspsError):
    """The herald can never fire (mu*eta_h = 0 and d_h = 0), so every
    herald-conditioned quantity is undefined."""


class SeriesOverflowError(HspsError, OverflowError):
    """A polynomial or series evaluation left double range.

    ``order`` carries the term index reached when the overflow occurred.
    """

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class UndefinedMomentError(HspsError):
    """A moment-derived quantity (Fano ratio, g2) is requested for a
    distribution with zero mean."""


class NoHeraldSamplesError(HspsError):
    """A Monte Carlo run produced zero heralded trials; the conditional
    histogram cannot be normalized.  ``herald_rate`` is 0 by construction."""

    def __init__(self, message: str, trials: int):
        super().__init__(message)
        self.herald_rate = 0.0
        self.trials = trials


class BracketError(HspsError):
    """The optimizer bracket holds no interior minimum: its unimodality probe
    failed and the 16-point scan that follows is minimal at an end.  Supply
    a bracket that encloses the minimum."""

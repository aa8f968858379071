"""Exception hierarchy shared by all hspstats modules."""


class HspsError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(HspsError, ValueError):
    """A parameter or configuration violates its documented range."""


class NoHeraldError(HspsError):
    """The herald can never fire (mu*eta_h = 0 and d_h = 0), so every
    herald-conditioned quantity is undefined."""


class SeriesOverflowError(HspsError, OverflowError):
    """A polynomial or series evaluation left double range."""


class NoHeraldSamplesError(HspsError):
    """A Monte Carlo run produced zero heralded trials; the conditional
    histogram cannot be normalized."""


class BracketError(HspsError):
    """The optimizer bracket holds no interior minimum: its unimodality probe
    failed and no point of the scan that follows beats both ends by more
    than rounding.  Supply a bracket that encloses the minimum."""

"""Optimal dimming and parameter sweeps.

The Fano ratio (Delta n)^2/<n> of a heralded Poisson source tends to 1 both
as mu -> 0 (dark counts dominate) and as mu grows (vacuum suppression is
lost), with a single interior minimum.  ``optimize_mu`` locates it by
golden-section search on log(mu); ``sweep`` tabulates moments and leading
pmf terms along one parameter axis.
"""

import math
from dataclasses import dataclass, replace

from .analytic import _POISSON, _describe, _moments, heralded_head
from .errors import BracketError, HspsError, ValidationError
from .model import (
    NO_FILTER,
    FilterSpec,
    MomentSummary,
    PairStatistics,
    SourceParams,
)

__all__ = ["optimize_mu", "sweep", "fano_ratio"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

SWEEP_AXES = ("mu", "eta_h", "eta_s", "d_h", "f")

# leading pmf terms p(0)..p(PMF_HEAD - 1) kept per sweep row
PMF_HEAD = 4


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of the one-dimensional dimming optimization."""

    mu_opt: float
    fano_opt: float
    evaluations: int


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the swept value, its moments, leading pmf terms, or
    the error message that prevented evaluation."""

    value: float
    moments: MomentSummary | None
    pmf_head: tuple | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple


def fano_ratio(mu: float, eta_h: float, eta_s: float, d_h: float) -> float:
    """(Delta n)^2 / <n> for a Poisson source at pump level mu."""
    return _fano(SourceParams(mu, eta_h, eta_s, d_h), mu)


def _fano(point: SourceParams, mu: float) -> float:
    """:func:`fano_ratio` at point's eta_h, eta_s and d_h, mu not validated."""
    fano = _moments((_POISSON, mu, point.d_h, 0.0), point).fano
    if fano is None:
        raise ValidationError("Fano ratio undefined: the mean photon number is zero")
    return fano


def optimize_mu(
    eta_h: float,
    eta_s: float,
    d_h: float,
    bounds: tuple[float, float] = (1e-6, 10.0),
    rel_tol: float = 1e-4,
) -> OptimizeResult:
    """Minimize the Fano ratio over the pump level mu.

    Golden-section search on log(mu) down to a relative width rel_tol.
    The bracket is validated first: an interior probe must beat both ends,
    otherwise the search would silently slide to a boundary.  When the probe
    fails, a 16-point log-spaced scan picks the probe and shrinks the bracket
    around its minimum; only a scan minimal at an end raises BracketError.
    """
    mu_lo, mu_hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < mu_lo < mu_hi:
        raise ValidationError(f"need 0 < mu_lo < mu_hi, got {bounds!r}")
    if d_h <= 0.0:
        raise ValidationError(
            "optimal dimming needs d_h > 0: without dark counts the Fano "
            "ratio has no interior minimum (its infimum sits at mu = 0)"
        )
    if not rel_tol > 0.0:
        raise ValidationError(f"rel_tol must be > 0, got {rel_tol!r}")
    point = SourceParams(mu_hi, eta_h, eta_s, d_h)   # validated once: every probed mu <= mu_hi

    evaluations = 0

    def objective(log_mu: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _fano(point, math.exp(log_mu))

    a, b = math.log(mu_lo), math.log(mu_hi)
    f_lo, f_hi = objective(a), objective(b)
    probe = b - (b - a) * _INV_PHI
    f_probe = objective(probe)
    if not (f_probe < f_lo and f_probe < f_hi):
        # the probe cannot vouch for the bracket: scan it for the minimum
        grid = [a + (b - a) * i / 15 for i in range(16)]
        values = [f_lo] + [objective(x) for x in grid[1:-1]] + [f_hi]
        k = min(range(16), key=values.__getitem__)
        if k in (0, 15):
            raise BracketError(
                f"no interior minimum in [{mu_lo!r}, {mu_hi!r}]: the probe failed and "
                "a 16-point scan is minimal at an end; widen the bracket"
            )
        a, b = grid[k - 1], grid[k + 1]
        probe, f_probe = grid[k], values[k]

    # golden-section refinement on [a, b] with one interior point warm
    c = a + (b - a) * (1.0 - _INV_PHI)
    d = a + (b - a) * _INV_PHI
    f_c = f_probe if math.isclose(probe, c) else objective(c)
    f_d = objective(d)
    # a rel_tol below the spacing of doubles ends where the points collapse
    while (b - a) > rel_tol and a < c < d < b:
        if f_c < f_d:
            b, d, f_d = d, c, f_c
            c = a + (b - a) * (1.0 - _INV_PHI)
            f_c = objective(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + (b - a) * _INV_PHI
            f_d = objective(d)
    log_opt = (a + b) / 2.0
    mu_opt = math.exp(log_opt)
    return OptimizeResult(
        mu_opt=mu_opt,
        fano_opt=_fano(point, mu_opt),
        evaluations=evaluations,
    )


def sweep(
    params: SourceParams,
    stat: PairStatistics = PairStatistics.POISSON,
    filt: FilterSpec = NO_FILTER,
    axis: str = "mu",
    grid: tuple = (),
) -> SweepResult:
    """Evaluate moments and leading pmf terms along one parameter axis.

    Each point costs O(1): closed moments and the first PMF_HEAD terms of
    the heralded law, with no pmf truncation.  Points are evaluated
    independently and in grid order; a point that raises a domain error is
    marked failed instead of aborting the sweep.  A configuration that fails
    at every point (a thermal source behind a mode filter) is refused.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValidationError("sweep grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("sweep grid must be strictly increasing")
    _describe(stat, params, filt)   # raises for a configuration no point can take

    rows = []
    for value in grid:
        try:
            point = params if axis == "f" else replace(params, **{axis: value})
            point_filt = replace(filt, f=value) if axis == "f" else filt
            rows.append(SweepRow(value, *heralded_head(stat, point, point_filt, PMF_HEAD)))
        except HspsError as exc:
            rows.append(SweepRow(value, None, None, error=str(exc)))
    return SweepResult(axis=axis, rows=tuple(rows))

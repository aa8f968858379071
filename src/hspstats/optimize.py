"""Optimal dimming and parameter sweeps.

The Fano ratio (Delta n)^2/<n> of a heralded Poisson source tends to 1 both
as mu -> 0 (dark counts dominate) and as mu grows (vacuum suppression is
lost), with a single interior minimum.  ``optimize_mu`` locates it by
Brent's method on log(mu), parabolic steps with golden-section fallback;
``sweep`` tabulates moments and leading pmf terms along one parameter axis.
"""

import math
from dataclasses import dataclass

from .analytic import _POISSON, _describe, _head, _moments
from .errors import BracketError, HspsError, ValidationError
from .model import (
    NO_FILTER,
    FilterSpec,
    MomentSummary,
    PairStatistics,
    SourceParams,
)

__all__ = ["optimize_mu", "sweep"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

SWEEP_AXES = ("mu", "eta_h", "eta_s", "d_h", "f")

# leading pmf terms p(0)..p(PMF_HEAD - 1) kept per sweep row
PMF_HEAD = 4

# relative width of mu at which the search stops
REL_TOL = 1e-4


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of the one-dimensional dimming optimization."""

    mu_opt: float
    fano_opt: float
    evaluations: int


@dataclass(frozen=True, init=False)
class SweepRow:
    """One grid point: the swept value, its moments, leading pmf terms, or
    the error message that prevented evaluation."""

    value: float
    moments: MomentSummary | None
    pmf_head: tuple | None
    error: str | None = None

    def __init__(self, value: float, moments: MomentSummary | None, pmf_head: tuple | None,
                 error: str | None = None):
        fields = self.__dict__
        fields["value"], fields["moments"], fields["pmf_head"], fields["error"] = (
            value, moments, pmf_head, error)


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple


def _fano(point: SourceParams, mu: float) -> float:
    """Fano ratio (Delta n)^2 / <n> of a Poisson source at pump level mu and
    point's eta_h, eta_s and d_h, mu not validated."""
    fano = _moments((_POISSON, mu, point.d_h, 0.0), point).fano
    if fano is None:
        raise ValidationError("Fano ratio undefined: the mean photon number is zero")
    return fano


def optimize_mu(
    eta_h: float,
    eta_s: float,
    d_h: float,
    bounds: tuple[float, float] = (1e-6, 10.0),
) -> OptimizeResult:
    """Minimize the Fano ratio over the pump level mu.

    Brent's method on log(mu) down to a relative width REL_TOL (see
    :func:`_minimize`).  The ratio is 1 at every mu when the herald carries no
    information (eta_h = 0 or d_h = 1): such a herald is refused.
    """
    mu_lo, mu_hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < mu_lo < mu_hi:
        raise ValidationError(f"need 0 < mu_lo < mu_hi, got {bounds!r}")
    if d_h <= 0.0:
        raise ValidationError(
            "optimal dimming needs d_h > 0: without dark counts the Fano "
            "ratio has no interior minimum (its infimum sits at mu = 0)"
        )
    if eta_h == 0.0 or d_h == 1.0:
        raise ValidationError(
            "optimal dimming needs eta_h > 0 and d_h < 1: otherwise the herald "
            "does not depend on the pair number and the Fano ratio is 1 at every mu"
        )
    point = SourceParams(mu_hi, eta_h, eta_s, d_h)   # validated once: every probed mu <= mu_hi
    mu_opt, fano_opt, evaluations = _minimize(lambda mu: _fano(point, mu), mu_lo, mu_hi)
    return OptimizeResult(mu_opt=mu_opt, fano_opt=fano_opt, evaluations=evaluations)


def _minimize(objective, mu_lo: float, mu_hi: float):
    """(mu, objective(mu), evaluations) at the best mu evaluated on [mu_lo, mu_hi].

    Brent's method on x = log(mu): parabolic steps through the three best
    points, golden-section steps when a parabola would leave the bracket or
    fail to halve the step before last.  The bracket is validated first: an
    interior probe must beat both ends, otherwise the search would silently
    slide to a boundary.  When the probe fails, a scan at least 16 points and
    at most a decade apart picks the sub-bracket of its minimum; only a scan
    minimal at an end raises BracketError.  The search stops once the bracket
    is at most REL_TOL wide.
    """
    evaluations = 0

    def f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return objective(math.exp(x))

    a, b = math.log(mu_lo), math.log(mu_hi)
    f_a, f_b = f(a), f(b)
    x = b - (b - a) * _INV_PHI
    f_x = f(x)
    if not (f_x < f_a and f_x < f_b):
        # the probe cannot vouch for the bracket: scan it for the minimum
        n = max(16, math.ceil((b - a) / math.log(10.0)) + 1)
        grid = [a + (b - a) * i / (n - 1) for i in range(n)]
        values = [f_a] + [f(g) for g in grid[1:-1]] + [f_b]
        k = min(range(n), key=values.__getitem__)
        if k in (0, n - 1):
            raise BracketError(
                f"no interior minimum in [{mu_lo!r}, {mu_hi!r}]: the probe failed and "
                f"a {n}-point scan is minimal at an end; widen the bracket"
            )
        a, b, x, f_x = grid[k - 1], grid[k + 1], grid[k], values[k]

    # w, v: the second and third best points; step, prev: the last two steps
    w = v = x
    f_w = f_v = f_x
    step = prev = 0.0
    tol = REL_TOL / 4.0
    while abs(x - (a + b) / 2.0) > 2.0 * tol - (b - a) / 2.0:
        mid = (a + b) / 2.0
        p = q = 0.0
        if abs(prev) > tol:
            r = (x - w) * (f_x - f_v)
            q = (x - v) * (f_x - f_w)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(p) < abs(q * prev / 2.0) and q * (a - x) < p < q * (b - x):
            prev, step = step, p / q
            if min(x + step - a, b - x - step) < 2.0 * tol:
                step = math.copysign(tol, mid - x)
        else:
            prev = (a if x >= mid else b) - x
            step = (1.0 - _INV_PHI) * prev
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        f_u = f(u)
        if f_u <= f_x:
            a, b = (x, b) if u >= x else (a, x)
            v, f_v, w, f_w, x, f_x = w, f_w, x, f_x, u, f_u
        else:
            a, b = (a, u) if u >= x else (u, b)
            if f_u <= f_w or w == x:
                v, f_v, w, f_w = w, f_w, u, f_u
            elif f_u <= f_v or v in (x, w):
                v, f_v = u, f_u
    return math.exp(x), f_x, evaluations


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
    marked failed instead of aborting the sweep, and keeps its moments when
    only its pmf terms are refused.  A configuration that fails
    at every point (a thermal source behind a mode filter) is refused.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValidationError("sweep grid must not be empty")
    if any(not a < b for a, b in zip(grid, grid[1:])):   # also true for nan
        raise ValidationError("sweep grid must be strictly increasing")
    _describe(stat, params, filt)   # raises for a configuration no point can take

    args = [params.mu, params.eta_h, params.eta_s, params.d_h]   # SWEEP_AXES order
    slot = SWEEP_AXES.index(axis)
    rows = []
    for value in grid:
        moments = head = error = None
        try:
            if axis == "f":
                point, point_filt = params, FilterSpec(filt.branch, value)
            else:
                args[slot] = value
                point, point_filt = SourceParams(*args), filt
            desc = _describe(stat, point, point_filt)
            moments = _moments(desc, point)
            head = _head(desc, point, PMF_HEAD)
        except HspsError as exc:
            error = str(exc)
        rows.append(SweepRow(value, moments, head, error))
    return SweepResult(axis=axis, rows=tuple(rows))

"""Error-bound machinery: moduli of continuity, Lipschitz gauges, total
variation, and the bounded-variation convergence bound.

All smoothness gauges are grid under-estimates that converge to the true
supremum from below as the grid step shrinks; every estimate reports the
step it was computed with.  Total variation is a running sum of |df| along
one partition, so the bounded-variation bound reads all its nested
intervals off a single pass, and one partition per x serves every u of a
row (_dbv_bounds).  Functions that take arrays are evaluated on a whole
grid in one call, others point by point.
"""
from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import _check_point, _check_whole
from .moments import MomentPoly, central_moment, zeta_sq
from .operator import _apply_grid, apply
from .targets import TargetFunction, map_scalar

# Slack for rounding when a realized error is compared with its bound.
CHECK_TOL = 1e-9
_DELTA_N = MomentPoly(2, {(1, 1): 2, (0, 2): 3}, "delta_n = mu_2 + 1/u^2 overflows")


def _grid_values(g, ts: np.ndarray) -> np.ndarray:
    """g on the grid ts, in one call if g takes arrays, else point by point.
    A value that is not finite is refused, naming the first t where it is."""
    try:
        vals = np.asarray(g(ts), dtype=np.float64)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != ts.shape:
        vals = map_scalar(g, ts)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"function is not finite at t = {float(ts[i])!r}: {vals[i]}")
    return vals


@dataclass(frozen=True)
class ModulusEstimate:
    delta: float
    value: float
    grid_step: float
    domain: tuple[float, float]


def _uniform_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi; refuses a domain or step that is not
    finite, an empty domain and a step that is not positive."""
    if not (-math.inf < lo < hi < math.inf):
        raise ValueError(f"domain [{lo}, {hi}] must be finite and nonempty")
    if not (0.0 < step < math.inf):
        raise ValueError(f"grid step must be positive and finite, got {step}")
    return np.arange(lo, hi + 0.5 * step, step)


def _modulus_grid(delta: float, domain, step):
    if not (0.0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    lo, hi = domain if domain is not None else (0.0, 2.5 + 4.0 * delta)
    step = step if step is not None else delta / 64.0
    if step > delta / 8.0:
        raise ValueError("grid step must be <= delta/8")
    ts = _uniform_grid(lo, hi, step)
    return ts, step, (lo, hi), int(math.floor(delta / step + 1e-9))


def modulus(g, delta: float, domain=None, step=None) -> ModulusEstimate:
    """First modulus of continuity: sup |g(y) - g(x)| over |y - x| <= delta."""
    ts, step, dom, shifts = _modulus_grid(delta, domain, step)
    vals = _grid_values(g, ts)
    # the largest gap within shifts + 1 consecutive points is their range
    width = min(shifts + 1, len(vals))
    windows = sliding_window_view(vals, width)
    best = float(np.max(windows.max(axis=1) - windows.min(axis=1)))
    return ModulusEstimate(delta, best, step, dom)


def second_modulus(g, delta: float, domain=None, step=None) -> ModulusEstimate:
    """Second modulus: sup |g(x+h) - 2g(x) + g(x-h)| over 0 <= h <= delta, x +- h in the domain."""
    ts, step, dom, shifts = _modulus_grid(delta, domain, step)
    shifts = min(shifts, (len(ts) - 1) // 2)
    if not shifts:
        raise ValueError(f"second modulus at delta={delta}: no shift fits in the domain {dom}")
    vals = _grid_values(g, ts)
    best = 0.0
    for k in range(1, shifts + 1):
        d2 = vals[2 * k :] - 2.0 * vals[k:-k] + vals[: -2 * k]
        best = max(best, float(np.max(np.abs(d2))))
    return ModulusEstimate(delta, best, step, dom)


@dataclass(frozen=True)
class KFunctionalBound:
    """Pieces of the second-order bound |B(g;x) - g(x)| <= C*w2 + w.

    The multiplier C is not pinned by the theory, so only the two modulus
    components and the widths they were evaluated at are reported; callers
    combine them with their own constant.
    """

    delta_n: float
    gamma_n: float
    omega2_component: float
    omega_component: float

    def combined(self, c: float = 1.0) -> float:
        return c * self.omega2_component + self.omega_component


def kfunctional_bound(g, u: float, x: float, domain=None, step=None) -> KFunctionalBound:
    """Second-modulus error decomposition at (u, x).

    delta_n adds 1/u^2 to the second central moment, the extra term the
    shifted auxiliary operator picks up, 2x/u + 3/u^2 correctly rounded;
    gamma_n is the first central moment 1/u.
    """
    delta_n = _DELTA_N.evaluate(u, x)
    gamma_n = 1.0 / u
    w2 = second_modulus(g, math.sqrt(delta_n) / 2.0, domain=domain, step=step)
    w1 = modulus(g, gamma_n, domain=domain, step=step)
    return KFunctionalBound(delta_n, gamma_n, w2.value, w1.value)


def lipschitz_maximal(g, s: float, x: float, domain=None, step=None) -> float:
    """Grid estimate of sup_{t != x} |g(t) - g(x)| / |t - x|^s.

    Under-estimates the true supremum; tightens as the step shrinks.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"order s must lie in (0, 1], got {s}")
    _check_point(1.0, x)  # takes no u
    lo, hi = domain if domain is not None else (0.0, max(2.5, x + 1.0))
    step = step if step is not None else (hi - lo) / 4096.0
    ts = _uniform_grid(lo, hi, step)
    vals = _grid_values(g, ts)
    gx = float(g(x))
    dist = np.abs(ts - x)
    keep = dist > 0.5 * step
    return float(np.max(np.abs(vals[keep] - gx) / dist[keep] ** s))


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


def lipschitz_bound_check(g: TargetFunction, s: float, u: float, x: float) -> BoundCheck:
    """Check |B(g;x) - g(x)| <= tau_s(g,x) * (second central moment)^{s/2}."""
    return _lipschitz_check(g, s, u, x, lipschitz_maximal(g, s, x))


def _lipschitz_check(g, s: float, u: float, x: float, gauge: float) -> BoundCheck:
    """lipschitz_bound_check with tau_s(g, x) given, so a caller checking
    several u at one x estimates it once."""
    lhs = abs(apply(g, u, x).value - float(g(x)))
    rhs = gauge * central_moment(u, x, 2) ** (s / 2.0)
    return BoundCheck(lhs, rhs, lhs <= rhs + CHECK_TOL)


def lip_space_bound(
    M: float, m1: float, m2: float, s: float, u: float, x: float
) -> float:
    """Bound M * (second central moment / (x(x m1 + m2)))^{s/2}.

    At x = 0 or x m1 + m2 <= 0 the bound is vacuous: a ValueError.  Where
    the quotient or its denominator leaves the double range the power is
    taken in logs, so only a bound that overflows itself is refused, with an
    OverflowError.
    """
    if not (0.0 < M < math.inf):
        raise ValueError(f"constant M must be positive and finite, got {M}")
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise ValueError(f"m1 and m2 must be finite, got m1={m1}, m2={m2}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"order s must lie in (0, 1], got {s}")
    _check_point(u, x)
    inner = x * m1 + m2
    if not (x > 0.0 and inner > 0.0):
        raise ValueError(f"bound is vacuous: x(x*m1 + m2) = {x * inner} <= 0")
    mu2, denom = central_moment(u, x, 2), x * inner
    ratio = mu2 / denom if denom else math.inf if mu2 else 0.0  # x(x m1 + m2) underflowed
    if ratio == math.inf or 0.0 < mu2 and ratio < sys.float_info.min:
        try:  # mu_2 = 2e300 over 1e-200, say: the quotient overflows, its root does not
            ln_ratio = math.log(mu2) - math.log(x) - math.log(inner)
            bound = math.exp(math.log(M) + s / 2.0 * ln_ratio)
        except OverflowError:
            bound = math.inf
    else:
        bound = M * ratio ** (s / 2.0)
    if bound == math.inf:
        raise OverflowError(f"Lipschitz-space bound overflows at u={u}, x={x}")
    return bound


# ---------------------------------------------------------------------------
# total variation and the bounded-variation bound

@dataclass(frozen=True)
class TotalVariationEstimate:
    interval: tuple[float, float]
    value: float
    samples: int


def _cumulative_variation(f, lo, hi, samples, breakpoints, ends=()):
    """Partition [lo, hi] and return (grid, cum), cum the running |df| sum.

    The sorted grid holds `samples` uniform points, the given ends and each
    breakpoint bracketed within 1e-6, repeats kept (each adds an exact 0); f
    takes it in one call, or one point per call if it only takes scalars.
    The variation between grid points a <= b is cum[b] - cum[a]."""
    if not (-math.inf < lo <= hi < math.inf):
        raise ValueError(f"interval [{lo}, {hi}] must be finite with lo <= hi")
    samples = _check_whole(samples, "samples", 2)
    brackets = [
        t for bp in breakpoints for t in (bp - 1e-6, bp, bp + 1e-6) if lo < t < hi
    ]
    grid = np.sort(np.concatenate((np.linspace(lo, hi, samples), ends, brackets)))
    vals = _grid_values(f, grid)
    return grid, np.concatenate(([0.0], np.cumsum(np.abs(np.diff(vals)))))


def total_variation(
    f: Callable[[float], float],
    interval: tuple[float, float],
    samples: int = 2048,
    breakpoints: Sequence[float] = (),
) -> TotalVariationEstimate:
    """Variation sum over a uniform partition, refined near breakpoints.

    f takes the whole partition in one call if it accepts arrays.  Exact for
    piecewise-monotone f whose breakpoints are declared; otherwise an
    under-estimate that converges from below as samples grows.
    """
    a, b = float(interval[0]), float(interval[1])
    grid, cum = _cumulative_variation(f, a, b, samples, breakpoints)
    return TotalVariationEstimate((a, b), float(cum[-1]), 1 + int(np.count_nonzero(np.diff(grid))))


@dataclass(frozen=True)
class DbvSpec:
    """A target with derivative of bounded variation.

    gprime_left / gprime_right supply the one-sided derivatives everywhere
    (they agree away from breakpoints); breakpoints lists where g' jumps.
    """

    g: TargetFunction
    gprime_left: Callable[[float], float]
    gprime_right: Callable[[float], float]
    breakpoints: tuple[float, ...] = ()


def recentered_derivative(spec: DbvSpec, x: float) -> Callable:
    """Derivative recentered at x: g'(t) - g'(x-) below x, 0 at x, and
    g'(t) - g'(x+) above x.  Affine pieces collapse to 0, so its variation
    isolates the genuinely curved/jumpy part of g'.  The result takes a
    scalar t, and an array t when spec.gprime_right takes arrays."""
    return _recentered(spec, x, float(spec.gprime_left(x)), float(spec.gprime_right(x)))


def _recentered(spec: DbvSpec, x: float, left_ref: float, right_ref: float) -> Callable:
    """recentered_derivative with g'(x-) = left_ref and g'(x+) = right_ref given."""
    def h(t):
        t = np.asarray(t, dtype=np.float64)
        d = spec.gprime_right(t)
        out = np.where(t < x, d - left_ref, np.where(t > x, d - right_ref, 0.0))
        return out if out.ndim else float(out)

    return h


@dataclass(frozen=True)
class DbvBound:
    """Bounded-variation error bound split into its six summands."""

    derivative_mean: float
    derivative_jump: float
    variation_left_sum: float
    variation_left_edge: float
    variation_right_edge: float
    variation_right_sum: float
    total: float

    def terms(self) -> tuple[float, ...]:
        return astuple(self)[:-1]


def dbv_bound(
    spec: DbvSpec, u: float, x: float, tv_samples: int = 2048
) -> DbvBound:
    """Error bound for targets with derivative of bounded variation.

    The variation sums run j = 1..floor(sqrt(u)): the printed form starts
    the sum at j = 0 where the interval endpoint x/j is undefined, and j = 1
    reproduces the integral-to-sum estimate the bound comes from.

    Every variation runs over [x - r, x] or [x, x + r], r = x/j or x/sqrt(u),
    so all are read off one partition of [0, 2x] holding every interval end:
    O(tv_samples + sqrt(u)) points, on which a g' that takes arrays is called
    once and any other once per point.  Exact for piecewise-monotone
    g' with declared breakpoints, else under-estimates that rise to the true
    variation as tv_samples grows.  This is the one-u row of _dbv_bounds,
    whose one partition per x serves every u of a row.
    """
    return _dbv_bounds(spec, (u,), x, tv_samples)[0]


def _dbv_bounds(spec: DbvSpec, us, x: float, tv_samples: int = 2048) -> list[DbvBound]:
    """dbv_bound at each u of us and one x, all read off one partition of
    [0, 2x] that holds the interval ends of every u (repeats kept, each adds
    an exact 0).  With one u it is dbv_bound's partition, bit for bit; with
    more, each u's variations are taken on a refinement of its own, so an
    exact variation keeps its bits and an under-estimate can only rise."""
    for u in us:
        _check_point(u, x)
    if not (x > 0.0):
        raise ValueError("bound has 1/x factors; x must be positive")
    if not all(u > 1.0 for u in us):
        raise ValueError("need u > 1 so that x - x/sqrt(u) > 0")
    dl = float(spec.gprime_left(x))
    dr = float(spec.gprime_right(x))
    # per u the radii x/1, ..., x/floor(sqrt(u)), then the edge radius x/sqrt(u)
    rts = [math.sqrt(u) for u in us]
    radii = [x / np.append(np.arange(1.0, math.floor(rt) + 1.0), rt) for rt in rts]
    ends = [np.concatenate((x - r, x + r, [x])) for r in radii]
    h = _recentered(spec, x, dl, dr)
    bps = tuple(spec.breakpoints) + (x,)
    grid, cum = _cumulative_variation(h, 0.0, 2.0 * x, tv_samples, bps,
                                      np.concatenate(ends))
    out = []
    for u, rt, r, e in zip(us, rts, radii, ends):
        at_ends = cum[np.searchsorted(grid, e)]  # lefts, rights, then x
        left_tv = at_ends[-1] - at_ends[:len(r)]
        right_tv = at_ends[len(r):-1] - at_ends[-1]
        z2 = zeta_sq(u, x)
        sum_weight = 2.0 * z2 / (x * u)
        terms = (
            abs(dr + dl) / (2.0 * u),
            math.sqrt(1.0 / (2.0 * u)) * abs(dr - dl) * math.sqrt(z2),
            sum_weight * float(np.sum(left_tv[:-1])),
            (x / rt) * float(left_tv[-1]),
            (x / rt) * float(right_tv[-1]),
            sum_weight * float(np.sum(right_tv[:-1])),
        )
        out.append(DbvBound(*terms, total=sum(terms)))
    return out


@dataclass(frozen=True)
class DbvCheck:
    lhs: float
    bound: DbvBound
    holds: bool


def dbv_empirical_check(spec: DbvSpec, u: float, x: float) -> DbvCheck:
    """Compare the realized error |B(g;x) - g(x)| with the variation bound."""
    return _dbv_checks(spec, (u,), x)[0]


def _dbv_checks(spec: DbvSpec, us, x: float) -> list[DbvCheck]:
    """dbv_empirical_check at each u of us and one x, the bounds read off one
    partition (_dbv_bounds)."""
    values = [apply(spec.g, u, x).value for u in us]
    gx = float(spec.g(x))
    return [DbvCheck(abs(v - gx), bound, abs(v - gx) <= bound.total + CHECK_TOL)
            for v, bound in zip(values, _dbv_bounds(spec, us, x))]


def korovkin_sup_error(g: TargetFunction, u: float, x_grid) -> float:
    """sup over the grid of |B(g;x) - g(x)|, the quantity whose decay in u
    certifies uniform convergence on compacts.  The operator runs first on
    the whole grid (one array call), so a NaN, infinite or negative x, or
    an empty grid, is refused before g is evaluated."""
    return _korovkin_sup_errors(g, (u,), x_grid)[0]


def _korovkin_sup_errors(g: TargetFunction, us, x_grid) -> list[float]:
    """korovkin_sup_error at each u of us from one operator call, with the us
    as a column against the grid; a row equals its lone-u call (see
    operator._closed_form_grid)."""
    xs = np.asarray(x_grid, dtype=np.float64)
    values = _apply_grid(g, np.array(us, dtype=np.float64)[:, None], xs)
    return np.max(np.abs(values - _grid_values(g, xs)), axis=-1).tolist()

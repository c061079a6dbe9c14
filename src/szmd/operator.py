"""Evaluation of the operator, its truncated variant, and its kernel.

The operator value at (g, u, x) is u * sum_j s_{u,j}(x) * I_j(g) where
I_j(g) is the inner integral of the basis against g.  Mixing the Poisson
weights over j gives every exp-poly term the closed form

    B(t^m e^{at}; x) = u (u-a)^{-(m+1)} e^{uax/(u-a)} sum_l A_m[l] L^l,

with L = u^2 x/(u-a) and A_m = raw_moment_lambda_coeffs(m), so structured
targets never sum the series.  The sum is taken in log space from ln L
(moments._log_moment_sum), so every power and u give a value where it is
finite.  apply takes it at one point with math (_closed_form), with its
rounding budget; a grid of (u, x) points, such as every u series of
make_curves at once, takes its array twin (_closed_form_grid), values only,
in one numpy call, which costs more than the scalar form at one point and
far less on a grid.  The same sum is the kernel integral
B(g; x) = int_0^inf K(x,t) g(t) dt, K(x,t) = u sum_j s_{u,j}(x) s_{u,j}(t),
whose Bessel closed form lets a black box be integrated against it by one
adaptive quadrature; the quadrature takes the kernel in an array form
(_kernel_values), so a round is one array call for a whole grid.  The
series is summed only for the fixed-J truncation study.  Every value ships
with a bound on what its evaluation neglected or rounded.  The kernel's
distribution function has a noncentral chi-square closed form.

i0e and chndtr are bound on first call (basis._special_on_first_call): only
the kernel, its array form and its CDF use scipy.special, so apply on a
structured target, make_error_table and make_curves without J never load it.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis import _check_point, _check_whole, _special_on_first_call, log_weights, tail_mass
from .moments import _LN_DBL_MAX, _log_moment_sum, _log_moment_sum_grid
from .quadrature import ConvergenceFailure, DivergentIntegral, kernel_integral, log_exppoly_integrals
from .targets import TargetFunction, exppoly_terms

_EPS = sys.float_info.epsilon
_DBL_MIN = sys.float_info.min
_LN_TINY = math.log(_DBL_MIN * _EPS)  # the smallest subnormal
_TILT_CUT = 50.0  # e-folds of the tilted kernel kept past its mode


chndtr, i0e = _special_on_first_call(globals(), "chndtr", "i0e")


class OperatorOverflow(OverflowError):
    """The operator value, a partial sum of its series, or a black box
    inside its integration window lies beyond the double-precision range."""


@dataclass(frozen=True)
class SequenceRule:
    """Maps the index n to the operator parameter u_n.

    Built-in shapes are u_n = n^p (p = 1 recovers the plain index rule) and
    an explicit list.  Sequences must be finite and strictly increasing
    with first value >= 1.
    """

    kind: str
    power: float = 1.0
    explicit_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "power":
            if not (0.0 < self.power < math.inf):
                raise ValueError(f"power rule n^{self.power} needs a positive finite exponent")
        elif self.kind == "explicit":
            vals = self.explicit_values  # NaN fails every comparison below
            if not (vals and 1.0 <= vals[0] and vals[-1] < math.inf
                    and all(a < b for a, b in zip(vals, vals[1:]))):
                raise ValueError(f"explicit rule {list(vals)} must be finite, "
                                 "strictly increasing and start at >= 1")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "SequenceRule":
        return cls("power", 1.0)

    @classmethod
    def from_power(cls, p: float) -> "SequenceRule":
        return cls("power", p)

    @classmethod
    def from_explicit(cls, values) -> "SequenceRule":
        return cls("explicit", explicit_values=tuple(float(v) for v in values))

    def u_value(self, n: int) -> float:
        n = _check_whole(n, "sequence index n", 1)
        if self.kind == "power":
            try:
                return float(n) ** self.power
            except OverflowError:
                raise ValueError(f"u = {n}^{self.power:g} leaves the double range") from None
        if n > len(self.explicit_values):
            raise ValueError(
                f"explicit rule has {len(self.explicit_values)} values, got n={n}"
            )
        return self.explicit_values[n - 1]

    def values(self, ns) -> list[float]:
        return [self.u_value(n) for n in ns]

    @property
    def label(self) -> str:
        if self.kind == "explicit":
            return "explicit"
        if self.power == 1.0:
            return "n"
        return f"n^{self.power:g}"


def parse_rule(text: str) -> SequenceRule:
    """Parse 'n', 'n1.5', 'n^2', or 'explicit:1,2,4'."""
    s = text.strip().lower()
    explicit = s.startswith("explicit:")
    if explicit:
        fields = [v for v in s.split(":", 1)[1].split(",") if v.strip()]
    else:
        fields = [(s[1:] or "1").lstrip("^") if s.startswith("n") else ""]
    try:
        vals = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"cannot parse sequence rule {text!r}") from None
    return SequenceRule.from_explicit(vals) if explicit else SequenceRule.from_power(vals[0])


@dataclass(frozen=True)
class OperatorValue:
    """Operator value plus an honest account of what was neglected.

    apply: no series is summed, so series_terms_used = 0 and tail_mass =
    0.0.  For a structured target tail_bound is the rounding budget of the
    log-space closed form (see _closed_form), never 0 for a nonzero value;
    for a black box it is 0.0 and inner_integral_error is the error
    estimate of its kernel integral.

    apply_truncated (structured targets only): series_terms_used = J + 1 and
    tail_mass is the Poisson weight mass beyond J, which can be large when J
    sits below the mode ux.  tail_bound covers the distance from the returned
    value to the exact operator value: the closed form of the |g|-majorant
    minus its partial sum to J, plus the rounding budgets of both, counted
    once for the majorant and once for the value, so it also covers the
    distance to the closed form.

    inner_integral_error is 0.0 for structured targets.
    """

    value: float
    series_terms_used: int
    tail_mass: float
    tail_bound: float
    inner_integral_error: float


def _closed_form(u: float, x: float, terms) -> tuple[float, float]:
    """sum_k c_k B(t^m_k e^{a_k t}; x) and its rounding budget.

    Each term is exp of the parts ln|c| - m ln u + (m+1) ln(u/(u-a)) + the
    tilt (u/(u-a)) a x + P, P = moments._log_moment_sum of ln L = ln u + ln x
    + ln(u/(u-a)), so nothing overflows while the sum is finite.  With each
    operation, log and exp off by at most eps_mach relative, the first four
    parts are off by at most 2 eps_mach times their magnitude plus (m+1)
    eps_mach; ln L by eps_mach (2S + 1), S = |ln u| + |ln x| + |ln(u/(u-a))|;
    P by eps_mach (2P + 2.5(m+1) + 3mS) plus m times ln L's error (P's
    derivative in ln L is its mean power, at most m; where L = 0 it is 0); the
    exactly rounded sum by half an eps_mach of the parts' magnitudes.  exp
    turns this into a relative error, and joining K terms adds (2 + K)
    eps_mach, so the budget is eps_mach * sum_k |c_k| B_k * (2.5 * sum of the
    parts' magnitudes + 5mS + 5(m+1) + 2 + K), without 5mS where L = 0.  Below the normal range eps_mach scales the sum first, and (1 + the
    terms' summed weights) smallest subnormals cover the rounding onto their
    grid.  Raises OperatorOverflow when sum_k |c_k| B_k overflows.
    """
    logs, signs, conds = [], [], []
    ln_u = math.log(u)
    ln_x = math.log(x) if x else -math.inf
    for c, m, a in terms:
        if c == 0.0:
            continue
        ratio = u / (u - a)
        ln_ratio = math.log(ratio) if ratio else -math.inf  # 0 only for a subnormal u
        ln_l = ln_u + ln_x + ln_ratio
        parts = (math.log(abs(c)), -m * ln_u, (m + 1) * ln_ratio, ratio * a * x,
                 _log_moment_sum(m, ln_l))
        logs.append(math.fsum(parts))
        signs.append(math.copysign(1.0, c))
        drift = 5.0 * m * (abs(ln_u) + abs(ln_x) + abs(ln_ratio)) if ln_l > -math.inf else 0.0
        conds.append(2.5 * sum(map(abs, parts)) + drift + 5.0 * (m + 1) + 2.0 + len(terms))
    if not logs:
        return 0.0, 0.0
    top = max(logs)
    weights = [math.exp(lg - top) for lg in logs]
    log_scale = top + math.log(sum(weights))
    big = math.exp(top) if log_scale <= _LN_DBL_MAX else math.inf
    value = big * sum(s * w for s, w in zip(signs, weights))
    if not math.isfinite(value):
        raise OperatorOverflow(
            f"operator value overflows: ln sum|c_k| B_k = {log_scale:.6g}"
        )
    cond = sum(w * k for w, k in zip(weights, conds))
    if big >= sys.float_info.min:
        return value, _EPS * big * cond
    return value, big * (_EPS * cond) + math.ulp(0.0) * (1.0 + sum(weights))


def _closed_form_grid(u, xs: np.ndarray, terms) -> np.ndarray:
    """_closed_form's value over the 1-d array xs >= 0 and u, one value or an
    array that broadcasts against xs, such as a column of u.

    The parts are _closed_form's (P by moments._log_moment_sum_grid), added in
    turn rather than exactly rounded, so a value can differ from _closed_form's
    in its last bits, within _closed_form's budget at its point, but not from
    a call with its u alone.  Raises OperatorOverflow, naming (u, x), when
    sum_k |c_k| B_k exceeds the double range."""
    u = np.asarray(u, dtype=np.float64)
    logs, signs = [], []
    # refused below if not finite; ln 0 = -inf at x = 0 and at u/(u-a) = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ln_u, ln_x = np.log(u), np.log(xs)
        for c, m, a in terms:
            if c == 0.0:
                continue
            ratio = u / (u - a)
            ln_ratio = np.log(ratio)
            ln_l = ln_u + ln_x + ln_ratio
            logs.append(math.log(abs(c)) - m * ln_u + (m + 1) * ln_ratio + ratio * a * xs
                        + _log_moment_sum_grid(m, ln_l))
            signs.append(math.copysign(1.0, c))
        if not logs:
            return np.zeros(np.broadcast(u, xs).shape)
        top = functools.reduce(np.maximum, logs)
        weights = [np.exp(lg - top) for lg in logs]
        log_scale = top + np.log(functools.reduce(np.add, weights))
        big = np.where(log_scale <= _LN_DBL_MAX, np.exp(top), np.inf)
        value = big * functools.reduce(np.add, [s * w for s, w in zip(signs, weights)])
    bad = ~np.isfinite(value)
    if bad.any():
        k = int(np.argmax(bad))
        at_u, at_x = (np.broadcast_to(v, value.shape).flat[k] for v in (u, xs))
        raise OperatorOverflow(f"operator value overflows at u={at_u}, x={at_x}: "
                               f"ln sum|c_k| B_k = {log_scale.flat[k]:.6g}")
    return value


def _partial_sums(u: float, x: float, terms, j_last: int) -> tuple[float, float, float]:
    """Series cut after j_last for sum_k c_k t^m e^{at}: the value, the same
    with |c_k| (the majorant), and the majorant's rounding budget.

    A term exp(ln s_j + ln I_j) is off, relative, by at most 2 eps_mach
    times the summed magnitudes of the parts of its exponent: |ln s_j| and
    the parts j + ux that cancel inside its Poisson deviance; |ln I_j| and
    the parts m ln(j+m+1) and (m+1)|ln(u-a)| that can cancel against
    j ln(u/(u-a)) inside it.  Each term adds m + 4 for its own operations
    and the pairwise sum log2(J + 1).
    """
    j = np.arange(0.0, j_last + 1.0)
    lw = log_weights(u, x, j)
    live = np.isfinite(lw)  # drops underflowed weights, and every j > 0 at x = 0
    j, lw = j[live], lw[live]
    slack = 2.0 * (np.abs(lw) + j + u * x)
    value = majorant = budget = 0.0
    with np.errstate(over="ignore"):
        for c, m, a in terms:
            lint = log_exppoly_integrals(u, m, a, j)
            t = np.exp(lw + lint)
            s = float(np.sum(t))
            value += c * s
            majorant += abs(c) * s
            cond = slack + 2.0 * (np.abs(lint) + m * np.log(j + m + 1.0)
                                  + (m + 1) * abs(math.log(u - a)))
            own = (m + 4 + math.log2(j_last + 1)) * s
            budget += abs(c) * (float(np.sum(t * cond)) + own)
    return u * value, u * majorant, _EPS * u * budget


def _blackbox_window(u: float, x: float, a: float, kinks) -> tuple[float, float, list[float]]:
    """Range [lo, hi] and break points for the integral of K(x,t) g(t).

    K(x,t) <= u e^{-u(sqrt t - sqrt x)^2} because i0e <= 1, so below lo
    (< x) the kernel is under the smallest subnormal, where a target with
    |g| <= C e^{at} is at most C e^{max(a, 0) x}.  With c = x (u/(u-a))^2,
    taken so that u^2 cannot underflow to 0/0 at u < 1e-162, the tilted
    kernel is
    K(x,t) e^{at} = u e^{uax/(u-a)} e^{-(u-a)(sqrt t - sqrt c)^2} i0e(2u sqrt(xt)),
    and past hi, where (u-a)(sqrt t - sqrt c)^2 = 50, it carries at most
    e^{-50} (1 + sqrt(L/50)), L = u^2 x/(u-a), of its total mass
    B(e^{at}; x) (4e-20 at u = 1e6, x = 2.5).  The tilt's underflow would
    reach t where g overflows: at u = 2.5, x = 1, t^2 e^{2t} overflows at
    t = 349, its mass lies near c = 25, and e^{-745} of its peak is at
    t = 1900.  The break points are x, c, c +- 12 sqrt((c + 1/u)/(u-a)) and
    the declared kinks; a is the target's declared growth rate.
    """
    d = u - a
    lo = max(math.sqrt(x) - math.sqrt((math.log(u) - _LN_TINY) / u), 0.0) ** 2
    c = x * (u / d) ** 2
    hi = max((math.sqrt(c) + math.sqrt(_TILT_CUT / d)) ** 2, lo)
    w = 12.0 * math.sqrt((c + 1.0 / u) / d)
    points = sorted({p for p in (x, c, c - w, c + w, *kinks) if lo < p < hi})
    return lo, hi, points


def window_integral(u, x, g, rate: float = 0.0, kinks=()):
    """Integrals of K(x, t) g(t, x) and their error estimates at the points of
    the broadcast u and x, over the windows of a target of growth rate `rate`
    with break points `kinks`: one batched kernel_integral, shaped like the
    broadcast (plus k when g returns k columns).  Raises OperatorOverflow
    when g or an integral overflows."""
    u, x = np.broadcast_arrays(u, x) if np.shape(u) != np.shape(x) else map(np.asarray, (u, x))
    windows = [_blackbox_window(ui, xi, rate, kinks)
               for ui, xi in zip(u.ravel().tolist(), x.ravel().tolist())]
    try:
        value, error = kernel_integral(_kernel_values, g, u.ravel(), x.ravel(), windows)
    except OverflowError as exc:
        raise OperatorOverflow(f"black-box integral overflows: {exc}") from exc
    return value.reshape(u.shape + value.shape[1:]), error.reshape(u.shape + error.shape[1:])


def _check_domain(g: TargetFunction, u: float, x: float) -> None:
    _check_point(u, x)
    if u <= g.growth_rate:
        raise DivergentIntegral(f"operator undefined: u={u} <= growth rate {g.growth_rate}")


def _apply_grid(g: TargetFunction, u, xs: np.ndarray) -> np.ndarray:
    """apply(g, u, x).value over the nonempty 1-d array xs and u, one value or an
    array that broadcasts against it: one per x, or a column for one row per u.
    Every u, the growth rate and every x are checked before g or the operator
    runs anywhere (the first bad x gets _check_point's message); a structured
    target is then one _closed_form_grid call, a black box one kernel integral."""
    if not xs.size:
        raise ValueError("x grid is empty")
    refused = xs[~((xs >= 0.0) & (xs < math.inf))]
    for v in sorted(set(np.ravel(u).tolist())):
        _check_domain(g, v, float(refused[0]) if refused.size else 0.0)
    terms = exppoly_terms(g)
    if terms is None:
        return window_integral(u, xs, lambda t, _: g(t), g.growth_rate, g.kinks)[0]
    return _closed_form_grid(u, xs, terms)


def apply(g: TargetFunction, u: float, x: float) -> OperatorValue:
    """Evaluate the operator at a point.

    A structured target takes the closed form; a black box is one adaptive
    quadrature of K(x,t) g(t), which evaluates the kernel's array form and
    the black box on all nodes of a refinement round at once.  Raises
    DivergentIntegral when u does not exceed the target's growth rate,
    OperatorOverflow when the value, or a black box inside its integration
    window, is beyond the double range, and ConvergenceFailure when a black
    box is not finite there or its integral does not converge.
    """
    _check_domain(g, u, x)
    terms = exppoly_terms(g)
    if terms is None:
        value, inner_err = map(float, window_integral(u, x, lambda t, _: g(t), g.growth_rate,
                                                      g.kinks))
        budget = 0.0
    else:
        value, budget = _closed_form(u, x, terms)
        inner_err = 0.0
    return OperatorValue(
        value=value,
        series_terms_used=0,
        tail_mass=0.0,
        tail_bound=budget,
        inner_integral_error=inner_err,
    )


def _check_truncation(g: TargetFunction, j_max) -> tuple[tuple, int]:
    """g's exp-poly terms and J as an int, for a whole number J >= 0 and a structured g."""
    j_max = _check_whole(j_max, "J")
    terms = exppoly_terms(g)
    if terms is None:
        raise ValueError("the truncated series is only for structured targets (ExpPolySum)")
    return terms, j_max


def apply_truncated(g: TargetFunction, u: float, x: float, j_max: int) -> OperatorValue:
    """Operator with the series cut after index j_max: the truncation study.

    The series of a structured target is summed with exact inner integrals;
    a black box, or a J that is not a whole number >= 0, is refused with
    ValueError.  tail_mass reports the actual neglected Poisson mass, which
    can be large when j_max sits below the mode ux.
    """
    _check_domain(g, u, x)
    terms, j_max = _check_truncation(g, j_max)
    value, majorant, budget = _partial_sums(u, x, terms, j_max)
    if not math.isfinite(value):
        raise OperatorOverflow(f"partial sum to J={j_max} is not finite: {value}")
    # the |g|-majorant's closed form minus its partial sum, plus both
    # rounding budgets counted twice (majorant and value)
    try:
        total, total_budget = _closed_form(u, x, [(abs(c), m, a) for c, m, a in terms])
        tail_bound = max(total - majorant, 0.0) + 2.0 * (total_budget + budget)
    except OperatorOverflow:
        tail_bound = math.inf
    return OperatorValue(value, j_max + 1, tail_mass(u, x, j_max), tail_bound, 0.0)


def kernel_value(u: float, x: float, t: float) -> float:
    """Kernel density u * sum_j s_{u,j}(x) s_{u,j}(t); symmetric in (x, t).

    The sum is u e^{-u(x+t)} I_0(2u sqrt(xt)) (DLMF 10.25.2), evaluated as
    u exp(-u r^2) i0e(2u sqrt x sqrt t), r = (x - t)/(sqrt x + sqrt t + DBL_MIN):
    r is sqrt x - sqrt t without cancellation, u r^2 cannot overflow before
    the kernel underflows, and DBL_MIN, absorbed exactly by any nonzero root
    sum (>= 2.2e-162), turns 0/0 at x = t = 0 into r = 0.  sqrt x sqrt t
    stays finite where xt overflows, and swapping x and t only negates r, so
    it gives the same bits.  Where the Bessel argument z = 2u sqrt x sqrt t
    overflows (u sqrt(xt) > ~9e307), u i0e(z) is its asymptote
    u / sqrt(2 pi z) = sqrt(u/pi) / 2 / x^(1/4) / t^(1/4), exact to rounding
    there and taken from u, x and t, not from z.  _kernel_values takes the
    same steps in numpy; its exp can be an ulp off libm's, which the products
    after it carry to at most 4 ulps, and most values agree bit for bit.
    """
    _check_point(u, x, t)
    root_x, root_t = math.sqrt(x), math.sqrt(t)
    r = (x - t) / (root_x + root_t + _DBL_MIN)
    z = 2.0 * u * (root_x * root_t)
    if z < math.inf:
        return u * math.exp(-u * r * r) * float(i0e(z))
    u_i0e = math.sqrt(u / math.pi) / 2.0 / math.sqrt(root_x) / math.sqrt(root_t)
    return math.exp(-u * r * r) * u_i0e


def _kernel_values(u, x, t: np.ndarray) -> np.ndarray:
    """kernel_value at nodes t >= 0, u and x one value or one per node, by its
    one exponent u r^2 and its asymptote where z overflows, in numpy; u r can
    overflow only for u above ~1e154, where the kernel is 0 (call under
    np.errstate, as kernel_integral does)."""
    root_x, root_t = np.sqrt(x), np.sqrt(t)
    r = (x - t) / (root_x + root_t + _DBL_MIN)
    z = 2.0 * u * (root_x * root_t)
    e = np.exp(-u * r * r)
    k = u * e * i0e(z)
    over = z == np.inf
    if over.any():
        u_i0e = np.sqrt(u / np.pi) / 2.0 / np.sqrt(root_x) / np.sqrt(root_t)
        k = np.where(over, e * u_i0e, k)
    return k


def kernel_cdf(u: float, x: float, y: float) -> float:
    """Kernel mass on [0, y]: sum_j s_{u,j}(x) P(j+1, u y).

    P is the regularized lower incomplete gamma function, the exact integral
    of u * s_{u,j} over [0, y].  The Poisson(ux) mixture of Gamma(j+1) laws
    scaled by 2 is the noncentral chi-square law with 2 degrees of freedom
    and noncentrality 2ux, so the mass is scipy.special.chndtr(2uy, 2, 2ux).
    The result is nondecreasing in y and tends to 1 as y grows.  Once
    ux >= ~100, chndtr returns 0 for masses below ~1e-44 (2.5e-45 at
    ux = 100, uy = 0.024), so a small value carries an absolute error of up
    to that size rather than a relative one.  Where chndtr's series fails
    (NaN, from u ~ 1e9 at x = 100 and u ~ 1e12 at x = 1), ConvergenceFailure
    is raised.
    """
    _check_point(u, x, y)
    if y == 0.0:
        return 0.0
    mass = float(chndtr(2.0 * u * y, 2.0, 2.0 * u * x))
    if math.isnan(mass):
        raise ConvergenceFailure(f"kernel_cdf has no value at u={u}, x={x}, y={y}: "
                                 "scipy.special.chndtr returned nan")
    return mass

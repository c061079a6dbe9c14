"""Evaluation of the operator, its truncated variant, and its kernel.

The operator value at (g, u, x) is u * sum_j s_{u,j}(x) * I_j(g) where
I_j(g) is the inner integral of the basis against g.  Mixing the Poisson
weights over j gives every exp-poly term the closed form

    B(t^m e^{at}; x) = u (u-a)^{-(m+1)} e^{uax/(u-a)} sum_l A_m[l] L^l,

with L = u^2 x/(u-a) and A_m = raw_moment_lambda_coeffs(m), taken in log
space from ln L (moments._log_moment_sum), so every power and u give a value
where it is finite: at one point with math and its rounding budget
(_closed_form_at, a step per x after an x-free setup per u), on a grid of
(u, x) in one numpy call (_closed_form_grid).
The same sum is B(g; x) = int_0^inf K(x,t) g(t) dt, K(x,t) = u sum_j
s_{u,j}(x) s_{u,j}(t), whose Bessel form is a bump in s = sqrt t - sqrt x
of width 1/sqrt(2u) for every x; a black box is integrated against it in s
by one adaptive quadrature, whose array kernel (_kernel_values) makes a
round one array call for a whole grid.  The fixed-J truncation study takes
the closed form with its moment sum cut after j = J, through the same step
at x.  Every value ships with a bound on what its evaluation neglected or
rounded.  The kernel's distribution function has a noncentral chi-square
closed form.

i0e and chndtr are bound on first call (basis._special_on_first_call): only
the kernel, its array form and its CDF use scipy.special, so apply on a
structured target, make_error_table and make_curves without J never load it.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from operator import mul  # the standard library's, not this module

import numpy as np

from .basis import _check_point, _check_whole, _special_on_first_call, log_weights, tail_mass
from .moments import _log_moment_sum, _log_moment_sum_grid
from .quadrature import ConvergenceFailure, DivergentIntegral, kernel_integral
from .targets import TargetFunction, exppoly_terms

_EPS = sys.float_info.epsilon
_DBL_MIN = sys.float_info.min
_LN_TINY = math.log(_DBL_MIN * _EPS)  # the smallest subnormal
_LN_DBL_MAX = math.log(sys.float_info.max)


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
    log-space closed form (see _closed_form_at), never 0 for a nonzero value;
    for a black box it is 0.0 and inner_integral_error is the error
    estimate of its kernel integral, which covers the rounding of the
    argument t the black box is handed (quadrature._gk21's floor).

    apply_truncated (structured targets only): series_terms_used = J + 1 and
    tail_mass is the Poisson weight mass beyond J, which can be large when J
    sits below the mode ux.  tail_bound covers the distance from the returned
    value to the exact operator value: the closed form of the |g|-majorant
    minus its partial sum to J, plus the rounding budgets of both, counted
    once for the majorant and once for the value, so it also covers the
    distance to the closed form.  It is inf where the majorant's closed form
    overflows: t^2 e^(2t) at u = 1e4, x = 1e3, J = 50 gives 0.0, tail_bound inf.

    inner_integral_error is 0.0 for structured targets.
    """

    value: float
    series_terms_used: int
    tail_mass: float
    tail_bound: float
    inner_integral_error: float


def _closed_form_setup(u: float, terms) -> tuple:
    """_closed_form_at's x-free work at u: ln u, and per nonzero term its sign, m,
    ln(u/(u-a)), the parts ln|c|, -m ln u and (m+1) ln(u/(u-a)), their
    magnitudes, and the tilt's rate (u/(u-a)) a, which x multiplies."""
    ln_u = math.log(u)
    heads = []
    for c, m, a in terms:
        if c == 0.0:
            continue
        ratio = u / (u - a)
        ln_ratio = math.log(ratio) if ratio else -math.inf  # 0 only for a subnormal u
        p_c, p_u, p_ratio = math.log(abs(c)), -m * ln_u, (m + 1) * ln_ratio
        heads.append((math.copysign(1.0, c), m, ln_ratio, p_c, p_u, p_ratio,
                      abs(p_c), abs(p_u), abs(p_ratio), ratio * a))
    return ln_u, heads, len(terms)


def _log_partial_moment_sum(m: int, ln_l: float, j_max: int) -> tuple[float, float, float]:
    """moments._log_moment_sum's sum cut after j = J, as ln sum_{j<=J} p_j(L) (j+1)...(j+m),
    p_j(L) = e^{-L} L^j/j! (log_weights at mean L); J -> inf gives sum_l A_m[l] L^l.
    Also its slope in ln L, the terms' mean |j - L|, and its own rounding in
    eps_mach: the terms' mean of 2(|ln p_j| + j + L), the parts log_weights'
    deviance cancels, (m + 1) sum_i ln(j+i) and |ln t_j - top|, plus log2(J + 1),
    4 and the slope (for exp(ln L)).  Raises OperatorOverflow where L overflows."""
    if ln_l > _LN_DBL_MAX:
        raise OperatorOverflow(f"L = u^2 x/(u-a) = e^{ln_l:.6g} overflows")
    lam = math.exp(ln_l)
    j = np.arange(0.0, j_max + 1.0)
    lw = log_weights(1.0, lam, j)
    j, lw = j[lw > -math.inf], lw[lw > -math.inf]  # at L = 0 only j = 0 carries weight
    lint = sum(np.log(j + i) for i in range(1, m + 1))
    t = lw + lint
    top = t.max()
    w = np.exp(t - top)
    total = float(w.sum())
    with np.errstate(over="ignore", invalid="ignore"):  # an inf slack is refused by the caller
        own = float(w @ (2.0 * (np.abs(lw) + j + lam) + (m + 1) * lint + np.abs(t - top)))
        slope = float(w @ np.abs(j - lam)) / total
    return float(top) + math.log(total), slope, own / total + math.log2(j_max + 1) + 4.0 + slope


def _closed_form_at(setup: tuple, x: float, j_max: int | None = None) -> tuple:
    """sum_k c_k B(t^m_k e^{a_k t}; x), its rounding budget and sum_k |c_k| B_k,
    at x from the setup at u (_closed_form_setup), so a table column sets up once.

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
    parts' magnitudes + 5mS + 5(m+1) + 2 + K), without 5mS where L = 0.
    Below the normal range eps_mach scales the sum first, and (1 + the terms'
    summed weights) smallest subnormals cover the rounding onto their grid.

    With j_max, the same for the series cut after j = J,

        B_J(t^m e^{at}; x) = u (u-a)^{-(m+1)} e^{uax/(u-a)} sum_{j<=J} (j+1)...(j+m) p_j(L),

    p_j(L) = e^{-L} L^j/j!: P becomes _log_partial_moment_sum, whose
    slope in ln L takes m's place in the budget and whose own rounding adds to
    it.  Raises OperatorOverflow where the value, its budget or a cut series'
    L leaves the double range.
    """
    ln_u, heads, n_terms = setup
    logs, signs, conds = [], [], []
    ln_x = math.log(x) if x else -math.inf
    for sign, m, ln_ratio, p_c, p_u, p_ratio, a_c, a_u, a_ratio, rate in heads:
        ln_l = ln_u + ln_x + ln_ratio
        p_sum, slope, own = ((_log_moment_sum(m, ln_l), m, 0.0) if j_max is None
                             else _log_partial_moment_sum(m, ln_l, j_max))
        tilt = rate * x
        logs.append(math.fsum((p_c, p_u, p_ratio, tilt, p_sum)))
        signs.append(sign)
        drift = 5.0 * slope * (abs(ln_u) + abs(ln_x) + abs(ln_ratio)) if ln_l > -math.inf else 0.0
        conds.append(2.5 * sum((a_c, a_u, a_ratio, abs(tilt), abs(p_sum))) + drift
                     + 5.0 * (m + 1) + 2.0 + n_terms + own)
    if not logs:
        return 0.0, 0.0, 0.0
    top = max(logs)
    weights = [math.exp(lg - top) for lg in logs]
    total = sum(weights)
    log_scale = top + math.log(total)
    big = math.exp(top) if log_scale <= _LN_DBL_MAX else math.inf
    value = big * sum(map(mul, signs, weights))
    cond = sum(map(mul, weights, conds))
    budget = (_EPS * big * cond if big >= _DBL_MIN  # below DBL_MIN: eps first, a subnormal floor
              else big * (_EPS * cond) + math.ulp(0.0) * (1.0 + total))
    if not (math.isfinite(value) and math.isfinite(budget)):
        raise OperatorOverflow(f"operator value overflows or loses its budget: "
                               f"ln sum|c_k| B_k = {log_scale:.6g}, rounding budget {budget:.6g}")
    return value, budget, big * total


def _closed_form_grid(u, xs: np.ndarray, terms) -> np.ndarray:
    """_closed_form_at's value over the 1-d array xs >= 0 and u, one value or an
    array that broadcasts against xs, such as a column of u.

    The parts are _closed_form_at's (P by moments._log_moment_sum_grid), added
    in turn rather than exactly rounded, so a value can differ from its value
    in the last bits, within its budget at the point, but not from a call with
    its u alone.  Raises OperatorOverflow, naming (u, x), when sum_k |c_k| B_k
    exceeds the double range."""
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


def _blackbox_window(u: float, x: float, a: float, kinks) -> tuple[float, float, list[float]]:
    """Range [lo, hi] and break points of s = sqrt t - sqrt x for the integral
    of K(x,t) g(t), g of growth rate a.  K(x,t) <= u e^{-u s^2} as i0e <= 1,
    so below lo the kernel is under the smallest subnormal, where |g| <= C
    e^{at} is at most C e^{max(a, 0) x}.  With d = u - a, K(x,t) e^{at} =
    u e^{uax/d} e^{-d (s - tau)^2} i0e(2u sqrt(xt)), a bump of deviation
    w = 1/sqrt(2d) about tau = sqrt x a/d = sqrt c - sqrt x, c = x (u/d)^2 the
    tilted mode; past hi = tau + 10 w it keeps at most e^{-50} (1 + sqrt(L/50)),
    L = u^2 x/d, of its mass B(e^{at}; x), before g can overflow (at u = 2.5,
    x = 1, t^2 e^{2t} overflows at t = 349; its mass lies near c = 25).  The
    break points are 0, tau + (-10, -6, -3, 0, 3, 6) w, pieces of the bump
    that one rule resolves, and sqrt k - sqrt x for each kink k."""
    d, root_x = u - a, math.sqrt(x)
    tau, w = root_x * a / d, 1.0 / math.sqrt(2.0 * d)
    lo = max(-root_x, -math.sqrt((math.log(u) - _LN_TINY) / u))
    hi = max(tau + 10.0 * w, lo)
    points = (0.0, *(tau + k * w for k in (-10.0, -6.0, -3.0, 0.0, 3.0, 6.0)),
              *(math.sqrt(k) - root_x for k in kinks if k > 0.0))
    return lo, hi, sorted({p for p in points if lo < p < hi})


def window_integral(u, x, g, rate: float = 0.0, kinks=()):
    """Integrals of K(x, t) g(t - x, x) dt, taken in s = sqrt t - sqrt x, and
    their error estimates at the points of the broadcast u and x, over the
    windows of a target of growth rate `rate` with break points `kinks`: one
    batched kernel_integral, shaped like the broadcast (plus k when g returns
    k columns).  Raises OperatorOverflow when g or an integral overflows."""
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
        return window_integral(u, xs, lambda d, x: g(x + d), g.growth_rate, g.kinks)[0]
    return _closed_form_grid(u, xs, terms)


def apply(g: TargetFunction, u: float, x: float) -> OperatorValue:
    """Evaluate the operator at a point.

    A structured target takes the closed form; a black box is one adaptive
    quadrature of K(x,t) g(t), which evaluates the kernel's array form and
    the black box on all nodes of a refinement round at once.  Raises
    DivergentIntegral when u does not exceed the target's growth rate,
    OperatorOverflow when the value or its budget, or a black box inside its
    integration window, is beyond the double range, and ConvergenceFailure
    when a black box is not finite there or its integral does not converge.
    """
    _check_domain(g, u, x)
    terms = exppoly_terms(g)
    if terms is None:
        value, inner_err = map(float, window_integral(u, x, lambda d, xs: g(xs + d),
                                                      g.growth_rate, g.kinks))
        budget = 0.0
    else:
        value, budget, _ = _closed_form_at(_closed_form_setup(u, terms), x)
        inner_err = 0.0
    return OperatorValue(
        value=value,
        series_terms_used=0,
        tail_mass=0.0,
        tail_bound=budget,
        inner_integral_error=inner_err,
    )


def _apply_column(g: TargetFunction, u: float):
    """x -> apply(g, u, x).value, for x already checked.  A structured target
    has u checked and its closed form set up once, so each x costs one
    _closed_form_at with apply's bits and refusals; a black box, or a u not
    above the growth rate, takes apply (and its refusal) at each x."""
    terms = exppoly_terms(g)
    if terms is None or u <= g.growth_rate:
        return lambda x: apply(g, u, x).value
    _check_point(u, 0.0)
    setup = _closed_form_setup(u, terms)
    return lambda x: _closed_form_at(setup, x)[0]


def _check_truncation(g: TargetFunction, j_max) -> tuple[tuple, int]:
    """g's exp-poly terms and J as an int, for a whole number J >= 0 and a structured g."""
    j_max = _check_whole(j_max, "J")
    terms = exppoly_terms(g)
    if terms is None:
        raise ValueError("the truncated series is only for structured targets (ExpPolySum)")
    return terms, j_max


def apply_truncated(g: TargetFunction, u: float, x: float, j_max: int) -> OperatorValue:
    """Operator with the series cut after index j_max: the truncation study.

    A structured target takes the closed form with its moment sum cut at
    j_max (_closed_form_at); a black box, or a J that is not a whole number
    >= 0, is refused with ValueError.  tail_mass reports the actual neglected
    Poisson mass, which can be large when j_max sits below the mode ux.
    Raises OperatorOverflow when L = u^2 x/(u-a), the partial sum or its
    rounding budget leaves the double range.
    """
    _check_domain(g, u, x)
    terms, j_max = _check_truncation(g, j_max)
    setup = _closed_form_setup(u, terms)
    try:
        value, budget, majorant = _closed_form_at(setup, x, j_max)
    except OperatorOverflow as exc:  # the sum, its budget, or its L = u^2 x/(u-a)
        raise OperatorOverflow(f"partial sum to J={j_max} is not finite at u={u}, x={x}: "
                               f"{exc}") from None
    # the |g|-majorant's closed form minus its partial sum, plus both
    # rounding budgets counted twice (majorant and value)
    try:
        _, total_budget, total = _closed_form_at(setup, x)
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
    it gives the same bits.  z = 2(u sqrt x sqrt t) is 0 at xt = 0 even where
    2u overflows; where z overflows (u sqrt(xt) > ~9e307), u i0e(z) is its
    asymptote u / sqrt(2 pi z) = sqrt(u/pi) / 2 / x^(1/4) / t^(1/4), exact to
    rounding there, taken from u, x and t.  Black boxes take _kernel_values.
    """
    _check_point(u, x, t)
    root_x, root_t = math.sqrt(x), math.sqrt(t)
    r = (x - t) / (root_x + root_t + _DBL_MIN)
    z = 2.0 * (u * (root_x * root_t))
    if z < math.inf:
        return u * math.exp(-u * r * r) * float(i0e(z))
    u_i0e = math.sqrt(u / math.pi) / 2.0 / math.sqrt(root_x) / math.sqrt(root_t)
    return math.exp(-u * r * r) * u_i0e


def _kernel_values(u, root_x, s: np.ndarray) -> np.ndarray:
    """K(x,t) dt/ds = 2 (sqrt x + s) u e^{-u s^2} i0e(2u sqrt x (sqrt x + s)) at
    s = sqrt t - sqrt x >= -sqrt x, in numpy, with kernel_value's asymptote
    where the Bessel argument overflows: the exponent takes s, not a rounded
    t.  u s can overflow only for u above ~1e154, where the kernel is 0 (call
    under np.errstate, as kernel_integral does).  The asymptote is taken on
    the overflowing nodes alone, so a node where sqrt x + s rounds to 0 never
    divides by it."""
    root_t = root_x + s
    z = 2.0 * (u * (root_x * root_t))
    e = np.exp(-u * s * s)
    k = u * e * i0e(z)
    over = z == np.inf
    if over.any():
        u_o, root_x_o, root_t_o, e_o = (np.broadcast_to(v, z.shape)[over]
                                        for v in (u, root_x, root_t, e))
        k[over] = e_o * (np.sqrt(u_o / np.pi) / 2.0 / np.sqrt(root_x_o) / np.sqrt(root_t_o))
    return k * (2.0 * root_t)


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

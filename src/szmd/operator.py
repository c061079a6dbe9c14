"""Evaluation of the operator, its truncated variant, and its kernel.

The operator value at (g, u, x) is u * sum_j s_{u,j}(x) * I_j(g) where
I_j(g) is the inner integral of the basis against g.  Mixing the Poisson
weights over j gives every exp-poly term the closed form

    B(t^m e^{at}; x) = u (u-a)^{-(m+1)} e^{uax/(u-a)} sum_l A_m[l] L^l,

with L = u^2 x/(u-a) and A_m = raw_moment_lambda_coeffs(m), so structured
targets never sum the series.  The series is summed only for the fixed-J
truncation study and for black boxes, whose inner integrals need quadrature.
Every value ships with a bound on what its evaluation neglected or rounded.
The kernel and its distribution function have Bessel and noncentral
chi-square closed forms.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, i0e

from .basis import (
    DEFAULT_TAIL_EPS,
    FixedJ,
    TailEpsilon,
    TruncationSpec,
    log_weights,
    series_cutoff,
    tail_mass,
)
from .moments import raw_moment_lambda_coeffs
from .quadrature import (
    DEFAULT_QUADRATURE,
    DivergentIntegral,
    QuadratureConfig,
    basis_integral,
    log_exppoly_integrals,
)
from .targets import BlackBox, TargetFunction, exppoly_terms

_EPS = sys.float_info.epsilon
_LN_DBL_MAX = math.log(sys.float_info.max)


class OperatorOverflow(OverflowError):
    """The operator value, or a partial sum of its series, lies beyond the
    double-precision range."""


@dataclass(frozen=True)
class SequenceRule:
    """Maps the index n to the operator parameter u_n.

    Built-in shapes are u_n = n^p (p = 1 recovers the plain index rule) and
    an explicit list.  Sequences must be strictly increasing with first
    value >= 1.
    """

    kind: str
    power: float = 1.0
    explicit_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "power":
            if self.power <= 0.0:
                raise ValueError("power rule needs a positive exponent")
        elif self.kind == "explicit":
            vals = self.explicit_values
            if not vals or vals[0] < 1.0:
                raise ValueError("explicit sequence must start at >= 1")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError("explicit sequence must be strictly increasing")
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
        if self.kind == "power":
            if n < 1:
                raise ValueError("sequence index n must be >= 1")
            return float(n) ** self.power
        if n < 1 or n > len(self.explicit_values):
            raise ValueError(
                f"explicit rule has {len(self.explicit_values)} values, got n={n}"
            )
        return self.explicit_values[n - 1]

    def values(self, ns) -> list[float]:
        return [self.u_value(int(n)) for n in ns]

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
    if s.startswith("explicit:"):
        vals = [float(v) for v in s.split(":", 1)[1].split(",") if v.strip()]
        return SequenceRule.from_explicit(vals)
    if s == "n":
        return SequenceRule.identity()
    if s.startswith("n"):
        return SequenceRule.from_power(float(s[1:].lstrip("^")))
    raise ValueError(f"cannot parse sequence rule {text!r}")


@dataclass(frozen=True)
class OperatorValue:
    """Operator value plus an honest account of what was neglected.

    Closed form (structured target under TailEpsilon): no series is summed,
    so series_terms_used = 0 and tail_mass = 0.0; tail_bound is the rounding
    budget of the log-space evaluation (see _closed_form), never 0 for a
    nonzero value.

    Series (FixedJ, or any black box): series_terms_used = J + 1 and
    tail_mass is the Poisson weight mass beyond J, which can be large when
    J sits below the mode ux.  tail_bound is the closed form of the
    |g|-majorant minus its partial sum to J, plus the rounding budgets of
    both, counted once for the majorant and once for the value; it covers
    the distance from the returned partial sum both to the exact value and
    to the closed form.  A black box's majorant is C e^{at} with C sampled
    on a grid, so there tail_bound is an estimate, not a bound.

    inner_integral_error is the summed quadrature error of the black-box
    inner integrals, 0.0 for structured targets.
    """

    value: float
    series_terms_used: int
    tail_mass: float
    tail_bound: float
    inner_integral_error: float


def _growth_rate(g: TargetFunction) -> float:
    return getattr(g, "growth_rate", 0.0)


def _log_moment_poly(m: int, lam: float) -> float:
    """ln sum_l A_m[l] lam^l by Horner's rule, in 1/lam once lam > 1 so no
    power of lam overflows; A_m[0] = m! and A_m[m] = 1 keep the sum >= 1."""
    coeffs = raw_moment_lambda_coeffs(m)
    if lam <= 1.0:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * lam + c
        return math.log(acc)
    inv = 1.0 / lam
    acc = 0.0
    for c in coeffs:
        acc = acc * inv + c
    return m * math.log(lam) + math.log(acc)


def _closed_form(u: float, x: float, terms) -> tuple[float, float]:
    """sum_k c_k B(t^m_k e^{a_k t}; x) and its rounding budget.

    Each term is exp of ln|c| + ln u - (m+1) ln(u-a) + uax/(u-a) +
    ln sum_l A_m[l] L^l, so no intermediate overflows while the sum is
    finite.  Each part is off by at most 2 eps_mach times its magnitude
    (uax/(u-a) and L take four roundings, counting that of u - a), the
    exactly rounded sum of the parts adds half an eps_mach of its own
    magnitude, and Horner's rule adds 4m eps_mach (L's rounding raised to
    the m-th power, the powers of 1/L, 2m operations).  exp turns the
    exponent's absolute error into a relative one, so the budget is
    eps_mach * sum_k |c_k| B_k * (2.5 * sum of the parts' magnitudes +
    4(m + 1)).  Raises OperatorOverflow when sum_k |c_k| B_k exceeds the
    double range.
    """
    logs, signs, conds = [], [], []
    for c, m, a in terms:
        if c == 0.0:
            continue
        d = u - a
        parts = (
            math.log(abs(c)),
            math.log(u),
            -(m + 1) * math.log(d),
            u * a * x / d,
            _log_moment_poly(m, u * u * x / d),
        )
        logs.append(math.fsum(parts))
        signs.append(math.copysign(1.0, c))
        conds.append(2.5 * sum(abs(p) for p in parts) + 4.0 * (m + 1))
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
    return value, _EPS * big * sum(w * k for w, k in zip(weights, conds))


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


def _tail_bound(u: float, x: float, terms, partial: float, partial_budget: float) -> float:
    """Closed form of the |g|-majorant minus its partial sum, plus both
    rounding budgets counted twice (majorant and value); inf when the
    majorant overflows."""
    try:
        total, budget = _closed_form(u, x, [(abs(c), m, a) for c, m, a in terms])
    except OperatorOverflow:
        return math.inf
    return max(total - partial, 0.0) + 2.0 * (budget + partial_budget)


def _blackbox_majorant_terms(g: BlackBox, u: float, j_last: int):
    """Envelope C * e^{a t} for a black box.  C is sampled on the window the
    neglected basis terms live on, so it is an estimate, not a bound."""
    a = g.growth_rate
    width = max(u - a, 1e-3)
    t_hi = (j_last + 10.0) / width
    ts = np.linspace(0.0, max(t_hi, 1.0), 257)
    vals = np.abs(np.asarray(g(ts), dtype=np.float64)) * np.exp(-a * ts)
    c = float(np.max(vals))
    return ((c, 0, a),)


def _numeric_series_value(
    u: float, x: float, g: TargetFunction, j_last: int, cfg: QuadratureConfig
) -> tuple[float, float]:
    j = np.arange(0, j_last + 1, dtype=np.float64)
    lw = log_weights(u, x, j)
    keep = lw > -50.0
    total = 0.0
    err = 0.0
    largest = 0.0
    for idx in np.nonzero(keep)[0]:
        res = basis_integral(u, int(idx), g, cfg)
        w = math.exp(lw[idx])
        total += w * res.value
        err += w * abs(res.error)
        largest = max(largest, abs(res.value))
    dropped = float(np.sum(np.exp(lw[~keep]))) if np.any(~keep) else 0.0
    err += dropped * largest
    return u * total, u * err


def apply(
    g: TargetFunction,
    u: float,
    x: float,
    trunc: TruncationSpec = TailEpsilon(DEFAULT_TAIL_EPS),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> OperatorValue:
    """Evaluate the operator at a point.

    A structured target under TailEpsilon takes the closed form, which needs
    no eps.  Under FixedJ the series is summed to J with exact inner
    integrals; a black box sums it to its cutoff with quadrature.
    Raises DivergentIntegral when u does not exceed the target's growth rate
    and OperatorOverflow when the value, or the partial sum, is beyond the
    double range.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    rate = _growth_rate(g)
    if u <= rate:
        raise DivergentIntegral(f"operator undefined: u={u} <= growth rate {rate}")

    terms = exppoly_terms(g)
    if terms is not None and isinstance(trunc, TailEpsilon):
        value, budget = _closed_form(u, x, terms)
        return OperatorValue(
            value=value,
            series_terms_used=0,
            tail_mass=0.0,
            tail_bound=budget,
            inner_integral_error=0.0,
        )

    j_last = series_cutoff(u, x, trunc)
    if terms is not None:
        value, partial, budget = _partial_sums(u, x, terms, j_last)
        inner_err = 0.0
    else:
        value, inner_err = _numeric_series_value(u, x, g, j_last, cfg)
        terms = _blackbox_majorant_terms(g, u, j_last)
        _, partial, budget = _partial_sums(u, x, terms, j_last)
    if not math.isfinite(value):
        raise OperatorOverflow(f"partial sum to J={j_last} is not finite: {value}")

    return OperatorValue(
        value=value,
        series_terms_used=j_last + 1,
        tail_mass=tail_mass(u, x, j_last),
        tail_bound=_tail_bound(u, x, terms, partial, budget),
        inner_integral_error=inner_err,
    )


def apply_truncated(
    g: TargetFunction,
    u: float,
    x: float,
    j_max: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> OperatorValue:
    """Operator with the series cut at a fixed index: the truncation study.

    tail_mass reports the actual neglected Poisson mass, which can be large
    when j_max sits below the mode ux.
    """
    return apply(g, u, x, FixedJ(j_max), cfg)


def kernel_value(u: float, x: float, t: float) -> float:
    """Kernel density u * sum_j s_{u,j}(x) s_{u,j}(t); symmetric in (x, t).

    The sum is u e^{-u(x+t)} I_0(2u sqrt(xt)) (DLMF 10.25.2), evaluated as
    u exp(-u (x-t)^2 / (sqrt x + sqrt t)^2) i0e(2u sqrt(xt)): the exponent
    is -u (sqrt x - sqrt t)^2 without cancellation, and every operation is
    symmetric in (x, t), so swapping them gives the same bits.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if x < 0.0 or t < 0.0:
        raise ValueError("kernel arguments must be >= 0")
    root_sum = math.sqrt(x) + math.sqrt(t)
    if root_sum == 0.0:
        return u
    gap = u * (x - t) ** 2 / (root_sum * root_sum)
    return u * math.exp(-gap) * float(i0e(2.0 * u * math.sqrt(x * t)))


def kernel_cdf(u: float, x: float, y: float) -> float:
    """Kernel mass on [0, y]: sum_j s_{u,j}(x) P(j+1, u y).

    P is the regularized lower incomplete gamma function, the exact integral
    of u * s_{u,j} over [0, y].  The Poisson(ux) mixture of Gamma(j+1) laws
    scaled by 2 is the noncentral chi-square law with 2 degrees of freedom
    and noncentrality 2ux, so the mass is scipy.special.chndtr(2uy, 2, 2ux).
    The result is nondecreasing in y and tends to 1 as y grows.  Once
    ux >= ~100, chndtr returns 0 for masses below ~1e-44 (2.5e-45 at
    ux = 100, uy = 0.024), so a small value carries an absolute error of up
    to that size rather than a relative one.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if x < 0.0 or y < 0.0:
        raise ValueError("kernel arguments must be >= 0")
    if y == 0.0:
        return 0.0
    return float(chndtr(2.0 * u * y, 2.0, 2.0 * u * x))

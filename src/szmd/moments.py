"""Raw and central moments of the operator in closed polynomial form.

Applying the operator to t^m gives (1/u^m) * E[(X+1)(X+2)...(X+m)] with
X ~ Poisson(ux), which is m! L_m(-ux) for the Laguerre polynomial L_m
(DLMF 18.5.12): an integer-coefficient polynomial in ux.  Central moments
are kept as one flat map {(k, d): c} of integer coefficients c of the terms
c x^k u^(-d), so the derivative-based recurrence and the binomial expansion
can be compared coefficient-wise without rounding.  The reference
central_moment_bruteforce is a quadrature of (t - x)^m against the kernel
instead, so it shares no code with these polynomials.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import _check_point

# A polynomial sum c x^k u^(-d) as {(k, d): c}, zero coefficients left out.
PolyXU = dict[tuple[int, int], int]


@lru_cache(maxsize=None)
def raw_moment_lambda_coeffs(m: int) -> tuple[int, ...]:
    """Integer A with u^m * B(t^m; x) = sum_l A[l] (ux)^l.

    These are the coefficients of m! L_m(-ux): A[l] = C(m, l) m! / l!.
    """
    return tuple(math.comb(m, l) * math.perm(m, m - l) for l in range(m + 1))


@lru_cache(maxsize=None)
def _lambda_coeff_floats(m: int) -> tuple[float, ...]:
    """raw_moment_lambda_coeffs(m) as floats, converted once for every closed
    form; from m = 167 the largest of them is beyond the double range."""
    if m >= 167:
        raise OverflowError(f"the moment coefficients of t^{m} overflow a double (m >= 167)")
    return tuple(map(float, raw_moment_lambda_coeffs(m)))


def raw_moment(u: float, x: float, m: int) -> float:
    """Operator applied to t^m at x, in exact closed form.

    For m = 0..3 this reproduces 1, x + 1/u, (2 + 4xu + x^2 u^2)/u^2 and
    (6 + 18xu + 9x^2 u^2 + x^3 u^3)/u^3.
    """
    _check_point(u, x)
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    coeffs = _lambda_coeff_floats(m)
    return float(sum(a * x**l * u ** float(l - m) for l, a in enumerate(coeffs)))


@dataclass(frozen=True)
class CentralMomentPoly:
    """Central moment of order m as an exact polynomial in x and 1/u."""

    order: int
    coeffs: PolyXU

    def evaluate(self, u: float, x: float) -> float:
        total = 0.0
        for (k, d), c in self.coeffs.items():
            total += float(c) * u ** float(-d) * x**k
        return total

    def coeff_gap(self, other: "CentralMomentPoly") -> int:
        """Largest |coefficient difference| with other, exact."""
        a, b = self.coeffs, other.coeffs
        return max((abs(a.get(key, 0) - b.get(key, 0)) for key in a.keys() | b.keys()), default=0)

    def same_coeffs(self, other: "CentralMomentPoly", tol: float = 0.0) -> bool:
        """Coefficient-wise equality: exact when tol is 0, else within tol."""
        return self.coeff_gap(other) <= tol


@lru_cache(maxsize=None)
def central_moment_poly(m: int) -> CentralMomentPoly:
    """Central moment polynomial by binomial expansion over raw moments.

    (t - x)^m = sum_i C(m, i) (-x)^(m-i) t^i, and B(t^i; x) contributes
    A_i[l] x^l u^(l-i), so every term has k + d = m.
    """
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    acc: dict[tuple[int, int], int] = defaultdict(int)
    for i in range(m + 1):
        sign = (-1) ** (m - i) * math.comb(m, i)
        for l, a in enumerate(raw_moment_lambda_coeffs(i)):
            acc[l + m - i, i - l] += sign * a
    return CentralMomentPoly(m, {kd: c for kd, c in acc.items() if c})


def central_moment(u: float, x: float, m: int) -> float:
    """Central moment of order m at (u, x); 1 for m = 0, 1/u for m = 1."""
    _check_point(u, x)
    return central_moment_poly(m).evaluate(u, x)


def recurrence_step(om_prev: CentralMomentPoly | None, om_cur: CentralMomentPoly,
                    misplace_x: bool = False) -> CentralMomentPoly:
    """Next central moment from the derivative recurrence.

    u * M_{m+1} = x * M_m' + 2m * x * M_{m-1} + (m+1) * M_m, with M_{-1} = 0.
    ``misplace_x=True`` multiplies the last term by x as well; that variant
    is a known-bad negative control (it already contradicts the closed form
    of the second central moment) and is kept only so verification can show
    the discrepancy.
    """
    m = om_cur.order
    acc: dict[tuple[int, int], int] = defaultdict(int)
    for (k, d), c in om_cur.coeffs.items():
        if k:  # x * M_m' has no x^0 term
            acc[k, d + 1] += k * c
    if om_prev is not None and m >= 1:
        for (k, d), c in om_prev.coeffs.items():
            acc[k + 1, d + 1] += 2 * m * c
    for (k, d), c in om_cur.coeffs.items():
        acc[k + int(misplace_x), d + 1] += (m + 1) * c
    return CentralMomentPoly(m + 1, {kd: c for kd, c in acc.items() if c})


def central_moments_by_recurrence(max_order: int,
                                  misplace_x: bool = False) -> list[CentralMomentPoly]:
    """All central moment polynomials up to max_order via the recurrence."""
    polys = [CentralMomentPoly(0, {(0, 0): 1})]
    for m in range(max_order):
        polys.append(recurrence_step(polys[m - 1] if m else None, polys[m], misplace_x))
    return polys


def zeta_sq(u: float, x: float) -> float:
    """The factor with zeta^2(x) = x + 1/u; 2*zeta_sq/u is the second
    central moment."""
    _check_point(u, x)
    return x + 1.0 / u


def zeta(u: float, x: float) -> float:
    return math.sqrt(zeta_sq(u, x))


# ---------------------------------------------------------------------------
# empirical checks

@dataclass(frozen=True)
class DecayReport:
    order: int
    x: float
    exponent: float
    limit_exponent: float
    passed: bool


def decay_order_check(m: int, x: float, u_grid) -> DecayReport:
    """Fit the log-log slope of the m-th central moment against u.

    The slope should not exceed -floor((m+1)/2) + 0.1, the decay order the
    moment theory guarantees.
    """
    u_grid = np.asarray(sorted(u_grid), dtype=np.float64)
    if len(u_grid) < 3:
        raise ValueError("u_grid needs at least three values")
    _check_point(u_grid[0], x)  # central_moment checks the larger u
    if u_grid[-1] / u_grid[0] < 1e3:
        raise ValueError("u_grid must span at least three decades")
    if not (x > 0.0):
        raise ValueError("decay fit needs x > 0 (all moments vanish at x=0)")
    vals = np.array([abs(central_moment(u, x, m)) for u in u_grid])
    slope = float(np.polyfit(np.log(u_grid), np.log(vals), 1)[0])
    limit = -float(math.floor((m + 1) / 2))
    return DecayReport(m, x, slope, limit, slope <= limit + 0.1)


def central_moment_bruteforce(u, x, m):
    """Reference value: B((t - x)^m; x) at the points of the broadcast u
    and x, for a whole order m >= 0 or, on a last axis, a sequence of them:
    one batched kernel integral of the columns (t - x)^m, repeated products
    of t - x, each point over the window apply uses for a black box of
    growth rate 0.  The value comes from quadrature of the Bessel-form
    kernel and shares nothing with the Laguerre-coefficient polynomials of
    central_moment; the verification suite cross-checks the two.
    """
    # operator imports this module
    from .operator import window_integral

    for ui, xi in np.broadcast(u, x):
        _check_point(ui, xi)
    orders = np.asarray(m)
    if orders.dtype.kind not in "iu" or orders.min(initial=0) < 0:
        raise ValueError(f"moment orders must be integers >= 0, got {m}")

    def columns(t, xn):  # products: pow would be a libm call per node and order
        d, powers = t - xn, [np.ones_like(t)]
        for _ in range(orders.max(initial=0)):
            powers.append(powers[-1] * d)
        return np.stack(powers, axis=-1)[..., orders]

    value, _ = window_integral(u, x, columns)
    return value if value.ndim else float(value)

"""Raw and central moments of the operator in closed polynomial form.

Applying the operator to t^m gives (1/u^m) * E[(X+1)(X+2)...(X+m)] with
X ~ Poisson(ux), which expands to an integer-coefficient polynomial in ux.
Central moments are kept as polynomials in x whose coefficients are exact
rationals in 1/u, so the derivative-based recurrence and the binomial
expansion can be compared coefficient-wise without rounding.  The reference
central_moment_bruteforce is a quadrature of (t - x)^m against the kernel
instead, so it shares no code with these polynomials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# A polynomial sum_k x^k * sum_d c_{k,d} u^{-d} as {k: {d: Fraction}}.
PolyXU = dict[int, dict[int, Fraction]]


@lru_cache(maxsize=None)
def _stirling2_row(k: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S(k, 0..k)."""
    if k == 0:
        return (1,)
    prev = _stirling2_row(k - 1)
    row = [0] * (k + 1)
    for l in range(1, k + 1):
        row[l] = l * (prev[l] if l < k else 0) + prev[l - 1]
    return tuple(row)


@lru_cache(maxsize=None)
def _rising_product_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of prod_{i=1}^m (j + i) as a polynomial in j."""
    coeffs = [1]
    for i in range(1, m + 1):
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p] += c * i
            nxt[p + 1] += c
        coeffs = nxt
    return tuple(coeffs)


@lru_cache(maxsize=None)
def raw_moment_lambda_coeffs(m: int) -> tuple[int, ...]:
    """Integer A with u^m * B(t^m; x) = sum_l A[l] (ux)^l.

    Uses E[X^k] = sum_l S(k,l) lam^l for X ~ Poisson(lam), applied to the
    expansion of the rising product (X+1)...(X+m).
    """
    cj = _rising_product_coeffs(m)
    out = [0] * (m + 1)
    for k, c in enumerate(cj):
        if k == 0:
            out[0] += c
            continue
        s2 = _stirling2_row(k)
        for l, s in enumerate(s2):
            out[l] += c * s
    return tuple(out)


def raw_moment(u: float, x: float, m: int) -> float:
    """Operator applied to t^m at x, in exact closed form.

    For m = 0..3 this reproduces 1, x + 1/u, (2 + 4xu + x^2 u^2)/u^2 and
    (6 + 18xu + 9x^2 u^2 + x^3 u^3)/u^3.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    coeffs = raw_moment_lambda_coeffs(m)
    return float(sum(a * x**l * u ** float(l - m) for l, a in enumerate(coeffs)))


# ---------------------------------------------------------------------------
# exact polynomials in (x, 1/u)

def _p_add(a: PolyXU, b: PolyXU) -> PolyXU:
    out: PolyXU = {k: dict(v) for k, v in a.items()}
    for k, dv in b.items():
        row = out.setdefault(k, {})
        for d, c in dv.items():
            row[d] = row.get(d, Fraction(0)) + c
    return _p_trim(out)


def _p_scale(a: PolyXU, s: Fraction) -> PolyXU:
    return _p_trim({k: {d: c * s for d, c in dv.items()} for k, dv in a.items()})


def _p_mul_x(a: PolyXU, k0: int) -> PolyXU:
    return {k + k0: dict(dv) for k, dv in a.items()}


def _p_mul_uinv(a: PolyXU, d0: int) -> PolyXU:
    return {k: {d + d0: c for d, c in dv.items()} for k, dv in a.items()}


def _p_dx(a: PolyXU) -> PolyXU:
    out: PolyXU = {}
    for k, dv in a.items():
        if k == 0:
            continue
        out[k - 1] = {d: c * k for d, c in dv.items()}
    return _p_trim(out)


def _p_trim(a: PolyXU) -> PolyXU:
    out: PolyXU = {}
    for k, dv in a.items():
        row = {d: c for d, c in dv.items() if c != 0}
        if row:
            out[k] = row
    return out


def _raw_moment_poly(m: int) -> PolyXU:
    coeffs = raw_moment_lambda_coeffs(m)
    return {l: {m - l: Fraction(a)} for l, a in enumerate(coeffs) if a != 0}


@dataclass(frozen=True)
class CentralMomentPoly:
    """Central moment of order m as an exact polynomial in x and 1/u."""

    order: int
    coeffs: PolyXU

    def evaluate(self, u: float, x: float) -> float:
        total = 0.0
        for k, dv in self.coeffs.items():
            cu = sum(float(c) * u ** float(-d) for d, c in dv.items())
            total += cu * x**k
        return total

    def derivative(self) -> "CentralMomentPoly":
        return CentralMomentPoly(self.order, _p_dx(self.coeffs))

    def coeff_gap(self, other: "CentralMomentPoly") -> Fraction:
        """Largest |coefficient difference| with other, exact."""
        gap = Fraction(0)
        for k in set(self.coeffs) | set(other.coeffs):
            a, b = self.coeffs.get(k, {}), other.coeffs.get(k, {})
            for d in set(a) | set(b):
                gap = max(gap, abs(a.get(d, Fraction(0)) - b.get(d, Fraction(0))))
        return gap

    def same_coeffs(self, other: "CentralMomentPoly", tol: float = 0.0) -> bool:
        """Coefficient-wise equality: exact when tol is 0, else within tol."""
        gap = self.coeff_gap(other)
        return gap == 0 if tol == 0.0 else float(gap) <= tol


@lru_cache(maxsize=None)
def central_moment_poly(m: int) -> CentralMomentPoly:
    """Central moment polynomial by binomial expansion over raw moments."""
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    acc: PolyXU = {}
    for i in range(m + 1):
        sign = Fraction((-1) ** (m - i) * math.comb(m, i))
        term = _p_scale(_p_mul_x(_raw_moment_poly(i), m - i), sign)
        acc = _p_add(acc, term)
    return CentralMomentPoly(m, acc)


def central_moment(u: float, x: float, m: int) -> float:
    """Central moment of order m at (u, x); 1 for m = 0, 1/u for m = 1."""
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    return central_moment_poly(m).evaluate(u, x)


def recurrence_step(
    om_prev: CentralMomentPoly | None,
    om_cur: CentralMomentPoly,
    misplace_x: bool = False,
) -> CentralMomentPoly:
    """Next central moment from the derivative recurrence.

    u * M_{m+1} = x * M_m' + 2m * x * M_{m-1} + (m+1) * M_m, with M_{-1} = 0.
    ``misplace_x=True`` multiplies the last term by x as well; that variant
    is a known-bad negative control (it already contradicts the closed form
    of the second central moment) and is kept only so verification can show
    the discrepancy.
    """
    m = om_cur.order
    dm = _p_mul_x(_p_dx(om_cur.coeffs), 1)
    mid: PolyXU = {}
    if om_prev is not None and m >= 1:
        mid = _p_scale(_p_mul_x(om_prev.coeffs, 1), Fraction(2 * m))
    last = _p_scale(om_cur.coeffs, Fraction(m + 1))
    if misplace_x:
        last = _p_mul_x(last, 1)
    total = _p_add(_p_add(dm, mid), last)
    return CentralMomentPoly(m + 1, _p_mul_uinv(total, 1))


def central_moments_by_recurrence(
    max_order: int, misplace_x: bool = False
) -> list[CentralMomentPoly]:
    """All central moment polynomials up to max_order via the recurrence."""
    polys = [CentralMomentPoly(0, {0: {0: Fraction(1)}})]
    prev: CentralMomentPoly | None = None
    for _ in range(max_order):
        nxt = recurrence_step(prev, polys[-1], misplace_x=misplace_x)
        prev = polys[-1]
        polys.append(nxt)
    return polys


def zeta_sq(u: float, x: float) -> float:
    """The factor with zeta^2(x) = x + 1/u; 2*zeta_sq/u is the second
    central moment."""
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
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
    if len(u_grid) < 3 or u_grid[-1] / u_grid[0] < 1e3:
        raise ValueError("u_grid must span at least three decades")
    if x <= 0.0:
        raise ValueError("decay fit needs x > 0 (all moments vanish at x=0)")
    vals = np.array([abs(central_moment(u, x, m)) for u in u_grid])
    slope = float(np.polyfit(np.log(u_grid), np.log(vals), 1)[0])
    limit = -float(math.floor((m + 1) / 2))
    return DecayReport(m, x, slope, limit, slope <= limit + 0.1)


def central_moment_bruteforce(u: float, x: float, m):
    """Reference value: B((t - x)^m; x) as one integral against the kernel.

    m is an order or a sequence of orders; a sequence returns an array with
    one value per order, all taken from one kernel integral whose target
    has the columns (t - x)^m, over the window apply uses for a black box
    of growth rate 0.  The value comes from quadrature of the Bessel-form
    kernel and shares nothing with the Stirling-number polynomials of
    central_moment; the verification suite cross-checks the two.
    """
    # operator imports this module
    from .operator import window_integral

    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    orders = np.asarray(m, dtype=np.float64)
    value, _ = window_integral(u, x, lambda t: np.power.outer(t - x, orders))
    return value if orders.ndim else float(value)

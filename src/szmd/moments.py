"""Raw and central moments of the operator in closed polynomial form.

Both are read off the generating function B(e^(st); x) = u/(u - s)
exp(usx/(u - s)), s < u: m! times its s^m coefficient is u^-m m! L_m(-ux)
(DLMF 18.12.13), so u^m B(t^m; x) = sum_l A_m[l] (ux)^l, A_m[l] = C(m, l)
m!/l!, which the operator's closed forms take only as logs (_log_moment_sum).
Times e^(-sx) it is the central one, (1 - s/u)^(-1) exp(s^2 x/(u - s)): mu_m =
sum_(k <= m/2) m!/k! C(m - k, k) x^k u^(-(m-k)), compared exactly with the
paper's derivative recurrence.  Each moment, zeta^2 = x + 1/u and delta_n =
mu_2 + 1/u^2 is one map {(k, d): c} of the terms c x^k u^(-d), which
MomentPoly.evaluate gives exactly, correctly rounded.  central_moment_bruteforce,
a quadrature of (t - x)^m against the kernel, shares no code with these.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import _check_point, _check_whole

# A polynomial sum c x^k u^(-d) as {(k, d): c}, zero coefficients left out.
PolyXU = dict[tuple[int, int], int]


@lru_cache(maxsize=None, typed=True)  # typed: True or 2.0 must not hit the entry of 1 or 2
def raw_moment_lambda_coeffs(m: int) -> tuple[int, ...]:
    """Integer A with u^m * B(t^m; x) = sum_l A[l] (ux)^l.

    These are the coefficients of m! L_m(-ux): A[l] = C(m, l) m!/l!.
    """
    m = _check_whole(m, "moment order m")
    a = [1]  # A[m]; A[l - 1] = A[l] l^2/(m - l + 1), exactly
    for l in range(m, 0, -1):
        a.append(a[-1] * l * l // (m - l + 1))
    return tuple(reversed(a))


@lru_cache(maxsize=None)
def _log_lambda_coeffs(m: int) -> tuple[tuple[float, ...], np.ndarray]:
    """ln A_m[l], l = 0..m, as a tuple and an array: math.log takes any int."""
    logs = tuple(map(math.log, raw_moment_lambda_coeffs(m)))
    return logs, np.array(logs)


def _log_moment_sum(m: int, ln_l: float) -> float:
    """ln sum_l A_m[l] L^l as a log-sum-exp of ln A_m[l] + l ln L, so no power
    of L and no A_m[l] overflows; ln L = -inf (L = 0) keeps ln m! alone."""
    terms = []  # loops, not comprehensions: faster here before Python 3.12
    for l, c in enumerate(_log_lambda_coeffs(m)[0]):
        terms.append(c + l * ln_l if l else c)
    top = max(terms)
    total = 0.0
    for t in terms:
        total += math.exp(t - top)
    return top + math.log(total)


def _log_moment_sum_grid(m: int, ln_l: np.ndarray) -> np.ndarray:
    """_log_moment_sum at each entry of ln_l, the m + 1 terms on a first axis."""
    logs = _log_lambda_coeffs(m)[1][:, None]
    terms = np.empty((m + 1, ln_l.size))
    terms[0] = logs[0]  # alone where L = 0: 0 * -inf would be NaN
    terms[1:] = logs[1:] + np.arange(1.0, m + 1.0)[:, None] * ln_l.ravel()
    top = terms.max(axis=0)
    return (top + np.log(np.exp(terms - top).sum(axis=0))).reshape(ln_l.shape)


@dataclass(frozen=True)
class MomentPoly:
    """A raw or central moment of the given order, zeta^2 or delta_n as an exact
    polynomial in x and 1/u; refusal, {m} the order, names its value's overflow."""

    order: int
    coeffs: PolyXU
    refusal: str = "central moment of order {m} overflows the double range"

    def evaluate(self, u: float, x: float) -> float:
        """The sum of the terms c x^k u^(-d), correctly rounded.

        With x = p/2^s and u = q/2^t a term is c (pq/2^(s+t))^k (2^t/q)^(k+d), so
        over _layout's denominator L q^N 2^((s+t)K) the sum is one integer, by
        Horner's rule in pq over k for each k + d; int / int rounds it once, and
        no power or coefficient has to fit a double, only the value."""
        _check_point(u, x)
        (p, a), (q, b) = float(x).as_integer_ratio(), float(u).as_integer_ratio()
        s, t = a.bit_length() - 1, b.bit_length() - 1
        st, pq = s + t, p * q
        big_k, big_n, lcd, rows = self._layout
        num = 0
        for n, row in rows:
            h = sh = 0
            for c in row:
                h = h * pq + (c << sh)
                sh += st
            num += h * q**(big_n - n) << t * n
        try:
            return num / (lcd * q**big_n << st * big_k)
        except OverflowError:
            raise OverflowError(f"{self.refusal.format(m=self.order)} at u={u}, x={x}") from None

    @cached_property
    def _layout(self) -> tuple[int, int, int, tuple[tuple[int, list[int]], ...]]:
        """(K, N, L, rows), taken once: the largest k and n = k + d, the common
        denominator L of the coefficients, and (n, L c for k = K, ..., 0) per n."""
        big_k, big_n = map(max, zip((0, 0), *((k, k + d) for k, d in self.coeffs)))
        lcd = math.lcm(*(c.denominator for c in self.coeffs.values()))
        rows = defaultdict(lambda: [0] * (big_k + 1))
        for (k, d), c in self.coeffs.items():
            rows[k + d][big_k - k] = int(c * lcd)
        return big_k, big_n, lcd, tuple(rows.items())

    def coeff_gap(self, other: "MomentPoly") -> int:
        """Largest |coefficient difference| with other, exact."""
        a, b = self.coeffs, other.coeffs
        return max((abs(a.get(key, 0) - b.get(key, 0)) for key in a.keys() | b.keys()), default=0)

    def same_coeffs(self, other: "MomentPoly", tol: float = 0.0) -> bool:
        """Coefficient-wise equality: exact when tol is 0, else within tol."""
        return self.coeff_gap(other) <= tol


@lru_cache(maxsize=None, typed=True)
def central_moment_poly(m: int) -> MomentPoly:
    """Central moment polynomial read off the central generating function.

    B(e^(s(t - x)); x) = (1 - s/u)^(-1) exp(s^2 x/(u - s)), and its s^m
    coefficient times m! is sum_(k <= m/2) m!/k! C(m - k, k) x^k u^(-(m-k)):
    every term has k + d = m and a positive integer coefficient.
    """
    m = _check_whole(m, "moment order m")
    return MomentPoly(m, {(k, m - k): math.perm(m, m - k) * math.comb(m - k, k)
                          for k in range(m // 2 + 1)})


def central_moment(u: float, x: float, m: int) -> float:
    """Central moment of order m at (u, x); 1 for m = 0, 1/u for m = 1."""
    return central_moment_poly(m).evaluate(u, x)


@lru_cache(maxsize=None, typed=True)
def _raw_moment_poly(m: int) -> MomentPoly:
    """B(t^m; x) = u^-m sum_l A_m[l] (ux)^l as the map {(l, m - l): A_m[l]}."""
    m = _check_whole(m, "moment order m")
    return MomentPoly(m, {(l, m - l): c for l, c in enumerate(raw_moment_lambda_coeffs(m))},
                      "B(t^{m}; x) overflows")


def raw_moment(u: float, x: float, m: int) -> float:
    """Operator applied to t^m at x, correctly rounded like central_moment:
    1, x + 1/u, (2 + 4xu + x^2 u^2)/u^2, ... for m = 0, 1, 2."""
    return _raw_moment_poly(m).evaluate(u, x)


def recurrence_step(om_prev: MomentPoly | None, om_cur: MomentPoly,
                    misplace_x: bool = False) -> MomentPoly:
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
    return MomentPoly(m + 1, {kd: c for kd, c in acc.items() if c})


def central_moments_by_recurrence(max_order: int,
                                  misplace_x: bool = False) -> list[MomentPoly]:
    """All central moment polynomials up to max_order via the recurrence."""
    max_order = _check_whole(max_order, "max_order")
    polys = [MomentPoly(0, {(0, 0): 1})]
    for m in range(max_order):
        polys.append(recurrence_step(polys[m - 1] if m else None, polys[m], misplace_x))
    return polys


_ZETA_SQ = MomentPoly(1, {(1, 0): 1, (0, 1): 1}, "zeta_sq = x + 1/u overflows")


def zeta_sq(u: float, x: float) -> float:
    """zeta^2(x) = x + 1/u correctly rounded, u/2 times the second central
    moment; refused where it leaves the double range, as for u below ~5.6e-309."""
    return _ZETA_SQ.evaluate(u, x)


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

    The slope is the least-squares line's, in closed form: sum(du dv) /
    sum(du^2) over the logs of u and of the moment, each less its mean.
    It should not exceed -floor((m+1)/2) + 0.1, the decay order the moment
    theory guarantees.
    """
    m = _check_whole(m, "moment order m")
    u_grid = np.asarray(sorted(u_grid), dtype=np.float64)
    if len(u_grid) < 3:
        raise ValueError("u_grid needs at least three values")
    _check_point(u_grid[0], x)  # central_moment checks the larger u
    if u_grid[-1] / u_grid[0] < 1e3:
        raise ValueError("u_grid must span at least three decades")
    if not (x > 0.0):
        raise ValueError("decay fit needs x > 0 (all moments vanish at x=0)")
    vals = np.array([abs(central_moment(u, x, m)) for u in u_grid])
    du, dv = (v - v.mean() for v in (np.log(u_grid), np.log(vals)))
    slope = float(du @ dv / (du @ du))
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
    orders = np.array([_check_whole(k, "moment order m") for k in (m if np.ndim(m) else [m])],
                      dtype=np.intp).reshape(np.shape(m))

    def columns(d, _x):  # products: pow would be a libm call per node and order
        powers = [np.ones_like(d)]
        for _ in range(orders.max(initial=0)):
            powers.append(powers[-1] * d)
        return np.stack(powers)[orders]

    value, _ = window_integral(u, x, columns)
    return value if value.ndim else float(value)

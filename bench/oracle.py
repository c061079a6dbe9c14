"""Reference values for the benchmark, computed without szmd's series code.

Every formula here is a closed form or a short sum in mpmath at 40 digits:

* exp-poly term t^m e^{at} (a may be complex):
  B = u (u-a)^{-(m+1)} e^{uax/(u-a)} sum_l A_m[l] L^l,  L = u^2 x/(u-a),
  with A_m[l] = C(m,l) m!/l! the coefficients of E[(X+1)...(X+m)],
  X ~ Poisson(L);
* |t-1|: x + 1/u - 1 + 2 sum_j s_j(x) [P(j+1,u)(1-(j+1)/u) + s_{u,j}(1)],
  with the regularized incomplete gamma P summed from a single mpmath
  gammainc by its Poisson recurrence;
* fixed-J truncation: the exact finite partial sum;
* kernel: u e^{-u(x+t)} I_0(2u sqrt(xt));
* kernel CDF: the noncentral chi-square form chndtr(2uy; 2, 2ux) (scipy,
  checked against mpmath quadrature of the Bessel density in the tests).

Each function returns ``(value, scale)``: ``scale`` is the same quantity for
the |g|-majorant of the target, so a relative budget against it is not
defeated by cancellation between terms.
"""
from __future__ import annotations

import math

import mpmath as mp
from scipy import special

DPS = 40
# Poisson mass more than this many standard deviations out is below 1e-45.
_SPAN_SD = 15.0


def _coeffs(m: int) -> list[int]:
    return [math.comb(m, l) * math.factorial(m) // math.factorial(l) for l in range(m + 1)]


def exppoly_term(u: float, x: float, m: int, a) -> mp.mpf | mp.mpc:
    """B(t^m e^{at}; x) in closed form; complex ``a`` gives a complex value."""
    with mp.workdps(DPS):
        u, x, a = mp.mpf(u), mp.mpf(x), mp.mpmathify(a)
        d = u - a
        lam = u * u * x / d
        poly = mp.fsum(c * lam**l for l, c in enumerate(_coeffs(m)))
        return +(u * d ** (-(m + 1)) * mp.exp(u * a * x / d) * poly)


def exppoly(terms, u: float, x: float) -> tuple[float, float]:
    """B(sum_k c_k t^m_k e^{a_k t}; x) for real (c, m, a) terms."""
    with mp.workdps(DPS):
        vals = [(c, exppoly_term(u, x, m, a)) for c, m, a in terms]
        return float(mp.fsum(c * v for c, v in vals)), float(mp.fsum(abs(c) * v for c, v in vals))


def sin_plus_t2(u: float, x: float) -> tuple[float, float]:
    """B(sin t + t^2; x); |sin| <= 1 puts B(1) = 1 into the scale."""
    with mp.workdps(DPS):
        sin_part = mp.im(exppoly_term(u, x, 0, mp.mpc(0, 1)))
        t2 = exppoly_term(u, x, 2, 0)
        return float(sin_part + t2), float(1 + t2)


def _poisson_run(lam, lo: int, hi: int) -> list:
    """Poisson(lam) masses for j = lo..hi by the ratio recurrence."""
    p = mp.exp(lo * mp.log(lam) - lam - mp.loggamma(lo + 1)) if lo else mp.exp(-lam)
    out = [p]
    for j in range(lo + 1, hi + 1):
        p = p * lam / j
        out.append(p)
    return out


def abs_shift(u: float, x: float) -> tuple[float, float]:
    """B(|t-1|; x) by the incomplete-gamma sum."""
    with mp.workdps(DPS):
        u, x = mp.mpf(u), mp.mpf(x)
        lam = u * x
        head = x + 1 / u - 1
        lo = max(0, int(lam - _SPAN_SD * mp.sqrt(lam) - 20))
        hi = int(min(lam + _SPAN_SD * mp.sqrt(lam) + 20, u + _SPAN_SD * mp.sqrt(u) + 20))
        if hi < lo:
            return float(head), float(abs(head))
        w_x = _poisson_run(lam, lo, hi)
        w_1 = _poisson_run(u, lo, hi + 1)  # s_{u,j}(1) = Poisson(u) mass at j
        # P(j+1, u) = Poisson(u) mass above j, summed downward from hi+1
        p_upper = mp.gammainc(hi + 2, 0, u, regularized=True)
        acc = mp.mpf(0)
        for k in range(hi - lo, -1, -1):
            p_upper += w_1[k + 1]
            j = lo + k
            acc += w_x[k] * (p_upper * (1 - (j + 1) / u) + w_1[k])
        val = head + 2 * acc
        return float(val), float(abs(val))


def exppoly_truncated(terms, u: float, x: float, j_max: int) -> tuple[float, float]:
    """u sum_{j<=J} s_j(x) sum_k c_k int s_j(t) t^m e^{at} dt, exactly."""
    with mp.workdps(DPS):
        u, x = mp.mpf(u), mp.mpf(x)
        lam = u * x
        w = _poisson_run(lam, 0, j_max)
        val = mp.mpf(0)
        scale = mp.mpf(0)
        for c, m, a in terms:
            d = u - a
            part = mp.fsum(
                w[j] * mp.power(u / d, j) * mp.rf(j + 1, m) / d ** (m + 1) for j in range(j_max + 1)
            )
            val += c * u * part
            scale += abs(c) * u * part
        return float(val), float(scale)


def kernel(u: float, x: float, t: float) -> tuple[float, float]:
    """Kernel density u e^{-u(x+t)} I_0(2u sqrt(xt))."""
    with mp.workdps(DPS):
        u, x, t = mp.mpf(u), mp.mpf(x), mp.mpf(t)
        val = u * mp.besseli(0, 2 * u * mp.sqrt(x * t)) * mp.exp(-u * (x + t))
        return float(val), float(val)


def kernel_cdf(u: float, x: float, y: float) -> tuple[float, float]:
    """Kernel mass on [0, y]: the noncentral chi-square CDF, df 2, nc 2ux."""
    val = float(special.chndtr(2.0 * u * y, 2.0, 2.0 * u * x))
    return val, val


def target(terms, t: float) -> float:
    """g(t) for real exp-poly terms, to 40 digits."""
    with mp.workdps(DPS):
        return float(mp.fsum(c * mp.mpf(t) ** m * mp.exp(a * mp.mpf(t)) for c, m, a in terms))

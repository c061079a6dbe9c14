"""High-precision references for the tests, each formula written once.

Nothing here imports szmd (tests/test_imports.py holds this), so a reference
cannot share a fault with the code it checks.  Each function sets its own
mpmath precision and returns its value with that many digits, so no test
depends on mpmath's global precision.
"""
import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammainc
from scipy.stats import poisson

LN_DBL_MAX = math.log(sys.float_info.max)


def _prefactor(u, m, d):
    """u m! d^{-(m+1)}, d = u - a: both Kummer forms and the partial sum's j = 0."""
    return u * mp.factorial(m) * d ** -(m + 1)


def kummer(u, x, m, a, dps=40):
    """B(t^m e^{at}; x) = u m! (u-a)^{-(m+1)} e^{-ux} 1F1(m+1; 1; u^2 x/(u-a)),
    the Poisson series summed as a Kummer function."""
    with mp.workdps(dps):
        u, x, a = mp.mpf(u), mp.mpf(x), mp.mpf(a)
        d = u - a
        return +(_prefactor(u, m, d) * mp.exp(-u * x) * mp.hyp1f1(m + 1, 1, u * u * x / d))


def log_kummer(u, x, m, a):
    """ln kummer at 40 digits through Kummer's transformation 1F1(m+1; 1; L) =
    e^L 1F1(-m; 1; -L) (DLMF 13.2.39): e^{-ux} e^L becomes e^{uax/(u-a)}, so
    no two exponents cancel (they lose every digit once ux ~ 1e40), and the
    log leaves out exp of an exponent near 1e300, which mpmath takes seconds
    for."""
    with mp.workdps(40):
        u, x, a = mp.mpf(u), mp.mpf(x), mp.mpf(a)
        d = u - a
        return (mp.log(_prefactor(u, m, d)) + u * a * x / d
                + mp.log(mp.hyp1f1(-m, 1, -u * u * x / d)))


def oracle(terms, u, x, dps=40):
    """(sum_k c_k B_k, sum_k |c_k| B_k) from kummer."""
    with mp.workdps(dps):
        parts = [(c, kummer(u, x, m, a, dps)) for c, m, a in terms]
        return mp.fsum(c * b for c, b in parts), mp.fsum(abs(c) * b for c, b in parts)


def far_oracle(terms, u, x):
    """(sum_k c_k B_k, ln sum_k |c_k| B_k) at 40 digits from log_kummer;
    a term below e^-10000 of the largest, or a sum below e^-10000, is 0,
    beyond every double's rounding."""
    logs = [log_kummer(u, x, m, a) for _, m, a in terms]
    with mp.workdps(40):
        top = max(logs)
        near = [(c, mp.exp(lg - top)) for (c, _, _), lg in zip(terms, logs) if lg - top > -1e4]
        log_scale = top + mp.log(mp.fsum(abs(c) * w for c, w in near))
        if not -1e4 < top <= LN_DBL_MAX + 1.0:
            return mp.mpf(0), log_scale
        return mp.exp(top) * mp.fsum(c * w for c, w in near), log_scale


def partial_sum_oracle(terms, u, x, j_max):
    """sum_k c_k B_J(t^m e^{at}; x) at 50 digits, B_J the series cut after J:
    u sum_{j<=J} s_j(x) u^j (j+m)!/(j! (u-a)^{j+m+1}), each term from the one
    before by the ratio (ux/(j+1)) u(j+m+1)/((j+1)(u-a))."""
    with mp.workdps(50):
        u, x = mp.mpf(u), mp.mpf(x)
        value = mp.mpf(0)
        for c, m, a in terms:
            d = u - a
            term = total = _prefactor(u, m, d) * mp.exp(-u * x)
            for j in range(j_max):
                term *= u * x * u * (j + m + 1) / ((j + 1) ** 2 * d)
                total += term
            value += c * total
        return value


def _kernel_at(u, root_x, s):
    """u e^{-u s^2} I_0(z) e^{-z}, z = 2u sqrt x (sqrt x + s): the kernel at
    t = (sqrt x + s)^2, for mpf u, root_x = sqrt x and s.  The exponent
    -u(x + t) + z is -u s^2, so nothing cancels however large u x is."""
    z = 2 * u * root_x * (root_x + s)
    return u * mp.exp(-u * s * s) * mp.besseli(0, z) * mp.exp(-z)


def kernel(u, x, t):
    """u e^{-u(x+t)} I_0(2u sqrt(xt)) (DLMF 10.25.2) at 40 digits, with
    s = sqrt t - sqrt x taken as (t - x)/(sqrt t + sqrt x), so it keeps its
    digits where t and x agree in theirs."""
    with mp.workdps(40):
        u, x, t = mp.mpf(u), mp.mpf(x), mp.mpf(t)
        s = (t - x) / (mp.sqrt(t) + mp.sqrt(x)) if t != x else mp.mpf(0)
        return +_kernel_at(u, mp.sqrt(x), s)


def kernel_offset(u, root_x, s):
    """K(x,t) dt/ds = 2 (sqrt x + s) K(x, (sqrt x + s)^2) at 40 digits: the
    kernel in the offset s = sqrt t - sqrt x, at the doubles root_x = sqrt x
    and s exactly."""
    with mp.workdps(40):
        u, root_x, s = mp.mpf(u), mp.mpf(root_x), mp.mpf(s)
        return +(2 * (root_x + s) * _kernel_at(u, root_x, s))


def kernel_quad(u, x, f=None, y=None, kinks=(), dps=20):
    """int_0^y K(x,t) f(t) dt, y = inf and f = 1 unless given, by mpmath
    quadrature in the offset s = sqrt t - sqrt x, split at 0 and +-6 and
    +-12 widths 1/sqrt(2u) of the kernel's bump about it, and at each kink.
    It uses neither scipy nor the library's quadrature, so it checks
    kernel_cdf (y given) and black-box integrals (f given) from outside."""
    with mp.workdps(dps):
        u, root_x = mp.mpf(u), mp.sqrt(mp.mpf(x))
        end = mp.inf if y is None else mp.sqrt(mp.mpf(y)) - root_x
        width = 1 / mp.sqrt(2 * u)
        cuts = [k * width for k in (-12, -6, 0, 6, 12)] + [mp.sqrt(k) - root_x for k in kinks]
        nodes = [-root_x, *sorted(c for c in cuts if -root_x < c < end), end]

        def integrand(s):
            value = 2 * (root_x + s) * _kernel_at(u, root_x, s)
            return value if f is None else value * f((root_x + s) ** 2)

        return mp.quad(integrand, nodes)


def cdf_series(u, x, y):
    """sum_j s_{u,j}(x) P(j+1, uy) over poisson_window(ux)."""
    lam = u * x
    j = poisson_window(lam)
    return math.fsum(poisson_weights(lam, j) * gammainc(j + 1.0, u * y))


def poisson_weight(lam, j, dps=40):
    """s_j = e^{-lam} lam^j / j!, the weight s_{u,j}(x) at lam = ux."""
    with mp.workdps(dps):
        lam = mp.mpf(lam)
        return +(mp.exp(-lam) * lam**j / mp.factorial(j))


def poisson_window(lam):
    """The j (as floats) within 40 standard deviations and 50 of lam; every
    weight past them is below e^-800, 0 as a double."""
    spread = 40.0 * math.sqrt(lam) + 50.0
    return np.arange(max(0.0, math.floor(lam - spread)), math.ceil(lam + spread) + 1.0)


def poisson_weights(lam, j):
    """poisson_weight as doubles over the consecutive j, stepped out from a
    40-digit weight at the j nearest the mode, which keeps them ~1e-14
    accurate where exp(j ln lam - lam - ln j!) loses ~lam * eps_mach."""
    j0 = min(max(math.floor(lam), j[0]), j[-1])
    w0 = float(poisson_weight(lam, int(j0)))
    down = w0 * np.cumprod(np.arange(j0, j[0], -1.0) / lam)[::-1]
    up = w0 * np.cumprod(lam / np.arange(j0 + 1.0, j[-1] + 1.0))
    return np.concatenate([down, [w0], up])


def closed_form_raw(u, x, m):
    """The first four raw moments in their published closed forms."""
    return [
        1.0,
        1.0 / u + x,
        (2.0 + 4.0 * x * u + x**2 * u**2) / u**2,
        (6.0 + 18.0 * x * u + 9.0 * x**2 * u**2 + x**3 * u**3) / u**3,
    ][m]


def _scaled(u, x):
    """Integers (n, d, w) with ux = n/d and ud = w at float (u, x)."""
    (u_num, u_den), (x_num, x_den) = Fraction(u).as_integer_ratio(), Fraction(x).as_integer_ratio()
    return u_num * x_num, u_den * x_den, u_num * x_den


def _raw_numerator(n, d, m):
    """sum_l A_m[l] n^l d^(m-l) = (ud)^m B(t^m; x) for ux = n/d, A_m[l] =
    C(m, l) m!/l! the integers of m! L_m(-ux) (DLMF 18.5.12), by Horner's rule
    with a running power of d."""
    acc, d_power = 0, 1
    for l in range(m, -1, -1):
        acc = acc * n + math.comb(m, l) * (math.factorial(m) // math.factorial(l)) * d_power
        d_power *= d
    return acc


def exact_raw_moment(u, x, m):
    """B(t^m; x) = u^-m sum_l A_m[l] (ux)^l in exact rationals at float (u, x)."""
    n, d, w = _scaled(u, x)
    return Fraction(_raw_numerator(n, d, m), w**m)


def exact_central_moment(u, x, m):
    """B((t - x)^m; x) = sum_i C(m, i) (-x)^(m-i) B(t^i; x) in exact
    rationals at float (u, x).  With ux = n/d and ud = w, (-x)^(m-i) is
    (-n)^(m-i)/w^(m-i) and B(t^i; x) is _raw_numerator/w^i, so the terms are
    integers over w^m, summed before one Fraction is normalised."""
    n, d, w = _scaled(u, x)
    return Fraction(sum(math.comb(m, i) * (-n) ** (m - i) * _raw_numerator(n, d, i)
                        for i in range(m + 1)), w**m)


def central_moments_taylor(u, x, max_m, dps=50):
    """B((t - x)^m; x) for m = 0..max_m as m! times the theta^m Taylor
    coefficient of the central generating function
    B(e^{theta (t - x)}; x) = u/(u - theta) exp(theta^2 x/(u - theta))."""
    with mp.workdps(dps):
        u, x = mp.mpf(u), mp.mpf(x)
        coeffs = mp.taylor(lambda th: u / (u - th) * mp.exp(th * th * x / (u - th)), 0, max_m,
                           chop=False)  # chop would zero the tiny coefficients at large u
        return [+(mp.factorial(m) * c) for m, c in enumerate(coeffs)]


def per_j_series(u, x, m, eps=1e-12):
    """B((t - x)^m; x) as its Poisson series, one adaptive quad per j.

    Independent of both the kernel and the moment polynomials: the series
    stops where the neglected Poisson mass is below eps.  Needs x > 0.
    """
    lam = u * x
    j_last = int(poisson.isf(eps, lam))
    total = 0.0
    for j in range(j_last + 1):
        w = math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))
        if w < 1e-16:
            continue

        def f(t: float, j: int = j) -> float:
            if t <= 0.0:
                return (t - x) ** m if j == 0 else 0.0
            lw = j * math.log(u * t) - u * t - math.lgamma(j + 1)
            return math.exp(lw) * (t - x) ** m if lw > -745.0 else 0.0

        hi = (j + 40.0 + 12.0 * math.sqrt(j + 1.0)) / u + 2.0 * x
        pts = [x] if 0.0 < x < hi else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                f, 0.0, hi, points=pts, limit=300, epsabs=1e-15, epsrel=1e-13
            )
        total += w * val
    return u * total

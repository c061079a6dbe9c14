"""The oracle against the published cells, raw_moment and quadrature."""
import math

import mpmath as mp
import pytest

import oracle
import szmd
from szmd.report import REFERENCE_ABS_ERRORS, REFERENCE_NS, REFERENCE_XS

X2E2X = ((1.0, 2, 2.0),)
POWERS = {"n": 1.0, "n^1.5": 1.5, "n^2": 2.0}


def test_reproduces_published_cells():
    cells = 0
    for label, rows in REFERENCE_ABS_ERRORS.items():
        for x in REFERENCE_XS:
            gx = oracle.target(X2E2X, x)
            for n, want in zip(REFERENCE_NS, rows[x]):
                got = abs(oracle.exppoly(X2E2X, float(n) ** POWERS[label], x)[0] - gx)
                assert abs(got - want) <= 1e-3 * want, (label, x, n, got, want)
                cells += 1
    assert cells == 147


@pytest.mark.parametrize("u", [1.0, 7.5, 100.0, 1e4, 1e6])
@pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 2.5])
def test_matches_raw_moment(u, x):
    for m in range(7):
        want = szmd.raw_moment(u, x, m)
        got = float(oracle.exppoly_term(u, x, m, 0))
        assert abs(got - want) <= 1e-14 * abs(want)


def _by_quadrature(u, x, g):
    """B(g; x) as the integral of the Bessel kernel against g."""
    with mp.workdps(30):
        def kern(t):
            return u * mp.besseli(0, 2 * u * mp.sqrt(x * t)) * mp.exp(-u * (x + t))
        knots = sorted({0.0, x / 2, x, 1.0, 2 * x + 1, 4 * x + 4})
        return mp.quad(lambda t: kern(t) * g(t), knots + [mp.inf])


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_closed_forms_match_quadrature(x):
    u = 12.0
    cases = [
        (oracle.exppoly(((1.5, 2, 2.0), (-0.5, 1, -1.0)), u, x)[0],
         lambda t: 1.5 * t**2 * mp.exp(2 * t) - 0.5 * t * mp.exp(-t)),
        (oracle.sin_plus_t2(u, x)[0], lambda t: mp.sin(t) + t**2),
        (oracle.abs_shift(u, x)[0], lambda t: abs(t - 1)),
    ]
    for got, g in cases:
        want = float(_by_quadrature(u, x, g))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_abs_shift_at_large_u():
    # the sum runs over a window of the Poisson mass; check it against the
    # Gaussian limit sqrt(4/(pi u)) of B(|t-1|; 1) to leading order
    val = oracle.abs_shift(1e6, 1.0)[0]
    assert abs(val / math.sqrt(4.0 / (math.pi * 1e6)) - 1.0) < 1e-3
    assert oracle.abs_shift(1e4, 2.5)[0] == pytest.approx(1.5001, rel=1e-15)


def test_truncated_sum_tends_to_closed_form():
    for u, x in [(15.0, 0.5), (50.0, 2.5)]:
        full = oracle.exppoly(((-1.0, 3, -5.0),), u, x)[0]
        part = oracle.exppoly_truncated(((-1.0, 3, -5.0),), u, x, 600)[0]
        assert part == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("u,x,t", [(10.0, 1.0, 0.7), (100.0, 0.5, 0.55), (1e4, 2.0, 1.98)])
def test_kernel_and_cdf_match_series_and_quadrature(u, x, t):
    want_kernel, want_cdf = oracle.kernel(u, x, t)[0], oracle.kernel_cdf(u, x, t)[0]
    with mp.workdps(30):
        u, x, t = mp.mpf(u), mp.mpf(x), mp.mpf(t)
        # u sum_j s_j(x) s_j(t), summed well past the Poisson mode
        log_lam = mp.log(u * mp.sqrt(x * t))
        top = int(u * max(x, t) + 40 * mp.sqrt(u * max(x, t)) + 50)
        series = u * mp.fsum(mp.exp(2 * j * log_lam - u * (x + t) - 2 * mp.loggamma(j + 1))
                             for j in range(top + 1))
        assert want_kernel == pytest.approx(float(series), rel=1e-13)
        sd = mp.sqrt(2 * x / u)
        knots = sorted({mp.mpf(0), max(x - 8 * sd, mp.mpf(0)), max(x - 2 * sd, mp.mpf(0)), x, t})
        cdf = mp.quad(lambda s: u * mp.besseli(0, 2 * u * mp.sqrt(x * s)) * mp.exp(-u * (x + s)),
                      [k for k in knots if k <= t])
        assert want_cdf == pytest.approx(float(cdf), rel=1e-10)

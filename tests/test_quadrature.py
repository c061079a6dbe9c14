import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc, gammaincc

import szmd
from szmd import operator
from szmd.operator import apply, apply_truncated
from szmd.quadrature import (
    ConvergenceFailure,
    DivergentIntegral,
    _gk21,
    kernel_integral,
    log_exppoly_integrals,
)
from szmd.targets import BlackBox, ExpPolySum, MonomialSum
import reference

US = (1e2, 1e4, 1e6)
XS = (0.0, 0.1, 1.0, 2.5)


def _basis_integral(u, j, m, a=0.0):
    """Integral of s_{u,j}(t) t^m e^{at} over [0, inf)."""
    return float(np.exp(log_exppoly_integrals(u, m, a, np.array([float(j)]))[0]))


def _abs_shift_reference(u, x):
    """B(|t-1|; x) as the Poisson mixture of its incomplete-gamma integrals.

    With T ~ Gamma(j+1, 1/u), k = (j+1)/u and P = P(j+1, u), u times the
    inner integral is E|T-1| = (1-k)(2P-1) + 2 s_{u,j}(1): both terms are
    >= 0 near the kink, so nothing cancels.
    """
    j = reference.poisson_window(u * x)
    k = (j + 1.0) / u
    inner = ((1.0 - k) * (gammainc(j + 1.0, u) - gammaincc(j + 1.0, u))
             + 2.0 * reference.poisson_weights(u, j))
    return math.fsum(reference.poisson_weights(u * x, j) * inner)


class TestExactMonomial:
    def test_normalization_any_index(self):
        np.testing.assert_allclose(_basis_integral(5.0, 3, 0), 0.2, rtol=1e-14)

    def test_gamma_value(self):
        np.testing.assert_allclose(_basis_integral(1.0, 0, 2), 2.0, rtol=1e-14)

    def test_factorial_ratio(self):
        # 10! / (7! 10^4)
        np.testing.assert_allclose(_basis_integral(10.0, 7, 3), 0.072, rtol=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            _basis_integral(-1.0, 0, 0)


class TestExactExpPoly:
    def test_zero_rate_reduces_to_monomial(self):
        for (u, j, m) in [(5.0, 2, 1), (10.0, 0, 3), (3.0, 7, 0)]:
            want = math.factorial(j + m) / (math.factorial(j) * u ** (m + 1))
            np.testing.assert_allclose(_basis_integral(u, j, m, 0.0), want, rtol=1e-14)

    def test_growing_target_value(self):
        np.testing.assert_allclose(_basis_integral(10.0, 0, 2, 2.0), 2.0 / 8.0**3, rtol=1e-14)

    def test_divergence_at_boundary(self):
        with pytest.raises(DivergentIntegral):
            _basis_integral(2.0, 1, 0, 2.0)
        with pytest.raises(DivergentIntegral):
            _basis_integral(1.0, 0, 0, 5.0)


class TestNumericIntegral:
    """Black boxes through one kernel integral, against closed forms."""

    def test_normalization_blackbox(self):
        g = BlackBox(lambda t: 1.0, growth_rate=0.0)
        for u in US:
            for x in XS:
                np.testing.assert_allclose(apply(g, u, x).value, 1.0, rtol=1e-12)

    def test_matches_exact_growing(self):
        g = BlackBox(lambda t: t**2 * math.exp(2.0 * t), growth_rate=2.0)
        want = ExpPolySum(((1.0, 2, 2.0),))
        for u in US:
            for x in XS:
                np.testing.assert_allclose(apply(g, u, x).value, apply(want, u, x).value,
                                           rtol=1e-12)

    def test_matches_exact_decaying(self):
        g = BlackBox(lambda t: -(t**3) * math.exp(-5.0 * t), growth_rate=-5.0)
        want = ExpPolySum(((-1.0, 3, -5.0),))
        for u in US:
            for x in XS:
                np.testing.assert_allclose(apply(g, u, x).value, apply(want, u, x).value,
                                           rtol=1e-12)

    def test_index_beyond_largest_node(self):
        # at u = 1e4, x = 1 the Poisson weights live at j ~ 1e4, and at
        # u = 1e6 the kernel's mass lies within ~0.003 of x
        g = BlackBox(lambda t: math.exp(-t), growth_rate=0.0)
        want = ExpPolySum(((1.0, 0, -1.0),))
        for u in US:
            for x in XS:
                np.testing.assert_allclose(apply(g, u, x).value, apply(want, u, x).value,
                                           rtol=1e-12)

    def test_divergence_guard(self):
        g = BlackBox(lambda t: math.exp(2.0 * t), growth_rate=2.0)
        with pytest.raises(DivergentIntegral):
            apply(g, 1.5, 1.0)
        with pytest.raises(DivergentIntegral):
            apply_truncated(g, 1.5, 1.0, 3)

    def test_exact_numeric_agreement_grid(self):
        # forces the quadrature path via BlackBox even for monomials
        for u in (5.0, 10.0, 100.0):
            for m in range(5):
                g = BlackBox(lambda t, m=m: t**m, growth_rate=0.0)
                want = MonomialSum(((1.0, m),))
                for x in XS:
                    np.testing.assert_allclose(apply(g, u, x).value, apply(want, u, x).value,
                                               rtol=1e-12)

    def test_positivity(self):
        g = BlackBox(lambda t: 1.0 + math.sin(t) ** 2, growth_rate=0.0)
        for u in US:
            for x in XS:
                assert apply(g, u, x).value >= 1.0 - 1e-12

    def test_linearity(self):
        g1 = BlackBox(lambda t: t, growth_rate=0.0)
        g2 = BlackBox(lambda t: math.exp(-t), growth_rate=0.0)
        combo = BlackBox(lambda t: 2.0 * t - 3.0 * math.exp(-t), growth_rate=0.0)
        for u in US:
            for x in XS:
                a, b = apply(g1, u, x).value, apply(g2, u, x).value
                c = apply(combo, u, x).value
                assert abs(c - (2.0 * a - 3.0 * b)) <= 1e-12 * (2.0 * a + 3.0 * b)

    def test_kinked_target_against_incomplete_gamma(self):
        g = BlackBox(lambda t: abs(t - 1.0), growth_rate=0.0, kinks=(1.0,))
        for u in US:
            for x in XS:
                np.testing.assert_allclose(apply(g, u, x).value, _abs_shift_reference(u, x),
                                           rtol=1e-12)


class TestGaussKronrod:
    @pytest.mark.parametrize("f, a, b", [
        (np.sqrt, 0.0, 1.0),
        (lambda t: np.abs(t - 0.3), 0.0, 1.0),
        (lambda t: 1.0 / (1.0 + 100.0 * t * t), -1.0, 1.0),
        (lambda t: np.sin(30.0 * t), 0.0, 2.0),
    ], ids=["sqrt", "kink", "runge", "oscillating"])
    def test_one_rule_matches_quadpack(self, f, a, b):
        # quad with limit=1 returns QUADPACK's qk21 value and error estimate
        # on [a, b] unrefined; the error estimates here are far above
        # rounding, so the heuristic must agree to many digits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            want, want_err = integrate.quad(lambda t: float(f(np.float64(t))), a, b, limit=1)
        # f rides on the kernel, which takes the nodes themselves
        value, error, _ = _gk21(lambda u, root_x, s: f(s), lambda d, x: np.ones_like(d),
                                np.zeros(1), np.zeros(1), np.array([a]), np.array([b]))
        np.testing.assert_allclose(value[0], want, rtol=1e-14)
        np.testing.assert_allclose(error[0], want_err, rtol=1e-9)


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kinks", [(), (1.0,)])
    def test_non_finite_target_is_refused(self, value, kinks):
        g = BlackBox(lambda t: value, growth_rate=0.0, kinks=kinks)
        with pytest.raises(ConvergenceFailure):
            apply(g, 10.0, 1.0)

    def test_overflowing_pass_is_not_accepted(self):
        # the window reaches t = 841 and e^t is inf past t = 709, where the
        # tilted kernel still carries e^-29 of its peak: an infinite target
        # value is refused, never summed into the estimate
        g = BlackBox(lambda t: math.exp(t) if t < 709.0 else math.inf, growth_rate=1.0)
        with pytest.raises(ConvergenceFailure):
            apply(g, 1.5, 40.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kinks", [(), (1.0,)])
    def test_one_bad_column_is_refused_at_the_same_node(self, value, kinks):
        # the kernel integral under apply, with a two-column target whose
        # second column is not finite past t = 1.5 (the window is [0, 10.5])
        def two_columns(d, x):
            return np.stack([np.ones_like(d), np.where(x + d > 1.5, value, 1.0)])

        def one_column(d, x):
            return two_columns(d, x)[1]

        window = operator._blackbox_window(10.0, 1.0, 0.0, kinks)
        refusals = []
        for g in (one_column, two_columns):
            with pytest.raises(ConvergenceFailure, match="target is not finite at t=") as exc:
                kernel_integral(operator._kernel_values, g, [10.0], [1.0], [window])
            refusals.append(str(exc.value).split(":")[0])
        assert refusals[0] == refusals[1]
        assert "(u=10.0, x=1.0)" in refusals[0]


def _batch_integral(g, kinks, us, xs):
    """kernel_integral at the points (us[i], xs[i]), over apply's windows,
    and the number of subintervals it ends with at each point: the kernel
    sees 21 nodes per evaluated subinterval, and every split evaluates two
    halves of one subinterval."""
    nodes = Counter()

    def kernel(u, root_x, s):
        for point in zip(u[:, 0].tolist(), root_x[:, 0].tolist()):
            nodes[point] += s.shape[1]
        return operator._kernel_values(u, root_x, s)

    windows = [operator._blackbox_window(u, x, 0.0, kinks) for u, x in zip(us, xs)]
    value, error = kernel_integral(kernel, g, us, xs, windows)
    counts = [(nodes[u, math.sqrt(x)] // 21 + len(w[2]) + 1) // 2
              for u, x, w in zip(us.tolist(), xs.tolist(), windows)]
    return value, error, counts


BATCH_TARGETS = {  # each of t - x and x at the nodes
    "kinked": (lambda d, x: np.abs(x + d - 1.0), (1.0,), (0.0, 6.0)),
    "smooth": (lambda d, x: np.exp(-(x + d)) * np.cos(3.0 * (x + d)), (), (0.0, 6.0)),
    "moments": (lambda d, x: d ** np.arange(7.0)[:, None, None], (), (0.0, 6.0)),
    # undeclared kinks every pi/7: some points stop at 200 subintervals
    "ridged": (lambda d, x: np.abs(np.sin(7.0 * (x + d))), (), (1.2, 1.6)),
}


class TestBatch:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", list(BATCH_TARGETS))
    def test_each_problem_is_refined_as_if_alone(self, name, seed):
        g, kinks, log_u = BATCH_TARGETS[name]
        rng = np.random.default_rng(seed)
        us = 10.0 ** rng.uniform(*log_u, 7)
        xs = np.append(0.0, rng.uniform(0.05, 2.5, 6))
        value, error, counts = _batch_integral(g, kinks, us, xs)
        assert value.shape == error.shape == ((7, 7) if name == "moments" else (7,))
        for i in range(len(us)):
            alone, alone_error, alone_count = _batch_integral(g, kinks, us[i:i + 1], xs[i:i + 1])
            assert counts[i] == alone_count[0]
            assert np.all(np.abs(value[i] - alone[0]) <= 1e-2 * alone_error[0])
        if name == "ridged":
            assert 200 in counts and min(counts) < 200

    @pytest.mark.parametrize("seed", range(3))
    def test_each_subinterval_rounds_as_if_alone(self, seed):
        # a mixed batch of subintervals of different points and widths, with
        # the seven moment columns: value, error and floor of each one have
        # the bits of _gk21 on that subinterval alone
        rng = np.random.default_rng(seed)
        n = 40
        us, xs = 10.0 ** rng.uniform(0.0, 6.0, n), rng.uniform(0.0, 2.5, n)
        a = rng.uniform(0.0, 3.0, n)
        b = a + 10.0 ** rng.uniform(-6.0, 0.5, n)
        g = BATCH_TARGETS["moments"][0]
        with np.errstate(all="ignore"):  # as under kernel_integral
            batch = _gk21(operator._kernel_values, g, us, xs, a, b)
            assert all(v.shape == (7, n) for v in batch)
            for i in range(n):
                s = slice(i, i + 1)
                alone = _gk21(operator._kernel_values, g, us[s], xs[s], a[s], b[s])
                for got, want in zip(batch, alone):
                    assert got[:, s].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_moment_totals_have_the_bits_of_each_point_alone(self, seed):
        g, kinks, log_u = BATCH_TARGETS["moments"]
        rng = np.random.default_rng(seed)
        us = 10.0 ** rng.uniform(*log_u, 7)
        xs = np.append(0.0, rng.uniform(0.05, 2.5, 6))
        value, error, _ = _batch_integral(g, kinks, us, xs)
        for i in range(len(us)):
            alone, alone_error, _ = _batch_integral(g, kinks, us[i:i + 1], xs[i:i + 1])
            assert value[i].tobytes() == alone[0].tobytes()
            assert error[i].tobytes() == alone_error[0].tobytes()

    def test_refusal_names_the_problem_whose_target_is_not_finite(self):
        us, xs = np.array([10.0, 20.0, 30.0]), np.array([1.0, 1.5, 2.0])

        def g(d, x):
            return np.where((x == 1.5) & (x + d > 2.0), np.inf, 1.0)

        windows = [operator._blackbox_window(u, x, 0.0, ()) for u, x in zip(us, xs)]
        with pytest.raises(ConvergenceFailure, match=r"\(u=20.0, x=1.5\)"):
            kernel_integral(operator._kernel_values, g, us, xs, windows)


class TestDispatch:
    def test_structured_targets_bypass_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a structured target went through quadrature")

        monkeypatch.setattr(operator, "kernel_integral", refuse)
        g = ExpPolySum(((1.0, 2, 2.0),))
        assert apply(g, 10.0, 1.0).inner_integral_error == 0.0
        assert apply(MonomialSum(((2.0, 1),)), 10.0, 1.0).inner_integral_error == 0.0
        assert apply_truncated(g, 10.0, 1.0, 20).inner_integral_error == 0.0

    def test_blackbox_goes_numeric(self):
        op = apply(BlackBox(lambda t: t, growth_rate=0.0), 10.0, 1.0)
        np.testing.assert_allclose(op.value, 1.1, rtol=1e-13)
        assert 0.0 < op.inner_integral_error <= 1e-12
        assert (op.series_terms_used, op.tail_mass, op.tail_bound) == (0, 0.0, 0.0)


def test_import_leaves_scipy_integrate_unloaded():
    # the kernel integral and the grid gauges are numpy only: importing szmd
    # must not pay for scipy.integrate or scipy.ndimage
    code = ("import sys, szmd; "
            "print('scipy.integrate' in sys.modules or 'scipy.ndimage' in sys.modules)")
    src = str(Path(szmd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"

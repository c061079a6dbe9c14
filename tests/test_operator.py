import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import poisson

from szmd import operator
from szmd.operator import (
    OperatorOverflow,
    SequenceRule,
    apply,
    apply_truncated,
    kernel_cdf,
    kernel_value,
    parse_rule,
)
from szmd.quadrature import DivergentIntegral
from szmd.targets import BUILTIN_TARGETS, BlackBox, ExpPolySum

ONE = BUILTIN_TARGETS["one"]
T = BUILTIN_TARGETS["t"]
T2 = BUILTIN_TARGETS["t2"]
X2E2X = BUILTIN_TARGETS["x2e2x"]
NEGX3E5X = BUILTIN_TARGETS["negx3e5x"]
EXPNEG = BUILTIN_TARGETS["expneg"]


class TestApply:
    def test_fixes_constants(self):
        op = apply(ONE, 10.0, 0.7)
        np.testing.assert_allclose(op.value, 1.0, atol=1e-12)

    def test_first_moment_shift(self):
        op = apply(T, 10.0, 1.0)
        np.testing.assert_allclose(op.value, 1.1, atol=1e-12)

    def test_reference_cell_u100(self):
        # |B(g;1) - g(1)| = 1.46137 to 5 significant digits for g = t^2 e^{2t}
        op = apply(X2E2X, 100.0, 1.0)
        err = abs(op.value - X2E2X(1.0))
        np.testing.assert_allclose(err, 1.46137, rtol=1e-5)

    def test_divergence(self):
        with pytest.raises(DivergentIntegral):
            apply(X2E2X, 2.0, 1.0)
        with pytest.raises(DivergentIntegral):
            apply(X2E2X, 1.5, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            apply(ONE, -1.0, 1.0)
        with pytest.raises(ValueError):
            apply(ONE, 10.0, -0.1)

    def test_boundedness_for_bounded_target(self):
        # sup |e^{-t}| = 1, so operator values stay within 1 plus tail slack
        for u in (5.0, 50.0, 500.0):
            for x in (0.0, 0.5, 1.0, 2.5):
                op = apply(EXPNEG, u, x)
                assert abs(op.value) <= 1.0 + 1e-10

    def test_positivity(self):
        g = ExpPolySum(((1.0, 2, -1.0),))  # t^2 e^{-t} >= 0
        for u in (5.0, 50.0):
            for x in (0.0, 0.5, 2.0):
                assert apply(g, u, x).value >= -1e-12

    def test_linearity(self):
        combo = ExpPolySum(((2.0, 1, 0.0), (-3.0, 0, -1.0)))  # 2t - 3e^{-t}
        for u, x in [(10.0, 0.5), (100.0, 2.0)]:
            a = apply(T, u, x).value
            b = apply(EXPNEG, u, x).value
            c = apply(combo, u, x).value
            np.testing.assert_allclose(c, 2.0 * a - 3.0 * b, rtol=1e-11)

    def test_x_zero_single_term(self):
        # at the origin only j = 0 contributes
        op = apply(X2E2X, 10.0, 0.0)
        want = 10.0 * 2.0 / 8.0**3  # u * exact integral at j=0, m=2, a=2
        np.testing.assert_allclose(op.value, want, rtol=1e-13)
        assert apply_truncated(X2E2X, 10.0, 0.0, 0).series_terms_used == 1

    def test_tail_mass_respects_eps(self):
        for eps in (1e-10, 1e-14):
            op = apply_truncated(X2E2X, 50.0, 1.5, int(poisson.isf(eps, 50.0 * 1.5)))
            assert op.tail_mass <= eps

    def test_blackbox_matches_structured(self):
        g_bb = BlackBox(
            lambda t: t * t * math.exp(2.0 * t), growth_rate=2.0, label="t2e2t"
        )
        a = apply(X2E2X, 20.0, 0.8).value
        b = apply(g_bb, 20.0, 0.8).value
        np.testing.assert_allclose(b, a, rtol=1e-12)


class TestClosedForm:
    def test_reports_no_series(self):
        op = apply(NEGX3E5X, 50.0, 1.0)
        assert op.series_terms_used == 0 and op.tail_mass == 0.0
        assert 0.0 < op.tail_bound <= 1e-13 * abs(op.value)

    def test_sums_no_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a series was summed")

        for name in ("log_weights", "tail_mass", "kernel_integral"):
            monkeypatch.setattr(operator, name, refuse)
        apply(X2E2X, 1e6, 2.5)
        kernel_value(1e6, 1.0, 1.001)
        kernel_cdf(1e6, 1.0, 1.001)


class TestOverflow:
    def test_closed_form_overflow_is_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflow):
                apply(X2E2X, 3.0, 300.0)

    def test_fixed_j_partial_sum_overflow_is_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflow):
                apply_truncated(X2E2X, 3.0, 300.0, 3000)

    def test_blackbox_partial_sum_overflow_is_typed(self):
        # the target is finite; the kernel (peak ~2.8 at u = 100) times it
        # is not
        g = BlackBox(lambda t: 1e308, growth_rate=0.0)
        with pytest.raises(OperatorOverflow):
            apply(g, 100.0, 1.0)

    def test_majorant_overflow_leaves_an_infinite_tail_bound(self):
        op = apply_truncated(X2E2X, 3.0, 300.0, 10)
        assert math.isfinite(op.value) and op.tail_bound == math.inf


class TestBlackBoxNearGrowthEdge:
    @pytest.mark.parametrize("u", [2.5, 3.0])
    @pytest.mark.parametrize("x", [0.1, 1.0])
    def test_matches_the_closed_form(self, u, x):
        # the mass of K(x,t) t^2 e^{2t} lies near t = u^2 x/(u-2)^2, up to 25
        g = BlackBox(lambda t: t * t * math.exp(2.0 * t), growth_rate=2.0)
        np.testing.assert_allclose(apply(g, u, x).value, apply(X2E2X, u, x).value, rtol=1e-12)

    def test_target_overflowing_at_the_tilted_mode_is_typed(self):
        # at u = 2.1, x = 1 the mass lies near t = 441, where e^{2t} overflows
        g = BlackBox(lambda t: t * t * math.exp(2.0 * t), growth_rate=2.0)
        with pytest.raises(OperatorOverflow):
            apply(g, 2.1, 1.0)


class TestApplyTruncated:
    def test_origin_with_zero_terms(self):
        op = apply_truncated(ONE, 15.0, 0.0, 0)
        assert op.value == pytest.approx(1.0, abs=1e-14)

    def test_truncation_gap_within_reported_tail(self):
        full = apply(NEGX3E5X, 15.0, 1.0)
        trunc = apply_truncated(NEGX3E5X, 15.0, 1.0, 15)
        gap = abs(full.value - trunc.value)
        assert gap <= trunc.tail_bound * (1.0 + 1e-9)
        # the target never changes sign, so the majorant is nearly sharp
        assert gap >= 0.5 * trunc.tail_bound

    def test_converges_to_first_moment(self):
        op = apply_truncated(T, 35.0, 2.5, 300)
        np.testing.assert_allclose(op.value, 2.5 + 1.0 / 35.0, rtol=1e-12)

    def test_reports_actual_neglected_mass(self):
        op = apply_truncated(ONE, 50.0, 2.5, 50)  # cut far below the mode 125
        assert op.tail_mass > 0.99

    @pytest.mark.parametrize("j_max", [0, 15, 60])
    def test_blackbox_matches_the_structured_partial_sum(self, j_max):
        g = BlackBox(lambda t: -(t**3) * math.exp(-5.0 * t), growth_rate=-5.0)
        want = apply_truncated(NEGX3E5X, 15.0, 1.0, j_max)
        op = apply_truncated(g, 15.0, 1.0, j_max)
        majorant = abs(apply(NEGX3E5X, 15.0, 1.0).value)
        assert abs(op.value - want.value) <= 1e-12 * majorant
        assert op.series_terms_used == j_max + 1 and op.tail_mass == want.tail_mass
        # both tail bounds measure the |g|-majorant's neglected part
        np.testing.assert_allclose(op.tail_bound, want.tail_bound, rtol=1e-9, atol=1e-15)
        full = apply(g, 15.0, 1.0).value
        assert abs(full - op.value) <= op.tail_bound


class TestKernel:
    def test_origin_value(self):
        np.testing.assert_allclose(kernel_value(10.0, 0.0, 0.0), 10.0, rtol=1e-15)

    def test_symmetry(self):
        a = kernel_value(10.0, 1.0, 2.0)
        b = kernel_value(10.0, 2.0, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_integrates_to_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                lambda t: kernel_value(10.0, 1.0, t), 0.0, 30.0, limit=200
            )
        np.testing.assert_allclose(val, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("u", [10.0, 50.0])
    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_represents_the_operator(self, u, x):
        # integrating the kernel against g reproduces the series value
        for g, gf in ((ONE, lambda t: 1.0), (T, lambda t: t), (T2, lambda t: t * t)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, _ = integrate.quad(
                    lambda t: kernel_value(u, x, t) * gf(t),
                    0.0,
                    x + 50.0,
                    limit=300,
                )
            np.testing.assert_allclose(val, apply(g, u, x).value, rtol=1e-8)


class TestKernelCdf:
    def test_empty_interval(self):
        assert kernel_cdf(10.0, 1.0, 0.0) == 0.0

    def test_normalizes(self):
        np.testing.assert_allclose(kernel_cdf(10.0, 1.0, 250.0), 1.0, atol=1e-12)

    def test_monotone_in_y(self):
        ys = np.linspace(0.0, 5.0, 41)
        vals = [kernel_cdf(25.0, 1.0, float(y)) for y in ys]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_chebyshev_style_cap_below(self):
        got = kernel_cdf(100.0, 1.0, 0.5)
        cap = 2.0 * (1.0 + 1.0 / 100.0) / (0.5**2 * 100.0)
        assert got <= cap

    @pytest.mark.parametrize("u", [100.0, 400.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_tail_inequalities(self, u, x):
        cap = 2.0 * (x + 1.0 / u) / u
        for y in (x / 4.0, x / 2.0):
            assert kernel_cdf(u, x, y) <= cap / (x - y) ** 2
        for z in (1.5 * x, 2.0 * x):
            assert 1.0 - kernel_cdf(u, x, z) <= cap / (z - x) ** 2

    def test_matches_quadrature_of_kernel(self):
        u, x, y = 20.0, 1.0, 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(lambda t: kernel_value(u, x, t), 0.0, y, limit=200)
        np.testing.assert_allclose(kernel_cdf(u, x, y), val, rtol=1e-10)


class TestSequenceRule:
    def test_power_rules(self):
        assert SequenceRule.identity().values([10, 100]) == [10.0, 100.0]
        np.testing.assert_allclose(
            SequenceRule.from_power(1.5).values([100]), [1000.0], rtol=1e-15
        )
        assert SequenceRule.from_power(2.0).u_value(10) == 100.0

    def test_parse(self):
        assert parse_rule("n").label == "n"
        assert parse_rule("n1.5").power == 1.5
        assert parse_rule("n^2").power == 2.0
        assert parse_rule("explicit:1,2,4").u_value(3) == 4.0

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            SequenceRule.from_explicit([0.5, 2.0])  # first value below 1
        with pytest.raises(ValueError):
            SequenceRule.from_explicit([1.0, 1.0])  # not strictly increasing

    def test_identity_rule_is_monotone(self):
        vals = SequenceRule.identity().values(range(1, 20))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] >= 1.0

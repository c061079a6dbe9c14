import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import poisson

import szmd
from szmd import operator
from szmd.basis import log_weights, tail_mass
from szmd.operator import (
    OperatorOverflow,
    SequenceRule,
    _apply_grid,
    _closed_form,
    _closed_form_grid,
    _kernel_values,
    apply,
    apply_truncated,
    kernel_cdf,
    kernel_value,
    parse_rule,
)
from szmd.quadrature import ConvergenceFailure, DivergentIntegral, kernel_integral
from szmd.targets import BUILTIN_TARGETS, BlackBox, ExpPolySum
import reference

ONE = BUILTIN_TARGETS["one"]
T = BUILTIN_TARGETS["t"]
T2 = BUILTIN_TARGETS["t2"]
X2E2X = BUILTIN_TARGETS["x2e2x"]
NEGX3E5X = BUILTIN_TARGETS["negx3e5x"]
EXPNEG = BUILTIN_TARGETS["expneg"]
SMALLEST_SUBNORMAL = sys.float_info.min * sys.float_info.epsilon


class TestApply:
    @pytest.mark.parametrize("power", [np.int64(3), 3.0], ids=["int64", "float"])
    def test_whole_powers_give_python_numbers_with_the_bits_of_an_int(self, power):
        # a np.int64 power made tail_bound a np.float64; a float one raised TypeError
        def results(p):
            g = ExpPolySum(((2.0, p, -1.0), (0.5, 1, 0.0)))
            return apply(g, 50.0, 1.0), apply_truncated(g, 50.0, 1.0, 60)

        for op, want in zip(results(power), results(3)):
            values = [getattr(op, f.name) for f in dataclasses.fields(op)]
            assert [type(v) for v in values] == [float, int, float, float, float]
            assert repr(op) == repr(want)

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

    @pytest.mark.parametrize("terms, u, x", [
        pytest.param(((1.0, 0, 0.0),), 1e200, 1.0, id="one"),
        pytest.param(((1.0, 1, 0.0),), 1e200, 1e-100, id="t"),
        pytest.param(((1.0, 2, 0.0),), 1e300, 0.0, id="t2-at-the-origin"),
        pytest.param(((1.0, 0, 1e9),), 1e300, 1e-9, id="exp-1e9-t"),
    ])
    def test_u_past_the_square_root_of_the_double_range(self, terms, u, x):
        # u*u*x/(u-a), and u*a*x/(u-a) for the last, overflowed from u ~ 1.34e154:
        # apply and make_curves raised OperatorOverflow with "ln sum|c_k| B_k = nan"
        want, _ = reference.far_oracle(terms, u, x)
        op = apply(ExpPolySum(terms), u, x)
        assert abs(op.value - want) <= op.tail_bound
        curve = szmd.make_curves(ExpPolySum(terms), [u], [0.0, x or 1.0])[1]
        assert abs(dict(curve.points)[x] - want) <= op.tail_bound

    def test_sums_no_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a series was summed")

        for name in ("_partial_sums", "tail_mass", "kernel_integral"):
            monkeypatch.setattr(operator, name, refuse)
        apply(X2E2X, 1e6, 2.5)
        kernel_value(1e6, 1.0, 1.001)
        kernel_cdf(1e6, 1.0, 1.001)


    def test_subnormal_values_keep_a_nonzero_budget(self):
        # eps times a subnormal largest term underflows to 0; the budget
        # scales eps first and adds a floor of smallest subnormals
        op = apply(ExpPolySum(((1.0, 0, -1.0),)), 1.0, 1480.0)
        want = float(reference.kummer(1.0, 1480.0, 0, -1.0))  # e^-740 / 2
        assert 0.0 < op.value < sys.float_info.min
        assert 0.0 < op.tail_bound <= 8 * SMALLEST_SUBNORMAL
        assert abs(op.value - want) <= op.tail_bound
        # the scalar and the array form of -0.1 t e^{-3.53125 t} differ in
        # their last subnormal bits; the scalar budget covers both and the oracle
        terms = ((-0.1, 1, -3.53125),)
        value, budget = _closed_form(0.01, 70825.0, terms)
        values = _closed_form_grid(0.01, np.array([70825.0]), terms)
        want = float(reference.oracle(terms, 0.01, 70825.0)[0])
        assert 0.0 < abs(value) < sys.float_info.min
        assert budget > 0.0
        assert abs(values[0] - value) <= budget
        assert abs(value - want) <= budget and abs(values[0] - want) <= budget


class TestApplyGrid:
    @pytest.mark.parametrize("g", [ONE, BlackBox(lambda t: abs(t - 1.0), 0.0, kinks=(1.0,))],
                             ids=["structured", "blackbox"])
    def test_empty_grid_is_refused(self, g):
        with pytest.raises(ValueError, match="x grid is empty"):
            _apply_grid(g, 10.0, np.array([]))
        with pytest.raises(ValueError, match="x grid is empty"):
            szmd.korovkin_sup_error(g, 10.0, [])

    def test_blackbox_is_one_kernel_integral_per_u(self, monkeypatch):
        sizes = []
        real = operator.kernel_integral

        def counting(kernel, g, u, x, windows):
            sizes.append(len(u))
            return real(kernel, g, u, x, windows)

        monkeypatch.setattr(operator, "kernel_integral", counting)
        g = BlackBox(lambda t: abs(t - 1.0), growth_rate=0.0, kinks=(1.0,))
        xs = np.linspace(0.0, 2.5, 26)
        values = _apply_grid(g, 100.0, xs)
        assert sizes == [26]
        monkeypatch.setattr(operator, "kernel_integral", real)
        assert values.tolist() == [apply(g, 100.0, x).value for x in xs.tolist()]

    def test_one_u_per_x(self):
        us, xs = np.array([10.0, 100.0, 10.0, 1e4]), np.array([0.5, 1.0, 2.0, 0.0])
        g = BlackBox(lambda t: math.exp(-t), growth_rate=0.0)
        for target in (EXPNEG, g):
            got = _apply_grid(target, us, xs)
            assert got.tolist() == [apply(target, u, x).value for u, x in zip(us, xs)]
            assert _apply_grid(target, us.tolist(), xs).tolist() == got.tolist()
        with pytest.raises(DivergentIntegral):
            _apply_grid(X2E2X, np.array([10.0, 2.0]), np.array([1.0, 1.0]))

    def test_a_column_of_u_gives_one_row_per_u(self):
        us, xs = np.array([[10.0], [100.0], [10.0]]), np.array([0.0, 0.5, 2.5])
        g = BlackBox(lambda t: math.exp(-t), growth_rate=0.0)
        for target in (EXPNEG, g):
            got = _apply_grid(target, us, xs)
            assert got.shape == (3, 3)
            assert got.tolist() == [[apply(target, u, x).value for x in xs.tolist()]
                                    for u in us.ravel().tolist()]
        with pytest.raises(DivergentIntegral, match="u=2.0"):
            _apply_grid(X2E2X, np.array([[10.0], [2.0]]), xs)


class TestClosedFormGrid:
    @pytest.mark.parametrize("u", [15.0, 35.0, 50.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("name", ["negx3e5x", "x2e2x", "one", "t", "t2"])
    def test_matches_the_scalar_form_on_the_curve_grid(self, name, u):
        # the parts are summed in another order, so the two forms may differ
        # in their last bits, never by more than the scalar form's budget
        terms = BUILTIN_TARGETS[name].terms
        xs = np.linspace(0.0, 2.5, 126)
        values = _closed_form_grid(u, xs, terms)
        for x, value in zip(xs.tolist(), values):
            want, want_budget = _closed_form(u, x, terms)
            assert abs(value - want) <= want_budget


class TestOverflow:
    def test_closed_form_overflow_is_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflow):
                apply(X2E2X, 3.0, 300.0)

    def test_closed_form_grid_overflow_is_typed(self):
        # one overflowing point refuses the whole array
        xs = np.array([0.0, 1.0, 300.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflow, match=r"at u=3.0, x=300.0:"):
                _closed_form_grid(3.0, xs, X2E2X.terms)
            with pytest.raises(OperatorOverflow, match=r"at u=3.0, x=300.0:"):
                _apply_grid(X2E2X, 3.0, xs)
            # one call over several u names the one entry that overflows:
            # (100, 300) is finite, (3, 300) is not
            us, xs = np.array([100.0, 100.0, 3.0, 3.0]), np.array([1.0, 300.0, 1.0, 300.0])
            with pytest.raises(OperatorOverflow, match=r"at u=3.0, x=300.0:"):
                _closed_form_grid(us, xs, X2E2X.terms)
            with pytest.raises(OperatorOverflow, match=r"at u=3.0, x=300.0:"):
                _apply_grid(X2E2X, us, xs)
            assert np.isfinite(_closed_form_grid(us[:3], xs[:3], X2E2X.terms)).all()

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

    @pytest.mark.parametrize("columns", [(1e308, 1.0), (1.0, 1e308)])
    def test_two_column_overflow_is_refused(self, columns):
        # the kernel integral under apply, with a two-column target: the
        # refusal above holds when only one column overflows
        def g(d, x):
            return np.multiply.outer(columns, np.ones_like(d))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError,
                               match=r"kernel integral is not finite at u=100.0, x=1.0"):
                kernel_integral(_kernel_values, g, [100.0], [1.0],
                                [operator._blackbox_window(100.0, 1.0, 0.0, ())])

    @pytest.mark.parametrize("u, x", [(1e308, 1.0), (5e307, 1.0), (1e308, 2.5), (1e308, 1e3),
                                      (1e200, 1e200)])
    def test_series_past_the_double_range_is_typed(self, u, x):
        # u x or the rounding budget's parts u x + |ln s_j| overflowed: a NaN
        # tail_bound, or a log of 0 in the Poisson weights, with warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflow, match=re.escape(f"J=50 is not finite at u={u}, x={x}:")):
                apply_truncated(X2E2X, u, x, 50)

    def test_majorant_overflow_leaves_an_infinite_tail_bound(self):
        op = apply_truncated(X2E2X, 3.0, 300.0, 10)
        assert math.isfinite(op.value) and op.tail_bound == math.inf


class TestBlackBoxAtTinyU:
    @pytest.mark.parametrize("u", [1e-153, 1e-155, 1e-160, 1e-200, 1e-300])
    def test_constant_is_kept(self, u):
        # the window reaches t ~ 50/u, where (x - t)^2 overflows and the
        # tilted mode u^2 x/(u - a)^2 is 0/0 if u^2 is taken first
        op = apply(BlackBox(lambda t: 1.0, growth_rate=0.0), u, 1.0)
        assert abs(op.value - 1.0) <= op.inner_integral_error + sys.float_info.epsilon


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

    def test_blackbox_is_refused_before_any_kernel_integral(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a truncated black box reached the kernel integral")

        monkeypatch.setattr(operator, "kernel_integral", refuse)
        g = BlackBox(lambda t: -(t**3) * math.exp(-5.0 * t), growth_rate=-5.0)
        with pytest.raises(ValueError, match=r"only for structured targets \(ExpPolySum\)"):
            apply_truncated(g, 15.0, 1.0, 15)

    @pytest.mark.parametrize("j_max", [2.5, math.nan, math.inf, -0.5])
    def test_j_that_is_not_a_whole_number_is_refused(self, j_max):
        # 2.5 would sum j = 0..3 and report J = 3.5 in its tail mass
        with pytest.raises(ValueError, match=r"J must be >= 0 and a whole number"):
            apply_truncated(NEGX3E5X, 15.0, 1.0, j_max)

    @pytest.mark.parametrize("j_max", [3, np.int64(3), np.int32(3), 3.0])
    def test_whole_number_j_is_taken_as_an_int(self, j_max):
        op = apply_truncated(NEGX3E5X, 15.0, 1.0, j_max)
        assert op == apply_truncated(NEGX3E5X, 15.0, 1.0, 3)
        assert type(op.series_terms_used) is int and op.series_terms_used == 4


def _offset(x, t):
    """sqrt t - sqrt x: the node of the array form at t."""
    return math.sqrt(t) - math.sqrt(x)


class TestKernel:
    def test_origin_value(self):
        np.testing.assert_allclose(kernel_value(10.0, 0.0, 0.0), 10.0, rtol=1e-15)
        # the array form at x = 0 is 2s u e^{-u s^2}, 0 at s = 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _kernel_values(10.0, 0.0, np.array([0.0, 0.0, math.sqrt(0.5)]))
        assert values[0] == values[1] == 0.0
        want = float(reference.kernel_offset(10.0, 0.0, math.sqrt(0.5)))
        np.testing.assert_allclose(values[2], want, rtol=4 * sys.float_info.epsilon)

    def test_symmetry(self):
        a = kernel_value(10.0, 1.0, 2.0)
        b = kernel_value(10.0, 2.0, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    @pytest.mark.parametrize("u, near, far, want", [
        (10.0, 1.0, 1e160, 0.0),
        # u e^{-u(x+t)} I_0(0) with u(x+t) = 1e-140: the kernel is u
        (1e-300, 0.0, 1e160, 1e-300),
        # u e^{-ut} at x = 0, where 2u overflows: inf * 0 made the Bessel
        # argument NaN, and the scalar form raised ZeroDivisionError
        (1e308, 0.0, 0.0, 1e308), (1e308, 0.0, 1.0, 0.0),
        (1.7e308, 0.0, 0.0, 1.7e308), (1.7e308, 0.0, 1.0, 0.0),
    ])
    def test_far_apart_points(self, u, near, far, want):
        # (x - t)^2 overflows a double once |x - t| > ~1.3e154; the array
        # form, times dt/ds = 2 sqrt t, at the offset of far from near
        assert kernel_value(u, near, far) == kernel_value(u, far, near) == want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernel_values(u, math.sqrt(near), np.array([_offset(near, far)]))[0]
        assert got == want * (2.0 * math.sqrt(far))

    @pytest.mark.parametrize("u", [1e308, 1.7e308])
    def test_array_form_at_the_origin_where_2u_overflows(self, u):
        # 2 s u e^{-u s^2} at x = 0, near its peak and far past it: the Bessel
        # argument is 0 however large u is
        nodes = np.array([1e-154, 0.5e-154, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _kernel_values(u, 0.0, nodes)
        want = [float(reference.kernel_offset(u, 0.0, s)) for s in nodes[:2]]
        np.testing.assert_allclose(values[:2], want, rtol=1e-14)
        assert values[2] == 0.0

    def test_array_form_far_apart_points(self):
        # the array form's exponent is u s^2, and u s cannot overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _kernel_values(1e-300, 0.0, np.array([1e80]))[0] == 1e-300 * 2e80

    @pytest.mark.parametrize("u, x", [(1.0, 1e160), (1e6, 1e300)])
    def test_points_whose_product_overflows(self, u, x):
        # x * t is beyond the double range; sqrt x * sqrt t is not
        want = float(reference.kernel(u, x, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kernel_value(u, x, x)
            array = float(_kernel_values(u, math.sqrt(x), np.array([0.0]))[0])
        np.testing.assert_allclose(got, want, rtol=1e-13)
        want = float(reference.kernel_offset(u, math.sqrt(x), 0.0))
        np.testing.assert_allclose(array, want, rtol=1e-13)

    @pytest.mark.parametrize("u, x, want", [(1.0, 1e308, 2.82e-155), (1e8, 1e300, 2.82e-147)])
    def test_points_whose_bessel_argument_overflows(self, u, x, want):
        # 2u sqrt x sqrt t is beyond the double range, where i0e(inf) reads 0
        ref = float(reference.kernel(u, x, x))
        np.testing.assert_allclose(ref, want, rtol=1e-3)
        assert kernel_value(u, x, x) == pytest.approx(ref, rel=1e-13)
        # the array form mixes such a node with a node of finite argument,
        # at t = x/4
        with np.errstate(over="ignore"):
            values = _kernel_values(u, math.sqrt(x), np.array([0.0, -0.5 * math.sqrt(x)]))
        want = float(reference.kernel_offset(u, math.sqrt(x), 0.0))
        np.testing.assert_allclose(values[0], want, rtol=1e-13)
        assert values[1] == kernel_value(u, x, x / 4.0) == 0.0

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

    @pytest.mark.parametrize("u, x, y", [(1e12, 1.0, 1.0), (1e20, 1.0, 2.0), (1e9, 100.0, 100.0),
                                         (1e10, 2.5, 2.5)])
    def test_point_where_chndtr_gives_nan_is_refused(self, u, x, y):
        # chndtr's series returns NaN here, which kernel_cdf passed on
        with pytest.raises(ConvergenceFailure, match=re.escape(f"u={u}, x={x}, y={y}")):
            kernel_cdf(u, x, y)


class TestSequenceRule:
    def test_power_rules(self):
        assert SequenceRule.identity().values([10, 100]) == [10.0, 100.0]
        np.testing.assert_allclose(
            SequenceRule.from_power(1.5).values([100]), [1000.0], rtol=1e-15
        )
        assert SequenceRule.from_power(2.0).u_value(10) == 100.0

    def test_parse(self):
        assert parse_rule("n") == SequenceRule.identity() and parse_rule("n").label == "n"
        assert parse_rule("n1.5").power == 1.5
        assert parse_rule("n^2").power == 2.0
        assert parse_rule("explicit:1,2,4").u_value(3) == 4.0

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            SequenceRule.from_explicit([0.5, 2.0])  # first value below 1
        with pytest.raises(ValueError):
            SequenceRule.from_explicit([1.0, 1.0])  # not strictly increasing

    @pytest.mark.parametrize("make", [
        lambda: SequenceRule.from_explicit([math.nan, 2.0]),
        lambda: SequenceRule.from_explicit([1.0, math.nan, 3.0]),
        lambda: SequenceRule.from_explicit([1.0, math.inf]),
        lambda: parse_rule("ninf"),
    ], ids=["explicit-nan-first", "explicit-nan-inside", "explicit-inf", "power-inf"])
    def test_non_finite_rule_is_refused(self, make):
        with pytest.raises(ValueError, match=r"(explicit|power) rule"):
            make()

    def test_u_beyond_double_range_is_refused(self):
        with pytest.raises(ValueError, match="double range"):
            parse_rule("n^200").u_value(100)

    def test_identity_rule_is_monotone(self):
        vals = SequenceRule.identity().values(range(1, 20))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] >= 1.0


AFFINE_SPEC = szmd.DbvSpec(T, gprime_left=lambda t: 1.0, gprime_right=lambda t: 1.0)

# Each public entry point that takes u or x, as a function of (u, x).
NAN_ENTRY_POINTS = {
    "log_weights": lambda u, x: log_weights(u, x, np.arange(3.0)),
    "raw_moment": lambda u, x: szmd.raw_moment(u, x, 2),
    "central_moment": lambda u, x: szmd.central_moment(u, x, 2),
    "central_moment_bruteforce": lambda u, x: szmd.central_moment_bruteforce(u, x, 2),
    "zeta_sq": szmd.zeta_sq,
    "zeta": szmd.zeta,
    "decay_order_check": lambda u, x: szmd.decay_order_check(2, x, [u, 1e3 * u, 1e6 * u]),
    "apply": lambda u, x: apply(T, u, x),
    "apply_blackbox": lambda u, x: apply(BlackBox(math.cos, growth_rate=0.0), u, x),
    "apply_truncated": lambda u, x: apply_truncated(T, u, x, 5),
    "kernel_value": lambda u, x: kernel_value(u, x, 1.0),
    "kernel_value_t": lambda u, x: kernel_value(u, 1.0, x),
    "kernel_cdf": lambda u, x: kernel_cdf(u, x, 1.0),
    "kernel_cdf_y": lambda u, x: kernel_cdf(u, 1.0, x),
    "kfunctional_bound": lambda u, x: szmd.kfunctional_bound(EXPNEG, u, x),
    "lipschitz_maximal": lambda u, x: szmd.lipschitz_maximal(EXPNEG, 1.0, x),
    "lipschitz_bound_check": lambda u, x: szmd.lipschitz_bound_check(EXPNEG, 1.0, u, x),
    "lip_space_bound": lambda u, x: szmd.lip_space_bound(1.0, 1.0, 1.0, 1.0, u, x),
    "dbv_bound": lambda u, x: szmd.dbv_bound(AFFINE_SPEC, u, x),
    "dbv_empirical_check": lambda u, x: szmd.dbv_empirical_check(AFFINE_SPEC, u, x),
    "korovkin_sup_error": lambda u, x: szmd.korovkin_sup_error(EXPNEG, u, [x]),
    "make_curves": lambda u, x: szmd.make_curves(EXPNEG, [u], [0.0, x]),
    "tail_mass": lambda u, x: tail_mass(u, x, 5),
}
BAD_VALUES = {"u": (math.nan, math.inf), "x": (math.nan, math.inf, -math.inf)}


@pytest.mark.parametrize("entry, bad_arg, bad", [
    pytest.param(entry, arg, bad, id=f"{entry}-{arg}" + ("" if math.isnan(bad) else f"={bad}"))
    for entry in sorted(NAN_ENTRY_POINTS) for arg in ("u", "x") for bad in BAD_VALUES[arg]
    if (entry, arg) != ("lipschitz_maximal", "u")  # takes no u
])
def test_nan_argument_is_refused(entry, bad_arg, bad):
    # NaN fails every comparison, so a check written as u <= 0 lets it
    # through; so does inf, which then surfaced as an unrelated error
    u, x = (bad, 1.0) if bad_arg == "u" else (10.0, bad)
    if bad_arg == "u":
        name = "u must be positive"
    else:  # the second point of kernel_value and kernel_cdf is t or y
        name = "kernel point" if entry.endswith(("_t", "_y")) else "x must be >= 0"
    with pytest.raises(ValueError, match=name):
        NAN_ENTRY_POINTS[entry](u, x)

import math
import re
import sys
import warnings

import numpy as np
import pytest

from szmd import bounds
from szmd.bounds import (
    DbvSpec,
    _dbv_bounds,
    _dbv_checks,
    _korovkin_sup_errors,
    dbv_bound,
    dbv_empirical_check,
    kfunctional_bound,
    korovkin_sup_error,
    lip_space_bound,
    lipschitz_bound_check,
    lipschitz_maximal,
    modulus,
    recentered_derivative,
    second_modulus,
    total_variation,
)
from szmd.moments import central_moment, zeta, zeta_sq
from szmd.targets import BUILTIN_TARGETS, BlackBox, ExpPolySum, MonomialSum, exppoly_derivative

EXPNEG = BUILTIN_TARGETS["expneg"]
T = BUILTIN_TARGETS["t"]
T2 = BUILTIN_TARGETS["t2"]
ONE = BUILTIN_TARGETS["one"]


def abs_shift_target():
    return BlackBox(lambda t: abs(t - 1.0), growth_rate=0.0, kinks=(1.0,), label="|t-1|")


def abs_shift_spec():
    return DbvSpec(
        abs_shift_target(),
        gprime_left=lambda t: -1.0 if t <= 1.0 else 1.0,
        gprime_right=lambda t: -1.0 if t < 1.0 else 1.0,
        breakpoints=(1.0,),
    )


def abs_shift_array_spec(calls=None):
    """abs_shift_spec with one-sided derivatives that take arrays; each
    call's argument is appended to calls when given."""

    def counted(f):
        def wrapped(t):
            if calls is not None:
                calls.append(t)
            return f(t)

        return wrapped

    return DbvSpec(
        abs_shift_target(),
        gprime_left=counted(lambda t: np.where(t <= 1.0, -1.0, 1.0)),
        gprime_right=counted(lambda t: np.where(t < 1.0, -1.0, 1.0)),
        breakpoints=(1.0,),
    )


class TestModulus:
    def test_constant_vanishes(self):
        assert modulus(lambda t: 3.0, 0.5).value == 0.0

    def test_identity(self):
        est = modulus(T, 0.1, domain=(0.0, 10.0))
        np.testing.assert_allclose(est.value, 0.1, rtol=1e-12)

    def test_decaying_exponential(self):
        # sup of |e^{-y} - e^{-x}| with |y-x| <= 0.1 sits at x = 0
        est = modulus(EXPNEG, 0.1, domain=(0.0, 10.0))
        np.testing.assert_allclose(est.value, 1.0 - math.exp(-0.1), rtol=1e-12)

    def test_nondecreasing_in_delta(self):
        vals = [modulus(EXPNEG, d, domain=(0.0, 5.0), step=1e-3).value
                for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_vanishes_for_small_delta(self):
        assert modulus(EXPNEG, 1e-4, domain=(0.0, 5.0)).value < 2e-4

    def test_step_guard(self):
        with pytest.raises(ValueError):
            modulus(EXPNEG, 0.1, step=0.05)

    @pytest.mark.parametrize("name", ["expneg", "x2e2x", "negx3e5x"])
    @pytest.mark.parametrize("delta", [0.5, 1e-2, 1e-3])
    def test_window_range_matches_the_shift_loop_bitwise(self, name, delta):
        g = BUILTIN_TARGETS[name]
        est = modulus(g, delta)
        assert est.value == shift_loop_modulus(g, delta, est.domain, est.grid_step)

    def test_domain_shorter_than_delta_takes_the_whole_range(self):
        # the grid 0, step, ..., 13 step covers [0, 0.1]; every pair is in reach
        est = modulus(T, 0.5, domain=(0.0, 0.1), step=0.5 / 64.0)
        assert est.value == 13 * est.grid_step


def shift_loop_modulus(g, delta, domain, step):
    """Reference first modulus: the largest |g(t + k step) - g(t)| over the
    shifts k = 1..delta/step, one array pass per shift."""
    lo, hi = domain
    vals = g(np.arange(lo, hi + 0.5 * step, step))
    best = 0.0
    for k in range(1, int(math.floor(delta / step + 1e-9)) + 1):
        best = max(best, float(np.max(np.abs(vals[k:] - vals[:-k]))))
    return best


class TestSecondModulus:
    def test_affine_vanishes(self):
        g = MonomialSum(((2.0, 1), (1.0, 0)))
        assert second_modulus(g, 0.3, domain=(0.0, 5.0)).value <= 1e-12

    def test_square_gives_twice_delta_squared(self):
        est = second_modulus(T2, 0.25, domain=(0.0, 5.0))
        np.testing.assert_allclose(est.value, 2.0 * 0.25**2, rtol=1e-12)

    def test_decaying_exponential(self):
        # second difference e^{-x} 4 sinh^2(h/2) peaks at x = h = delta
        est = second_modulus(EXPNEG, 0.2, domain=(0.0, 10.0))
        np.testing.assert_allclose(est.value, (1.0 - math.exp(-0.2)) ** 2, rtol=1e-12)

    def test_dominated_by_twice_first_modulus(self):
        for g in (EXPNEG, T2):
            for d in (0.1, 0.3):
                w1 = modulus(g, d, domain=(0.0, 4.0), step=d / 64.0).value
                w2 = second_modulus(g, d, domain=(0.0, 4.0), step=d / 64.0).value
                assert w2 <= 2.0 * w1 + 1e-12

    def test_delta_past_the_domain_takes_the_shifts_that_fit(self):
        # 2 delta = 1.2 exceeds the width 0.5: every shift past h = 0.25 gave
        # an empty array and numpy's "zero-size array" ValueError; the modulus
        # then equals the one at delta = 0.25, where the last shift fits
        est = second_modulus(np.cos, 0.6, domain=(0.0, 0.5), step=0.01)
        assert est.value == second_modulus(np.cos, 0.25, domain=(0.0, 0.5), step=0.01).value > 0.0
        assert math.isfinite(kfunctional_bound(EXPNEG, 2.3, 1.4, domain=(0.0, 0.5)).omega2_component)

    def test_domain_with_no_room_for_one_shift_is_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "second modulus at delta=0.08: no shift fits in the domain (0.0, 0.01)")):
            second_modulus(np.cos, 0.08, domain=(0.0, 0.01), step=0.01)


class TestKFunctionalBound:
    def test_constant_target(self):
        res = kfunctional_bound(ONE, 50.0, 1.0)
        assert res.omega2_component == 0.0
        assert res.omega_component == 0.0

    def test_widths_at_reference_point(self):
        res = kfunctional_bound(EXPNEG, 100.0, 1.0)
        np.testing.assert_allclose(res.delta_n, 0.0203, rtol=1e-12)
        np.testing.assert_allclose(res.gamma_n, 0.01, rtol=1e-15)
        assert res.omega2_component > 0.0
        assert res.omega_component > 0.0

    def test_width_shrinks_like_inverse_u(self):
        # coarse grids: only the reported width matters here, not the moduli
        us = np.array([1e2, 1e3, 1e4, 1e5])
        deltas = [
            kfunctional_bound(EXPNEG, u, 1.0, domain=(0.0, 0.5), step=1.0 / (8.0 * u)).delta_n
            for u in us
        ]
        slope = np.polyfit(np.log(us), np.log(deltas), 1)[0]
        assert abs(slope + 1.0) < 0.1

    def test_width_past_the_double_range_is_refused(self):
        # mu_2 ~ 1.4e308 is finite, mu_2 + 1/u^2 is not; second_modulus was
        # handed delta = inf and refused it as an input
        assert math.isfinite(central_moment(1.2e-154, 1.0, 2))
        with pytest.raises(OverflowError, match=re.escape(
                "delta_n = mu_2 + 1/u^2 overflows at u=1.2e-154, x=1.0")):
            kfunctional_bound(EXPNEG, 1.2e-154, 1.0)

    def test_combined_scales_with_constant(self):
        res = kfunctional_bound(EXPNEG, 100.0, 1.0)
        np.testing.assert_allclose(
            res.combined(2.5), 2.5 * res.omega2_component + res.omega_component
        )


class TestLipschitzMaximal:
    def test_identity_has_unit_gauge(self):
        np.testing.assert_allclose(lipschitz_maximal(T, 1.0, 0.7), 1.0, rtol=1e-12)

    def test_constant_vanishes(self):
        assert lipschitz_maximal(ONE, 1.0, 1.0) == 0.0

    def test_decaying_exponential_at_one(self):
        # sup |e^{-t} - e^{-1}| / |t - 1| is attained by the chord to t = 0,
        # giving 1 - e^{-1}; verified against a dense independent grid
        got = lipschitz_maximal(EXPNEG, 1.0, 1.0, domain=(0.0, 10.0))
        want = 1.0 - math.exp(-1.0)
        assert got <= want + 1e-9
        np.testing.assert_allclose(got, want, rtol=1e-3)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            lipschitz_maximal(T, 0.0, 1.0)
        with pytest.raises(ValueError):
            lipschitz_maximal(T, 1.5, 1.0)


class TestLipschitzBoundCheck:
    def test_constant_target(self):
        res = lipschitz_bound_check(ONE, 1.0, 50.0, 1.0)
        assert res.lhs <= 1e-12
        assert res.holds

    def test_identity_closed_forms(self):
        res = lipschitz_bound_check(T, 1.0, 50.0, 2.0)
        np.testing.assert_allclose(res.lhs, 0.02, rtol=1e-10)
        np.testing.assert_allclose(res.rhs, math.sqrt(2.0 * 101.0 / 2500.0), rtol=1e-9)
        assert res.holds

    @pytest.mark.parametrize("u", [50.0, 100.0, 400.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_holds_for_decaying_exponential(self, u, x):
        assert lipschitz_bound_check(EXPNEG, 1.0, u, x).holds


class TestLipSpaceBound:
    def test_printed_values(self):
        np.testing.assert_allclose(
            lip_space_bound(1.0, 0.0, 1.0, 1.0, 10.0, 1.0), math.sqrt(0.22), rtol=1e-12
        )
        np.testing.assert_allclose(
            lip_space_bound(1.0, 1.0, 0.0, 1.0, 100.0, 1.0),
            math.sqrt(0.0202),
            rtol=1e-12,
        )

    def test_positive_and_decreasing_in_u(self):
        vals = [lip_space_bound(1.0, 1.0, 1.0, 0.7, u, 1.0) for u in (10, 100, 1000)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_quotient_past_the_double_range_takes_logs(self):
        # mu_2 = 2e300 is finite, mu_2 / x(x + 1) = 2e500 is not, its root is
        assert central_moment(1e-150, 1e-200, 2) == 2e300
        assert lip_space_bound(1.0, 1.0, 1.0, 1.0, 1e-150, 1e-200) == pytest.approx(
            math.sqrt(2.0) * 1e250, rel=1e-12)
        # x(x + 1) overflows, mu_2 = 2e200 does not: the quotient read 0
        assert lip_space_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1e200) == pytest.approx(
            math.sqrt(2.0) * 1e-100, rel=1e-12)

    def test_denominator_underflowing_to_zero_takes_logs(self):
        # x(x m1 + m2) = 2e-400 underflows to 0 while x > 0 and x m1 + m2 =
        # 2e-200 > 0: the bound sqrt(2 / 2e-400) = 1e200 is finite
        assert lip_space_bound(1.0, 1.0, 1e-200, 1.0, 1.0, 1e-200) == pytest.approx(
            1e200, rel=1e-12)

    def test_bound_past_the_double_range_is_refused(self):
        with pytest.raises(OverflowError,
                           match="Lipschitz-space bound overflows at u=1e-150, x=1e-200"):
            lip_space_bound(1e300, 1.0, 1.0, 1.0, 1e-150, 1e-200)

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("u, x", [(10.0, 1.0), (1e4, 2.5), (123.4, 1e-3)])
    def test_in_range_keeps_the_plain_power(self, s, u, x):
        want = 2.0 * (central_moment(u, x, 2) / (x * (x * 0.5 + 1.5))) ** (s / 2.0)
        assert lip_space_bound(2.0, 0.5, 1.5, s, u, x) == want

    def test_vacuous_at_origin(self):
        with pytest.raises(ValueError):
            lip_space_bound(1.0, 1.0, 1.0, 1.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            lip_space_bound(1.0, -1.0, 0.0, 1.0, 10.0, 1.0)


class TestTotalVariation:
    def test_monotone_telescopes(self):
        est = total_variation(math.exp, (0.0, 2.0))
        np.testing.assert_allclose(est.value, math.exp(2.0) - 1.0, rtol=1e-12)

    def test_single_jump(self):
        est = total_variation(
            lambda t: float(np.sign(t - 1.0)), (0.0, 2.0), breakpoints=(1.0,)
        )
        np.testing.assert_allclose(est.value, 2.0, rtol=1e-12)

    def test_recentered_kink_derivative_is_flat(self):
        h = recentered_derivative(abs_shift_spec(), 1.0)
        assert total_variation(h, (0.5, 1.5), breakpoints=(1.0,)).value == 0.0
        assert total_variation(h, (0.5, 1.0)).value == 0.0
        assert total_variation(h, (1.0, 1.5)).value == 0.0

    def test_recentered_derivative_takes_arrays_and_scalars(self):
        ts = np.array([0.5, 0.9, 1.0, 1.2, 2.0])
        for spec in (abs_shift_spec(), abs_shift_array_spec()):
            h = recentered_derivative(spec, 0.9)
            assert [h(float(t)) for t in ts] == [0.0, 0.0, 2.0, 2.0, 2.0]
        h = recentered_derivative(abs_shift_array_spec(), 0.9)
        assert h(ts).tolist() == [0.0, 0.0, 2.0, 2.0, 2.0]

    def test_samples_counts_distinct_partition_points(self):
        # the breakpoint 0 is also a uniform point: -1, -1e-6, 0, 1e-6, 1
        est = total_variation(abs, (-1.0, 1.0), samples=3, breakpoints=(0.0, 0.0))
        assert (est.value, est.samples) == (2.0, 5)

    def test_superadditivity_under_splitting(self):
        f = lambda t: math.sin(3.0 * t)
        whole = total_variation(f, (0.0, 2.0), samples=4096).value
        parts = (
            total_variation(f, (0.0, 0.7), samples=4096).value
            + total_variation(f, (0.7, 2.0), samples=4096).value
        )
        assert whole >= parts - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            total_variation(math.exp, (1.0, 0.0))
        with pytest.raises(ValueError):
            total_variation(math.exp, (0.0, 1.0), samples=1)


class TestDbvBound:
    def test_affine_bound_is_exactly_slope_over_u(self):
        g = MonomialSum(((3.0, 1), (0.25, 0)))
        spec = DbvSpec(g, gprime_left=lambda t: 3.0, gprime_right=lambda t: 3.0)
        res = dbv_bound(spec, 100.0, 1.0)
        np.testing.assert_allclose(res.total, 3.0 / 100.0, rtol=1e-14)
        assert res.derivative_jump == 0.0
        for term in (res.variation_left_sum, res.variation_left_edge,
                      res.variation_right_edge, res.variation_right_sum):
            assert term == 0.0

    def test_kink_at_evaluation_point(self):
        res = dbv_bound(abs_shift_spec(), 400.0, 1.0)
        assert res.derivative_mean == 0.0  # slopes cancel: -1 + 1
        want_jump = math.sqrt(1.0 / 800.0) * 2.0 * math.sqrt(1.0 + 1.0 / 400.0)
        np.testing.assert_allclose(res.derivative_jump, want_jump, rtol=1e-12)
        assert res.variation_left_sum == 0.0
        assert res.variation_right_sum == 0.0
        np.testing.assert_allclose(res.total, want_jump, rtol=1e-12)

    def test_total_is_sum_of_terms(self):
        res = dbv_bound(abs_shift_spec(), 100.0, 0.5)
        assert res.total == sum(res.terms())

    def test_bound_vanishes_as_u_grows(self):
        us = np.array([100.0, 400.0, 1600.0, 6400.0])
        totals = [dbv_bound(abs_shift_spec(), u, 1.0).total for u in us]
        slope = np.polyfit(np.log(us), np.log(totals), 1)[0]
        assert slope <= -0.4

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            dbv_bound(abs_shift_spec(), 100.0, 0.0)


def variation_terms(bound):
    return (bound.variation_left_sum, bound.variation_left_edge,
            bound.variation_right_edge, bound.variation_right_sum)


def dbv_variation_terms_from(tv, u, x):
    """The four variation terms of the bound, given the variation tv(a, b)."""
    sq, rt = math.floor(math.sqrt(u)), math.sqrt(u)
    w = 2.0 * zeta_sq(u, x) / (x * u)
    return (
        w * sum(tv(x - x / j, x) for j in range(1, sq + 1)),
        (x / rt) * tv(x - x / rt, x),
        (x / rt) * tv(x, x + x / rt),
        w * sum(tv(x, x + x / j) for j in range(1, sq + 1)),
    )


def per_interval_variation_terms(spec, u, x, samples=2048):
    """Reference: a fresh partition and a fresh pass over h per interval."""
    h = recentered_derivative(spec, x)
    bps = tuple(spec.breakpoints) + (x,)

    def tv(a, b):
        pts = list(np.linspace(a, b, samples))
        for bp in bps:
            for t in (bp - 1e-6, bp, bp + 1e-6):
                if a < t < b:
                    pts.append(t)
        grid = np.unique(np.asarray(pts, dtype=np.float64))
        vals = np.array([float(h(float(t))) for t in grid])
        return float(np.sum(np.abs(np.diff(vals))))

    return dbv_variation_terms_from(tv, u, x)


def abs_sin_integral(a, b):
    """Exact total variation of cos over [a, b], the integral of |sin|."""

    def antiderivative(t):
        k = math.floor(t / math.pi)
        return 2.0 * k + 1.0 - math.cos(t - k * math.pi)

    return antiderivative(b) - antiderivative(a)


class TestDbvOnePass:
    def test_derivative_evaluated_once_per_grid_point(self):
        base = abs_shift_spec()
        calls = []

        def counted(t):
            calls.append(t)
            return base.gprime_right(t)

        spec = DbvSpec(base.g, base.gprime_left, counted, base.breakpoints)
        dbv_bound(spec, 1e6, 0.5)
        assert len(calls) <= 2048 + 2 * 1000 + 10

    @pytest.mark.parametrize("u", [100.0, 1e6])
    def test_array_derivative_is_called_a_constant_number_of_times(self, u):
        calls = []
        dbv_bound(abs_shift_array_spec(calls), u, 0.5)
        # g'(x-) and g'(x+) once each, then the whole partition at once
        assert len(calls) == 3 and calls[:2] == [0.5, 0.5]
        assert max(np.size(t) for t in calls) >= 2048

    @pytest.mark.parametrize("u", [100.0, 400.0, 900.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5])
    def test_terms_match_recentered_derivative_and_zeta(self, u, x):
        # g'(x-), g'(x+) and zeta^2 are taken once and handed on: the same bits
        # as the terms built on recentered_derivative and zeta
        spec = abs_shift_spec()
        got = dbv_bound(spec, u, x)
        dl, dr = spec.gprime_left(x), spec.gprime_right(x)
        assert got.derivative_mean == abs(dr + dl) / (2.0 * u)
        assert got.derivative_jump == math.sqrt(1.0 / (2.0 * u)) * abs(dr - dl) * zeta(u, x)
        assert variation_terms(got) == per_interval_variation_terms(spec, u, x)

    @pytest.mark.parametrize("u", [100.0, 400.0, 900.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5])
    def test_array_derivative_matches_scalar_bitwise(self, u, x):
        want = dbv_bound(abs_shift_spec(), u, x)
        assert dbv_bound(abs_shift_array_spec(), u, x) == want

    @pytest.mark.parametrize("u", [100.0, 400.0])
    @pytest.mark.parametrize("x", [1.0, 2.5])
    def test_array_cosine_matches_scalar_bitwise(self, u, x):
        box = BlackBox(math.sin, growth_rate=0.0)
        scalar = DbvSpec(box, gprime_left=math.cos, gprime_right=math.cos)
        array = DbvSpec(box, gprime_left=np.cos, gprime_right=np.cos)
        assert dbv_bound(array, u, x) == dbv_bound(scalar, u, x)

    @pytest.mark.parametrize("u", [100.0, 400.0, 900.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5])
    def test_kinked_matches_per_interval_bitwise(self, u, x):
        spec = abs_shift_spec()
        got = variation_terms(dbv_bound(spec, u, x))
        assert got == per_interval_variation_terms(spec, u, x)

    @pytest.mark.parametrize("u", [100.0, 400.0, 900.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
    def test_monotone_derivative_matches_per_interval(self, u, x):
        # a monotone h telescopes on any partition, so a coarse one suffices
        g = BUILTIN_TARGETS["x2e2x"]
        dg = exppoly_derivative(g)
        spec = DbvSpec(g, gprime_left=dg, gprime_right=dg)
        np.testing.assert_allclose(
            variation_terms(dbv_bound(spec, u, x, tv_samples=256)),
            per_interval_variation_terms(spec, u, x, samples=256),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("u", [100.0, 400.0])
    @pytest.mark.parametrize("x", [1.0, 2.5])
    def test_oscillating_derivative_under_estimates(self, u, x):
        # g' = cos turns at pi, inside [0, 2x] for x = 2.5
        spec = DbvSpec(BlackBox(math.sin, growth_rate=0.0),
                       gprime_left=math.cos, gprime_right=math.cos)
        got = variation_terms(dbv_bound(spec, u, x))
        exact = dbv_variation_terms_from(abs_sin_integral, u, x)
        for g_term, e_term in zip(got, exact):
            assert g_term <= e_term * (1.0 + 1e-12)
            assert e_term - g_term <= 1e-6

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_invalid_samples(self, samples):
        with pytest.raises(ValueError):
            dbv_bound(abs_shift_spec(), 100.0, 1.0, tv_samples=samples)


AFFINE_SPEC = DbvSpec(MonomialSum(((3.0, 1), (0.25, 0))),
                      gprime_left=lambda t: 3.0, gprime_right=lambda t: 3.0)
ROWS = [(100.0, 400.0, 900.0), (1.5, 2.0, 1e4), (400.0,)]


class TestDbvRow:
    @pytest.mark.parametrize("spec", [abs_shift_spec(), abs_shift_array_spec(), AFFINE_SPEC],
                             ids=["abs-scalar", "abs-array", "affine"])
    @pytest.mark.parametrize("us", ROWS)
    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5])
    def test_row_has_the_bits_of_each_lone_u(self, spec, us, x):
        # g' piecewise constant: the shared partition adds only exact zeros
        assert _dbv_bounds(spec, us, x) == [dbv_bound(spec, u, x) for u in us]

    @pytest.mark.parametrize("us", ROWS + [(100.0, 1e4, 1e6)])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
    def test_curved_derivative_never_falls_on_the_finer_partition(self, us, x):
        # g = t^2 e^(-t), g' = (2t - t^2) e^(-t): each u's variations are
        # taken on a refinement of its lone partition, so their exact values
        # can only rise; the running |dh| sum over the row's n points rounds
        # a total by up to ~n eps of it (at u = 100, 400, 900 by x = 0.5, 1,
        # 1.5 it moves by 4.8e-15 at most)
        g = ExpPolySum(((1.0, 2, -1.0),))
        spec = DbvSpec(g, gprime_left=exppoly_derivative(g), gprime_right=exppoly_derivative(g))
        n = 2048 + sum(2 * math.floor(math.sqrt(u)) + 3 for u in us) + 6
        for row, lone in zip(_dbv_bounds(spec, us, x), (dbv_bound(spec, u, x) for u in us)):
            assert row.derivative_mean == lone.derivative_mean
            assert row.derivative_jump == lone.derivative_jump
            assert row.total >= lone.total * (1.0 - n * sys.float_info.epsilon)

    def test_row_calls_the_derivative_once_on_its_partition(self):
        calls = []
        _dbv_bounds(abs_shift_array_spec(calls), (100.0, 400.0, 900.0), 0.5)
        assert len(calls) == 3 and calls[:2] == [0.5, 0.5]

    @pytest.mark.parametrize("us, match", [
        ((100.0, math.nan), "u must be positive"),
        ((100.0, 1.0), "need u > 1"),
    ])
    def test_any_bad_u_of_a_row_is_refused(self, us, match):
        with pytest.raises(ValueError, match=match):
            _dbv_bounds(abs_shift_spec(), us, 1.0)

    @pytest.mark.parametrize("spec, us, x", [
        (AFFINE_SPEC, (100.0, 400.0), 1.0),
        (abs_shift_spec(), (100.0, 400.0, 900.0), 0.5),
    ])
    def test_checks_match_each_lone_check(self, spec, us, x):
        assert _dbv_checks(spec, us, x) == [dbv_empirical_check(spec, u, x) for u in us]


class TestDbvEmpiricalCheck:
    def test_affine_is_attained_exactly(self):
        g = MonomialSum(((3.0, 1), (0.25, 0)))
        spec = DbvSpec(g, gprime_left=lambda t: 3.0, gprime_right=lambda t: 3.0)
        res = dbv_empirical_check(spec, 100.0, 1.0)
        np.testing.assert_allclose(res.lhs, res.bound.total, rtol=1e-11)
        assert res.holds

    @pytest.mark.parametrize("u,x", [(100.0, 1.0), (400.0, 0.5)])
    def test_holds_for_kinked_target(self, u, x):
        res = dbv_empirical_check(abs_shift_spec(), u, x)
        assert res.holds
        assert res.lhs > 0.0


class TestKorovkin:
    def test_constant_error_is_tiny(self):
        err = korovkin_sup_error(ONE, 1e4, np.linspace(0.0, 2.5, 11))
        assert err <= 1e-12

    def test_hundredfold_parameter_gives_huge_improvement(self):
        grid = np.linspace(0.0, 2.5, 11)
        for g in (T, T2):
            e2 = korovkin_sup_error(g, 1e2, grid)
            e4 = korovkin_sup_error(g, 1e4, grid)
            assert e2 / e4 >= 50.0

    @pytest.mark.parametrize("g", [ONE, T, T2, EXPNEG, BUILTIN_TARGETS["negx3e5x"]])
    def test_column_of_u_equals_each_lone_call(self, g, monkeypatch):
        # one operator call with u as a column; each row keeps its bits
        grid = np.linspace(0.0, 2.5, 11)
        us = (1e2, 1e4, 3e5)
        want = [korovkin_sup_error(g, u, grid) for u in us]
        calls = []
        real = bounds._apply_grid

        def counting(g, u, xs):
            calls.append(np.shape(u))
            return real(g, u, xs)

        monkeypatch.setattr(bounds, "_apply_grid", counting)
        assert _korovkin_sup_errors(g, us, grid) == want
        assert calls == [(3, 1)]

    def test_decaying_exponential_converges(self):
        grid = np.linspace(0.0, 2.5, 11)
        errs = [korovkin_sup_error(EXPNEG, u, grid) for u in (1e2, 1e3, 1e4)]
        assert errs[0] > errs[1] > errs[2]


NAN, INF = math.nan, math.inf


def t2_nan_near_one(t):
    """t^2, but NaN within 1e-3 of t = 1: a grid gauge must not skip the hole."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(np.abs(t - 1.0) < 1e-3, NAN, t * t)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: total_variation(EXPNEG, (0.0, NAN)), "interval", id="tv-nan-end"),
    pytest.param(lambda: total_variation(EXPNEG, (0.0, INF)), "interval", id="tv-inf-end"),
    pytest.param(lambda: lip_space_bound(INF, 1.0, 1.0, 1.0, 10.0, 1.0), "constant M",
                 id="lipspace-inf-M"),
    pytest.param(lambda: lip_space_bound(1.0, INF, 1.0, 1.0, 10.0, 1.0), "m1 and m2",
                 id="lipspace-inf-m1"),
    pytest.param(lambda: lip_space_bound(1.0, 1.0, NAN, 1.0, 10.0, 1.0), "m1 and m2",
                 id="lipspace-nan-m2"),
    pytest.param(lambda: modulus(EXPNEG, 0.1, step=0.0), "grid step", id="modulus-zero-step"),
    pytest.param(lambda: modulus(EXPNEG, 0.1, step=-1.0), "grid step",
                 id="modulus-negative-step"),
    pytest.param(lambda: modulus(EXPNEG, 0.1, domain=(0.0, NAN)), "domain",
                 id="modulus-nan-domain"),
    pytest.param(lambda: second_modulus(EXPNEG, 0.1, domain=(-INF, 1.0)), "domain",
                 id="second-modulus-inf-domain"),
    pytest.param(lambda: modulus(EXPNEG, INF), "delta", id="modulus-inf-delta"),
    pytest.param(lambda: lipschitz_maximal(EXPNEG, 1.0, 1.0, domain=(0.0, INF)), "domain",
                 id="lipschitz-inf-domain"),
    pytest.param(lambda: lipschitz_maximal(EXPNEG, 1.0, 1.0, step=0.0), "grid step",
                 id="lipschitz-zero-step"),
    # each returned 0.0 (second modulus, against 0.02) or NaN
    pytest.param(lambda: second_modulus(t2_nan_near_one, 0.1), "not finite at t",
                 id="second-modulus-nan-value"),
    pytest.param(lambda: modulus(t2_nan_near_one, 0.1), "not finite at t",
                 id="modulus-nan-value"),
    pytest.param(lambda: lipschitz_maximal(t2_nan_near_one, 1.0, 0.5), "not finite at t",
                 id="lipschitz-nan-value"),
    pytest.param(lambda: total_variation(t2_nan_near_one, (0.0, 2.0)), "not finite at t",
                 id="tv-nan-value"),
    # the first grid point past 1 is 1.125, exact in binary; g takes arrays, then scalars only
    pytest.param(lambda: modulus(lambda t: np.where(t > 1.0, INF, t), 1.0, (0.0, 2.0), 0.125),
                 r"not finite at t = 1\.125: inf", id="modulus-first-inf-value-array"),
    pytest.param(lambda: modulus(lambda t: INF if t > 1.0 else t, 1.0, (0.0, 2.0), 0.125),
                 r"not finite at t = 1\.125: inf", id="modulus-first-inf-value-scalar"),
])
def test_non_finite_or_degenerate_argument_is_refused(call, name):
    # each returned a number, raised a RuntimeWarning or an unrelated error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=name):
            call()


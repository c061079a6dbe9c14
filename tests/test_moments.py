import math
import re
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from szmd import MonomialSum, apply, operator, quadrature, report
from szmd.moments import (
    MomentPoly,
    central_moment,
    central_moment_bruteforce,
    central_moment_poly,
    central_moments_by_recurrence,
    decay_order_check,
    raw_moment,
    raw_moment_lambda_coeffs,
    recurrence_step,
    zeta,
    zeta_sq,
)
import reference


class TestRawMoments:
    def test_constant_is_fixed(self):
        for u in (1.0, 17.3, 1e5):
            assert raw_moment(u, 1.2, 0) == 1.0

    def test_printed_values(self):
        np.testing.assert_allclose(raw_moment(10.0, 1.0, 2), 1.42, rtol=1e-14)
        np.testing.assert_allclose(raw_moment(10.0, 1.0, 3), 2.086, rtol=1e-14)

    def test_closed_forms_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            u = float(rng.uniform(0.5, 2000.0))
            x = float(rng.uniform(0.0, 3.0))
            for m in range(4):
                want = reference.closed_form_raw(u, x, m)
                np.testing.assert_allclose(raw_moment(u, x, m), want, rtol=1e-13)

    @pytest.mark.parametrize("u, x, m", [
        (10.0, 1.0, 166), (10.0, 1.0, 167), (10.0, 1.0, 170), (10.0, 0.0, 170),
        (1e3, 2.5, 300), (1e3, 0.5, 1000), (2.0**20, 1.0, 1000), (512.0, 2.0**-20, 1000)])
    def test_powers_past_the_double_range_of_a_m_match_fraction(self, u, x, m):
        # A_m[l] leaves the double range from m = 167, the values do not; each
        # is the exact value correctly rounded, where exp of a log-sum-exp was
        # off by up to eps (3 |ln B| + 8m (|ln u| + |ln x|) + 4(m + 1))
        want = reference.exact_raw_moment(u, x, m)
        assert raw_moment(u, x, m) == float(want)
        # the operator on t^m carries its own budget
        op = apply(MonomialSum(((1.0, m),)), u, x)
        assert abs(Fraction(op.value) - want) <= Fraction(op.tail_bound)

    @pytest.mark.parametrize("u, x, m", [(10.0, 1.0, 1000), (0.5, 1.0, 170), (1e-3, 10.0, 200)])
    def test_power_whose_value_overflows_is_refused(self, u, x, m):
        assert reference.exact_raw_moment(u, x, m) > sys.float_info.max
        with pytest.raises(OverflowError, match=rf"B\(t\^{m}; x\) overflows at u={u}, x={x}"):
            raw_moment(u, x, m)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            raw_moment(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            raw_moment(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            raw_moment(1.0, 1.0, -1)


class TestCentralMoments:
    @pytest.mark.parametrize("u, x", [(0.0, 1.0), (math.nan, 1.0), (10.0, -1.0)])
    def test_polynomial_refuses_a_point_off_the_domain(self, u, x):
        # evaluate(0.0, 1.0) raised ZeroDivisionError
        with pytest.raises(ValueError, match="must be"):
            central_moment_poly(4).evaluate(u, x)

    def test_low_orders(self):
        assert central_moment(10.0, 0.7, 0) == 1.0
        np.testing.assert_allclose(central_moment(10.0, 0.7, 1), 0.1, rtol=1e-15)
        np.testing.assert_allclose(central_moment(10.0, 1.0, 2), 0.22, rtol=1e-14)

    def test_binomial_consistency(self):
        # definition check: sum_i C(m,i) (-x)^(m-i) raw_i.  The float oracle
        # cancels catastrophically at high m, so the tolerance is scaled by
        # the magnitude of the terms being cancelled.
        rng = np.random.default_rng(3)
        from math import comb

        for _ in range(20):
            u = float(rng.uniform(1.0, 300.0))
            x = float(rng.uniform(0.0, 2.5))
            for m in range(7):
                terms = [
                    comb(m, i) * (-x) ** (m - i) * raw_moment(u, x, i)
                    for i in range(m + 1)
                ]
                direct = sum(terms)
                scale = sum(abs(t) for t in terms)
                assert abs(central_moment(u, x, m) - direct) <= 1e-13 * scale + 1e-15

    def test_fourth_moment_against_bruteforce(self):
        want = central_moment_bruteforce(10.0, 1.0, 4)
        np.testing.assert_allclose(central_moment(10.0, 1.0, 4), want, rtol=1e-8)

    def test_zeta_identity(self):
        for u in (3.0, 10.0, 250.0):
            for x in (0.0, 0.3, 1.0, 2.5):
                want = 2.0 * zeta_sq(u, x) / u
                np.testing.assert_allclose(central_moment(u, x, 2), want, rtol=1e-14)

    @pytest.mark.parametrize("f", [zeta_sq, zeta])
    @pytest.mark.parametrize("u", [5e-309, 1e-320])
    def test_zeta_refuses_where_one_over_u_overflows(self, f, u):
        # both returned inf
        with pytest.raises(OverflowError, match=re.escape(f"x + 1/u overflows at u={u}, x=1.0")):
            f(u, 1.0)
        assert zeta_sq(6e-309, 1.0) == 1.6666666666666664e308

    @pytest.mark.parametrize("u, x, m, want", [
        (1e155, 1e155, 4, 12.0), (1e200, 1e200, 4, 12.0),  # x^2 and u^-2 overflow apart
        (10.0, 1.0, 170, 7.24319170470233e+165),  # coefficients past the double range
        (10.0, 2.5, 167, 2.362193006982782e+175)])
    def test_finite_value_the_float_sum_refused(self, u, x, m, want):
        # each raised OverflowError from a term of a float sum
        assert central_moment(u, x, m) == want == float(reference.exact_central_moment(u, x, m))

    @pytest.mark.parametrize("u", [3.0, 10.0, 123.4, 1e4])
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.7, 2.5])
    def test_within_half_an_ulp_of_the_generating_function(self, u, x):
        # m! times a Taylor coefficient of u/(u - theta) exp(theta^2 x/(u - theta))
        # at 50 digits, a derivation that shares nothing with the coefficient map;
        # the slack of 1e-45 is the reference's own rounding
        with mp.workdps(50):
            for m, want in enumerate(reference.central_moments_taylor(u, x, 20)):
                got = central_moment(u, x, m)
                assert abs(got - want) <= math.ulp(got) / 2 + abs(want) * mp.mpf("1e-45")

    @pytest.mark.parametrize("u, x, m", [(10.0, 1.0, 300), (1e-300, 1.0, 2), (5e-324, 0.0, 3)])
    def test_value_past_the_double_range_is_refused(self, u, x, m):
        assert reference.exact_central_moment(u, x, m) > sys.float_info.max
        with pytest.raises(OverflowError, match=re.escape(
                f"central moment of order {m} overflows the double range at u={u}, x={x}")):
            central_moment(u, x, m)


class TestRecurrence:
    def test_second_moment_polynomial(self):
        polys = central_moments_by_recurrence(2)
        # 2x/u + 2/u^2
        assert polys[2].coeffs == {(1, 1): Fraction(2), (0, 2): Fraction(2)}

    def test_first_step_uses_empty_convention(self):
        polys = central_moments_by_recurrence(1)
        assert polys[1].coeffs == {(0, 1): Fraction(1)}

    def test_third_moment_matches_binomial_numerically(self):
        polys = central_moments_by_recurrence(3)
        np.testing.assert_allclose(
            polys[3].evaluate(10.0, 1.0), central_moment(10.0, 1.0, 3), rtol=1e-12
        )

    def test_coefficientwise_agreement_through_order_six(self):
        rec = central_moments_by_recurrence(6)
        for m in range(7):
            assert rec[m].same_coeffs(central_moment_poly(m))

    def test_coefficientwise_agreement_through_order_300(self):
        # the paper's derivative recurrence against the generating function's
        # closed-form coefficients: two derivations, compared exactly
        rec = central_moments_by_recurrence(300)
        for m in range(301):
            assert rec[m].coeffs == central_moment_poly(m).coeffs

    def test_misplaced_x_variant_breaks_at_first_step(self):
        bad = recurrence_step(
            central_moment_poly(0), central_moment_poly(1), misplace_x=True
        )
        good = central_moment_poly(2)
        assert not bad.same_coeffs(good)
        # disagreement is structural, not a rounding artifact; x != 1 so the
        # misplaced factor cannot hide
        assert abs(bad.evaluate(10.0, 2.0) - good.evaluate(10.0, 2.0)) > 1e-3
        # misplaced at both steps: x/u^2 + 2x/u + 2x^2/u^2, two powers of 1/u
        # on x^1, so the map cannot be keyed by k (or by k + d) alone
        chain = central_moments_by_recurrence(2, misplace_x=True)[2]
        assert chain.coeffs == {(1, 2): 1, (1, 1): 2, (2, 2): 2}

    @pytest.mark.parametrize("u, x", [(10.0, 2.0), (0.3, 1e-5), (1e155, 1e155), (1e-3, 1e30)])
    def test_misplaced_chain_is_its_own_sum_correctly_rounded(self, u, x):
        # k + d differs from the order here, so the map is evaluated as it stands
        for poly in central_moments_by_recurrence(8, misplace_x=True):
            want = sum(c * Fraction(x) ** k / Fraction(u) ** d for (k, d), c in poly.coeffs.items())
            assert poly.evaluate(u, x) == float(want)

    def test_fraction_coefficient_gives_a_float(self):
        poly = MomentPoly(2, {(1, 1): Fraction(1, 3), (0, 2): 2})
        got = poly.evaluate(10.0, 1.0)
        assert type(got) is float and got == float(Fraction(1, 30) + Fraction(2, 100))

    def test_coefficient_gap_is_exact(self):
        good = central_moment_poly(4)
        tiny = Fraction(1, 10**30)
        nudged = MomentPoly(4, {**good.coeffs, (9, 0): tiny})
        assert good.coeff_gap(central_moments_by_recurrence(4)[4]) == 0
        assert nudged.coeff_gap(good) == tiny
        # tol = 0 compares the Fractions themselves, so even a 1e-30 gap counts
        assert not nudged.same_coeffs(good)
        assert nudged.same_coeffs(good, tol=1e-12)


class TestBruteforceOracle:
    # x = 0, u = 1e4 and u = 1e6 are edge regimes the per-j series below
    # cannot reach: it takes about ux adaptive quadratures per moment
    @pytest.mark.parametrize("u", [5.0, 10.0, 1e4, 1e6])
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0])
    def test_matches_closed_form_low_orders(self, u, x):
        want = [float(reference.exact_central_moment(u, x, m)) for m in range(7)]
        for m in range(7):
            np.testing.assert_allclose(central_moment_bruteforce(u, x, m), want[m], rtol=1e-9)
        # all orders as the columns of one kernel integral
        np.testing.assert_allclose(central_moment_bruteforce(u, x, range(7)), want, rtol=1e-9)

    def test_verify_check_takes_one_integral_for_all_points(self, monkeypatch):
        calls, oracle_calls = [], []
        real_integral = quadrature.kernel_integral

        def counting_integral(*args):
            calls.append(len(args[2]))
            return real_integral(*args)

        def counting_oracle(*args):
            oracle_calls.append(args)
            return central_moment_bruteforce(*args)

        monkeypatch.setattr(quadrature, "kernel_integral", counting_integral)
        monkeypatch.setattr(operator, "kernel_integral", counting_integral)
        monkeypatch.setattr(report, "central_moment_bruteforce", counting_oracle)
        checks = {c.name: c for c in report.run_verification_suite("none")}
        assert checks["central-moment-bruteforce"].passed
        # 3 u values x 3 points, all seven orders, in one oracle call and
        # one batched integral; the other batch of nine is the DBV check's
        assert len(oracle_calls) == 1
        us, xs, orders = oracle_calls[0]
        assert (len(us), len(xs), list(orders)) == (9, 9, list(range(7)))
        assert calls == [9, 9]

    def test_batched_points_match_one_call_per_point(self):
        us = np.array([5.0, 10.0, 100.0, 1e4])
        xs = np.array([0.0, 0.1, 1.0, 2.5])
        batch = central_moment_bruteforce(us, xs, range(7))
        assert batch.shape == (4, 7)
        for row, u, x in zip(batch, us, xs):
            alone = central_moment_bruteforce(u, x, range(7))
            np.testing.assert_allclose(row, alone, rtol=1e-13, atol=1e-300)
        assert central_moment_bruteforce(us, xs, 2).shape == (4,)

    def test_verify_points_are_within_1e_13_of_the_closed_form(self):
        # the nine (u, x) points of the verification suite's check, orders 0-6:
        # rounding of the repeated products of t - x stays far inside 1e-13
        us, xs = (v.ravel() for v in np.meshgrid((5.0, 10.0, 100.0), (0.1, 1.0, 2.5),
                                                indexing="ij"))
        refs = central_moment_bruteforce(us, xs, range(7))
        for u, x, row in zip(us.tolist(), xs.tolist(), refs.tolist()):
            for m, ref in enumerate(row):
                assert abs(central_moment(u, x, m) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("m", [-1, [0, -2], 2.5, [1.0, 2.5], True, [2, True]])
    def test_order_that_is_not_a_whole_number_is_refused(self, m):
        with pytest.raises(ValueError, match="moment order m must be >= 0 and a whole number"):
            central_moment_bruteforce(10.0, 1.0, m)

    def test_whole_orders_of_any_type_give_the_bits_of_ints(self):
        # 3.0 was refused while central_moment took it
        want = central_moment_bruteforce(10.0, 1.0, [1, 2, 3])
        got = central_moment_bruteforce(10.0, 1.0, [1.0, np.int64(2), 3.0])
        assert got.tobytes() == want.tobytes()
        assert central_moment_bruteforce(10.0, 1.0, 3.0) == central_moment_bruteforce(10.0, 1.0, 3)

    @pytest.mark.parametrize("u, x", [(5.0, 0.1), (10.0, 1.0), (100.0, 2.5)])
    def test_matches_per_j_series(self, u, x):
        for m in range(5):
            np.testing.assert_allclose(
                central_moment_bruteforce(u, x, m), reference.per_j_series(u, x, m), rtol=1e-8
            )


class TestPolynomialStructure:
    @pytest.mark.parametrize("lam", [0.5, 3.0, 40.0, 1000.0])
    def test_raw_coefficients_are_laguerre(self, lam):
        # u^m B(t^m; x) = m! L_m(-ux) (DLMF 18.5.12), here with ux = lam
        with mp.workdps(80):
            for m in range(26):
                got = mp.fsum(a * mp.mpf(lam) ** l
                              for l, a in enumerate(raw_moment_lambda_coeffs(m)))
                want = mp.factorial(m) * mp.laguerre(m, 0, -lam)
                assert abs(got - want) <= mp.mpf("1e-60") * want

    @pytest.mark.parametrize("m", range(13))
    def test_central_coefficients_are_nonnegative_integers(self, m):
        # every term is c x^k u^-d with k + d = m and 2k <= m, so mu_m is
        # O(u^-ceil(m/2)) on compacts, with a sign-free coefficient sum
        for poly in (central_moment_poly(m), central_moments_by_recurrence(m)[m]):
            terms = [(k, d, c) for (k, d), c in poly.coeffs.items()]
            assert terms
            for k, d, c in terms:
                assert type(c) is int and c > 0
                assert k + d == m and 2 * k <= m


class TestDecayOrder:
    def test_first_moment_decays_exactly_linearly(self):
        rep = decay_order_check(1, 1.0, np.logspace(2, 6, 9))
        np.testing.assert_allclose(rep.exponent, -1.0, atol=1e-9)
        assert rep.passed

    def test_reported_orders(self):
        grid = np.logspace(2, 6, 9)
        for m, want in [(1, -1.0), (2, -1.0), (3, -2.0), (4, -2.0)]:
            rep = decay_order_check(m, 1.0, grid)
            assert rep.limit_exponent == want
            assert abs(rep.exponent - want) <= 0.1
            assert rep.passed

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError):
            decay_order_check(2, 1.0, [10.0, 20.0, 40.0])

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import poisson

import szmd
from szmd.basis import log_weights, tail_mass
from szmd.moments import raw_moment_lambda_coeffs
from szmd.operator import apply_truncated
from szmd.targets import BUILTIN_TARGETS
import reference


def _weight(u, j, x):
    return math.exp(float(log_weights(u, x, np.array([j]))[0]))


class TestSzaszWeight:
    def test_origin_conventions(self):
        assert _weight(1.0, 0, 0.0) == 1.0
        assert _weight(10.0, 3, 0.0) == 0.0

    def test_simple_value(self):
        np.testing.assert_allclose(_weight(10.0, 0, 1.0), math.exp(-10.0), rtol=1e-14)

    def test_large_index_against_mpmath(self):
        got = _weight(50.0, 60, 1.0)
        want = float(reference.poisson_weight(50.0, 60))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_agrees_with_naive_form(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = float(rng.uniform(0.5, 10.0))
            x = float(rng.uniform(0.01, 3.0))
            j = int(rng.integers(0, 100))
            naive = math.exp(-u * x) * (u * x) ** j / math.factorial(j)
            if naive == 0.0:
                continue
            np.testing.assert_allclose(_weight(u, j, x), naive, rtol=1e-12)

    def test_parameter_point_symmetry(self):
        # s_{u,j}(x) depends on (u, x) only through the product ux
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = float(rng.uniform(0.5, 200.0))
            x = float(rng.uniform(0.0, 3.0))
            j = int(rng.integers(0, 50))
            a = _weight(u, j, x)
            b = _weight(1.0, j, u * x)
            if a == b == 0.0:
                continue
            np.testing.assert_allclose(a, b, rtol=1e-13)

    # a negative index must not pass as the j = 0 weight e^{-ux}
    @pytest.mark.parametrize("u,j,x", [(-1.0, 0, 1.0), (0.0, 0, 1.0), (1.0, 0, -0.5), (1.0, -1, 1.0),
                                       (1.0, -1, 0.0)])
    def test_domain_errors(self, u, j, x):
        with pytest.raises(ValueError):
            log_weights(u, x, np.array([0, j]))


class TestLogWeights:
    def test_matches_scalar_weight(self):
        j = np.arange(0, 80)
        lw = log_weights(10.0, 1.5, j)
        for jj in (0, 1, 5, 15, 40, 79):
            np.testing.assert_allclose(
                math.exp(lw[jj]), float(reference.poisson_weight(15.0, jj)), rtol=1e-12
            )

    def test_accuracy_at_huge_parameter(self):
        lam = 2.5e6
        for jj in (2_500_000, 2_503_117, 2_480_000):
            got = float(log_weights(1e6, 2.5, np.array([jj]))[0])
            want = float(mp.log(reference.poisson_weight(lam, jj, dps=50)))
            assert abs(got - want) < 1e-12

    def test_x_zero(self):
        lw = log_weights(5.0, 0.0, np.arange(4))
        assert lw[0] == 0.0
        assert np.all(np.isneginf(lw[1:]))


class TestNormalization:
    @pytest.mark.parametrize("u", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.5])
    def test_partial_sums(self, u, x):
        eps = 1e-12
        j_last = int(poisson.isf(eps, u * x))
        assert tail_mass(u, x, j_last) <= eps
        partial = np.cumsum(np.exp(log_weights(u, x, np.arange(j_last + 1))))
        assert np.all(np.diff(partial) >= 0.0)
        assert partial[-1] >= 1.0 - eps
        assert np.all(partial <= 1.0 + 1e-12)

    def test_tail_mass_complements_partial_sum(self):
        # exact complement computed in extended precision: 1 - cumsum in
        # float64 drowns tails below ~1e-13 in cancellation noise
        u, x = 10.0, 1.0
        for j_last in (5, 10, 20, 40):
            with mp.workdps(50):
                direct = float(1 - mp.fsum(reference.poisson_weight(u * x, j, dps=50)
                                           for j in range(j_last + 1)))
            np.testing.assert_allclose(tail_mass(u, x, j_last), direct, rtol=1e-12)


class TestTruncationSpec:
    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            apply_truncated(BUILTIN_TARGETS["one"], 10.0, 1.0, -1)


NEGX3E5X = BUILTIN_TARGETS["negx3e5x"]
ABS_SPEC = szmd.DbvSpec(szmd.BlackBox(lambda t: abs(t - 1.0), growth_rate=0.0, kinks=(1.0,)),
                        gprime_left=lambda t: np.where(t <= 1.0, -1.0, 1.0),
                        gprime_right=lambda t: np.where(t < 1.0, -1.0, 1.0), breakpoints=(1.0,))

# Each public entry point that takes a whole number v: (call, argument name, least v).
WHOLE_ENTRY_POINTS = {
    "ExpPolySum": (lambda v: szmd.ExpPolySum(((2.0, v, -1.0),)), "monomial power", 0),
    "MonomialSum": (lambda v: szmd.MonomialSum(((2.0, v),)), "monomial power", 0),
    "raw_moment": (lambda v: szmd.raw_moment(10.0, 1.0, v), "moment order m", 0),
    "raw_moment_lambda_coeffs": (raw_moment_lambda_coeffs, "moment order m", 0),
    "central_moment_poly": (szmd.central_moment_poly, "moment order m", 0),
    "central_moment": (lambda v: szmd.central_moment(10.0, 1.0, v), "moment order m", 0),
    "central_moment_bruteforce": (lambda v: szmd.central_moment_bruteforce(10.0, 1.0, v),
                                  "moment order m", 0),
    "central_moment_bruteforce_orders": (
        lambda v: szmd.central_moment_bruteforce(10.0, 1.0, [1, v]).tolist(), "moment order m", 0),
    "decay_order_check": (lambda v: szmd.decay_order_check(v, 1.0, [1e2, 1e4, 1e6]),
                          "moment order m", 0),
    "central_moments_by_recurrence": (szmd.central_moments_by_recurrence, "max_order", 0),
    "u_value": (lambda v: szmd.SequenceRule.identity().u_value(v), "sequence index n", 1),
    "u_value_explicit": (lambda v: szmd.SequenceRule.from_explicit([1, 2, 4, 8]).u_value(v),
                         "sequence index n", 1),
    "values": (lambda v: szmd.SequenceRule.from_power(1.5).values([v]), "sequence index n", 1),
    "make_error_table": (lambda v: szmd.make_error_table(
        BUILTIN_TARGETS["x2e2x"], szmd.SequenceRule.identity(), xs=(1.0,), ns=(v,)),
        "sequence index n", 1),
    "apply_truncated": (lambda v: apply_truncated(NEGX3E5X, 15.0, 1.0, v), "J", 0),
    "make_curves": (lambda v: szmd.make_curves(NEGX3E5X, [15.0], [0.0, 1.0], truncation_js=[v]),
                    "J", 0),
    "tail_mass": (lambda v: tail_mass(10.0, 1.0, v), "j_last", 0),
    "total_variation": (lambda v: szmd.total_variation(np.cos, (0.0, 3.0), samples=v),
                        "samples", 2),
    "dbv_bound": (lambda v: szmd.dbv_bound(ABS_SPEC, 100.0, 1.0, tv_samples=v), "samples", 2),
}


class TestWholeNumbers:
    """Every whole-number argument is refused or taken the same way: as an int."""

    @pytest.mark.parametrize("name", WHOLE_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True, "below"])
    def test_refused_with_the_argument_named(self, name, bad):
        call, what, least = WHOLE_ENTRY_POINTS[name]
        with pytest.raises(ValueError, match=f"{what} must be >= {least} and a whole number"):
            call(least - 1 if bad == "below" else bad)

    @pytest.mark.parametrize("name", WHOLE_ENTRY_POINTS)
    @pytest.mark.parametrize("v", [3.0, np.int64(3)], ids=["float", "int64"])
    def test_whole_value_gives_the_bits_of_the_int(self, name, v):
        # repr shows every float's bits and every number's type, np.int64 included
        call = WHOLE_ENTRY_POINTS[name][0]
        assert repr(call(v)) == repr(call(3))

    def test_cached_entries_are_not_shared_across_types(self):
        # an untyped lru_cache answered raw_moment_lambda_coeffs(True) from the entry of 1
        raw_moment_lambda_coeffs(1)
        szmd.central_moment_poly(1)
        with pytest.raises(ValueError, match="moment order m"):
            raw_moment_lambda_coeffs(True)
        with pytest.raises(ValueError, match="moment order m"):
            szmd.central_moment_poly(True)


@pytest.mark.parametrize("u, x", [(1e308, 2.5), (1e200, 1e200)])
def test_log_weights_refuses_a_mean_past_the_double_range(u, x):
    # read [-inf, nan, nan, nan] with two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=re.escape(f"at u={u}, x={x}")):
            log_weights(u, x, np.arange(4.0))

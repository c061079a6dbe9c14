import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import poisson

from szmd.basis import log_weights, tail_mass
from szmd.operator import apply_truncated
from szmd.targets import BUILTIN_TARGETS

mp.mp.dps = 50


def _weight_mp(u, j, x):
    lam = mp.mpf(u) * mp.mpf(x)
    return mp.e ** (-lam) * lam**j / mp.factorial(j)


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
        want = float(_weight_mp(50, 60, 1))
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
                math.exp(lw[jj]), float(_weight_mp(10, jj, 1.5)), rtol=1e-12
            )

    def test_accuracy_at_huge_parameter(self):
        lam = 2.5e6
        for jj in (2_500_000, 2_503_117, 2_480_000):
            got = float(log_weights(1e6, 2.5, np.array([jj]))[0])
            want = float(mp.log(_weight_mp(mp.mpf(1e6), jj, mp.mpf(2.5))))
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
            direct = float(1 - mp.fsum(_weight_mp(u, j, x) for j in range(j_last + 1)))
            np.testing.assert_allclose(tail_mass(u, x, j_last), direct, rtol=1e-12)


class TestTruncationSpec:
    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            apply_truncated(BUILTIN_TARGETS["one"], 10.0, 1.0, -1)

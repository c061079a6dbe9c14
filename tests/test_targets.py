import dataclasses
import math

import numpy as np
import pytest

from szmd.targets import (
    BUILTIN_TARGETS,
    BlackBox,
    ExpPolySum,
    MonomialSum,
    exppoly_derivative,
    exppoly_terms,
    parse_target,
    target_label,
)


class TestEvaluation:
    def test_builtins_match_formulas(self):
        t = np.linspace(0.0, 2.5, 7)
        np.testing.assert_allclose(BUILTIN_TARGETS["x2e2x"](t), t**2 * np.exp(2 * t))
        np.testing.assert_allclose(
            BUILTIN_TARGETS["negx3e5x"](t), -(t**3) * np.exp(-5 * t)
        )
        np.testing.assert_allclose(BUILTIN_TARGETS["expneg"](t), np.exp(-t))
        np.testing.assert_allclose(BUILTIN_TARGETS["t2"](t), t**2)

    def test_scalar_and_array_agree(self):
        g = ExpPolySum(((2.0, 1, -1.0), (0.5, 0, 0.0)))
        arr = g(np.array([0.3, 1.7]))
        assert arr[0] == pytest.approx(g(0.3))
        assert arr[1] == pytest.approx(g(1.7))

    def test_growth_rates(self):
        assert BUILTIN_TARGETS["x2e2x"].growth_rate == 2.0
        assert BUILTIN_TARGETS["negx3e5x"].growth_rate == -5.0
        assert BUILTIN_TARGETS["t2"].growth_rate == 0.0
        assert BlackBox(lambda t: t, growth_rate=1.5).growth_rate == 1.5

    def test_growth_rate_is_taken_once_and_outside_equality(self):
        # a field set at construction: equal terms are equal and hash alike,
        # the repr shows the terms alone, and the rate cannot be reassigned
        g, h = ExpPolySum(((1.0, 2, 2.0), (3.0, 0, -1.0))), parse_target("t^2*exp(2t) + 3*exp(-1t)")
        assert g == h and hash(g) == hash(h) and g.growth_rate == 2.0
        assert repr(g) == "ExpPolySum(terms=((1.0, 2, 2.0), (3.0, 0, -1.0)))"
        assert ExpPolySum(()).growth_rate == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.growth_rate = 5.0


class TestParsing:
    def test_builtin_names(self):
        assert parse_target("x2e2x") is BUILTIN_TARGETS["x2e2x"]
        assert parse_target(" one ") is BUILTIN_TARGETS["one"]

    def test_exppoly_literal(self):
        g = parse_target("1*t^2*exp(2*t)")
        assert isinstance(g, ExpPolySum)
        assert g.terms == ((1.0, 2, 2.0),)

    def test_negative_rate_and_sign(self):
        g = parse_target("-1*t^3*exp(-5*t)")
        assert g.terms == ((-1.0, 3, -5.0),)

    def test_multi_term_mixed(self):
        g = parse_target("2*t^2 - 0.5*t + 3")
        assert isinstance(g, ExpPolySum)
        assert g.terms == ((2.0, 2, 0.0), (-0.5, 1, 0.0), (3.0, 0, 0.0))

    def test_bare_t_and_constant(self):
        assert parse_target("t").terms == ((1.0, 1, 0.0),)
        assert parse_target("3.5").terms == ((3.5, 0, 0.0),)

    def test_scientific_notation_survives_splitting(self):
        g = parse_target("1e-2*t + 2.5e+1")
        assert g.terms == ((0.01, 1, 0.0), (25.0, 0, 0.0))

    def test_polynomial_is_exppoly_with_zero_rates(self):
        built = MonomialSum(((2.0, 2), (-0.5, 1), (3.0, 0)))
        parsed = parse_target("2*t^2 - 0.5*t + 3")
        assert built == parsed == ExpPolySum(((2.0, 2, 0.0), (-0.5, 1, 0.0), (3.0, 0, 0.0)))
        ts = np.linspace(0.0, 5.0, 101)
        want = 2.0 * ts**2 + -0.5 * ts**1 + 3.0 * ts**0
        assert built(ts).tobytes() == want.tobytes()
        assert [built(float(t)) for t in ts] == want.tolist()

    def test_compact_exp_form(self):
        g = parse_target("t*exp(2t)")
        assert g.terms == ((1.0, 1, 2.0),)

    @pytest.mark.parametrize("bad", ["", "foo", "t^^2", "exp()", "1*q^2"])
    def test_rejects_junk(self, bad):
        with pytest.raises(ValueError):
            parse_target(bad)


class TestStructure:
    def test_canonical_terms(self):
        assert exppoly_terms(MonomialSum(((2.0, 3),))) == ((2.0, 3, 0.0),)
        assert exppoly_terms(BlackBox(lambda t: t, growth_rate=0.0)) is None

    def test_derivative_matches_finite_differences(self):
        g = ExpPolySum(((1.0, 2, 2.0), (-0.5, 1, 0.0)))
        dg = exppoly_derivative(g)
        h = 1e-6
        for t in (0.1, 0.9, 2.2):
            fd = (g(t + h) - g(t - h)) / (2 * h)
            np.testing.assert_allclose(dg(t), fd, rtol=1e-8)

    def test_derivative_requires_structure(self):
        with pytest.raises(ValueError):
            exppoly_derivative(BlackBox(lambda t: t, growth_rate=0.0))

    def test_labels(self):
        assert "t^2" in target_label(BUILTIN_TARGETS["x2e2x"])
        assert target_label(BlackBox(lambda t: t, growth_rate=0.0, label="|t-1|")) == "|t-1|"

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            MonomialSum(((1.0, -1),))
        with pytest.raises(ValueError):
            ExpPolySum(((1.0, 0, math.inf),))

    @pytest.mark.parametrize("make", [
        lambda: MonomialSum(((math.inf, 1),)),
        lambda: ExpPolySum(((math.nan, 0, 1.0),)),
        lambda: parse_target("1e400*t"),  # the literal rounds to inf
    ], ids=["monomial-inf", "exppoly-nan", "literal-1e400"])
    def test_coefficient_must_be_finite(self, make):
        # an inf coefficient made apply report "ln sum|c_k| B_k = nan"
        with pytest.raises(ValueError, match="coefficient must be finite"):
            make()

    @pytest.mark.parametrize("rate", [-math.inf, math.inf, math.nan])
    def test_blackbox_growth_rate_must_be_finite(self, rate):
        # -inf would collapse the integration window: apply returned 0 with
        # zero error for g = 1, whose operator value is 1
        with pytest.raises(ValueError, match="growth rate must be finite"):
            BlackBox(lambda t: 1.0, growth_rate=rate)

"""Properties of the operator, its kernel and the kernel CDF over random
exp-poly targets and regimes, and of the moment maps over the double range.

Values are checked against references (reference.py) that do not share the
closed form under test: the series as a Kummer function and term by term, the
kernel as a Bessel function and its CDF as an incomplete-gamma series.  The
hypothesis profile in conftest.py keeps the examples fixed.
"""
import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from szmd.bounds import kfunctional_bound
from szmd.moments import central_moment, raw_moment, zeta_sq
from szmd.operator import (
    OperatorOverflow,
    _closed_form,
    _closed_form_grid,
    _kernel_values,
    apply,
    apply_truncated,
    kernel_cdf,
    kernel_value,
)
from szmd.quadrature import ConvergenceFailure
from szmd.targets import BUILTIN_TARGETS, BlackBox, ExpPolySum, MonomialSum, parse_target
import reference

EPS = sys.float_info.epsilon
LN_DBL_MAX = math.log(sys.float_info.max)
X2E2X = BUILTIN_TARGETS["x2e2x"]
NEGX3E5X = BUILTIN_TARGETS["negx3e5x"]


def apply_or_skip(terms, u, x):
    """apply, with examples whose value overflows left out."""
    try:
        return apply(ExpPolySum(terms), u, x)
    except OperatorOverflow:
        assume(False)


def uniform(lo, hi):
    # hypothesis favours simple floats such as 0 and 1 within a range;
    # scaling a draw from [0, 1] spreads the examples over the whole range
    return st.floats(0.0, 1.0).map(lambda f: lo + (hi - lo) * f)


def log_uniform(lo, hi):
    return uniform(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


coeffs = st.builds(lambda sign, c: sign * c, st.sampled_from((-1.0, 1.0)),
                   uniform(0.1, 3.0))
rates = uniform(-5.0, 3.0)
exppoly = st.lists(st.tuples(coeffs, st.integers(0, 4), rates),
                   min_size=1, max_size=3).map(tuple)
points = uniform(0.0, 2.5)
far_points = st.one_of(st.just(0.0), log_uniform(1e-300, 1e300))
deviations = uniform(-6.0, 6.0)


@st.composite
def regimes(draw, targets=exppoly, max_u=1e6):
    """(terms, u, x) with u in (rate + 0.01, max_u], log-uniform above the rate."""
    terms = draw(targets)
    rate = max(max(a for _, _, a in terms), 0.0)
    u = min(rate + draw(log_uniform(0.01, max_u)), max_u)
    return terms, u, draw(points)


def near(u, x, z):
    """A point z standard deviations of the kernel away from x, clipped at 0."""
    return max(x + z * math.sqrt((x + 1.0 / u) / u), 0.0)


# ---------------------------------------------------------------------------
# the operator


def test_near_edge_growing_target():
    # u just above the growth rate 2: the series lives at L = 404, far past
    # the Poisson mode ux = 2.01
    op = apply(X2E2X, 2.01, 1.0)
    assert abs(op.value - reference.kummer(2.01, 1.0, 2, 2.0)) <= op.tail_bound
    np.testing.assert_allclose(op.value, 1.28e186, rtol=1e-2)


def test_growing_target_at_large_x():
    op = apply(X2E2X, 10.0, 2.5)
    np.testing.assert_allclose(op.value, 11165.225152794086, rtol=1e-13)


@given(regimes())
def test_matches_the_oracle_within_tail_bound(case):
    terms, u, x = case
    want, scale = reference.oracle(terms, u, x)
    log_scale = float(mp.log(scale))
    assume(abs(log_scale - LN_DBL_MAX) > 1e-9)
    if log_scale > LN_DBL_MAX:
        with pytest.raises(OperatorOverflow):
            apply(ExpPolySum(terms), u, x)
        return
    op = apply(ExpPolySum(terms), u, x)
    assert abs(op.value - want) <= op.tail_bound


@st.composite
def far_regimes(draw):
    """(terms, u, x) with powers up to 1000, u in (rate + 0.01, 1e300],
    log-uniform above the rate, and x 0, in [0, 2.5] or log-uniform over
    [1e-300, 1e300]."""
    terms = draw(st.lists(st.tuples(coeffs, st.integers(0, 1000), rates),
                          min_size=1, max_size=3).map(tuple))
    rate = max(max(a for _, _, a in terms), 0.0)
    u = min(rate + draw(log_uniform(0.01, 1e300)), 1e300)
    return terms, u, draw(st.one_of(points, far_points))


@settings(max_examples=100)
@given(far_regimes())
def test_large_powers_and_far_points_within_budget(case):
    # A_m[l] leaves the double range from m = 167 and u*u*x/(u-a) from
    # u ~ 1.34e154; apply and a column of the grid form keep within apply's
    # budget wherever sum_k |c_k| B_k is finite, and refuse exactly where it is not
    terms, u, x = case
    want, log_scale = reference.far_oracle(terms, u, x)
    log_scale = float(log_scale)
    assume(abs(log_scale - LN_DBL_MAX) > 1e-6)
    g, column, xs = ExpPolySum(terms), np.array([[u]]), np.array([x])
    if log_scale > LN_DBL_MAX:
        with pytest.raises(OperatorOverflow):
            apply(g, u, x)
        with pytest.raises(OperatorOverflow):
            _closed_form_grid(column, xs, terms)
        return
    op = apply(g, u, x)
    assert abs(op.value - want) <= op.tail_bound
    assert abs(_closed_form_grid(column, xs, terms)[0, 0] - want) <= op.tail_bound


@given(regimes(), st.lists(uniform(0.0, 4.0), min_size=1, max_size=4))
def test_closed_form_grid_matches_the_scalar_form(case, spread):
    # x = 0, and x where L = u^2 x/(u-a) of the fastest-growing term lies
    # on both sides of 1, where the moment polynomial changes branch
    terms, u, x = case
    d = u - max(a for _, _, a in terms)
    xs = np.array([0.0, x, *(f * d / (u * u) for f in (0.5, 1.0, 2.0, *spread))])
    try:
        want = [_closed_form(u, v, terms) for v in xs.tolist()]
    except OperatorOverflow:
        assume(False)
    for value, (w_value, w_budget) in zip(_closed_form_grid(u, xs, terms), want):
        assert abs(value - w_value) <= w_budget


@given(exppoly, st.lists(log_uniform(0.01, 1e6), min_size=1, max_size=3), st.data())
def test_closed_form_grid_over_many_u_keeps_each_u_alone(terms, offsets, data):
    # u one per x, drawn with repeats from one to three values, and a column
    # of u against the grid: each point has the bits of the call with its own
    # u alone
    rate = max(max(a for _, _, a in terms), 0.0)
    distinct = [min(rate + offset, 1e6) for offset in offsets]
    n = data.draw(st.integers(1, 12))
    picks = data.draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    us, xs = np.array(picks), np.array(data.draw(st.lists(points, min_size=n, max_size=n)))
    alone = {}
    for v in set(picks):
        try:
            alone[v] = _closed_form_grid(v, xs[us == v], terms)
        except OperatorOverflow:
            with pytest.raises(OperatorOverflow):
                _closed_form_grid(us, xs, terms)
            return
    values = _closed_form_grid(us, xs, terms)
    for v, want_values in alone.items():
        assert values[us == v].tobytes() == want_values.tobytes()
    # a column of the drawn u, with its repeats, against every x: one row per u
    column = np.array(distinct)[:, None]
    try:
        rows = [_closed_form_grid(v, xs, terms) for v in distinct]
    except OperatorOverflow:
        with pytest.raises(OperatorOverflow):
            _closed_form_grid(column, xs, terms)
        return
    for row_values, want_values in zip(_closed_form_grid(column, xs, terms), rows):
        assert row_values.tobytes() == want_values.tobytes()


@given(regimes(), uniform(-3.0, 3.0))
def test_linearity(case, beta):
    terms, u, x = case
    head, rest = terms[:1], terms[1:] or ((1.0, 0, 0.0),)
    whole = apply_or_skip(head + tuple((beta * c, m, a) for c, m, a in rest), u, x)
    f = apply_or_skip(head, u, x)
    h = apply_or_skip(rest, u, x)
    # the second |beta| h.tail_bound covers the rounding of beta * c
    tol = (whole.tail_bound + f.tail_bound + 2.0 * abs(beta) * h.tail_bound
           + 2.0 * EPS * (abs(f.value) + abs(beta * h.value)))
    assert abs(whole.value - (f.value + beta * h.value)) <= tol


@given(log_uniform(0.01, 1e6), points)
def test_constants_and_first_moment(u, x):
    one = apply(MonomialSum(((1.0, 0),)), u, x)
    assert abs(one.value - 1.0) <= one.tail_bound
    first = apply(MonomialSum(((1.0, 1),)), u, x)
    assert abs(Fraction(first.value) - reference.exact_raw_moment(u, x, 1)) <= first.tail_bound


@given(regimes(targets=st.tuples(uniform(0.1, 3.0), points, rates).map(
    lambda cba: ((cba[0], 2, cba[2]), (-2.0 * cba[0] * cba[1], 1, cba[2]),
                 (cba[0] * cba[1] ** 2, 0, cba[2])))))
def test_positivity(case):
    # c (t - b)^2 e^{at} >= 0, written as three terms that cancel near t = b
    terms, u, x = case
    op = apply_or_skip(terms, u, x)
    assert op.value >= -op.tail_bound


@settings(max_examples=30)
@given(regimes(max_u=1e4))
def test_partial_sum_far_past_the_mode_matches(case):
    # the series summed term by term, not the closed form, on the right;
    # u stays <= 1e4 because the sum costs O(u^2 x / (u - a)) terms
    terms, u, x = case
    reach = max(u * u * x / (u - a) for _, _, a in terms)
    j_max = int(reach + 40.0 * math.sqrt(reach) + 50.0)
    full = apply_or_skip(terms, u, x)
    trunc = apply_truncated(ExpPolySum(terms), u, x, j_max)
    assert abs(full.value - trunc.value) <= trunc.tail_bound


def blackbox_of(terms):
    """The exp-poly sum as a BlackBox of its growth rate, whose overflow is an
    OverflowError, as a black box's math.exp would raise."""
    g = ExpPolySum(terms)

    def fn(t):
        with np.errstate(over="raise"):
            try:
                return g(t)
            except FloatingPointError:
                raise OverflowError(f"target overflows at t={t}") from None

    return BlackBox(fn, g.growth_rate)


def assert_within_own_estimate(op, want):
    """|value - want| within the black box's error estimate, plus the 40-digit
    reference's own rounding."""
    assert abs(mp.mpf(op.value) - want) <= op.inner_integral_error + 1e-30 * abs(want)


@settings(max_examples=30)
@given(regimes())
def test_blackbox_matches_the_closed_form(case):
    # the kernel integral of a wrapped exp-poly target against the closed
    # form's 40-digit reference, within its own error estimate
    terms, u, x = case
    try:
        op = apply(blackbox_of(terms), u, x)
    except OperatorOverflow:
        assume(False)
    assert_within_own_estimate(op, reference.oracle(terms, u, x)[0])


ONE_TERM, EXPNEG_TERMS = ((1.0, 0, 0.0),), ((1.0, 0, -1.0),)


@st.composite
def far_blackbox_regimes(draw):
    """(terms, u, x): the constant 1, e^-t, t^2 e^{2t} or a random exp-poly
    sum, u log-uniform above its rate up to 1e40, x in [0, 2.5]."""
    terms = draw(st.one_of(st.sampled_from((ONE_TERM, EXPNEG_TERMS, X2E2X.terms)), exppoly))
    rate = max(max(a for _, _, a in terms), 0.0)
    u = min(rate + draw(log_uniform(0.01, 1e40)), 1e40)
    return terms, u, draw(points)


@settings(max_examples=60)
@given(far_blackbox_regimes())
def test_blackbox_within_its_own_estimate_up_to_u_1e40(case):
    # nodes t = centre + half xi carried a rounding of eps sqrt(ux) into the
    # kernel's exponent: the constant 1 read 0 with estimate 0 at u = 1e40
    terms, u, x = case
    want, log_scale = reference.far_oracle(terms, u, x)
    assume(log_scale < LN_DBL_MAX - 1.0)
    try:
        op = apply(blackbox_of(terms), u, x)
    except (OperatorOverflow, ConvergenceFailure):
        return
    assert_within_own_estimate(op, want)


@pytest.mark.parametrize("x", [0.1, 1.0, 2.5])
@pytest.mark.parametrize("u", [1e4, 1e6, 1e8, 1e12, 1e16, 1e25, 1e33, 1e40])
@pytest.mark.parametrize("terms", [ONE_TERM, EXPNEG_TERMS, X2E2X.terms],
                         ids=["one", "expneg", "x2e2x"])
def test_blackbox_gives_a_value_within_its_estimate_at_large_u(terms, u, x):
    # absolute nodes put eps sqrt(ux) into the kernel's exponent: 12 of these
    # points were refused, and at u = 1e40 every value read 0 with estimate 0
    assert_within_own_estimate(apply(blackbox_of(terms), u, x),
                               reference.far_oracle(terms, u, x)[0])


@pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("u", [1e4, 1e6, 1e8])
def test_kinked_blackbox_within_its_estimate(u, x):
    # at the kink x = 1 the target's own rounding of t - 1 is eps relative to
    # 1, not to |t - 1|: the estimate's floor carries it
    op = apply(BlackBox(lambda t: abs(t - 1.0), 0.0, kinks=(1.0,)), u, x)
    assert_within_own_estimate(op, reference.kernel_quad(u, x, lambda t: abs(t - 1), kinks=(1,)))


@pytest.mark.parametrize("x", [0.1, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("u", [2.5, 3.0, 5.0])
def test_growing_blackbox_near_its_rate_within_its_estimate(u, x):
    # e^{2t} rounds its argument's error 2t times over: the estimate's
    # floor carries it (it read 1.4 times the estimate at u = 3, x = 10)
    try:
        op = apply(blackbox_of(X2E2X.terms), u, x)
    except OperatorOverflow:
        return
    assert_within_own_estimate(op, reference.far_oracle(X2E2X.terms, u, x)[0])


@pytest.mark.parametrize("u, x, j_max", [
    pytest.param(15.0, 1.0, 0, id="15-1-J0"),
    pytest.param(15.0, 1.0, 15, id="15-1-J15"),
    pytest.param(15.0, 1.0, 60, id="15-1-J60"),
    pytest.param(15.0, 0.0, 0, id="origin-J0"),  # at x = 0 only j = 0 carries weight
    pytest.param(15.0, 0.0, 5, id="origin-J5"),
    pytest.param(1e5, 5.56e-313, 5, id="subnormal-x"),  # s_1(x) ~ e^-707
    pytest.param(1e4, 1.0, 20_000, id="ux-1e4-J20000"),  # J = 2 ux
])
def test_partial_sum_matches_a_50_digit_series(u, x, j_max):
    # the majorant is the |g|-majorant's closed form, as in the property below
    want = reference.partial_sum_oracle(NEGX3E5X.terms, u, x, j_max)
    majorant = abs(apply(NEGX3E5X, u, x).value)
    assert abs(apply_truncated(NEGX3E5X, u, x, j_max).value - want) <= 1e-12 * majorant


def test_the_series_oracle_tells_j2_from_j3():
    # the 1e-12 majorant tolerance above separates neighbouring cuts
    j2 = reference.partial_sum_oracle(NEGX3E5X.terms, 15.0, 1.0, 2)
    j3 = reference.partial_sum_oracle(NEGX3E5X.terms, 15.0, 1.0, 3)
    got = apply_truncated(NEGX3E5X, 15.0, 1.0, 3).value
    majorant = abs(apply(NEGX3E5X, 15.0, 1.0).value)
    assert abs(got - j3) <= 1e-12 * majorant < abs(got - j2)


@given(regimes(), st.integers(0, 60))
def test_partial_sum_matches_a_50_digit_series_in_every_regime(case, j_max):
    # the exactly summed partial series, within 1e-12 of the |g|-majorant
    # sum_k |c_k| B_k
    terms, u, x = case
    majorant = apply_or_skip(tuple((abs(c), m, a) for c, m, a in terms), u, x).value
    try:
        got = apply_truncated(ExpPolySum(terms), u, x, j_max).value
    except OperatorOverflow:
        assume(False)
    want = reference.partial_sum_oracle(terms, u, x, j_max)
    assert abs(got - want) <= 1e-12 * majorant


# ---------------------------------------------------------------------------
# the kernel and its CDF


@given(log_uniform(0.01, 1e6), points, points)
def test_kernel_symmetry_is_bitwise(u, x, t):
    assert kernel_value(u, x, t) == kernel_value(u, t, x)


@st.composite
def kernel_points(draw):
    """(u, x, t) over the double range, t anywhere or within six of the
    kernel's spreads sqrt(x/u) + 1/u of x, where the kernel is alive."""
    u, x = draw(log_uniform(1e-300, 1e8)), draw(far_points)
    spread = math.sqrt(x) / math.sqrt(u) + 1.0 / u  # <= 2e300: no overflow
    close = deviations.map(lambda z: min(max(x + z * spread, 0.0), 1e300))
    return u, x, draw(st.one_of(far_points, close))


@settings(max_examples=300)
@given(kernel_points())
def test_kernel_forms_agree_over_the_double_range(case):
    # finite, >= 0 and bitwise symmetric wherever u, x and t are doubles; the
    # array form at the offset s = sqrt t - sqrt x, against the 40-digit
    # kernel at that s: exp's argument u s^2 carries its rounding, and a
    # value below the normal range keeps only its absolute accuracy
    u, x, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scalar = kernel_value(u, x, t)
        assert scalar == kernel_value(u, t, x)
    assert 0.0 <= scalar < math.inf
    s = math.sqrt(t) - math.sqrt(x)
    with np.errstate(all="ignore"):
        array = float(_kernel_values(u, math.sqrt(x), np.array([s]))[0])
    want = float(reference.kernel_offset(u, math.sqrt(x), s))
    assert 0.0 <= array < math.inf
    if want > 1e-290:
        assert abs(array - want) <= (16.0 + 4.0 * u * s * s) * EPS * want
    else:
        assert array <= 1e-280


@given(log_uniform(0.01, 1e6), points, deviations)
def test_kernel_matches_bessel(u, x, z):
    t = near(u, x, z)
    want = reference.kernel(u, x, t)
    scalar = kernel_value(u, x, t)
    assert abs(scalar - want) <= 1e-13 * want
    # the array form the kernel integral evaluates, at the offset of t
    s = math.sqrt(t) - math.sqrt(x)
    array = float(_kernel_values(u, math.sqrt(x), np.array([s, s]))[1])
    want = reference.kernel_offset(u, math.sqrt(x), s)
    assert abs(array - want) <= 1e-13 * want


@given(log_uniform(0.01, 1e6), points, deviations, deviations)
def test_kernel_cdf_is_monotone(u, x, z1, z2):
    lo, hi = sorted((near(u, x, z1), near(u, x, z2)))
    assert kernel_cdf(u, x, lo) <= kernel_cdf(u, x, hi)


@given(log_uniform(0.01, 400.0), points, deviations)
def test_kernel_cdf_matches_the_incomplete_gamma_series(u, x, z):
    y = near(u, x, z)
    want = reference.cdf_series(u, x, y)
    assume(want >= 1e-30)
    assert abs(kernel_cdf(u, x, y) - want) <= 1e-12 * want


@pytest.mark.parametrize("u, x, y", [
    (1e3, 1.0, 1.05), (10.0, 1.0, 1.3), (1e6, 1.0, 1.001), (100.0, 0.1, 0.05),
    (1e4, 2.5, 2.49), (1.0, 0.0, 2.0),
])
def test_kernel_cdf_matches_the_kernel_integrated_in_the_offset(u, x, y):
    # a reference without chndtr: mpmath quadrature of the kernel in
    # s = sqrt t - sqrt x; the largest gap is 3.7e-14, at u = 1e6
    want = reference.kernel_quad(u, x, y=y)
    assert abs(kernel_cdf(u, x, y) - want) <= 1e-13


# (sign, coeff, power, rate) of a literal's terms; coefficients print by repr,
# which reads back to the same float
literal_terms = st.lists(st.tuples(
    st.sampled_from((-1.0, 1.0)),
    st.floats(0.0, 1e300).map(abs),
    st.integers(0, 200),
    st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
), min_size=1, max_size=4)


@st.composite
def rendered_literals(draw):
    """A term list and a literal that spells it, with random spacing, an
    optional '*' before t, exp and the t inside it, and t or t^1 for power 1."""
    terms = draw(literal_terms)

    def sp():
        return draw(st.sampled_from(("", " ", "  ", "\t")))

    def star():
        return sp() + draw(st.sampled_from(("*", ""))) + sp()

    text = ""
    for k, (sign, coeff, power, rate) in enumerate(terms):
        text += "-" if sign < 0 else "+" if k or draw(st.booleans()) else ""
        text += sp() + repr(coeff)
        if power:
            text += star() + ("t" if power == 1 and draw(st.booleans()) else f"t^{power}")
        if rate:
            text += star() + "exp(" + sp() + repr(rate) + star() + "t" + sp() + ")"
        text += sp()
    return terms, text


@settings(max_examples=300)
@given(rendered_literals())
def test_parse_target_returns_the_rendered_terms(case):
    terms, text = case
    want = tuple((sign * coeff, power, rate or 0.0) for sign, coeff, power, rate in terms)
    assert repr(parse_target(text).terms) == repr(want)


# ---------------------------------------------------------------------------
# the moment maps


@pytest.mark.parametrize("moment, exact, refusal", [
    (central_moment, reference.exact_central_moment,
     "central moment of order {m} overflows the double range"),
    (raw_moment, reference.exact_raw_moment, "B(t^{m}; x) overflows"),
], ids=["central_moment", "raw_moment"])
@settings(max_examples=200)
@given(log_uniform(1e-320, 1e308), st.one_of(st.just(0.0), log_uniform(1e-320, 1e308)),
       st.integers(0, 40))
def test_moment_is_the_exact_value_correctly_rounded(moment, exact, refusal, u, x, m):
    # bit for bit the float of the exact rational, and refused exactly where
    # that float overflows; the float sum of the central terms refused finite
    # values (a power of u or x overflowing alone), and the raw log-sum-exp
    # was off in its last bits
    want = exact(u, x, m)
    try:
        want = float(want)
    except OverflowError:
        with pytest.raises(OverflowError, match=re.escape(refusal.format(m=m) + f" at u={u}")):
            moment(u, x, m)
    else:
        assert moment(u, x, m) == want


@pytest.mark.parametrize("u, x", [(2.3, 1.4), (9.9, 0.1), (8.3, 2.4), (230.2, 0.6)])
def test_zeta_sq_and_delta_n_are_the_exact_values_correctly_rounded(u, x):
    # x + 1/u = u mu_2/2 and delta_n = mu_2 + 1/u^2, each one rounding of the
    # exact rational; as sums of rounded floats, the first two points' zeta_sq
    # and the last two points' delta_n were an ulp off
    mu_2, inv_u = reference.exact_central_moment(u, x, 2), 1 / Fraction(u)
    assert zeta_sq(u, x) == float(mu_2 / (2 * inv_u))
    res = kfunctional_bound(BUILTIN_TARGETS["expneg"], u, x, domain=(0.0, 5.0),
                            step=1.0 / (16.0 * u))
    assert res.delta_n == float(mu_2 + inv_u**2)

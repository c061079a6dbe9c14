"""Workload definitions: operations, their oracle values and warm-up calls.

Each workload is a list of operations made from the seed. An operation is
one call into szmd's public API; its result is checked against values from
``oracle.py`` that were computed before any timing starts.

Operation kinds marked ``known_defect`` fail at the seed commit for reasons
the ROADMAP records (item 1). Their failures are counted like any other, but
they do not make the run incorrect, and they stay out of the latency
quantiles, so that the fix shows as more ok operations per second instead of
as slower operations. The split is by an input property, never by a point:

* tables ``near_edge``: u within 1.5x of the target's growth rate;
* blackbox ``smooth_large_ux``: smooth black box with u*x >= 250.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Relative error budget of every checked value, against the oracle scale.
RTOL = 1e-8

#: Percentile ladder for the tail latency.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


@dataclass
class Op:
    """One timed call; ``check`` maps its result to ok/wrong/nonfinite."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str]
    known_defect: bool = False


@dataclass
class Workload:
    ops: list
    min_passes: int
    # verify: one call yields several checks, timed by CheckResult stamps
    suite: bool = False
    extra: dict | None = None


def classify(got, want, scale) -> str:
    """ok / nonfinite / wrong for scalars or arrays against the budget."""
    got = np.asarray(got, dtype=np.float64)
    if not np.all(np.isfinite(got)):
        return "nonfinite"
    err = np.abs(got - np.asarray(want, dtype=np.float64))
    return "ok" if np.all(err <= RTOL * np.asarray(scale, dtype=np.float64)) else "wrong"


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled.

    Stratifying keeps the spread of per-operation cost nearly the same for
    every seed, so the timing quantiles do not wander with the seed.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def _value_op(kind, call, want_scale, known_defect=False) -> Op:
    want, scale = want_scale
    return Op(kind, call, lambda v: classify(v, want, scale), known_defect)


# ---------------------------------------------------------------------------
# tables

X2E2X = ((1.0, 2, 2.0),)
RULES = (("n", 1.0), ("n^1.5", 1.5), ("n^2", 2.0))
OPERATING_POINTS = [(u, x) for u in (1e2, 1e4, 1e6) for x in (0.1, 1.0, 2.5)]


def _random_exppoly(rng) -> tuple:
    terms = []
    for _ in range(2):
        c = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        terms.append((c, int(rng.integers(0, 4)), float(rng.uniform(-4.0, 1.5))))
    return tuple(terms)


def build_tables(szmd, seed: int, small: bool = False) -> Workload:
    import oracle

    rng = np.random.default_rng(seed)
    g = szmd.ExpPolySum(X2E2X)
    ref = szmd.report.REFERENCE_ABS_ERRORS
    ops, published = [], []
    for label, power in RULES[:1] if small else RULES:
        rule = szmd.SequenceRule.from_power(power)
        for x in szmd.report.REFERENCE_XS:
            for i, n in enumerate(szmd.report.REFERENCE_NS):
                want, scale = oracle.exppoly(X2E2X, rule.u_value(n), x)

                def call(rule=rule, x=x, n=n):
                    return szmd.make_error_table(g, rule, xs=(x,), ns=(n,)).cells[0]

                def check(cell, want=want, scale=scale):
                    return classify(cell.operator_value, want, scale)

                ops.append(Op("cell", call, check))
                published.append((len(ops) - 1, ref[label][x][i]))
    for u, x in OPERATING_POINTS[:6] if small else OPERATING_POINTS:
        terms = _random_exppoly(rng)
        h = szmd.ExpPolySum(terms)
        ops.append(_value_op("exppoly", lambda h=h, u=u, x=x: szmd.apply(h, u, x).value,
                             oracle.exppoly(terms, u, x)))
    # u a little above the growth rate 2, where the true value is still finite
    for u in 2.0 * (1.0 + _stratified(rng, 5, 0.005, 0.5)):
        while True:
            x = float(rng.uniform(0.5, 2.5))
            want_scale = oracle.exppoly(X2E2X, float(u), x)
            if math.isfinite(want_scale[0]):
                break
        ops.append(_value_op("near_edge", lambda u=float(u), x=x: szmd.apply(g, u, x).value,
                             want_scale, known_defect=True))
    order = rng.permutation(len(ops))
    position = {int(old): new for new, old in enumerate(order)}
    return Workload(
        [ops[i] for i in order],
        min_passes=1 if small else 10,
        extra={"published": [(position[i], p) for i, p in published]},
    )


def warm_tables(szmd) -> None:
    g = szmd.ExpPolySum(X2E2X)
    szmd.make_error_table(g, szmd.SequenceRule.identity(), xs=(1.0,), ns=(10,))
    szmd.apply(szmd.ExpPolySum(((1.0, 1, -1.0), (2.0, 0, 0.5))), 100.0, 1.0)


# ---------------------------------------------------------------------------
# blackbox

def _x2e2x(t: float) -> float:
    return t * t * math.exp(2.0 * t)


def _expneg(t: float) -> float:
    return math.exp(-t)


def _sin_t2(t: float) -> float:
    return math.sin(t) + t * t


def _abs_shift(t: float) -> float:
    return abs(t - 1.0)


def blackbox_targets(szmd) -> dict:
    """name -> (BlackBox, oracle function of (u, x))."""
    import oracle

    return {
        "x2e2x": (szmd.BlackBox(_x2e2x, growth_rate=2.0, label="x2e2x"),
                  lambda u, x: oracle.exppoly(X2E2X, u, x)),
        "expneg": (szmd.BlackBox(_expneg, growth_rate=0.0, label="expneg"),
                   lambda u, x: oracle.exppoly(((1.0, 0, -1.0),), u, x)),
        "sin_t2": (szmd.BlackBox(_sin_t2, growth_rate=0.0, label="sin+t2"),
                   oracle.sin_plus_t2),
        "abs_shift": (szmd.BlackBox(_abs_shift, growth_rate=0.0, kinks=(1.0,), label="|t-1|"),
                      oracle.abs_shift),
    }


def build_blackbox(szmd, seed: int, small: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    us = (1e2,) if small else (1e2, 1e3, 1e4)
    for name, (g, ref) in blackbox_targets(szmd).items():
        for u in us:
            for x in (0.1, 1.0, 2.5):
                if g.kinks:
                    kind, defect = "kinked", False
                elif u * x >= 250.0:
                    kind, defect = "smooth_large_ux", True
                else:
                    kind, defect = "smooth", False
                ops.append(_value_op(kind, lambda g=g, u=u, x=x: szmd.apply(g, u, x).value,
                                     ref(u, x), defect))
    return Workload([ops[i] for i in rng.permutation(len(ops))],
                    min_passes=1 if small else 3)


def warm_blackbox(szmd) -> None:
    g = szmd.BlackBox(_expneg, growth_rate=0.0)
    szmd.apply(g, 100.0, 0.1)
    szmd.apply(szmd.BlackBox(_abs_shift, growth_rate=0.0, kinks=(1.0,)), 100.0, 0.1)


# ---------------------------------------------------------------------------
# curves

NEGX3E5X = ((-1.0, 3, -5.0),)
CURVE_US = (15.0, 35.0, 50.0)
CURVE_JS = (15, 35, 50)


def _curve_check(series, expect) -> str:
    """expect: label -> (want array, scale array) for every series."""
    worst = "ok"
    seen = set()
    for s in series:
        if s.label not in expect:
            return "wrong"
        seen.add(s.label)
        want, scale = expect[s.label]
        got = [v for _, v in s.points]
        if len(got) != len(want):
            return "wrong"
        verdict = classify(got, want, scale)
        if verdict == "nonfinite":
            return verdict
        if verdict == "wrong":
            worst = "wrong"
    return worst if seen == set(expect) else "wrong"


def build_curves(szmd, seed: int, small: bool = False) -> Workload:
    import oracle

    rng = np.random.default_rng(seed)
    g = szmd.ExpPolySum(NEGX3E5X)
    xs = np.linspace(0.0, 2.5, 126)
    target = [oracle.target(NEGX3E5X, x) for x in xs]
    expect = {"target": (target, np.abs(target))}
    for u in CURVE_US:
        vals = [oracle.exppoly(NEGX3E5X, u, x) for x in xs]
        expect[f"u={u:g}"] = ([v for v, _ in vals], [s for _, s in vals])
    expect_j = dict(expect)
    for u, j in zip(CURVE_US, CURVE_JS):
        vals = [oracle.exppoly_truncated(NEGX3E5X, u, x, j) for x in xs]
        expect_j[f"u={u:g},J={j}"] = ([v for v, _ in vals], [s for _, s in vals])
    ops = [
        Op("curve", lambda: szmd.make_curves(g, CURVE_US, xs),
           lambda s: _curve_check(s, expect)),
        Op("curve_fixed_j", lambda: szmd.make_curves(g, CURVE_US, xs, CURVE_JS),
           lambda s: _curve_check(s, expect_j)),
    ]
    # seeded points at u = 1e2 and 1e4; at u = 1e6 the three kernel values
    # are the costliest operations, so x stays fixed there and the tail
    # latency comes from the same inputs for every seed
    points = []
    for u, n in [(1e2, 4), (1e4, 2)] if small else [(1e2, 96), (1e4, 96)]:
        points += [(u, float(x), float(z)) for x, z in
                   zip(_stratified(rng, n, 0.25, 2.5), _stratified(rng, n, -2.5, 2.5))]
    if not small:
        points += [(1e6, 1.0, float(z)) for z in _stratified(rng, 3, -2.5, 2.5)]
    for u, x, z in points:
        t = x + z * math.sqrt(2.0 * x / u)
        ops.append(_value_op("kernel_value", lambda u=u, x=x, t=t: szmd.kernel_value(u, x, t),
                             oracle.kernel(u, x, t)))
        ops.append(_value_op("kernel_cdf", lambda u=u, x=x, t=t: szmd.kernel_cdf(u, x, t),
                             oracle.kernel_cdf(u, x, t)))
    return Workload([ops[i] for i in rng.permutation(len(ops))],
                    min_passes=1 if small else 10)


def warm_curves(szmd) -> None:
    g = szmd.ExpPolySum(NEGX3E5X)
    szmd.make_curves(g, (15.0,), (0.0, 2.5), (15,))
    szmd.kernel_value(100.0, 1.0, 1.0)
    szmd.kernel_cdf(100.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# verify

def build_verify(szmd, seed: int, small: bool = False) -> Workload:
    """The shipped suite; its RNG is internal, so the seed is unused.

    Each check carries its own verdict. The benchmark also recomputes the
    ``reference-tables-full`` figure from the oracle and requires the suite
    to report the same deviation from the published cells.
    """
    import oracle

    dev = 0.0
    for label, power in RULES:
        rule = szmd.SequenceRule.from_power(power)
        for x in szmd.report.REFERENCE_XS:
            gx = oracle.target(X2E2X, x)
            for i, n in enumerate(szmd.report.REFERENCE_NS):
                want = szmd.report.REFERENCE_ABS_ERRORS[label][x][i]
                got = abs(oracle.exppoly(X2E2X, rule.u_value(n), x)[0] - gx)
                dev = max(dev, abs(got - want) / want)

    def check(result) -> str:
        if not math.isfinite(result.measured):
            return "nonfinite"
        if not result.passed:
            return "wrong"
        if result.name == "reference-tables-full" and abs(result.measured - dev) > 1e-3 * dev:
            return "wrong"
        return "ok"

    tables = "spot" if small else "full"
    op = Op("check", lambda: szmd.run_verification_suite(tables), check)
    return Workload([op], min_passes=1 if small else 5, suite=True,
                    extra={"oracle_ref_dev": dev})


def warm_verify(szmd) -> None:
    szmd.central_moment(10.0, 1.0, 6)
    szmd.central_moments_by_recurrence(2)
    szmd.central_moment_bruteforce(5.0, 1.0, 1)
    szmd.raw_moment(10.0, 1.0, 3)
    spec = szmd.DbvSpec(szmd.BlackBox(_abs_shift, growth_rate=0.0, kinks=(1.0,)),
                        gprime_left=lambda t: -1.0 if t <= 1.0 else 1.0,
                        gprime_right=lambda t: -1.0 if t < 1.0 else 1.0,
                        breakpoints=(1.0,))
    szmd.dbv_bound(spec, 4.0, 1.0, tv_samples=64)
    szmd.lipschitz_bound_check(szmd.ExpPolySum(((1.0, 0, -1.0),)), 1.0, 10.0, 1.0)
    szmd.kernel_cdf(10.0, 1.0, 2.0)
    szmd.make_error_table(szmd.ExpPolySum(X2E2X), szmd.SequenceRule.identity(),
                          xs=(1.0,), ns=(10,))


WORKLOADS = {
    "tables": (build_tables, warm_tables),
    "blackbox": (build_blackbox, warm_blackbox),
    "curves": (build_curves, warm_curves),
    "verify": (build_verify, warm_verify),
}


def tail_percentile(samples_per_pass: int, passes: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = samples_per_pass * passes
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best

import math
import re

import mpmath as mp
import numpy as np
import pytest

from szmd import operator, report
from szmd.bounds import korovkin_sup_error
from szmd.operator import SequenceRule, parse_rule
from szmd.report import (
    REFERENCE_ABS_ERRORS,
    REFERENCE_NS,
    REFERENCE_SPOT_CHECKS,
    REFERENCE_XS,
    compare_with_reference,
    curves_csv,
    format_suite_report,
    format_table_pretty,
    make_curves,
    make_error_table,
    run_verification_suite,
    table_csv,
)
from szmd.targets import BUILTIN_TARGETS, BlackBox
import reference

X2E2X = BUILTIN_TARGETS["x2e2x"]
NEGX3E5X = BUILTIN_TARGETS["negx3e5x"]
ONE = BUILTIN_TARGETS["one"]


class TestErrorTable:
    def test_spot_cells_match_published_values(self):
        for (label, x, n), want in REFERENCE_SPOT_CHECKS.items():
            power = {"n": 1.0, "n^1.5": 1.5, "n^2": 2.0}[label]
            t = make_error_table(X2E2X, SequenceRule.from_power(power), xs=(x,), ns=(n,))
            np.testing.assert_allclose(t.cell(x, n).abs_error, want, rtol=1e-4)

    def test_cells_depend_only_on_u(self):
        # n=100 under u_n = n and n=10 under u_n = n^2 share u = 100
        t1 = make_error_table(X2E2X, SequenceRule.identity(), xs=(1.0, 2.5), ns=(100,))
        t2 = make_error_table(X2E2X, SequenceRule.from_power(2.0), xs=(1.0, 2.5), ns=(10,))
        for x in (1.0, 2.5):
            a, b = t1.cell(x, 100), t2.cell(x, 10)
            assert a.u == b.u
            np.testing.assert_allclose(a.abs_error, b.abs_error, rtol=1e-10)

    def test_cross_rule_cell_at_u1000(self):
        # u = 1000 via n=1000 (identity) and n=100 (power 1.5)
        t1 = make_error_table(X2E2X, SequenceRule.identity(), xs=(0.5,), ns=(1000,))
        t2 = make_error_table(X2E2X, SequenceRule.from_power(1.5), xs=(0.5,), ns=(100,))
        np.testing.assert_allclose(
            t1.cell(0.5, 1000).abs_error, t2.cell(0.5, 100).abs_error, rtol=1e-10
        )

    @pytest.mark.parametrize("bad", [-1.0, -1e308, math.nan, math.inf])
    def test_every_x_is_checked_before_the_target_runs(self, bad):
        # the table called g(0.5), then g(bad): math.sqrt said "math domain
        # error", and x2e2x at -1e308 raised an overflow RuntimeWarning
        seen = []
        g = BlackBox(lambda t: seen.append(t) or math.sqrt(t), growth_rate=0.0)
        refusal = re.escape(f"x must be >= 0 and finite, got {bad}")
        for target in (g, X2E2X):
            with pytest.raises(ValueError, match=refusal):
                make_error_table(target, SequenceRule.identity(), xs=(0.5, bad), ns=(10,))
        assert seen == []

    def test_rule_without_u_n_is_refused_before_the_target_runs(self):
        # the table called g(1.0) before the rule refused n = 3
        seen = []
        g = BlackBox(lambda t: seen.append(t) or t, growth_rate=0.0)
        with pytest.raises(ValueError, match="explicit rule has 2 values, got n=3"):
            make_error_table(g, SequenceRule.from_explicit([1, 2]), xs=(1.0,), ns=(3,))
        assert seen == []

    def test_errors_nonnegative_finite(self):
        t = make_error_table(X2E2X, SequenceRule.identity(), xs=(0.1, 1.0), ns=(10, 50))
        for c in t.cells:
            assert c.error is None
            assert math.isfinite(c.abs_error) and c.abs_error >= 0.0

    def test_divergent_cells_are_flagged_not_fatal(self):
        t = make_error_table(
            X2E2X, SequenceRule.from_explicit([1.5, 3.0]), xs=(0.5,), ns=(1, 2)
        )
        bad = t.cell(0.5, 1)
        good = t.cell(0.5, 2)
        assert bad.error is not None and math.isnan(bad.abs_error)
        assert good.error is None and math.isfinite(good.abs_error)

    def test_overflowing_cells_are_flagged_not_fatal(self):
        t = make_error_table(
            X2E2X, SequenceRule.from_explicit([3.0]), xs=(1.0, 300.0), ns=(1,)
        )
        bad = t.cell(300.0, 1)
        good = t.cell(1.0, 1)
        assert bad.error.startswith("overflow") and math.isnan(bad.abs_error)
        assert good.error is None and math.isfinite(good.abs_error)
        assert "overflow" in format_table_pretty(t)

    def test_blackbox_overflowing_at_the_tilted_mode_is_flagged(self):
        # u = 2.1, x = 1: the mass lies near t = 441, where e^{2t} overflows
        g = BlackBox(lambda t: t * t * math.exp(2.0 * t), growth_rate=2.0)
        t = make_error_table(g, SequenceRule.from_explicit([2.1, 3.0]), xs=(1.0,), ns=(1, 2))
        bad, good = t.cell(1.0, 1), t.cell(1.0, 2)
        assert bad.error.startswith("overflow") and math.isnan(bad.abs_error)
        assert good.error is None and math.isfinite(good.abs_error)

    def test_empty_x_grid_rejected(self):
        with pytest.raises(ValueError, match="x grid is empty"):
            make_error_table(X2E2X, SequenceRule.identity(), xs=[], ns=(10,))

    def test_empty_n_list_rejected_before_any_cell(self):
        seen = []
        g = BlackBox(lambda t: seen.append(t) or t, growth_rate=0.0)
        with pytest.raises(ValueError, match="n list is empty"):
            make_error_table(g, SequenceRule.identity(), xs=(1.0,), ns=[])
        assert seen == []

    def test_u_column_strictly_increasing(self):
        t = make_error_table(X2E2X, SequenceRule.from_power(1.5), xs=(1.0,), ns=(10, 50, 100))
        us = [c.u for c in t.cells]
        assert all(b > a for a, b in zip(us, us[1:]))


class TestReferenceComparison:
    def test_full_row_within_tolerance(self):
        t = make_error_table(X2E2X, SequenceRule.identity(), xs=(1.0,), ns=REFERENCE_NS)
        assert compare_with_reference(t, rtol=1e-3) == []

    def test_detects_discrepancy_under_tight_tolerance(self):
        t = make_error_table(X2E2X, SequenceRule.identity(), xs=(1.0,), ns=(10,))
        assert compare_with_reference(t, rtol=1e-12) != []

    def test_unknown_rule_rejected(self):
        t = make_error_table(X2E2X, SequenceRule.from_power(3.0), xs=(1.0,), ns=(10,))
        with pytest.raises(ValueError):
            compare_with_reference(t)

    def test_verify_reads_the_deviations_the_records_carry(self):
        t = make_error_table(X2E2X, parse_rule("n^2"))
        devs = report._reference_deviations("n^2")
        assert len(devs) == len(t.cells) == 49
        # rtol=-1 keeps every cell, exact matches too
        assert devs == [m.rel_deviation for m in compare_with_reference(t, rtol=-1.0)]

    def test_one_cell_misses_its_printed_digits(self):
        # each cell rounded to as many significant digits as the paper prints,
        # for the library and for |B(g;x) - g(x)| at 50 digits
        def exact(u, x):
            with mp.workdps(50):
                b, x = reference.oracle(X2E2X.terms, u, x, dps=50)[0], mp.mpf(x)
                return abs(b - x * x * mp.exp(2 * x))

        def rounded(v, printed):
            digits = len(np.format_float_scientific(printed, unique=True).split("e")[0]) - 1
            return f"{float(v):.{digits - 1}e}"

        cells, misprints = 0, []
        for label, rows in REFERENCE_ABS_ERRORS.items():
            table = make_error_table(X2E2X, parse_rule(label))
            for x, printed_row in rows.items():
                for n, printed in zip(REFERENCE_NS, printed_row):
                    cell = table.cell(x, n)
                    ok = rounded(cell.abs_error, printed) == rounded(printed, printed)
                    assert ok == (rounded(exact(cell.u, x), printed) == rounded(printed, printed))
                    cells += 1
                    misprints += [] if ok else [(label, x, n)]
        assert (cells - len(misprints), cells) == (146, 147)
        assert misprints == [("n^2", 0.1, 500)]
        cell = make_error_table(X2E2X, parse_rule("n^2"), xs=(0.1,), ns=(500,)).cell(0.1, 500)
        want = exact(cell.u, 0.1)
        assert mp.nstr(want, 12) == "2.46246538971e-6"
        np.testing.assert_allclose(cell.abs_error, float(want), rtol=1e-9)
        assert REFERENCE_ABS_ERRORS["n^2"][0.1][REFERENCE_NS.index(500)] == 2.462477e-6

    def test_reference_data_shape(self):
        for label, rows in REFERENCE_ABS_ERRORS.items():
            assert set(rows) == set(REFERENCE_XS)
            assert all(len(v) == len(REFERENCE_NS) for v in rows.values())


class TestCurves:
    def test_series_layout(self):
        series = make_curves(NEGX3E5X, [15.0, 35.0], np.linspace(0.0, 2.5, 26))
        assert [s.label for s in series] == ["target", "u=15", "u=35"]
        for s in series:
            xs = [p[0] for p in s.points]
            assert all(b > a for a, b in zip(xs, xs[1:]))
            assert all(math.isfinite(p[1]) for p in s.points)

    def test_operator_curves_approach_target(self):
        series = make_curves(NEGX3E5X, [15.0, 35.0, 50.0], np.linspace(0.0, 2.5, 26))
        target = np.array([p[1] for p in series[0].points])
        devs = [
            np.max(np.abs(np.array([p[1] for p in s.points]) - target))
            for s in series[1:]
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_target_series_is_one_call_on_the_grid(self):
        shapes = []

        class Counting(type(NEGX3E5X)):
            def __call__(self, t):
                shapes.append(np.shape(t))
                return super().__call__(t)

        grid = np.linspace(0.0, 2.5, 126)
        series = make_curves(Counting(NEGX3E5X.terms), [15.0], grid)
        assert shapes == [(126,)]
        assert series[0].points == tuple((float(x), float(NEGX3E5X(x))) for x in grid)

    def test_all_operator_series_are_one_closed_form_call(self, monkeypatch):
        shapes, points = [], []

        def counting_grid(u, xs, terms):
            shapes.append(np.broadcast(u, xs).shape)
            return closed_form_grid(u, xs, terms)

        def counting_point(u, x, terms):
            points.append(x)
            return closed_form(u, x, terms)

        closed_form_grid, closed_form = operator._closed_form_grid, operator._closed_form
        monkeypatch.setattr(operator, "_closed_form_grid", counting_grid)
        monkeypatch.setattr(operator, "_closed_form", counting_point)
        make_curves(NEGX3E5X, [15.0, 35.0, 50.0], np.linspace(0.0, 2.5, 126))
        assert shapes == [(3, 126)]  # one call over all 378 (u, x) points
        assert points == []

    def test_all_blackbox_series_are_one_kernel_integral(self, monkeypatch):
        sizes = []
        real = operator.kernel_integral

        def counting(kernel, g, u, x, windows):
            sizes.append(len(u))
            return real(kernel, g, u, x, windows)

        monkeypatch.setattr(operator, "kernel_integral", counting)
        g = BlackBox(lambda t: np.abs(t - 1.0), growth_rate=0.0, kinks=(1.0,))
        series = make_curves(g, [15.0, 35.0], np.linspace(0.0, 2.5, 11))
        assert sizes == [22]
        monkeypatch.setattr(operator, "kernel_integral", real)
        for s in series[1:]:
            assert s.points == tuple((x, operator.apply(g, s.u, x).value)
                                     for x, _ in s.points)

    def test_no_u_gives_only_the_target(self):
        grid = np.linspace(0.0, 2.5, 6)
        for g in (NEGX3E5X, BlackBox(lambda t: np.abs(t - 1.0), growth_rate=0.0)):
            series = make_curves(g, [], grid)
            assert [s.label for s in series] == ["target"]
            assert series[0].points == tuple(zip(grid.tolist(), g(grid).tolist()))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid, bad", [
        ([-1.0, 1.0], "-1.0"),
        ([0.5, 1.0, math.inf], "inf"),
        ([-math.inf, 1.0], "-inf"),
        ([0.5, math.nan, 1.0], "nan"),
    ])
    def test_no_u_refuses_a_bad_x_before_the_target_runs(self, grid, bad):
        # without u no operator call checks x: g(-1) would be 148.4, g(inf) warn
        calls = []
        g = BlackBox(lambda t: calls.append(t) or NEGX3E5X(t), growth_rate=0.0)
        with pytest.raises(ValueError, match=f"x must be >= 0 and finite, got {bad}$"):
            make_curves(g, [], grid)
        with pytest.raises(ValueError, match=f"x must be >= 0 and finite, got {bad}$"):
            make_curves(NEGX3E5X, [], grid)
        assert calls == []

    def test_duplicate_u_gives_identical_series(self):
        grid = np.linspace(0.0, 2.5, 26)
        series = make_curves(X2E2X, [15.0, 35.0, 15.0], grid)
        alone = make_curves(X2E2X, [15.0], grid)[1]
        assert series[1] == series[3] == alone
        assert series[2] == make_curves(X2E2X, [35.0], grid)[1]

    @pytest.mark.parametrize("us, refusal", [
        ([2.0, 10.0, 30.0], "u=2.0 <= growth rate 2.0"),
        ([10.0, 30.0, 1.5], "u=1.5 <= growth rate 2.0"),
        ([10.0, math.nan, 30.0], "u must be positive and finite, got nan"),
    ])
    def test_divergent_u_is_refused_before_anything_runs(self, monkeypatch, us, refusal):
        # x2e2x grows at rate 2: u <= 2 (or NaN) anywhere refuses the whole call
        calls = []

        class Counting(type(X2E2X)):
            def __call__(self, t):
                calls.append("target")
                return super().__call__(t)

        def counting_grid(u, xs, terms):
            calls.append("closed form")
            return closed_form_grid(u, xs, terms)

        closed_form_grid = operator._closed_form_grid
        monkeypatch.setattr(operator, "_closed_form_grid", counting_grid)
        with pytest.raises(ValueError, match=refusal):
            make_curves(Counting(X2E2X.terms), us, np.linspace(0.0, 2.5, 26))
        assert calls == []

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("entry", [
        lambda g, xs: make_curves(g, [15.0], xs),
        lambda g, xs: korovkin_sup_error(g, 15.0, xs),
    ], ids=["make_curves", "korovkin_sup_error"])
    def test_bad_x_is_refused_before_the_target_runs(self, entry, bad):
        # g(inf) for -t^3 e^{-5t} is inf * 0: a RuntimeWarning, then NaN
        calls = []

        class Counting(type(NEGX3E5X)):
            def __call__(self, t):
                calls.append(np.shape(t))
                return super().__call__(t)

        with pytest.raises(ValueError, match="x must be >= 0 and finite"):
            entry(Counting(NEGX3E5X.terms), [0.5, 1.0, bad])
        assert calls == []

    def test_constant_target_curve_is_flat(self):
        series = make_curves(ONE, [20.0], np.linspace(0.0, 2.0, 11))
        vals = np.array([p[1] for p in series[1].points])
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_truncated_curves_deviate_far_out(self):
        grid = np.linspace(0.0, 2.5, 26)
        series = make_curves(NEGX3E5X, [50.0], grid, truncation_js=[50])
        full = dict(series[1].points)
        cut = dict(series[2].points)
        assert series[2].truncation_j == 50
        assert abs(cut[2.5] - full[2.5]) > 1e3 * abs(cut[0.1] - full[0.1])

    @pytest.mark.parametrize("j", [2.7, math.nan, math.inf, -1])
    def test_j_that_is_not_a_whole_number_is_refused_first(self, monkeypatch, j):
        # int(2.7) would build the series u=15,J=2 without a word
        calls = []

        class Counting(type(NEGX3E5X)):
            def __call__(self, t):
                calls.append("target")
                return super().__call__(t)

        def counting_grid(u, xs, terms):
            calls.append("closed form")
            return closed_form_grid(u, xs, terms)

        closed_form_grid = operator._closed_form_grid
        monkeypatch.setattr(operator, "_closed_form_grid", counting_grid)
        with pytest.raises(ValueError, match="J must be >= 0 and a whole number"):
            make_curves(Counting(NEGX3E5X.terms), [15.0], [0.0, 1.0], truncation_js=[j])
        assert calls == []

    def test_whole_number_j_is_taken_as_an_int(self):
        series = make_curves(NEGX3E5X, [15.0, 35.0], [0.0, 1.0], truncation_js=[np.int64(15), 35.0])
        assert [(s.label, s.truncation_j) for s in series[3:]] == [("u=15,J=15", 15),
                                                                   ("u=35,J=35", 35)]
        assert all(type(s.truncation_j) is int for s in series[3:])

    def test_truncated_blackbox_is_refused_before_the_target_runs(self):
        def g(t):
            raise AssertionError("the black box ran")

        with pytest.raises(ValueError, match=r"only for structured targets \(ExpPolySum\)"):
            make_curves(BlackBox(g, growth_rate=0.0), [15.0], [0.0, 1.0], truncation_js=[15])

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            make_curves(ONE, [10.0], [1.0, 1.0, 2.0])
        # a repeated infinity is refused without taking inf - inf
        with pytest.raises(ValueError, match="strictly increasing"):
            make_curves(ONE, [10.0], [math.inf, math.inf])

    @pytest.mark.parametrize("js", [[5], [5, 10, 15]])
    def test_one_truncation_index_per_u(self, js):
        # zip would drop the unmatched u values or indices without a word
        with pytest.raises(ValueError, match="one truncation index per u"):
            make_curves(ONE, [10.0, 20.0], [0.0, 1.0], truncation_js=js)


class TestCsvOutput:
    def test_header_and_determinism(self, tmp_path):
        t = make_error_table(X2E2X, SequenceRule.identity(), xs=(0.1, 0.5), ns=(10, 50))
        text = table_csv(t)
        assert text.splitlines()[0] == "x,n,u_n,operator_value,g_value,abs_error"
        t2 = make_error_table(X2E2X, SequenceRule.identity(), xs=(0.1, 0.5), ns=(10, 50))
        assert table_csv(t2) == text
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text(text)
        p2.write_text(table_csv(t2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_precision(self):
        t = make_error_table(X2E2X, SequenceRule.identity(), xs=(1.0,), ns=(100,))
        line = table_csv(t).splitlines()[1].split(",")
        assert float(line[3]) == t.cell(1.0, 100).operator_value

    def test_curves_csv_layout(self):
        series = make_curves(ONE, [10.0], np.linspace(0.0, 1.0, 3))
        lines = curves_csv(series).splitlines()
        assert lines[0] == "series,u,truncation_J,x,value"
        assert lines[1].startswith("target,,,")

    def test_pretty_format_mentions_rule_and_cells(self):
        t = make_error_table(X2E2X, SequenceRule.from_power(2.0), xs=(1.0,), ns=(10,))
        text = format_table_pretty(t)
        assert "n^2" in text
        assert "1.46137" in text

    def test_pretty_format_takes_the_cells_in_order_without_lookup(self, monkeypatch):
        # divergent (u = 1.5), overflowing (x = 300) and finite cells
        t = make_error_table(X2E2X, SequenceRule.from_explicit([1.5, 3.0, 10.0]),
                             xs=(0.5, 1.0, 300.0), ns=(1, 2, 3))
        want = [[f"{x:g}", *(c.error.split(":")[0] if c.error else f"{c.abs_error:.6g}"
                             for c in (t.cell(x, n) for n in t.ns))] for x in t.xs]
        assert {"divergent", "overflow"} <= {v for row in want for v in row}

        def refuse(self, x, n):
            raise AssertionError("format_table_pretty looked a cell up")

        monkeypatch.setattr(report.ErrorTable, "cell", refuse)
        lines = format_table_pretty(t).splitlines()
        assert lines[1].split() == ["x\\n", "1", "2", "3"]
        assert [line.split() for line in lines[2:]] == want


class TestVerificationSuite:
    def test_all_checks_pass(self):
        checks = run_verification_suite(tables="spot")
        report = format_suite_report(checks)
        failed = [c for c in checks if not c.passed]
        assert not failed, f"failing checks:\n{report}"

    def test_report_format(self):
        checks = run_verification_suite(tables="none")
        text = format_suite_report(checks)
        assert "[PASS]" in text
        assert "checks passed" in text
        names = [c.name for c in checks]
        assert "central-moment-recurrence" in names
        assert "kernel-normalization" in names
        assert "truncation-study" in names

    def test_nan_sample_fails_its_check(self, monkeypatch):
        # a running max() keeps its old value when the new one is NaN
        calls, exact = [], report.raw_moment

        def raw_moment(u, x, m):
            calls.append(m)
            return math.nan if len(calls) == 7 else exact(u, x, m)

        monkeypatch.setattr(report, "raw_moment", raw_moment)
        check = {c.name: c for c in run_verification_suite("none")}["raw-moments-closed-form"]
        assert len(calls) == 200
        assert math.isnan(check.measured) and not check.passed

    def test_nan_reference_cell_fails_the_spot_check(self, monkeypatch):
        row = list(REFERENCE_ABS_ERRORS["n"][1.0])
        row[REFERENCE_NS.index(100)] = math.nan
        monkeypatch.setitem(REFERENCE_ABS_ERRORS["n"], 1.0, tuple(row))
        monkeypatch.setitem(REFERENCE_SPOT_CHECKS, ("n", 1.0, 100), math.nan)
        check = {c.name: c for c in run_verification_suite("spot")}["reference-spot-checks"]
        assert math.isnan(check.measured) and not check.passed

    def test_full_table_figures_match_a_recomputation(self):
        devs = {}
        for label, rows in REFERENCE_ABS_ERRORS.items():
            rule = operator.parse_rule(label)
            for x, row in rows.items():
                gx = float(X2E2X(x))
                for n, want in zip(REFERENCE_NS, row):
                    got = abs(operator.apply(X2E2X, rule.u_value(n), x).value - gx)
                    devs[label, x, n] = abs(got - want) / want
        checks = run_verification_suite("full")
        assert [c.name for c in checks[-2:]] == ["reference-spot-checks", "reference-tables-full"]
        spot, full = checks[-2:]
        assert len(checks) == 17 and all(c.passed for c in checks)
        assert spot.measured == pytest.approx(max(devs[k] for k in REFERENCE_SPOT_CHECKS),
                                              rel=1e-12)
        assert full.measured == pytest.approx(max(devs.values()), rel=1e-12)
        assert len(devs) == 147
        bad = sum(d > 1e-3 for d in devs.values())
        assert full.detail == f"{bad} cell(s) off by more than 0.1%"

import numpy as np
import pytest

from szmd.cli import main
from szmd.operator import apply, apply_truncated
from szmd.targets import parse_target


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_direct_parameter(self, capsys):
        code, out = run_cli(capsys, "eval", "--g", "x2e2x", "--u", "100", "--x", "1.0")
        assert code == 0
        fields = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        np.testing.assert_allclose(float(fields["abs_error"]), 1.46137, rtol=1e-4)

    def test_rule_and_index(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--g", "t", "--rule", "n2", "--n", "10", "--x", "1.0"
        )
        assert code == 0
        assert "u = 100" in out

    def test_whole_number_flags_in_exponent_form(self, capsys):
        # argparse's int() refused 1e3
        assert run_cli(capsys, *"eval --g t --u 10 --x 1 --J 1e3".split()) == run_cli(
            capsys, *"eval --g t --u 10 --x 1 --J 1000".split())

    def test_fixed_truncation(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--g", "one", "--u", "15", "--x", "0", "--J", "0"
        )
        assert code == 0
        assert "series_terms_used = 1" in out

    @pytest.mark.parametrize("argv, j_max", [
        pytest.param("eval --g t^170 --u 10 --x 1", None, id="power-170"),
        pytest.param("eval --g t^167 --u 10 --x 1 --J 5", 5, id="truncated-power-167")])
    def test_power_past_the_double_range_of_its_coefficients(self, capsys, argv, j_max):
        # the largest A_170[l] is ~1e309; the values are 1.92e169 and, cut
        # after J = 5, 8.8e163 (tests/test_moments.py holds t^m to Fraction)
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        g = parse_target(argv.split()[2])
        op = apply(g, 10.0, 1.0) if j_max is None else apply_truncated(g, 10.0, 1.0, j_max)
        assert f"operator_value = {op.value:.17g}" in out.splitlines()

    def test_literal_target(self, capsys):
        # leading '-' needs the --g=value form so argparse keeps it
        code, out = run_cli(
            capsys, "eval", "--g=-1*t^3*exp(-5*t)", "--u", "50", "--x", "1.0"
        )
        assert code == 0


class TestRefusals:
    @pytest.mark.parametrize("argv, kind", [
        pytest.param("eval --g x2e2x --u 3 --x 300", "overflows", id="3-300-overflows"),
        pytest.param("eval --g x2e2x --u 2 --x 1", "undefined", id="2-1-undefined"),
        pytest.param("eval --g x2e2x --u -1 --x 1", "u must be positive",
                     id="negative-u"),
        pytest.param("eval --g x2e2x --u 10 --x 1 --J -1", "J must be >= 0",
                     id="negative-J"),
        pytest.param("moments --u 0", "u must be positive", id="moments-zero-u"),
        pytest.param("moments --u nan --xs 1", "u must be positive", id="moments-nan-u"),
        pytest.param("moments --u 10 --xs nan", "x must be >= 0", id="moments-nan-x"),
        pytest.param("moments --u 10 --max-m -1",
                     "--max-m must be >= 0 and a whole number, got -1.0",
                     id="moments-negative-max-m"),
        pytest.param("moments --u 10 --max-m 2.5",
                     "--max-m must be >= 0 and a whole number, got 2.5",
                     id="moments-fractional-max-m"),
        pytest.param("eval --g t --u 10 --x 1 --J 2.7", "J must be >= 0 and a whole number, got 2.7",
                     id="eval-fractional-J"),
        pytest.param("eval --g t --n 2.5 --x 1",
                     "sequence index n must be >= 1 and a whole number, got 2.5",
                     id="eval-fractional-n"),
        pytest.param("moments --u 10 --xs=", "--xs '' gives no x", id="moments-empty-xs"),
        pytest.param("moments --u 10 --xs 0:1:0", "--xs '0:1:0' gives no x",
                     id="moments-zero-count-xs"),
        pytest.param("moments --u 0 --max-m -1", "u must be positive",
                     id="moments-zero-u-no-rows"),
        pytest.param("table --xs 0:1:0", "--xs '0:1:0' gives no x", id="table-zero-count-xs"),
        pytest.param("table --xs=", "--xs '' gives no x", id="table-empty-xs"),
        pytest.param("table --ns=, --xs 1", "--ns ',' gives no n", id="table-empty-ns"),
        pytest.param("eval --g t --u 10 --x nan", "x must be >= 0", id="eval-nan-x"),
        pytest.param("eval --g t --u inf --x 1", "u must be positive", id="eval-inf-u"),
        pytest.param("eval --g t --rule n^200 --n 100 --x 1", "double range",
                     id="eval-u-overflows"),
        pytest.param("eval --g nosuch### --u 10 --x 1.0", "cannot parse target",
                     id="unknown-target"),
        pytest.param("eval --g t --rule n^ --x 1", "cannot parse sequence rule 'n^'",
                     id="rule-without-exponent"),
        pytest.param("eval --g t --rule nx --x 1", "cannot parse sequence rule 'nx'",
                     id="rule-with-bad-exponent"),
        pytest.param("table --rule explicit:1,x", "cannot parse sequence rule 'explicit:1,x'",
                     id="explicit-rule-with-bad-entry"),
        pytest.param("curve --us 10,20 --J 5", "one truncation index per u",
                     id="curve-unmatched-J"),
        pytest.param("table --rule n --xs 0.3,0.7 --paper-check", "no cell on the reference grid",
                     id="paper-check-off-grid-x"),
        pytest.param("table --rule n --ns 7 --paper-check", "no cell on the reference grid",
                     id="paper-check-off-grid-n"),
        pytest.param("table --g t2 --paper-check", "reference tables are for g",
                     id="paper-check-other-target"),
        pytest.param("curve --xs 1,inf", "x must be >= 0 and finite, got inf",
                     id="curve-infinite-x"),
        pytest.param("curve --us 15 --xs 0,1 --J 2.7",
                     "J must be >= 0 and a whole number, got 2.7",
                     id="curve-fractional-J"),
        pytest.param("table --ns 10.9 --xs 1",
                     "sequence index n must be >= 1 and a whole number, got 10.9",
                     id="table-fractional-n"),
        pytest.param("curve --ns 2.5", "sequence index n must be >= 1 and a whole number, got 2.5",
                     id="curve-fractional-n"),
        pytest.param("curve --xs 0:2.5", "neither a comma list nor start:stop:count",
                     id="malformed-grid"),
        # powers past m = 166, whose A_m leave the double range, are refused
        # only where the value itself overflows (TestEval takes them at u = 10)
        pytest.param("eval --g t^170 --u 0.5 --x 1", "operator value overflows",
                     id="eval-power-170"),
        pytest.param("eval --g t^167 --u 0.5 --x 1 --J 5", "partial sum to J=5 is not finite",
                     id="eval-truncated-power-167"),
        # the raw moment's column comes first and |mu_m| <= 2 B(t^m; x), so the
        # raw value is the one that leaves the double range (TestMoments takes 170)
        pytest.param("moments --u 1e-300 --xs 1 --max-m 2", "B(t^2; x) overflows at u=1e-300",
                     id="moments-value-overflows"),
        pytest.param("moments --u 10 --xs 1 --max-m 300", "B(t^268; x) overflows at u=10.0",
                     id="moments-order-268-overflows"),
        pytest.param("table --xs 0:1:2.5", "grid count must be >= 0 and a whole number, got 2.5",
                     id="grid-fractional-count"),
        pytest.param("table --xs 0:1:nan", "grid count must be >= 0 and a whole number, got nan",
                     id="grid-nan-count"),
        pytest.param("curve --xs 0:1:-3", "grid count must be >= 0 and a whole number, got -3.0",
                     id="grid-negative-count"),
    ])
    def test_refused_value_is_one_line_on_stderr(self, capsys, argv, kind):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("szmd: error: ")
        assert kind in lines[0]


class TestTable:
    def test_paper_check_passes_on_spot_cell(self, capsys):
        code, out = run_cli(
            capsys,
            "table", "--g", "x2e2x", "--rule", "n", "--ns", "100", "--xs", "1.0",
            "--paper-check",
        )
        assert code == 0
        assert "all cells match" in out

    def test_csv_output(self, capsys, tmp_path):
        dest = tmp_path / "t.csv"
        code, out = run_cli(
            capsys,
            "table", "--g", "x2e2x", "--rule", "n", "--ns", "10,50",
            "--xs", "0.1,0.5", "--out", str(dest),
        )
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "x,n,u_n,operator_value,g_value,abs_error"
        assert len(lines) == 5

    def test_power_whose_value_overflows_is_an_overflow_cell(self, capsys):
        # B(t^170; 1) is 1.9e169 at u = 10 and beyond the double range at u = 1
        code, out = run_cli(capsys, "table", "--g", "t^170", "--xs", "1", "--ns", "1,10")
        assert code == 0
        assert out.splitlines()[-1].split() == ["1", "overflow", "1.92221e+169"]

    def test_grid_count_in_exponent_form(self, capsys):
        # 1e3 is a whole number; int('1e3') refused it
        code, out = run_cli(capsys, "table", "--xs", "0:1:1e3", "--ns", "10")
        assert code == 0
        assert len(out.splitlines()) == 2 + 1000

    def test_empty_grid_writes_no_csv(self, capsys, tmp_path):
        dest = tmp_path / "t.csv"
        code, _ = run_cli(capsys, "table", "--xs", "0:1:0", "--out", str(dest))
        assert code == 2
        assert not dest.exists()


class TestCurve:
    def test_writes_all_series(self, capsys, tmp_path):
        dest = tmp_path / "c.csv"
        code, _ = run_cli(
            capsys,
            "curve", "--g", "negx3e5x", "--us", "15,35", "--xs", "0:2.5:11",
            "--J", "15,35", "--out", str(dest),
        )
        assert code == 0
        text = dest.read_text()
        for label in ("target", "u=15", "u=35", "u=15,J=15", "u=35,J=35"):
            assert label in text


class TestMoments:
    def test_dump(self, capsys):
        code, out = run_cli(capsys, "moments", "--u", "10", "--xs", "1.0", "--max-m", "2")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,m,raw_moment,central_moment"
        last = rows[-1].split(",")
        np.testing.assert_allclose(float(last[2]), 1.42, rtol=1e-12)
        np.testing.assert_allclose(float(last[3]), 0.22, rtol=1e-12)

    def test_orders_whose_coefficients_leave_the_double_range(self, capsys):
        # from order 167 the float sum of the coefficients was refused
        code, out = run_cli(capsys, "moments", "--u", "10", "--xs", "1", "--max-m", "170")
        assert code == 0
        _, m, _, central = out.splitlines()[-1].split(",")
        assert (m, float(central)) == ("170", 7.24319170470233e+165)


class TestBounds:
    def test_kfunctional(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--which", "kfunctional", "--g", "expneg",
            "--u", "100", "--x", "1.0",
        )
        assert code == 0
        fields = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        np.testing.assert_allclose(float(fields["delta_n"]), 0.0203, rtol=1e-12)
        np.testing.assert_allclose(float(fields["gamma_n"]), 0.01, rtol=1e-12)

    def test_lipschitz(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--which", "lipschitz", "--g", "expneg",
            "--u", "100", "--x", "1.0",
        )
        assert code == 0
        assert "holds = True" in out

    def test_lipspace(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--which", "lipspace", "--g", "expneg",
            "--u", "10", "--x", "1.0", "--m1", "0", "--m2", "1",
        )
        assert code == 0
        assert "bound = 0.469" in out

    def test_dbv(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--which", "dbv", "--g", "t2", "--u", "100", "--x", "1.0"
        )
        assert code == 0
        assert "holds = True" in out


class TestVerify:
    def test_exit_zero_when_green(self, capsys):
        code, out = run_cli(capsys, "verify", "--tables", "none")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

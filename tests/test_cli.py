import numpy as np
import pytest

from szmd.cli import main


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

    def test_fixed_truncation(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--g", "one", "--u", "15", "--x", "0", "--J", "0"
        )
        assert code == 0
        assert "series_terms_used = 1" in out

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
        pytest.param("moments --u 10 --max-m -1", "--max-m must be >= 0, got -1",
                     id="moments-negative-max-m"),
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
        pytest.param("curve --us 15 --xs 0,1 --J 2.7", "--J takes integers, got 2.7",
                     id="curve-fractional-J"),
        pytest.param("table --ns 10.9 --xs 1", "--ns takes integers, got 10.9",
                     id="table-fractional-n"),
        pytest.param("curve --ns 2.5", "--ns takes integers, got 2.5",
                     id="curve-fractional-n"),
        pytest.param("curve --xs 0:2.5", "neither a comma list nor start:stop:count",
                     id="malformed-grid"),
        # A_m of the moment polynomial leaves the double range from m = 167
        pytest.param("eval --g t^170 --u 10 --x 1", "coefficients of t^170 overflow a "
                     "double (m >= 167)", id="eval-power-170"),
        pytest.param("eval --g t^167 --u 10 --x 1 --J 5", "coefficients of t^167 overflow a "
                     "double (m >= 167)", id="eval-truncated-power-167"),
        pytest.param("moments --u 10 --xs 1 --max-m 170", "coefficients of t^167 overflow a "
                     "double (m >= 167)", id="moments-order-170"),
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

    def test_power_past_the_moment_coefficients_is_an_overflow_cell(self, capsys):
        code, out = run_cli(capsys, "table", "--g", "t^171", "--xs", "1", "--ns", "10")
        assert code == 0
        assert out.splitlines()[-1].split() == ["1", "overflow"]

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

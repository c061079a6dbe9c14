"""Each workload at reduced size, the traced run, and the failure accounting."""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import szmd
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_workloads_match_the_declaration():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    result, report = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--small"))
    _check_metrics(result, SPEC["end_to_end"])
    assert result["correct"]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    assert report["src_lines"] > 0 and report["env"]["nproc"] >= 1
    assert sum(report["classes"].values()) == result["attempted"]
    if workload in ("tables", "blackbox"):
        assert report["failed_frac"] > 0  # the documented seed defects show


def test_traced_counts_repeat_and_quadrature_is_bypassed():
    runs = [_result(_run("--workload", "tables", "--seed", "3", "--seconds", "1", "--small",
                         "--trace", "1")) for _ in range(2)]
    for result, _ in runs:
        _check_metrics(result, SPEC["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith((".calls", ".elems", ".samples", "series_terms", "g_evals"))}
              for r, _ in runs]
    assert counts[0] == counts[1]
    assert counts[0]["operator.apply.calls"] > 0
    assert counts[0]["basis.log_weights.elems"] > 0
    assert counts[0]["quadrature.numeric_basis_integral.calls"] == 0
    assert counts[0]["scipy.quad.calls"] == 0
    assert (ROOT / ".bench_out" / "spans-tables-seed3.jsonl.gz").is_file()


def test_traced_blackbox_counts_numeric_work():
    result, _ = _result(_run("--workload", "blackbox", "--seed", "3", "--seconds", "1",
                             "--small", "--trace", "1"))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["quadrature.numeric_basis_integral.calls"] > 0
    assert values["scipy.quad.calls"] > 0
    assert values["targets.g_evals"] > 0
    assert values["trace.overhead_ratio"] > 0


def test_wrappers_only_when_traced():
    code = (
        "import sys; sys.path[:0] = ['src', 'bench']\n"
        "import szmd, tracer\n"
        "assert tracer.installed_wrappers() == []\n"
        "t = tracer.Tracer(); t.install()\n"
        "names = tracer.installed_wrappers()\n"
        "assert 'szmd.basis.log_weights' in names and 'szmd.operator.log_weights' in names\n"
        "assert 'scipy.integrate.quad' in names\n"
        "assert szmd.operator.log_weights is szmd.basis.log_weights\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_perturbed_results_count_as_failures():
    wl = workloads.build_tables(szmd, 3, small=True)
    op = next(o for o in wl.ops if o.kind == "cell")
    cell = op.call()
    assert op.check(cell) == "ok"
    bumped = cell.operator_value * (1.0 + 1e-6)
    assert op.check(dataclasses.replace(cell, operator_value=bumped)) == "wrong"
    assert op.check(dataclasses.replace(cell, operator_value=math.inf)) == "nonfinite"
    value_op = next(o for o in wl.ops if o.kind == "exppoly")
    got = value_op.call()
    assert value_op.check(got) == "ok"
    assert value_op.check(got + 1e-6 * abs(got) + 1e-12) == "wrong"
    assert value_op.check(math.nan) == "nonfinite"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "tables", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

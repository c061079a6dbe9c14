"""szmd benchmark: closed-loop throughput, checked against an mpmath oracle.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. Each workload runs in a fresh single-threaded
process that imports szmd from ``src/``; a missing ``src/szmd`` is an error.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it give the full
report: failure classes, tail percentile and sample count, environment and
source line count. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "blackbox", "curves", "verify")
#: extra fresh processes that only time set-up; the workload process is one more
SETUP_PROBES = 2
#: every invocation must end within 180 s
BUDGET_S = 170.0
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {
    "ok_ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: reported with the end-to-end metrics but not gated: both can be 0 or
#: undefined on some workloads
REPORTED = {"failed_frac": "ratio", "ref_max_rel_dev": "ratio"}

PER_LAYER = {
    "basis.log_weights.calls": "count",
    "basis.log_weights.self_s": "s",
    "basis.log_weights.elems": "count",
    "basis.tail_mass.calls": "count",
    "basis.tail_mass.self_s": "s",
    "basis.truncation_index.calls": "count",
    "basis.truncation_index.self_s": "s",
    "quadrature.log_exppoly_integrals.calls": "count",
    "quadrature.log_exppoly_integrals.self_s": "s",
    "quadrature.log_exppoly_integrals.elems": "count",
    "quadrature.basis_integral.calls": "count",
    "quadrature.basis_integral.self_s": "s",
    "quadrature.numeric_basis_integral.calls": "count",
    "quadrature.numeric_basis_integral.self_s": "s",
    "scipy.quad.calls": "count",
    "scipy.quad.self_s": "s",
    "targets.g_evals": "count",
    "operator.apply.calls": "count",
    "operator.apply.total_s": "s",
    "operator.apply.self_s": "s",
    "operator.series_terms": "count",
    "operator.apply_truncated.calls": "count",
    "operator.apply_truncated.total_s": "s",
    "operator.kernel_value.calls": "count",
    "operator.kernel_value.total_s": "s",
    "operator.kernel_value.self_s": "s",
    "operator.kernel_cdf.calls": "count",
    "operator.kernel_cdf.total_s": "s",
    "operator.kernel_cdf.self_s": "s",
    "moments.central_moment.calls": "count",
    "moments.central_moment.total_s": "s",
    "moments.central_moment_bruteforce.calls": "count",
    "moments.central_moment_bruteforce.total_s": "s",
    "moments.raw_moment.calls": "count",
    "bounds.total_variation.calls": "count",
    "bounds.total_variation.self_s": "s",
    "bounds.total_variation.samples": "count",
    "bounds.dbv_bound.total_s": "s",
    "bounds.dbv_empirical_check.total_s": "s",
    "bounds.lipschitz_bound_check.total_s": "s",
    "bounds.korovkin_sup_error.total_s": "s",
    "report.make_error_table.total_s": "s",
    "report.make_curves.total_s": "s",
    "report.run_verification_suite.total_s": "s",
    "trace.overhead_ratio": "ratio",
    "warnings.runtime": "count",
}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--src", str(ROOT / "src"), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED}, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: str, seed: int, seconds: float, deadline: float,
                 small: bool = False) -> tuple[dict, dict]:
    flags = ("--small",) if small else ()
    probes = 1 if small else SETUP_PROBES
    setup = [_worker(workload, seed, seconds, deadline, "--setup-only", *flags)["setup_s"]
             for _ in range(probes)]
    res = _worker(workload, seed, seconds, deadline, *flags)
    setup.append(res["setup_s"])
    res["setup_samples"] = setup
    res["setup_s"] = statistics.median(setup)
    metrics = {name: _metric(res[name], unit) for name, unit in END_TO_END.items()}
    return res, metrics


def run_traced(workload: str, seed: int, seconds: float, deadline: float,
               small: bool = False) -> tuple[dict, dict]:
    flags = ("--small",) if small else ()
    plain = _worker(workload, seed, seconds, deadline, *flags)
    spans_file = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl.gz"
    res = _worker(workload, seed, seconds, deadline, "--trace", "1",
                  "--spans", str(spans_file), *flags)
    res["untraced"] = {k: plain[k] for k in ("ok_ops_per_s", "raw", "attempted", "ok", "classes")}
    values = dict(res["counts"])
    for name, agg in res["spans"].items():
        for field, v in agg.items():
            values[f"{name}.{field}"] = v
    # one traced pass against every untraced pass, both at the reference speed
    values["trace.overhead_ratio"] = res["ok_ops_per_s"] / plain["ok_ops_per_s"]
    values["warnings.runtime"] = res["runtime_warnings"]
    # a function removed by a later change reports 0 instead of failing
    metrics = {name: _metric(values.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    res["unexpected_failures"] += plain["unexpected_failures"]
    return res, metrics


def _report_lines(res: dict, metrics: dict) -> list[str]:
    lines = [f"{res['workload']} seed={res['seed']}"]
    shown = dict(metrics)
    for name, unit in REPORTED.items():
        if res.get(name) is not None:
            shown[name] = _metric(res[name], unit)
    for name, m in shown.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  tail percentile p{res['tail_percentile']:g} of {res['latency_samples']} "
                 f"latency samples; classes {res['classes']}; passes {res['passes']}")
    return lines


def _result(res: dict, metrics: dict) -> dict:
    return {
        "correct": res["unexpected_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["attempted"] - res["ok"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "szmd" / "__init__.py").is_file():
        print(f"no szmd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_untraced
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        results = {w: run(w, args.seed, args.seconds, deadline, args.small) for w in names}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for res, metrics in results.values():
        print("\n".join(_report_lines(res, metrics)))
        print(json.dumps({"report": res}))
    if args.workload == "all":
        print(json.dumps({w: _result(*r) for w, r in results.items()}))
    else:
        print(json.dumps(_result(*results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

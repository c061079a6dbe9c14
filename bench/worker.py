"""One workload in one fresh process; run by ``run.py``, not by hand.

Prints one JSON object on stdout. Nothing heavier than the standard library
is imported before the set-up timer starts, so ``setup_s`` is the cost of
importing szmd and making the workload's warm-up calls, and nothing else.
"""
from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

#: Seconds ``_calibrate`` typically takes on a shared 2-vCPU x86-64 host
#: (0.6x to 1.2x of it, as that host's load changes); times are reported as
#: if the host ran at that speed.
CAL_NOMINAL_S = 0.0035
#: least time between two calibrations, taken between operations
CAL_EVERY_S = 0.2
#: calibrations after set-up
CAL_SETUP_REPS = 9


def _calibrate() -> float:
    """Seconds for a fixed mix of interpreter loops, small and large numpy calls.

    The mix never changes and calls nothing in szmd. A host that shares its
    cores changes speed, up to 2x, over seconds and minutes. Dividing each
    operation's time by the slowness measured around it takes that drift
    out of the figures and leaves any change in szmd's own cost in full.
    """
    import numpy as np  # not before set-up is timed: szmd's import pays for it

    big = np.linspace(0.0, 1.0, 100_000)
    small = big[:32]
    # the first round refills the caches the last operation left cold, which
    # would otherwise slow the calibration after a large one by a third
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(5_000):
            s += math.exp(-i * 1e-4) * (i % 7)
        for _ in range(600):
            s += float(np.exp(small).sum())
        s += float(np.exp(big).cumsum()[-1])
        cost = time.perf_counter() - t0
    return cost


class HostSpeed:
    """Calibrations taken between operations, at most one per ``CAL_EVERY_S``."""

    def __init__(self):
        self.at: list[float] = []  # when each calibration ended
        self.cost: list[float] = []

    def sample(self) -> None:
        self.cost.append(_calibrate())
        self.at.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.sample()

    def slowness(self, start: float) -> float:
        """Host slowness around an operation that began at ``start``.

        The median of the two calibrations before it and the two after it,
        over the nominal cost: 1.0 on the reference host, 2.0 at half speed.
        """
        i = bisect.bisect_right(self.at, start)
        return statistics.median(self.cost[max(0, i - 2):i + 2]) / CAL_NOMINAL_S


def _setup(workload: str, src: Path):
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    szmd = importlib.import_module("szmd")
    import workloads

    workloads.WORKLOADS[workload][1](szmd)
    return szmd, time.perf_counter() - t0


def _run_suite(op, stamps):
    """One suite call -> [(start, seconds, check result or None, exception or None)].

    Each check ends when its CheckResult is built, so its time runs from the
    previous stamp (or the call) to its own stamp. A calibration made at a
    stamp is left out: the next check starts when it ends.
    """
    del stamps[:]
    t0 = time.perf_counter()
    try:
        returned, exc = op.call(), None
    except Exception as e:  # a refusal is an outcome to count, not a crash
        returned, exc = [], e
    t1 = time.perf_counter()
    starts = [t0] + [resume for _, _, resume in stamps]
    if stamps:
        out = [(starts[i], end - starts[i], r, None) for i, (end, r, _) in enumerate(stamps)]
    else:
        out = [(t0, (t1 - t0) / max(len(returned), 1), r, None) for r in returned]
    if exc is not None:
        out.append((starts[-1], t1 - starts[-1], None, exc))
    return out


def _install_check_stamps(report, stamps, tr, speed) -> None:
    """Time each verification check by stamping CheckResult construction.

    Under tracing each stamp also moves the operation id on, so the spans of
    one check share an id.
    """
    import dataclasses

    base = report.CheckResult

    @dataclasses.dataclass(frozen=True)
    class StampedCheck(base):
        def __post_init__(self):
            end = time.perf_counter()
            if tr is None:  # checks are few and far apart in time: one each
                speed.sample()
            stamps.append((end, self, time.perf_counter()))
            if tr is not None:
                tr.op_id += 1

    report.CheckResult = StampedCheck


def _quantile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _src_lines(src: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((src / "szmd").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    src = Path(args.src)
    szmd, raw_setup_s = _setup(args.workload, src)
    setup_slowness = (statistics.median(_calibrate() for _ in range(CAL_SETUP_REPS))
                      / CAL_NOMINAL_S)
    setup_s = raw_setup_s / setup_slowness
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload][0](szmd, args.seed, args.small)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    elif tracing.installed_wrappers():
        print(f"tracing wrappers present in an untraced run: {tracing.installed_wrappers()}",
              file=sys.stderr)
        return 3

    speed = HostSpeed()
    stamps: list = []
    if wl.suite:
        _install_check_stamps(szmd.report, stamps, tr, speed)

    runtime_warnings = [0]
    warnings.filterwarnings("always", category=RuntimeWarning)
    show = warnings.showwarning

    def count_runtime(message, category, *rest, **kw):
        if issubclass(category, RuntimeWarning):
            runtime_warnings[0] += 1
        else:
            show(message, category, *rest, **kw)

    warnings.showwarning = count_runtime

    # (input, known_defect, start, seconds, class) per operation or check; the
    # input is the position in the pass, so repetitions of one input share it
    records: list[tuple[int, bool, float, float, str]] = []
    first_pass: list = []
    raised: dict[str, int] = {}
    passes = 0
    t_start = time.perf_counter()
    # A traced run makes exactly one pass, so its counts repeat exactly. An
    # untraced run measures for --seconds and goes on to the workload's
    # minimum pass count, unless that would take more than twice as long.
    min_passes, seconds = (1, 0.0) if tr is not None else (wl.min_passes, args.seconds)
    while passes < 1 or time.perf_counter() - t_start < seconds or (
        passes < min_passes and time.perf_counter() - t_start < 2.0 * seconds
    ):
        for pos, op in enumerate(wl.ops):
            if tr is not None:
                tr.op_id = len(records)
            speed.maybe_sample()
            if wl.suite:
                outcomes = _run_suite(op, stamps)
            else:
                t0 = time.perf_counter()
                try:
                    result, exc = op.call(), None
                except Exception as e:  # a refusal is an outcome to count, not a crash
                    result, exc = None, e
                outcomes = [(t0, time.perf_counter() - t0, result, exc)]
            for k, (start, dt, result, exc) in enumerate(outcomes):
                if exc is not None:
                    cls = "raised"
                    raised[type(exc).__name__] = raised.get(type(exc).__name__, 0) + 1
                else:
                    try:
                        cls = op.check(result)
                    except Exception:  # an unreadable result is a wrong one
                        cls = "wrong"
                records.append((pos * 1000 + k, op.known_defect, start, dt, cls))
                if passes == 0:
                    first_pass.append(result)
        passes += 1
    speed.sample()  # the last operations' calibrations after them
    warnings.showwarning = show

    attempted = len(records)
    ok = sum(r[4] == "ok" for r in records)
    classes = {k: sum(r[4] == k for r in records) for k in ("ok", "wrong", "nonfinite", "raised")}
    unexpected = sum(c != "ok" and not d for _, d, _, _, c in records)
    # Each execution is timed at the reference host speed, as the median of
    # its input's repetitions in this run: the calibrations around it take
    # out the host's drift, the median its short spells.
    repeats: dict[int, list[float]] = {}
    for key, _, start, dt, _ in records:
        repeats.setdefault(key, []).append(dt / speed.slowness(start))
    typical = {key: statistics.median(times) for key, times in repeats.items()}
    wall = sum(typical[r[0]] for r in records)
    latency = sorted(typical[key] if c == "ok" else math.inf
                     for key, d, _, _, c in records if not d)
    per_pass = len(latency) // passes
    tail_p = workloads.tail_percentile(per_pass, wl.min_passes)
    # a failed op counts as +inf; written as the whole run's operation time so
    # the output stays a finite number (the run is also marked incorrect then)
    cap = lambda v: v if math.isfinite(v) else wall  # noqa: E731
    raw_wall = sum(r[3] for r in records)
    raw_latency = sorted(dt if c == "ok" else math.inf for _, d, _, dt, c in records if not d)
    slowness = sorted(c / CAL_NOMINAL_S for c in speed.cost)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "passes": passes,
        # calibration time over nominal: 1.0 is the reference host
        "host_slowness": {"samples": len(slowness), "min": slowness[0],
                          "median": statistics.median(slowness), "max": slowness[-1],
                          "setup": setup_slowness},
        "attempted": attempted,
        "ok": ok,
        "classes": classes,
        "raised_types": raised,
        "known_defect_failures": attempted - ok - unexpected,
        "unexpected_failures": unexpected,
        "wall_s": raw_wall,
        "raw": {
            "ok_ops_per_s": ok / raw_wall,
            "op_p50_ms": 1e3 * min(_quantile(raw_latency, 50.0), raw_wall),
            "op_tail_ms": 1e3 * min(_quantile(raw_latency, tail_p), raw_wall),
        },
        "ok_ops_per_s": ok / wall,
        "op_p50_ms": 1e3 * cap(_quantile(latency, 50.0)),
        "op_tail_ms": 1e3 * cap(_quantile(latency, tail_p)),
        "tail_percentile": tail_p,
        "latency_samples": len(latency),
        "failed_frac": (attempted - ok) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime_warnings": runtime_warnings[0],
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "src_lines": _src_lines(src),
    }
    if args.workload == "tables":
        devs = [abs(first_pass[i].abs_error - want) / want
                for i, want in wl.extra["published"] if first_pass[i] is not None]
        out["ref_max_rel_dev"] = max(devs) if devs else None
    if wl.extra and "oracle_ref_dev" in wl.extra:
        out["oracle_ref_dev"] = wl.extra["oracle_ref_dev"]
    if tr is not None:
        out["spans"] = tr.aggregate()
        out["counts"] = dict(tr.counts)
        out["span_count"] = len(tr.spans)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tr.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

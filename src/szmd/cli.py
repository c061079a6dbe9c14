"""Command-line front end.

Subcommands: eval (single operator value), table (error tables), curve
(figure data), moments (raw/central moment dumps), bounds (error-bound
calculators), verify (the full cross-check suite).  Exit status is 1 when
--paper-check or verify finds violations, and 2 when an input is invalid or
the operator refuses a value (divergent, overflowing or unconverged), with
one line "szmd: error: <message>" on stderr.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import bounds as bounds_mod
from .basis import _check_point
from .moments import central_moment, raw_moment
from .operator import OperatorOverflow, apply, apply_truncated, parse_rule
from .quadrature import ConvergenceFailure
from .report import (
    REFERENCE_NS,
    REFERENCE_XS,
    compare_with_reference,
    curves_csv,
    format_suite_report,
    format_table_pretty,
    make_curves,
    make_error_table,
    run_verification_suite,
    table_csv,
    write_curves_csv,
    write_table_csv,
)
from .targets import exppoly_derivative, parse_target


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str, option: str) -> list[int]:
    """A comma list of whole numbers; an entry such as 2.7 is refused, not
    truncated."""
    values = _parse_floats(text)
    for v in values:
        if not v.is_integer():
            raise ValueError(f"{option} takes integers, got {v:g}")
    return [int(v) for v in values]


def _parse_grid(text: str) -> list[float]:
    """Either a comma list or a linspace spec 'start:stop:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is neither a comma list nor start:stop:count")
        lo, hi, count = parts
        return list(np.linspace(float(lo), float(hi), int(count)))
    return _parse_floats(text)


def _add_target_arg(p: argparse.ArgumentParser, default: str | None = None) -> None:
    p.add_argument(
        "--g",
        default=default,
        required=default is None,
        help="builtin target name (one, t, t2, x2e2x, negx3e5x, expneg) or an "
        "exponential-polynomial literal like '-1*t^3*exp(-5*t)'",
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    g = parse_target(args.g)
    if args.u is not None:
        u = args.u
    else:
        u = parse_rule(args.rule).u_value(args.n)
    op = apply(g, u, args.x) if args.J is None else apply_truncated(g, u, args.x, args.J)
    gx = float(g(args.x))
    print(f"u = {u:.17g}")
    print(f"operator_value = {op.value:.17g}")
    print(f"g_value = {gx:.17g}")
    print(f"abs_error = {abs(op.value - gx):.17g}")
    print(f"series_terms_used = {op.series_terms_used}")
    print(f"tail_mass = {op.tail_mass:.6g}")
    print(f"tail_bound = {op.tail_bound:.6g}")
    print(f"inner_integral_error = {op.inner_integral_error:.6g}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    g = parse_target(args.g)
    rule = parse_rule(args.rule)
    xs = _parse_grid(args.xs) if args.xs is not None else REFERENCE_XS
    ns = _parse_ints(args.ns, "--ns") if args.ns is not None else REFERENCE_NS
    if not (xs and ns):
        raise ValueError(f"--ns {args.ns!r} gives no n" if xs else f"--xs {args.xs!r} gives no x")
    table = make_error_table(g, rule, xs=xs, ns=ns)
    mismatches = compare_with_reference(table) if args.paper_check else []
    if args.out:
        write_table_csv(table, args.out)
        print(f"wrote {args.out}")
    else:
        print(format_table_pretty(table))
    if args.paper_check:
        for m in mismatches:
            print(
                f"MISMATCH rule={m.rule_label} x={m.x} n={m.n}: "
                f"computed {m.computed:.6g} vs reference {m.reference:.6g} "
                f"(rel {m.rel_deviation:.2e})"
            )
        if mismatches:
            print(f"{len(mismatches)} cell(s) outside tolerance")
            return 1
        print("all cells match the reference table")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    g = parse_target(args.g)
    if args.us:
        u_values = _parse_floats(args.us)
    else:
        rule = parse_rule(args.rule)
        u_values = rule.values(_parse_ints(args.ns, "--ns"))
    xs = _parse_grid(args.xs)
    truncation_js = _parse_ints(args.J, "--J") if args.J else None
    series = make_curves(g, u_values, xs, truncation_js=truncation_js)
    if args.out:
        write_curves_csv(series, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(curves_csv(series))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    xs = _parse_grid(args.xs)
    _check_point(args.u, 0.0)
    if args.max_m < 0:
        raise ValueError(f"--max-m must be >= 0, got {args.max_m}")
    if not xs:
        raise ValueError(f"--xs {args.xs!r} gives no x")
    rows = [
        f"{x:.17g},{m},{raw_moment(args.u, x, m):.17g},"
        f"{central_moment(args.u, x, m):.17g}"
        for x in xs
        for m in range(args.max_m + 1)
    ]
    print("\n".join(["x,m,raw_moment,central_moment", *rows]))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = parse_target(args.g)
    u, x = args.u, args.x
    if args.which == "kfunctional":
        res = bounds_mod.kfunctional_bound(g, u, x)
        for field in fields(res):
            print(f"{field.name} = {getattr(res, field.name):.17g}")
        print(f"combined (C=1) = {res.combined():.17g}")
    elif args.which == "lipschitz":
        res = bounds_mod.lipschitz_bound_check(g, args.s, u, x)
        print(f"lhs = {res.lhs:.17g}")
        print(f"rhs = {res.rhs:.17g}")
        print(f"holds = {res.holds}")
    elif args.which == "lipspace":
        val = bounds_mod.lip_space_bound(args.M, args.m1, args.m2, args.s, u, x)
        print(f"bound = {val:.17g}")
    elif args.which == "dbv":
        dg = exppoly_derivative(g)
        spec = bounds_mod.DbvSpec(g, gprime_left=dg, gprime_right=dg)
        res = bounds_mod.dbv_empirical_check(spec, u, x)
        b = res.bound
        print(f"lhs = {res.lhs:.17g}")
        print(f"bound_total = {b.total:.17g}")
        for field, term in zip(fields(b), b.terms()):
            print(f"  {field.name} = {term:.17g}")
        print(f"holds = {res.holds}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = run_verification_suite(tables=args.tables)
    print(format_suite_report(checks))
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szmd",
        description="Szasz-Mirakjan-Durrmeyer operators: evaluation, moments, "
        "error bounds, and convergence tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the operator at one point")
    _add_target_arg(p)
    p.add_argument("--u", type=float, help="operator parameter u")
    p.add_argument("--rule", default="n", help="sequence rule: n, n1.5, n2, explicit:...")
    p.add_argument("--n", type=int, default=1, help="sequence index when --u is absent")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--J", type=int, help="sum the series to this fixed index instead of "
                   "taking the closed form")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="error table over an (x, n) grid")
    _add_target_arg(p, default="x2e2x")
    p.add_argument("--rule", default="n")
    p.add_argument("--ns", help="comma list of sequence indices")
    p.add_argument("--xs", help="comma list or start:stop:count grid")
    p.add_argument("--out", help="CSV destination")
    p.add_argument(
        "--paper-check",
        action="store_true",
        help="diff the computed cells against the published reference tables",
    )
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("curve", help="operator curve data for plotting")
    _add_target_arg(p, default="negx3e5x")
    p.add_argument("--us", help="comma list of u values")
    p.add_argument("--rule", default="n")
    p.add_argument("--ns", default="15,35,50")
    p.add_argument("--xs", default="0:2.5:126")
    p.add_argument("--J", help="comma list of fixed truncation indices, one per u")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("moments", help="raw and central moment dump")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--xs", default="0.1,0.5,1.0,2.5")
    p.add_argument("--max-m", type=int, default=6)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("bounds", help="error-bound calculators at one point")
    p.add_argument(
        "--which",
        choices=("kfunctional", "lipschitz", "lipspace", "dbv"),
        required=True,
    )
    _add_target_arg(p, default="expneg")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0, help="Lipschitz order in (0,1]")
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--tables", choices=("none", "spot", "full"), default="spot")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OperatorOverflow, ConvergenceFailure) as exc:
        print(f"szmd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

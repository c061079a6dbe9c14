#!/usr/bin/env bash
# Runs every szmd entry point through the installed console script
# ([project.scripts]), not python -m.  A refusal must exit with status 2.
# Usage: PYTHONWARNINGS=error::RuntimeWarning bash .github/entry_points.sh
set -euo pipefail
out="${RUNNER_TEMP:-$(mktemp -d)}"

szmd moments --u 1e6 --max-m 12
szmd moments --u 10 --xs 1 --max-m 170
szmd moments --u 123.4 --xs 1.7 --max-m 267
szmd moments --u 1e200 --xs 1e-100 --max-m 2 >"$out/m.csv"
grep -qxF '1e-100,1,1e-100,9.9999999999999998e-201' "$out/m.csv"
szmd eval --g t --u 10 --x 1 --J 1e3
szmd verify --tables none
szmd verify --tables spot
szmd table --rule n --paper-check
szmd table --rule n1.5 --paper-check
szmd table --rule n2 --paper-check
szmd table --rule explicit:3,4,8 --xs 1 --ns 1,2,3
szmd table --xs 0:2.5:500 >/dev/null
szmd curve --J 15,35,50 --out "$out/curves.csv"
szmd curve --us 15,1e6 --xs 0:2.5:126 --out "$out/c.csv"
rc=0; szmd curve --xs 1,inf || rc=$?; test "$rc" -eq 2
rc=0; szmd curve --us 15 --xs 0,1 --J 2.7 || rc=$?; test "$rc" -eq 2
rc=0; szmd table --ns 10.9 --xs 1 2>"$out/err" || rc=$?; test "$rc" -eq 2; grep -qF 'whole number' "$out/err"
rc=0; szmd eval --g 't^2.5' --u 10 --x 1 || rc=$?; test "$rc" -eq 2
rc=0; szmd moments --u 10 --max-m -1 || rc=$?; test "$rc" -eq 2
rc=0; szmd moments --u 10 --xs 1 --max-m 300 2>"$out/err" || rc=$?
test "$rc" -eq 2; test "$(wc -l <"$out/err")" -eq 1
rc=0; szmd table --xs 0:1:0 || rc=$?; test "$rc" -eq 2
szmd eval --g 't^170' --u 10 --x 1
rc=0; szmd eval --g 't^170' --u 0.5 --x 1 2>"$out/err" || rc=$?; test "$rc" -eq 2
grep -qF 'operator value overflows' "$out/err"
szmd eval --g one --u 1e200 --x 1
szmd table --xs 0:1:1e3 --ns 10 >/dev/null
rc=0; szmd eval --g t --rule 'n^' --x 1 || rc=$?; test "$rc" -eq 2
rc=0; szmd table --rule explicit:1,x || rc=$?; test "$rc" -eq 2
szmd eval --g '2*t^2 - 0.5*t + 3' --u 100 --x 1 --J 80
szmd eval --g x2e2x --u 3 --x 300 --J 10 >"$out/trunc.txt"
grep -qxF 'tail_bound = inf' "$out/trunc.txt"
rc=0; szmd eval --g x2e2x --u 1e308 --x 1 --J 50 2>"$out/err" || rc=$?; test "$rc" -eq 2
grep -qF 'partial sum to J=50 is not finite' "$out/err"
szmd eval --g '-1*t^3*exp(-5*t) + 0.5*t' --u 100 --x 1
szmd bounds --which dbv --g t2 --u 400 --x 1 >"$out/dbv.txt"
grep -qF 'bound_total = 0.0871346801257' "$out/dbv.txt"
szmd bounds --which kfunctional --g expneg --u 1e3 --x 1
szmd bounds --which lipschitz --g expneg --u 1e3 --x 1
szmd bounds --which lipspace --g expneg --u 1e3 --x 1
szmd bounds --which lipspace --g expneg --u 1e-150 --x 1e-200 >"$out/lip.txt"
grep -qF 'bound = 1.41421356237305' "$out/lip.txt"

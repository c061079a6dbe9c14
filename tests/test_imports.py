"""What importing szmd and its scipy-free paths load, what the first
scipy.special call binds, and that the test references load no szmd.  Each
case runs in a fresh interpreter, since this one has long imported
scipy.special and szmd."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np  # noqa: F401  (the first-call expressions below use it)
import pytest
import scipy.special  # noqa: F401  (imported up front for the eval below)

import szmd

SRC = str(Path(szmd.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


def run_fresh(code: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.splitlines()


def test_closed_form_work_loads_neither_scipy_special_nor_integrate():
    code = """
import sys
import szmd
g = szmd.BUILTIN_TARGETS["x2e2x"]
for label in ("n", "n1.5", "n2"):
    szmd.make_error_table(g, szmd.parse_rule(label))
szmd.apply(g, 100.0, 1.0)
szmd.make_curves(szmd.BUILTIN_TARGETS["negx3e5x"], (15.0, 1e6), [0.0, 1.0, 2.5])
szmd.raw_moment(100.0, 1.0, 4)
szmd.central_moment(100.0, 1.0, 4)
affine = szmd.MonomialSum(((2.0, 1), (1.0, 0)))
szmd.korovkin_sup_error(affine, 100.0, [0.5, 1.0, 2.0])
szmd.lipschitz_bound_check(szmd.BUILTIN_TARGETS["expneg"], 1.0, 100.0, 1.0)
spec = szmd.DbvSpec(affine, gprime_left=lambda t: 2.0, gprime_right=lambda t: 2.0)
szmd.dbv_empirical_check(spec, 100.0, 1.0)
print(sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules))
"""
    assert run_fresh(code) == ["[]"]


BLACK_BOX = "szmd.BlackBox(lambda t: np.abs(t - 1.0), growth_rate=0.0, kinks=(1.0,))"


# (call, the module whose scipy.special names it binds, those names)
@pytest.mark.parametrize("call, module, names", [
    pytest.param("szmd.kernel_value(100.0, 1.0, 1.3)", "operator", ("i0e", "chndtr"),
                 id="kernel_value"),
    pytest.param(f"szmd.apply({BLACK_BOX}, 1e4, 1.0)", "operator", ("i0e", "chndtr"),
                 id="_kernel_values"),
    pytest.param("szmd.kernel_cdf(100.0, 1.0, 1.3)", "operator", ("i0e", "chndtr"),
                 id="kernel_cdf"),
    pytest.param("szmd.basis.tail_mass(100.0, 1.0, 90)", "basis", ("gammainc", "gammaln"),
                 id="tail_mass"),
    pytest.param('szmd.apply_truncated(szmd.BUILTIN_TARGETS["negx3e5x"], 15.0, 1.0, 35)',
                 "basis", ("gammainc", "gammaln"), id="apply_truncated"),
])
def test_first_scipy_call_gives_the_same_bits_and_binds_the_ufuncs(call, module, names):
    code = f"""
import sys
import numpy as np
import szmd
assert "scipy.special" not in sys.modules
print(repr({call}))
import scipy.special
print(all(getattr(szmd.{module}, n) is getattr(scipy.special, n) for n in {names!r}))
"""
    assert run_fresh(code) == [repr(eval(call)), "True"]


def test_references_import_nothing_from_szmd():
    # szmd is importable here, so a reference that used it would load it
    code = f"""
import sys
sys.path.insert(0, {TESTS!r})
import reference
print(sorted(m for m in sys.modules if m.split(".")[0] == "szmd"))
"""
    assert run_fresh(code) == ["[]"]

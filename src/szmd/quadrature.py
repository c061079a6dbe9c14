"""Integrals of a kernel or a basis function against a target function.

Exp-poly targets have gamma-function closed forms for their integrals
against the basis (log_exppoly_integrals).  Black boxes are integrated
against the operator's kernel by one adaptive quadrature (kernel_integral).
"""
from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
from scipy import integrate

from .targets import TargetFunction

#: Relative error estimate above which a quadrature value is refused.
_MAX_REL_ERROR = 1e-6


class DivergentIntegral(ValueError):
    """The inner integral diverges: the parameter u does not exceed the
    target's exponential growth rate."""


class ConvergenceFailure(RuntimeError):
    """Quadrature refinement was exhausted without reaching the tolerance."""


def log_exppoly_integrals(u: float, m: int, a: float, j: np.ndarray) -> np.ndarray:
    """Vectorized ln of the integral of s_{u,j}(t) t^m e^{at} over [0, inf),
    which is u^j (j+m)! / (j! (u-a)^{j+m+1}), for an index array.

    Written with small-magnitude pieces only: the j! ratio becomes
    sum_i ln(j+i) and the u^j/(u-a)^j ratio becomes j*ln(u/(u-a)), which
    preserves ~1e-15 absolute accuracy even at j ~ 1e6 where lgamma
    differences lose ~1e-8.  ln(u/(u-a)) is log1p(a/(u-a)) for a > 0 and
    -log1p(-a/u) otherwise, so log1p scales the rounding of its argument by
    a/u or |a|/(u+|a|), both <= 1; -log1p(-a/u) for a near u would
    amplify it by u/(u-a).  Raises DivergentIntegral when u <= a.
    """
    if u <= a:
        raise DivergentIntegral(f"integral diverges: u={u} <= rate a={a}")
    j = np.asarray(j, dtype=np.float64)
    out = np.zeros_like(j)
    for i in range(1, m + 1):
        out += np.log(j + i)
    log_ratio = math.log1p(a / (u - a)) if a > 0.0 else -math.log1p(-a / u)
    out += j * log_ratio - (m + 1) * math.log(u - a)
    return out


def kernel_integral(
    kernel: Callable[[float], float],
    g: TargetFunction,
    lo: float,
    hi: float,
    points: list[float],
) -> tuple[float, float]:
    """Integral of kernel(t) g(t) over [lo, hi] and its error estimate.

    One adaptive Gauss-Kronrod quadrature that starts from the pieces the
    break points cut [lo, hi] into.  Raises ConvergenceFailure when g is not
    finite at a node or the error estimate exceeds 1e-6 |value|, and
    OverflowError when g raises it or the integral leaves the double range.
    """
    def f(t: float) -> float:
        gt = g(t)
        if not math.isfinite(gt):
            raise ConvergenceFailure(f"target is not finite at t={t}: {gt}")
        return kernel(t) * gt

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, error = integrate.quad(f, lo, hi, points=points or None, limit=200,
                                      epsabs=0.0, epsrel=1e-13)
    if not (math.isfinite(value) and math.isfinite(error)):
        raise OverflowError(f"kernel integral is not finite: {value} with error {error}")
    if error > _MAX_REL_ERROR * abs(value):
        raise ConvergenceFailure(
            f"kernel integral did not converge: estimate {value} with error {error}"
        )
    return value, error

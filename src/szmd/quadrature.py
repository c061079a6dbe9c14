"""Integrals of a kernel or a basis function against a target function.

Exp-poly targets have gamma-function closed forms for their integrals
against the basis (log_exppoly_integrals).  Black boxes are integrated
against the operator's kernel by one adaptive Gauss-Kronrod quadrature
(kernel_integral) that evaluates the kernel and the target on every node of
a refinement round in one array call.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
#: Relative error estimate above which a quadrature value is refused.
_MAX_REL_ERROR = 1e-6
#: Relative accuracy the refinement aims at, and its cap on subintervals.
_REL_TOL = 1e-13
_LIMIT = 200

# QUADPACK's qk21: the 21-point Kronrod abscissae on [0, 1] from the end
# inwards, their weights, and the weights of the embedded 10-point Gauss
# rule, whose nodes are the abscissae with odd index.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208292019866, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1::2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the rules on [-1, 1], nodes ascending
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS = np.concatenate([_WG, _WG[-2::-1]])


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


def _gk21(kernel, g, a: np.ndarray, b: np.ndarray):
    """Kronrod value, error estimate and rounding floor of kernel(t) g(t) on
    each [a_i, b_i], with QUADPACK qk21's error heuristic.

    The arrays have shape (n,) for a target with one value per node and
    (k, n) for one with k columns.  Raises ConvergenceFailure at the first
    node where the target is not finite.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = (centre[:, None] + half[:, None] * _NODES).ravel()
    gt = np.asarray(g(t), dtype=np.float64)
    finite = np.isfinite(gt).reshape(len(t), -1).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ConvergenceFailure(f"target is not finite at t={t[i]}: {gt[i]}")
    f = (kernel(t) * gt.T).reshape(gt.shape[1:] + (len(a), len(_NODES)))
    resk = f @ _KRONROD
    resabs = np.abs(f) @ _KRONROD * half  # half >= 0: the pieces ascend
    resasc = np.abs(f - 0.5 * resk[..., None]) @ _KRONROD * half
    error = np.abs(resk - f @ _GAUSS) * half
    error = np.where((resasc != 0.0) & (error != 0.0),
                     resasc * np.minimum(1.0, (200.0 * error / resasc) ** 1.5), error)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk * half, np.maximum(error, floor), floor


def kernel_integral(
    kernel: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    points: list[float],
):
    """Integral of kernel(t) g(t) over [lo, hi] and its error estimate.

    kernel and g take an array of nodes.  g returns one value per node, or
    k columns per node, in which case the value and the error are arrays of
    k; the columns share the subintervals, and each is refined and refused
    as if it were alone.

    Adaptive 21-point Gauss-Kronrod quadrature that starts from the pieces
    the break points cut [lo, hi] into.  Each round bisects, in one array
    call, every subinterval whose error estimate exceeds both its length's
    share of 1e-13 |integral| and its rounding floor, until the total error
    is below 1e-13 |integral|, no subinterval qualifies, or there are 200.
    Raises ConvergenceFailure when g is not finite at a node or the error
    estimate exceeds 1e-6 |value|, and OverflowError when g raises it or
    the integral leaves the double range.
    """
    a = np.array([lo, *points], dtype=np.float64)
    b = np.array([*points, hi], dtype=np.float64)
    with np.errstate(all="ignore"):
        value, error, floor = _gk21(kernel, g, a, b)
        while len(a) < _LIMIT:
            budget = _REL_TOL * np.abs(value.sum(axis=-1))[..., None]
            split = (error > budget * ((b - a) / (hi - lo))) & (error > floor)
            split &= error.sum(axis=-1)[..., None] > budget
            idx = np.flatnonzero(split.reshape(-1, len(a)).any(axis=0))
            if not idx.size:
                break
            if idx.size > _LIMIT - len(a):
                worst = error.reshape(-1, len(a))[:, idx].max(axis=0)
                idx = idx[np.argsort(worst)[::-1][:_LIMIT - len(a)]]
            mid = 0.5 * (a[idx] + b[idx])
            keep = np.ones(len(a), dtype=bool)
            keep[idx] = False
            na, nb = np.concatenate([a[idx], mid]), np.concatenate([mid, b[idx]])
            fresh = _gk21(kernel, g, na, nb)
            a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
            value, error, floor = (
                np.concatenate([old[..., keep], new], axis=-1)
                for old, new in zip((value, error, floor), fresh)
            )
        total, total_error = value.sum(axis=-1), error.sum(axis=-1)
        if not (np.all(np.isfinite(total)) and np.all(np.isfinite(total_error))):
            raise OverflowError(
                f"kernel integral is not finite: {total} with error {total_error}"
            )
        if np.any(total_error > _MAX_REL_ERROR * np.abs(total)):
            raise ConvergenceFailure(
                f"kernel integral did not converge: estimate {total} with error {total_error}"
            )
    return total, total_error

"""Integrals of a kernel or a basis function against a target function.

Exp-poly targets have gamma-function closed forms for their integrals
against the basis (log_exppoly_integrals).  Black boxes are integrated
against the operator's kernel by one adaptive Gauss-Kronrod quadrature
(kernel_integral) that evaluates them on every node of a batch of (u, x)
points in one array call per refinement round.
"""
from __future__ import annotations

import math
import sys

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
# the rules on [-1, 1], nodes ascending, the weights as 21 x 1 columns
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])[:, None]
_GAUSS = np.concatenate([_WG, _WG[-2::-1]])[:, None]


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


def _gk21(kernel, g, u: np.ndarray, x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Kronrod value, error estimate and rounding floor of kernel(u, x, t) g(t, x)
    on each [a_i, b_i] of the point (u_i, x_i), with QUADPACK qk21's error
    heuristic: arrays of shape (n,), or (k, n) for a target with k columns.
    Each rule sum is one stacked product of every 1 x 21 row of node values
    with the 21 x 1 weights: a dot product per row, whose bits do not depend
    on where the row sits, so a subinterval rounds as it would alone.  Raises
    ConvergenceFailure at the first node where the target is not finite."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    t = (centre[:, None] + half[:, None] * _NODES).ravel()
    un, xn = u.repeat(len(_NODES)), x.repeat(len(_NODES))
    gt = np.asarray(g(t, xn), dtype=np.float64)
    if not np.isfinite(gt).all():
        i = int(np.argmin(np.isfinite(gt).reshape(len(t), -1).all(axis=1)))
        raise ConvergenceFailure(
            f"target is not finite at t={t[i]} (u={un[i]}, x={xn[i]}): {gt[i]}"
        )
    f = (kernel(un, xn, t) * gt.T).reshape(gt.shape[1:] + (len(a), 1, len(_NODES)))

    def rule(values, weights):
        return (values @ weights)[..., 0, 0]

    resk = rule(f, _KRONROD)
    resabs = rule(np.abs(f), _KRONROD) * half  # half >= 0: the pieces ascend
    resasc = rule(np.abs(f - 0.5 * resk[..., None, None]), _KRONROD) * half
    error = np.abs(resk - rule(f, _GAUSS)) * half
    error = np.where((resasc != 0.0) & (error != 0.0),
                     resasc * np.minimum(1.0, (200.0 * error / resasc) ** 1.5), error)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk * half, np.maximum(error, floor), floor


def kernel_integral(kernel, g, u, x, windows):
    """Integrals of kernel(u, x, t) g(t, x) at a batch of points (u[i], x[i]),
    each over its window windows[i] = (lo, hi, break points), and their
    error estimates.  kernel and g take nodes with each node's u and x; g
    returns one value per node, or k columns (results of shape (P, k)) that
    share the subintervals and are each refined and refused as if alone.

    Adaptive 21-point Gauss-Kronrod quadrature from the pieces the break
    points cut each window into.  Each round bisects, in one _gk21 call,
    every subinterval whose error estimate exceeds both its length's share
    of 1e-13 |integral| and its rounding floor, until for each point the
    total error is below 1e-13 |integral|, no subinterval qualifies, or
    there are 200.  A subinterval carries its point's index; a round keeps
    the unsplit ones in order and appends the left, then the right halves,
    so each point's subintervals keep their order alone.  Budgets, splits,
    the cap and the totals (one np.bincount over (column, point) keys, which
    adds in that order) are per point, so each point is refined and rounded
    bit for bit as if alone.  Raises ConvergenceFailure when g is not finite
    at a node or an error estimate exceeds 1e-6 |value|, and OverflowError
    when g raises it or an integral leaves the double range, naming u, x."""
    u, x = np.asarray(u, dtype=np.float64), np.asarray(x, dtype=np.float64)
    size, width = len(windows), np.array([hi - lo for lo, hi, _ in windows])
    prob, a, b = (np.array(c) for c in zip(*(
        (i, lo, hi) for i, (start, end, points) in enumerate(windows)
        for lo, hi in zip((start, *points), (*points, end)))))
    with np.errstate(all="ignore"):
        value, error, floor = _gk21(kernel, g, u[prob], x[prob], a, b)
        # column c of point p sums into bin c * size + p; one column unless g has k
        column = np.arange(value.size // len(a))[:, None] * size
        while True:
            keys = (column + prob).ravel()
            total, total_error = (np.bincount(keys, v.ravel(), column.size * size)
                                  .reshape(v.shape[:-1] + (size,)) for v in (value, error))
            budget = _REL_TOL * np.abs(total)
            split = (error > budget[..., prob] * ((b - a) / width[prob])) & (error > floor)
            split &= (total_error > budget)[..., prob]
            idx = np.flatnonzero(split.reshape(-1, len(a)).any(axis=0))
            if idx.size + len(a) > _LIMIT:
                # a point that would pass 200 splits its worst ones only
                room = _LIMIT - np.bincount(prob, minlength=size)
                for p in np.flatnonzero(np.bincount(prob[idx], minlength=size) > room):
                    mine, other = idx[prob[idx] == p], idx[prob[idx] != p]
                    worst = error.reshape(-1, len(a))[:, mine].max(axis=0)
                    idx = np.concatenate([other, mine[np.argsort(worst)[::-1][:room[p]]]])
            if not idx.size:
                break
            halves = np.concatenate([prob[idx], prob[idx]])
            mid = 0.5 * (a[idx] + b[idx])
            na, nb = np.concatenate([a[idx], mid]), np.concatenate([mid, b[idx]])
            fresh = _gk21(kernel, g, u[halves], x[halves], na, nb)
            keep = np.ones(len(a), dtype=bool)
            keep[idx] = False
            a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
            prob = np.concatenate([prob[keep], halves])
            value, error, floor = (np.concatenate([old[..., keep], new], axis=-1)
                                   for old, new in zip((value, error, floor), fresh))
        bad = ~(np.isfinite(total) & np.isfinite(total_error))
        loose = total_error > _MAX_REL_ERROR * np.abs(total)
    for hit, refusal, what in ((bad, OverflowError, "is not finite"),
                               (loose, ConvergenceFailure, "did not converge")):
        if hit.any():
            p = int(np.argmax(hit.reshape(-1, size).any(axis=0)))
            raise refusal(f"kernel integral {what} at u={u[p]}, x={x[p]}: "
                          f"estimate {total[..., p]} with error {total_error[..., p]}")
    return total.T, total_error.T

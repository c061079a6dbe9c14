"""Inner integrals of the basis against a target function.

For structured targets the integral against s_{u,j} has a gamma-function
closed form and is always taken exactly; only genuine black boxes go through
Gauss-Laguerre quadrature with an order-doubling cross-check and an adaptive
fallback.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .targets import BlackBox, TargetFunction, exppoly_terms


class DivergentIntegral(ValueError):
    """The inner integral diverges: the parameter u does not exceed the
    target's exponential growth rate."""


class ConvergenceFailure(RuntimeError):
    """Quadrature refinement was exhausted without reaching the tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the numeric inner-integral path."""

    laguerre_order: int = 200
    adaptive_tol: float = 1e-12
    max_refinement_depth: int = 3

    def __post_init__(self) -> None:
        if self.laguerre_order < 2:
            raise ValueError("laguerre_order must be >= 2")
        if self.adaptive_tol <= 0.0:
            raise ValueError("adaptive_tol must be positive")
        if self.max_refinement_depth < 1:
            raise ValueError("max_refinement_depth must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float


@lru_cache(maxsize=16)
def _laguerre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and log-weights.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix, which stays stable at orders where the classical
    Newton-iteration routines overflow. The weights do not come from its
    eigenvectors: their components are accurate only to ~1e-16 absolute, so
    every weight below ~e^-78 would be noise. Instead
    w_i = 1 / (x_i L_n'(x_i)^2) = x_i / (n^2 (L_n(x_i) - L_{n-1}(x_i))^2),
    with L_{n-1} and L_n from the three-term recurrence, rescaled at every
    step so that far-tail weights keep full relative accuracy in log form.
    The L_n(x_i) term vanishes at the exact roots but is kept: it absorbs
    most of the rounding error of the computed nodes, and the low moments
    come out ~100x more accurate than with the root-only form
    x_i / ((n+1) L_{n+1}(x_i))^2.
    """
    nodes = eigh_tridiagonal(
        2.0 * np.arange(order, dtype=np.float64) + 1.0,
        np.arange(1.0, order, dtype=np.float64),
        eigvals_only=True,
    )
    # (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}; prev, cur = L_{k-1}, L_k,
    # both divided by exp(log_scale)
    prev = np.ones_like(nodes)
    cur = 1.0 - nodes
    log_scale = np.zeros_like(nodes)
    for k in range(1, order):
        prev, cur = cur, ((2 * k + 1 - nodes) * cur - k * prev) / (k + 1)
        scale = np.maximum(np.abs(prev), np.abs(cur))
        prev /= scale
        cur /= scale
        log_scale += np.log(scale)
    log_w = (np.log(nodes) - 2.0 * math.log(order)
             - 2.0 * (np.log(np.abs(cur - prev)) + log_scale))
    return nodes, log_w


def exact_basis_integral_monomial(u: float, j: int, m: int) -> float:
    """Integral of s_{u,j}(t) * t^m over [0, inf) = (j+m)! / (j! u^{m+1})."""
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if j < 0 or m < 0:
        raise ValueError("j and m must be >= 0")
    return math.exp(
        math.lgamma(j + m + 1) - math.lgamma(j + 1) - (m + 1) * math.log(u)
    )


def exact_basis_integral_exppoly(u: float, j: int, m: int, a: float) -> float:
    """Integral of s_{u,j}(t) * t^m e^{a t} = u^j (j+m)! / (j! (u-a)^{j+m+1}).

    Requires u > a; otherwise the integrand is not integrable and
    DivergentIntegral is raised.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if j < 0 or m < 0:
        raise ValueError("j and m must be >= 0")
    if u <= a:
        raise DivergentIntegral(f"integral diverges: u={u} <= rate a={a}")
    return math.exp(
        j * math.log(u)
        + math.lgamma(j + m + 1)
        - math.lgamma(j + 1)
        - (j + m + 1) * math.log(u - a)
    )


def log_exppoly_integrals(u: float, m: int, a: float, j: np.ndarray) -> np.ndarray:
    """Vectorized ln of the exppoly integral for an index array.

    Written with small-magnitude pieces only: the j! ratio becomes
    sum_i ln(j+i) and the u^j/(u-a)^j ratio becomes j*ln(u/(u-a)), which
    preserves ~1e-15 absolute accuracy even at j ~ 1e6 where lgamma
    differences lose ~1e-8.  ln(u/(u-a)) is log1p(a/(u-a)) for a > 0 and
    -log1p(-a/u) otherwise, so log1p scales the rounding of its argument by
    a/u or |a|/(u+|a|), both <= 1; -log1p(-a/u) for a near u would
    amplify it by u/(u-a).
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


def _gauss_laguerre_pass(u: float, j: int, g, order: int) -> float:
    # substitution s = u t, so the integral is
    #   (1/u) * int_0^inf e^{-s} s^j/j! g(s/u) ds
    nodes, log_w = _laguerre_rule(order)
    lw = log_w + j * np.log(nodes) - gammaln(j + 1)
    # skip dead weights before evaluating g: keeps a growing g from turning
    # an underflowed weight into 0 * inf
    mask = lw > -745.0
    if not np.any(mask):
        # the basis function's mass lies beyond the largest node: this pass
        # knows nothing about the integral, and two such passes must not
        # agree on 0
        return math.nan
    gvals = np.asarray(g(nodes[mask] / u), dtype=np.float64)
    return float(np.sum(np.exp(lw[mask]) * gvals)) / u


def _adaptive_fallback(u: float, j: int, g: TargetFunction, tol: float) -> QuadratureResult:
    kinks = tuple(g.kinks) if isinstance(g, BlackBox) else ()

    def f(t: float) -> float:
        if t <= 0.0:
            return float(g(0.0)) if j == 0 else 0.0
        lw = j * math.log(u * t) - u * t - math.lgamma(j + 1)
        return math.exp(lw) * float(g(t)) if lw > -745.0 else 0.0

    # split so interior kink points can be handed to the subdivider
    hi = (j + 40.0 + 12.0 * math.sqrt(j + 1.0)) / u * 2.0
    pts = sorted(k for k in kinks if 0.0 < k < hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val1, err1 = integrate.quad(f, 0.0, hi, points=pts or None, limit=300,
                                    epsabs=0.0, epsrel=max(tol, 1e-13))
        val2, err2 = integrate.quad(f, hi, np.inf, limit=100,
                                    epsabs=max(abs(val1) * tol, 1e-300))
    value, error = val1 + val2, err1 + err2
    if not (math.isfinite(value) and math.isfinite(error)):
        raise ConvergenceFailure(
            f"inner integral is not finite (u={u}, j={j}): "
            f"estimate {value} with error {error}"
        )
    return QuadratureResult(value, error)


def numeric_basis_integral(
    u: float,
    j: int,
    g: TargetFunction,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> QuadratureResult:
    """Integral of s_{u,j}(t) g(t) over [0, inf) by quadrature.

    Gauss-Laguerre after the substitution s = ut, doubling the order until
    two successive passes agree to cfg.adaptive_tol (relative); targets with
    declared kinks skip straight to adaptive subdivision, as do smooth ones
    that fail to stabilize within cfg.max_refinement_depth doublings. A
    non-finite pass never counts as converged, and a non-finite adaptive
    estimate raises ConvergenceFailure.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    rate = getattr(g, "growth_rate", 0.0)
    if u <= rate:
        raise DivergentIntegral(f"integral diverges: u={u} <= growth rate {rate}")

    if isinstance(g, BlackBox) and g.kinks:
        return _adaptive_fallback(u, j, g, cfg.adaptive_tol)

    order = cfg.laguerre_order
    prev = _gauss_laguerre_pass(u, j, g, order)
    for _ in range(cfg.max_refinement_depth):
        order *= 2
        cur = _gauss_laguerre_pass(u, j, g, order)
        diff = abs(cur - prev)
        scale = max(abs(cur), abs(prev), 1e-300)
        # inf <= inf holds: an overflowed pass must never count as converged
        if math.isfinite(diff) and diff <= cfg.adaptive_tol * scale:
            return QuadratureResult(cur, diff)
        prev = cur
    result = _adaptive_fallback(u, j, g, cfg.adaptive_tol)
    if abs(result.error) > max(abs(result.value), 1e-300) * 1e-6:
        raise ConvergenceFailure(
            f"inner integral did not stabilize (u={u}, j={j}): "
            f"estimate {result.value} with error {result.error}"
        )
    return result


def basis_integral(
    u: float,
    j: int,
    g: TargetFunction,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> QuadratureResult:
    """Inner integral, exact when the target structure allows it."""
    terms = exppoly_terms(g)
    if terms is None:
        return numeric_basis_integral(u, j, g, cfg)
    total = 0.0
    for coeff, m, a in terms:
        total += coeff * exact_basis_integral_exppoly(u, j, m, a)
    return QuadratureResult(total, 0.0)

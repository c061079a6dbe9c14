"""Szasz basis weights, the tail mass of a truncated series, and input guards.

The basis weight s_{u,j}(x) = e^{-ux} (ux)^j / j! is a Poisson probability
mass in j with mean ux, so the mass a series cut after index J neglects is
the regularized incomplete gamma function.

_check_point refuses u, x, t or y off its domain (NaN too); _check_whole returns
a whole-number argument (m, J, n, a power) as an int and refuses 2.5, NaN, inf.

scipy.special takes ~0.25 s to import and only tail_mass and log_weights use
it here, so the closed forms never load it: gammainc and gammaln, like
operator.py's names, are bound on first call by _special_on_first_call.
"""
from __future__ import annotations

import math

import numpy as np

_LN_2PI = math.log(2.0 * math.pi)


def _special_on_first_call(namespace: dict, *names: str) -> tuple:
    """Stubs for the scipy.special ufuncs `names` of the module whose globals()
    is namespace.  The first call of any imports scipy.special, rebinds every
    name there to its ufunc, so later calls are scipy's own with no wrapper,
    and forwards the call.  Named _stub: bench/tracer.py skips private names."""
    def stub(name):
        def _stub(*args):
            import scipy.special

            namespace.update((n, getattr(scipy.special, n)) for n in names)
            return namespace[name](*args)
        return _stub

    return tuple(map(stub, names))


gammainc, gammaln = _special_on_first_call(globals(), "gammainc", "gammaln")


def _check_point(u: float, x: float, t: float = 0.0) -> None:
    """Refuse u outside (0, inf) and x, the kernel's t or y outside [0, inf); NaN too."""
    if not (0.0 < u < math.inf):
        raise ValueError(f"u must be positive and finite, got {u}")
    if not (0.0 <= x < math.inf):
        raise ValueError(f"x must be >= 0 and finite, got {x}")
    if not (0.0 <= t < math.inf):
        raise ValueError(f"kernel point t or y must be >= 0 and finite, got {t}")


def _check_whole(v, what: str, least: int = 0) -> int:
    """v as an int, for a whole number v >= least that is not a bool."""
    if type(v) is int and v >= least:  # the common case costs one comparison
        return v
    # compared first: float() would overflow on an int below -DBL_MAX
    if isinstance(v, (bool, np.bool_)) or not (v >= least and float(v).is_integer()):
        raise ValueError(f"{what} must be >= {least} and a whole number, got {v}")
    return int(v)


def _stirling_error(j: np.ndarray) -> np.ndarray:
    """lgamma(j+1) - [(j+1/2)ln j - j + ln(2*pi)/2] for j >= 1."""
    out = np.empty_like(j)
    small = j < 16.0
    if np.any(small):
        js = j[small]
        out[small] = gammaln(js + 1.0) - (js + 0.5) * np.log(js) + js - 0.5 * _LN_2PI
    jl = j[~small]
    inv2 = 1.0 / (jl * jl)
    out[~small] = (
        1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2
    ) / jl
    return out


def _poisson_deviance(j: np.ndarray, lam: float) -> np.ndarray:
    """j*ln(j/lam) + lam - j without cancellation for j near lam."""
    out = np.empty_like(j)
    near = np.abs(j - lam) < 0.1 * (j + lam)
    jf = j[~near]
    with np.errstate(over="ignore"):  # j/lam = inf for a subnormal lam: weight 0
        out[~near] = jf * np.log(jf / lam) + lam - jf
    jn = j[near]
    v = (jn - lam) / (jn + lam)
    s = (jn - lam) * v
    ej = 2.0 * jn * v
    v2 = v * v
    for k in range(1, 60):
        ej = ej * v2
        s_next = s + ej / (2 * k + 1)
        if np.array_equal(s_next, s):
            break
        s = s_next
    out[near] = s
    return out


def log_weights(u: float, x: float, j: np.ndarray) -> np.ndarray:
    """Vectorized ln s_{u,j}(x) for an integer index array.

    Uses the saddle-point form -stirlerr(j) - dev(j, ux) - ln(2*pi*j)/2,
    which avoids the direct j*ln(ux) - ux - lgamma(j+1) form's loss of
    ~1e-8 at ux ~ 1e6.  Near the mode (|j - ux| < 0.1 (j + ux)) the
    deviance is a series without cancellation; away from it
    j*ln(j/ux) + ux - j cancels parts of size j + ux, so the absolute log
    error grows as ~eps_mach (j + ux): measured against 40-digit mpmath,
    1.9e-12 at ux = 1e4, j = 12408 and 6.8e-12 at ux = 3e4, j = 37233.
    At ux = 1e4 the far branch holds only weights below ~e^-180.  Entries
    with j = 0 get exactly -ux; at x = 0 only j = 0 carries weight.
    Raises ValueError for u outside (0, inf), x outside [0, inf) (NaN
    included) or a negative index, and OverflowError where ux overflows.
    """
    _check_point(u, x)
    j = np.asarray(j, dtype=np.float64)
    if j.size and not (j.min() >= 0.0):  # cheaper than np.any on short arrays
        raise ValueError(f"basis index j must be >= 0, got {j.min():g}")
    lam = u * x
    if lam == 0.0:
        return np.where(j == 0.0, 0.0, -np.inf)
    if lam == math.inf:
        raise OverflowError(f"mean ux of the basis weights overflows at u={u}, x={x}")
    out = np.full_like(j, -lam)
    pos = j > 0.0
    jp = j[pos]
    out[pos] = -_stirling_error(jp) - _poisson_deviance(jp, lam) - 0.5 * (
        _LN_2PI + np.log(jp)
    )
    return out


def tail_mass(u: float, x: float, j_last: int) -> float:
    """Neglected Poisson mass sum_{j > j_last} s_{u,j}(x), for a whole j_last >= 0."""
    _check_point(u, x)
    j_last = _check_whole(j_last, "j_last")
    lam = u * x
    if lam == 0.0:
        return 0.0
    # P(X >= j_last+1) for X ~ Poisson(lam) is the regularized lower
    # incomplete gamma function P(j_last+1, lam).
    return float(gammainc(j_last + 1, lam))

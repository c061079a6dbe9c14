"""Target functions g the operator is applied to.

The one structured form, ExpPolySum, is a sum of c * t^m * e^{a t}; a
polynomial is the case where every rate a is 0.  It unlocks the operator's
closed forms; anything else goes through BlackBox with a caller-declared
exponential growth rate, which the operator needs to certify integrability.

parse_target reads literals of this grammar, with spaces allowed between parts:
    literal := ["+" | "-"] term (("+" | "-") term)*, e.g. "-1*t^3*exp(-5*t) + 0.5*t"
    term    := [coeff] [*] [t[^m]] [*] [exp(a[*]t)], not empty, e.g. "t*exp(2t)"
where coeff is an unsigned decimal (2, .5, 1e-2), a a signed one, m a whole number.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .basis import _check_whole


@dataclass(frozen=True)
class ExpPolySum:
    """g(t) = sum of coeff * t^power * exp(rate * t); a zero rate skips the
    exponential, so a polynomial evaluates as one."""

    terms: tuple[tuple[float, int, float], ...]
    # the largest rate, taken once: apply reads it on every call
    growth_rate: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = tuple((c, _check_whole(p, "monomial power"), r) for c, p, r in self.terms)
        object.__setattr__(self, "terms", terms)  # powers as int, for the closed forms
        for coeff, _, rate in terms:
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient must be finite, got {coeff}")
            if not np.isfinite(rate):
                raise ValueError(f"exponential rate must be finite, got {rate}")
        object.__setattr__(self, "growth_rate", max((r for _, _, r in terms), default=0.0))

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for coeff, power, rate in self.terms:
            out = out + coeff * t**power * (np.exp(rate * t) if rate else 1.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class BlackBox:
    """Arbitrary evaluable g with declared exponential growth rate.

    ``growth_rate`` is a promise that |g(t)| = O(e^{growth_rate * t});
    integrability against the basis is only checked through it, never
    inferred.  ``kinks`` lists points where g or g' is not smooth so the
    numeric integrator can split there instead of trusting a global
    smooth-integrand rule.
    """

    fn: Callable[[float], float]
    growth_rate: float
    kinks: tuple[float, ...] = ()
    label: str = "blackbox"

    def __post_init__(self) -> None:
        if not np.isfinite(self.growth_rate):
            raise ValueError(f"growth rate must be finite, got {self.growth_rate}")

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        return map_scalar(self.fn, t) if t.ndim else float(self.fn(float(t)))


def map_scalar(fn: Callable[[float], float], t: np.ndarray) -> np.ndarray:
    """fn at each entry of the array t, one Python call per entry: the one
    place a callable that only takes scalars meets an array of nodes."""
    return np.fromiter(map(fn, t.ravel().tolist()), dtype=np.float64, count=t.size).reshape(t.shape)


def MonomialSum(terms) -> ExpPolySum:
    """The polynomial g(t) = sum of coeff * t^power: the ExpPolySum whose
    terms are the (coeff, power) pairs, each with rate 0.0."""
    return ExpPolySum(tuple((c, p, 0.0) for c, p in terms))


TargetFunction = Union[ExpPolySum, BlackBox]


def exppoly_terms(g: TargetFunction) -> tuple[tuple[float, int, float], ...] | None:
    """Canonical (coeff, power, rate) terms, or None when g is a black box."""
    return g.terms if isinstance(g, ExpPolySum) else None


def exppoly_derivative(g: TargetFunction) -> ExpPolySum:
    """Exact derivative of a structured target, term by term."""
    terms = exppoly_terms(g)
    if terms is None:
        raise ValueError("derivative is only available for structured targets")
    out: list[tuple[float, int, float]] = []
    for coeff, power, rate in terms:
        if power > 0:
            out.append((coeff * power, power - 1, rate))
        if rate != 0.0:
            out.append((coeff * rate, power, rate))
    return ExpPolySum(tuple(out) if out else ((0.0, 0, 0.0),))


BUILTIN_TARGETS: dict[str, TargetFunction] = {
    "one": MonomialSum(((1.0, 0),)),
    "t": MonomialSum(((1.0, 1),)),
    "t2": MonomialSum(((1.0, 2),)),
    "x2e2x": ExpPolySum(((1.0, 2, 2.0),)),
    "negx3e5x": ExpPolySum(((-1.0, 3, -5.0),)),
    "expneg": ExpPolySum(((1.0, 0, -1.0),)),
}

_NUM = r"\d*\.?\d+(?:[eE][+-]?\d+)?"
_TERM = re.compile(
    rf"\s*(?P<sign>[+-])?\s*(?P<coeff>{_NUM})?\s*(?:\*?\s*(?P<t>t)(?:\^(?P<power>\d+))?)?"
    rf"\s*(?:\*?\s*exp\(\s*(?P<rate>[+-]?{_NUM})\s*\*?\s*t\s*\))?\s*(?=[+-]|\Z)"
)


def parse_target(text: str) -> TargetFunction:
    """Resolve a builtin name or parse an exponential-polynomial literal (see
    the module docstring), matching _TERM, one signed term, where the last ended."""
    name = text.strip()
    if name in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name]
    terms: list[tuple[float, int, float]] = []
    pos = 0
    while pos < len(name) or not terms:  # an empty literal is one empty term
        m = _TERM.match(name, pos)
        # a term needs a coeff, a t or an exp, and each term after the first a sign
        if not (m and (m["coeff"] or m["t"] or m["rate"]) and (m["sign"] or pos == 0)):
            raise ValueError(f"cannot parse target term {name[pos:]!r}")
        coeff = float(m["coeff"] or 1.0)
        power = int(m["power"] or 1) if m["t"] else 0
        terms.append((-coeff if m["sign"] == "-" else coeff, power, float(m["rate"] or 0.0)))
        pos = m.end()
    return ExpPolySum(tuple(terms))


def target_label(g: TargetFunction) -> str:
    """Short human-readable formula for table/curve headers."""
    if isinstance(g, BlackBox):
        return g.label
    parts = []
    for coeff, power, rate in g.terms:
        s = f"{coeff:g}"
        if power:
            s += f"*t^{power}" if power > 1 else "*t"
        if rate:
            s += f"*exp({rate:g}t)"
        parts.append(s)
    return " + ".join(parts) if parts else "0"

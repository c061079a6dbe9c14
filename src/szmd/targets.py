"""Target functions g the operator is applied to.

The one structured form, ExpPolySum, is a sum of c * t^m * e^{a t}; a
polynomial is the case where every rate a is 0.  It unlocks exact inner
integrals; anything else goes through BlackBox with a caller-declared
exponential growth rate, which the operator needs to certify integrability.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class ExpPolySum:
    """g(t) = sum of coeff * t^power * exp(rate * t); a zero rate skips the
    exponential, so a polynomial evaluates as one."""

    terms: tuple[tuple[float, int, float], ...]

    def __post_init__(self) -> None:
        for coeff, power, rate in self.terms:
            if power < 0:
                raise ValueError(f"monomial power must be >= 0, got {power}")
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient must be finite, got {coeff}")
            if not np.isfinite(rate):
                raise ValueError(f"exponential rate must be finite, got {rate}")

    @property
    def growth_rate(self) -> float:
        return max((rate for _, _, rate in self.terms), default=0.0)

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
    """fn at each entry of the 1-d array t, one Python call per entry: the
    one place a callable that only takes scalars meets an array of nodes."""
    return np.fromiter(map(fn, t.tolist()), dtype=np.float64, count=t.size)


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

_TERM_RE = re.compile(
    r"^(?P<coeff>\d*\.?\d+(?:[eE][+-]?\d+)?)?"
    r"\s*(?:\*?\s*t(?:\^(?P<power>\d+))?)?"
    r"\s*(?:\*?\s*exp\(\s*(?P<rate>[+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)\s*\*?\s*t\s*\))?$"
)


def _split_terms(expr: str) -> list[str]:
    """Split on top-level +/-, keeping signs attached and exp(...) intact."""
    chunks: list[str] = []
    depth, start = 0, 0
    for i, ch in enumerate(expr):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            if expr[i - 1] not in "eE*^(":
                chunks.append(expr[start:i])
                start = i
    chunks.append(expr[start:])
    return [c.strip() for c in chunks if c.strip()]


def parse_target(text: str) -> TargetFunction:
    """Resolve a builtin name or parse an exponential-polynomial literal.

    Literal grammar: terms joined by '+'/'-', each term
    ``<coeff>[*t[^m]][*exp(a*t)]``, e.g. ``"1*t^2*exp(2*t)"`` or
    ``"-1*t^3*exp(-5*t) + 0.5*t"``.
    """
    name = text.strip()
    if name in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name]
    terms: list[tuple[float, int, float]] = []
    for chunk in _split_terms(name):
        sign = 1.0
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].lstrip()
        m = _TERM_RE.match(body)
        if m is None or not body:
            raise ValueError(f"cannot parse target term {chunk!r}")
        coeff_s, power_s, rate_s = m.group("coeff"), m.group("power"), m.group("rate")
        has_t = "t" in re.sub(r"exp\([^)]*\)", "", body)
        if coeff_s is None and not has_t and rate_s is None:
            raise ValueError(f"cannot parse target term {chunk!r}")
        coeff = sign * (float(coeff_s) if coeff_s else 1.0)
        power = int(power_s) if power_s else (1 if has_t else 0)
        rate = float(rate_s) if rate_s else 0.0
        terms.append((coeff, power, rate))
    if not terms:
        raise ValueError(f"unknown target {text!r}")
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

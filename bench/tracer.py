"""Span tracing from outside the library.

Every public function of the szmd modules is replaced, at every module that
binds it, by one wrapper that records a span (name, start, end, parent span,
operation id). ``scipy.integrate.quad`` is wrapped as ``scipy.quad``, and
``BlackBox.__call__`` counts target evaluations. Spans stay in memory and
are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("basis", "quadrature", "operator", "targets", "moments", "bounds", "report")
_MARK = "_bench_traced"


def _size_of(arg: str):
    """Counter hook: number of elements in argument ``arg``."""

    def hook(sig, args, kwargs, result):
        try:
            return int(np.size(sig.bind(*args, **kwargs).arguments[arg]))
        except (TypeError, KeyError):
            return 0

    return hook


def _field(name: str):
    """Counter hook: integer field ``name`` of the result."""

    def hook(sig, args, kwargs, result):
        return int(getattr(result, name, 0))

    return hook


#: span name -> (counter name, hook)
COUNTERS = {
    "basis.log_weights": ("basis.log_weights.elems", _size_of("j")),
    "quadrature.log_exppoly_integrals": ("quadrature.log_exppoly_integrals.elems", _size_of("j")),
    "operator.apply": ("operator.series_terms", _field("series_terms_used")),
    "bounds.total_variation": ("bounds.total_variation.samples", _field("samples")),
}


def _szmd_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "szmd" or name.startswith("szmd."))]


def _public_functions(module):
    """(attribute, object, span name) for each public szmd function bound here."""
    for attr, obj in vars(module).items():
        if isinstance(obj, type) or not callable(obj) or not hasattr(obj, "__name__"):
            continue
        owner = getattr(obj, "__module__", "") or ""
        layer = owner.rpartition(".")[2]
        if owner.startswith("szmd.") and layer in LAYERS and not obj.__name__.startswith("_"):
            yield attr, obj, f"{layer}.{obj.__name__}"


def installed_wrappers() -> list[str]:
    """Names of every tracing wrapper currently in place (empty when untraced)."""
    import scipy.integrate

    found = [f"{m.__name__}.{attr}" for m in _szmd_modules()
             for attr, obj in vars(m).items() if getattr(obj, _MARK, False)]
    if getattr(scipy.integrate.quad, _MARK, False):
        found.append("scipy.integrate.quad")
    targets = sys.modules.get("szmd.targets")
    if targets is not None and getattr(targets.BlackBox.__call__, _MARK, False):
        found.append("szmd.targets.BlackBox.__call__")
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op_id)
            if counter:
                self.counts[counter[0]] += counter[1](sig, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        import scipy.integrate

        wrappers: dict[int, object] = {}
        for module in _szmd_modules():
            for attr, obj, name in list(_public_functions(module)):
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj)
                setattr(module, attr, wrappers[id(obj)])
        scipy.integrate.quad = self.wrap("scipy.quad", scipy.integrate.quad)

        black_box = sys.modules["szmd.targets"].BlackBox
        original_call = black_box.__call__
        counts = self.counts

        @functools.wraps(original_call)
        def counting_call(box, t):
            counts["targets.g_evals"] += int(np.size(t))
            return original_call(box, t)

        setattr(counting_call, _MARK, True)
        black_box.__call__ = counting_call

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s (total minus child spans)."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for idx, (nid, t0, t1, _, _) in enumerate(self.spans):
            agg = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[idx]
        return out

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines: a header with the name table, then one
        [name, start, end, parent, op] list per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields":
                                 ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

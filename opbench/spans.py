"""Span tracer for the traced benchmark pass; changes nothing under src/.

``Tracer.install`` wraps the public functions of every opertau module, the
public methods and arithmetic dunders of the classes they define, and
rebinds every module-level name that refers to a wrapped function, so a
call resolved through ``opertau.krichever.tau_schur`` is traced as well as
one through ``opertau.grass.tau_schur``.  ``uninstall`` restores the
originals.

Every wrapped call inside an op is counted.  A call opens a span (name,
start, end, parent, op id) when it crosses from one module into another,
or when its function has a named time metric; calls that stay inside the
caller's module add no span, so their time stays in the caller's span.  A
module's self time is the duration of its spans minus the time their
child spans cover.  Generator functions and properties are not wrapped:
their time counts towards the caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from time import perf_counter

LAYERS = (
    "times", "psido", "series", "krichever", "grass", "schur", "linalg",
    "dmodule", "oper", "kdv", "toda", "hecke", "singular",
)
SKIP_MODULES = {"opertau.cli", "opertau.errors"}
# tiny helpers called per coefficient or per monomial pair; wrapping them
# would charge the tracer's cost to their callers
SKIP_NAMES = {"rat", "weight"}
DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__pow__",
}
# functions with an inclusive-time metric always open a span
TIMED = {
    "psido.nth_root": "psido.nth_root_s",
    "krichever.wave_columns": "krichever.wave_columns_s",
    "grass.hirota_residual": "grass.hirota_residual_s",
    "grass.tau_schur": "grass.tau_schur_s",
    "grass.tau_determinant": "grass.tau_determinant_s",
    "kdv.zs_residual": "kdv.zs_residual_s",
    "toda.toda_tau": "toda.toda_tau_s",
    "hecke.verify_relations": "hecke.verify_relations_s",
    "hecke.WedgeReducer.__init__": "hecke.wedge_reducer_s",
    "hecke.WedgeReducer.reduce": "hecke.wedge_reducer_s",
}
COUNTED = {
    "times.mul_calls": "times.TimesSeries.__mul__",
    "times.invert_calls": "times.TimesSeries.invert",
    "times.exp_calls": "times.TimesSeries.exp",
    "psido.compose_calls": "psido.compose",
    "psido.nth_root_calls": "psido.nth_root",
    "series.mul_calls": "series.TruncSeries.__mul__",
    "krichever.dressing_calls": "krichever.dressing",
    "grass.plucker_calls": "grass.plucker",
    "linalg.det_calls": "linalg.det",
    "linalg.nullspace_calls": "linalg.nullspace",
    "hecke.qpoly_mul_calls": "hecke.QPoly.__mul__",
}


def _times_pairs(args, result):
    a, b = args
    if type(a) is type(b):  # series times series; scalar products have no pairs
        return "times.mul_pairs", len(a.terms) * len(b.terms)
    return None


def _plucker_nonzero(args, result):
    return ("grass.plucker_nonzero", 1) if result != 0 else None


HOOKS = {
    "times.TimesSeries.__mul__": _times_pairs,
    "grass.plucker": _plucker_nonzero,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = ["bench.op"]  # id 0: the root span of an op
        self.spans: list = []  # (name id, start, end, parent span, op id)
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.stack_module: list[str] = []
        self.op_id: int | None = None
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("opertau") and m is not None and name not in SKIP_MODULES
        ]
        originals: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or attr in SKIP_NAMES:
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value, short)
                elif _is_plain_callable(value):
                    label = f"{short}.{attr}"
                    originals[id(value)] = (value, self._wrapper(value, label, short))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls: type, short: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            label = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                fn = value.__func__
                if not _is_plain_callable(fn):
                    continue
                new = type(value)(self._wrapper(fn, label, short))
            elif isinstance(value, types.FunctionType) and not inspect.isgeneratorfunction(value):
                # aliases such as __rmul__ = __mul__ count under one name
                label = f"{short}.{cls.__name__}.{value.__name__}"
                new = self._wrapper(value, label, short)
            else:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrapper(self, fn, label: str, module: str):
        always = label in TIMED
        hook = HOOKS.get(label)
        name_id = len(self.names)
        self.names.append(label)
        counts = self.counts
        spans = self.spans
        stack = self.stack
        stack_module = self.stack_module

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            counts[label] = counts.get(label, 0) + 1
            if not always and stack_module[-1] == module:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                stack_module.append(module)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    stack_module.pop()
                    spans[idx] = (name_id, start, end, stack[-1], self.op_id)
            if hook is not None:
                extra = hook(args, result)
                if extra is not None:
                    counts[extra[0]] = counts.get(extra[0], 0) + extra[1]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- ops ------------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named bench.op."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.stack_module.append("bench")
        self.op_id = op_id
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.op_id = None
            self.stack.pop()
            self.stack_module.pop()
            self.spans[idx] = (0, start, end, -1, op_id)

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            module = self.names[name_id].split(".")[0]
            out[module] = out.get(module, 0.0) + (end - start) - child[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Per TIMED metric: time in outermost spans of its functions."""
        out = {metric: 0.0 for metric in TIMED.values()}
        for name_id, start, end, parent, _ in self.spans:
            label = self.names[name_id]
            metric = TIMED.get(label)
            if metric is None:
                continue
            p = parent
            nested = False
            while p >= 0:
                outer = self.names[self.spans[p][0]]
                if TIMED.get(outer) == metric:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[metric] += end - start
        return out

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts, **extra},
                fh,
                separators=(",", ":"),
            )


def _is_plain_callable(value) -> bool:
    if isinstance(value, types.FunctionType):
        return not inspect.isgeneratorfunction(value)
    return hasattr(value, "cache_info") and callable(value)  # lru_cache wrapper

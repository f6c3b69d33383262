"""Per-layer spans recorded from outside the program.

A layer is one module of ``moravak``.  Its targets are the module's
public functions, the public methods, static and class methods of its
public classes, and their constructors (``__init__``, or
``__post_init__`` for dataclasses).  Installing the tracer rebinds every
binding of a target in every ``moravak.*`` namespace, so names that one
module imported from another with ``from ... import`` are timed too;
methods are wrapped on their class.  Nothing in the program changes.

A span's self time is its duration minus the time of the spans it
caused.  Spans are aggregated per target as they close.

The per-monomial and per-bit helpers in ``LEAF_HELPERS`` are left
unwrapped: they run once per monomial or set bit, and wrapping them
would multiply the run time instead of observing it.  Their time is
charged to the span that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from math import comb
from time import perf_counter

LAYERS = ("cli", "spacefile", "f2alg", "gf2", "steenrod", "ahss", "rbk",
          "fgl", "twistgroup", "obstruct")

LEAF_HELPERS = frozenset({
    "f2alg.monomial",
    "f2alg.format_monomial",
    "f2alg.PresentedAlgebra.monomial_degree",
    "f2alg.PresentedAlgebra.laurent_free_degree",
    "f2alg.PresentedAlgebra.monomial_key",
    "f2alg.PresentedAlgebra.degrees_of",
    "f2alg.PresentedAlgebra.degree_of",
    "gf2.bits",
    "gf2.apply_columns",
    "twistgroup.clmul",
    "fgl.Series.coefficient",
})

# metric prefix -> the targets whose spans it sums; rendering is
# Report.render and the two formatters it calls
FUNCTIONS = {
    "gf2.reduce_rows": ("gf2.reduce_rows",),
    "gf2.reduce_vector": ("gf2.reduce_vector",),
    "gf2.kernel_basis": ("gf2.kernel_basis",),
    "f2alg.reduce": ("f2alg.PresentedAlgebra.reduce",),
    "f2alg.mul": ("f2alg.PresentedAlgebra.mul",),
    "f2alg.basis": ("f2alg.PresentedAlgebra.basis",),
    "steenrod.sq": ("steenrod.sq",),
    "steenrod.milnor_q": ("steenrod.milnor_q",),
    "steenrod.SqAction": ("steenrod.SqAction",),
    "ahss.first_differential": ("ahss.first_differential",),
    "ahss.turn_page": ("ahss.turn_page",),
    "rbk.bar_e2": ("rbk.bar_e2",),
    "rbk.tor": ("rbk.tor",),
    "cli.build_parser": ("cli.build_parser",),
    "cli.render": ("cli.Report.render", "cli.Report.to_json", "cli.Report.to_text"),
}


def _bar_complex_dim(args, kwargs, result) -> dict:
    """Total dimension of the bar complex bar_e2 builds: rank(P) copies
    per multi-index of size 0 .. max_degree + 1 over K factors."""
    P = args[0]
    top = kwargs.get("max_degree", args[2] if len(args) > 2 else 4) + 1
    K = P.truncation
    return {"complex_dim": P.rank * sum(comb(m + K - 1, K - 1) for m in range(top + 1))}


COUNTERS = {
    "gf2.reduce_rows": lambda args, kwargs, result: {
        "rows_in": len(args[0]), "rank_out": len(result)},
    "ahss.first_differential": lambda args, kwargs, result: {
        "columns": sum(len(cols) for cols in result.diff.values())},
    "rbk.bar_e2": _bar_complex_dim,
    "cli.Report.render": lambda args, kwargs, result: {
        "bytes": len(result.encode())},
}


def _materialize_rows(args, kwargs):
    """reduce_rows takes any iterable; a list can be counted and still
    consumed once by the callee."""
    if "rows" in kwargs:
        kwargs = dict(kwargs, rows=list(kwargs["rows"]))
    else:
        args = (list(args[0]),) + args[1:]
    return args, kwargs


ARGUMENT_HOOKS = {"gf2.reduce_rows": _materialize_rows}


class TraceError(RuntimeError):
    """A target named by the benchmark is missing from the program."""


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[list] = []  # [layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- discovery ----------------------------------------------------------

    @staticmethod
    def targets() -> dict[str, tuple[str, object, str, object]]:
        """span name -> (layer, owner, attribute, original) for every target."""
        out = {}
        for layer in LAYERS:
            module = sys.modules.get(f"moravak.{layer}")
            if module is None:
                raise TraceError(f"layer module moravak.{layer} is not imported")
            found = 0
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    out[f"{layer}.{name}"] = (layer, module, name, obj)
                    found += 1
                elif inspect.isclass(obj):
                    ctor = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
                    if ctor in vars(obj):
                        out[f"{layer}.{name}"] = (layer, obj, ctor, vars(obj)[ctor])
                    for attr, member in vars(obj).items():
                        if attr.startswith("_"):
                            continue
                        if isinstance(member, (staticmethod, classmethod)) or \
                                inspect.isfunction(member):
                            out[f"{layer}.{name}.{attr}"] = (layer, obj, attr, member)
                    found += 1
            if not found:
                raise TraceError(f"layer {layer} has no public functions to time")
        for spans in FUNCTIONS.values():
            for span in spans:
                if span not in out:
                    raise TraceError(f"trace target {span} is not in the program")
        for span in LEAF_HELPERS:
            if span not in out:
                raise TraceError(f"leaf helper {span} is not in the program")
        return {span: t for span, t in out.items() if span not in LEAF_HELPERS}

    # -- install / remove ---------------------------------------------------

    def install(self):
        errors_module = sys.modules["moravak.errors"]
        namespaces = [m for name, m in sys.modules.items()
                      if name == "moravak" or name.startswith("moravak.")]
        for span, (layer, owner, attr, original) in self.targets().items():
            if inspect.isclass(owner):
                self._patch(owner, attr, self._wrap_member(span, layer, original,
                                                           errors_module.MoravakError))
                continue
            wrapper = self._wrap(span, layer, original, errors_module.MoravakError)
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, name, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_member(self, span, layer, member, error_type):
        if isinstance(member, staticmethod):
            return staticmethod(self._wrap(span, layer, member.__func__, error_type))
        if isinstance(member, classmethod):
            return classmethod(self._wrap(span, layer, member.__func__, error_type))
        return self._wrap(span, layer, member, error_type)

    def _wrap(self, span, layer, fn, error_type):
        stat = self.stats.setdefault(span, Stat())
        stack = self._stack
        errors = self.errors
        hook = ARGUMENT_HOOKS.get(span)
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if len(stack) < 2 or stack[-2][0] != layer:
                    errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stat.counters[key] = stat.counters.get(key, 0) + value
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer and per-function metrics, each per pass."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            spans = [s for name, s in self.stats.items()
                     if name.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = (sum(s.self_s for s in spans) / passes, "s")
            out[f"{layer}.calls"] = (sum(s.calls for s in spans) / passes, "count")
            out[f"{layer}.errors"] = (self.errors[layer] / passes, "count")
        def spans(prefix):
            return [self.stats[span] for span in FUNCTIONS[prefix] if span in self.stats]

        def calls(prefix):
            return sum(s.calls for s in spans(prefix))

        def self_s(prefix):
            return sum(s.self_s for s in spans(prefix))

        def counter(prefix, key):
            return sum(s.counters.get(key, 0) for s in spans(prefix))

        rows_in = counter("gf2.reduce_rows", "rows_in")
        out["gf2.reduce_rows.rows_in"] = (rows_in / passes, "count")
        out["gf2.reduce_rows.useful_ratio"] = (
            counter("gf2.reduce_rows", "rank_out") / rows_in if rows_in else 0.0, "ratio")
        for prefix in ("gf2.reduce_vector", "gf2.kernel_basis", "f2alg.reduce",
                       "f2alg.mul", "steenrod.sq", "steenrod.milnor_q", "rbk.tor"):
            out[f"{prefix}.calls"] = (calls(prefix) / passes, "count")
        for prefix in ("f2alg.basis", "steenrod.SqAction", "ahss.turn_page",
                       "cli.build_parser", "cli.render"):
            out[f"{prefix}.self_s"] = (self_s(prefix) / passes, "s")
        out["ahss.first_differential.columns"] = (
            counter("ahss.first_differential", "columns") / passes, "count")
        out["rbk.bar_e2.complex_dim"] = (counter("rbk.bar_e2", "complex_dim") / passes,
                                         "count")
        out["cli.render.bytes"] = (counter("cli.render", "bytes") / passes, "bytes")
        return out

"""Outside-in tracing of arrowcat's layers.

The tracer rebinds each layer's public functions, in every ``arrowcat.*``
namespace that holds them, to wrappers that record one span per call:
(name, entry, start, end, exit, parent span, item id).  Rebinding the
defining module also catches function-local ``from .x import f`` imports.
``LinearSystem.solve`` and ``LinearSystem.homogeneous_basis`` are wrapped on
the class.  Modules that are not layers (``intmat``, ``basemor``, ``core2``,
``matrix2``, ...) are never wrapped, so their time counts toward the self
time of their nearest wrapped caller.

Wrapper bookkeeping (argument freezing, counters) happens between the entry
and start stamps and between the end and exit stamps, so it is charged to
no layer.  Each item is a root span named ``item``.  The program itself is
unchanged.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter_ns

# Layers are named after arrowcat modules, bottom-up.
LAYERS = (
    "snf", "modsolve", "baselin", "limits2", "classify2", "factor2",
    "sequences", "puppe", "snake", "anaconda", "les", "lemmas",
)
CALL_LAYERS = ("snf", "modsolve", "baselin", "limits2", "classify2", "sequences")
REPEAT_LAYERS = ("snf", "baselin", "limits2", "classify2")
METHODS = (("baselin", "LinearSystem", "solve"), ("baselin", "LinearSystem", "homogeneous_basis"))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        if layer in CALL_LAYERS:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in REPEAT_LAYERS:
            units[f"{layer}.repeat_share"] = "share"
    units["snf.smith_normal_form.calls"] = "count"
    units["snf.solve_int.calls"] = "count"
    units["snf.sum_cells"] = "count"
    units["snf.max_entry_bits"] = "bits"
    return units


def import_all_modules() -> None:
    """Import every arrowcat module so that every namespace can be patched."""
    import arrowcat

    for info in pkgutil.iter_modules(arrowcat.__path__):
        if info.name != "__main__":
            importlib.import_module(f"arrowcat.{info.name}")


def _freeze(x):
    """A hashable value equal for equal arguments, or raise TypeError."""
    if x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, _freeze(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        params = type(x).__dataclass_params__
        if params.frozen and params.eq:
            try:
                hash(x)
                return x
            except TypeError:
                pass
        return (type(x).__qualname__,) + tuple(_freeze(getattr(x, f.name)) for f in dataclasses.fields(x))
    if hasattr(x, "__dict__"):
        return (type(x).__qualname__, _freeze(vars(x)))
    hash(x)
    return x


def _max_bits(x) -> int:
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, (list, tuple)):
        return max((_max_bits(v) for v in x), default=0)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return max((_max_bits(getattr(x, f.name)) for f in dataclasses.fields(x)), default=0)
    return 0


class Tracer:
    """Spans and counters for the wrapped layers of one process."""

    def __init__(self, callers: tuple[str, ...] = ()):
        """callers: names of benchmark modules that also call layer functions
        by name; their references are rebound too."""
        import_all_modules()
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1
        self.calls: Counter = Counter()
        self.repeats: Counter = Counter()
        self.keyed: Counter = Counter()
        self.snf_cells = 0
        self.snf_bits = 0
        self._seen: set = set()
        self._patches: list = []
        self._build_patches(set(callers))

    # -- patching ---------------------------------------------------------
    def _build_patches(self, callers: set[str]) -> None:
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"arrowcat.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "arrowcat" or modname.startswith("arrowcat.") or modname in callers):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj, hit[1]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"arrowcat.{layer}"], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn, self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn)))

    def install(self, item: int) -> None:
        self.item = item
        for owner, name, _orig, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig, _wrapper in self._patches:
            setattr(owner, name, orig)
        self.item = -1

    def _wrap(self, layer: str, qualname: str, fn):
        count_repeats = layer in REPEAT_LAYERS
        is_snf = layer == "snf"
        is_sf = qualname == "snf.smith_normal_form"
        sig = inspect.signature(fn) if is_sf else None
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            tracer.calls[qualname] += 1
            if count_repeats:
                try:
                    key = (qualname, _freeze(args), _freeze(kwargs))
                except TypeError:
                    key = None
                if key is not None:
                    tracer.keyed[layer] += 1
                    if key in tracer._seen:
                        tracer.repeats[layer] += 1
                    else:
                        tracer._seen.add(key)
            if is_sf:
                bound = sig.bind(*args, **kwargs)
                tracer.snf_cells += bound.arguments["nrows"] * bound.arguments["ncols"]
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[sid] = (qualname, t0, start, end, end, parent, tracer.item)
            if is_snf:
                tracer.snf_bits = max(tracer.snf_bits, _max_bits(result))
                tracer.spans[sid] = (qualname, t0, start, end, perf_counter_ns(), parent, tracer.item)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- item roots -------------------------------------------------------
    def run_item(self, item: int, fn, *args):
        """Run fn(*args) as the root span of one item, with the layers wrapped."""
        self.install(item)
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans[sid] = ("item", start, start, end, end, -1, item)
            self.uninstall()

    # -- output -----------------------------------------------------------
    def summary(self) -> dict:
        """Counters and per-layer self time, derived from the spans."""
        cover = Counter()
        for span in self.spans:
            if span is not None and span[5] >= 0:
                cover[span[5]] += span[4] - span[1]
        self_ns = Counter()
        for sid, span in enumerate(self.spans):
            if span is not None:
                name, _t0, start, end = span[:4]
                self_ns[name.split(".", 1)[0]] += (end - start) - cover[sid]
        return {
            "calls": dict(self.calls),
            "repeats": dict(self.repeats),
            "keyed": dict(self.keyed),
            "self_ns": dict(self_ns),
            "snf_cells": self.snf_cells,
            "snf_bits": self.snf_bits,
        }

    def write(self, path) -> None:
        """Write the spans (one JSON array per line) and the summary."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": self.summary()}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def merge_summaries(parts: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    total = {"calls": Counter(), "repeats": Counter(), "keyed": Counter(), "self_ns": Counter(),
             "snf_cells": 0, "snf_bits": 0}
    for part in parts:
        for key in ("calls", "repeats", "keyed", "self_ns"):
            total[key].update(part[key])
        total["snf_cells"] += part["snf_cells"]
        total["snf_bits"] = max(total["snf_bits"], part["snf_bits"])
    return total


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values from a (merged) summary."""
    calls = Counter()
    for qualname, n in summary["calls"].items():
        calls[qualname.split(".", 1)[0]] += n
    out = {}
    for layer in LAYERS:
        if layer in CALL_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = summary["self_ns"].get(layer, 0) / 1e9
        if layer in REPEAT_LAYERS:
            keyed = summary["keyed"].get(layer, 0)
            out[f"{layer}.repeat_share"] = summary["repeats"].get(layer, 0) / keyed if keyed else 0.0
    out["snf.smith_normal_form.calls"] = summary["calls"].get("snf.smith_normal_form", 0)
    out["snf.solve_int.calls"] = summary["calls"].get("snf.solve_int", 0)
    out["snf.sum_cells"] = summary["snf_cells"]
    out["snf.max_entry_bits"] = summary["snf_bits"]
    return out

"""Per-layer spans recorded from outside the package.

The package resolves every cross-module call through a module attribute
(``cli.load_csv``, ``mfdfa.detect_multiple``, ``forecast.gph_estimate``
...), so wrapping the public functions of each layer at the attributes of
the other modules that name them records a span for each call into the
layer without touching the package. A layer's self time is its span
durations minus the part covered by child spans; ``cli`` is the glue left
over: op time minus the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

LAYERS = ("series", "changepoint", "mfdfa", "surrogate", "longmemory", "forecast", "serialize")
COUNTERS = (
    "series.rows", "changepoint.breaks", "mfdfa.surfaces", "mfdfa.windows", "surrogate.members",
    "surrogate.failed", "forecast.train_calls", "forecast.lm_steps", "serialize.files",
    "serialize.bytes",
)
PACKAGE = "smfdfa"
# Calls made inside their own module are wrapped only where a counter reads
# them; wrapping every one would also trace recursive helpers such as
# serialize.clean once per JSON element.
SAME_MODULE_HOOKS = {
    ("mfdfa", "fluctuation_surface"),
    ("surrogate", "make_ensemble"),
    ("forecast", "train_nar"),
}


def _count(counts: Counter, name: str, args, kwargs, result) -> None:
    """Work counters taken from the arguments and results of layer calls."""
    if name == "load_csv":
        counts["series.rows"] += len(result.values)
    elif name == "detect_multiple":
        counts["changepoint.breaks"] += result.n_breaks
    elif name == "fluctuation_surface":
        counts["mfdfa.surfaces"] += 1
        counts["mfdfa.windows"] += int(result.n_windows.sum())
    elif name == "make_ensemble":
        counts["surrogate.members"] += result.n_surrogates
    elif name == "surrogate_test":
        counts["surrogate.failed"] += result.n_failed
    elif name == "train_nar":
        counts["forecast.train_calls"] += 1
        counts["forecast.lm_steps"] += len(result.loss_trace) - 1
    elif name in ("write_json", "write_csv"):
        counts["serialize.files"] += 1
        path = args[0] if args else kwargs["path"]
        counts["serialize.bytes"] += os.path.getsize(path)


def package_modules() -> dict:
    """The CLI module and every layer module, by short name."""
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in ("cli", *LAYERS)}


class Tracer:
    """Records spans (layer, function, start, end, parent index) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, fn.__name__, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            _count(counts, fn.__name__, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public layer functions at the module attributes naming them:
        in other modules, and in their own module for SAME_MODULE_HOOKS."""
        wrapped = {}
        for module_name, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"{PACKAGE}.{layer}" or layer not in LAYERS:
                    continue
                if layer == module_name and (layer, attr) not in SAME_MODULE_HOOKS:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(layer, obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summarize(self, op_s: float) -> dict:
        """Self seconds per layer (cli = op minus top-level spans), outermost
        entries per layer, seconds inside train_nar, and the work counters."""
        child_s = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        top_s = 0.0
        train_s = 0.0
        entries = Counter()
        for (layer, name, start, end, parent), inner in zip(self.spans, child_s):
            out[f"{layer}.self_s"] += end - start - inner
            if parent < 0:
                top_s += end - start
            if parent < 0 or self.spans[parent][0] != layer:
                entries[layer] += 1
            if name == "train_nar":
                train_s += end - start
        out["cli.self_s"] = op_s - top_s
        out["changepoint.calls"] = entries["changepoint"]
        out["longmemory.calls"] = entries["longmemory"]
        out["forecast.train_s"] = train_s
        out.update({k: self.counts[k] for k in COUNTERS})
        return out

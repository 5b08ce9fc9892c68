"""Outside-in spans around every public function and class of focalis.

The tracer is installed in a report's child process only, after the fork, so
the parent and every untraced report run the unmodified library.  Each
layer is one focalis module.  Its public functions are replaced by timing
wrappers in every focalis namespace that binds them, for example
``hyperpolar.restricted_root_decomposition`` and ``roots.load_algebra`` as
well as the originals.  Class construction is timed by wrapping
``__init__``.  A span is ``[name, start, end, parent, repeat]``.  ``repeat``
marks an evaluation that repeats one already made on the same argument
objects within the report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "spectral", "focal", "geomodel", "transport",
          "algebras", "roots", "hyperpolar", "greenop")

# evaluations whose repeats on the same objects count as wasted work
REPEAT_GROUPS = {
    "spectral.reg_trace_info": "spectral",
    "spectral.trace_square_info": "spectral",
    "spectral.zeta_trace_info": "spectral",
    "focal.focal_set": "focal.focal_set",
}


def _io_bytes(tracer, bound):
    path = next(iter(bound.arguments.values()))
    try:
        tracer.counters["io.bytes_read"] += os.path.getsize(path)
    except (OSError, TypeError):
        pass        # the library reports the bad path itself


def _transport_steps(tracer, bound):
    """Aligned step count of a transport_path call, from its arguments."""
    u, steps = bound.arguments["u"], bound.arguments["steps"]
    s = u.n_intervals
    if isinstance(steps, int) and steps >= 1:
        tracer.counters["transport.steps"] += math.ceil(steps / s) * s


def _hook_for(name: str):
    if name.startswith("io.read_"):
        return _io_bytes
    if name == "transport.transport_path":
        return _transport_steps
    return None


class Tracer:
    """Span recorder for one report."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._seen = {}     # repeat key -> arguments, kept alive so ids stay unique

    def wrap(self, fn, name: str):
        spans, stack, seen = self.spans, self._stack, self._seen
        hook = _hook_for(name)
        signature = inspect.signature(fn) if hook else None
        group = REPEAT_GROUPS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            repeat = 0
            if group:
                key = (name, *map(id, args), *((k, id(v)) for k, v in kwargs.items()))
                repeat = int(key in seen)
                seen[key] = (args, kwargs)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, repeat]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def install(self):
        """Wrap every public function and class defined in a layer module."""
        modules = {layer: importlib.import_module(f"focalis.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not issubclass(obj, BaseException)):
                    obj.__init__ = self.wrap(obj.__init__, f"{layer}.{attr}")
        for mod in [importlib.import_module("focalis"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(mod, attr, wrapper)


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children.

    Children of one span run one after another inside it (one thread), so
    their durations sum to the time they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


class LayerStats:
    """Per-layer aggregates over the traced reports of one run."""

    def __init__(self):
        self.reports = 0
        self.report_s = 0.0          # child-measured time around main(argv)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.evals = Counter()
        self.repeats = Counter()
        self.counters = Counter()

    def add(self, spans, counters, elapsed: float):
        self.reports += 1
        self.report_s += elapsed
        self.counters.update(counters)
        for (name, _, _, _, repeat), own in zip(spans, self_times(spans)):
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                self.self_s[key] += own
                self.calls[key] += 1
            group = REPEAT_GROUPS.get(name)
            if group:
                self.evals[group] += 1
                self.repeats[group] += repeat

    @property
    def traced_self_s(self) -> float:
        return sum(self.self_s[layer] for layer in LAYERS)

    def value(self, metric: str) -> float:
        """Value of a per-layer metric; times and counts are means per report."""
        n = max(self.reports, 1)
        key, _, stat = metric.rpartition(".")
        if stat == "self_s":
            return self.self_s[key] / n
        if stat == "calls":
            return self.calls[key] / n
        if stat == "self_frac":
            return self.self_s[key] / self.traced_self_s if self.traced_self_s else 0.0
        if stat == "repeat_frac":
            return self.repeats[key] / self.evals[key] if self.evals[key] else 0.0
        if metric in ("io.bytes_read", "transport.steps", "cli.bytes_written"):
            return self.counters[metric] / n
        raise KeyError(metric)

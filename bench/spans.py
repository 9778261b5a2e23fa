"""Span tracing of maxext's layers from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span. The replacement is made under every name the function
is bound to inside maxext, so calls through re-exports (`from .special
import erfc`) are traced as well. Classes are not wrapped. Spans stay in
memory until the run writes them out.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("special", "maxwell", "norming", "expansions", "exact", "montecarlo", "cli")

# Work counted at a boundary from the call's arguments: the number of Maxwell
# variates a `sample` call draws, and the substreams (one per repetition)
# that `simulate_powered_maxima` opens under its documented substream rule.
ARG_COUNTS = {
    "maxwell.sample": ("maxwell.sample.variates",
                       lambda a, k: int(k.get("size", a[2] if len(a) > 2 else 1) or 1)),
    "montecarlo.simulate_powered_maxima": ("montecarlo.substreams",
                                           lambda a, k: int((a[0] if a else k["cfg"]).reps)),
}

# A span is stored as [name, start, end, parent index]; -1 marks a root span.
NAME, START, END, PARENT = range(4)


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans of calls into the maxext layers while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = ARG_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer's public functions under all of their maxext names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"maxext.{layer}")
            if module is None:
                __import__(f"maxext.{layer}")
                module = sys.modules[f"maxext.{layer}"]
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "maxext" and not modname.startswith("maxext."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        """Restore every original function."""
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-operation call counts and self times of the layers, by metric name."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    ks_children = 0
    for span, own in zip(spans, selfs):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        self_s[name] += own
        self_s[layer] += own
        total_s[name] += span[END] - span[START]
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == "montecarlo.ks_distance":
            ks_children += 1
    per_op = 1.0 / max(ops, 1)
    return {
        "cli.compute_s": total_s["cli.main"] / max(calls["cli.main"], 1),
        "special.calls": calls["special"] * per_op,
        "special.self_s": self_s["special"] * per_op,
        "maxwell.survival.calls": calls["maxwell.survival"] * per_op,
        "maxwell.self_s": self_s["maxwell"] * per_op,
        "norming.solve_bn.calls": calls["norming.solve_bn"] * per_op,
        "norming.solve_bn.self_s": self_s["norming.solve_bn"] * per_op,
        "expansions.calls": calls["expansions"] * per_op,
        "expansions.self_s": self_s["expansions"] * per_op,
        "exact.calls": calls["exact"] * per_op,
        "exact.self_s": self_s["exact"] * per_op,
        "maxwell.sample.calls": calls["maxwell.sample"] * per_op,
        "maxwell.sample.variates": counts.get("maxwell.sample.variates", 0) * per_op,
        "maxwell.sample.self_s": self_s["maxwell.sample"] * per_op,
        "montecarlo.simulate.self_s": self_s["montecarlo.simulate_powered_maxima"] * per_op,
        "montecarlo.substreams": counts.get("montecarlo.substreams", 0) * per_op,
        "montecarlo.ks_distance.self_s": self_s["montecarlo.ks_distance"] * per_op,
        "montecarlo.ks_distance.reference_calls": ks_children * per_op,
    }

"""Spans around calls into pactkit's public functions, from outside the package.

The tracer replaces each listed function with a timing wrapper in every
``pactkit`` module namespace that binds it, so call sites that imported the
name with ``from .action import ...`` are caught as well as attribute calls.
Spans (name, start, end, parent span, item) stay in memory until the run
ends. A span's self time is its duration minus the time covered by its
direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time

# module -> public functions wrapped in the traced run
WRAPPED = {
    "groupoid": ("build_groupoid", "validate_groupoid"),
    "action": (
        "validate_partial_action",
        "build_partial_action",
        "restrict",
        "classify",
        "orbit_relation",
        "stabilizer",
        "is_global",
        "orbit_space",
        "action_graphs",
        "relabel_action",
    ),
    "envelope": (
        "globalize",
        "verify_globalization",
        "compare_globalizations",
        "relabel_envelope_base",
        "envelope_topology",
    ),
    "coset": ("build_coset_action", "coset_envelope_isomorphism"),
    "morphisms": ("validate_gmap", "is_isomorphism", "find_isomorphism"),
    "topology": (
        "build_topology",
        "product",
        "subspace",
        "quotient",
        "all_opens",
        "is_open_map",
        "is_continuous",
        "star_open_report",
    ),
    "io": ("load", "load_envelope", "inspect", "save", "canonical_json"),
    "cli": ("main", "build_parser"),
}


def _path_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


# work counts read from arguments and return values: (module, function) ->
# {count name: f(args, kwargs, result)}
COUNTS = {
    ("groupoid", "build_groupoid"): {
        "elements": lambda a, k, r: len(r.elements),
        "mul": lambda a, k, r: len(r.mul),
    },
    ("action", "build_partial_action"): {"carrier": lambda a, k, r: len(r.carrier)},
    ("envelope", "globalize"): {
        "pairs": lambda a, k, r: len(r.pairs),
        "classes": lambda a, k, r: len(r.classes),
    },
    ("envelope", "envelope_topology"): {"skipped": lambda a, k, r: int(r.skipped)},
    ("coset", "build_coset_action"): {"classes": lambda a, k, r: len(r.classes)},
    ("topology", "product"): {"points": lambda a, k, r: len(r.carrier)},
    ("topology", "all_opens"): {"sets": lambda a, k, r: len(r)},
    ("io", "load"): {"bytes": _path_bytes},
    ("io", "save"): {"bytes": _path_bytes},
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in WRAPPED.items() for f in names)
COUNT_NAMES = tuple(f"{m}.{f}.{c}" for (m, f), cs in COUNTS.items() for c in cs)
ITEM_SPAN = "item"


class Tracer:
    """Records spans while installed; inert and absent from pactkit otherwise."""

    def __init__(self, pk):
        self.names = [ITEM_SPAN, *FUNCTIONS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.spans: list[tuple] = []  # (name index, start ns, end ns, parent, item)
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.item_counts: dict[int, dict] = {}  # item -> count name -> total
        self._stack: list[int] = []  # open span ids
        self._child_ns: list[int] = []  # time covered by children of each open span
        self._item = -1
        self._root = self._wrap(ITEM_SPAN, lambda fn, *args: fn(*args), {})
        self._patches = self._bindings(pk)

    def _wrap(self, qualified: str, fn, counters: dict):
        idx = self.index[qualified]
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                self.self_ns[idx] += duration - covered
                self.calls[idx] += 1
                spans[span_id] = (idx, start, end, parent, self._item)
            for name, count in counters.items():
                key, value = f"{qualified}.{name}", count(args, kwargs, result)
                self.counts[key] += value
                per_item = self.item_counts.setdefault(self._item, {})
                per_item[key] = per_item.get(key, 0) + value
            return result

        return traced

    def _bindings(self, pk) -> list[tuple]:
        """(namespace, attribute, original, wrapper) for every loaded pactkit
        module that binds one of the wrapped functions."""
        wrappers = {}
        for module, names in WRAPPED.items():
            for name in names:
                fn = getattr(getattr(pk, module), name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn, COUNTS.get((module, name), {})))
        patches = []
        for key, ns in list(sys.modules.items()):
            if key == "pactkit" or key.startswith("pactkit."):
                for attr, value in vars(ns).items():
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        patches.append((ns, attr, value, hit[1]))
        return patches

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def run_item(self, item_index: int, fn, *args):
        """Run ``fn(*args)`` as one item: a root span whose children are the wrapped calls."""
        self._item = item_index
        try:
            return self._root(fn, *args)
        finally:
            self._item = -1

    def layer_metrics(self, passes: int, traced_s: float, untraced_s: float) -> dict:
        """Per-pass calls, self times and counts; module shares of the traced time."""
        out = {}
        module_ns = {m: 0 for m in WRAPPED}
        for name in FUNCTIONS:
            i = self.index[name]
            out[f"{name}.calls"] = self.calls[i] / passes
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9 / passes
            module_ns[name.split(".")[0]] += self.self_ns[i]
        for name in COUNT_NAMES:
            out[name] = self.counts[name] / passes
        for module, ns in module_ns.items():
            out[f"{module}.self_s"] = ns / 1e9 / passes
            out[f"{module}.share"] = ns / 1e9 / traced_s
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return out

    def outside_share(self, traced_s: float) -> float:
        """Share of the traced time spent in no wrapped function (benchmark code, helpers)."""
        return self.self_ns[self.index[ITEM_SPAN]] / 1e9 / traced_s

    def span_records(self) -> dict:
        """Spans as compact rows; times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        return {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "item"],
            "rows": [[n, s - origin, e - origin, p, it] for n, s, e, p, it in self.spans],
        }


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".share", ".overhead_frac")):
        return "ratio"
    return "count"

"""Run-time tracing of the ``seqcolor`` layers, without editing their source.

:class:`Tracer` replaces each traced function with a timing wrapper in every
module namespace that binds it (``verify_proper`` is bound in ``coloring``,
``sequential``, ``sums`` and ``cli``), so calls between modules and within a
module both pass through the wrapper. Each call becomes an in-memory span
``(id, parent, name, start, end)``, kept in flat arrays that the garbage
collector does not scan; self time is a span's duration minus the durations
of its direct children. Counts that the per-layer metrics
need are taken where the call returns: the acquisition path of
``obtain_r_coloring``, whether ``swap_colors`` really swapped, and the node
counts in ``OracleResult.explored``.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("graph_io", "graph", "coloring", "sequential", "sums", "oracle", "cli")

# Functions that get a span, by defining module.
SPANNED = {
    "graph_io": ("parse_edge_list", "parse_graph6"),
    "graph": ("build_graph", "degree_profile", "bipartition_of"),
    "coloring": (
        "obtain_r_coloring", "konig_color_bipartite", "misra_gries",
        "exact_chromatic_index", "verify_proper", "parse_coloring",
    ),
    "sequential": ("sequentialize", "missing_color_partition", "verify_sequential", "swap_colors"),
    "sums": ("sum_report", "coloring_sum"),
    "oracle": ("exact_edge_chromatic_sum", "exact_max_sequential_set"),
    "cli": ("run",),
}
# Functions called once per vertex: counted, not spanned, to keep overhead low.
COUNTED = {"coloring": ("palette",)}

CENSUS = "oracle.census"


class Tracer:
    """Spans and counters for one traced pass set; ``install`` / ``remove``
    patch and restore the ``seqcolor`` module namespaces."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"seqcolor.{name}") for name in LAYERS}
        modules["seqcolor"] = importlib.import_module("seqcolor")
        for layer, names in list(SPANNED.items()) + list(COUNTED.items()):
            for fname in names:
                original = getattr(modules[layer], fname)
                if layer in SPANNED and fname in SPANNED[layer]:
                    wrapper = self._spanned(f"{layer}.{fname}", original)
                else:
                    wrapper = self._counted(f"{layer}.{fname}.calls", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span)
                if observe is not None:
                    observe(self, span, args, None, exc)
                raise
            self.close(span)
            if observe is not None:
                observe(self, span, args, result, None)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def children_names(self, sid: int) -> set[str]:
        return {self.names[c] for c in range(sid + 1, len(self.names)) if self.parents[c] == sid}

    def spans(self):
        """Every span as (id, parent, name, start, end)."""
        return zip(range(len(self.names)), self.parents, self.names, self.starts, self.ends)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans():
                handle.write(json.dumps([sid, parent, name, start, end]) + "\n")

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Self and total seconds per span name, the time spent inside root
        spans, and per-name call counts under a ``sequentialize`` span."""
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.names)
        for sid, parent, name, start, end in self.spans():
            if parent >= 0:
                child_time[parent] += end - start
        root_s = 0.0
        in_pipeline = [False] * len(self.names)
        pipeline_calls: Counter = Counter()
        census_builds = 0
        in_census = [False] * len(self.names)
        for sid, parent, name, start, end in self.spans():
            duration = end - start
            self_s[name] += duration - child_time[sid]
            total_s[name] += duration
            calls[name] += 1
            if parent < 0:
                root_s += duration
            else:
                parent_name = self.names[parent]
                in_pipeline[sid] = in_pipeline[parent] or parent_name == "sequential.sequentialize"
                in_census[sid] = in_census[parent] or parent_name == CENSUS
            if in_pipeline[sid]:
                pipeline_calls[name] += 1
            if in_census[sid] and name == "graph.build_graph":
                census_builds += 1
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "pipeline_calls": dict(pipeline_calls),
            "census_build_calls": census_builds,
            "root_s": root_s,
            "counts": dict(self.counts),
        }


def _observe_acquire(tracer: Tracer, sid: int, args, result, exc) -> None:
    from seqcolor.errors import ClassTwoError, UnknownClassError

    children = tracer.children_names(sid)
    if isinstance(exc, ClassTwoError):
        path = "class_two"
    elif isinstance(exc, UnknownClassError):
        path = "undecided"
    elif exc is not None:
        return
    elif "coloring.konig_color_bipartite" in children:
        path = "konig"
    elif "coloring.exact_chromatic_index" in children:
        path = "exact"
    elif "coloring.misra_gries" in children:
        path = "misra"
    else:
        path = "empty"
    tracer.counts[f"acquire.{path}"] += 1
    if "coloring.misra_gries" in children:
        tracer.counts["misra.attempted"] += 1
        tracer.counts["misra.accepted"] += path == "misra"


def _observe_swap(tracer: Tracer, sid: int, args, result, exc) -> None:
    if exc is None:
        tracer.counts["swap.calls"] += 1
        tracer.counts["swap.swapped"] += args[1] != args[2]


def _observe_oracle(kind: str):
    def observe(tracer: Tracer, sid: int, args, result, exc) -> None:
        if exc is None:
            tracer.counts[f"oracle.{kind}_nodes"] += result.explored

    return observe


_OBSERVERS = {
    "coloring.obtain_r_coloring": _observe_acquire,
    "sequential.swap_colors": _observe_swap,
    "oracle.exact_edge_chromatic_sum": _observe_oracle("sum"),
    "oracle.exact_max_sequential_set": _observe_oracle("seq"),
}

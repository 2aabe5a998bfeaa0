"""Per-layer tracing of redwords from outside the package.

Each traced layer is a public function (or the ``ScanReport.jsonl`` method)
that the benchmark replaces, for the length of one traced run, with a timing
wrapper in every ``redwords`` namespace that holds it: a caller that did
``from .reduced_words import count_words`` looks the name up in its own
module, so patching only the defining module would miss it.  Modules are
resolved with ``importlib.import_module`` because the package attribute
``redwords.scan`` is the ``scan`` function, not the module.  A layer that can
no longer be resolved is reported as ``missing`` instead of as zero work.

A span is one call of a wrapped function.  Spans nest through a stack, so a
layer's self time is its busy time minus the time of the wrapped calls made
inside it; a span opened with an empty stack is a root (one permutation in
the scan, one request in the CLI).  Spans are aggregated per name in memory
as they close.

The tracing overhead is the number of spans times the measured cost of one
span.  The difference between a traced and an untraced run of the same work
would be the direct measure, but on a shared machine whose speed drifts by
10-20 % from minute to minute that difference is mostly drift: two runs of
about 30 s gave -2.2 s and +12.6 s.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    last_start: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _kind(args, kwargs) -> str:
    return kwargs["kind"] if "kind" in kwargs else args[1]


def _subcommand(args, kwargs) -> str:
    argv = kwargs["argv"] if "argv" in kwargs else args[0]
    return list(argv)[0]


def _count_words(tracer, stat, result) -> None:
    stat.add("words", len(result))


def _count_partition(tracer, stat, result) -> None:
    part, edges = result
    stat.add("classes", len(part))
    stat.add("edges", len(edges))


def _count_elements(tracer, stat, result) -> None:
    stat.add("elements", result.size)


def _count_bytes(tracer, stat, result) -> None:
    stat.add("bytes", len(result.encode("utf-8")))


def _count_class_views(tracer, stat, result) -> None:
    # G(w) built for a request that only shows a class graph.
    if tracer.tag in ("gc", "gb", "gamma"):
        stat.add("class_view_calls", 1)
    if tracer.tag == "gamma":
        stat.add("gamma_calls", 1)


# (module, attribute, span name, hook on the result).  The span name is also
# the label a missing layer is reported under.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("reduced_words", "count_words", "reduced_words.count_words", None),
    ("reduced_words", "enumerate_words", "reduced_words.enumerate_words", _count_words),
    ("classes", "partition_with_edges", "classes.partition_with_edges", _count_partition),
    ("classes", "braid_class_shape", "classes.braid_class_shape", None),
    ("graphs", "jump_property", "graphs.jump_property", None),
    ("graphs", "build_word_graph", "graphs.build_word_graph", _count_class_views),
    ("graphs", "contract", "graphs.contract", None),
    ("graphs", "build_gamma", "graphs.build_gamma", None),
    ("graphs", "build_table", "graphs.build_table", None),
    ("characterizations", "upper_predicate", "characterizations.upper_predicate", None),
    ("characterizations", "lower_predicate_pattern",
     "characterizations.lower_predicate_pattern", None),
    ("characterizations", "lower_pattern_from_words",
     "characterizations.lower_pattern_from_words", None),
    ("weak_order", "interval_by_closure", "weak_order.interval_by_closure", _count_elements),
    ("weak_order", "conjecture_predicate", "weak_order.conjecture_predicate", None),
    ("weak_order", "interval", "weak_order.interval", None),
    ("scan", "verify_permutation", "scan.verify_permutation", None),
    ("scan", "ScanReport.jsonl", "scan.output", _count_bytes),
    ("cli", "run", "cli.run", None),
)

# Spans whose name depends on the call: one per move kind, one per subcommand.
_SPLIT = {"classes.partition_with_edges": _kind, "cli.run": _subcommand}


class Tracer:
    """Wraps the layers on ``install`` and puts the originals back on ``remove``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.missing: set[str] = set()
        self.tag: str | None = None  # set by the client around each request
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def install(self) -> None:
        for module_name, attr, label, hook in TARGETS:
            try:
                module = importlib.import_module(f"redwords.{module_name}")
            except ImportError:
                self.missing.add(label)
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, name, None) if holder is not None else None
            if not callable(original):
                self.missing.add(label)
                continue
            wrapper = self._wrap(original, label, _SPLIT.get(label), hook)
            if owner:
                self._patch(holder, name, wrapper)
            else:
                self._patch_everywhere(original, wrapper)

    def remove(self) -> None:
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def _patch(self, holder, name, wrapper) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "redwords" or mod_name.startswith("redwords.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def _wrap(self, fn, label, split, hook):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if split is None else f"{label}.{split(args, kwargs)}"
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = tracer.stat(name)
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - inner
                stat.max_s = max(stat.max_s, elapsed)
                stat.last_start = start
            if hook is not None:
                hook(tracer, stat, result)
            return result

        return traced


def span_cost_s(calls: int = 100_000, batches: int = 5) -> float:
    """Time one span adds to a call: a traced no-op minus a bare one (median of batches)."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "calibration", None, None)
    costs = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter()
        for _ in range(calls):
            traced()
        costs.append(((perf_counter() - bare) - (bare - start)) / calls)
    return statistics.median(costs)

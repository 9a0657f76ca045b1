"""Spans around calls into the program's layers, recorded from outside.

:func:`install` wraps public functions and methods of each layer of
``repro``.  A function is patched under every name its callers look it
up by: each ``repro.*`` module global bound to it, the engine registry
entries, or the class attribute for a method.  Each wrapped call
records a span ``[id, name, start_ns, end_ns, parent_id, attrs, leaf]``
in memory; :meth:`Recorder.dump` writes them out once, at the end.

Hot leaf calls (ownership-table acquires, ~10^5 per figure pass) are not
stored as spans: their count and time accumulate on the enclosing span's
``leaf`` field, which keeps their cost out of the parent's self time.

:func:`span_metrics` turns spans into per-layer numbers and
:func:`ranked_table` into a profile.  A layer's self time is its span's
duration minus the part its child spans cover, minus its leaf time.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

_now = time.perf_counter_ns


class _Open:
    __slots__ = ("id", "name", "start", "parent", "attrs", "leaf")

    def __init__(self, span_id: int, name: str, start: int, parent: int) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.attrs: Optional[dict[str, int]] = None
        self.leaf: Optional[dict[str, list[int]]] = None


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[_Open]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self._anchors: dict[str, _Open] = {}

    def begin(self, name: str, *, anchor: bool = False,
              adopt: Optional[str] = None) -> tuple[_Open, contextvars.Token]:
        """Open a span under the current one.

        A span with no parent in its own context (it runs on a thread
        the program started) is adopted by the open ``anchor`` span
        named ``adopt``, if there is one.
        """
        parent = self._current.get()
        if parent is None and adopt is not None:
            parent = self._anchors.get(adopt)
        with self._lock:
            span_id = next(self._ids)
        frame = _Open(span_id, name, _now(), parent.id if parent else 0)
        if anchor:
            self._anchors[name] = frame
        return frame, self._current.set(frame)

    def end(self, frame: _Open, token: contextvars.Token) -> None:
        end = _now()
        self._current.reset(token)
        if self._anchors.get(frame.name) is frame:
            del self._anchors[frame.name]
        self.spans.append(
            [frame.id, frame.name, frame.start, end, frame.parent, frame.attrs, frame.leaf]
        )

    def annotate(self, frame: _Open, **counts: int) -> None:
        """Attach exact counts (keys sorted, accesses made, ...) to a span."""
        if frame.attrs is None:
            frame.attrs = {}
        for key, value in counts.items():
            frame.attrs[key] = frame.attrs.get(key, 0) + int(value)

    def leaf(self, name: str, ns: int) -> None:
        """Account one hot leaf call to the enclosing span."""
        frame = self._current.get()
        if frame is None:
            return
        if frame.leaf is None:
            frame.leaf = {}
        acc = frame.leaf.setdefault(name, [0, 0])
        acc[0] += 1
        acc[1] += ns

    def dump(self, path: Path) -> None:
        """Write every finished span as JSON."""
        path.write_text(json.dumps({"spans": self.spans}, separators=(",", ":")))


# -- wrappers ----------------------------------------------------------

Annotator = Callable[[tuple, dict, Any], dict]


def span_wrapper(rec: Recorder, fn: Callable, name: str,
                 annotate: Optional[Annotator] = None, *, anchor: bool = False,
                 adopt: Optional[str] = None) -> Callable:
    """Wrap ``fn`` (sync or async) so each call records a span.

    ``anchor``/``adopt`` link spans across threads; see
    :meth:`Recorder.begin`.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            frame, token = rec.begin(name, anchor=anchor, adopt=adopt)
            try:
                result = await fn(*args, **kwargs)
                if annotate is not None:
                    rec.annotate(frame, **annotate(args, kwargs, result))
                return result
            finally:
                rec.end(frame, token)
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame, token = rec.begin(name, anchor=anchor, adopt=adopt)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                rec.annotate(frame, **annotate(args, kwargs, result))
            return result
        finally:
            rec.end(frame, token)
    return wrapper


def leaf_wrapper(rec: Recorder, fn: Callable, name: str) -> Callable:
    """Wrap a hot leaf ``fn``: count and time only, no span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, _now() - start)
    return wrapper


def materialized(fn: Callable) -> Callable:
    """Turn a generator function into one returning an iterator over a list.

    The wrapped span then times producing the rows, not the consumer's
    work between them.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))
    return wrapper


def patch_everywhere(orig: Callable, replacement: Callable) -> None:
    """Rebind every ``repro.*`` module global that is ``orig``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def _size(args, kwargs, result, key: str) -> dict:
    import numpy as np

    return {key: int(np.size(args[0]))}


def _accesses(args, kwargs, result) -> dict:
    total = result.total_accesses() if hasattr(result, "total_accesses") else len(result)
    return {"accesses": total}


def _hit(args, kwargs, result) -> dict:
    return {"lookups": 1, "hits": int(bool(result[0]))}


def _stolen(args, kwargs, result) -> dict:
    telemetry = getattr(result, "telemetry", None)
    return {"stolen": int(getattr(telemetry, "leases_stolen", 0) or 0)}


# Modules imported before patching, so their module-level bindings of
# the wrapped functions exist to be rebound.
_MODULES = (
    "repro.cluster.coordinator",
    "repro.cluster.worker",
    "repro.core.model",
    "repro.core.sizing",
    "repro.experiments.runner",
    "repro.service.batching",
    "repro.service.server",
    "repro.sim.catalog",
    "repro.sim.engines",
    "repro.sim.open_system",
    "repro.sim.overflow",
    "repro.sim.placement",
    "repro.sim.trace_driven",
    "repro.sim.trace_fast",
    "repro.traces.dedup",
    "repro.traces.workloads",
)


def install(rec: Recorder) -> None:
    """Wrap every traced layer of ``repro`` in this process."""
    import importlib

    for module in _MODULES:
        importlib.import_module(module)

    from repro.cluster import coordinator
    from repro.cluster.coordinator import Coordinator
    from repro.cluster.worker import ClusterWorker
    from repro.core import model, sizing
    from repro.experiments import runner
    from repro.experiments.manifest import RunManifest
    from repro.ownership.tagged import TaggedOwnershipTable
    from repro.ownership.tagless import TaglessOwnershipTable
    from repro.service.batching import MicroBatcher
    from repro.service.cache import ResultCache
    from repro.service.server import Service
    from repro.sim import engines, montecarlo, placement
    from repro.sim.catalog import SweepKind
    from repro.sim.frame import SweepFrame
    from repro.traces import dedup, workloads

    # Engine kernels: callers resolve them through the keyed registry.
    wrapped: dict[tuple[int, str], Callable] = {}
    for kind, registry in engines.ENGINES.items():
        for engine_name, fn in list(registry.items()):
            key = id(fn), kind
            if key not in wrapped:
                wrapped[key] = span_wrapper(rec, fn, f"engine.{kind}")
            registry[engine_name] = wrapped[key]

    functions: list[tuple[Callable, str, Optional[Annotator]]] = [
        (montecarlo.cross_thread_conflicts, "montecarlo.conflicts",
         lambda a, k, r: _size(a, k, r, "keys")),
        (workloads.synthesize_trace, "traces.synth", _accesses),
        (workloads.specjbb_like, "traces.synth", _accesses),
        (dedup.remove_true_conflicts, "traces.synth", _accesses),
        (placement.simulate_placement_conflicts, "alloc.placement", None),
        (placement.simulate_table_ab, "alloc.table_ab", None),
        (runner.write_artifact, "artifact.write", None),
    ]
    for fn in (
        model.conflict_likelihood_batch,
        model.conflict_likelihood_product_form_batch,
        sizing.table_entries_for_commit_probability_batch,
        sizing.pow2_table_entries_for_commit_probability_batch,
    ):
        functions.append((fn, "core.batch", lambda a, k, r: _size(a, k, r, "points")))
    for fn, name, annotate in functions:
        patch_everywhere(fn, span_wrapper(rec, fn, name, annotate))
    # A cluster run's coordinator and worker threads start with an empty
    # context; their spans are adopted by the open cluster.run span, so
    # its self time is the coordination the run added.
    run = coordinator.run_sweep_cluster_from_callable
    patch_everywhere(run, span_wrapper(rec, run, "cluster.run", _stolen, anchor=True))

    methods: list[tuple[type, str, str, Optional[Annotator]]] = [
        (SweepKind, "validate", "catalog.validate", None),
        (SweepKind, "assemble", "catalog.assemble", None),
        (SweepFrame, "fill", "frame.fill", None),
        (SweepFrame, "fill_many", "frame.fill", None),
        (SweepFrame, "to_wire", "frame.wire", None),
        (ResultCache, "lookup", "cache.lookup", _hit),
        (ResultCache, "put", "cache.put", None),
        (RunManifest, "save", "manifest.save", None),
        (Service, "_run_job", "job.run", None),
        (Service, "submit_sweep", "service.submit", None),
        (Service, "_dispatch", "http.dispatch", None),
        (Service, "_write_response", "http.write", None),
        (Coordinator, "_dispatch", "cluster.dispatch", None),
        (Coordinator, "_write_response", "cluster.write", None),
        (MicroBatcher, "_flush", "microbatch.flush", None),
        (ClusterWorker, "_execute", "cluster.chunk", None),
    ]
    for cls, attr, name, annotate in methods:
        adopt = "cluster.run" if name.startswith("cluster.") else None
        setattr(cls, attr, span_wrapper(rec, getattr(cls, attr), name, annotate,
                                        adopt=adopt))
    SweepFrame.rows = span_wrapper(rec, materialized(SweepFrame.rows), "frame.rows")
    for cls in (TaglessOwnershipTable, TaggedOwnershipTable):
        cls.acquire = leaf_wrapper(rec, cls.acquire, "ownership.acquire")


# -- analysis ----------------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[list[Any]]) -> list[tuple[list[Any], int]]:
    """Pair each span with its self time in ns."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[4]:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for span in spans:
        start, end = span[2], span[3]
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span[0], ())
                if e > start and s < end]
        leaf_ns = sum(ns for _, ns in (span[6] or {}).values())
        out.append((span, max(0, end - start - _covered(kids) - leaf_ns)))
    return out


class LayerTotals:
    """Self time and exact counts per span name over a time window."""

    def __init__(self, spans: Iterable[list[Any]], window: tuple[int, int]) -> None:
        lo, hi = window
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.attrs: dict[str, dict[str, int]] = {}
        for span, self_ns in self_times(spans):
            if not lo <= span[2] < hi:
                continue
            name = span[1]
            self.self_ns[name] = self.self_ns.get(name, 0) + self_ns
            self.calls[name] = self.calls.get(name, 0) + 1
            for key, value in (span[5] or {}).items():
                bucket = self.attrs.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + value
            for leaf_name, (calls, ns) in (span[6] or {}).items():
                self.self_ns[leaf_name] = self.self_ns.get(leaf_name, 0) + ns
                self.calls[leaf_name] = self.calls.get(leaf_name, 0) + calls

    def ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def attr(self, name: str, key: str) -> int:
        return self.attrs.get(name, {}).get(key, 0)


# Per-layer metrics computed from spans: metric name -> (kind, span, attr).
# "ms" metrics are self time per op; the others are exact counts over
# the count window.
SPAN_METRICS: dict[str, tuple[str, str, Optional[str]]] = {
    "engine.open.ms": ("ms", "engine.open", None),
    "engine.open.calls": ("calls", "engine.open", None),
    "engine.trace.ms": ("ms", "engine.trace", None),
    "engine.trace.calls": ("calls", "engine.trace", None),
    "engine.closed.ms": ("ms", "engine.closed", None),
    "engine.closed.calls": ("calls", "engine.closed", None),
    "engine.overflow.ms": ("ms", "engine.overflow", None),
    "engine.overflow.calls": ("calls", "engine.overflow", None),
    "montecarlo.conflicts.ms": ("ms", "montecarlo.conflicts", None),
    "montecarlo.keys": ("attr", "montecarlo.conflicts", "keys"),
    "traces.synth.ms": ("ms", "traces.synth", None),
    "traces.synth.accesses": ("attr", "traces.synth", "accesses"),
    "alloc.placement.ms": ("ms", "alloc.placement", None),
    "alloc.table_ab.ms": ("ms", "alloc.table_ab", None),
    "ownership.acquires": ("calls", "ownership.acquire", None),
    "ownership.acquire.ms": ("ms", "ownership.acquire", None),
    "catalog.validate.ms": ("ms", "catalog.validate", None),
    "catalog.assemble.ms": ("ms", "catalog.assemble", None),
    "frame.fill.ms": ("ms", "frame.fill", None),
    "frame.rows.ms": ("ms", "frame.rows", None),
    "frame.wire.ms": ("ms", "frame.wire", None),
    "cache.lookups": ("attr", "cache.lookup", "lookups"),
    "cache.hits": ("attr", "cache.lookup", "hits"),
    "cache.lookup.ms": ("ms", "cache.lookup", None),
    "cache.put.ms": ("ms", "cache.put", None),
    "manifest.saves": ("calls", "manifest.save", None),
    "manifest.save.ms": ("ms", "manifest.save", None),
    "artifact.write.ms": ("ms", "artifact.write", None),
    "job.run.ms": ("ms", "job.run", None),
    "core.batch.ms": ("ms", "core.batch", None),
    "core.batch.points": ("attr", "core.batch", "points"),
    "cluster.run.ms": ("ms", "cluster.run", None),
    "cluster.chunks": ("calls", "cluster.chunk", None),
    "cluster.leases_stolen": ("attr", "cluster.run", "stolen"),
}


def span_metrics(spans: list[list[Any]], *, window: tuple[int, int],
                 count_window: tuple[int, int], ops: int) -> dict[str, float]:
    """Per-layer metrics: self ms per op over ``window``, counts over ``count_window``."""
    timed = LayerTotals(spans, window)
    counted = LayerTotals(spans, count_window)
    out: dict[str, float] = {}
    for metric, (kind, name, attr) in SPAN_METRICS.items():
        if kind == "ms":
            out[metric] = timed.ms(name) / max(1, ops)
        elif kind == "calls":
            out[metric] = counted.count(name)
        else:
            out[metric] = counted.attr(name, attr)
    return out


# Rows of the ranked self-time table.
RANKED_ROWS = 20


def ranked_table(spans: list[list[Any]], *, window: tuple[int, int], ops: int,
                 op_label: str) -> str:
    """Layers ranked by self time per op, with their share of traced time."""
    totals = LayerTotals(spans, window)
    ranked = sorted(totals.self_ns.items(), key=lambda kv: -kv[1])
    grand = sum(totals.self_ns.values()) or 1
    per = max(1, ops)
    lines = [f"{'layer':<24}{'self ms/' + op_label:>16}{'share':>8}{'calls/' + op_label:>14}"]
    for name, ns in ranked[:RANKED_ROWS]:
        lines.append(
            f"{name:<24}{ns / 1e6 / per:>16.3f}{100 * ns / grand:>7.1f}%"
            f"{totals.count(name) / per:>14.1f}"
        )
    return "\n".join(lines)

"""Layer tracing for the benchmark's traced run.

The program is not edited: :class:`Recorder` replaces public functions
and methods of each layer with timing wrappers, from the benchmark's own
process, before the workload runs.  Each wrapped call is a span.  A span
knows its parent (the innermost wrapped call still open on the same
thread), so a layer's *self* time is its span time minus the time its
child spans cover.  Aggregates per layer (calls, total, self) and
counters stay in memory; coarse spans are kept as records and written out
once, at the end.

Workers of the serving layer are forked after the wrappers are in place,
so they inherit them; :meth:`Recorder.wrap_worker` makes each worker dump
its own aggregates to a file when it exits, and :meth:`Recorder.absorb`
folds those files back in.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

#: Layer keys whose spans are kept as records (the rest are aggregated
#: only: per-event and per-operation spans would number in the millions).
SPAN_LAYERS = ("analysis", "stream.flush", "stream.checkpoint",
               "serve.spawn", "trace.read")

#: Cap on recorded span records per process.
MAX_SPANS = 20000

LayerSpec = Union[str, Callable[..., str]]


class _Frame:
    __slots__ = ("layer", "start", "child", "span_id")

    def __init__(self, layer: str, start: float, span_id: int) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Recorder:
    """Spans and counters of one traced process (see module docstring)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Per-thread aggregates, layer -> [calls, total s, self s]; each
        #: thread writes only its own dict, so the hot path takes no lock.
        self._per_thread: List[Dict[str, List[float]]] = []
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []
        self.request = ""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.layers = {}
            with self._lock:
                self._per_thread.append(local.layers)
        return stack, local.layers

    def parent_layer(self) -> Optional[str]:
        """The layer of the innermost open span on this thread."""
        stack = self._state()[0]
        return stack[-1].layer if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def call(self, layer: str, function: Callable, args, kwargs,
             after: Optional[Callable] = None):
        stack, layers = self._state()
        parent = stack[-1] if stack else None
        frame = _Frame(layer, time.perf_counter(), next(self._ids))
        stack.append(frame)
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if parent is not None:
                parent.child += duration
            entry = layers.get(layer)
            if entry is None:
                entry = layers[layer] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
            if layer.startswith(SPAN_LAYERS) and len(self.spans) < MAX_SPANS:
                self.spans.append({
                    "id": frame.span_id,
                    "parent": parent.span_id if parent else None,
                    "name": layer, "request": self.request,
                    "pid": os.getpid(), "start": frame.start, "end": end})
        if after is not None:
            after(args, result)
        return result

    @property
    def layers(self) -> Dict[str, List[float]]:
        """Aggregates of every thread, layer -> [calls, total, self]."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for layer, (calls, total, own) in table.items():
                entry = merged.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap_function(self, module: Any, name: str, layer: LayerSpec,
                      after: Optional[Callable] = None) -> None:
        """Wrap module-level function ``module.name`` everywhere it is
        bound: modules that did ``from module import name`` hold their
        own reference, which is replaced too."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, layer, after)
        setattr(module, name, wrapper)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (namespace is not None
                    and getattr(loaded, "__name__", "").startswith("repro")
                    and namespace.get(name) is original):
                setattr(loaded, name, wrapper)

    def wrap_method(self, cls: type, name: str, layer: LayerSpec,
                    after: Optional[Callable] = None) -> None:
        """Wrap method ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        setattr(cls, name, self._wrapper(original, layer, after))

    def _wrapper(self, original: Callable, layer: LayerSpec,
                 after: Optional[Callable]) -> Callable:
        recorder = self
        if callable(layer):
            name_of = layer

            def wrapper(*args, **kwargs):
                return recorder.call(name_of(args), original, args, kwargs,
                                     after)
        else:
            def wrapper(*args, **kwargs):
                return recorder.call(layer, original, args, kwargs, after)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    def wrap_worker(self, module: Any, name: str, directory: Path) -> None:
        """Wrap a worker entry point so that each forked worker starts
        from empty aggregates and writes them to ``directory`` when its
        entry point returns."""
        original = getattr(module, name)
        recorder = self

        def worker(*args, **kwargs):
            recorder.reset()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.dump(directory / f"layers-{os.getpid()}.json")

        setattr(module, name, worker)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def self_seconds(self, prefix: str) -> float:
        """Total self time of every layer whose key starts with
        ``prefix``."""
        return sum(entry[2] for layer, entry in self.layers.items()
                   if layer.startswith(prefix))

    def total_seconds(self, layer: str) -> float:
        entry = self.layers.get(layer)
        return entry[1] if entry else 0.0

    def calls(self, layer: str) -> int:
        entry = self.layers.get(layer)
        return int(entry[0]) if entry else 0

    def document(self) -> Dict[str, Any]:
        return {"layers": self.layers, "counters": self.counters,
                "maxima": self.maxima, "spans": self.spans}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.document()), encoding="utf-8")

    def absorb(self, directory: Path) -> None:
        """Fold in (and remove) the files dumped by exited workers."""
        for path in sorted(directory.glob("layers-*.json")):
            document = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            self._per_thread.append(
                {layer: list(entry)
                 for layer, entry in document["layers"].items()})
            for name, value in document["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in document["maxima"].items():
                self.maximum(name, value)
            self.spans.extend(document["spans"])


#: Derived-index builders of a trace (per-event accessors such as
#: ``event_at`` are left alone: they are lookups, not indexing).
INDEX_METHODS = ("add", "columns", "accesses_by_variable",
                 "writes_by_variable", "critical_sections", "locks_held_at",
                 "locks_held_map", "reads_from", "fork_join_edges")

#: Partial-order operations, timed as the kernel.
ORDER_METHODS = ("insert_edge", "delete_edge", "reachable", "successor",
                 "predecessor", "insert_many", "query_many")


def install(recorder: Recorder, worker_directory: Path) -> None:
    """Wrap the public functions of each layer with ``recorder`` spans.

    Layer keys: ``trace.read`` / ``trace.decode`` (``trace.decode.line``
    per STD line) / ``trace.encode`` / ``trace.index``; ``stream.feed`` /
    ``stream.flush`` / ``stream.checkpoint``; ``analysis.<name>``;
    ``core``; ``serve.ingest`` / ``serve.spawn``.  A lazily decoded
    ``.stc`` trace inflates events on first access, inside
    ``Analysis.run``, so that decode lands in the analysis' self time.
    """
    from repro.analyses.common.base import Analysis
    from repro.core.growable import GrowableOrder
    from repro.core.instrumented import InstrumentedOrder
    from repro.serve import supervisor as supervisor_module
    from repro.serve.shard import TenantShard
    from repro.serve.supervisor import Supervisor
    from repro.stream import checkpoint
    from repro.stream.engine import StreamEngine
    from repro.trace import binfmt, formats, io
    from repro.trace.binfmt import LazyTrace
    from repro.trace.trace import Trace

    worker_directory.mkdir(parents=True, exist_ok=True)

    # repro.trace
    recorder.wrap_function(io, "read_trace", "trace.read")
    recorder.wrap_function(formats, "load_trace", "trace.decode")
    recorder.wrap_function(formats, "parse_trace_line", "trace.decode.line")
    recorder.wrap_function(binfmt, "decode_trace", "trace.decode")
    recorder.wrap_function(formats, "format_event", "trace.encode")
    for cls in (Trace, LazyTrace):
        for name in INDEX_METHODS:
            if name in cls.__dict__:
                recorder.wrap_method(cls, name, "trace.index")

    # repro.stream
    def after_flush(args, _result) -> None:
        recorder.maximum("stream.buffered_events", args[0].buffered_events)

    def after_checkpoint(args, _result) -> None:
        recorder.count("stream.checkpoint_bytes", os.path.getsize(args[1]))

    recorder.wrap_method(StreamEngine, "feed", "stream.feed")
    recorder.wrap_method(StreamEngine, "flush", "stream.flush",
                         after=after_flush)
    recorder.wrap_function(checkpoint, "save_checkpoint",
                           "stream.checkpoint", after=after_checkpoint)

    # repro.analyses
    def after_run(_args, result) -> None:
        recorder.count("core.insert_ops", result.insert_count)
        recorder.count("core.query_ops", result.query_count)
        recorder.count("core.delete_ops", result.delete_count)
        if recorder.parent_layer() == "stream.flush":
            recorder.count("analyses.batch_runs")

    recorder.wrap_method(Analysis, "run",
                         lambda args: f"analysis.{args[0].name}",
                         after=after_run)

    # repro.core: the analyses' counted orders and the stream's growable
    # orders (the backbone, online analyses).
    for cls in (InstrumentedOrder, GrowableOrder):
        for name in ORDER_METHODS:
            if name in cls.__dict__:
                recorder.wrap_method(cls, name, "core")

    # repro.serve
    recorder.wrap_method(Supervisor, "start", "serve.spawn")
    recorder.wrap_method(Supervisor, "ingest_event", "serve.ingest")
    recorder.wrap_method(TenantShard, "feed_line", "serve.ingest")
    recorder.wrap_worker(supervisor_module, "worker_main", worker_directory)

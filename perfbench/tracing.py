"""Span tracing installed from outside the program, and the per-layer metrics.

:func:`install` replaces the public functions of each layer of ``repro`` with
wrappers, at the names their callers actually look up (``plan_zoom`` as
imported into ``repro.api.session``, ``encode_frame`` as imported into the
server and the client, class attributes for methods).  Nothing under
``src/`` changes.  Each wrapped call records one span: name, start, end,
parent span and operation id — the id of the outermost span of the call,
shared by every span under it.  Spans are kept in memory and written out
once, when the run ends.

The current span is a :mod:`contextvars` variable, so nesting is right per
thread (the server's executor) and per asyncio task (the load clients).
Executor calls start a fresh context, so a served session call is the root
of its own operation in the server process.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

#: Root span names that count as one write or one query operation.
WRITE_OPS = ("api.ingest", "api.append", "api.observe", "api.seal", "api.flush")
QUERY_OPS = ("api.aggregate", "api.rolling", "api.zoom", "api.read")
CLIENT_QUERY_OPS = ("client.aggregate", "client.rolling", "client.zoom", "client.read")


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self.spans: List[tuple] = []  # (id, name, start, end, parent, op, amount)
        self.paused = False

    def wrap(self, fn: Callable, name, amount: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` is a span name or ``name(args, kwargs)``; ``amount`` maps
        ``(args, kwargs, result)`` to the quantity the span carries (points,
        records, blocks or bytes).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            parent = _current.get()
            ident = next(tracer._ids)
            op = ident if parent is None else parent[1]
            token = _current.set((ident, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
            size = amount(args, kwargs, result) if amount is not None else 0
            tracer.spans.append(
                (ident, span_name, start, end, -1 if parent is None else parent[0], op, size)
            )
            return result

        return wrapper

    def wrap_async(self, fn: Callable, name, amount: Optional[Callable] = None) -> Callable:
        """Like :meth:`wrap` for a coroutine function."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if tracer.paused:
                return await fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            parent = _current.get()
            ident = next(tracer._ids)
            op = ident if parent is None else parent[1]
            token = _current.set((ident, op))
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
            size = amount(args, kwargs, result) if amount is not None else 0
            tracer.spans.append(
                (ident, span_name, start, end, -1 if parent is None else parent[0], op, size)
            )
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (columns, id order)."""
        spans = sorted(self.spans)
        columns = list(zip(*spans)) if spans else [[]] * 7
        keys = ("id", "name", "start", "end", "parent", "op", "amount")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({key: list(column) for key, column in zip(keys, columns)}))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.api.session as session
    import repro.client.client as client
    import repro.core.registry as registry
    import repro.pipeline.ingest as ingest
    import repro.pipeline.sinks as sinks
    import repro.queries.planner as planner
    import repro.server.hub as hub
    import repro.server.protocol as protocol
    import repro.server.service as service
    import repro.storage.segment_store as segment_store
    import repro.testing.faults as faults
    from repro.core.base import StreamFilter

    def method(owner, attr, name, amount=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, amount))

    def function(module, attr, name, amount=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, amount))

    # core (+ geometry, which runs inside the filters)
    method(StreamFilter, "process_batch", "core.process_batch", lambda a, k, r: len(a[1]))
    method(StreamFilter, "snapshot", "core.snapshot")
    method(StreamFilter, "finish", "core.finish")
    traced_restore = tracer.wrap(registry.restore_filter, "core.restore_filter")
    registry.restore_filter = traced_restore
    session.restore_filter = traced_restore

    # pipeline
    method(ingest.BatchIngestor, "run", "pipeline.ingestor_run", lambda a, k, r: len(a[1]))
    method(sinks.StoreSink, "write", "pipeline.sink_write", lambda a, k, r: len(a[1]))
    method(sinks.StoreSink, "flush", "pipeline.sink_flush")
    method(sinks.StoreSink, "flush_records", "pipeline.sink_flush")

    # api: observe wraps append, so an observe op holds two api spans
    for attr in ("ingest", "append", "observe", "seal", "zoom", "read", "flush"):
        method(session.StreamDB, attr, f"api.{attr}")
    method(
        session.StreamDB,
        "aggregate",
        lambda a, k: "api.rolling" if k.get("window") is not None else "api.aggregate",
    )

    # storage
    store = segment_store.SegmentStore
    method(store, "append", "storage.append", lambda a, k, r: len(a[2]))
    method(store, "append_arrays", "storage.append", lambda a, k, r: len(a[2]))
    method(store, "flush", "storage.flush")
    method(store, "read", "storage.read")
    method(store, "read_block_arrays", "storage.read_block_arrays", lambda a, k, r: a[3] - a[2])
    method(store, "summary_range", "storage.summary_range")
    function(faults, "write", "storage.io_write", lambda a, k, r: len(a[1]))

    # queries, at the names the session looks up
    function(session, "plan_range_aggregate", "queries.aggregate")
    function(session, "plan_window_aggregates", "queries.rolling")
    function(session, "plan_zoom", "queries.zoom")
    fallback_init = planner.PlannerFallback.__init__
    planner.PlannerFallback.__init__ = tracer.wrap(fallback_init, "queries.fallback")

    # server (+ client, hub)
    traced_encode = tracer.wrap(
        protocol.encode_frame, "server.encode_frame", lambda a, k, r: len(r)
    )
    protocol.encode_frame = traced_encode
    service.encode_frame = traced_encode
    client.encode_frame = traced_encode
    function(protocol, "decode_body", "server.decode_body", lambda a, k, r: len(a[1]))
    method(hub.BroadcastHub, "publish", "hub.publish", lambda a, k, r: len(a[2]))

    def request_name(args, kwargs):
        op = args[1]
        if op == "aggregate" and kwargs.get("window") is not None:
            return "client.rolling"
        return f"client.{op}"

    def reply_bytes(args, kwargs, result):
        return len(protocol.encode_frame.__wrapped__(result))

    owner = client.AsyncStreamClient
    owner._request = tracer.wrap_async(owner._request, request_name, reply_bytes)


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def restrict(dump: Dict, windows) -> Dict:
    """The spans of ``dump`` whose operation started inside one of ``windows``.

    Used on the server's dump: its untimed work (start-up, the benchmark's
    own reference reads, shutdown) is not part of any measured phase.
    """
    start_of = dict(zip(dump["id"], dump["start"]))
    keep = [
        any(lo <= start_of[op] <= hi for lo, hi in windows) for op in dump["op"]
    ]
    return {key: [v for v, k in zip(column, keep) if k] for key, column in dump.items()}


class SpanTable:
    """Column view of one or more span dumps, with self times and op roots."""

    def __init__(self, dumps: List[Dict]) -> None:
        names: List[str] = []
        starts, ends, amounts, roots, parents = [], [], [], [], []
        offset = 0
        for dump in dumps:
            index_of = {ident: position for position, ident in enumerate(dump["id"])}
            parents.append(np.asarray(
                [index_of[p] + offset if p >= 0 else -1 for p in dump["parent"]],
                dtype=np.int64,
            ))
            roots.append(np.asarray([index_of[o] + offset for o in dump["op"]], dtype=np.int64))
            names.extend(dump["name"])
            starts.append(np.asarray(dump["start"], dtype=float))
            ends.append(np.asarray(dump["end"], dtype=float))
            amounts.append(np.asarray(dump["amount"], dtype=float))
            offset += len(dump["id"])
        self.name = np.asarray(names, dtype=object)
        self.amount = np.concatenate(amounts)
        self.parent = np.concatenate(parents)
        self.root = np.concatenate(roots)
        self.duration = np.concatenate(ends) - np.concatenate(starts)
        child_time = np.zeros(self.duration.shape[0])
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time
        self.root_name = self.name[self.root]
        self.process = np.concatenate(
            [np.full(len(dump["id"]), index) for index, dump in enumerate(dumps)]
        )

    def mask(self, names, *, roots=None, process=None) -> np.ndarray:
        selected = np.isin(self.name, list(names))
        if roots is not None:
            selected &= np.isin(self.root_name, list(roots))
        if process is not None:
            selected &= self.process == process
        return selected

    def roots_of(self, names, process=None) -> np.ndarray:
        """Mask of root spans (one per operation) with one of ``names``."""
        return self.mask(names, process=process) & (self.parent < 0)


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.shape[0] else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: SpanTable, *, points: int, throttle_retries: int, ref_loop_ms: float
) -> Dict[str, float]:
    """Every per-layer metric from the spans of one run.

    ``points`` is the run's input point count.  Process 0 is the load
    process; process 1, when present, is the server child.  A layer the
    workload never crosses reads 0.
    """
    t = table
    query_roots = t.roots_of(QUERY_OPS)
    query_ops = int(query_roots.sum())
    write_roots = t.roots_of(WRITE_OPS)
    write_ops = int(write_roots.sum())

    batch = t.mask(["core.process_batch"])
    clone_parts = t.mask(
        ["core.snapshot", "core.restore_filter", "core.finish"], roots=QUERY_OPS
    )
    clones = int(t.mask(["core.restore_filter"], roots=QUERY_OPS).sum())
    sink_write = t.mask(["pipeline.sink_write"])
    appends = t.mask(["storage.append"])
    parent_names = t.name[t.parent[appends]] if appends.any() else np.empty(0)
    from_sink = int(np.isin(parent_names, ["pipeline.sink_write", "pipeline.sink_flush"]).sum())
    api_spans = np.array([name.startswith("api.") for name in t.name], dtype=bool)
    served_query_roots = t.roots_of(QUERY_OPS, process=1)
    client_queries = t.mask(CLIENT_QUERY_OPS)
    session_ms = _mean(t.duration[served_query_roots]) * 1e3

    metrics = {
        "core.batch_us_per_point": _ratio(
            t.self_time[batch].sum(), t.amount[batch].sum()
        ) * 1e6,
        "core.batch_calls": float(batch.sum()),
        "core.inflight_clone_us": _ratio(t.duration[clone_parts].sum(), clones) * 1e6,
        "pipeline.sink_write_us": _mean(t.duration[sink_write]) * 1e6,
        "pipeline.archive_batches": float(from_sink),
        "api.write_self_us": _ratio(
            t.self_time[api_spans & np.isin(t.root_name, WRITE_OPS)].sum(), write_ops
        ) * 1e6,
        "api.query_self_ms": _ratio(
            t.self_time[api_spans & np.isin(t.root_name, QUERY_OPS)].sum(), query_ops
        ) * 1e3,
        "storage.append_us_per_record": _ratio(
            t.duration[appends].sum(), t.amount[appends].sum()
        ) * 1e6,
        "storage.append_calls": float(appends.sum()),
        "storage.flush_ms": _mean(t.duration[t.mask(["storage.flush"])]) * 1e3,
        "storage.bytes_written_per_point": _ratio(
            t.amount[t.mask(["storage.io_write"])].sum(), points
        ),
        "storage.blocks_decoded_per_query": _ratio(
            t.amount[t.mask(["storage.read_block_arrays"], roots=QUERY_OPS)].sum(), query_ops
        ),
        "storage.read_ms_per_query": _ratio(
            t.duration[t.mask(["storage.read"], roots=QUERY_OPS)].sum(), query_ops
        ) * 1e3,
        "queries.aggregate_self_ms": _mean(t.self_time[t.mask(["queries.aggregate"])]) * 1e3,
        "queries.rolling_self_ms": _mean(t.self_time[t.mask(["queries.rolling"])]) * 1e3,
        "queries.zoom_self_ms": _mean(t.self_time[t.mask(["queries.zoom"])]) * 1e3,
        "queries.fallbacks_per_query": _ratio(
            t.mask(["queries.fallback"], roots=QUERY_OPS).sum(), query_ops
        ),
        "server.session_ms_per_query": session_ms,
        "server.wire_ms_per_query": max(
            _mean(t.duration[client_queries]) * 1e3 - session_ms, 0.0
        ) if client_queries.any() else 0.0,
        "server.encode_us_per_frame": _mean(t.duration[t.mask(["server.encode_frame"])]) * 1e6,
        "server.decode_us_per_frame": _mean(t.duration[t.mask(["server.decode_body"])]) * 1e6,
        "server.reply_bytes_per_query": _mean(t.amount[client_queries]),
        "server.append_us_per_chunk": _mean(
            t.duration[t.roots_of(["api.append"], process=1)]
        ) * 1e6,
        "server.throttle_retries": float(throttle_retries),
        "hub.publish_us_per_event": _mean(t.duration[t.mask(["hub.publish"])]) * 1e6,
        "harness.ref_loop_ms": ref_loop_ms,
    }
    return metrics


#: Per-layer metric name → unit, in the order they are reported.
LAYER_UNITS = {
    "core.batch_us_per_point": "us",
    "core.batch_calls": "count",
    "core.inflight_clone_us": "us",
    "pipeline.sink_write_us": "us",
    "pipeline.archive_batches": "count",
    "api.write_self_us": "us",
    "api.query_self_ms": "ms",
    "storage.append_us_per_record": "us",
    "storage.append_calls": "count",
    "storage.flush_ms": "ms",
    "storage.bytes_written_per_point": "B",
    "storage.blocks_decoded_per_query": "count",
    "storage.read_ms_per_query": "ms",
    "queries.aggregate_self_ms": "ms",
    "queries.rolling_self_ms": "ms",
    "queries.zoom_self_ms": "ms",
    "queries.fallbacks_per_query": "count",
    "server.session_ms_per_query": "ms",
    "server.wire_ms_per_query": "ms",
    "server.encode_us_per_frame": "us",
    "server.decode_us_per_frame": "us",
    "server.reply_bytes_per_query": "B",
    "server.append_us_per_chunk": "us",
    "server.throttle_retries": "count",
    "hub.publish_us_per_event": "us",
    "harness.ref_loop_ms": "ms",
}

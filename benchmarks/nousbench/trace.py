"""Span recorder and the per-layer wrap table of the traced run.

The traced run wraps the public entry points of each ``src/repro``
layer *from here* — class, module and instance attribute wrapping, the
way ``repro.storage.snapshot.record_ingest`` wraps engine methods — so
no file under ``src/`` changes.  Spans are kept in memory and written
out when the run ends; counts ride on the spans as tags, so they are
taken at exactly the wrap points the times are.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Context follows a request across threads in two
places: the benchmark's own ``ClientSession`` objects (``trace_session``)
stamp the op id into an ``X-Nousbench-Op`` header that the gateway
handler span reads back, and ``PropagatingExecutor`` carries the
submitting span into the cluster's scatter pool.  The ingest drainer
thread has no causing span (documents cross a queue), so its spans are
roots.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

OP_HEADER = "X-Nousbench-Op"

_MISSING = object()


class Span:
    """One timed interval: name, start, end, causing span, op id."""

    __slots__ = ("id", "name", "parent", "op", "start", "end", "tags")

    def __init__(self, span_id: int, name: str, parent: Optional[int], op: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.tags: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            # a span still open when the file is written ends where it began
            "end": max(self.end, self.start),
        }
        if self.tags:
            out["tags"] = self.tags
        return out


Before = Callable[[Span, Tuple[Any, ...], Dict[str, Any]], None]
After = Callable[[Span, Any], None]


class Tracer:
    """In-memory span recorder with guaranteed unwrapping.

    Use as a context manager: everything :meth:`wrap` replaced is put
    back on exit, whether or not the run raised.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unwrap_all()

    # -- context ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def enclosing(self, name: str) -> Optional[Span]:
        """The innermost open span called ``name`` on this thread."""
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    @contextmanager
    def adopt(self, parent: Optional[Span]) -> Iterator[None]:
        """Run the block (on another thread) as a child context of
        ``parent`` without recording ``parent`` again."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # -- recording ----------------------------------------------------
    def start(self, name: str, op: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids),
            name,
            parent.id if parent is not None else None,
            op if op is not None else (parent.op if parent is not None else None),
        )
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        span = self.start(name, op)
        try:
            yield span
        finally:
            self.finish(span)

    # -- wrapping -----------------------------------------------------
    def wrap(
        self,
        obj: Any,
        attr: str,
        span_name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Replace ``obj.attr`` (a class's method, a module's function or
        an instance's bound method) with a span-recording wrapper.

        ``before(span, args, kwargs)`` runs inside the span ahead of the
        call and may tag the span or edit mutable arguments;
        ``after(span, result)`` runs once the span is closed.
        """
        raw = vars(obj).get(attr, _MISSING)
        original = getattr(obj, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.start(span_name)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                tracer.finish(span)
            if after is not None:
                after(span, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._wrapped.append((obj, attr, raw))
        setattr(obj, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._wrapped:
            obj, attr, raw = self._wrapped.pop()
            if raw is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, raw)

    # -- analysis -----------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """span id -> duration minus child-covered time (children may
        overlap each other when they ran on pool threads, so the
        covered part is the union of their intervals)."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return {
            span.id: span.duration - covered(children.get(span.id, ()), span)
            for span in self.spans
        }

    def by_name(self) -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.name, []).append(span)
        return grouped

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"meta": meta, "spans": [span.to_dict() for span in self.spans]},
                fh,
            )
            fh.write("\n")


def covered(spans: Sequence[Span], within: Span) -> float:
    """Length of the union of ``spans``' intervals inside ``within``."""
    total = 0.0
    cursor = within.start
    for span in sorted(spans, key=lambda s: s.start):
        start = max(span.start, cursor)
        end = min(span.end, within.end)
        if end > start:
            total += end - start
            cursor = end
    return total


class PropagatingExecutor(ThreadPoolExecutor):
    """Scatter pool that runs each task as a child of the span that
    submitted it (passed to ``ShardedNousService(executor=...)``)."""

    def __init__(self, tracer: Tracer, max_workers: int) -> None:
        super().__init__(max_workers=max_workers, thread_name_prefix="nousbench-scatter")
        self._tracer = tracer

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        parent = self._tracer.current()
        tracer = self._tracer

        def run() -> Any:
            with tracer.adopt(parent):
                return fn(*args, **kwargs)

        return super().submit(run)


# ---------------------------------------------------------------------------
# the per-layer wrap table
# ---------------------------------------------------------------------------


#: Every public ``RemoteShardClient`` method that is one shard round trip.
_SHARD_RPCS = (
    "submit", "submit_many", "ingest_facts", "flush", "query", "execute_query",
    "statistics", "graph_statistics", "stream_view", "extracted_fact_keys",
    "compute_step", "snapshot", "refresh_subscriptions",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the README's layer
    table for which end-to-end metric each should move)."""
    from repro.api import service as service_module
    from repro.api.cluster.remote import RemoteShardClient
    from repro.api.cluster.service import ShardedNousService
    from repro.api.http import client as client_module
    from repro.api.http.server import _GatewayHandler
    from repro.api.service import IngestTicket, NousService
    from repro.confidence.estimator import ConfidenceEstimator
    from repro.core.dynamic_kg import DynamicKnowledgeGraph
    from repro.core.pipeline import Nous
    from repro.kb.knowledge_base import KnowledgeBase
    from repro.linking.mapper import TripleMapper
    from repro.nlp.pipeline import NlpPipeline
    from repro.qa.lda import LdaModel
    from repro.qa.pathsearch import CoherentPathSearch
    from repro.query.engine import QueryEngine
    from repro.storage.jsonl import JsonLinesBackend

    wrap = tracer.wrap

    # nlp / linking / confidence / mining: the ingest half
    wrap(
        NlpPipeline, "process", "nlp.process",
        after=lambda span, doc: span.tags.update(raw=len(doc.triples)),
    )

    def mapped_counts(span: Span, per_doc: Sequence[Tuple[list, list]]) -> None:
        span.tags["mapped"] = sum(len(mapped) for mapped, _ in per_doc)
        span.tags["rejected"] = sum(len(rejected) for _, rejected in per_doc)

    wrap(TripleMapper, "map_batch", "linking.map_batch", after=mapped_counts)
    wrap(ConfidenceEstimator, "retrain", "confidence.retrain")

    def gate_counts(span: Span, results: Sequence[Any]) -> None:
        span.tags["docs"] = len(results)
        span.tags["accepted"] = sum(r.accepted for r in results)
        span.tags["rejected_confidence"] = sum(r.rejected_confidence for r in results)

    wrap(Nous, "ingest_batch", "core.ingest_batch", after=gate_counts)
    wrap(
        DynamicKnowledgeGraph, "accept_batch", "mining.accept_batch",
        before=lambda span, args, kwargs: span.tags.update(facts=len(args[1])),
    )
    wrap(DynamicKnowledgeGraph, "trending_report", "mining.report")

    # kb / qa / query: the read half
    wrap(KnowledgeBase, "to_property_graph", "kb.to_property_graph")
    wrap(LdaModel, "fit", "qa.lda_fit")
    wrap(CoherentPathSearch, "top_k_paths", "qa.path_search")
    wrap(
        QueryEngine, "execute", "query.execute",
        after=lambda span, result: span.tags.update(kind=result.kind, cached=result.cached),
    )

    # api.service
    def envelope_kind(span: Span, envelope: Any) -> None:
        span.tags["kind"] = envelope.kind
        span.tags["ok"] = envelope.ok

    wrap(NousService, "query", "service.query", after=envelope_kind)
    wrap(NousService, "statistics", "service.statistics")
    wrap(NousService, "refresh_subscriptions", "service.sub_refresh")
    wrap(IngestTicket, "result", "service.ticket_wait")

    # storage (replay_record is imported by name into the service module)
    wrap(JsonLinesBackend, "append_wal", "storage.wal_append")
    wrap(JsonLinesBackend, "write_snapshot", "storage.snapshot")
    wrap(JsonLinesBackend, "read_snapshot", "storage.read")
    wrap(JsonLinesBackend, "read_wal", "storage.read")
    wrap(service_module, "restore_nous", "storage.replay")
    wrap(service_module, "replay_record", "storage.replay", before=lambda s, a, k: s.tags.update(records=1))

    # api.cluster (parent side only; worker-side spans are a later issue)
    wrap(ShardedNousService, "query", "cluster.query", after=envelope_kind)
    wrap(ShardedNousService, "statistics", "cluster.statistics")
    wrap(ShardedNousService, "submit_many", "cluster.submit_many")
    wrap(ShardedNousService, "flush", "cluster.flush")
    for method in _SHARD_RPCS:
        wrap(
            RemoteShardClient, method, "cluster.shard_rpc",
            before=lambda span, args, kwargs, method=method: span.tags.update(method=method),
        )

    # api.http, server side: the gateway has no public per-request hook,
    # so the handler class's http.server entry points are wrapped; the
    # span adopts the op id the client sent.
    def adopt_op(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        handler = args[0]
        span.tags["path"] = handler.path.split("?")[0]
        op = handler.headers.get(OP_HEADER)
        if op is not None:
            span.op = int(op)

    wrap(_GatewayHandler, "do_GET", "http.handle", before=adopt_op)
    wrap(_GatewayHandler, "do_POST", "http.handle", before=adopt_op)

    # Only a traced session's request (below) has an enclosing
    # "http.request" span; the cluster's own sessions to its workers
    # inflate through the same function and are not counted.
    def inflated(span: Span, raw: bytes) -> None:
        if tracer.enclosing("http.request") is not None:
            span.tags["gzip_out"] = len(raw)

    wrap(
        client_module, "gunzip_bytes", "http.gunzip",
        before=lambda span, args, kwargs: span.tags.update(gzip_in=len(args[0])),
        after=inflated,
    )


def trace_session(tracer: Tracer, session: Any) -> None:
    """Trace one ``ClientSession`` the benchmark owns: every round trip
    is an ``http.request`` span that sends its op id to the gateway.

    The session's transport method is wrapped on the *instance* (the
    public endpoint methods take no headers), so no other session in
    the process — the cluster talks to its workers through the same
    class — is touched.
    """

    def outgoing(span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        payload = args[2] if len(args) > 2 else kwargs.get("payload")
        span.tags["path"] = args[1].split("?")[0]
        # the JSON body, before the session decides whether to gzip it
        span.tags["req_bytes"] = len(json.dumps(payload)) if payload else 0
        if span.op is not None:  # set-up requests belong to no op
            kwargs["extra_headers"] = {
                **(kwargs.get("extra_headers") or {}), OP_HEADER: str(span.op),
            }

    def incoming(span: Span, result: Tuple[int, Any, Dict[str, str]]) -> None:
        status, _data, headers = result
        span.tags["status"] = status
        span.tags["resp_bytes"] = int(headers.get("Content-Length", 0))

    tracer.wrap(session, "_request", "http.request", before=outgoing, after=incoming)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span adds to the call it wraps, measured
    here and now on a no-op (scratch tracer, nothing kept)."""

    class Probe:
        def call(self) -> None:
            return None

    def timed(probe: Probe) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            probe.call()
        return time.perf_counter() - start

    probe = Probe()
    bare = timed(probe)
    with Tracer() as scratch:
        scratch.wrap(probe, "call", "probe")
        wrapped = timed(probe)
    return max(0.0, wrapped - bare) / calls


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: envelope kind -> the per-class latency metric it feeds
_CLASS_OF_KIND = {
    "entity": "entity",
    "entity-trend": "trend",
    "relationship": "relationship",
    "explanatory": "relationship",
    "pattern": "pattern",
    "trending": "trending",
    "pagerank": "analytics",
    "components": "analytics",
    "centrality": "analytics",
}
_QUERY_SPANS = ("service.query", "cluster.query")
#: Spans whose busy time explains a bulk ingest / a fresh path answer.
_INGEST_LAYERS = (
    "nlp.process", "linking.map_batch", "confidence.retrain",
    "mining.accept_batch", "storage.wal_append", "storage.snapshot",
    "service.sub_refresh", "cluster.shard_rpc",
)
_FRESH_PATH_LAYERS = (
    "qa.lda_fit", "kb.to_property_graph", "qa.path_search", "cluster.shard_rpc",
)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer, facts: Dict[str, float], ops_total: int, wall_s: float
) -> Dict[str, float]:
    """Every per-layer metric, by its BENCHMARK.json name.

    ``facts`` are the plain counters the lifecycle read off the service
    before closing it (cache hits, batches drained, file sizes, the
    cluster's placement and compute blocks).
    """
    spans = tracer.by_name()
    self_time = tracer.self_times()
    # `execute_query` calls `query` (both public, both wrapped): count a
    # shard round trip once, by its outermost span.
    name_of = {span.id: span.name for span in tracer.spans}
    spans["cluster.shard_rpc"] = [
        s for s in spans.get("cluster.shard_rpc", ())
        if name_of.get(s.parent) != "cluster.shard_rpc"
    ]

    def calls(name: str) -> int:
        return len(spans.get(name, ()))

    def busy_ms(*names: str) -> float:
        return 1000.0 * sum(s.duration for n in names for s in spans.get(n, ()))

    def tagged(name: str, tag: str) -> float:
        return sum(s.tags.get(tag, 0) for s in spans.get(name, ()))

    queries = [s for name in _QUERY_SPANS for s in spans.get(name, ())]
    by_class: Dict[str, List[float]] = {}
    for span in queries:
        klass = _CLASS_OF_KIND.get(span.tags.get("kind", ""))
        if klass is not None:
            by_class.setdefault(klass, []).append(span.duration * 1000.0)

    # client round trip minus the service call it wraps, op by op
    served = {s.op: s.duration for s in queries if s.op is not None}
    overheads = [
        (s.duration - served[s.op]) * 1000.0
        for name in ("op.query", "op.fresh_query")
        for s in spans.get(name, ())
        if s.op in served
    ]
    stats_requests = [
        s for s in spans.get("http.request", ()) if s.tags["path"].endswith("/stats")
    ]

    def coverage(root_names: Sequence[str], layers: Sequence[str], by_op: bool) -> float:
        """Share of the root spans' wall time that the named layer spans
        account for (matched by op id, or by time window for work that
        ran on the drainer thread)."""
        roots = [s for n in root_names for s in spans.get(n, ())]
        layer_spans = [s for n in layers for s in spans.get(n, ())]
        explained = sum(
            covered(
                [s for s in layer_spans if not by_op or s.op == root.op], root
            )
            for root in roots
        )
        return _ratio(explained, sum(s.duration for s in roots))

    documents = facts.get("documents_drained", 0)
    metrics = {
        "nlp.process_calls": calls("nlp.process"),
        "nlp.busy_ms": busy_ms("nlp.process"),
        "nlp.raw_triples": tagged("nlp.process", "raw"),
        "linking.map_batch_calls": calls("linking.map_batch"),
        "linking.busy_ms": busy_ms("linking.map_batch"),
        "linking.mapped_ratio": _ratio(
            tagged("linking.map_batch", "mapped"),
            tagged("linking.map_batch", "mapped") + tagged("linking.map_batch", "rejected"),
        ),
        "confidence.retrain_calls": calls("confidence.retrain"),
        "confidence.retrain_busy_ms": busy_ms("confidence.retrain"),
        "confidence.accept_ratio": _ratio(
            tagged("core.ingest_batch", "accepted"),
            tagged("core.ingest_batch", "accepted")
            + tagged("core.ingest_batch", "rejected_confidence"),
        ),
        "mining.accept_batch_busy_ms": busy_ms("mining.accept_batch"),
        "mining.facts_in": tagged("mining.accept_batch", "facts"),
        "mining.report_calls": calls("mining.report"),
        "mining.report_busy_ms": busy_ms("mining.report"),
        "kb.to_property_graph_calls": calls("kb.to_property_graph"),
        "kb.to_property_graph_busy_ms": busy_ms("kb.to_property_graph"),
        "kb.facts": facts.get("kb.facts", 0),
        "kb.entities": facts.get("kb.entities", 0),
        "qa.lda_fit_calls": calls("qa.lda_fit"),
        "qa.lda_fit_busy_ms": busy_ms("qa.lda_fit"),
        "qa.path_search_calls": calls("qa.path_search"),
        "qa.path_search_busy_ms": busy_ms("qa.path_search"),
        "query.execute_calls": calls("query.execute"),
        "query.busy_ms": busy_ms("query.execute"),
        "query.cache_hit_ratio": _ratio(
            facts.get("cache_hits", 0),
            facts.get("cache_hits", 0) + facts.get("cache_misses", 0),
        ),
        "service.batches_drained": facts.get("batches_drained", 0),
        "service.docs_per_batch": _ratio(documents, facts.get("batches_drained", 0)),
        "service.ticket_wait_p50_ms": 1000.0
        * _median([s.duration for s in spans.get("service.ticket_wait", ())]),
        "service.sub_refresh_busy_ms": busy_ms("service.sub_refresh"),
        "http.overhead_p50_ms": _median(overheads),
        "http.req_bytes": tagged("http.request", "req_bytes"),
        "http.resp_bytes": tagged("http.request", "resp_bytes"),
        "http.gzip_ratio": _ratio(
            tagged("http.gunzip", "gzip_out"),
            sum(s.tags["gzip_in"] for s in spans.get("http.gunzip", ()) if "gzip_out" in s.tags),
        ),
        "http.stats_304_ratio": _ratio(
            sum(1 for s in stats_requests if s.tags.get("status") == 304),
            len(stats_requests),
        ),
        "cluster.shard_rpc_calls": calls("cluster.shard_rpc"),
        "cluster.shard_rpc_busy_ms": busy_ms("cluster.shard_rpc"),
        "cluster.merge_self_ms": 1000.0
        * sum(self_time[s.id] for s in spans.get("cluster.query", ())),
        "cluster.balance": facts.get("cluster.balance", 0),
        "cluster.edge_cut": facts.get("cluster.edge_cut", 0),
        "compute.jobs": facts.get("compute.jobs", 0),
        "compute.supersteps": facts.get("compute.supersteps", 0),
        "compute.messages": facts.get("compute.messages", 0),
        "compute.bytes": facts.get("compute.bytes", 0),
        "storage.wal_append_calls": calls("storage.wal_append"),
        "storage.wal_append_busy_ms": busy_ms("storage.wal_append"),
        "storage.wal_bytes_per_doc": _ratio(facts.get("storage.wal_bytes", 0), documents),
        "storage.snapshot_busy_ms": busy_ms("storage.snapshot"),
        "storage.snapshot_bytes": facts.get("storage.snapshot_bytes", 0),
        "storage.read_busy_ms": busy_ms("storage.read"),
        "storage.replay_busy_ms": busy_ms("storage.replay"),
        "storage.records_replayed": tagged("storage.replay", "records"),
        "run.ops_total": ops_total,
        "run.wall_s": wall_s,
        "trace.overhead_ratio": _ratio(
            wall_s, wall_s - len(tracer.spans) * span_cost_s()
        ),
        "trace.spans": len(tracer.spans),
        "trace.ingest_coverage": coverage(
            ("op.bulk", "op.snapshot"), _INGEST_LAYERS, by_op=False
        ),
        "trace.fresh_path_coverage": coverage(
            ("op.fresh_query",), _FRESH_PATH_LAYERS, by_op=True
        ),
    }
    for klass in ("entity", "trend", "relationship", "pattern", "trending", "analytics"):
        metrics[f"query.{klass}_p50_ms"] = _median(by_class.get(klass, ()))
    return metrics

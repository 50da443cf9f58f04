"""``NousService``: the service facade over construction and querying.

Three responsibilities on top of the raw :class:`~repro.core.pipeline.Nous`
/ :class:`~repro.query.engine.QueryEngine` pair:

- **Envelope discipline** — every operation takes a typed request and
  returns an :class:`~repro.api.envelopes.ApiResponse`; exceptions are
  mapped onto the structured error taxonomy instead of escaping.
- **Async ingestion queue** — :meth:`NousService.submit` enqueues one
  document and returns an :class:`IngestTicket` immediately.  A drainer
  group-commits them into ``Nous.ingest_batch``: it takes up to
  ``max_batch`` the moment the queue is non-empty, and whatever arrives
  *while that batch runs* is the next micro-batch — an idle service
  starts on a lone document at once, concurrent single-document callers
  still ride the ~3x amortised batch hot path.
- **Standing queries** — :meth:`NousService.subscribe` registers a
  continuous query.  After every drain (or explicit refresh) each
  subscription is re-evaluated iff the KG version stamp moved, and the
  subscriber receives *delta* results: rows added and rows removed since
  its last notification.  This makes change feeds — including rows that
  vanish purely because their supporting window edges were evicted — a
  first-class API instead of a cache-bypass special case.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.envelopes import (
    ApiResponse,
    IngestRequest,
    QueryRequest,
    error_from_exception,
)
from repro.api.wire import delta_rows, encode_payload
from repro.compute.shardstep import ComputeStepExecutor
from repro.core.pipeline import Nous, NousConfig
from repro.core.statistics import GraphStatistics, compute_statistics
from repro.errors import ConfigError, ReproError, StorageError
from repro.kb.knowledge_base import KnowledgeBase
from repro.mining.patterns import Pattern
from repro.nlp.dates import parse_date
from repro.query.engine import QueryEngine, QueryResult
from repro.query.model import Query, TrendingQuery
from repro.query.parser import parse_query
from repro.storage import (
    IngestRecorder,
    JsonLinesBackend,
    record_ingest,
    replay_record,
    restore_nous,
    snapshot_nous,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Queue and cache policy for :class:`NousService`.

    Attributes:
        max_batch: Upper bound on documents per drain.  No fill delay:
            the drainer takes what is pending as soon as it is free.
        auto_start: Start the background drainer thread.  When False the
            queue only drains on explicit :meth:`NousService.flush` —
            deterministic single-threaded mode for tests and drivers.
        cache_size / enable_cache: Passed to the query-result cache.
        snapshot_every: With a ``data_dir``, write a full snapshot after
            this many drained micro-batches (0 disables periodic
            snapshots; :meth:`NousService.snapshot` remains available).
    """

    max_batch: int = 32
    auto_start: bool = True
    cache_size: int = 256
    enable_cache: bool = True
    snapshot_every: int = 0

    def validate(self) -> None:
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")


class IngestTicket:
    """Handle to one queued document; fulfilled when its batch drains."""

    def __init__(self, doc_id: str) -> None:
        self.doc_id = doc_id
        self._event = threading.Event()
        self._response: Optional[ApiResponse] = None

    def done(self) -> bool:
        """True once the document's batch has been ingested."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ApiResponse:
        """Block until the document is ingested; returns its envelope.

        Raises:
            ReproError: when the ticket is not fulfilled within
                ``timeout`` seconds.
        """
        if not self._event.wait(timeout):
            raise ReproError(
                f"ingest ticket for {self.doc_id!r} not fulfilled "
                f"within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def _fulfill(self, response: ApiResponse) -> None:
        self._response = response
        self._event.set()


@dataclass(frozen=True)
class StandingQueryUpdate:
    """One delta notification from a standing query.

    Attributes:
        subscription_id: The originating subscription.
        query_text: Normalized text of the standing query.
        kg_version: KG version stamp the refresh evaluated against.
        added: Rows present now but not at the last notification
            (includes rows whose observable content changed).
        removed: Rows present at the last notification but not now —
            e.g. window rows whose supporting edges were evicted.
    """

    subscription_id: int
    query_text: str
    kg_version: int
    added: Tuple[Dict[str, Any], ...] = ()
    removed: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "subscription_id": self.subscription_id,
            "query_text": self.query_text,
            "kg_version": self.kg_version,
            "added": [dict(r) for r in self.added],
            "removed": [dict(r) for r in self.removed],
        }


class Subscription:
    """A registered standing (continuous) query.

    Updates accumulate on the subscription and are drained with
    :meth:`poll`; an optional callback receives each update as it is
    produced.  The registration-time result set is the baseline — the
    first update describes changes *since subscribing*, not the initial
    rows.
    """

    def __init__(
        self,
        sub_id: int,
        query: Query,
        rows: Dict[str, Dict[str, Any]],
        kg_version: int,
        callback: Optional[Callable[[StandingQueryUpdate], None]] = None,
        trending_full_view: bool = False,
    ) -> None:
        self.id = sub_id
        self.query = query
        self.active = True
        #: Trending rows cover the miner's full support table instead of
        #: its closed-frequent slice (see :meth:`NousService.subscribe`).
        self.trending_full_view = trending_full_view
        #: Most recent evaluation/callback failure, if any (refreshes
        #: never propagate subscriber errors into the ingestion path).
        self.last_error: Optional[BaseException] = None
        self._rows = rows
        self._kg_version = kg_version
        self._callback = callback
        self._updates: Deque[StandingQueryUpdate] = deque()

    @property
    def query_text(self) -> str:
        return self.query.text

    @property
    def current_rows(self) -> List[Dict[str, Any]]:
        """The rows of the most recent evaluation."""
        return [dict(r) for r in self._rows.values()]

    @property
    def last_kg_version(self) -> int:
        """KG version stamp the current rows were evaluated at (the
        baseline version until the first delta)."""
        return self._kg_version

    def poll(self) -> List[StandingQueryUpdate]:
        """Drain and return pending delta notifications, oldest first."""
        updates: List[StandingQueryUpdate] = []
        while self._updates:
            updates.append(self._updates.popleft())
        return updates

    def _apply(
        self, rows: Dict[str, Dict[str, Any]], kg_version: int
    ) -> Optional[StandingQueryUpdate]:
        """Diff a fresh evaluation against the last one; record and
        return the update when anything changed."""
        added = [
            row
            for key, row in rows.items()
            if self._rows.get(key) != row
        ]
        removed = [
            row for key, row in self._rows.items() if key not in rows
        ]
        self._rows = rows
        self._kg_version = kg_version
        if not added and not removed:
            return None
        update = StandingQueryUpdate(
            subscription_id=self.id,
            query_text=self.query.text,
            kg_version=kg_version,
            added=tuple(added),
            removed=tuple(removed),
        )
        self._updates.append(update)
        return update


@dataclass(frozen=True)
class StreamView:
    """A consistent snapshot of one service's streaming (window) state.

    Scatter-gather trending assembly reads this from every shard: the
    *full* pattern-support table (not just the closed-frequent slice —
    a pattern infrequent on every shard can still be frequent after the
    supports are summed), plus the window size and stream clock needed
    to build a merged :class:`~repro.mining.streaming.WindowReport`.
    Reading supports never consumes the miner's transition state.
    """

    supports: Dict[Pattern, int]
    min_support: int
    window_edges: int
    last_timestamp: float
    kg_version: int


class NousService:
    """The single supported entry point to a NOUS system.

    Args:
        nous: An existing system to wrap; built from ``kb`` / ``config``
            when omitted.
        kb: Starting curated KB (ignored when ``nous`` is given).
        config: Pipeline settings (ignored when ``nous`` is given).
        service_config: Queue/cache policy.
        data_dir: Enable the durability layer: own this directory
            through a :class:`~repro.storage.JsonLinesBackend`, append a
            WAL record per accepted ingest call, and — before the
            drainer starts — recover whatever snapshot/WAL state the
            directory already holds (cold start).  The engine passed in
            (or built from ``kb``/``config``) must be freshly
            constructed from the same curated KB the persisted state
            grew from.
    """

    def __init__(
        self,
        nous: Optional[Nous] = None,
        kb: Optional[KnowledgeBase] = None,
        config: Optional[NousConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        data_dir: Optional[str] = None,
    ) -> None:
        self.service_config = service_config or ServiceConfig()
        self.service_config.validate()
        self.nous = nous if nous is not None else Nous(kb=kb, config=config)
        self.data_dir = data_dir
        self._storage = (
            JsonLinesBackend(data_dir) if data_dir is not None else None
        )
        self._wal_records = 0
        self._batches_since_snapshot = 0
        self._recording = False
        self.engine = QueryEngine(
            self.nous,
            cache_size=self.service_config.cache_size,
            enable_cache=self.service_config.enable_cache,
        )
        # One lock serialises every KG-touching operation (drains,
        # queries, subscription refreshes); the queue has its own lock so
        # submissions never wait behind an in-flight drain.
        self._engine_lock = threading.RLock()
        self._queue_lock = threading.Lock()
        self._queue_changed = threading.Condition(self._queue_lock)
        self._idle = threading.Condition(self._queue_lock)
        self._pending: Deque[Tuple[IngestRequest, IngestTicket]] = deque()
        self._draining = False
        self._closed = False
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_subscription_id = 1
        self._compute_executor: Optional[ComputeStepExecutor] = None
        self.batches_drained = 0
        self.documents_drained = 0
        #: Standing-query evaluation/callback failures swallowed so far.
        self.subscription_errors = 0
        self._drainer: Optional[threading.Thread] = None
        if self._storage is not None:
            self.recover()
        if self.service_config.auto_start:
            self._drainer = threading.Thread(
                target=self._drain_loop, name="nous-ingest-drainer", daemon=True
            )
            self._drainer.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "NousService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Drain outstanding work and stop the background thread."""
        self.flush()
        with self._queue_lock:
            self._closed = True
            self._queue_changed.notify_all()
        if self._drainer is not None:
            self._drainer.join(timeout=5.0)
            self._drainer = None
        if self._storage is not None:
            self._storage.close()
        # Release the engine's extraction pool (no-op when serial).
        self.nous.close()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Write a full engine+service snapshot to the data directory.

        The snapshot records how many WAL records its state already
        covers, so recovery replays only the suffix; the WAL itself is
        left in place — a later recovery that finds the snapshot
        missing or corrupt degrades to a full-WAL replay instead of
        losing data.

        Returns:
            The composite KG version stamp the snapshot captured.

        Raises:
            StorageError: without a ``data_dir``, or when the write
                fails.
        """
        if self._storage is None:
            raise StorageError("snapshot() needs a data_dir")
        with self._engine_lock:
            state = {
                "engine": snapshot_nous(self.nous),
                "service": {
                    "batches_drained": self.batches_drained,
                    "documents_drained": self.documents_drained,
                },
                "wal_covered": self._wal_records,
            }
            self._storage.write_snapshot(state)
            self._batches_since_snapshot = 0
            return self.nous.dynamic.version

    def recover(self) -> int:
        """Rebuild state from the data directory onto the fresh engine.

        Restores the last good snapshot (if any), then replays the WAL
        records the snapshot does not cover.  A missing or corrupt
        snapshot degrades to replaying the full WAL from the engine's
        constructed state; a torn WAL tail ends the replay at the last
        intact record.  Runs automatically during construction when a
        ``data_dir`` is configured.

        Returns:
            Number of WAL records replayed.

        Raises:
            StorageError: without a ``data_dir``, or when the engine has
                already ingested (recovery only targets a fresh engine).
        """
        if self._storage is None:
            raise StorageError("recover() needs a data_dir")
        with self._engine_lock:
            if (
                self.nous.dynamic.facts_streamed
                or self.nous.dynamic.window.total_added
            ):
                raise StorageError(
                    "recover() targets a fresh engine; this one already "
                    "ingested (replaying on top would double-apply)"
                )
            records = self._storage.read_wal()
            self._wal_records = len(records)
            state = self._storage.read_snapshot()
            covered = 0
            if state is not None:
                covered = min(int(state.get("wal_covered", 0)), len(records))
                restore_nous(self.nous, state["engine"])
                service_state = state.get("service", {})
                self.batches_drained = service_state.get("batches_drained", 0)
                self.documents_drained = service_state.get(
                    "documents_drained", 0
                )
            for record in records[covered:]:
                replay_record(self.nous, record)
                service_state = record.get("service")
                if service_state is not None:
                    self.batches_drained = service_state["batches_drained"]
                    self.documents_drained = service_state[
                        "documents_drained"
                    ]
            return len(records) - covered

    def _append_wal(self, record: Dict[str, Any]) -> None:
        """Durably append one effect record (caller holds the engine
        lock, so WAL order always matches effect order)."""
        assert self._storage is not None
        record["service"] = {
            "batches_drained": self.batches_drained,
            "documents_drained": self.documents_drained,
        }
        self._storage.append_wal(record)
        self._wal_records += 1

    def _recorded_ingest(self) -> ContextManager[Optional[IngestRecorder]]:
        """Capture the block's one ingest call for the WAL: enters to
        the recorder, or to nothing (recording nothing) without a
        ``data_dir``.  Appending is the caller's step — each ingest
        path has its own rule for when the record is due."""
        if self._storage is None:
            return nullcontext()
        return record_ingest(self.nous)

    @contextmanager
    def _durable_engine_lock(self) -> Iterator[None]:
        """The engine lock, plus WAL capture for *query-path* mutations.

        Query execution is not read-only: entity linking may mint an
        entity for an unknown mention, moving the KG version.  Durable
        mode records the guarded block's effects and appends a WAL
        record iff the version stamp moved, so a recovered engine
        reaches the exact pre-crash stamp even when queries (or
        standing-query refreshes) interleaved with ingestion.
        """
        with self._engine_lock:
            if self._storage is None or self._recording:
                yield
                return
            before = self.nous.dynamic.version
            self._recording = True
            try:
                with record_ingest(self.nous) as recorder:
                    try:
                        yield
                    except BaseException:
                        # A query can fail *after* linking minted an
                        # entity (e.g. no path between the endpoints);
                        # the mint is real engine state and must be as
                        # durable as the failure envelope is visible.
                        recorder.finish()
                        raise
            finally:
                self._recording = False
                if (
                    recorder.record is not None
                    and self.nous.dynamic.version != before
                ):
                    self._append_wal(recorder.record)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @staticmethod
    def _validated_date(request: IngestRequest) -> None:
        """Reject unparseable date strings at submission time.

        Silently ingesting a document whose date failed to parse would
        corrupt stream ordering (the fact would take the +1 timestamp
        fallback) — fail the request loudly instead.
        """
        if request.date is not None and parse_date(request.date) is None:
            raise ConfigError(
                f"unparseable date {request.date!r} on document "
                f"{request.doc_id!r}"
            )

    def submit(
        self, request: Union[IngestRequest, Any]
    ) -> IngestTicket:
        """Enqueue one document; returns immediately with a ticket.

        Accepts an :class:`IngestRequest` or any ``Article``-like object
        (``text`` / ``doc_id`` / ``date`` / ``source``).

        Raises:
            ConfigError: when the request carries a date string that
                does not parse.
        """
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[Union[IngestRequest, Any]]
    ) -> List[IngestTicket]:
        """Enqueue a sequence of documents atomically (one ticket each).

        The whole sequence lands in the queue before the drainer can
        carve its next batch, so bulk submitters get maximal batches
        instead of racing the drainer document by document.
        """
        normalized = [
            request
            if isinstance(request, IngestRequest)
            else IngestRequest.from_article(request)
            for request in requests
        ]
        for request in normalized:
            self._validated_date(request)
        tickets = [IngestTicket(request.doc_id) for request in normalized]
        with self._queue_lock:
            if self._closed:
                raise ReproError("service is closed")
            self._pending.extend(zip(normalized, tickets))
            self._queue_changed.notify_all()
        return tickets

    def ingest(
        self,
        request: Union[IngestRequest, Any],
        timeout: Optional[float] = 60.0,
    ) -> ApiResponse:
        """Submit one document and block until it is ingested.

        The document still travels through the micro-batching queue, so
        concurrent callers share one amortised ``ingest_batch`` pass.
        """
        ticket = self.submit(request)
        if self._drainer is None:
            self.flush()
        return ticket.result(timeout=timeout)

    def ingest_facts(
        self,
        facts: Sequence[Tuple[str, str, str]],
        date: Optional[str] = None,
        source: str = "structured",
        confidence: float = 0.9,
    ) -> ApiResponse:
        """Ingest structured ``(s, p, o)`` facts, bypassing NLP (§3.1's
        log/bibliography domains).  Synchronous; standing queries are
        refreshed before returning."""
        start = time.perf_counter()
        try:
            parsed_date = None
            if date is not None:
                parsed_date = parse_date(date)
                if parsed_date is None:
                    raise ConfigError(f"unparseable date {date!r}")
            with self._engine_lock:
                with self._recorded_ingest() as recorder:
                    accepted = self.nous.ingest_facts(
                        facts, date=parsed_date, source=source,
                        confidence=confidence,
                    )
                if recorder is not None:
                    assert recorder.record is not None
                    self._append_wal(recorder.record)
                version = self.nous.dynamic.version
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            return ApiResponse.failure(exc, kind="ingest")
        # The facts are committed: whatever happens to the standing
        # queries now, the caller must see ok=True (a failure here would
        # invite a double-ingesting retry).
        self.refresh_subscriptions()
        return ApiResponse(
            ok=True,
            kind="ingest",
            payload={"accepted": accepted, "doc_id": "", "structured": True},
            rendered=f"accepted {accepted} structured fact(s)",
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
            kg_version=version,
        )

    @property
    def pending_count(self) -> int:
        """Documents enqueued but not yet drained."""
        with self._queue_lock:
            return len(self._pending)

    @property
    def kg_version(self) -> int:
        """The monotonic KG version stamp (see
        :attr:`~repro.core.dynamic_kg.DynamicKnowledgeGraph.version`).

        Lock-free: the stamp is advisory freshness information for
        health probes and heartbeats, which must not queue behind an
        in-flight drain.
        """
        return self.nous.dynamic.version

    @property
    def kg_version_hint(self) -> int:
        """Cheapest available version stamp (exact for an in-process
        shard; a remote shard returns its last-read health value so
        per-delta stamping never blocks on a wire round trip)."""
        return self.nous.dynamic.version

    @property
    def documents_ingested(self) -> int:
        """Documents fully processed by the pipeline so far."""
        return self.nous.documents_ingested

    @property
    def draining_in_background(self) -> bool:
        """True when a background drainer thread owns the queue (adapters
        without one — ``auto_start=False`` — must flush explicitly)."""
        return self._drainer is not None

    @property
    def alive(self) -> bool:
        """An in-process shard is alive for as long as it exists (the
        process-mode counterpart reports its worker's liveness)."""
        return True

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted document has been ingested.

        With a running drainer this waits until the queue is empty and
        no batch is in flight; without one (``auto_start=False``) it
        drains synchronously in the calling thread, in
        ``max_batch``-sized chunks.
        """
        if self._drainer is None:
            while True:
                with self._queue_lock:
                    batch = self._take_batch()
                if not batch:
                    return
                self._ingest_batch(batch)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._queue_lock:
            while self._pending or self._draining:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ReproError("flush timed out")
                self._idle.wait(timeout=remaining)

    # ------------------------------------------------------------------
    # the drainer
    # ------------------------------------------------------------------
    def _take_batch(self) -> List[Tuple[IngestRequest, IngestTicket]]:
        """Pop up to ``max_batch`` pending documents (caller holds the
        queue lock)."""
        count = min(len(self._pending), self.service_config.max_batch)
        return [self._pending.popleft() for _ in range(count)]

    def _drain_loop(self) -> None:
        while True:
            with self._queue_lock:
                while not self._pending:
                    if self._closed:
                        return
                    self._queue_changed.wait()
                # Group commit: take what is pending now; whatever is
                # submitted while this batch runs is the next batch.
                batch = self._take_batch()
                self._draining = True
            try:
                self._ingest_batch(batch)
            finally:
                with self._queue_lock:
                    self._draining = False
                    if not self._pending:
                        self._idle.notify_all()

    def _ingest_batch(
        self, batch: Sequence[Tuple[IngestRequest, IngestTicket]]
    ) -> None:
        """Run one micro-batch through ``ingest_batch``, fulfill its
        tickets, then refresh standing queries.

        The periodic confidence retrain is deferred while more documents
        are already waiting: consecutive micro-batches of one busy
        period share a single end-of-period retrain (exactly the
        amortisation a direct whole-corpus ``ingest_batch`` performs),
        instead of paying it once per drain.
        """
        articles = [
            _QueuedArticle(request) for request, _ticket in batch
        ]
        try:
            with self._engine_lock:
                with self._recorded_ingest() as recorder:
                    results = self.nous.ingest_batch(
                        articles, defer_retrain=True
                    )
                    if self.pending_count == 0:
                        self.nous.retrain_if_due()
                self.batches_drained += 1
                self.documents_drained += len(batch)
                if recorder is not None:
                    # The batch's effects reach the WAL *before* any
                    # ticket is fulfilled: a fulfilled ticket is a
                    # durability acknowledgment.
                    assert recorder.record is not None
                    self._append_wal(recorder.record)
                version = self.nous.dynamic.version
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            failure = ApiResponse.failure(exc, kind="ingest")
            for _request, ticket in batch:
                ticket._fulfill(failure)
            return
        for (request, ticket), result in zip(batch, results):
            ticket._fulfill(
                ApiResponse(
                    ok=True,
                    kind="ingest",
                    payload=encode_payload("ingest", result),
                    rendered=(
                        f"{result.doc_id or '(no id)'}: accepted "
                        f"{result.accepted}/{result.raw_triples} triples"
                    ),
                    kg_version=version,
                )
            )
        self._batches_since_snapshot += 1
        if (
            self._storage is not None
            and self.service_config.snapshot_every
            and self._batches_since_snapshot
            >= self.service_config.snapshot_every
        ):
            self.snapshot()
        try:
            self.refresh_subscriptions()
        except Exception:  # noqa: BLE001 - drainer must survive anything
            # Subscriber errors are already isolated inside
            # refresh_subscriptions; this guards the drainer thread
            # against unexpected internal failures (a dead drainer would
            # hang every future submit/flush).
            self.subscription_errors += 1

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, request: Union[str, QueryRequest]) -> ApiResponse:
        """Execute one query; always returns an envelope (never raises
        for :class:`ReproError` failures)."""
        text = request.text if isinstance(request, QueryRequest) else request
        try:
            with self._durable_engine_lock():
                result = self.engine.execute_text(text)
            payload = encode_payload(result.kind, result.payload)
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            return ApiResponse.failure(exc)
        return ApiResponse(
            ok=True,
            kind=result.kind,
            payload=payload,
            rendered=result.rendered,
            elapsed_ms=result.elapsed_ms,
            kg_version=result.kg_version,
            cached=result.cached,
        )

    def statistics(self) -> ApiResponse:
        """Quality-dashboard statistics as an envelope (§4 feature 2)."""
        start = time.perf_counter()
        try:
            with self._engine_lock:
                stats = compute_statistics(self.nous.kb)
                version = self.nous.dynamic.version
            payload = encode_payload("statistics", stats)
            rendered = stats.render()
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            return ApiResponse.failure(exc, kind="statistics")
        return ApiResponse(
            ok=True,
            kind="statistics",
            payload=payload,
            rendered=rendered,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
            kg_version=version,
        )

    # ------------------------------------------------------------------
    # scatter-gather hooks (consumed by repro.api.cluster)
    # ------------------------------------------------------------------
    def execute_query(self, query: Query) -> QueryResult:
        """Execute one parsed query under the engine lock, returning the
        engine's rich :class:`~repro.query.engine.QueryResult` (payload
        objects, not wire dicts).

        This is the scatter half of the cluster's scatter-gather router:
        merge-aware assembly needs the payload *objects* (summaries,
        ranked paths, reports) rather than their encoded form.
        """
        with self._durable_engine_lock():
            return self.engine.execute(query)

    def stream_view(self) -> StreamView:
        """Snapshot the full pattern-support table and stream clock.

        Unlike a trending query this never consumes the miner's
        newly-frequent/-infrequent transition state, so gathering shard
        views for a merged report leaves every shard's interactive
        trending output untouched.
        """
        with self._engine_lock:
            miner = self.nous.dynamic.miner
            return StreamView(
                supports=dict(miner.supports()),
                min_support=miner.min_support,
                window_edges=miner.window_size,
                last_timestamp=self.nous.last_timestamp,
                kg_version=self.nous.dynamic.version,
            )

    def graph_statistics(self) -> GraphStatistics:
        """Compute the quality statistics *object* under the engine lock
        (the envelope-returning :meth:`statistics` encodes this)."""
        with self._engine_lock:
            return compute_statistics(self.nous.kb)

    def extracted_fact_keys(self) -> List[Tuple[str, str, str]]:
        """``(subject, predicate, object)`` keys of every extracted
        (non-curated) fact, for the cluster's placement accounting."""
        with self._engine_lock:
            return [
                (triple.subject, triple.predicate, triple.object)
                for triple in self.nous.kb.store
                if not triple.curated
            ]

    def compute_step(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one stateless compute superstep over this shard's partition.

        The distributed-compute scatter hook (``POST /v1/shard/compute``
        on a worker): the coordinator sends a
        :class:`~repro.compute.protocol.ComputeRequest` in wire form and
        gets the wire-form response back.  Runs under the durable engine
        lock because the ``resolve`` op drives the entity linker, which
        may mint entities (a WAL-worthy mutation); the graph-scan ops
        are pure reads and the durable wrapper is a no-op for them.
        """
        with self._durable_engine_lock():
            if self._compute_executor is None:
                self._compute_executor = ComputeStepExecutor(self.nous)
            return self._compute_executor.execute(request)

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query_text: str,
        callback: Optional[Callable[[StandingQueryUpdate], None]] = None,
        trending_full_view: bool = False,
    ) -> Subscription:
        """Register a continuous query.

        The query is evaluated once to establish a baseline; afterwards
        every queue drain (and every explicit
        :meth:`refresh_subscriptions`) re-evaluates it iff the KG
        version stamp moved, delivering added/removed row deltas via
        :meth:`Subscription.poll` and the optional ``callback``.

        Args:
            trending_full_view: For trending queries, produce rows over
                the miner's *full* support table instead of its
                closed-frequent slice.  Sub-threshold support movement
                then yields deltas too — the change signal a
                scatter-gather router needs, since a pattern invisible
                in every shard's closed view can still be frequent in
                the merged counts.  Default off: ordinary subscribers
                keep the monolith's closed-frequent row contract.

        Raises:
            ReproError: when the query cannot be parsed or does not
                support row-level deltas.
        """
        query = parse_query(query_text)
        with self._durable_engine_lock():
            rows, version = self._evaluate_rows(
                query, trending_full_view=trending_full_view
            )
            subscription = Subscription(
                self._next_subscription_id,
                query,
                rows,
                version,
                callback,
                trending_full_view=trending_full_view,
            )
            self._next_subscription_id += 1
            self._subscriptions[subscription.id] = subscription
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deregister a standing query (idempotent)."""
        with self._engine_lock:
            self._subscriptions.pop(subscription.id, None)
            subscription.active = False

    @property
    def subscription_count(self) -> int:
        """Currently registered standing queries.

        Deliberately lock-free (``len`` of a dict is atomic under the
        GIL): health probes read this and must not block behind an
        in-flight drain holding the engine lock.
        """
        return len(self._subscriptions)

    def refresh_subscriptions(self) -> List[StandingQueryUpdate]:
        """Re-evaluate every standing query against the current KG.

        Subscriptions whose last evaluation already saw the current
        version stamp are skipped — no observable change can have
        happened.  Returns the updates produced by this refresh.

        A failing evaluation or subscriber callback never propagates:
        it is recorded on ``Subscription.last_error`` (and counted in
        :attr:`subscription_errors`) and the refresh moves on — a broken
        subscriber must not stall the ingestion queue.
        """
        updates: List[StandingQueryUpdate] = []
        callbacks: List[Tuple[Subscription, StandingQueryUpdate]] = []
        with self._durable_engine_lock():
            version = self.nous.dynamic.version
            for subscription in self._subscriptions.values():
                if subscription._kg_version == version:
                    continue
                try:
                    rows, at_version = self._evaluate_rows(
                        subscription.query,
                        trending_full_view=subscription.trending_full_view,
                    )
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    subscription.last_error = exc
                    self.subscription_errors += 1
                    continue
                update = subscription._apply(rows, at_version)
                if update is not None:
                    updates.append(update)
                    if subscription._callback is not None:
                        callbacks.append((subscription, update))
        # Callbacks run outside the engine lock so they may query the
        # service without deadlocking.
        for subscription, update in callbacks:
            try:
                subscription._callback(update)  # type: ignore[misc]
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                subscription.last_error = exc
                self.subscription_errors += 1
        return updates

    def _evaluate_rows(
        self, query: Query, trending_full_view: bool = False
    ) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """Evaluate one standing query into keyed rows.

        Trending is evaluated from the miner's *pure* closed-frequent
        view (or the full support table, see
        :meth:`subscribe` ``trending_full_view``) rather than through
        ``WindowReport``: the report's newly-frequent/-infrequent
        transition state is consumed on read, and standing queries must
        not steal those transitions from interactive callers.  Every
        other kind rides the query engine (and therefore the
        version-keyed result cache).
        """
        if isinstance(query, TrendingQuery):
            miner = self.nous.dynamic.miner
            if trending_full_view:
                view = sorted(miner.supports().items(), key=lambda kv: kv[1])
            else:
                view = miner.closed_frequent_patterns()
            return (
                delta_rows("trending", view),
                self.nous.dynamic.version,
            )
        result = self.engine.execute(query)
        return (
            delta_rows(result.kind, result.payload),
            result.kg_version,
        )


class _QueuedArticle:
    """Adapter: an :class:`IngestRequest` with the ``Article`` attribute
    surface that ``Nous.ingest_batch`` expects."""

    __slots__ = ("text", "doc_id", "date", "source")

    def __init__(self, request: IngestRequest) -> None:
        self.text = request.text
        self.doc_id = request.doc_id
        self.date = (
            parse_date(request.date) if request.date is not None else None
        )
        self.source = request.source

"""``RemoteShardClient``: one cluster shard, spoken to over the wire.

The scatter-gather router consumes shards through the
:class:`~repro.api.base.ShardLike` surface; this module implements that
surface against a ``nous serve`` worker subprocess using nothing but
the public HTTP contract — the PR-2 envelopes on ``/v1/ingest`` /
``/v1/query`` / ``/v1/stats``, the PR-3 NDJSON subscribe stream, and
the ``/v1/shard/*`` introspection routes.  Because both sides of every
call round-trip the :mod:`repro.api.wire` codecs, a remote shard's
answers compare *equal* to an in-process shard's, which is what lets
``ShardedNousService`` compose local and remote shards interchangeably
(``--shard-mode process``) without touching the merge layer.

Failure semantics: a transport-level error is promoted to a structured
:class:`~repro.errors.ClusterError` that names the shard, its pid and
its fate (``exited with code N`` when the supervisor says the worker
died — the crash-mid-ingest case — or ``stopped answering`` when the
process is alive but unreachable).  Ordinary service errors a *healthy*
worker returns inside an envelope are re-raised as the exception class
the worker recorded (:func:`repro.api.envelopes.exception_from_error`),
so the router's error handling — and the error envelopes the parent
ultimately emits — are byte-identical to local-shard mode.

Standing queries ride one NDJSON stream per subscription
(``?snapshot=1`` hello carries the baseline rows): a reader thread
folds added/removed frames into an authoritative row map, which is
exactly the "re-read the shard's current rows" wake-signal contract
:class:`~repro.api.cluster.service.ClusterSubscription` needs — the
stream is a single ordered channel, so folding deltas in arrival order
reproduces the worker's row state.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.cluster.process import ShardProcess
from repro.api.envelopes import (
    ApiResponse,
    IngestRequest,
    QueryRequest,
    exception_from_error,
)
from repro.api.http.client import ClientSession, SubscriptionStream
from repro.api.http.server import GatewayConfig
from repro.api.service import (
    IngestTicket,
    StandingQueryUpdate,
    StreamView,
)
from repro.api.wire import decode_payload, key_of_row, pattern_from_wire
from repro.core.statistics import GraphStatistics
from repro.errors import ClusterError, ConfigError, ReproError
from repro.mining.patterns import Pattern
from repro.query.engine import QueryResult
from repro.query.model import Query
from repro.query.parser import parse_query

#: Keepalive interval requested on shard subscribe streams; far below
#: the worker gateway's ``idle_timeout`` so a quiet stream is never
#: mistaken for a dead one (pinned by ``GatewayConfig.validate``).
SHARD_STREAM_HEARTBEAT = 2.0


class RemoteIngestTicket(IngestTicket):
    """A ticket whose fulfilment lives in the worker's registry.

    ``done()`` is one ``GET /v1/ingest/<id>``: the worker answers the
    ``ticket`` envelope while the document is queued and the fulfilled
    ``ingest`` envelope once its micro-batch drained.  ``result()`` tries
    that once, then blocks on ``?wait=1`` until the drainer fulfils it.
    """

    def __init__(
        self, client: "RemoteShardClient", ticket_id: int, doc_id: str
    ) -> None:
        super().__init__(doc_id)
        self.ticket_id = ticket_id
        self._client = client

    def _poll(self, wait: Optional[float] = 0.0) -> Optional[ApiResponse]:
        if self._response is None:
            self._response = self._client._ticket_envelope(
                self.ticket_id, wait
            )
        return self._response

    def done(self) -> bool:
        return self._poll() is not None

    def result(self, timeout: Optional[float] = None) -> ApiResponse:
        envelope = self._poll()
        deadline = None if timeout is None else time.monotonic() + timeout
        while envelope is None:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReproError(
                        f"ingest ticket for {self.doc_id!r} not fulfilled "
                        f"within {timeout}s"
                    )
            try:
                envelope = self._poll(wait=remaining)
            except ClusterError:
                # The wait's socket timeout is the caller's remaining
                # budget: a live worker "not answering" exactly then is
                # this call's own deadline (raised at the loop top).
                if (
                    deadline is None
                    or time.monotonic() < deadline
                    or not self._client.alive
                ):
                    raise
        return envelope


class RemoteSubscription:
    """A standing query registered on a worker, mirrored locally.

    The hello frame's snapshot is the baseline; every ``update`` frame
    is folded into the row map *before* the callback fires, so a
    consumer that re-reads :attr:`current_rows` on wake always sees a
    state at least as new as the delta that woke it.  Updates arriving
    twice (an explicit ``/v1/shard/refresh`` response racing the
    stream) are deduplicated by their version stamp.
    """

    def __init__(
        self,
        query: Query,
        kind: str,
        stream: SubscriptionStream,
        callback: Optional[Callable[[StandingQueryUpdate], None]] = None,
    ) -> None:
        self.query = query
        self.kind = kind
        self.active = True
        self.last_error: Optional[BaseException] = None
        self._stream = stream
        self._callback = callback
        self._lock = threading.Lock()
        hello = next(stream)
        if hello.get("event") != "subscribed" or "rows" not in hello:
            stream.close()
            raise ClusterError(
                f"subscribe stream did not open with a snapshot hello: {hello}"
            )
        self.id = int(hello["subscription_id"])
        self._rows: Dict[str, Dict[str, Any]] = {
            key_of_row(kind, row): dict(row) for row in hello["rows"]
        }
        self._last_version = int(hello["baseline_version"])
        self._updates: List[StandingQueryUpdate] = []
        self._reader = threading.Thread(
            target=self._read_loop, name="nous-shard-stream", daemon=True
        )
        self._reader.start()

    @property
    def query_text(self) -> str:
        return self.query.text

    @property
    def current_rows(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(r) for r in self._rows.values()]

    @property
    def last_kg_version(self) -> int:
        with self._lock:
            return self._last_version

    def poll(self) -> List[StandingQueryUpdate]:
        with self._lock:
            updates, self._updates = self._updates, []
        return updates

    def close(self) -> None:
        """Disconnect the stream; the worker detaches the standing
        query at its next write."""
        self.active = False
        self._stream.close()

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for frame in self._stream:
                event = frame.get("event")
                if event == "update":
                    self._deliver(
                        StandingQueryUpdate(
                            subscription_id=self.id,
                            query_text=str(frame.get("query_text", "")),
                            kg_version=int(frame["kg_version"]),
                            added=tuple(
                                dict(row) for row in frame.get("added", [])
                            ),
                            removed=tuple(
                                dict(row) for row in frame.get("removed", [])
                            ),
                        ),
                        authoritative=True,
                    )
                elif event == "bye":
                    break
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            self.last_error = exc
        finally:
            self.active = False

    def _deliver(
        self, update: StandingQueryUpdate, authoritative: bool = False
    ) -> bool:
        """Fold one delta into the row map; returns True when applied.

        Stream frames are ``authoritative``: the NDJSON stream is a
        single ordered, complete channel, so every frame folds
        unconditionally (the gateway's per-stream stamp clamp can give
        two consecutive frames the *same* stamp — a version guard here
        would silently drop the second one's rows).  The guard applies
        only to refresh-response-injected updates, which race the
        stream copies of themselves: a stale refresh copy must never
        fold on top of newer stream state.  Either way the last folder
        wins and the stream eventually delivers everything, so the row
        map converges to the worker's.
        """
        with self._lock:
            if not authoritative and update.kg_version <= self._last_version:
                return False
            for row in update.removed:
                self._rows.pop(key_of_row(self.kind, row), None)
            for row in update.added:
                self._rows[key_of_row(self.kind, row)] = dict(row)
            self._last_version = max(self._last_version, update.kg_version)
            self._updates.append(update)
        if self._callback is not None:
            try:
                self._callback(update)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                self.last_error = exc
        return True


class RemoteShardClient:
    """The :class:`~repro.api.base.ShardLike` surface over one worker.

    Args:
        worker: The supervised subprocess handle (url, pid, liveness).
        timeout: Socket timeout for plain requests; generous because a
            shard-level ``flush`` legitimately blocks on a long drain.
    """

    def __init__(self, worker: ShardProcess, timeout: float = 120.0) -> None:
        if timeout <= GatewayConfig.wait_timeout:
            # The worker answers a held ticket wait by its wait_timeout
            # (504); a shorter socket timeout would call it dead first.
            raise ConfigError(
                f"shard client timeout ({timeout}s) must exceed the "
                f"worker's wait_timeout ({GatewayConfig.wait_timeout}s)"
            )
        self.worker = worker
        self.url = worker.url
        self._timeout = timeout
        self._session = ClientSession(worker.url, timeout=timeout)
        self._subs_lock = threading.Lock()
        self._subs: Dict[int, RemoteSubscription] = {}
        self._last_health: Optional[Dict[str, Any]] = None
        self._closed = False

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        session: Optional[ClientSession] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return (session or self._session).request(method, path, payload)
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 - transport boundary
            raise self._shard_down(exc) from exc

    def _shard_down(self, cause: BaseException) -> ClusterError:
        """A transport failure, promoted to a structured dead-shard
        report when the supervisor says the worker is gone."""
        if not self.worker.alive:
            return ClusterError(
                f"{self.worker.describe()}: worker process died "
                f"mid-call ({type(cause).__name__}: {cause})"
            )
        return ClusterError(
            f"{self.worker.describe()}: worker stopped answering "
            f"({type(cause).__name__}: {cause})"
        )

    def _checked(self, status: int, data: Dict[str, Any]) -> Dict[str, Any]:
        """Raise the reconstructed exception for failure envelopes;
        return the body otherwise."""
        if data.get("ok") is False and data.get("error") is not None:
            raise exception_from_error(
                ApiResponse.from_dict(data).error  # type: ignore[arg-type]
            )
        return data

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.worker.alive

    def _health(self) -> Dict[str, Any]:
        """The worker's ``/v1/healthz`` payload.

        Degrades rather than raises once the worker is gone: the last
        successful reading is served stale, so advisory consumers —
        composite version stamps, gateway heartbeats, ``cluster_info``
        — keep working (and stay monotonic: a dead component simply
        freezes) while the *operation* paths surface the structured
        dead-shard error.
        """
        try:
            _status, data = self._call("GET", "/v1/healthz")
        except ClusterError:
            if self._last_health is None:
                raise
            return self._last_health
        self._last_health = data
        return data

    @property
    def kg_version(self) -> int:
        return int(self._health()["kg_version"])

    @property
    def kg_version_hint(self) -> int:
        """The last *observed* version, without a wire round trip.

        Good enough for advisory stamps on standing-query deltas (the
        cache-stability check and health endpoints keep using live
        reads); monotonic because each cached health payload is newer
        than the one it replaces.  Falls back to a live read before any
        health traffic has primed the cache.
        """
        cached = self._last_health
        if cached is not None:
            return int(cached["kg_version"])
        return self.kg_version

    @property
    def documents_ingested(self) -> int:
        return int(self._health()["documents_ingested"])

    @property
    def pending_count(self) -> int:
        return int(self._health()["pending"])

    @property
    def batches_drained(self) -> int:
        return int(self._health()["batches_drained"])

    @property
    def documents_drained(self) -> int:
        return int(self._health()["documents_drained"])

    @property
    def subscription_errors(self) -> int:
        return int(self._health()["subscription_errors"])

    @property
    def draining_in_background(self) -> bool:
        """A worker always drains in the background (its gateway forces
        ``auto_start=True``); explicit flushes go over the wire."""
        return True

    @property
    def subscription_count(self) -> int:
        with self._subs_lock:
            return len(self._subs)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def submit(self, request: Union[IngestRequest, Any]) -> IngestTicket:
        if not isinstance(request, IngestRequest):
            request = IngestRequest.from_article(request)
        _status, data = self._call("POST", "/v1/ingest", request.to_dict())
        envelope = ApiResponse.from_dict(self._checked(_status, data))
        assert envelope.payload is not None
        return RemoteIngestTicket(
            self, int(envelope.payload["ticket_id"]), request.doc_id
        )

    def submit_many(
        self, requests: Sequence[Union[IngestRequest, Any]]
    ) -> List[IngestTicket]:
        normalized = [
            request
            if isinstance(request, IngestRequest)
            else IngestRequest.from_article(request)
            for request in requests
        ]
        _status, data = self._call(
            "POST",
            "/v1/shard/submit",
            {"documents": [request.to_dict() for request in normalized]},
        )
        body = self._checked(_status, data)
        return [
            RemoteIngestTicket(
                self, int(ticket["ticket_id"]), str(ticket["doc_id"])
            )
            for ticket in body["tickets"]
        ]

    def ingest_facts(
        self,
        facts: Sequence[Tuple[str, str, str]],
        date: Optional[str] = None,
        source: str = "structured",
        confidence: float = 0.9,
    ) -> ApiResponse:
        _status, data = self._call(
            "POST",
            "/v1/shard/ingest_facts",
            {
                "facts": [list(fact) for fact in facts],
                "date": date,
                "source": source,
                "confidence": confidence,
            },
        )
        return ApiResponse.from_dict(data)

    def flush(self, timeout: Optional[float] = None) -> None:
        _status, data = self._call(
            "POST", "/v1/shard/flush", {"timeout": timeout}
        )
        self._checked(_status, data)

    def _ticket_envelope(
        self, ticket_id: int, wait: Optional[float] = 0.0
    ) -> Optional[ApiResponse]:
        """The ticket's fulfilled envelope, or ``None`` while queued.

        ``wait=0`` is one plain poll.  Otherwise block on ``?wait=1`` for
        up to ``wait`` seconds (``None``: the client timeout) on a
        connection of its own — the shared session is one socket, which a
        held wait must not occupy.  The worker's 504 means "still queued".
        """
        path = f"/v1/ingest/{ticket_id}"
        if wait == 0:
            status, data = self._call("GET", path)
        else:
            timeout = min(self._timeout, wait or self._timeout)
            with ClientSession(self.url, timeout=timeout) as session:
                status, data = self._call(
                    "GET", path + "?wait=1", session=session
                )
        if status == 504:
            return None
        envelope = ApiResponse.from_dict(self._checked(status, data))
        return None if envelope.kind == "ticket" else envelope

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, request: Union[str, QueryRequest]) -> ApiResponse:
        if isinstance(request, str):
            request = QueryRequest(text=request)
        _status, data = self._call("POST", "/v1/query", request.to_dict())
        return ApiResponse.from_dict(data)

    def execute_query(self, query: Query) -> QueryResult:
        """The scatter hook: run the query on the worker and decode the
        payload back into its *object* form, which compares equal to an
        in-process shard's — the property the merges rely on."""
        envelope = self.query(QueryRequest(text=query.text))
        if envelope.error is not None:
            raise exception_from_error(envelope.error)
        assert envelope.payload is not None
        return QueryResult(
            query=query,
            kind=envelope.kind,
            payload=decode_payload(envelope.kind, envelope.payload),
            rendered=envelope.rendered,
            elapsed_ms=envelope.elapsed_ms,
            cached=envelope.cached,
            kg_version=envelope.kg_version,
        )

    def statistics(self) -> ApiResponse:
        _status, data = self._call("GET", "/v1/stats")
        return ApiResponse.from_dict(data)

    def graph_statistics(self) -> GraphStatistics:
        envelope = self.statistics()
        if envelope.error is not None:
            raise exception_from_error(envelope.error)
        assert envelope.payload is not None
        stats = decode_payload("statistics", envelope.payload)
        assert isinstance(stats, GraphStatistics)
        return stats

    def stream_view(self) -> StreamView:
        _status, data = self._call("GET", "/v1/shard/stream_view")
        body = self._checked(_status, data)
        supports: Dict[Pattern, int] = {
            pattern_from_wire(wire): int(support)
            for wire, support in body["supports"]
        }
        return StreamView(
            supports=supports,
            min_support=int(body["min_support"]),
            window_edges=int(body["window_edges"]),
            last_timestamp=float(body["last_timestamp"]),
            kg_version=int(body["kg_version"]),
        )

    def extracted_fact_keys(self) -> List[Tuple[str, str, str]]:
        _status, data = self._call("GET", "/v1/shard/extracted_facts")
        body = self._checked(_status, data)
        return [(str(s), str(p), str(o)) for s, p, o in body["facts"]]

    # ------------------------------------------------------------------
    # distributed compute
    # ------------------------------------------------------------------
    def compute_step(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one stateless compute superstep on the worker.

        The request/response are the :mod:`repro.compute.protocol` wire
        envelopes; a dead or unreachable worker surfaces the same
        structured :class:`ClusterError` as every other shard call, so
        the coordinator's recover-and-retry loop can treat local and
        remote shards identically.
        """
        _status, data = self._call("POST", "/v1/shard/compute", request)
        body = self._checked(_status, data)
        result = body["result"]
        assert isinstance(result, dict)
        return result

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Ask the worker to write a full snapshot; returns its KG
        version at snapshot time.  Raises the worker's ``StorageError``
        when it runs without a data directory."""
        _status, data = self._call("POST", "/v1/shard/snapshot", {})
        body = self._checked(_status, data)
        return int(body["kg_version"])

    def rebind(self, worker: ShardProcess) -> None:
        """Point this client at a respawned worker process.

        Drops every local subscription mirror (their streams died with
        the old process — the cluster layer re-subscribes through the
        ordinary ``subscribe`` path) and opens a fresh session against
        the replacement's URL.  The stale health cache is cleared so
        the next stamp read observes the recovered worker, not the
        corpse.
        """
        with self._subs_lock:
            subscriptions = list(self._subs.values())
            self._subs.clear()
        for subscription in subscriptions:
            subscription.close()
        self._session.close()
        self.worker = worker
        self.url = worker.url
        self._session = ClientSession(worker.url, timeout=self._timeout)
        self._last_health = None

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query_text: str,
        callback: Optional[Callable[[StandingQueryUpdate], None]] = None,
        trending_full_view: bool = False,
    ) -> RemoteSubscription:
        query = parse_query(query_text)
        from repro.api.cluster.service import kind_of_query

        try:
            stream = self._session.subscribe(
                query_text,
                heartbeat=SHARD_STREAM_HEARTBEAT,
                snapshot=True,
                trending_full_view=trending_full_view,
                timeout=None,
            )
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 - transport boundary
            raise self._shard_down(exc) from exc
        subscription = RemoteSubscription(
            query, kind_of_query(query), stream, callback
        )
        with self._subs_lock:
            self._subs[subscription.id] = subscription
        return subscription

    def unsubscribe(self, subscription: Any) -> None:
        if isinstance(subscription, RemoteSubscription):
            with self._subs_lock:
                self._subs.pop(subscription.id, None)
            subscription.close()

    def refresh_subscriptions(self) -> List[StandingQueryUpdate]:
        """Force a server-side refresh and deliver its deltas.

        The worker returns the refresh's updates in the response body;
        they are routed straight into the local subscription mirrors
        (version-deduplicated against the asynchronous stream copies),
        so the caller observes the refresh's effects synchronously —
        the contract ``ShardedNousService.refresh_subscriptions``
        promises its own callers.
        """
        _status, data = self._call("POST", "/v1/shard/refresh", {})
        body = self._checked(_status, data)
        delivered: List[StandingQueryUpdate] = []
        for wire_update in body.get("updates", []):
            with self._subs_lock:
                subscription = self._subs.get(
                    int(wire_update["subscription_id"])
                )
            if subscription is None:
                continue
            update = StandingQueryUpdate(
                subscription_id=int(wire_update["subscription_id"]),
                query_text=str(wire_update.get("query_text", "")),
                kg_version=int(wire_update["kg_version"]),
                added=tuple(dict(r) for r in wire_update.get("added", [])),
                removed=tuple(dict(r) for r in wire_update.get("removed", [])),
            )
            if subscription._deliver(update):
                delivered.append(update)
        return delivered

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach every stream and drop the session.  The worker
        process itself is owned by the :class:`ShardProcessManager`."""
        if self._closed:
            return
        self._closed = True
        with self._subs_lock:
            subscriptions = list(self._subs.values())
            self._subs.clear()
        for subscription in subscriptions:
            subscription.close()
        self._session.close()

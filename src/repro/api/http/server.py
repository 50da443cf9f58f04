"""``NousGateway``: a threaded, stdlib-only HTTP server over the wire
envelopes (documented endpoint-by-endpoint in ``docs/API.md``).

Routes are declared in a **route table** (method, pattern, handler) and
matched with path captures — see :data:`_ROUTES`.  Every serving route
is registered twice: un-prefixed (``/v1/...``, resolving to the
``default`` tenant, or the ``X-Nous-Tenant`` header when present) and
tenant-scoped (``/v1/t/<tenant>/...``); the path segment wins over the
header (precedence documented in ``docs/TENANCY.md``).

- ``POST /v1/ingest`` — body is an
  :class:`~repro.api.envelopes.IngestRequest` wire dict.  Returns 202
  with a ``ticket`` envelope (the document is queued); ``?wait=1``
  blocks until the micro-batch drains and returns the ``ingest``
  envelope instead.
- ``GET /v1/ingest/<ticket_id>`` — poll a ticket: 202 while pending,
  the fulfilled ``ingest`` envelope once drained (``?wait=1`` blocks
  until then).  Tenant *a* cannot poll tenant *b*'s ticket.
- ``POST /v1/query`` — body is a ``QueryRequest`` wire dict; returns
  the ``ApiResponse`` wire dict with the error taxonomy mapped to HTTP
  statuses via :func:`~repro.api.http.protocol.status_for_error`.
- ``GET /v1/stats`` — the ``statistics`` envelope (graph state); the
  ``ETag`` validator is tenant-distinct (``"kg-<tenant>-<version>"``).
- ``GET /v1/healthz`` — liveness plus queue state (pending documents,
  drains, subscriptions), a plain dict rather than an envelope.
- ``GET /v1/subscribe?q=...`` — NDJSON stream of standing-query
  added/removed deltas (chunked transfer, heartbeat keepalives; see
  :mod:`repro.api.http.protocol` for the framing).  ``min_interval`` /
  ``max_rate`` throttle the stream: intermediate deltas are coalesced
  into one *net* added/removed diff per interval.
- ``GET/POST/DELETE /v1/tenants[/<name>]`` — the tenant admin surface
  (list / create / delete-with-drain); see ``docs/TENANCY.md``.

A request to a known path with the wrong verb answers **405** with an
``Allow`` header naming the verbs the path serves; unknown paths answer
404.

Concurrency: requests are served by one thread per connection
(:class:`http.server.ThreadingHTTPServer`); every KG-touching call
funnels through ``NousService``'s engine lock, so N concurrent clients
serialise without deadlocking the micro-batch drainer.  Subscribe
streams never run on the drainer thread — the per-connection handler
sleeps on an event its subscription's callback sets, so a slow or dead
client can never stall ingestion; a dead client is detached at its next
frame or heartbeat write.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union, cast
from urllib.parse import parse_qs, urlsplit

from repro.api.base import ServiceLike, SubscriptionLike, TenantRegistryLike
from repro.api.envelopes import ApiResponse, IngestRequest, QueryRequest
from repro.api.http.protocol import (
    GZIP_MIN_BYTES,
    NDJSON_CONTENT_TYPE,
    accepts_gzip,
    bye_frame,
    encode_frame,
    gateway_error,
    gunzip_bytes,
    gzip_bytes,
    heartbeat_frame,
    hello_frame,
    status_for_error,
    update_frame,
)
from repro.api.http.qcache import SharedQueryCache
from repro.api.service import IngestTicket, StandingQueryUpdate
from repro.api.tenancy import DEFAULT_TENANT, TenantRegistry, TenantSpec
from repro.api.wire import key_of_row, kind_of_query, pattern_to_wire
from repro.errors import ConfigError, ReproError
from repro.query.model import TrendingQuery
from repro.query.parser import parse_query

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Header alias for the tenant on un-prefixed routes; the
#: ``/v1/t/<tenant>/...`` path segment takes precedence over it.
TENANT_HEADER = "X-Nous-Tenant"

#: Tickets kept for ``GET /v1/ingest/<id>`` polling; oldest are dropped
#: beyond this, and ``/v1/shard/submit`` refuses larger batches.
MAX_TICKETS = 1024


@dataclass(frozen=True)
class GatewayConfig:
    """Network and streaming policy for :class:`NousGateway`.

    Attributes:
        host: Interface to bind.
        port: TCP port; 0 picks an ephemeral port (see
            :attr:`NousGateway.port` for the bound value).
        max_body_bytes: Hard cap on request bodies; larger requests are
            rejected with 413 before the body is read.
        heartbeat_interval: Seconds between keepalive frames on an idle
            subscribe stream (also how quickly a dead subscriber is
            detached when no deltas flow).
        wait_timeout: Deadline for ``?wait=1`` (ingests and ticket
            polls); exceeded waits return 504, the document stays queued.
        idle_timeout: Socket timeout on keep-alive connections — a
            client that vanishes without FIN/RST releases its handler
            thread after this long instead of pinning it forever.  Must
            exceed ``heartbeat_interval``: long-lived shard connections
            (the cluster's remote-shard streams) rely on each heartbeat
            write landing before the idle deadline ever fires.
        log_requests: Emit one stderr line per request (the default is
            silent, which test suites appreciate).
        gzip_min_bytes: Response bodies at least this large are gzipped
            when the request's ``Accept-Encoding`` admits it (subscribe
            streams compress per-frame regardless of size once the
            client advertises gzip).  Small bodies always go identity —
            the gzip framing would outweigh the saving.
        shared_cache_dir: When set, cache query results in this
            directory keyed on (tenant, query text, composite KG
            stamp), so gateway replicas pointed at the same directory
            share hits (see ``docs/PERFORMANCE.md``).  ``None``
            (default) disables the shared cache; the engine's
            in-process cache still runs.
        shared_cache_entries: Entry cap for the shared cache directory
            (oldest-first eviction).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 1 << 20
    heartbeat_interval: float = 10.0
    wait_timeout: float = 60.0
    idle_timeout: float = 120.0
    log_requests: bool = False
    gzip_min_bytes: int = GZIP_MIN_BYTES
    shared_cache_dir: Optional[str] = None
    shared_cache_entries: int = 256

    def validate(self) -> None:
        if self.max_body_bytes < 1:
            raise ConfigError("max_body_bytes must be >= 1")
        if self.gzip_min_bytes < 1:
            raise ConfigError("gzip_min_bytes must be >= 1")
        if self.shared_cache_entries < 1:
            raise ConfigError("shared_cache_entries must be >= 1")
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be > 0")
        if self.idle_timeout <= 0:
            raise ConfigError("idle_timeout must be > 0")
        if self.heartbeat_interval >= self.idle_timeout:
            # A stream that only heartbeats every `heartbeat_interval`
            # seconds would trip the socket's idle deadline in between:
            # every quiet long-lived connection (remote shards, slow
            # subscribers) would be torn down by its own keepalive
            # schedule.
            raise ConfigError(
                f"heartbeat_interval ({self.heartbeat_interval}) must beat "
                f"idle_timeout ({self.idle_timeout})"
            )


# ---------------------------------------------------------------------------
# the route table
# ---------------------------------------------------------------------------


def _compile_pattern(pattern: str) -> "re.Pattern[str]":
    """``/v1/t/<tenant>/ingest/<ticket_id>`` → anchored regex with one
    named group per ``<capture>`` (captures never span ``/``)."""
    parts: List[str] = []
    for segment in pattern.split("/"):
        if segment.startswith("<") and segment.endswith(">"):
            parts.append(f"(?P<{segment[1:-1]}>[^/]+)")
        else:
            parts.append(re.escape(segment))
    return re.compile("^" + "/".join(parts) + "$")


@dataclass(frozen=True)
class Route:
    """One row of the gateway's route table.

    Attributes:
        method: HTTP verb this row serves.
        pattern: Path pattern; ``<name>`` segments capture.
        handler: ``_GatewayHandler`` method name, called as
            ``handler(captures, params)``.
        needs_service: Resolve the request's tenant to a live service
            before dispatch (admin routes operate on the registry
            itself and skip it).
        defaults: Static captures merged under the matched ones (how
            the literal ``/v1/shard/flush`` row tells the shared shard
            handler which hook it is).
    """

    method: str
    pattern: str
    handler: str
    needs_service: bool = True
    defaults: Mapping[str, str] = field(default_factory=dict)

    @property
    def regex(self) -> "re.Pattern[str]":
        return _compile_pattern(self.pattern)


#: ``/v1/shard/<name>`` hooks and their verbs (consumed by
#: :class:`~repro.api.cluster.RemoteShardClient`).
_SHARD_ROUTES = {
    "stream_view": "GET",
    "extracted_facts": "GET",
    "submit": "POST",
    "flush": "POST",
    "ingest_facts": "POST",
    "refresh": "POST",
    "snapshot": "POST",
    "compute": "POST",
}


def _build_routes() -> Tuple[Route, ...]:
    routes: List[Route] = []

    def serve(method: str, suffix: str, handler: str) -> None:
        # Twice per route: legacy (header/default tenant) and
        # tenant-scoped path tree.
        routes.append(Route(method, f"/v1{suffix}", handler))
        routes.append(Route(method, f"/v1/t/<tenant>{suffix}", handler))

    serve("GET", "/healthz", "_route_healthz")
    serve("GET", "/stats", "_route_stats")
    serve("GET", "/subscribe", "_route_subscribe")
    serve("POST", "/ingest", "_route_ingest")
    serve("GET", "/ingest/<ticket_id>", "_route_ticket_poll")
    serve("POST", "/query", "_route_query")
    for name, method in _SHARD_ROUTES.items():
        serve(method, f"/shard/{name}", "_route_shard")
        # Rebind the defaults on the two rows just appended.
        for index in (-2, -1):
            routes[index] = Route(
                method,
                routes[index].pattern,
                "_route_shard",
                defaults={"shard_route": name},
            )
    routes.append(
        Route("GET", "/v1/tenants", "_route_tenants_list", needs_service=False)
    )
    routes.append(
        Route(
            "POST", "/v1/tenants", "_route_tenants_create", needs_service=False
        )
    )
    routes.append(
        Route(
            "DELETE",
            "/v1/tenants/<name>",
            "_route_tenants_delete",
            needs_service=False,
        )
    )
    return tuple(routes)


_ROUTES: Tuple[Route, ...] = _build_routes()
# Compiled once; Route.regex recompiles per access, so the dispatcher
# uses this parallel list instead.
_COMPILED_ROUTES: Tuple[Tuple["re.Pattern[str]", Route], ...] = tuple(
    (route.regex, route) for route in _ROUTES
)


def _resolve_route(
    method: str, path: str
) -> Tuple[Optional[Route], Dict[str, str], Set[str]]:
    """``(route, captures, allowed)``: the matching row for this verb,
    or ``(None, {}, verbs-that-would-match)`` — an empty ``allowed`` set
    means the *path* is unknown (404), a non-empty one means the verb is
    wrong (405 with ``Allow``)."""
    allowed: Set[str] = set()
    for regex, route in _COMPILED_ROUTES:
        match = regex.match(path)
        if match is None:
            continue
        if route.method == method:
            captures = dict(route.defaults)
            captures.update(cast(Dict[str, str], match.groupdict()))
            return route, captures, allowed
        allowed.add(route.method)
    return None, {}, allowed


class _GatewayHTTPServer(ThreadingHTTPServer):
    """One daemon thread per connection; never blocks shutdown on
    still-streaming subscribers (they exit via the closing event)."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    gateway: "NousGateway"


class NousGateway:
    """Serve one NOUS service — or a whole tenant registry — over HTTP.

    The gateway is an *adapter*: it owns no KG state of its own, only a
    bounded registry of pending ingest tickets.  It is typed against
    :class:`~repro.api.base.ServiceLike` /
    :class:`~repro.api.base.TenantRegistryLike`, so a monolithic
    :class:`~repro.api.service.NousService`, a
    :class:`~repro.api.cluster.ShardedNousService` and a multi-tenant
    :class:`~repro.api.tenancy.TenantRegistry` are interchangeable
    behind it (``nous serve --shards N`` / ``--tenants spec.json``).
    The caller keeps ownership of what it passed in: a bare service is
    never closed by the gateway, and neither is a caller-built registry
    (tenants the gateway's *own* internal registry created through the
    admin surface are closed on :meth:`close`).

    Usage::

        with NousGateway(service, GatewayConfig(port=8420)) as gateway:
            print(gateway.url)   # e.g. http://127.0.0.1:8420
            ...
    """

    def __init__(
        self,
        service: Union[ServiceLike, TenantRegistryLike],
        config: Optional[GatewayConfig] = None,
    ) -> None:
        if isinstance(service, TenantRegistry):
            self.registry: TenantRegistryLike = service
            self._owns_registry = False
        elif hasattr(service, "query"):
            # A bare service: wrap it as the default tenant of an
            # internal registry (the service itself stays caller-owned).
            self.registry = TenantRegistry(
                default_service=cast(ServiceLike, service)
            )
            self._owns_registry = True
        else:
            self.registry = cast(TenantRegistryLike, service)
            self._owns_registry = False
        self.config = config or GatewayConfig()
        self.config.validate()
        self.shared_cache: Optional[SharedQueryCache] = (
            SharedQueryCache(
                self.config.shared_cache_dir,
                max_entries=self.config.shared_cache_entries,
            )
            if self.config.shared_cache_dir
            else None
        )
        self.closing = threading.Event()
        self._ticket_lock = threading.Lock()
        self._tickets: "OrderedDict[int, Tuple[str, IngestTicket]]" = (
            OrderedDict()
        )
        self._next_ticket_id = 1
        # Wake events of the live subscribe streams, for close() to set.
        self._stream_wakes: Set[threading.Event] = set()
        self._httpd = _GatewayHTTPServer(
            (self.config.host, self.config.port), _GatewayHandler
        )
        self._httpd.gateway = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def service(self) -> ServiceLike:
        """The ``default`` tenant's service (what legacy un-prefixed
        routes serve)."""
        return self.registry.get(DEFAULT_TENANT)

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "NousGateway":
        """Start serving on a background thread; returns ``self``."""
        if self._thread is not None:
            raise ReproError("gateway already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="nous-http-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting requests and end every subscribe stream.

        Idempotent, and safe on a never-started gateway; the wrapped
        service is left running (the caller owns it).  Tenants created
        through the admin surface of a gateway-internal registry *are*
        closed — nothing else references them.
        """
        self.closing.set()
        with self._ticket_lock:
            for wake in self._stream_wakes:
                wake.set()
        if self._thread is not None:
            # shutdown() handshakes with serve_forever(); calling it
            # with no serve loop running would block forever.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._owns_registry:
            # Closes registry-*built* services only; the injected
            # default service is borrowed and stays up.
            self.registry.close()

    def __enter__(self) -> "NousGateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ticket registry
    # ------------------------------------------------------------------
    def _register_ticket(self, ticket: IngestTicket, tenant: str) -> int:
        with self._ticket_lock:
            ticket_id = self._next_ticket_id
            self._next_ticket_id += 1
            self._tickets[ticket_id] = (tenant, ticket)
            # Oldest-first eviction.  Deliberately no done()-preference
            # scan: for a process-shard cluster done() is a blocking
            # HTTP poll (and can raise for a dead worker), which must
            # never run under the registry lock.  A single batch can no
            # longer invalidate itself — /v1/shard/submit refuses
            # batches larger than MAX_TICKETS up front.
            while len(self._tickets) > MAX_TICKETS:
                self._tickets.popitem(last=False)
            return ticket_id

    def _lookup_ticket(
        self, ticket_id: int, tenant: str
    ) -> Optional[IngestTicket]:
        """The ticket, when it exists *and* belongs to this tenant —
        a foreign tenant's ticket id answers like an unknown one, so
        ids never leak ingest state across namespaces."""
        with self._ticket_lock:
            entry = self._tickets.get(ticket_id)
        if entry is None or entry[0] != tenant:
            return None
        return entry[1]

    def _ticket_envelope(
        self, ticket_id: int, ticket: IngestTicket, tenant: str
    ) -> ApiResponse:
        prefix = "" if tenant == DEFAULT_TENANT else f"/t/{tenant}"
        return ApiResponse(
            ok=True,
            kind="ticket",
            payload={
                "ticket_id": ticket_id,
                "doc_id": ticket.doc_id,
                "done": ticket.done(),
                "href": f"/v1{prefix}/ingest/{ticket_id}",
            },
            rendered=f"queued {ticket.doc_id or '(no id)'} as ticket {ticket_id}",
        )

    def health(self, tenant: str = DEFAULT_TENANT) -> Dict[str, Any]:
        """The ``/v1/healthz`` payload: liveness plus queue state for
        one tenant's service."""
        service = self.registry.get(tenant)
        payload = {
            "ok": True,
            "status": "closing" if self.closing.is_set() else "serving",
            "tenant": tenant,
            "kg_version": service.kg_version,
            "documents_ingested": service.documents_ingested,
            "pending": service.pending_count,
            "batches_drained": service.batches_drained,
            "documents_drained": service.documents_drained,
            "subscriptions": service.subscription_count,
            "subscription_errors": service.subscription_errors,
        }
        if self.shared_cache is not None:
            payload["shared_cache"] = self.shared_cache.stats()
        return payload


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routing and framing; all state lives on the gateway/service."""

    protocol_version = "HTTP/1.1"
    server_version = "nous-gateway/1"
    # Headers and body go out as separate sends; with Nagle on, that
    # write-write-read pattern stalls ~40ms per response on the client's
    # delayed ACK — a flat tax that would dwarf most queries.
    disable_nagle_algorithm = True
    server: _GatewayHTTPServer
    # Set per subscribe stream when the client accepts gzip; None means
    # frames go out uncompressed.
    _stream_compressor: Optional["zlib._Compress"] = None
    # Resolved per request by _dispatch.
    _tenant: str = DEFAULT_TENANT
    _service: Optional[ServiceLike] = None

    @property
    def gateway(self) -> NousGateway:
        return self.server.gateway

    @property
    def service(self) -> ServiceLike:
        assert self._service is not None  # set by _dispatch
        return self._service

    def setup(self) -> None:
        # Bound every blocking socket operation: a client that vanishes
        # without FIN/RST must not pin a keep-alive handler thread
        # forever.  (Subscribe streams stay alive regardless — they
        # only write, and each heartbeat write resets the clock.)
        self.timeout = self.gateway.config.idle_timeout
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        if self.gateway.config.log_requests:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        body: Mapping[str, Any],
        extra_close: bool = False,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        encoding = None
        if len(data) >= self.gateway.config.gzip_min_bytes and accepts_gzip(
            self.headers.get("Accept-Encoding")
        ):
            data = gzip_bytes(data)
            encoding = "gzip"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        # Negotiated representation: caches must key on Accept-Encoding.
        self.send_header("Vary", "Accept-Encoding")
        if encoding is not None:
            self.send_header("Content-Encoding", encoding)
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        if extra_close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def _send_envelope(
        self,
        envelope: ApiResponse,
        extra_headers: Optional[Mapping[str, str]] = None,
        extra_close: bool = False,
        status: Optional[int] = None,
    ) -> None:
        if status is None:
            if envelope.ok:
                status = 202 if envelope.kind == "ticket" else 200
            else:
                assert envelope.error is not None
                status = status_for_error(envelope.error.code)
        self._send_json(
            status,
            envelope.to_dict(),
            extra_headers=extra_headers,
            extra_close=extra_close,
        )

    def _send_gateway_error(
        self,
        code: str,
        message: str,
        extra_close: bool = False,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        envelope = gateway_error(code, message)
        assert envelope.error is not None
        self._send_json(
            status_for_error(code),
            envelope.to_dict(),
            extra_close=extra_close,
            extra_headers=extra_headers,
        )

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """Read and parse the request body; replies and returns ``None``
        on any transport-level problem."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            # extra_close on the unread-body error paths: whatever the
            # client actually sent stays in the socket and would be
            # parsed as the next keep-alive request.
            self._send_gateway_error(
                "http.bad_request", "Content-Length header is required",
                extra_close=True,
            )
            return None
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            # A negative length would turn rfile.read() into
            # read-to-EOF and hang this handler thread on a keep-alive
            # socket.
            self._send_gateway_error(
                "http.bad_request",
                f"invalid Content-Length: {length_header}",
                extra_close=True,
            )
            return None
        limit = self.gateway.config.max_body_bytes
        if length > limit:
            # Reject before reading; the unread body forces this
            # connection closed (keep-alive cannot resynchronise).
            self._send_gateway_error(
                "http.payload_too_large",
                f"body of {length} bytes exceeds limit of {limit}",
                extra_close=True,
            )
            return None
        raw = self.rfile.read(length)
        encoding = (self.headers.get("Content-Encoding") or "identity").strip().lower()
        if encoding == "gzip":
            try:
                # Re-apply the body cap *after* decompression: the
                # pre-read check above only saw the compressed length,
                # and a small gzip body can inflate arbitrarily.
                raw = gunzip_bytes(raw, limit=limit)
            except ValueError:
                self._send_gateway_error(
                    "http.payload_too_large",
                    f"decompressed body exceeds limit of {limit} bytes",
                )
                return None
            except zlib.error as exc:
                self._send_gateway_error(
                    "http.bad_request",
                    f"Content-Encoding is gzip but the body is not: {exc}",
                )
                return None
        elif encoding != "identity":
            self._send_gateway_error(
                "http.bad_request",
                f"unsupported Content-Encoding: {encoding!r} "
                "(gzip and identity are supported)",
            )
            return None
        try:
            data = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_gateway_error(
                "http.bad_json", f"request body is not valid JSON: {exc}"
            )
            return None
        if not isinstance(data, dict):
            self._send_gateway_error(
                "http.bad_json", "request body must be a JSON object"
            )
            return None
        return data

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _refuse_if_closing(self) -> bool:
        """In-flight keep-alive connections may still issue requests
        while the gateway drains; answer 503 instead of a reset."""
        if not self.gateway.closing.is_set():
            return False
        self._send_gateway_error(
            "http.unavailable", "gateway is shutting down", extra_close=True
        )
        return True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        """Route-table dispatch: resolve the row, the tenant, and the
        tenant's service, then call the row's handler."""
        if self._refuse_if_closing():
            return
        parts = urlsplit(self.path)
        params = parse_qs(parts.query)
        path = parts.path.rstrip("/") or "/"
        route, captures, allowed = _resolve_route(method, path)
        # Non-GET error paths may leave an unread body in the socket;
        # closing keeps the next keep-alive request parseable.
        body_unread = method != "GET"
        if route is None:
            if allowed:
                verbs = ", ".join(sorted(allowed))
                self._send_gateway_error(
                    "http.method_not_allowed",
                    f"{path} requires {verbs}",
                    extra_close=body_unread,
                    extra_headers={"Allow": verbs},
                )
            else:
                self._send_gateway_error(
                    "http.not_found",
                    f"no route for {method} {path}",
                    extra_close=body_unread,
                )
            return
        # Tenant precedence: path capture beats the header alias beats
        # the default (documented in docs/TENANCY.md).
        tenant = captures.pop("tenant", None)
        if tenant is None:
            header = self.headers.get(TENANT_HEADER)
            tenant = (header or "").strip() or DEFAULT_TENANT
        self._tenant = tenant
        self._service = None
        if route.needs_service:
            try:
                self._service = self.gateway.registry.get(tenant)
            except ReproError as exc:
                # tenancy.unknown → 404 with the structured envelope.
                self._send_envelope(
                    ApiResponse.failure(exc), extra_close=body_unread
                )
                return
        handler = getattr(self, route.handler)
        handler(captures, params)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    @staticmethod
    def _etag_for(tenant: str, kg_version: int) -> str:
        """The ``/v1/stats`` validator: tenant id + composite KG stamp.
        Any accepted fact, minted entity or window eviction moves the
        stamp, so it is exactly the statistics payload's freshness key —
        and the tenant id keeps two tenants at the same stamp from
        validating each other's cached stats through a shared proxy."""
        return f'"kg-{tenant}-{kg_version}"'

    def _route_healthz(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        self._send_json(200, self.gateway.health(self._tenant))

    def _route_stats(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        service = self.service
        etag = self._etag_for(self._tenant, service.kg_version)
        if self.headers.get("If-None-Match", "").strip() == etag:
            # The stamp pre-check costs one version read — the whole
            # statistics computation is skipped on a conditional hit.
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Vary", "Accept-Encoding")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        envelope = service.statistics()
        headers: Dict[str, str] = {}
        if envelope.ok and envelope.kg_version >= 0:
            # Stamp the ETag from the envelope itself (not the pre-read
            # version): statistics and validator must describe the same
            # state even if an ingest landed in between.
            headers["ETag"] = self._etag_for(self._tenant, envelope.kg_version)
        self._send_envelope(envelope, extra_headers=headers)

    def _route_query(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        data = self._read_json_body()
        if data is None:
            return
        try:
            request = QueryRequest.from_dict(data)
        except Exception:  # noqa: BLE001 - malformed wire dict
            self._send_gateway_error(
                "http.bad_request",
                'body must be a QueryRequest wire dict: {"text": "..."}',
            )
            return
        cache = self.gateway.shared_cache
        if cache is not None:
            hit = cache.get(
                request.text, self.service.kg_version, tenant=self._tenant
            )
            if hit is not None:
                status, body = hit
                self._send_json(status, body)
                return
        envelope = self.service.query(request)
        if (
            cache is not None
            and envelope.ok
            and envelope.kg_version >= 0
            and self._query_cacheable(request.text)
        ):
            # Keyed under the stamp the envelope reports — a query that
            # minted an entity moved the stamp mid-execution, and its
            # result describes the *minted* world.
            cache.put(
                request.text,
                envelope.kg_version,
                200,
                envelope.to_dict(),
                tenant=self._tenant,
            )
        self._send_envelope(envelope)

    @staticmethod
    def _query_cacheable(text: str) -> bool:
        """Mirror of the engine cache's rule: trending evaluation
        consumes miner transition state, so its results are not pure
        functions of the stamp and must never be shared."""
        try:
            return not isinstance(parse_query(text), TrendingQuery)
        except ReproError:
            return False

    def _route_ingest(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        data = self._read_json_body()
        if data is None:
            return
        try:
            request = IngestRequest.from_dict(data)
        except Exception:  # noqa: BLE001 - malformed wire dict
            self._send_gateway_error(
                "http.bad_request",
                "body must be an IngestRequest wire dict "
                '({"text": "...", "doc_id": ..., "date": ..., "source": ...})',
            )
            return
        service = self.service
        try:
            ticket = service.submit(request)
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc, kind="ingest"))
            return
        if not service.draining_in_background:
            # No background drainer on this service: drain inline so the
            # ticket is always eventually fulfilled.
            service.flush()
        if _first(params, "wait") in _TRUTHY:
            self._send_awaited(ticket)
            return
        ticket_id = self.gateway._register_ticket(ticket, self._tenant)
        self._send_envelope(
            self.gateway._ticket_envelope(ticket_id, ticket, self._tenant)
        )

    def _send_awaited(self, ticket: IngestTicket) -> None:
        """``?wait=1``: answer the ticket's envelope once its batch has
        drained, or 504 when ``wait_timeout`` passes first."""
        wait_timeout = self.gateway.config.wait_timeout
        try:
            envelope = ticket.result(timeout=wait_timeout)
        except ReproError:
            self._send_gateway_error(
                "http.timeout",
                f"ingest of {ticket.doc_id!r} not drained within "
                f"{wait_timeout}s (still queued)",
            )
            return
        self._send_envelope(envelope)

    def _route_ticket_poll(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        raw_id = captures["ticket_id"]
        try:
            ticket_id = int(raw_id)
        except ValueError:
            self._send_gateway_error(
                "http.bad_request", f"ticket id must be an integer: {raw_id!r}"
            )
            return
        ticket = self.gateway._lookup_ticket(ticket_id, self._tenant)
        if ticket is None:
            self._send_gateway_error(
                "http.not_found", f"unknown ticket {ticket_id}"
            )
            return
        if _first(params, "wait") in _TRUTHY or ticket.done():
            self._send_awaited(ticket)
        else:
            self._send_envelope(
                self.gateway._ticket_envelope(ticket_id, ticket, self._tenant)
            )

    # ------------------------------------------------------------------
    # tenant admin surface
    # ------------------------------------------------------------------
    def _route_tenants_list(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        self._send_json(
            200,
            {
                "ok": True,
                "default": DEFAULT_TENANT,
                "tenants": self.gateway.registry.describe(),
            },
        )

    def _route_tenants_create(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        data = self._read_json_body()
        if data is None:
            return
        try:
            spec = TenantSpec.from_dict(data)
            info = self.gateway.registry.create(spec)
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            # tenancy → 400, tenancy.exists → 409.
            self._send_envelope(ApiResponse.failure(exc))
            return
        self._send_json(201, {"ok": True, "tenant": info})

    def _route_tenants_delete(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        drain = (_first(params, "drain") or "1") in _TRUTHY
        try:
            result = self.gateway.registry.delete(captures["name"], drain=drain)
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            # tenancy.unknown → 404, deleting 'default' → tenancy 400.
            self._send_envelope(ApiResponse.failure(exc))
            return
        self._send_json(200, {"ok": True, **result})

    # ------------------------------------------------------------------
    # shard introspection/control routes (consumed by RemoteShardClient)
    # ------------------------------------------------------------------
    def _route_shard(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        """``/v1/shard/<route>``: the service surface a scatter-gather
        router needs beyond the public envelopes (full support tables,
        atomic batch submission, placement accounting, explicit flush /
        refresh).  Served whenever the resolved service exposes the hook
        — a monolithic ``NousService`` worker does; routes a fronted
        service lacks answer 404."""
        route = captures["shard_route"]
        handler = getattr(self, f"_shard_{route}")
        if _SHARD_ROUTES[route] == "GET":
            handler()
            return
        data = self._read_json_body()
        if data is None:
            return
        handler(data)

    def _shard_hook(self, name: str) -> Optional[Any]:
        hook = getattr(self.service, name, None)
        if hook is None:
            self._send_gateway_error(
                "http.not_found",
                f"the served service does not expose {name!r}",
            )
        return hook

    def _shard_stream_view(self) -> None:
        hook = self._shard_hook("stream_view")
        if hook is None:
            return
        view = hook()
        self._send_json(
            200,
            {
                "ok": True,
                "supports": [
                    [pattern_to_wire(pattern), support]
                    for pattern, support in view.supports.items()
                ],
                "min_support": view.min_support,
                "window_edges": view.window_edges,
                "last_timestamp": view.last_timestamp,
                "kg_version": view.kg_version,
            },
        )

    def _shard_extracted_facts(self) -> None:
        hook = self._shard_hook("extracted_fact_keys")
        if hook is None:
            return
        self._send_json(
            200,
            {
                "ok": True,
                "facts": [list(key) for key in hook()],
                "kg_version": self.service.kg_version,
            },
        )

    def _shard_submit(self, data: Dict[str, Any]) -> None:
        """Atomic batch submission: the whole document list lands in the
        queue before the drainer carves its next batch — the wire form
        of ``submit_many``, which single-document POSTs cannot emulate
        (the drainer could slice a half-arrived batch, changing
        collective-linking co-location)."""
        documents = data.get("documents")
        if not isinstance(documents, list):
            self._send_gateway_error(
                "http.bad_request",
                'body must be {"documents": [IngestRequest wire dicts]}',
            )
            return
        try:
            requests = [IngestRequest.from_dict(doc) for doc in documents]
        except Exception:  # noqa: BLE001 - malformed wire dict
            self._send_gateway_error(
                "http.bad_request",
                "every document must be an IngestRequest wire dict",
            )
            return
        if len(requests) > MAX_TICKETS:
            # More tickets than the registry can hold would silently
            # invalidate the batch's own earliest tickets; refuse
            # loudly so the caller splits the batch.
            self._send_gateway_error(
                "http.payload_too_large",
                f"batch of {len(requests)} documents exceeds the ticket "
                f"registry capacity of {MAX_TICKETS}; split the batch",
            )
            return
        service = self.service
        try:
            tickets = service.submit_many(requests)
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc, kind="ingest"))
            return
        if not service.draining_in_background:
            service.flush()
        self._send_json(
            200,
            {
                "ok": True,
                "tickets": [
                    {
                        "ticket_id": self.gateway._register_ticket(
                            ticket, self._tenant
                        ),
                        "doc_id": ticket.doc_id,
                    }
                    for ticket in tickets
                ],
            },
        )

    def _shard_flush(self, data: Dict[str, Any]) -> None:
        timeout = data.get("timeout")
        try:
            self.service.flush(
                timeout=None if timeout is None else float(timeout)
            )
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc, kind="flush"))
            return
        self._send_json(
            200, {"ok": True, "kg_version": self.service.kg_version}
        )

    def _shard_snapshot(self, data: Dict[str, Any]) -> None:
        """Force a full on-disk snapshot (requires the service to run
        with a data directory; a storage-less worker answers the
        ``storage`` failure envelope)."""
        hook = self._shard_hook("snapshot")
        if hook is None:
            return
        try:
            version = hook()
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc, kind="snapshot"))
            return
        # A monolith answers its scalar stamp; a fronted sharded
        # service answers the per-shard tuple — fold to the composite.
        scalar = (
            sum(version) if isinstance(version, (tuple, list)) else int(version)
        )
        self._send_json(200, {"ok": True, "kg_version": scalar})

    def _shard_compute(self, data: Dict[str, Any]) -> None:
        """One distributed-compute superstep: the body is a
        :class:`~repro.compute.protocol.ComputeRequest` wire dict and
        the answer wraps the shard's ``ComputeResponse`` verbatim.
        Steps are stateless, so a recovered worker can re-run any round
        the dead one never answered."""
        hook = self._shard_hook("compute_step")
        if hook is None:
            return
        try:
            result = hook(data)
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc, kind="compute"))
            return
        self._send_json(200, {"ok": True, "result": result})

    def _shard_ingest_facts(self, data: Dict[str, Any]) -> None:
        hook = self._shard_hook("ingest_facts")
        if hook is None:
            return
        facts = data.get("facts")
        date = data.get("date")
        if not isinstance(facts, list):
            self._send_gateway_error(
                "http.bad_request",
                'body must be {"facts": [[s, p, o], ...], ...}',
            )
            return
        try:
            triples = [(str(s), str(p), str(o)) for s, p, o in facts]
            confidence = float(data.get("confidence", 0.9))
        except (TypeError, ValueError):
            # A fact that is not an (s, p, o) triple, or a non-numeric
            # confidence: a malformed body must answer 400, not crash
            # the handler thread.
            self._send_gateway_error(
                "http.bad_request",
                'body must be {"facts": [[s, p, o], ...], "date": ..., '
                '"source": ..., "confidence": <number>}',
            )
            return
        self._send_envelope(
            hook(
                triples,
                date=None if date is None else str(date),
                source=str(data.get("source", "structured")),
                confidence=confidence,
            )
        )

    def _shard_refresh(self, data: Dict[str, Any]) -> None:
        hook = self._shard_hook("refresh_subscriptions")
        if hook is None:
            return
        try:
            updates = hook()
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc, kind="refresh"))
            return
        self._send_json(
            200,
            {
                "ok": True,
                "updates": [update.to_dict() for update in updates],
                "kg_version": self.service.kg_version,
            },
        )

    # ------------------------------------------------------------------
    # the subscribe stream
    # ------------------------------------------------------------------
    def _route_subscribe(
        self, captures: Dict[str, str], params: Dict[str, List[str]]
    ) -> None:
        query_text = _first(params, "q")
        if query_text is None:
            self._send_gateway_error(
                "http.bad_request", "subscribe requires a ?q= query parameter"
            )
            return
        config = self.gateway.config
        try:
            heartbeat = float(
                _first(params, "heartbeat") or config.heartbeat_interval
            )
            max_seconds = float(_first(params, "max_seconds") or 0.0)
            max_updates = int(_first(params, "max_updates") or 0)
            min_interval = float(_first(params, "min_interval") or 0.0)
            max_rate = float(_first(params, "max_rate") or 0.0)
        except ValueError:
            heartbeat = max_seconds = min_interval = max_rate = float("nan")
            max_updates = 0
        # inf/nan would silently disable the heartbeat (and with it
        # dead-client detection) or make the max_seconds deadline
        # unreachable — refuse them with the non-numeric values.
        if not all(
            math.isfinite(value)
            for value in (heartbeat, max_seconds, min_interval, max_rate)
        ):
            self._send_gateway_error(
                "http.bad_request",
                "heartbeat/max_seconds/max_updates/min_interval/max_rate "
                "must be finite numbers",
            )
            return
        heartbeat = max(heartbeat, 0.01)
        max_seconds = max(max_seconds, 0.0)
        # The two throttle spellings compose to one coalescing window:
        # at most one update frame per `throttle` seconds.
        throttle = max(min_interval, 0.0)
        if max_rate > 0:
            throttle = max(throttle, 1.0 / max_rate)
        snapshot = _first(params, "snapshot") in _TRUTHY
        full_view = _first(params, "full") in _TRUTHY
        service = self.service
        row_kind: Optional[str] = None
        if throttle > 0:
            try:
                # Net-diff coalescing re-keys rows exactly the way
                # delta_rows did; the kind picks the keying rule.
                row_kind = kind_of_query(parse_query(query_text))
            except ReproError as exc:
                self._send_envelope(ApiResponse.failure(exc))
                return
        wake = threading.Event()
        try:
            # Quota *before* registration: an over-budget tenant's
            # subscribe answers the structured 429 without ever touching
            # the service.
            self.gateway.registry.ensure_subscription_capacity(self._tenant)
            subscription = service.subscribe(
                query_text,
                callback=lambda _update: wake.set(),
                trending_full_view=full_view,
            )
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            self._send_envelope(ApiResponse.failure(exc))
            return
        with self.gateway._ticket_lock:
            self.gateway._stream_wakes.add(wake)
        try:
            self._stream_subscription(
                subscription, wake, heartbeat, max_seconds, max_updates,
                snapshot=snapshot, throttle=throttle, row_kind=row_kind,
            )
        finally:
            # Whatever ended the stream — client disconnect, limits,
            # shutdown — the subscription is detached so the drainer
            # never evaluates for a dead consumer (idempotent after bye).
            service.unsubscribe(subscription)
            with self.gateway._ticket_lock:
                self.gateway._stream_wakes.discard(wake)
            self.close_connection = True

    def _stream_subscription(
        self,
        subscription: SubscriptionLike,
        wake: threading.Event,
        heartbeat: float,
        max_seconds: float,
        max_updates: int,
        snapshot: bool = False,
        throttle: float = 0.0,
        row_kind: Optional[str] = None,
    ) -> None:
        # Per-frame gzip when the subscriber advertises it: each frame
        # is deflate-compressed and sync-flushed into its own chunk, so
        # delivery latency is unchanged while trending full-view frames
        # (whole support tables) shrink several-fold.  One compressor
        # spans the stream — later frames deflate against earlier ones,
        # which is where most of the win on repetitive frames comes from.
        compressor = (
            zlib.compressobj(6, zlib.DEFLATED, 31)
            if accepts_gzip(self.headers.get("Accept-Encoding"))
            else None
        )
        self._stream_compressor = compressor
        self.send_response(200)
        self.send_header("Content-Type", NDJSON_CONTENT_TYPE)
        self.send_header("Cache-Control", "no-store")
        if compressor is not None:
            self.send_header("Content-Encoding", "gzip")
            self.send_header("Vary", "Accept-Encoding")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        service = self.service
        started = time.monotonic()
        deadline = None if max_seconds <= 0 else started + max_seconds
        # Per-stream monotonic stamp floor.  Update stamps are read when
        # a delta is *created*, heartbeat stamps when a frame is *sent*;
        # a delta created concurrently with a heartbeat read can carry
        # the older stamp yet hit the wire later.  The window is
        # microscopic for an in-process version read but real for a
        # cluster whose composite stamp is assembled from per-shard
        # reads (milliseconds over the wire in process mode), so the
        # documented per-stream monotonicity is enforced here, by
        # construction, with a floor clamp.
        stamp_floor = service.kg_version
        # Throttled streams coalesce: instead of forwarding every
        # update, remember the row map as of the last *sent* frame and,
        # once per `throttle` window, emit the net added/removed diff
        # against the subscription's current rows.  An add that was
        # undone within the window nets to nothing and never hits the
        # wire.  The baseline is read *before* hello goes out: a row
        # written right after hello must not slip into the baseline.
        coalesce = throttle > 0 and row_kind is not None
        sent_rows: Dict[str, Dict[str, Any]] = {}
        if coalesce:
            kind = row_kind or ""
            sent_rows = {
                key_of_row(kind, row): dict(row)
                for row in subscription.current_rows
            }
        if not self._send_chunk(
            encode_frame(
                hello_frame(subscription, stamp_floor, snapshot=snapshot)
            )
        ):
            return
        dirty = False
        pending_stamp = stamp_floor
        last_update_sent = started
        last_sent = time.monotonic()
        sent_updates = 0
        reason = "shutdown"

        def flush_coalesced(now: float) -> Tuple[bool, bool]:
            """Emit the net diff since the last sent frame.  Returns
            ``(client alive, hit max_updates)``."""
            nonlocal sent_rows, dirty, stamp_floor
            nonlocal last_update_sent, last_sent, sent_updates
            kind = row_kind or ""
            now_rows = {
                key_of_row(kind, row): dict(row)
                for row in subscription.current_rows
            }
            added = tuple(
                row
                for key, row in now_rows.items()
                if sent_rows.get(key) != row
            )
            removed = tuple(
                row for key, row in sent_rows.items() if key not in now_rows
            )
            sent_rows = now_rows
            dirty = False
            last_update_sent = now
            if not added and not removed:
                # The window's deltas net to zero: nothing to say.
                return True, False
            stamp_floor = max(stamp_floor, pending_stamp)
            frame = update_frame(
                StandingQueryUpdate(
                    subscription_id=subscription.id,
                    query_text=subscription.query_text,
                    kg_version=stamp_floor,
                    added=added,
                    removed=removed,
                )
            )
            if not self._send_chunk(encode_frame(frame)):
                return False, False
            last_sent = now
            sent_updates += 1
            return True, bool(max_updates and sent_updates >= max_updates)

        while not self.gateway.closing.is_set():
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                reason = "max_seconds"
                break
            # Sleep until the subscription's callback (or close()) sets
            # `wake`; the only timed wake-ups are what this loop itself
            # owes: heartbeat, max_seconds, an open throttle window.
            due = last_sent + heartbeat
            if deadline is not None:
                due = min(due, deadline)
            if dirty:
                due = min(due, last_update_sent + throttle)
            updates: List[StandingQueryUpdate] = []
            if wake.wait(timeout=max(due - now, 0.0)):
                wake.clear()
                updates = subscription.poll()
            now = time.monotonic()
            limit_hit = False
            if coalesce:
                if updates:
                    dirty = True
                    pending_stamp = max(
                        pending_stamp,
                        max(update.kg_version for update in updates),
                    )
                if dirty and now - last_update_sent >= throttle:
                    alive, limit_hit = flush_coalesced(now)
                    if not alive:
                        return  # client went away mid-stream: detach
            else:
                for update in updates:
                    frame = update_frame(update)
                    stamp_floor = max(stamp_floor, update.kg_version)
                    frame["kg_version"] = stamp_floor
                    if not self._send_chunk(encode_frame(frame)):
                        return  # client went away mid-stream: detach
                    sent_updates += 1
                    if max_updates and sent_updates >= max_updates:
                        limit_hit = True
                        break
                if updates:
                    now = last_sent = time.monotonic()
            if limit_hit:
                reason = "max_updates"
                break
            if now - last_sent >= heartbeat:
                stamp_floor = max(stamp_floor, service.kg_version)
                frame = heartbeat_frame(stamp_floor, service.pending_count)
                if not self._send_chunk(encode_frame(frame)):
                    return  # dead client detected by the keepalive
                last_sent = now
        if coalesce and dirty and reason != "max_updates":
            # The stream is ending inside a throttle window: deliver the
            # tail as one last net diff rather than dropping it.
            alive, _limit = flush_coalesced(time.monotonic())
            if not alive:
                return
        # Detach before the bye frame: a client that has read `bye` must
        # find its subscription (and its tenant quota slot) released.
        service.unsubscribe(subscription)
        self._send_chunk(encode_frame(bye_frame(reason)))
        try:
            if self._stream_compressor is not None:
                # Close the gzip member so the client's decompressor sees
                # a complete stream (sync-flushed frames are already
                # self-contained, so truncation on error paths is benign).
                tail = self._stream_compressor.flush(zlib.Z_FINISH)
                if tail:
                    self.wfile.write(
                        f"{len(tail):X}\r\n".encode("ascii") + tail + b"\r\n"
                    )
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except OSError:
            pass

    def _send_chunk(self, payload: bytes) -> bool:
        """Write one chunked-transfer frame; False when the client is
        gone (broken pipe / reset)."""
        compressor = self._stream_compressor
        if compressor is not None:
            # Sync-flush so the frame is decodable the moment the chunk
            # lands — no buffering latency added by compression.
            payload = compressor.compress(payload) + compressor.flush(
                zlib.Z_SYNC_FLUSH
            )
            if not payload:
                return True
        try:
            self.wfile.write(
                f"{len(payload):X}\r\n".encode("ascii") + payload + b"\r\n"
            )
            self.wfile.flush()
            return True
        except OSError:
            return False


def _first(params: Dict[str, List[str]], key: str) -> Optional[str]:
    values = params.get(key)
    if not values:
        return None
    return str(values[0])

"""``ClientSession``: talk to a running gateway with the same codecs.

The client round-trips the exact wire envelopes the in-process service
uses — :meth:`ClientSession.query` returns an
:class:`~repro.api.envelopes.ApiResponse` built with
``ApiResponse.from_dict``, and :meth:`ClientSession.query_decoded`
additionally runs the payload through
:func:`~repro.api.wire.decode_payload`, so a remote result compares
*equal* to the in-process object for every query payload type.  That
property is what lets tests and examples swap a live server for the
in-process service without changing a line.

One keep-alive connection is reused per session (guarded by a lock, so
a session may be shared across threads); :meth:`ClientSession.subscribe`
opens a dedicated second connection for its NDJSON stream and yields
one frame dict per line.  Everything is stdlib (``http.client``).

Bulk payloads travel compressed when both sides agree (see
``docs/PERFORMANCE.md``): the session advertises ``Accept-Encoding:
gzip`` and inflates compressed responses, gzips request bodies past
:data:`~repro.api.http.protocol.GZIP_MIN_BYTES`, and revalidates
``GET /v1/stats`` with ``If-None-Match`` so an unchanged graph costs a
304 instead of a statistics recomputation.  ``compress=False`` turns
all of it off — the negotiation-matrix tests pair each client mode
against each server mode and demand identical decoded envelopes.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import zlib
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union
from urllib.parse import quote, urlencode, urlsplit

from repro.api.envelopes import ApiResponse, IngestRequest, QueryRequest
from repro.api.http.protocol import GZIP_MIN_BYTES, gunzip_bytes, gzip_bytes
from repro.api.wire import decode_payload
from repro.errors import ConfigError, ReproError


def _connect(
    host: str, port: int, timeout: Optional[float]
) -> http.client.HTTPConnection:
    """An open connection with TCP_NODELAY set.

    http.client writes request headers and body as separate sends; with
    Nagle on, that write-write-read pattern stalls ~40ms per request on
    the peer's delayed ACK — a flat tax that would dwarf most queries.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    conn.connect()
    assert conn.sock is not None
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class ClientSession:
    """A client for one gateway base URL (e.g. ``http://127.0.0.1:8420``).

    Args:
        base_url: ``http://host:port`` of a running gateway.
        timeout: Socket timeout for plain requests (subscribe streams
            take their own, since an idle stream legitimately blocks
            between heartbeats).
        compress: Negotiate gzip both ways (advertise
            ``Accept-Encoding: gzip``, compress bulk request bodies).
            ``False`` forces identity encoding end to end.
        tenant: Address this tenant's namespace: every endpoint method
            goes through the ``/v1/t/<tenant>/...`` route tree.  The
            default ``None`` keeps the legacy un-prefixed paths, which
            the gateway resolves to its ``default`` tenant.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        compress: bool = True,
        tenant: Optional[str] = None,
    ) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ConfigError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout = timeout
        self._compress = compress
        self.tenant = tenant
        # The path prefix every endpoint method routes through; the
        # tenant id is percent-escaped so a malformed name reaches the
        # gateway's validator as one path segment (and answers 404)
        # instead of silently splitting the route.
        self._base = (
            "/v1" if tenant is None else f"/v1/t/{quote(tenant, safe='')}"
        )
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None
        # /v1/stats revalidation state: the last ETag the gateway
        # stamped and the envelope it validated, replayed on a 304.
        self._stats_etag: Optional[str] = None
        self._stats_cache: Optional[ApiResponse] = None

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """One JSON round trip on the shared keep-alive connection.

        Returns ``(status, body, response-headers)``.  A request whose
        *send* fails on a reused connection is retried once on a fresh
        socket (the server closed an idle keep-alive connection).  A
        lost *response* is only retried for GETs — the server may
        already have processed the request, and re-sending a POST could
        double-ingest.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers: Dict[str, str] = {}
        if body:
            headers["Content-Type"] = "application/json"
            if self._compress and len(body) >= GZIP_MIN_BYTES:
                compressed = gzip_bytes(body)
                if len(compressed) < len(body):
                    body = compressed
                    headers["Content-Encoding"] = "gzip"
        if self._compress:
            headers["Accept-Encoding"] = "gzip"
        if extra_headers:
            headers.update(extra_headers)
        with self._lock:
            while True:
                fresh = self._conn is None
                if self._conn is None:
                    self._conn = _connect(
                        self._host, self._port, self._timeout
                    )
                try:
                    self._conn.request(method, path, body=body, headers=headers)
                except (http.client.HTTPException, OSError):
                    # Send failed: the server cannot have processed a
                    # complete request, so a retry on a fresh socket is
                    # safe for any method (this covers the server
                    # having closed an idle keep-alive connection).
                    self._conn.close()
                    self._conn = None
                    if fresh:
                        raise
                    continue
                try:
                    response = self._conn.getresponse()
                    status = response.status
                    raw = response.read()
                    response_headers = dict(response.headers.items())
                    encoding = (
                        response.getheader("Content-Encoding") or ""
                    ).lower()
                except (http.client.HTTPException, OSError):
                    # The request reached the server but the response
                    # did not come back.  Only idempotent methods may
                    # retry — re-sending a POST here could double-ingest
                    # a document the server already processed.
                    self._conn.close()
                    self._conn = None
                    if fresh or method != "GET":
                        raise
                    continue
                break
        if encoding == "gzip":
            try:
                raw = gunzip_bytes(raw)
            except (EOFError, OSError, zlib.error) as exc:
                raise ReproError(
                    f"gateway sent an undecodable gzip body for "
                    f"{method} {path}: {exc}"
                ) from exc
        if status == 304 and not raw:
            # Conditional GET validated: there is legitimately no body.
            return status, {}, response_headers
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"gateway returned a non-JSON body for {method} {path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ReproError(
                f"gateway returned a non-object body for {method} {path}"
            )
        return status, data, response_headers

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One raw JSON round trip — ``(status, body)``.

        Public for callers that speak endpoints beyond the standard
        surface (the cluster's remote-shard client uses it for the
        ``/v1/shard/*`` introspection routes).
        """
        status, data, _headers = self._request(method, path, payload)
        return status, data

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def query(self, request: Union[str, QueryRequest]) -> ApiResponse:
        """``POST /v1/query``; returns the decoded envelope (check
        ``.ok`` / ``.error`` — failures do not raise)."""
        if isinstance(request, str):
            request = QueryRequest(text=request)
        _status, data, _headers = self._request(
            "POST", f"{self._base}/query", request.to_dict()
        )
        return ApiResponse.from_dict(data)

    def query_decoded(self, request: Union[str, QueryRequest]) -> Tuple[str, Any]:
        """Query and decode the payload back into its payload object.

        Returns ``(kind, payload)`` where ``payload`` compares equal to
        what in-process ``NousService.query`` + ``decode_payload`` would
        produce.

        Raises:
            ReproError: when the envelope carries an error.
        """
        envelope = self.query(request).raise_for_error()
        assert envelope.payload is not None
        return envelope.kind, decode_payload(envelope.kind, envelope.payload)

    def ingest(
        self,
        request: Union[str, IngestRequest],
        wait: bool = True,
        **fields: Any,
    ) -> ApiResponse:
        """``POST /v1/ingest``.

        Args:
            request: An :class:`IngestRequest`, or the document text
                (with ``doc_id`` / ``date`` / ``source`` as keyword
                arguments).
            wait: Block until the document's micro-batch drains and
                return the ``ingest`` envelope; with ``wait=False`` the
                202 ``ticket`` envelope is returned immediately (poll it
                with :meth:`ticket`).
        """
        if isinstance(request, str):
            request = IngestRequest(text=request, **fields)
        elif fields:
            raise ConfigError(
                "keyword fields are only valid with a text-string request"
            )
        path = f"{self._base}/ingest?wait=1" if wait else f"{self._base}/ingest"
        _status, data, _headers = self._request("POST", path, request.to_dict())
        return ApiResponse.from_dict(data)

    def submit(
        self, request: Union[str, IngestRequest], **fields: Any
    ) -> ApiResponse:
        """Fire-and-poll ingestion: the 202 ``ticket`` envelope."""
        return self.ingest(request, wait=False, **fields)

    def ticket(self, ticket_id: int) -> ApiResponse:
        """``GET /v1/ingest/<id>``: the ``ingest`` envelope once the
        document drained, the ``ticket`` envelope while pending."""
        _status, data, _headers = self._request(
            "GET", f"{self._base}/ingest/{ticket_id}"
        )
        return ApiResponse.from_dict(data)

    def statistics(self) -> ApiResponse:
        """``GET /v1/stats``: the ``statistics`` envelope.

        The session revalidates with ``If-None-Match``: once a
        statistics envelope has been fetched, later calls send the
        gateway's ETag and replay the cached envelope on a 304 — the
        gateway skips recomputing statistics entirely when the
        composite stamp has not moved.
        """
        conditional: Optional[Dict[str, str]] = None
        if self._stats_etag is not None and self._stats_cache is not None:
            conditional = {"If-None-Match": self._stats_etag}
        status, data, headers = self._request(
            "GET", f"{self._base}/stats", extra_headers=conditional
        )
        if status == 304 and self._stats_cache is not None:
            return self._stats_cache
        envelope = ApiResponse.from_dict(data)
        etag = headers.get("ETag")
        if envelope.ok and etag:
            self._stats_etag = etag
            self._stats_cache = envelope
        return envelope

    def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz``: liveness + queue state (a plain dict)."""
        _status, data, _headers = self._request("GET", f"{self._base}/healthz")
        return data

    # ------------------------------------------------------------------
    # tenant administration (always un-prefixed: the admin surface
    # operates on the registry, not on one tenant's namespace)
    # ------------------------------------------------------------------
    def tenants(self) -> Dict[str, Any]:
        """``GET /v1/tenants``: every registered tenant (spec plus live
        state for tenants whose service has been built)."""
        _status, data, _headers = self._request("GET", "/v1/tenants")
        return data

    def create_tenant(self, spec: Mapping[str, Any]) -> Dict[str, Any]:
        """``POST /v1/tenants``: register a tenant from a spec wire dict
        (or a ``TenantSpec`` — anything with ``to_dict``).

        Raises:
            ReproError: ``tenancy.exists`` when the name is taken,
                ``tenancy`` when the spec is malformed.
        """
        to_dict = getattr(spec, "to_dict", None)
        payload = dict(to_dict()) if callable(to_dict) else dict(spec)
        status, data, _headers = self._request("POST", "/v1/tenants", payload)
        if status >= 400:
            ApiResponse.from_dict(data).raise_for_error()
        return data

    def delete_tenant(self, name: str, drain: bool = True) -> Dict[str, Any]:
        """``DELETE /v1/tenants/<name>``: unregister a tenant, draining
        and closing its service (``drain=False`` skips the flush).

        Raises:
            ReproError: ``tenancy.unknown`` for a missing tenant,
                ``tenancy`` for an attempt to delete ``default``.
        """
        suffix = "" if drain else "?drain=0"
        status, data, _headers = self._request(
            "DELETE", f"/v1/tenants/{quote(name, safe='')}{suffix}"
        )
        if status >= 400:
            ApiResponse.from_dict(data).raise_for_error()
        return data

    def subscribe(
        self,
        query_text: str,
        heartbeat: Optional[float] = None,
        max_seconds: Optional[float] = None,
        max_updates: Optional[int] = None,
        include_heartbeats: bool = False,
        timeout: Optional[float] = None,
        snapshot: bool = False,
        trending_full_view: bool = False,
        min_interval: Optional[float] = None,
        max_rate: Optional[float] = None,
    ) -> "SubscriptionStream":
        """``GET /v1/subscribe?q=...``: a live NDJSON delta stream.

        Returns a :class:`SubscriptionStream` — iterate it for frame
        dicts (``subscribed`` first, then ``update`` / ``bye``;
        ``heartbeat`` frames are filtered unless requested).  Closing
        the stream disconnects, which detaches the server-side standing
        query.

        Args:
            snapshot: Ask the hello frame to carry the baseline rows
                and their version (``?snapshot=1``) — what a consumer
                folding deltas into an authoritative row map needs.
            trending_full_view: Register the server-side trending
                subscription over the miner's full support table
                (``?full=1``; see
                :meth:`repro.api.service.NousService.subscribe`).
            min_interval: Throttle: at most one update frame per this
                many seconds; deltas inside a window are coalesced into
                one *net* added/removed diff.
            max_rate: Throttle spelled as frames/second (composes with
                ``min_interval``: the stricter of the two wins).

        Raises:
            ReproError: when the server rejects the subscription (e.g.
                an unparseable query).
        """
        params: Dict[str, str] = {"q": query_text}
        if heartbeat is not None:
            params["heartbeat"] = str(heartbeat)
        if max_seconds is not None:
            params["max_seconds"] = str(max_seconds)
        if max_updates is not None:
            params["max_updates"] = str(max_updates)
        if snapshot:
            params["snapshot"] = "1"
        if trending_full_view:
            params["full"] = "1"
        if min_interval is not None:
            params["min_interval"] = str(min_interval)
        if max_rate is not None:
            params["max_rate"] = str(max_rate)
        path = f"{self._base}/subscribe?" + urlencode(params, quote_via=quote)
        return SubscriptionStream(
            self._host,
            self._port,
            path,
            timeout,
            include_heartbeats,
            compress=self._compress,
        )


class SubscriptionStream:
    """Iterator over one subscribe stream's NDJSON frames.

    Owns a dedicated connection: closing it (or leaving a ``with``
    block) is the client-side disconnect the server detaches on.
    """

    def __init__(
        self,
        host: str,
        port: int,
        path: str,
        timeout: Optional[float],
        include_heartbeats: bool,
        compress: bool = True,
    ) -> None:
        self._include_heartbeats = include_heartbeats
        self._conn = _connect(host, port, timeout)
        self._closed = False
        self._decompressor: Optional["zlib._Decompress"] = None
        self._buffer = b""
        try:
            headers = {"Accept-Encoding": "gzip"} if compress else {}
            self._conn.request("GET", path, headers=headers)
            self._response = self._conn.getresponse()
            encoding = (
                self._response.getheader("Content-Encoding") or ""
            ).lower()
            if self._response.status != 200:
                raw = self._response.read()
                if encoding == "gzip":
                    raw = gunzip_bytes(raw)
                data = json.loads(raw)
                ApiResponse.from_dict(data).raise_for_error()
                raise ReproError(
                    f"subscribe rejected with HTTP {self._response.status}"
                )
            if encoding == "gzip":
                self._decompressor = zlib.decompressobj(31)
        except BaseException:
            self._conn.close()
            self._closed = True
            raise

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self

    def _read_frame_line(self) -> bytes:
        """One NDJSON line off the wire, inflating when negotiated.

        The compressed path cannot use ``readline`` (newlines in the
        deflate stream are meaningless); instead ``read1`` takes
        whatever bytes are available — each frame is sync-flushed by
        the server, so a full line is decodable the moment its chunk
        arrives — and lines are split out of the inflated buffer.
        """
        if self._decompressor is None:
            return bytes(self._response.readline())
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[: newline + 1]
                self._buffer = self._buffer[newline + 1:]
                return line
            chunk = self._response.read1(65536)
            if not chunk:
                line, self._buffer = self._buffer, b""
                return line  # EOF: empty bytes ends the stream
            self._buffer += self._decompressor.decompress(chunk)

    def __next__(self) -> Dict[str, Any]:
        """The next frame; ``StopIteration`` on clean end of stream."""
        while True:
            if self._closed:
                raise StopIteration
            try:
                line = self._read_frame_line()
            except (
                OSError,
                ValueError,
                AttributeError,
                zlib.error,
                http.client.HTTPException,
            ):
                # close() may race a blocked readline from another
                # thread; whatever the stdlib raises on the yanked
                # socket, the stream is simply over (the AttributeError
                # is http.client reading through its now-None buffer).
                self.close()
                raise StopIteration from None
            if not line:
                self.close()
                raise StopIteration
            frame = json.loads(line)
            if not isinstance(frame, dict):
                raise ReproError("subscribe stream emitted a non-object frame")
            if (
                frame.get("event") == "heartbeat"
                and not self._include_heartbeats
            ):
                continue
            return frame

    def close(self) -> None:
        """Disconnect (idempotent)."""
        if not self._closed:
            self._closed = True
            if self._conn.sock is not None:
                try:
                    # Wake a reader blocked in another thread: close()
                    # alone queues behind its read (the next heartbeat).
                    self._conn.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._conn.close()

    def __enter__(self) -> "SubscriptionStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

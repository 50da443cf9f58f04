"""Concurrency stress: a sharded gateway under simultaneous ingest,
query and NDJSON-subscriber load.

The invariants pinned here are the distributed-correctness claims of the
sharded service:

- **No dropped or duplicated subscription deltas** — replaying every
  added/removed row (keyed exactly as ``delta_rows`` keys them, via
  ``key_of_row``) on top of the subscribe-time baseline reproduces a
  fresh end-state evaluation; every ``added`` row changes the replay
  state and every ``removed`` row was present.
- **Monotonic composite version stamp** — ``kg_version`` never goes
  backwards, neither within one subscriber stream (update and heartbeat
  frames) nor across one client's successive query responses.
- **The gateway survives** — every concurrent ingest and query returns
  a well-formed, successful envelope while two subscribers stream.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    IngestRequest,
    NousConfig,
    ServiceConfig,
    ShardedNousService,
)
from repro.api.http import ClientSession, GatewayConfig, NousGateway
from repro.api.wire import key_of_row

N_SHARDS = 3
N_INGEST_WORKERS = 3
DOCS_PER_WORKER = 6
N_QUERY_WORKERS = 2
QUERIES_PER_WORKER = 6

_COMPANIES = [
    "DJI", "GoPro", "Intel", "Amazon", "Google", "Boeing",
    "AeroVironment", "Parrot",
]

SUBSCRIBER_QUERIES = ["what's new about DJI", "show trending patterns"]
WORKER_QUERIES = [
    "tell me about DJI",
    "show trending patterns",
    "what's new about GoPro",
    "match (?a:Company)-[acquired]->(?b:Company)",
]


def _doc(worker: int, index: int) -> IngestRequest:
    subject = _COMPANIES[(worker * DOCS_PER_WORKER + index) % len(_COMPANIES)]
    object_ = _COMPANIES[(worker + index + 1) % len(_COMPANIES)]
    if object_ == subject:
        object_ = _COMPANIES[(worker + index + 2) % len(_COMPANIES)]
    name = subject.replace("_", " ")
    return IngestRequest(
        text=(
            f"{name} acquired {object_.replace('_', ' ')}. "
            f"{name} announced a new drone."
        ),
        doc_id=f"stress-{worker}-{index}",
        date=f"2015-07-{(index % 27) + 1:02d}",
        source="stress",
    )


class _Subscriber(threading.Thread):
    """Collects every frame of one NDJSON subscribe stream."""

    def __init__(self, url: str, query: str) -> None:
        super().__init__(daemon=True)
        self.query = query
        self.frames = []
        self.error = None
        self._session = ClientSession(url)
        # The stream is opened (and the server-side standing query is
        # registered) before the thread starts: no subscribe race with
        # the ingest workers' first documents.
        self._stream = self._session.subscribe(
            query, heartbeat=0.2, include_heartbeats=True
        )

    def run(self) -> None:
        try:
            for frame in self._stream:
                self.frames.append(frame)
        except Exception as exc:  # noqa: BLE001 - surfaced in the test
            self.error = exc

    def close(self) -> None:
        self._stream.close()
        self._session.close()

    def updates(self):
        return [f for f in self.frames if f.get("event") == "update"]

    def last_version(self) -> int:
        versions = [
            f["kg_version"] for f in self.frames if "kg_version" in f
        ]
        return versions[-1] if versions else -1


@pytest.fixture(scope="module", params=["local", "process"])
def stressed(request):
    """Run the whole stress scenario once per shard mode; tests assert
    over its log.  The process run pins the same distributed-correctness
    claims across real process boundaries: deltas hop worker NDJSON
    stream -> cluster merge -> gateway NDJSON stream and must still
    replay exactly."""
    cluster = ShardedNousService(
        num_shards=N_SHARDS,
        config=NousConfig(
            window_size=60, min_support=2, lda_iterations=8, seed=5
        ),
        service_config=ServiceConfig(max_batch=8),
        shard_mode=request.param,
        kb_spec="drone",
    )
    gateway = NousGateway(cluster, GatewayConfig(port=0))
    gateway.start()
    url = gateway.url
    try:
        with ClientSession(url) as warmup:
            # a few facts so both standing queries have a baseline
            assert warmup.ingest(_doc(0, 0), wait=True).ok
        cluster.flush()
        baselines = {
            q: {
                key_of_row(sub.kind, row): row
                for row in sub.current_rows
            }
            for q in SUBSCRIBER_QUERIES
            for sub in [cluster.subscribe(q)]
        }
        subscribers = [_Subscriber(url, q) for q in SUBSCRIBER_QUERIES]
        for subscriber in subscribers:
            subscriber.start()

        ingest_failures = []
        query_log = {i: [] for i in range(N_QUERY_WORKERS)}

        def ingest_worker(worker: int) -> None:
            with ClientSession(url) as session:
                for i in range(DOCS_PER_WORKER):
                    response = session.ingest(
                        _doc(worker, i), wait=(i % 2 == 0)
                    )
                    if not response.ok:
                        ingest_failures.append(response)

        def query_worker(worker: int) -> None:
            with ClientSession(url) as session:
                for i in range(QUERIES_PER_WORKER):
                    response = session.query(
                        WORKER_QUERIES[(worker + i) % len(WORKER_QUERIES)]
                    )
                    query_log[worker].append(response)

        threads = [
            threading.Thread(target=ingest_worker, args=(w,))
            for w in range(N_INGEST_WORKERS)
        ] + [
            threading.Thread(target=query_worker, args=(w,))
            for w in range(N_QUERY_WORKERS)
        ]
        during_health = None
        for thread in threads:
            thread.start()
        with ClientSession(url) as session:
            during_health = session.healthz()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        cluster.flush()
        # let the final refresh deltas reach the streams, then detach
        final_version = cluster.kg_version
        deadline = threading.Event()
        for _ in range(100):
            if all(s.last_version() >= final_version for s in subscribers):
                break
            deadline.wait(0.1)
        for subscriber in subscribers:
            subscriber.close()
        for subscriber in subscribers:
            subscriber.join(timeout=30)
            assert not subscriber.is_alive()
        finals = {
            q: {
                key_of_row(sub.kind, row): row
                for row in sub.current_rows
            }
            for q in SUBSCRIBER_QUERIES
            for sub in [cluster.subscribe(q)]
        }
        yield {
            "cluster": cluster,
            "subscribers": subscribers,
            "baselines": baselines,
            "finals": finals,
            "ingest_failures": ingest_failures,
            "query_log": query_log,
            "during_health": during_health,
        }
    finally:
        gateway.close()
        cluster.close()


class TestShardedGatewayStress:
    def test_no_worker_failures(self, stressed):
        assert stressed["ingest_failures"] == []
        for responses in stressed["query_log"].values():
            assert responses
            assert all(r.ok for r in responses)
        for subscriber in stressed["subscribers"]:
            assert subscriber.error is None
            assert subscriber.frames[0]["event"] == "subscribed"

    def test_all_documents_ingested(self, stressed):
        cluster = stressed["cluster"]
        expected = 1 + N_INGEST_WORKERS * DOCS_PER_WORKER
        assert cluster.documents_ingested == expected
        assert sum(cluster.documents_routed) == expected
        # dominant-entity routing spread the load over >= 2 shards
        assert sum(1 for c in cluster.documents_routed if c) >= 2

    def test_subscription_deltas_replay_exactly(self, stressed):
        """No dropped, no duplicated deltas: baseline + replay == final."""
        for subscriber in stressed["subscribers"]:
            kind = (
                "trending"
                if "trending" in subscriber.query
                else "entity-trend"
            )
            rows = dict(stressed["baselines"][subscriber.query])
            for update in subscriber.updates():
                for row in update["removed"]:
                    key = key_of_row(kind, row)
                    assert key in rows, f"removed row never added: {row}"
                    rows.pop(key)
                for row in update["added"]:
                    key = key_of_row(kind, row)
                    assert rows.get(key) != row, f"duplicate add: {row}"
                    rows[key] = row
            final = stressed["finals"][subscriber.query]
            assert rows == final, (
                f"{subscriber.query}: replayed {len(rows)} rows, "
                f"expected {len(final)}"
            )

    def test_composite_stamp_monotonic_per_stream(self, stressed):
        for subscriber in stressed["subscribers"]:
            versions = [
                frame["kg_version"]
                for frame in subscriber.frames
                if "kg_version" in frame
            ]
            assert versions, "stream carried no version stamps"
            assert versions == sorted(versions), (
                f"{subscriber.query}: stamp went backwards: {versions}"
            )

    def test_composite_stamp_monotonic_per_client(self, stressed):
        for responses in stressed["query_log"].values():
            versions = [r.kg_version for r in responses]
            assert versions == sorted(versions)

    def test_gateway_health_during_load(self, stressed):
        health = stressed["during_health"]
        assert health["ok"]
        assert health["subscriptions"] >= 2

    def test_updates_flowed(self, stressed):
        # the scenario is only meaningful if both streams saw deltas
        for subscriber in stressed["subscribers"]:
            assert subscriber.updates(), subscriber.query

"""Durable shards: snapshot + WAL crash recovery (ISSUE 6).

Fault-injection and restart-equivalence layer over
:mod:`repro.storage`:

- **Monolith restart equivalence** — a service recovered from its data
  directory (snapshot + WAL suffix, WAL alone, or WAL after a corrupt
  snapshot) answers byte-identically to the service that wrote it:
  composite stamp, statistics payload, every query payload.
- **Torn-tail degradation** — a WAL cut mid-record by a crash replays
  its intact prefix and truncates the garbage, so later appends never
  interleave with it.
- **Standing-query replay** — re-subscribing on a recovered service
  reproduces exactly the crashed service's current rows (keyed by
  :func:`repro.api.wire.key_of_row`): no delta dropped, none
  duplicated.
- **Cluster fault injection** — SIGKILL a worker subprocess; the next
  operation respawns it on its old port and WAL replay restores the
  exact pre-crash composite stamp; the restart budget bounds the loop.

Everything writes under ``tmp_path`` only (CI asserts no data
directory ever lands in the repo tree).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro import (
    NousConfig,
    NousService,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
)
from repro.api.cluster.service import kind_of_query
from repro.api.wire import key_of_row
from repro.errors import ClusterError, StorageError
from repro.storage import JsonLinesBackend

QUERIES = [
    "tell me about DJI",
    "show trending patterns",
    "what's new about DJI",
    "match (?a)-[acquired]->(?b)",
]

DOCS = [
    {
        "text": "DJI acquired GoPro.",
        "doc_id": "d0",
        "date": "2015-06-01",
        "source": "recovery",
    },
    {
        "text": "Intel partnered with PrecisionHawk.",
        "doc_id": "d1",
        "date": "2015-06-02",
        "source": "recovery",
    },
    {
        "text": "Amazon acquired Kiva Systems.",
        "doc_id": "d2",
        "date": "2015-06-03",
        "source": "recovery",
    },
    {
        "text": "DJI partnered with Boeing.",
        "doc_id": "d3",
        "date": "2015-06-04",
        "source": "recovery",
    },
]

FACTS = [
    ("DJI", "acquired", "GoPro"),
    ("Intel", "partnerOf", "PrecisionHawk"),
    ("Google", "acquired", "Titan_Aerospace"),
]


def _config() -> NousConfig:
    return NousConfig(
        window_size=100, min_support=2, lda_iterations=10,
        retrain_every=0, seed=3,
    )


def _service(data_dir=None, **overrides) -> NousService:
    service_config = ServiceConfig(
        auto_start=False, max_batch=2, **overrides
    )
    return NousService(
        kb=build_drone_kb(),
        config=_config(),
        service_config=service_config,
        data_dir=data_dir,
    )


def _ingest(service, docs) -> None:
    from repro.api.envelopes import IngestRequest

    for doc in docs:
        service.submit(IngestRequest.from_dict(doc))
        service.flush()


def _fingerprint(service) -> dict:
    out = {
        "kg_version": service.kg_version,
        "num_facts": service.nous.kb.num_facts,
        "documents_ingested": service.documents_ingested,
        "batches_drained": service.batches_drained,
        "documents_drained": service.documents_drained,
        "stats": json.dumps(service.statistics().payload, sort_keys=True),
    }
    for text in QUERIES:
        envelope = service.query(text)
        out[text] = json.dumps(
            {
                "ok": envelope.ok,
                "payload": envelope.payload,
                "rendered": envelope.rendered,
            },
            sort_keys=True,
        )
    return out


class TestMonolithRecovery:
    def test_wal_only_replay_is_byte_identical(self, tmp_path):
        data_dir = str(tmp_path / "wal-only")
        first = _service(data_dir)
        _ingest(first, DOCS)
        assert first.ingest_facts(FACTS, date="2015-07-01").ok
        reference = _fingerprint(first)
        first.close()
        assert os.path.exists(os.path.join(data_dir, "wal.jsonl"))
        assert not os.path.exists(os.path.join(data_dir, "snapshot.json"))

        recovered = _service(data_dir)
        assert _fingerprint(recovered) == reference
        recovered.close()

    def test_snapshot_plus_wal_suffix(self, tmp_path):
        data_dir = str(tmp_path / "snap")
        first = _service(data_dir)
        _ingest(first, DOCS[:2])
        assert first.snapshot() == first.kg_version
        _ingest(first, DOCS[2:])
        assert first.ingest_facts(FACTS, date="2015-07-01").ok
        reference = _fingerprint(first)
        wal_total = first._wal_records
        first.close()
        assert os.path.exists(os.path.join(data_dir, "snapshot.json"))

        recovered = _service(data_dir)
        # Only the records the snapshot does not cover were replayed.
        backend = JsonLinesBackend(data_dir)
        covered = backend.read_snapshot()["wal_covered"]
        assert 0 < covered < wal_total
        assert _fingerprint(recovered) == reference
        recovered.close()

    def test_corrupt_snapshot_degrades_to_full_wal_replay(self, tmp_path):
        data_dir = str(tmp_path / "corrupt")
        first = _service(data_dir)
        _ingest(first, DOCS)
        first.snapshot()
        assert first.ingest_facts(FACTS, date="2015-07-01").ok
        reference = _fingerprint(first)
        first.close()

        snapshot_path = os.path.join(data_dir, "snapshot.json")
        blob = bytearray(open(snapshot_path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF  # flip one byte inside the state
        with open(snapshot_path, "wb") as handle:
            handle.write(blob)
        assert JsonLinesBackend(data_dir).read_snapshot() is None

        recovered = _service(data_dir)
        assert _fingerprint(recovered) == reference
        recovered.close()

    def test_torn_wal_tail_is_dropped_and_truncated(self, tmp_path):
        data_dir = str(tmp_path / "torn")
        first = _service(data_dir)
        _ingest(first, DOCS[:2])
        reference = _fingerprint(first)
        _ingest(first, DOCS[2:])
        first.close()

        # Tear the crash boundary: cut the last record off mid-line.
        wal_path = os.path.join(data_dir, "wal.jsonl")
        raw = open(wal_path, "rb").read()
        lines = raw.rstrip(b"\n").split(b"\n")
        torn = b"\n".join(lines[:2]) + b"\n" + lines[2][: len(lines[2]) // 2]
        with open(wal_path, "wb") as handle:
            handle.write(torn)

        recovered = _service(data_dir)
        # The intact prefix is exactly the first two micro-batches.
        assert _fingerprint(recovered) == reference
        # ... and the tail was truncated, so new appends stay contiguous.
        assert os.path.getsize(wal_path) < len(torn)
        _ingest(recovered, DOCS[2:])
        after_reingest = _fingerprint(recovered)
        recovered.close()
        again = _service(data_dir)
        assert _fingerprint(again) == after_reingest
        again.close()

    def test_query_minted_entities_are_durable(self, tmp_path):
        data_dir = str(tmp_path / "minted")
        first = _service(data_dir)
        _ingest(first, DOCS[:2])
        # An entity query for an unknown mention mints it (the
        # monolith's documented behaviour) — that mutation must be as
        # durable as an ingest.
        first.query("tell me about Zephyranthes Aeronautics")
        reference = _fingerprint(first)
        first.close()

        recovered = _service(data_dir)
        assert _fingerprint(recovered) == reference
        recovered.close()

    def test_storage_calls_require_data_dir(self, tmp_path):
        service = _service(data_dir=None)
        with pytest.raises(StorageError):
            service.snapshot()
        with pytest.raises(StorageError):
            service.recover()
        service.close()

    def test_recover_refuses_used_engine(self, tmp_path):
        data_dir = str(tmp_path / "used")
        service = _service(data_dir)
        _ingest(service, DOCS[:1])
        with pytest.raises(StorageError):
            service.recover()
        service.close()

    def test_every_micro_batch_is_one_wal_record(self, tmp_path):
        data_dir = str(tmp_path / "acks")
        service = _service(data_dir)
        _ingest(service, DOCS)  # one submit+flush per document
        assert service.ingest_facts(FACTS, date="2015-07-01").ok
        service.close()
        records = JsonLinesBackend(data_dir).read_wal()
        assert len(records) == len(DOCS) + 1
        assert records[-1]["service"]["documents_drained"] == len(DOCS)

    def test_snapshot_every_autosnapshots(self, tmp_path):
        data_dir = str(tmp_path / "auto")
        service = _service(data_dir, snapshot_every=2)
        _ingest(service, DOCS)
        service.close()
        state = JsonLinesBackend(data_dir).read_snapshot()
        assert state is not None
        assert state["wal_covered"] >= 2


class TestParentFormatWal:
    """A WAL written before every accept became a batch records the
    facts of an ``ingest_facts`` call as one ``"fact"`` event each.
    Such a log must keep recovering: the record below is what the
    parent commit wrote for ``ingest_facts(FACTS, date="2015-07-01")``
    on a fresh drone-KB engine with a two-edge window (so the third
    fact evicts the first)."""

    @staticmethod
    def _fact_event(s, p, o):
        return {
            "kind": "fact",
            "facts": [{
                "s": s, "p": p, "o": o,
                "confidence": 0.9, "source": "structured",
                "date": {"year": 2015, "month": 7, "day": 1},
                "timestamp": 749766.0,
            }],
        }

    def _record(self):
        return {
            "events": [self._fact_event(*fact) for fact in FACTS],
            "entities": [["Titan_Aerospace", "Thing", ""]],
            "aliases": [["titan aerospace", "Titan_Aerospace", 1]],
            "types": [],
            "predicates": [],
            "cache": [],
            "mention_index": [],
            "stats": {"mapped": 0, "rejected": [], "created_entities": 0},
            "raws": [],
            "trust": [
                ["wsj", 8.0, 2.0], ["yago", 19.0, 1.0], ["curated", 19.0, 1.0],
            ],
            "retrained": False,
            "counters": {
                "kb_version": 131, "aliases_version": 129,
                "ontology_version": 46, "total_added": 3, "total_evicted": 1,
                "window_last_timestamp": 749766.0, "facts_streamed": 3,
                "updates_processed": 4, "embeddings_touched": 4,
                "documents_ingested": 0, "accepted_since_retrain": 0,
                "last_timestamp": 749766.0,
            },
        }

    def test_fact_events_replay_to_the_exact_stamp(self):
        from repro import Nous
        from repro.nlp.dates import parse_date
        from repro.storage.snapshot import record_ingest, replay_record

        def engine():
            config = NousConfig(
                window_size=2, min_support=2, retrain_every=0, seed=3
            )
            return Nous(kb=build_drone_kb(), config=config)

        def state(nous):
            return (
                nous.dynamic.version,
                list(nous.kb.store),
                list(nous.dynamic.window.window_edges()),
                nous.dynamic.window.total_added,
                nous.dynamic.window.total_evicted,
                list(nous.dynamic.miner.support_state()),
                nous.kb.entity_type("Titan_Aerospace"),
            )

        live = engine()
        with record_ingest(live) as recorder:
            live.ingest_facts(FACTS, date=parse_date("2015-07-01"))
        assert live.dynamic.version == 310

        from_parent_wal = engine()
        replay_record(from_parent_wal, self._record())
        assert state(from_parent_wal) == state(live)

        # What this commit writes for the same call: singleton batches.
        assert [
            (event["kind"], len(event["facts"]))
            for event in recorder.record["events"]
        ] == [("batch", 1)] * len(FACTS)
        from_own_wal = engine()
        replay_record(from_own_wal, json.loads(json.dumps(recorder.record)))
        assert state(from_own_wal) == state(live)


class TestSubscriptionReplay:
    def test_replay_rows_match_fresh_evaluation(self, tmp_path):
        data_dir = str(tmp_path / "subs")
        query_text = "match (?a)-[acquired]->(?b)"
        first = _service(data_dir)
        subscription = first.subscribe(query_text)
        kind = kind_of_query(subscription.query)
        _ingest(first, DOCS)
        updates = subscription.poll()
        assert updates, "fixture produced no deltas"
        # Fold the deltas the crashed service delivered, keyed the way
        # the delta protocol keys rows.
        folded = {}
        for update in updates:
            for row in update.removed:
                folded.pop(key_of_row(kind, row), None)
            for row in update.added:
                folded[key_of_row(kind, row)] = row
        assert folded  # deltas actually added rows
        crashed_rows = {
            key_of_row(kind, row): row
            for row in subscription.current_rows
        }
        first.close()

        recovered = _service(data_dir)
        fresh = recovered.subscribe(query_text)
        fresh_rows = {
            key_of_row(kind, row): row for row in fresh.current_rows
        }
        # Replay-then-subscribe == live delta stream: nothing dropped,
        # nothing duplicated.
        assert fresh_rows == crashed_rows
        assert set(folded) <= set(fresh_rows)
        recovered.close()


@pytest.mark.skipif(
    os.environ.get("PYTHONHASHSEED", "random") == "random",
    reason="cross-interpreter byte-identity needs PYTHONHASHSEED pinned "
    "(the CI durability job pins 0)",
)
class TestClusterFaultInjection:
    """SIGKILL a worker subprocess and recover through the supervisor."""

    def _cluster(self, tmp_path, **overrides):
        return ShardedNousService(
            num_shards=2,
            config=_config(),
            service_config=ServiceConfig(max_batch=2),
            shard_mode="process",
            kb_spec="drone",
            data_dir=str(tmp_path / "cluster"),
            restart_backoff=0.05,
            **overrides,
        )

    def _kill(self, cluster, index):
        worker = cluster._manager.workers[index]
        worker.process.kill()  # SIGKILL: no atexit, no flush, no mercy
        worker.process.wait(timeout=10)
        assert index in cluster.dead_shards()

    def test_sigkill_recovers_exact_composite_stamp(self, tmp_path):
        cluster = self._cluster(tmp_path)
        try:
            assert cluster.ingest_facts(FACTS, date="2015-07-01").ok
            cluster.flush()
            pre_queries = {
                text: cluster.query(text).payload
                for text in ("tell me about DJI", "show trending patterns")
            }
            pre_stamp = cluster.shard_versions

            self._kill(cluster, 0)
            recovered = cluster.recover_dead_shards()
            assert recovered == [0]
            assert cluster.dead_shards() == []
            assert cluster.shard_versions == pre_stamp
            for text, payload in pre_queries.items():
                assert cluster.query(text).payload == payload
            # The cluster keeps ingesting normally after recovery.
            assert cluster.ingest_facts(
                [("Parrot", "partnerOf", "GoPro")], date="2015-07-02"
            ).ok
            assert cluster.cluster_info()["shard_restarts"] == [1, 0]
        finally:
            cluster.close()

    def test_operations_self_heal_through_the_gate(self, tmp_path):
        cluster = self._cluster(tmp_path)
        try:
            assert cluster.ingest_facts(FACTS, date="2015-07-01").ok
            pre_stamp = cluster.shard_versions
            self._kill(cluster, 1)
            # No explicit recover call: the next operation's entry gate
            # respawns the dead worker before scattering.
            envelope = cluster.statistics()
            assert envelope.ok
            assert cluster.dead_shards() == []
            assert cluster.shard_versions == pre_stamp
        finally:
            cluster.close()

    def test_restart_budget_bounds_the_loop(self, tmp_path):
        cluster = self._cluster(tmp_path, max_restarts=1)
        try:
            assert cluster.ingest_facts(FACTS, date="2015-07-01").ok
            self._kill(cluster, 0)
            assert cluster.recover_dead_shards() == [0]
            self._kill(cluster, 0)
            with pytest.raises(ClusterError, match="restart budget"):
                cluster.recover_dead_shards()
        finally:
            cluster.close()

    def test_standing_queries_survive_respawn(self, tmp_path):
        cluster = self._cluster(tmp_path)
        try:
            subscription = cluster.subscribe("match (?a)-[acquired]->(?b)")
            assert cluster.ingest_facts(FACTS, date="2015-07-01").ok
            cluster.refresh_subscriptions()
            rows_before = {
                key_of_row(subscription.kind, row): row
                for row in subscription.current_rows
            }
            assert rows_before
            self._kill(cluster, 0)
            assert cluster.recover_dead_shards() == [0]
            # The re-subscribed recovered worker reproduces its rows.
            rows_after = {
                key_of_row(subscription.kind, row): row
                for row in subscription.current_rows
            }
            assert rows_after == rows_before
            cluster.refresh_subscriptions()
            assert {
                key_of_row(subscription.kind, row): row
                for row in subscription.current_rows
            } == rows_before
        finally:
            cluster.close()


class TestDataDirHygiene:
    """No test or benchmark may persist inside the repo tree.

    Every durable fixture in this suite (and in the benchmarks) hands
    ``data_dir`` a ``tmp_path`` / ``tempfile`` location.  A hard-coded
    relative path would drop ``snapshot.json``/``wal.jsonl`` into the
    working copy — invisible locally until it lands in a commit.
    """

    REPO = Path(__file__).resolve().parents[2]

    def test_no_literal_data_dir_in_tests_or_benchmarks(self):
        literal = re.compile(r"""data_dir\s*=\s*['"]""")
        offenders = []
        for tree in ("tests", "benchmarks"):
            for path in sorted((self.REPO / tree).rglob("*.py")):
                for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1
                ):
                    if literal.search(line):
                        offenders.append(
                            f"{path.relative_to(self.REPO)}:{lineno}: "
                            f"{line.strip()}"
                        )
        assert not offenders, (
            "data_dir must come from tmp_path/tempfile, never a string "
            "literal:\n" + "\n".join(offenders)
        )

    def test_no_persistence_files_in_the_repo_tree(self):
        strays = [
            path.relative_to(self.REPO)
            for name in ("wal.jsonl", "snapshot.json")
            for path in self.REPO.rglob(name)
            if ".git" not in path.parts
        ]
        assert not strays, f"stray persistence files in the repo: {strays}"

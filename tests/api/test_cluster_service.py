"""Unit behaviour of the sharded cluster: routing, composite stamps,
the merged-result cache, trending support-summation and standing-query
fan-out."""

from __future__ import annotations

import pytest

from repro import (
    IngestRequest,
    NousConfig,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
)
from repro.api.cluster import DocumentRouter, kind_of_query
from repro.api.http import GatewayConfig, NousGateway
from repro.api.wire import decode_payload
from repro.errors import ConfigError
from repro.kb.knowledge_base import KnowledgeBase
from repro.query.parser import parse_query


def _cluster(num_shards=3, **config_kwargs):
    config_kwargs.setdefault("min_support", 3)
    config = NousConfig(
        window_size=500, lda_iterations=8, seed=5, **config_kwargs
    )
    return ShardedNousService(
        kb_factory=KnowledgeBase,
        num_shards=num_shards,
        config=config,
        service_config=ServiceConfig(auto_start=False),
    )


def _entities_on_shards(router, wanted_spread, prefix="E"):
    """Deterministically find entity names homed on the wanted shards."""
    out = []
    i = 0
    for shard in wanted_spread:
        while True:
            name = f"{prefix}{i}"
            i += 1
            if router.shard_for_entity(name) == shard:
                out.append(name)
                break
    return out


class TestDocumentRouter:
    @pytest.fixture(scope="class")
    def router(self):
        return DocumentRouter(build_drone_kb(), num_shards=4)

    def test_dominant_entity_by_frequency(self, router):
        text = "DJI acquired GoPro. DJI launched the Phantom 3 in Shenzhen."
        assert router.dominant_entity(text) == "DJI"

    def test_multiword_alias_is_one_mention(self, router):
        # "Drone Industry" must match as one two-word mention, not as a
        # stray "drone" token.
        text = "The drone industry is growing."
        assert router.dominant_entity(text) == "Drone_Industry"

    def test_tie_breaks_lexicographically(self, router):
        assert router.dominant_entity("GoPro met DJI.") == "DJI"
        # Determinism regardless of mention order in the text.
        assert router.dominant_entity("DJI met GoPro.") == "DJI"

    def test_unknown_text_falls_back_to_doc_id_hash(self, router):
        assert router.dominant_entity("nothing known here") is None
        shard_a, entity = router.shard_for_document(
            "nothing known here", doc_id="doc-1"
        )
        assert entity is None
        assert shard_a == router.shard_for_document(
            "other unknown words", doc_id="doc-1"
        )[0]
        assert 0 <= shard_a < 4

    def test_routing_is_deterministic_and_content_addressed(self, router):
        text = "GoPro shipped the Karma Drone."
        first = router.shard_for_document(text)
        assert first == router.shard_for_document(text)
        assert first[1] == "GoPro"


class TestCompositeVersionStamp:
    def test_tuple_moves_only_on_touched_shard(self):
        with _cluster(num_shards=3) as cluster:
            subject_a, subject_b = _entities_on_shards(
                cluster.router, [0, 2]
            )
            before = cluster.shard_versions
            assert len(before) == 3
            cluster.ingest_facts([(subject_a, "rel", "X")]).raise_for_error()
            after = cluster.shard_versions
            assert after[0] > before[0]
            assert after[1] == before[1]
            assert after[2] == before[2]
            cluster.ingest_facts([(subject_b, "rel", "Y")]).raise_for_error()
            assert cluster.shard_versions[2] > after[2]

    def test_scalar_stamp_is_monotonic_sum(self):
        with _cluster(num_shards=2) as cluster:
            seen = [cluster.kg_version]
            for i in range(4):
                cluster.ingest_facts([(f"S{i}", "rel", f"O{i}")])
                seen.append(cluster.kg_version)
                assert cluster.kg_version == sum(cluster.shard_versions)
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen)

    def test_ticket_envelopes_carry_composite_stamp(self):
        with _cluster(num_shards=3) as cluster:
            ticket = cluster.submit(
                IngestRequest(text="Nothing known.", doc_id="d1")
            )
            cluster.flush()
            assert ticket.done()
            envelope = ticket.result(timeout=0)
            assert envelope.ok
            assert envelope.kg_version == cluster.kg_version

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            ShardedNousService(kb_factory=KnowledgeBase, num_shards=0)


class TestMergedResultCache:
    def test_hit_and_composite_invalidation(self):
        with _cluster(num_shards=2) as cluster:
            cluster.ingest_facts([("S0", "rel", "O0")])
            # First evaluation mints 'S0' on the shard that never saw it
            # (version moves mid-scatter), so caching starts one round
            # later, once the composite stamp is stable across a scatter.
            first = cluster.query("tell me about S0")
            assert first.ok and not first.cached
            warm = cluster.query("tell me about S0")
            assert warm.ok
            hit = cluster.query("tell me about S0")
            assert hit.cached
            assert hit.rendered == warm.rendered
            assert hit.payload == warm.payload
            assert cluster.cache_hits >= 1
            # any shard movement invalidates via the composite key
            cluster.ingest_facts([("S0", "rel", "O1")])
            after = cluster.query("tell me about S0")
            assert not after.cached
            assert after.kg_version > hit.kg_version

    def test_cached_payload_is_isolated(self):
        with _cluster(num_shards=2) as cluster:
            cluster.ingest_facts([("S0", "rel", "O0")])
            cluster.query("tell me about S0")  # mints on the empty shard
            stored = cluster.query("tell me about S0")
            stored.payload["facts"].clear()  # vandalise the caller copy
            hit = cluster.query("tell me about S0")
            assert hit.cached
            assert hit.payload["facts"]

    def test_trending_never_cached(self):
        with _cluster(num_shards=2) as cluster:
            cluster.ingest_facts([("S0", "rel", "O0")])
            assert not cluster.query("show trending patterns").cached
            assert not cluster.query("show trending patterns").cached
            assert cluster.cache_hits == 0


class TestTrendingSupportSummation:
    def test_pattern_frequent_only_after_merge(self):
        """A pattern below min_support on every shard must still be
        reported when the summed supports cross the threshold — the
        reason shards expose full support tables, not closed views."""
        with _cluster(num_shards=2, min_support=3) as cluster:
            subjects = _entities_on_shards(cluster.router, [0, 0, 1])
            facts = [
                (subjects[0], "relZ", "B0"),
                (subjects[1], "relZ", "B1"),
                (subjects[2], "relZ", "B2"),
            ]
            cluster.ingest_facts(facts).raise_for_error()
            # no shard reaches min_support on its own
            for shard in cluster.shards:
                assert shard.stream_view().supports
                assert not shard.nous.dynamic.miner.frequent_patterns()
            report = decode_payload(
                "trending", cluster.query("show trending patterns").payload
            )
            merged = {
                p.describe(): s for p, s in report.closed_frequent
            }
            assert merged == {"(?0:Thing)-[relZ]->(?1:Thing)": 3}
            assert report.newly_frequent  # router-level transition state

    def test_transitions_tracked_at_router(self):
        with _cluster(num_shards=2, min_support=2) as cluster:
            cluster.ingest_facts([("S0", "relQ", "O0"), ("S1", "relQ", "O1")])
            first = decode_payload(
                "trending", cluster.query("show trending patterns").payload
            )
            assert [p.describe() for p in first.newly_frequent] == [
                "(?0:Thing)-[relQ]->(?1:Thing)"
            ]
            second = decode_payload(
                "trending", cluster.query("show trending patterns").payload
            )
            assert second.newly_frequent == []  # consumed at the router


class TestClusterStandingQueries:
    def test_fanout_merges_shard_deltas(self):
        # The watched entity lives in the *curated* base: curated
        # content is replicated, so the mention resolves identically on
        # every shard (mention resolution is per shard — an entity known
        # only through one shard's extracted facts would resolve only
        # there; see docs/SHARDING.md).
        def factory():
            kb = KnowledgeBase()
            kb.add_entity("Watched")
            return kb

        cluster = ShardedNousService(
            kb_factory=factory,
            num_shards=3,
            config=NousConfig(window_size=500, min_support=3, seed=5),
            service_config=ServiceConfig(auto_start=False),
        )
        with cluster:
            targets = _entities_on_shards(cluster.router, [0, 1, 2])
            subscription = cluster.subscribe("what's new about Watched")
            assert cluster.subscription_count == 1
            for shard in cluster.shards:
                assert shard.subscription_count == 1
            # facts about 'Watched' land on three different shards
            # (routed by subject), every shard contributes deltas
            cluster.ingest_facts(
                [(t, "touches", "Watched") for t in targets]
            ).raise_for_error()
            updates = subscription.poll()
            assert updates
            added = [row for u in updates for row in u.added]
            assert {row["subject"] for row in added} == set(targets)
            assert not any(u.removed for u in updates)
            # merged state equals a fresh subscription's baseline
            fresh = cluster.subscribe("what's new about Watched")
            key = lambda rows: sorted(
                (r["subject"], r["object"]) for r in rows
            )
            assert key(subscription.current_rows) == key(fresh.current_rows)
            versions = [u.kg_version for u in updates]
            assert versions == sorted(versions)

    def test_trending_subscription_sums_supports(self):
        with _cluster(num_shards=2, min_support=2) as cluster:
            subjects = _entities_on_shards(cluster.router, [0, 0, 1, 1])
            subscription = cluster.subscribe("show trending patterns")
            cluster.ingest_facts(
                [(s, "relT", f"B{i}") for i, s in enumerate(subjects)]
            ).raise_for_error()
            updates = subscription.poll()
            assert updates
            final = {
                row["pattern"]: row["support"]
                for u in updates
                for row in u.added
            }
            # 2 embeddings per shard, both shards frequent: summed 4
            assert final["(?0:Thing)-[relT]->(?1:Thing)"] == 4

    def test_trending_subscription_matches_interactive_merge(self):
        """A pattern sub-threshold on every shard but frequent in the
        union must reach standing subscribers too — the shard-side
        change signal covers the full support table, and merged rows
        are recomputed exactly like the interactive query."""
        with _cluster(num_shards=2, min_support=3) as cluster:
            subjects = _entities_on_shards(cluster.router, [0, 0, 1])
            subscription = cluster.subscribe("show trending patterns")
            cluster.ingest_facts(
                [(s, "relM", f"B{i}") for i, s in enumerate(subjects)]
            ).raise_for_error()
            added = {
                row["pattern"]: row["support"]
                for u in subscription.poll()
                for row in u.added
            }
            assert added.get("(?0:Thing)-[relM]->(?1:Thing)") == 3
            # and the subscription's merged state equals the interactive
            # merged answer
            report = decode_payload(
                "trending", cluster.query("show trending patterns").payload
            )
            interactive = {
                p.describe(): s for p, s in report.closed_frequent
            }
            standing = {
                row["pattern"]: row["support"]
                for row in subscription.current_rows
            }
            assert standing == interactive

    def test_entity_subscription_dedupes_cross_shard_fact(self):
        """The same fact extracted on two shards with different
        confidences is one row (best confidence), exactly like the
        interactive entity merge."""
        def factory():
            kb = KnowledgeBase()
            kb.add_entity("Dup")
            return kb

        cluster = ShardedNousService(
            kb_factory=factory,
            num_shards=2,
            config=NousConfig(window_size=500, min_support=3, seed=5),
            service_config=ServiceConfig(auto_start=False),
        )
        with cluster:
            subscription = cluster.subscribe("tell me about Dup")
            # Drive the shards directly: routing would co-locate a
            # structured fact by subject, but NLP extraction can land
            # the same fact on two shards (different dominant entities)
            # with confidences drifted apart by per-shard trust.
            cluster.shards[0].ingest_facts(
                [("Dup", "rel", "O")], confidence=0.8
            ).raise_for_error()
            cluster.shards[1].ingest_facts(
                [("Dup", "rel", "O")], confidence=0.9
            ).raise_for_error()
            rows = [
                r
                for r in subscription.current_rows
                if (r["subject"], r["predicate"], r["object"])
                == ("Dup", "rel", "O")
            ]
            assert len(rows) == 1
            assert rows[0]["confidence"] == pytest.approx(0.9)
            # interactive merge agrees
            summary = decode_payload(
                "entity", cluster.query("tell me about Dup").payload
            )
            matching = [
                f for f in summary.facts if (f[0], f[1], f[2]) == ("Dup", "rel", "O")
            ]
            assert len(matching) == 1
            assert matching[0][3] == pytest.approx(0.9)

    def test_unsubscribe_detaches_every_shard(self):
        with _cluster(num_shards=3) as cluster:
            subscription = cluster.subscribe("what's new about X")
            cluster.unsubscribe(subscription)
            assert not subscription.active
            assert cluster.subscription_count == 0
            for shard in cluster.shards:
                assert shard.subscription_count == 0

    def test_refresh_returns_merged_updates(self):
        def factory():
            kb = KnowledgeBase()
            kb.add_entity("S0")
            return kb

        cluster = ShardedNousService(
            kb_factory=factory,
            num_shards=2,
            config=NousConfig(window_size=500, min_support=3, seed=5),
            service_config=ServiceConfig(auto_start=False),
        )
        with cluster:
            subscription = cluster.subscribe("what's new about S0")
            updates = cluster.refresh_subscriptions()
            assert updates == []  # nothing moved since subscribing
            cluster.ingest_facts([("S0", "rel", "O1")])
            polled = subscription.poll()
            assert any(
                u.subscription_id == subscription.id for u in polled
            )
            assert any(
                row["object"] == "O1" for u in polled for row in u.added
            )


class TestClusterErrorEnvelopes:
    def test_parse_error_taxonomy(self):
        with _cluster(num_shards=2) as cluster:
            response = cluster.query("??? not a query ???")
            assert not response.ok
            assert response.error.code == "query.parse"

    def test_failure_code_matches_monolith_when_all_shards_fail(self):
        from repro import NousService

        mono = NousService(
            kb=KnowledgeBase(),
            config=NousConfig(window_size=500, seed=5),
            service_config=ServiceConfig(auto_start=False),
        )
        with mono, _cluster(num_shards=2) as cluster:
            mono.ingest_facts([("S0", "rel", "O0")])
            cluster.ingest_facts([("S0", "rel", "O0")])
            expected = mono.query("how is S0 related to Nowhere99")
            response = cluster.query("how is S0 related to Nowhere99")
            assert not expected.ok and not response.ok
            assert response.error.code == expected.error.code

    def test_bad_date_rejected_at_submit(self):
        with _cluster(num_shards=2) as cluster:
            with pytest.raises(ConfigError):
                cluster.submit(
                    IngestRequest(text="DJI news.", date="not-a-date")
                )


class TestGatewayDropIn:
    def test_gateway_serves_sharded_service(self):
        kb_factory = build_drone_kb
        cluster = ShardedNousService(
            kb_factory=kb_factory,
            num_shards=3,
            config=NousConfig(window_size=200, lda_iterations=8, seed=5),
            service_config=ServiceConfig(auto_start=True),
        )
        try:
            with NousGateway(cluster, GatewayConfig(port=0)) as gateway:
                from repro.api.http import ClientSession

                with ClientSession(gateway.url) as session:
                    health = session.healthz()
                    assert health["ok"]
                    assert health["kg_version"] == cluster.kg_version
                    ingest = session.ingest(
                        IngestRequest(
                            text="DJI acquired GoPro. DJI expanded.",
                            doc_id="g1",
                        ),
                        wait=True,
                    )
                    assert ingest.ok
                    assert ingest.kind == "ingest"
                    remote = session.query("tell me about DJI")
                    local = cluster.query("tell me about DJI")
                    assert remote.ok
                    assert remote.rendered == local.rendered
                    stats = session.statistics()
                    assert stats.ok
                    assert stats.payload["cluster"]["shards"] == 3
                    assert "cut_edges" in stats.payload["cluster"]["partition"]
        finally:
            cluster.close()


class TestPartitionAccounting:
    def test_partition_stats_counts_and_cut(self):
        with _cluster(num_shards=2) as cluster:
            cross, local = _entities_on_shards(
                cluster.router, [0, 1], prefix="P"
            )
            # local fact: both endpoints homed on shard 1; cross fact:
            # subject homed 0, object homed 1.
            cluster.ingest_facts(
                [(local, "rel", local + "x"), (cross, "rel", local)]
            )
            # object homes may vary; recompute expectations from router
            stats = cluster.partition_stats()
            assert sum(stats.edge_counts) == 2
            expected_cut = sum(
                1
                for s, o in [(local, local + "x"), (cross, local)]
                if cluster.router.shard_for_entity(s)
                != cluster.router.shard_for_entity(o)
            )
            assert stats.cut_edges == expected_cut
            assert stats.to_dict()["cut_fraction"] == pytest.approx(
                expected_cut / 2
            )

    def test_kind_of_query_matches_engine(self):
        for text, kind in [
            ("show trending patterns", "trending"),
            ("tell me about DJI", "entity"),
            ("what's new about DJI", "entity-trend"),
            ("how is DJI related to GoPro", "relationship"),
            ("why does Windermere use drones", "explanatory"),
            ("match (?a)-[rel]->(?b)", "pattern"),
        ]:
            assert kind_of_query(parse_query(text)) == kind

"""Standing (continuous) queries: delta feeds over the dynamic KG.

The satellite's regression: a subscription over a trending / windowed
query must report rows that disappear *solely* because their supporting
window edges were evicted — the facts stay persisted in the KB, only
the sliding-window view moved on.
"""

import pytest

from repro.api import NousService, ServiceConfig
from repro.core.pipeline import NousConfig
from repro.data.corpus import CorpusConfig, generate_corpus
from repro.errors import ReproError
from repro.kb.drone_kb import build_drone_kb


def _service(window_size=6, min_support=2, max_batch=32):
    return NousService(
        kb=build_drone_kb(),
        config=NousConfig(
            window_size=window_size, min_support=min_support,
            lda_iterations=5, retrain_every=0,
        ),
        service_config=ServiceConfig(auto_start=False, max_batch=max_batch),
    )


# Both endpoint pairs are Company-typed, so the two facts support the
# same (?0:Company)-[acquired]->(?1:Company) pattern.
ACQUISITIONS = [
    ("DJI", "acquired", "GoPro"),
    ("Amazon", "acquired", "Parrot_SA"),
]
# Six distinct partner pairs: enough to flood a size-6 window without
# ever re-supporting the acquired pattern.
FILLER = [
    ("Intel", "partnerOf", "PrecisionHawk"),
    ("GoPro", "partnerOf", "Parrot_SA"),
    ("Amazon", "partnerOf", "Intel"),
    ("DJI", "partnerOf", "PrecisionHawk"),
    ("Parrot_SA", "partnerOf", "Intel"),
    ("GoPro", "partnerOf", "Amazon"),
]


class TestSubscriptionLifecycle:
    def test_subscribe_establishes_baseline_without_notifying(self):
        service = _service()
        service.ingest_facts(ACQUISITIONS, source="feed")
        subscription = service.subscribe("show trending patterns")
        assert subscription.active
        assert subscription.poll() == []  # baseline, not a delta
        rows = subscription.current_rows
        assert any("acquired" in r["pattern"] for r in rows)

    def test_unparseable_standing_query_rejected(self):
        service = _service()
        with pytest.raises(ReproError):
            service.subscribe("gibberish blargh")

    def test_unchanged_kg_produces_no_updates(self):
        service = _service()
        service.ingest_facts(ACQUISITIONS, source="feed")
        subscription = service.subscribe("show trending patterns")
        assert service.refresh_subscriptions() == []
        assert subscription.poll() == []

    def test_unsubscribe_stops_updates(self):
        service = _service()
        subscription = service.subscribe("show trending patterns")
        service.unsubscribe(subscription)
        assert not subscription.active
        service.ingest_facts(ACQUISITIONS, source="feed")
        assert subscription.poll() == []


class TestAddedDeltas:
    def test_pattern_subscription_reports_new_bindings(self):
        service = _service(window_size=50)
        subscription = service.subscribe(
            "match (?a:Company)-[acquired]->(?b:Company)"
        )
        service.ingest_facts([("DJI", "acquired", "GoPro")], source="feed")
        updates = subscription.poll()
        assert len(updates) == 1
        added = updates[0].added
        assert {"a": "DJI", "b": "GoPro"} in [dict(r) for r in added]
        assert updates[0].removed == ()
        assert updates[0].kg_version == service.nous.dynamic.version

    def test_trending_subscription_reports_newly_frequent(self):
        service = _service(window_size=50)
        subscription = service.subscribe("show trending patterns")
        assert subscription.current_rows == []
        service.ingest_facts(ACQUISITIONS, source="feed")
        updates = subscription.poll()
        assert updates, "newly frequent pattern not reported"
        assert any(
            "acquired" in row["pattern"]
            for update in updates for row in update.added
        )

    def test_broken_callback_is_isolated(self):
        # A throwing subscriber must not poison the ingestion path: the
        # error is recorded, other subscribers still get their updates.
        service = _service(window_size=50)

        def explode(update):
            raise RuntimeError("subscriber bug")

        broken = service.subscribe("show trending patterns", callback=explode)
        healthy_seen = []
        service.subscribe(
            "match (?a:Company)-[acquired]->(?b:Company)",
            callback=healthy_seen.append,
        )
        response = service.ingest_facts(ACQUISITIONS, source="feed")
        assert response.ok, "subscriber failure leaked into ingest result"
        assert service.subscription_errors == 1
        assert isinstance(broken.last_error, RuntimeError)
        assert healthy_seen, "healthy subscriber starved by broken one"
        # The broken subscription still accumulated its update.
        assert broken.poll()

    def test_broken_callback_does_not_kill_the_drainer(self):
        service = NousService(
            kb=build_drone_kb(),
            config=NousConfig(
                window_size=50, min_support=2, lda_iterations=5,
                retrain_every=0,
            ),
            service_config=ServiceConfig(max_batch=4),
        )
        try:
            def explode(update):
                raise RuntimeError("subscriber bug")

            service.subscribe("show trending patterns", callback=explode)
            kb = service.nous.kb
            articles = generate_corpus(kb, CorpusConfig(n_articles=8, seed=3))
            service.submit_many(articles[:4])
            service.flush(timeout=30.0)
            # The drainer survived the first failing refresh and keeps
            # draining subsequent submissions.
            tickets = service.submit_many(articles[4:])
            service.flush(timeout=30.0)
            assert all(t.done() for t in tickets)
            assert service.documents_drained == 8
        finally:
            service.close()

    def test_callback_receives_updates(self):
        service = _service(window_size=50)
        seen = []
        service.subscribe(
            "match (?a:Company)-[acquired]->(?b:Company)", callback=seen.append
        )
        service.ingest_facts([("DJI", "acquired", "GoPro")], source="feed")
        assert len(seen) == 1
        assert seen[0].added

    def test_queue_drain_triggers_notifications(self):
        # Deltas must flow from the *document* path too, not only from
        # structured facts: drains refresh subscriptions.
        service = _service(window_size=50)
        kb = service.nous.kb
        articles = generate_corpus(kb, CorpusConfig(n_articles=10, seed=3))
        subscription = service.subscribe("show trending patterns")
        service.submit_many(articles)
        service.flush()
        updates = subscription.poll()
        assert updates, "drain did not refresh the standing query"
        assert all(u.kg_version > 0 for u in updates)


class TestEvictionDeltas:
    """Rows disappearing solely because window edges were evicted."""

    def test_trending_rows_removed_on_window_eviction(self):
        service = _service(window_size=6, min_support=2)
        service.ingest_facts(ACQUISITIONS, source="feed")
        subscription = service.subscribe("show trending patterns")
        assert any(
            "acquired" in r["pattern"] for r in subscription.current_rows
        )
        facts_before = service.nous.kb.num_facts

        # Six unrelated facts flood the size-6 window: the two acquired
        # edges are evicted; nothing is removed from the KB itself.
        service.ingest_facts(FILLER, source="feed")

        assert service.nous.kb.num_facts == facts_before + len(FILLER)
        store = service.nous.kb.store
        assert all(store.get(*fact) is not None for fact in ACQUISITIONS), (
            "eviction must not remove persisted facts"
        )
        updates = subscription.poll()
        removed = [
            dict(row) for update in updates for row in update.removed
        ]
        assert any("acquired" in row["pattern"] for row in removed), (
            "evicted support did not surface as a removed standing-query row"
        )
        assert not any(
            "acquired" in r["pattern"] for r in subscription.current_rows
        )

    def test_entity_trend_rows_removed_on_window_eviction(self):
        service = _service(window_size=6)
        service.ingest_facts(
            [("DJI", "acquired", "GoPro")], date="2016-01-02", source="feed"
        )
        subscription = service.subscribe("what's new about DJI")
        baseline = subscription.current_rows
        assert any(r["predicate"] == "acquired" for r in baseline)

        service.ingest_facts(FILLER[:3], source="feed")
        service.ingest_facts(
            [("Intel", "partnerOf", "GoPro"),
             ("Amazon", "partnerOf", "PrecisionHawk"),
             ("Parrot_SA", "partnerOf", "Amazon")],
            source="feed",
        )

        updates = subscription.poll()
        removed = [
            dict(row) for update in updates for row in update.removed
        ]
        assert any(r["predicate"] == "acquired" for r in removed)
        # The fact survives in the KB; only the window view moved on.
        assert service.nous.kb.store.get("DJI", "acquired", "GoPro") is not None

    def test_trending_support_change_is_an_upsert(self):
        service = _service(window_size=50, min_support=2)
        service.ingest_facts(ACQUISITIONS, source="feed")
        subscription = service.subscribe("show trending patterns")
        # A third acquisition raises support 2 -> 3 on the same pattern:
        # the row re-appears in `added` with the new support, and is not
        # reported as removed (its identity is the pattern).
        service.ingest_facts(
            [("Intel", "acquired", "PrecisionHawk")], source="feed"
        )
        updates = subscription.poll()
        assert updates
        added = [dict(r) for u in updates for r in u.added]
        removed = [dict(r) for u in updates for r in u.removed]
        upserts = [r for r in added if "acquired" in r["pattern"]]
        assert upserts and all(r["support"] == 3 for r in upserts)
        assert not any("acquired" in r.get("pattern", "") for r in removed)

    def test_standing_trending_does_not_steal_report_transitions(self):
        # The interactive trending report's newly_frequent deltas are
        # consumed on read; a standing query must evaluate from the pure
        # closed-frequent view and leave them alone.
        service = _service(window_size=50, min_support=2)
        service.subscribe("show trending patterns")
        service.ingest_facts(ACQUISITIONS, source="feed")
        report = service.nous.trending()
        assert report.newly_frequent, (
            "standing-query refresh consumed the report's transition state"
        )

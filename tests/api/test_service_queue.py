"""NousService: the async ingestion queue and envelope discipline.

The queue contract: ``submit`` returns a ticket immediately; a drainer
group-commits pending documents into ``Nous.ingest_batch`` in batches of
at most ``max_batch`` (it takes what is pending the moment it is free —
no fill delay; tests/api/test_serving_loop.py pins that); ``flush``
leaves the queue empty; results are identical to calling
``ingest_batch`` directly.
"""

import threading

import pytest

from repro.api import IngestRequest, NousService, ServiceConfig
from repro.core.pipeline import Nous, NousConfig
from repro.data.corpus import CorpusConfig, generate_corpus
from repro.errors import ConfigError, ReproError
from repro.kb.drone_kb import build_drone_kb

PIPELINE_CONFIG = dict(
    window_size=100, min_support=2, lda_iterations=5, retrain_every=0
)


def _corpus(n=12, seed=3):
    kb = build_drone_kb()
    articles = generate_corpus(kb, CorpusConfig(n_articles=n, seed=seed))
    return kb, articles


class TestSyncQueue:
    """auto_start=False: deterministic, single-threaded drains."""

    def test_submit_then_flush_fulfills_tickets_in_order(self):
        kb, articles = _corpus()
        service = NousService(
            kb=kb, config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(auto_start=False, max_batch=5),
        )
        tickets = service.submit_many(articles)
        assert service.pending_count == len(articles)
        assert not any(t.done() for t in tickets)
        service.flush()
        assert service.pending_count == 0
        assert all(t.done() for t in tickets)
        for article, ticket in zip(articles, tickets):
            response = ticket.result(timeout=0)
            assert response.ok and response.kind == "ingest"
            assert response.payload["doc_id"] == article.doc_id
        # 12 documents in batches of <= 5 -> 3 drains.
        assert service.batches_drained == 3
        assert service.documents_drained == len(articles)

    def test_queue_results_match_direct_ingest_batch(self):
        kb_a, articles_a = _corpus()
        direct = Nous(kb=kb_a, config=NousConfig(**PIPELINE_CONFIG))
        direct_results = direct.ingest_batch(articles_a)

        kb_b, articles_b = _corpus()
        service = NousService(
            kb=kb_b, config=NousConfig(**PIPELINE_CONFIG),
            # One drain covers the whole corpus -> bit-identical path.
            service_config=ServiceConfig(
                auto_start=False, max_batch=len(articles_b)
            ),
        )
        tickets = service.submit_many(articles_b)
        service.flush()
        assert service.nous.kb.num_facts == direct.kb.num_facts
        assert (
            service.nous.dynamic.window.window_size
            == direct.dynamic.window.window_size
        )
        for ticket, direct_result in zip(tickets, direct_results):
            payload = ticket.result(timeout=0).payload
            assert payload["accepted"] == direct_result.accepted
            assert payload["raw_triples"] == direct_result.raw_triples

    @pytest.mark.parametrize("auto_start", [False, True])
    def test_retrain_amortised_across_micro_batches(self, auto_start):
        # A busy period of several micro-batches must retrain once, when
        # the queue goes idle — not once per drain (that fixed cost is
        # what the 1.3x queue-overhead gate polices).  submit_many is
        # atomic, so the background drainer carves the same four full
        # batches the inline flush does.
        kb, articles = _corpus(n=12)
        config = dict(PIPELINE_CONFIG)
        config["retrain_every"] = 1  # due after every accepted fact
        service = NousService(
            kb=kb, config=NousConfig(**config),
            service_config=ServiceConfig(auto_start=auto_start, max_batch=3),
        )
        retrains = []
        original = service.nous.estimator.retrain

        def recording(store):
            retrains.append(service.nous.documents_ingested)
            return original(store)

        service.nous.estimator.retrain = recording
        try:
            service.submit_many(articles)
            service.flush(timeout=30.0)
            assert service.batches_drained == 4
            # One retrain, at end-of-period (all 12 documents ingested).
            assert retrains == [len(articles)]
        finally:
            service.close()

    def test_ingest_is_submit_plus_flush(self):
        kb, articles = _corpus(n=3)
        service = NousService(
            kb=kb, config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(auto_start=False),
        )
        response = service.ingest(articles[0])
        assert response.ok and response.kind == "ingest"
        assert response.payload["doc_id"] == articles[0].doc_id
        assert service.nous.documents_ingested == 1

    def test_string_dates_parse_through_the_envelope(self):
        kb, _ = _corpus(n=1)
        service = NousService(
            kb=kb, config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(auto_start=False),
        )
        response = service.ingest(IngestRequest(
            text="DJI partnered with GoPro in June 2015.",
            doc_id="wire-1", date="2015-06-10", source="wsj",
        ))
        assert response.ok
        assert response.payload["accepted"] >= 1
        # Stream time derives from the parsed envelope date; had the
        # string been dropped, the timestamp would be the +1 fallback.
        from repro.nlp.dates import SimpleDate
        assert service.nous._last_timestamp == float(
            SimpleDate(2015, 6, 10).ordinal()
        )


class TestAsyncQueue:
    """auto_start=True: background drainer micro-batches under load."""

    def _service(self, **overrides):
        kb, articles = _corpus()
        defaults = dict(max_batch=4)
        defaults.update(overrides)
        service = NousService(
            kb=kb, config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(**defaults),
        )
        return service, articles

    def test_single_document_drains_on_its_own(self):
        service, articles = self._service()
        try:
            ticket = service.submit(articles[0])
            response = ticket.result(timeout=10.0)
            assert response.ok
            assert service.batches_drained == 1
        finally:
            service.close()

    def test_full_batch_drains(self):
        service, articles = self._service(max_batch=4)
        try:
            tickets = service.submit_many(articles[:4])
            for ticket in tickets:
                assert ticket.result(timeout=10.0).ok
            assert service.batches_drained >= 1
        finally:
            service.close()

    def test_concurrent_submitters_share_batches(self):
        service, articles = self._service(max_batch=6)
        sizes = []
        original = service.nous.ingest_batch

        def recording(batch, **kwargs):
            sizes.append(len(batch))
            return original(batch, **kwargs)

        service.nous.ingest_batch = recording
        try:
            barrier = threading.Barrier(4)
            tickets = []
            lock = threading.Lock()

            def submitter(chunk):
                barrier.wait()
                for article in chunk:
                    ticket = service.submit(article)
                    with lock:
                        tickets.append(ticket)

            threads = [
                threading.Thread(target=submitter, args=(articles[i::4],))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            service.flush(timeout=30.0)
            assert len(tickets) == len(articles)
            assert all(t.done() for t in tickets)
            # Micro-batching really happened: fewer drains than docs,
            # and no drain exceeded max_batch.
            assert len(sizes) < len(articles)
            assert all(1 <= s <= 6 for s in sizes)
            assert sum(sizes) == len(articles)
        finally:
            service.close()

    def test_queries_are_consistent_during_ingestion(self):
        service, articles = self._service(max_batch=3)
        try:
            service.submit_many(articles)
            # Interleaved queries must never error or see torn state.
            for _ in range(5):
                response = service.query("tell me about DJI")
                assert response.ok
            service.flush(timeout=30.0)
            final = service.query("tell me about DJI")
            assert final.ok and final.kg_version == service.nous.dynamic.version
        finally:
            service.close()

    def test_close_drains_outstanding_work(self):
        service, articles = self._service(max_batch=4)
        tickets = service.submit_many(articles[:2])
        service.close()
        assert all(t.done() for t in tickets)
        with pytest.raises(ReproError):
            service.submit(articles[2])


class TestEnvelopeDiscipline:
    @pytest.fixture(scope="class")
    def service(self):
        kb, articles = _corpus()
        service = NousService(
            kb=kb, config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(auto_start=False),
        )
        service.submit_many(articles)
        service.flush()
        return service

    def test_query_success_envelope(self, service):
        response = service.query("tell me about DJI")
        assert response.ok and response.error is None
        assert response.kind == "entity"
        assert response.payload["entity"] == "DJI"
        assert response.kg_version == service.nous.dynamic.version
        assert "DJI" in response.rendered

    def test_multiword_why_query_leaves_kg_version_alone(self, service):
        """Regression: the why-template split "Frank Wang" at its first
        space and the linker minted the fragments — a read moved the
        stamp (and with it every version-keyed cache)."""
        before = service.kg_version
        response = service.query("why does Frank Wang use drones")
        assert response.ok and response.kind == "explanatory"
        assert response.kg_version == before == service.kg_version

    def test_query_cache_flag_propagates(self, service):
        service.engine.clear_cache()
        assert not service.query("tell me about GoPro").cached
        assert service.query("tell me about GoPro").cached

    def test_parse_error_envelope(self, service):
        response = service.query("gibberish blargh")
        assert not response.ok and response.payload is None
        assert response.error.code == "query.parse"
        assert response.error.exception == "QueryParseError"

    def test_qa_error_envelope(self, service):
        # Path search between unknown mentions raises QAError inside the
        # engine; the service must envelope it, not raise.
        response = service.query(
            "how is Zorblatt Prime related to Xylophone Corp"
        )
        assert not response.ok
        assert response.error.code == "qa"
        assert response.error.exception == "QAError"

    def test_dispatch_time_parse_error_envelope(self, service):
        # Malformed pattern text parses as a PatternQuery but fails
        # inside dispatch — still an envelope, never an exception.
        response = service.query("match (?a")
        assert not response.ok
        assert response.error.code == "query.parse"

    def test_statistics_envelope(self, service):
        response = service.statistics()
        assert response.ok and response.kind == "statistics"
        assert response.payload["num_facts"] == service.nous.kb.num_facts
        assert "Knowledge Graph statistics" in response.rendered

    def test_structured_facts_envelope(self, service):
        before = service.nous.kb.num_facts
        response = service.ingest_facts(
            [("DJI", "partnerOf", "Parrot")], date="2016-01-02", source="feed"
        )
        assert response.ok and response.kind == "ingest"
        assert response.payload["accepted"] == 1
        assert service.nous.kb.num_facts == before + 1

    def test_bad_service_config_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(max_batch=0).validate()
        with pytest.raises(ConfigError):
            ServiceConfig(snapshot_every=-1).validate()

    def test_unparseable_date_rejected_at_submission(self, service):
        # A date string that fails to parse must fail the request loudly
        # instead of silently ingesting a dateless (mis-ordered) fact.
        with pytest.raises(ConfigError, match="unparseable date"):
            service.submit(IngestRequest(text="x", date="Juen 2015"))
        with pytest.raises(ConfigError, match="unparseable date"):
            service.submit_many(
                [IngestRequest(text="x", date="2015-13-40")]
            )
        bad_facts = service.ingest_facts(
            [("DJI", "partnerOf", "GoPro")], date="1888"
        )
        assert not bad_facts.ok
        assert bad_facts.error.code == "config"

    def test_timed_out_flush_raises_and_service_still_drains(self):
        kb, articles = _corpus(n=2)
        service = NousService(
            kb=kb, config=NousConfig(**PIPELINE_CONFIG),
            service_config=ServiceConfig(max_batch=4),
        )
        # Hold the drain so the document is still in flight when the
        # zero-timeout flush gives up.
        release = threading.Event()
        original = service.nous.ingest_batch

        def held(batch, **kwargs):
            release.wait(timeout=30.0)
            return original(batch, **kwargs)

        service.nous.ingest_batch = held
        try:
            ticket = service.submit(articles[0])
            with pytest.raises(ReproError, match="flush timed out"):
                service.flush(timeout=0.0)
            release.set()
            service.flush(timeout=30.0)
            assert ticket.done() and ticket.result(timeout=0).ok
        finally:
            release.set()
            service.close()

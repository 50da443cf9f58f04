"""Nous facade: ingestion, dynamic KG coupling, queries, statistics."""

import pytest

from repro import Nous, NousConfig, build_drone_kb, compute_statistics
from repro.core.dynamic_kg import DynamicKnowledgeGraph
from repro.errors import ConfigError
from repro.graph.temporal import CountWindow, TimeWindow
from repro.linking.mapper import MappedTriple
from repro.nlp.dates import parse_date
from repro.nlp.pipeline import RawTriple


def make_mapped(s, p, o, source="wsj", date=None):
    return MappedTriple(
        subject=s, predicate=p, object=o, object_is_literal=False,
        extraction_confidence=0.8, link_confidence=0.9,
        mapping_confidence=1.0, date=date, doc_id="d", source=source,
        raw=RawTriple(subject=s, relation=p, object=o),
    )


@pytest.fixture(scope="module")
def fast_config():
    return NousConfig(
        window_size=100, min_support=2, lda_iterations=15, retrain_every=0
    )


@pytest.fixture(scope="module")
def built_nous(fast_config):
    """One Nous instance with a few documents ingested (module-scoped —
    read-only tests share it)."""
    nous = Nous(config=fast_config)
    docs = [
        ("Amazon acquired Kiva Systems for $775 million in 2012.", "2012-03-19"),
        ("DJI raised $75 million from Accel Partners in May 2015.", "2015-05-06"),
        ("Windermere uses drones to capture aerial photos.", "2015-06-01"),
        ("GoPro partnered with DJI in June 2015.", "2015-06-10"),
        ("Intel partnered with PrecisionHawk in July 2015.", "2015-07-02"),
    ]
    for i, (text, date) in enumerate(docs):
        nous.ingest(text, doc_id=f"wsj-{i}", date=parse_date(date), source="wsj")
    return nous


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NousConfig(window_size=0).validate()
        with pytest.raises(ConfigError):
            NousConfig(accept_threshold=2.0).validate()


class TestIngestion:
    def test_accepts_facts(self, built_nous):
        assert built_nous.documents_ingested == 5
        # (Amazon, acquired, Kiva_Systems) is already curated: the store
        # keeps the higher-confidence curated version.
        curated = built_nous.kb.store.get("Amazon", "acquired", "Kiva_Systems")
        assert curated is not None and curated.curated
        # A genuinely novel fact enters as extracted.
        novel = built_nous.kb.store.get("GoPro", "partnerOf", "DJI")
        assert novel is not None
        assert not novel.curated
        assert novel.source == "wsj"

    def test_fact_date_recorded(self, built_nous):
        fact = built_nous.kb.store.get("GoPro", "partnerOf", "DJI")
        assert str(fact.date) == "2015-06"  # sentence date wins

    def test_ingest_returns_breakdown(self, fast_config):
        nous = Nous(config=fast_config)
        result = nous.ingest(
            "DJI raised $75 million from Accel Partners in May 2015.",
            doc_id="x", date=parse_date("2015-05-06"), source="wsj",
        )
        assert result.raw_triples > 0
        assert result.accepted > 0
        assert result.accepted_triples
        subjects = {t[0] for t in result.accepted_triples}
        assert "DJI" in subjects

    def test_empty_document(self, fast_config):
        nous = Nous(config=fast_config)
        result = nous.ingest("", doc_id="empty")
        assert result.raw_triples == 0
        assert result.accepted == 0

    def test_window_tracks_accepted_facts(self, built_nous):
        assert built_nous.dynamic.window.window_size > 0
        assert built_nous.dynamic.miner.window_size == (
            built_nous.dynamic.window.window_size
        )

    def test_timestamps_monotone_even_with_old_dates(self, fast_config):
        nous = Nous(config=fast_config)
        nous.ingest("DJI launched the Phantom 3 in 2015.",
                    date=parse_date("2015-04-08"))
        # an article about an *older* event must not move time backwards
        nous.ingest("Amazon acquired Kiva Systems in 2012.",
                    date=parse_date("2012-03-19"))
        assert nous.dynamic.window.window_size >= 0  # no ConfigError raised


class TestQueries:
    def test_entity_summary(self, built_nous):
        summary = built_nous.entity_summary("DJI")
        assert summary.entity == "DJI"
        assert summary.entity_type == "Company"
        assert any(p == "fundedBy" for _, p, _, _, _ in summary.facts)
        rendered = summary.render()
        assert "DJI" in rendered and "conf=" in rendered

    def test_trending_patterns(self, built_nous):
        report = built_nous.trending()
        assert report.window_edges > 0
        # two partnerships with distinct endpoint pairs -> MNI support 2
        supports = {p.describe(): s for p, s in report.closed_frequent}
        assert any("partnerOf" in desc for desc in supports)

    def test_explain_paths(self, built_nous):
        paths = built_nous.explain("GoPro", "Accel Partners", k=2)
        assert paths
        assert paths[0].nodes[0] == "GoPro"
        assert paths[0].nodes[-1] == "Accel_Partners"

    def test_explain_unknown_entity_creates_then_fails_gracefully(self, built_nous):
        from repro.errors import QAError
        with pytest.raises(QAError):
            built_nous.explain("Completely Unknown Thing 42", "DJI")

    def test_statistics(self, built_nous):
        stats = built_nous.statistics()
        assert stats.extracted_facts > 0
        assert stats.curated_facts > 0
        assert sum(stats.confidence_histogram) == stats.num_facts
        assert "wsj" in stats.facts_per_source
        rendered = stats.render()
        assert "confidence histogram" in rendered

    def test_topic_graph_follows_growth_without_refitting(self, built_nous):
        g1 = built_nous._topic_annotated_graph()
        g2 = built_nous._topic_annotated_graph()
        assert g1 is g2
        base = built_nous.topics
        built_nous.kb.add_fact("DJI", "partnerOf", "GoPro", curated=False,
                               confidence=0.5, source="test")
        g3 = built_nous._topic_annotated_graph()
        assert g3 is g1  # the one maintained mirror, re-annotated in place
        assert any(e.label == "partnerOf" for e in g3.edges_between("DJI", "GoPro"))
        # A new fact changes the graph, not the described documents.
        assert built_nous.topics is base


class TestDynamicKnowledgeGraph:
    def test_accept_fact_updates_both_views(self):
        kb = build_drone_kb()
        dkg = DynamicKnowledgeGraph(kb, window=CountWindow(size=10), min_support=1)
        dkg.accept_fact(make_mapped("DJI", "partnerOf", "GoPro"), 0.7, timestamp=1.0)
        assert kb.store.get("DJI", "partnerOf", "GoPro") is not None
        assert dkg.window.window_size == 1
        assert dkg.miner.window_size == 1

    def test_window_eviction_updates_miner(self):
        kb = build_drone_kb()
        dkg = DynamicKnowledgeGraph(kb, window=CountWindow(size=2), min_support=1)
        for i, t in enumerate(["GoPro", "Parrot_SA", "Intel"]):
            dkg.accept_fact(make_mapped("DJI", "partnerOf", t), 0.7, float(i))
        assert dkg.window.window_size == 2
        assert dkg.miner.window_size == 2
        # KB keeps everything (facts are persistent)
        assert len(kb.store.match(subject="DJI", predicate="partnerOf")) == 3

    def test_miner_sees_types(self):
        kb = build_drone_kb()
        dkg = DynamicKnowledgeGraph(kb, min_support=1)
        dkg.accept_fact(make_mapped("DJI", "partnerOf", "GoPro"), 0.7, 1.0)
        patterns = list(dkg.miner.supports())
        assert any("Company" in p.describe() for p in patterns)

    def test_trending_report(self):
        kb = build_drone_kb()
        dkg = DynamicKnowledgeGraph(kb, min_support=1)
        dkg.accept_fact(make_mapped("DJI", "partnerOf", "GoPro"), 0.7, 1.0)
        report = dkg.trending_report(timestamp=1.0)
        assert report.window_edges == 1
        assert report.closed_frequent

    @pytest.mark.parametrize("window_factory", [
        lambda: CountWindow(size=3),
        lambda: TimeWindow(span=2.5),
    ])
    def test_accept_batch_matches_sequential(self, window_factory):
        """Doomed-fact skipping must leave window content, miner supports
        and trending identical to the sequential path — for both window
        policies, including facts expiring mid-batch."""
        targets = ["GoPro", "Parrot_SA", "Intel", "Amazon", "Qualcomm", "Google"]
        facts = [
            (make_mapped("DJI", "partnerOf", t), 0.7, float(i))
            for i, t in enumerate(targets)
        ]
        seq = DynamicKnowledgeGraph(
            build_drone_kb(), window=window_factory(), min_support=1
        )
        for mapped, conf, ts in facts:
            seq.accept_fact(mapped, conf, ts)
        bat = DynamicKnowledgeGraph(
            build_drone_kb(), window=window_factory(), min_support=1
        )
        streamed = bat.accept_batch(facts)
        assert streamed < len(facts), "batch should skip doomed facts"

        assert bat.kb.num_facts == seq.kb.num_facts
        assert sorted(
            (t.timestamp, t.src, t.label, t.dst)
            for t in bat.window.window_edges()
        ) == sorted(
            (t.timestamp, t.src, t.label, t.dst)
            for t in seq.window.window_edges()
        )
        assert {
            p.describe(): s for p, s in bat.miner.supports().items()
        } == {p.describe(): s for p, s in seq.miner.supports().items()}
        bat_report = bat.trending_report(timestamp=5.0)
        seq_report = seq.trending_report(timestamp=5.0)
        assert bat_report.window_edges == seq_report.window_edges
        assert [
            (p.describe(), s) for p, s in bat_report.closed_frequent
        ] == [(p.describe(), s) for p, s in seq_report.closed_frequent]


class TestStatisticsHelpers:
    def test_empty_kb(self):
        from repro.kb import KnowledgeBase
        stats = compute_statistics(KnowledgeBase())
        assert stats.num_facts == 0
        assert stats.mean_extracted_confidence == 0.0
        assert stats.render()  # must not crash on empty histogram


class TestBatchIngestion:
    """ingest_batch must match the sequential path's observable state."""

    def _articles(self):
        from types import SimpleNamespace

        return [
            SimpleNamespace(
                text="GoPro partnered with DJI in June 2015.",
                doc_id="a", date=parse_date("2015-06-10"), source="wsj",
            ),
            SimpleNamespace(  # no extractable triples
                text="And furthermore, the weather was pleasant.",
                doc_id="b", date=None, source="wsj",
            ),
            SimpleNamespace(
                text="Intel partnered with PrecisionHawk in July 2015.",
                doc_id="c", date=parse_date("2015-07-02"), source="wsj",
            ),
        ]

    def _config(self):
        return NousConfig(
            window_size=50, min_support=2, lda_iterations=5, retrain_every=0
        )

    def test_batch_matches_sequential_including_empty_docs(self):
        seq = Nous(config=self._config())
        for a in self._articles():
            seq.ingest(a.text, doc_id=a.doc_id, date=a.date, source=a.source)
        bat = Nous(config=self._config())
        results = bat.ingest_batch(self._articles())

        assert [r.doc_id for r in results] == ["a", "b", "c"]
        assert bat.documents_ingested == seq.documents_ingested == 3
        assert bat.kb.num_facts == seq.kb.num_facts
        # Triple-less documents must not consume a stream timestamp:
        # windowed facts carry identical timestamps on both paths.
        seq_rows = sorted(
            (t.timestamp, t.src, t.label, t.dst)
            for t in seq.dynamic.window.window_edges()
        )
        bat_rows = sorted(
            (t.timestamp, t.src, t.label, t.dst)
            for t in bat.dynamic.window.window_edges()
        )
        assert bat_rows == seq_rows

    def test_empty_batch_is_a_noop(self):
        nous = Nous(config=self._config())
        assert nous.ingest_batch([]) == []
        assert nous.documents_ingested == 0

    def test_batch_repeated_fact_counts_as_known(self):
        """A fact accepted earlier in the same batch feeds the agreement
        (not contradiction) trust signal, as in the sequential path."""
        from types import SimpleNamespace

        doubled = [
            SimpleNamespace(
                text="GoPro partnered with DJI in June 2015.",
                doc_id=f"d{i}", date=parse_date("2015-06-10"), source="wsj",
            )
            for i in range(2)
        ]
        seq = Nous(config=self._config())
        for a in doubled:
            seq.ingest(a.text, doc_id=a.doc_id, date=a.date, source=a.source)
        bat = Nous(config=self._config())
        bat.ingest_batch(doubled)
        assert bat.estimator.source_trust.trust("wsj") == pytest.approx(
            seq.estimator.source_trust.trust("wsj")
        )

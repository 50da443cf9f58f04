"""The NOUS facade: end-to-end construction + querying (Figure 1).

``Nous`` owns every stage: document in → sentences → raw triples →
entity linking + predicate mapping → confidence estimation → dynamic KG
update → (on demand) trending reports, entity summaries and explanatory
path answers.

There is one ingestion path: :meth:`Nous.ingest_batch` amortises the
per-document fixed costs — collective entity linking, confidence
retraining and window-doomed miner updates — across a whole batch (the
catch-up / bulk-load case); :meth:`Nous.ingest` is a batch of one (the
streaming case).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.confidence.estimator import ConfidenceEstimator
from repro.core.dynamic_kg import DynamicKnowledgeGraph
from repro.core.statistics import GraphStatistics, compute_statistics
from repro.errors import ConfigError, QAError
from repro.graph.property_graph import PropertyGraph
from repro.graph.temporal import CountWindow
from repro.kb.drone_kb import build_drone_kb
from repro.kb.knowledge_base import KnowledgeBase
from repro.linking.mapper import MappedTriple, RejectedTriple, TripleMapper
from repro.mining.streaming import WindowReport
from repro.nlp.dates import SimpleDate
from repro.nlp.parallel import (
    ExtractionJob,
    ParallelExtractor,
    PipelineSpec,
)
from repro.nlp.pipeline import NlpPipeline, RawTriple
from repro.qa.lda import LdaTopics
from repro.qa.pathsearch import CoherentPathSearch, RankedPath
from repro.qa.topicspace import TopicSpace


@dataclass
class NousConfig:
    """Pipeline configuration.

    Attributes:
        window_size: Sliding-window size (extracted facts) for trending.
        min_support / max_pattern_edges: Streaming miner parameters.
        accept_threshold: Final-confidence gate for KG insertion.
        retrain_every: Retrain the BPR models after this many accepted
            facts (0 disables periodic retraining).
        n_topics / lda_iterations: LDA settings for the QA topic space.
        max_hops / beam_width: Path-search settings.
        seed: Master seed for the stochastic components.
        extract_workers: NLP extraction process-pool size for
            :meth:`Nous.ingest_batch`; 1 (the default) extracts serially
            in-process.  Output is byte-identical either way — the pool
            only parallelises the per-document extraction stage ahead of
            the collective linking pass.
    """

    window_size: int = 500
    min_support: int = 3
    max_pattern_edges: int = 2
    accept_threshold: float = 0.25
    retrain_every: int = 200
    n_topics: int = 6
    lda_iterations: int = 60
    max_hops: int = 4
    beam_width: int = 8
    seed: int = 29
    extract_workers: int = 1

    def validate(self) -> None:
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        if not 0.0 <= self.accept_threshold <= 1.0:
            raise ConfigError("accept_threshold must be in [0, 1]")
        if self.extract_workers < 1:
            raise ConfigError("extract_workers must be >= 1")


@dataclass
class IngestResult:
    """Outcome of ingesting one document."""

    doc_id: str
    raw_triples: int = 0
    accepted: int = 0
    rejected_mapping: Counter = field(default_factory=Counter)
    rejected_confidence: int = 0
    accepted_triples: List[Tuple[str, str, str, float]] = field(default_factory=list)


@dataclass
class EntitySummary:
    """Answer payload for "Tell me about X" (Figure 6)."""

    entity: str
    entity_type: str
    description: str
    facts: List[Tuple[str, str, str, float, bool]]  # s, p, o, conf, curated
    recent_dates: List[str]
    neighbors: List[str]

    def render(self) -> str:
        lines = [
            f"{self.entity} ({self.entity_type})",
            self.description or "(no description)",
            f"facts ({len(self.facts)}):",
        ]
        for s, p, o, conf, curated in self.facts[:25]:
            origin = "curated" if curated else "extracted"
            lines.append(f"  ({s}, {p}, {o})  conf={conf:.2f} [{origin}]")
        if self.recent_dates:
            lines.append("recent mentions: " + ", ".join(self.recent_dates[:8]))
        return "\n".join(lines)


class Nous:
    """End-to-end dynamic knowledge-graph system.

    Args:
        kb: Starting curated KB; the bundled drone KB when omitted.
        config: Pipeline settings.
    """

    def __init__(
        self,
        kb: Optional[KnowledgeBase] = None,
        config: Optional[NousConfig] = None,
    ) -> None:
        self.config = config or NousConfig()
        self.config.validate()
        self.kb = kb if kb is not None else build_drone_kb()
        self.dynamic = DynamicKnowledgeGraph(
            self.kb,
            window=CountWindow(size=self.config.window_size),
            min_support=self.config.min_support,
            max_pattern_edges=self.config.max_pattern_edges,
        )
        self.mapper = TripleMapper(self.kb)
        self.nlp = NlpPipeline(
            gazetteer=self.kb.gazetteer(), kb_aliases=self.kb.kb_alias_index()
        )
        self.estimator = ConfidenceEstimator(
            accept_threshold=self.config.accept_threshold
        )
        self.estimator.retrain(self.kb.store)
        self._accepted_since_retrain = 0
        self._last_timestamp = 0.0
        # QA topic vectors: fitted lazily on the first path query, then
        # maintained across KG versions (base fit keyed on description
        # content, fold-in for everything ingest mints).
        self.topic_space = TopicSpace(
            n_topics=self.config.n_topics,
            lda_iterations=self.config.lda_iterations,
            seed=self.config.seed,
        )
        # kb.version the mirror's ``topics`` vertex props were set at.
        self._topics_version = -1
        self.documents_ingested = 0
        # Raw extraction buffer feeding §3.3's semi-supervised pattern
        # expansion (bounded: only recent evidence matters).
        self._raw_buffer: Deque[RawTriple] = deque(maxlen=2000)
        # Lazily-spawned extraction pool (extract_workers > 1 only).
        self._extractor: Optional[ParallelExtractor] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def ingest(
        self,
        text: str,
        doc_id: str = "",
        date: Optional[SimpleDate] = None,
        source: str = "unknown",
    ) -> IngestResult:
        """Run the full §3.2-§3.4 pipeline on one document (a batch of
        one: a singleton batch dooms nothing and retrains at the same
        point, so state, counters and stamps match)."""
        article = ExtractionJob(text=text, doc_id=doc_id, date=date, source=source)
        return self.ingest_batch([article])[0]

    def _score_and_gate(
        self,
        triple: MappedTriple,
        result: IngestResult,
        batch_keys: set,
    ) -> Optional[float]:
        """Confidence-gate one mapped triple: score it, update source
        trust, and record the outcome on ``result``.

        ``batch_keys`` holds the (s, p, o) keys accepted earlier in the
        current batch but not yet persisted, so the agreement /
        contradiction signal is the one a fact-at-a-time stream (which
        persists each fact before scoring the next) would see.

        Returns:
            The final confidence when accepted, ``None`` when rejected.
        """
        confidence = self.estimator.confidence(triple)
        if confidence < self.config.accept_threshold:
            result.rejected_confidence += 1
            self.estimator.update_trust_from_kb(triple, in_kb=False)
            return None
        key = (triple.subject, triple.predicate, triple.object)
        already_known = (
            key in batch_keys or self.kb.store.get(*key) is not None
        )
        self.estimator.update_trust_from_kb(triple, in_kb=already_known)
        result.accepted += 1
        result.accepted_triples.append((*key, confidence))
        self._accepted_since_retrain += 1
        return confidence

    def _maybe_retrain(self) -> None:
        """Retrain the BPR models once the periodic budget is reached."""
        if (
            self.config.retrain_every
            and self._accepted_since_retrain >= self.config.retrain_every
        ):
            self.estimator.retrain(self.kb.store)
            self.mapper.linker.invalidate_cache()
            self._accepted_since_retrain = 0

    def retrain_if_due(self) -> None:
        """Run the periodic retrain now if its budget is reached.

        Public hook for callers that deferred retraining across several
        ``ingest_batch`` calls (``defer_retrain=True``) — e.g. the
        service-layer ingestion queue retrains once per busy period,
        when the queue goes idle, instead of once per micro-batch.
        """
        self._maybe_retrain()

    def ingest_corpus(self, articles: Sequence) -> List[IngestResult]:
        """Ingest a sequence of :class:`repro.data.articles.Article`."""
        return [
            self.ingest(a.text, doc_id=a.doc_id, date=a.date, source=a.source)
            for a in articles
        ]

    def ingest_batch(
        self, articles: Sequence, defer_retrain: bool = False
    ) -> List[IngestResult]:
        """Ingest a batch of articles through the amortised hot path.

        Functionally equivalent to one :meth:`ingest` call per article,
        but the per-document fixed costs are shared across the batch:

        - **entity linking** runs once, collectively, over the batch's
          unique mentions (instead of once per document);
        - **confidence retraining** happens at most once, after the
          whole batch (instead of every ``retrain_every`` accepted facts
          mid-stream), so batch members are scored against one model;
        - **miner updates** for facts that would be evicted from the
          sliding window before the batch ends are skipped entirely —
          their add/remove embedding updates are exact no-ops (see
          :meth:`DynamicKnowledgeGraph.accept_batch`).

        NLP extraction still happens per document — serially in-process,
        or fanned across a process pool when
        :attr:`NousConfig.extract_workers` > 1 (documents are
        independent until linking, and pool results are re-ordered to
        submission order, so output is byte-identical either way);
        acceptance gating, trust updates and stream timestamps follow
        the same order as a document-at-a-time stream.

        Args:
            articles: :class:`repro.data.articles.Article`-like objects
                (``text`` / ``doc_id`` / ``date`` / ``source``), in
                stream (date) order.
            defer_retrain: Skip the end-of-batch retrain check; the
                caller promises to call :meth:`retrain_if_due` later
                (used by the ingestion queue to amortise retraining
                across consecutive micro-batches).

        Returns:
            One :class:`IngestResult` per article, in input order.
        """
        articles = list(articles)
        extracted = self._extract_batch(articles)

        results: List[IngestResult] = []
        doc_triples: List[List[RawTriple]] = []
        doc_contexts: List[Optional[List[str]]] = []
        for article, (triples, context_words) in zip(articles, extracted):
            result = IngestResult(doc_id=article.doc_id)
            result.raw_triples = len(triples)
            results.append(result)
            doc_triples.append(list(triples))
            doc_contexts.append(context_words)
            self._raw_buffer.extend(triples)

        mapped_per_doc = self.mapper.map_batch(doc_triples, doc_contexts)

        accepted_facts: List[Tuple[MappedTriple, float, float]] = []
        batch_keys: set = set()
        for article, result, (mapped, rejected) in zip(
            articles, results, mapped_per_doc
        ):
            for rej in rejected:
                result.rejected_mapping[rej.reason] += 1
            if not result.raw_triples:
                # A triple-less document consumes no stream timestamp.
                self.documents_ingested += 1
                continue
            timestamp = self._timestamp_for(article.date)
            for triple in mapped:
                confidence = self._score_and_gate(triple, result, batch_keys)
                if confidence is None:
                    continue
                accepted_facts.append((triple, confidence, timestamp))
                batch_keys.add(
                    (triple.subject, triple.predicate, triple.object)
                )
            self.documents_ingested += 1

        self.dynamic.accept_batch(accepted_facts)
        if not defer_retrain:
            self._maybe_retrain()
        return results

    # ------------------------------------------------------------------
    # extraction seam (serial / process pool)
    # ------------------------------------------------------------------
    def _extract_batch(
        self, articles: Sequence
    ) -> List[Tuple[List[RawTriple], Optional[List[str]]]]:
        """Extract every article: ``(triples, context_words-or-None)``
        per document, in input order.

        This is the single extraction seam — the durability recorder
        wraps it to count extracted raws, and fanning out across
        ``extract_workers`` processes happens entirely inside it.
        """
        if self.config.extract_workers > 1 and len(articles) > 1:
            jobs = [
                ExtractionJob(
                    text=a.text, doc_id=a.doc_id, date=a.date, source=a.source
                )
                for a in articles
            ]
            extracted = self._ensure_extractor().extract_many(jobs)
            return [(doc.triples, doc.context_words) for doc in extracted]
        out: List[Tuple[List[RawTriple], Optional[List[str]]]] = []
        for article in articles:
            document = self.nlp.process(
                article.text,
                doc_id=article.doc_id,
                doc_date=article.date,
                source=article.source,
            )
            out.append(
                (
                    document.triples,
                    [w for s in document.sentences for w in s.sentence.words()]
                    if document.triples
                    else None,
                )
            )
        return out

    def _ensure_extractor(self) -> ParallelExtractor:
        if self._extractor is None:
            self._extractor = ParallelExtractor(
                PipelineSpec.from_pipeline(self.nlp),
                workers=self.config.extract_workers,
            )
        return self._extractor

    def close(self) -> None:
        """Release owned process resources (the extraction pool).

        Safe to call repeatedly; a later ``ingest_batch`` respawns the
        pool on demand.
        """
        if self._extractor is not None:
            self._extractor.close()
            self._extractor = None

    def ingest_facts(
        self,
        facts: Sequence[Tuple[str, str, str]],
        date: Optional[SimpleDate] = None,
        source: str = "structured",
        confidence: float = 0.9,
    ) -> int:
        """Ingest *structured* facts, skipping the NLP stage.

        §3.1's non-text domains (insider-threat logs, bibliography
        databases) feed the dynamic KG directly with triples; they still
        flow through the sliding window so trending queries see them.

        Args:
            facts: ``(subject, predicate, object)`` triples with
                canonical entity ids.
            date: Fact date (stream time derives from it).
            source: Provenance tag for trust tracking.
            confidence: Confidence recorded on the facts.

        Returns:
            Number of facts accepted (all of them; structured sources
            are not gated).
        """
        timestamp = self._timestamp_for(date)
        for subject, predicate, object_ in facts:
            raw = RawTriple(
                subject=subject, relation=predicate, object=object_,
                date=date, source=source, confidence=confidence,
            )
            mapped = MappedTriple(
                subject=subject,
                predicate=predicate,
                object=object_,
                object_is_literal=False,
                extraction_confidence=confidence,
                link_confidence=1.0,
                mapping_confidence=1.0,
                date=date,
                doc_id="",
                source=source,
                raw=raw,
            )
            self.dynamic.accept_fact(mapped, confidence, timestamp)
        return len(facts)

    @property
    def last_timestamp(self) -> float:
        """Current stream clock (timestamp of the newest accepted fact)."""
        return self._last_timestamp

    def _timestamp_for(self, date: Optional[SimpleDate]) -> float:
        if date is not None:
            ts = float(date.ordinal())
            if ts < self._last_timestamp:
                ts = self._last_timestamp  # keep stream time monotone
        else:
            ts = self._last_timestamp + 1.0
        self._last_timestamp = ts
        return ts

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def trending(self) -> WindowReport:
        """Closed frequent patterns over the current window (Fig. 7)."""
        return self.dynamic.trending_report(timestamp=self._last_timestamp)

    def entity_summary(self, mention: str) -> EntitySummary:
        """"Tell me about X" (Fig. 6)."""
        decision = self.mapper.linker.link(mention)
        entity = decision.entity
        facts = []
        dates = []
        for triple in self.kb.facts_about(entity):
            facts.append(
                (
                    triple.subject,
                    triple.predicate,
                    triple.object,
                    triple.confidence,
                    triple.curated,
                )
            )
            if triple.date is not None and not triple.curated:
                dates.append(str(triple.date))
        facts.sort(key=lambda f: (-f[3], f[1]))
        return EntitySummary(
            entity=entity,
            entity_type=self.kb.entity_type(entity) or "Thing",
            description=self.kb.description(entity),
            facts=facts,
            recent_dates=sorted(set(dates), reverse=True),
            neighbors=sorted(self.kb.store.neighbors(entity)),
        )

    def entity_trend(self, mention: str, limit: int = 20) -> List[Tuple]:
        """"What's new about X": recent windowed facts touching the entity.

        Returns:
            ``(timestamp, subject, predicate, object, confidence)`` tuples,
            newest first.
        """
        entity = self.mapper.linker.link(mention).entity
        rows = []
        for timed in self.dynamic.window.window_edges():
            if entity in (timed.src, timed.dst):
                props = timed.prop_dict()
                rows.append(
                    (
                        timed.timestamp,
                        timed.src,
                        timed.label,
                        timed.dst,
                        props.get("confidence", 0.0),
                    )
                )
        rows.sort(key=lambda r: -r[0])
        return rows[:limit]

    def explain(
        self,
        source_mention: str,
        target_mention: str,
        relationship: Optional[str] = None,
        k: int = 3,
    ) -> List[RankedPath]:
        """"Why is X related to Y?" — coherence-ranked paths (§3.6)."""
        source = self.mapper.linker.link(source_mention).entity
        target = self.mapper.linker.link(target_mention).entity
        graph = self._topic_annotated_graph()
        if not graph.has_vertex(source) or not graph.has_vertex(target):
            raise QAError(
                f"no graph vertices for {source_mention!r} / {target_mention!r}"
            )
        search = CoherentPathSearch(
            graph,
            max_hops=self.config.max_hops,
            beam_width=self.config.beam_width,
        )
        return search.top_k_paths(source, target, k=k, relationship=relationship)

    def statistics(self) -> GraphStatistics:
        """Quality dashboard payload (§4 demo feature 2)."""
        return compute_statistics(self.kb)

    # ------------------------------------------------------------------
    # refinement (§3.3 "still an active area of refinement")
    # ------------------------------------------------------------------
    def learn_predicate_patterns(self) -> Dict[str, List[str]]:
        """Semi-supervised predicate-pattern expansion over the recent
        extraction buffer, aligned against the current KG via distant
        supervision.

        Returns:
            predicate -> newly adopted relation patterns.
        """
        adopted = self.mapper.predicate_mapper.expand_from_corpus(
            list(self._raw_buffer), self.mapper.mention_index
        )
        return adopted

    # ------------------------------------------------------------------
    def _topic_annotated_graph(self) -> PropertyGraph:
        """The KB's graph mirror with a topic vector on every vertex.

        The vectors are set in place as the mirror's ``topics`` vertex
        prop, again whenever the KB's version stamp moved (a memo lookup
        per vertex); the topic model behind them is not refitted —
        :class:`~repro.qa.topicspace.TopicSpace` refits only when the
        set of described documents changed.
        """
        graph = self.kb.graph_view()
        version = self.kb.version
        if self._topics_version != version:
            self.topic_space.annotate(
                graph,
                {e: self.kb.description(e) for e in self.kb.entities()},
            )
            self._topics_version = version
        return graph

    @property
    def topics(self) -> Optional[LdaTopics]:
        """The base LDA fit behind the topic vectors (None before any
        QA query)."""
        return self.topic_space.base

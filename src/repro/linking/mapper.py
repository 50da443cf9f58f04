"""Raw-triple -> knowledge-graph mapping: the full §3.3 stage.

``TripleMapper`` chains entity linking and predicate mapping, enforces
ontology signatures, keeps literals (money/dates) literal, and reports
typed rejections so the demo's quality dashboard can show *why* facts
were dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kb.knowledge_base import KnowledgeBase
from repro.linking.disambiguation import EntityLinker, LinkDecision
from repro.linking.predicate_mapping import (
    LITERAL_OBJECT_PREDICATES,
    PredicateMapper,
)
from repro.nlp.dates import SimpleDate
from repro.nlp.pipeline import RawTriple

_LITERAL_LABELS = {"MONEY", "DATE", "PERCENT"}


@dataclass
class MappedTriple:
    """A canonical triple ready for confidence scoring and KG insertion."""

    subject: str
    predicate: str
    object: str
    object_is_literal: bool
    extraction_confidence: float
    link_confidence: float
    mapping_confidence: float
    date: Optional[SimpleDate]
    doc_id: str
    source: str
    raw: RawTriple

    def prior_confidence(self) -> float:
        """Combined pre-link-prediction confidence."""
        return (
            self.extraction_confidence
            * self.link_confidence
            * self.mapping_confidence
        )


@dataclass
class RejectedTriple:
    """A raw triple the mapper refused, with the reason."""

    raw: RawTriple
    reason: str  # "negated" | "unmapped-relation" | "signature" | "self-loop"


@dataclass
class MappingStats:
    """Counters for the quality dashboard."""

    mapped: int = 0
    rejected: Counter = field(default_factory=Counter)
    created_entities: int = 0

    def total(self) -> int:
        return self.mapped + sum(self.rejected.values())


class TripleMapper:
    """Map raw extractions into canonical KG triples.

    Args:
        kb: Target knowledge base (entities may be created in it).
        linker: Entity linker; constructed from ``kb`` when omitted.
        predicate_mapper: Predicate mapper; constructed when omitted.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        linker: Optional[EntityLinker] = None,
        predicate_mapper: Optional[PredicateMapper] = None,
    ) -> None:
        self.kb = kb
        self.linker = linker or EntityLinker(kb)
        self.predicate_mapper = predicate_mapper or PredicateMapper(kb)
        self.stats = MappingStats()
        # mention surface form -> linked entity id, accumulated across
        # documents; used by the semi-supervised pattern expansion.
        self.mention_index: Dict[str, str] = {}

    def map_document(
        self,
        raw_triples: Sequence[RawTriple],
        context_words: Optional[Sequence[str]] = None,
    ) -> Tuple[List[MappedTriple], List[RejectedTriple]]:
        """Map all triples of one document with collective entity linking."""
        decision_of = self._link_mentions(raw_triples, context_words)
        return self._map_with_decisions(raw_triples, decision_of)

    def map_batch(
        self,
        doc_triples: Sequence[Sequence[RawTriple]],
        doc_contexts: Optional[Sequence[Optional[Sequence[str]]]] = None,
    ) -> List[Tuple[List[MappedTriple], List[RejectedTriple]]]:
        """Map several documents' triples with ONE collective linking pass.

        The batch hot path: mentions shared across documents are linked
        once (against the merged batch context) instead of once per
        document, amortising the dominant cost of §3.3.  Per-document
        mapped/rejected lists come back in input order.
        """
        all_triples: List[RawTriple] = [
            raw for triples in doc_triples for raw in triples
        ]
        merged_context: List[str] = []
        for context in doc_contexts or ():
            if context:
                merged_context.extend(context)
        decision_of = self._link_mentions(all_triples, merged_context or None)
        return [
            self._map_with_decisions(triples, decision_of)
            for triples in doc_triples
        ]

    def _link_mentions(
        self,
        raw_triples: Sequence[RawTriple],
        context_words: Optional[Sequence[str]],
    ) -> Dict[str, LinkDecision]:
        """Collectively link the unique entity-ish mentions of a document
        (or a whole batch) and record them in the mention index."""
        mention_keys: List[Tuple[str, Optional[str]]] = []
        for raw in raw_triples:
            mention_keys.append((raw.subject, raw.subject_label))
            if raw.object_label not in _LITERAL_LABELS:
                mention_keys.append((raw.object, raw.object_label))
        unique: Dict[str, Optional[str]] = {}
        for mention, label in mention_keys:
            if mention and mention not in unique:
                unique[mention] = label
        mentions = list(unique)
        decisions = self.linker.link_all(
            mentions,
            context_words=context_words,
            ner_labels=[unique[m] for m in mentions],
        )
        decision_of: Dict[str, LinkDecision] = {
            d.mention: d for d in decisions
        }
        self.stats.created_entities += sum(1 for d in decisions if d.created)
        for decision in decisions:
            self.mention_index[decision.mention] = decision.entity
        return decision_of

    def _map_with_decisions(
        self,
        raw_triples: Sequence[RawTriple],
        decision_of: Dict[str, LinkDecision],
    ) -> Tuple[List[MappedTriple], List[RejectedTriple]]:
        mapped: List[MappedTriple] = []
        rejected: List[RejectedTriple] = []
        for raw in raw_triples:
            outcome = self._map_one(raw, decision_of)
            if isinstance(outcome, MappedTriple):
                mapped.append(outcome)
                self.stats.mapped += 1
            else:
                rejected.append(outcome)
                self.stats.rejected[outcome.reason] += 1
        return mapped, rejected

    # ------------------------------------------------------------------
    def _map_one(
        self, raw: RawTriple, decision_of: Dict[str, LinkDecision]
    ):
        if raw.negated:
            return RejectedTriple(raw=raw, reason="negated")

        subject_decision = decision_of.get(raw.subject)
        if subject_decision is None:
            return RejectedTriple(raw=raw, reason="no-subject")
        subject_type = self.kb.entity_type(subject_decision.entity)

        object_is_literal = raw.object_label in _LITERAL_LABELS
        if object_is_literal:
            object_id = raw.object
            object_type = "Literal"
            object_link_score = 1.0
        else:
            object_decision = decision_of.get(raw.object)
            if object_decision is None:
                return RejectedTriple(raw=raw, reason="no-object")
            object_id = object_decision.entity
            object_type = self.kb.entity_type(object_id)
            object_link_score = object_decision.score

        # Literal objects carry no ontology type; map on the subject side
        # only, then let the explicit literal/non-literal checks below
        # produce a precise "signature" rejection.
        mapping = self.predicate_mapper.map_relation(
            raw.relation,
            subject_type=subject_type,
            object_type=None if object_is_literal else object_type,
        )
        if mapping is None:
            return RejectedTriple(raw=raw, reason="unmapped-relation")

        if mapping.predicate in LITERAL_OBJECT_PREDICATES and not object_is_literal:
            # Predicate expects a literal (amount); entity object is a
            # signature violation ("raised Accel Partners").
            return RejectedTriple(raw=raw, reason="signature")
        if object_is_literal and mapping.predicate not in LITERAL_OBJECT_PREDICATES:
            return RejectedTriple(raw=raw, reason="signature")

        if not object_is_literal and subject_decision.entity == object_id:
            return RejectedTriple(raw=raw, reason="self-loop")

        link_confidence = min(subject_decision.score, object_link_score)
        return MappedTriple(
            subject=subject_decision.entity,
            predicate=mapping.predicate,
            object=object_id,
            object_is_literal=object_is_literal,
            extraction_confidence=raw.confidence,
            link_confidence=max(0.1, link_confidence),
            mapping_confidence=mapping.score,
            date=raw.date,
            doc_id=raw.doc_id,
            source=raw.source,
            raw=raw,
        )

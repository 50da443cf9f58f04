"""Quality statistics for the dynamic KG (demo feature 2 in §4:
"summarization of quality-related statistics (such as confidence
distributions ...)")."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graph.algorithms import pagerank
from repro.kb.knowledge_base import KnowledgeBase


@dataclass
class GraphStatistics:
    """Aggregate quality statistics of a knowledge base.

    Attributes:
        num_entities / num_facts: Totals.
        curated_facts / extracted_facts: Provenance split (Figure 2's
            red-vs-blue edges).
        confidence_histogram: Bucketed confidence counts; bucket i covers
            [i/10, (i+1)/10).
        facts_per_source: Source -> fact count.
        facts_per_predicate: Predicate -> fact count.
        entities_per_type: Type -> entity count.
        mean_extracted_confidence: Mean confidence over extracted facts.
    """

    num_entities: int = 0
    num_facts: int = 0
    curated_facts: int = 0
    extracted_facts: int = 0
    confidence_histogram: List[int] = field(default_factory=lambda: [0] * 10)
    facts_per_source: Dict[str, int] = field(default_factory=dict)
    facts_per_predicate: Dict[str, int] = field(default_factory=dict)
    entities_per_type: Dict[str, int] = field(default_factory=dict)
    mean_extracted_confidence: float = 0.0
    central_entities: List[Tuple[str, float]] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text dashboard."""
        lines = [
            "Knowledge Graph statistics",
            "--------------------------",
            f"entities: {self.num_entities}   facts: {self.num_facts} "
            f"(curated {self.curated_facts}, extracted {self.extracted_facts})",
            f"mean extracted confidence: {self.mean_extracted_confidence:.3f}",
            "confidence histogram (0.0-1.0):",
        ]
        peak = max(self.confidence_histogram) or 1
        for i, count in enumerate(self.confidence_histogram):
            bar = "#" * int(round(30 * count / peak))
            lines.append(f"  [{i/10:.1f}-{(i+1)/10:.1f}) {count:6d} {bar}")
        lines.append("top predicates:")
        # Ties break by name, not dict insertion order: the rendering
        # must be identical whether the statistics object was computed
        # in-process or decoded from a wire payload whose JSON transport
        # re-ordered the tables.
        for predicate, count in sorted(
            self.facts_per_predicate.items(), key=lambda kv: (-kv[1], kv[0])
        )[:10]:
            lines.append(f"  {predicate:24s} {count}")
        lines.append("sources:")
        for source, count in sorted(
            self.facts_per_source.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {source:24s} {count}")
        if self.central_entities:
            lines.append("most central entities (PageRank):")
            for entity, rank in self.central_entities:
                lines.append(f"  {entity:24s} {rank:.4f}")
        return "\n".join(lines)


def compute_statistics(kb: KnowledgeBase, top_central: int = 8) -> GraphStatistics:
    """Scan the KB and aggregate quality statistics.

    Args:
        top_central: How many PageRank-central entities to report
            (0 skips the PageRank pass).
    """
    stats = GraphStatistics()
    stats.num_entities = len(kb.entities())
    per_source: Counter = Counter()
    per_predicate: Counter = Counter()
    per_type: Counter = Counter()
    extracted_confidences: List[float] = []
    for triple in kb.store:
        stats.num_facts += 1
        per_source[triple.source] += 1
        per_predicate[triple.predicate] += 1
        if triple.curated:
            stats.curated_facts += 1
        else:
            stats.extracted_facts += 1
            extracted_confidences.append(triple.confidence)
        bucket = min(9, int(triple.confidence * 10))
        stats.confidence_histogram[bucket] += 1
    for entity in kb.entities():
        per_type[kb.entity_type(entity) or "Thing"] += 1
    stats.facts_per_source = dict(per_source)
    stats.facts_per_predicate = dict(per_predicate)
    stats.entities_per_type = dict(per_type)
    if extracted_confidences:
        stats.mean_extracted_confidence = sum(extracted_confidences) / len(
            extracted_confidences
        )
    if top_central > 0 and stats.num_facts > 0:
        ranks = pagerank(kb.graph_view(), max_iterations=20)
        # Ties break by name, as in merge_statistics and render().
        stats.central_entities = sorted(
            ranks.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_central]
    return stats

"""The dynamic knowledge graph: curated base + streaming extracted facts.

Two coordinated views:

- the **accumulated KB** (:class:`~repro.kb.knowledge_base.KnowledgeBase`)
  holds everything accepted so far — entity/relationship queries and the
  QA path search run here;
- the **sliding window** (:class:`~repro.graph.temporal.DynamicGraph`)
  holds only recent extracted facts and feeds the streaming miner —
  trending queries run here.

Every accepted fact is therefore simultaneously persisted and streamed,
matching the paper's "queries are executed on a dynamically updated
Knowledge Graph".

A monotonic :attr:`DynamicKnowledgeGraph.version` stamp moves forward on
every observable change (persisted facts, window adds and evictions);
the query-result cache keys on it.  :meth:`accept_batch` is the one
accept path (:meth:`accept_fact` is a batch of one); facts of a batch
that outruns the window are persisted but never streamed to the miner.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.graph.property_graph import PropertyGraph
from repro.graph.temporal import CountWindow, DynamicGraph, TimeWindow
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.ontology import Ontology
from repro.linking.mapper import MappedTriple
from repro.mining.patterns import InstanceEdge
from repro.mining.streaming import StreamingPatternMiner, WindowReport


class DynamicKnowledgeGraph:
    """KB + sliding window + incremental miner, kept in lock-step.

    Args:
        kb: The curated knowledge base to grow.
        window: Window policy for the trending view (default: last
            500 extracted facts).
        min_support / max_pattern_edges: Miner parameters.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        window=None,
        min_support: int = 3,
        max_pattern_edges: int = 2,
    ) -> None:
        self.kb = kb
        self.window = DynamicGraph(window=window or CountWindow(size=500))
        self.miner = StreamingPatternMiner(
            min_support=min_support, max_edges=max_pattern_edges
        )
        self._live_miner_edges: Dict = {}  # TimedEdge -> miner edge id
        self.window.on_add(self._on_window_add)
        self.window.on_evict(self._on_window_evict)
        self.facts_streamed = 0

    # ------------------------------------------------------------------
    def accept_fact(
        self, mapped: MappedTriple, confidence: float, timestamp: float
    ) -> None:
        """Persist one accepted fact and stream it to the miner (a batch
        of one: nothing is doomed)."""
        self.accept_batch([(mapped, confidence, timestamp)])

    def accept_batch(
        self, facts: Sequence[Tuple[MappedTriple, float, float]]
    ) -> int:
        """Persist a batch of accepted facts and stream them to the
        miner, amortising miner updates.

        A fact that enters the sliding window and is evicted again before
        the batch ends (batch longer than the window capacity) is a *net
        no-op* for both the window and the incremental miner: its
        add-then-remove embedding updates cancel exactly, and no query
        can observe the intermediate state.  The batch path persists such
        facts to the KB but skips streaming them, so the final KB, window
        content and miner supports are identical to accepting the facts
        one at a time while the doomed stream updates are never paid.
        (Only the ``total_added`` / ``total_evicted`` window counters
        differ.)

        Args:
            facts: ``(mapped, confidence, timestamp)`` tuples in
                non-decreasing timestamp order.

        Returns:
            Number of facts that were actually streamed to the window.
        """
        doomed = self._doomed_indices(facts)
        streamed = 0
        for index, (mapped, confidence, timestamp) in enumerate(facts):
            self.kb.add_fact(
                mapped.subject,
                mapped.predicate,
                mapped.object,
                confidence=confidence,
                source=mapped.source or "extracted",
                date=mapped.date,
                curated=False,
            )
            if index not in doomed:
                self.window.add_edge(
                    mapped.subject,
                    mapped.object,
                    mapped.predicate,
                    timestamp=timestamp,
                    confidence=confidence,
                    source=mapped.source,
                )
                streamed += 1
            self.facts_streamed += 1
        return streamed

    def _doomed_indices(
        self, facts: Sequence[Tuple[MappedTriple, float, float]]
    ) -> Set[int]:
        """Batch positions guaranteed to be evicted before the batch ends."""
        policy = self.window.window
        if not facts:
            return set()
        if isinstance(policy, CountWindow):
            overflow = len(facts) - policy.size
            return set(range(overflow)) if overflow > 0 else set()
        if isinstance(policy, TimeWindow):
            cutoff = facts[-1][2] - policy.span
            return {i for i, (_, _, ts) in enumerate(facts) if ts < cutoff}
        return set()  # unknown policy: stream everything

    def advance_time(self, timestamp: float) -> int:
        """Expire window content up to ``timestamp`` (time windows)."""
        return self.window.advance_time(timestamp)

    @property
    def version(self) -> int:
        """Monotonic stamp of observable KG state.

        Combines the accumulated-KB version (bumped on every fact or
        entity mutation) with the window version (bumped on every stream
        add *and* eviction), so any change that could alter a query
        result — persisted facts, trending window content — moves the
        stamp forward.  Query-result caches key on this.
        """
        return self.kb.version + self.window.version

    # ------------------------------------------------------------------
    # miner wiring
    # ------------------------------------------------------------------
    def _type_label(self, entity: str) -> str:
        return self.kb.entity_type(entity) or Ontology.ROOT

    def _to_instance_edge(self, timed) -> InstanceEdge:
        return InstanceEdge(
            src=timed.src,
            dst=timed.dst,
            src_label=self._type_label(timed.src),
            dst_label=self._type_label(timed.dst),
            predicate=timed.label,
        )

    def _on_window_add(self, timed) -> None:
        eid = self.miner.add_edge(self._to_instance_edge(timed))
        self._live_miner_edges[timed] = eid

    def _on_window_evict(self, timed) -> None:
        eid = self._live_miner_edges.pop(timed, None)
        if eid is not None:
            self.miner.remove_edge(eid)

    # ------------------------------------------------------------------
    def trending_report(self, timestamp: float = 0.0) -> WindowReport:
        """Current closed frequent patterns with transition events."""
        return self.miner.report(timestamp=timestamp)

    def graph_view(self) -> PropertyGraph:
        """Alias of :meth:`KnowledgeBase.graph_view` (the one maintained
        property graph of the accumulated KG)."""
        return self.kb.graph_view()

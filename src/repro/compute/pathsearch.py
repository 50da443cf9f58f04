"""Coherent cross-shard path search as distributed frontier expansion.

The monolith answers "why is X related to Y?" by beam-searching the
topic-annotated KG (:class:`~repro.qa.pathsearch.CoherentPathSearch`).
A sharded cluster used to answer the same question per shard and merge,
which makes any route whose edges live on *different* shards invisible.

:class:`DistributedPathSearch` closes that gap without shipping whole
partitions: the coordinator expands a frontier outward from the source
— one ``expand`` superstep per hop, each shard returning only its
*owned* edges incident to the frontier, each merged-graph edge crossing
the wire at most once per search — until the region covers everything
the beam could visit within ``max_hops`` (plus one ring of adjacency
for the look-ahead term).  The existing memoised
:class:`CoherentPathSearch` then runs unchanged over that region, with
topic vectors from a :class:`~repro.qa.topicspace.TopicSpace` over the
*union* entity/description set.  Because the topic space is a pure
function of that set (base fit over the described documents, RNG-free
fold-in for the rest) and the region contains every edge the monolith
beam could traverse, routes and their coherence scores match the
monolith — including routes that cross shard boundaries.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.compute.coordinator import ClusterGraphInfo, ComputeCoordinator
from repro.compute.protocol import OP_EXPAND, edge_from_payload
from repro.errors import QAError, VertexNotFoundError
from repro.graph.property_graph import PropertyGraph
from repro.qa.pathsearch import CoherentPathSearch, RankedPath
from repro.qa.topicspace import TopicSpace


class DistributedPathSearch:
    """Top-K coherent path search over a sharded knowledge graph.

    Args:
        coordinator: The compute coordinator driving the shard rounds.
        n_topics / lda_iterations / seed: LDA settings; must match the
            monolith's :class:`~repro.core.pipeline.NousConfig` for
            score-identical results.
        max_hops / beam_width: Search settings (same semantics as
            :class:`CoherentPathSearch`).
    """

    def __init__(
        self,
        coordinator: ComputeCoordinator,
        n_topics: int = 6,
        lda_iterations: int = 60,
        seed: int = 29,
        max_hops: int = 4,
        beam_width: int = 8,
    ) -> None:
        if max_hops < 1:
            raise QAError("max_hops must be >= 1")
        self.coordinator = coordinator
        self.topic_space = TopicSpace(
            n_topics=n_topics, lda_iterations=lda_iterations, seed=seed
        )
        self.max_hops = max_hops
        self.beam_width = beam_width

    # ------------------------------------------------------------------
    def resolve(self, mention: str) -> str:
        """Link one mention onto the cluster's entity space."""
        return self.coordinator.resolve([mention])[0]

    def top_k_paths(
        self,
        source: str,
        target: str,
        k: int = 3,
        relationship: Optional[str] = None,
    ) -> List[RankedPath]:
        """Find up to ``k`` coherent source->target paths cluster-wide.

        Raises:
            VertexNotFoundError: if either endpoint is not a vertex of
                the merged graph.
            QAError: if source equals target.
            ClusterError: if a shard dies mid-search and cannot be
                recovered (stateless rounds are retried once after the
                recover hook runs).
        """
        if source == target:
            raise QAError("source and target must differ")
        self.coordinator.begin_job()
        self.coordinator.stats.record_path_search()
        info = self.coordinator.graph_info(documents=True)
        known = set(info.vertices)
        for vertex in (source, target):
            if vertex not in known:
                raise VertexNotFoundError(vertex)
        region = self._expand_region(source, info)
        if not region.has_vertex(target):
            # Target unreachable within the hop budget: keep the search
            # well-defined (it returns no paths, like the monolith).
            region.add_vertex(target)
        # Same vectors as every shard's own search: the descriptions
        # are replicated, so each party derives the same base from them.
        self.topic_space.annotate(region, info.documents)
        search = CoherentPathSearch(
            region, max_hops=self.max_hops, beam_width=self.beam_width
        )
        return search.top_k_paths(source, target, k=k, relationship=relationship)

    # ------------------------------------------------------------------
    def _expand_region(
        self, source: str, info: ClusterGraphInfo
    ) -> PropertyGraph:
        """BSP frontier expansion: the (max_hops + 1)-ball around the
        source, assembled from per-round owned-edge exchanges.

        The extra ring beyond ``max_hops`` exists so the beam's one-hop
        look-ahead sees the true neighbour sets of every candidate it
        scores; the beam itself never walks past ``max_hops``.
        """
        region = PropertyGraph()
        region.add_vertex(source)
        expanded: Set[str] = set()
        frontier = [source]
        for _ in range(self.max_hops + 1):
            if not frontier:
                break
            params_by_shard = {
                index: {
                    "vertices": list(frontier),
                    "skip": sorted(expanded),
                    "disown": info.disown[index],
                }
                for index in range(self.coordinator.num_shards)
            }
            results = self.coordinator._round(OP_EXPAND, params_by_shard)
            expanded.update(frontier)
            discovered: Set[str] = set()
            for index in sorted(results):
                for payload in results[index]["edges"]:
                    edge = edge_from_payload(payload)
                    region.add_edge(
                        edge["src"], edge["dst"], edge["label"], **edge["props"]
                    )
                    for endpoint in (edge["src"], edge["dst"]):
                        if endpoint not in expanded:
                            discovered.add(endpoint)
            frontier = sorted(discovered)
        return region

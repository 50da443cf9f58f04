"""Shard-side superstep executor.

One :class:`ComputeStepExecutor` lives on each shard's service facade
(:meth:`repro.api.service.NousService.compute_step` delegates here,
under the shard's engine lock).  Every request is a complete, stateless
superstep: the executor reads the shard's KG partition from the KB's
maintained property graph (:meth:`KnowledgeBase.graph_view` — the same
object every other whole-graph reader on the shard uses, never a copy),
applies the edge-ownership rule from :mod:`repro.compute.protocol`, and
answers with only the boundary data the coordinator asked for — never
job state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.compute.protocol import (
    MINE_PHASE_CENSUS,
    MINE_PHASE_EXPAND,
    MINE_PHASE_LOCAL,
    OP_CONTRIB,
    OP_DEGREES,
    OP_EDGE_DUMP,
    OP_EXPAND,
    OP_GRAPH_INFO,
    OP_MIN_LABELS,
    OP_MINE_EMBEDDINGS,
    OP_RESOLVE,
    ComputeRequest,
    ComputeResponse,
    disown_param,
    edge_payload,
    instance_edge_payload,
    owns_edge,
    support_entry_payload,
)
from repro.core.pipeline import Nous
from repro.errors import ConfigError
from repro.graph.algorithms import _order_key
from repro.graph.property_graph import Edge


class ComputeStepExecutor:
    """Execute stateless compute supersteps over one shard's partition.

    Args:
        nous: The shard's engine.  The caller (the service facade) is
            responsible for holding the engine lock around
            :meth:`execute`; the executor itself does no locking.
    """

    def __init__(self, nous: Nous) -> None:
        self._nous = nous

    # ------------------------------------------------------------------
    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one superstep and return the wire-form response.

        Raises:
            ConfigError: on an unknown op or malformed envelope.
        """
        req = ComputeRequest.from_wire(request)
        handlers = {
            OP_GRAPH_INFO: self._graph_info,
            OP_DEGREES: self._degrees,
            OP_EXPAND: self._expand,
            OP_CONTRIB: self._contrib,
            OP_MIN_LABELS: self._min_labels,
            OP_RESOLVE: self._resolve,
            OP_EDGE_DUMP: self._edge_dump,
            OP_MINE_EMBEDDINGS: self._mine_embeddings,
        }
        handler = handlers.get(req.op)
        if handler is None:  # pragma: no cover - from_wire already gates
            raise ConfigError(f"unknown compute op {req.op!r}")
        result = handler(req)
        return ComputeResponse(
            op=req.op,
            shard=req.shard,
            kg_version=self._nous.dynamic.version,
            result=result,
        ).to_wire()

    # ------------------------------------------------------------------
    def _owned_edges(self, req: ComputeRequest) -> List[Edge]:
        """Edges of the local partition this shard owns in the merged graph."""
        disown = disown_param(req.params.get("disown"))
        graph = self._nous.kb.graph_view()
        return [
            edge
            for edge in graph.edges()
            if owns_edge(edge, req.shard, req.num_shards, disown)
        ]

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _graph_info(self, req: ComputeRequest) -> Dict[str, Any]:
        graph = self._nous.kb.graph_view()
        result: Dict[str, Any] = {
            "vertices": sorted(str(v) for v in graph.vertices()),
            "extracted": [
                list(key) for key in sorted(self._extracted_keys())
            ],
        }
        if req.params.get("documents"):
            kb = self._nous.kb
            result["entities"] = [
                [entity, kb.description(entity)]
                for entity in sorted(kb.entities())
            ]
        return result

    def _extracted_keys(self) -> List[Tuple[str, str, str]]:
        return [
            (triple.subject, triple.predicate, triple.object)
            for triple in self._nous.kb.store
            if not triple.curated
        ]

    def _degrees(self, req: ComputeRequest) -> Dict[str, Any]:
        out_deg: Dict[str, int] = {}
        deg: Dict[str, int] = {}
        for edge in self._owned_edges(req):
            src, dst = str(edge.src), str(edge.dst)
            out_deg[src] = out_deg.get(src, 0) + 1
            deg[src] = deg.get(src, 0) + 1
            deg[dst] = deg.get(dst, 0) + 1
        return {
            "out_deg": dict(sorted(out_deg.items())),
            "deg": dict(sorted(deg.items())),
            "srcs": sorted(out_deg),
            "incident": sorted(deg),
        }

    def _expand(self, req: ComputeRequest) -> Dict[str, Any]:
        """Owned edges incident to the requested frontier vertices.

        Edges whose *other* endpoint is in ``skip`` (a vertex the
        coordinator already expanded) were shipped by this same owner in
        an earlier round and are omitted, so every merged-graph edge
        crosses the wire exactly once per search.
        """
        frontier = [str(v) for v in req.params.get("vertices", [])]
        skip = frozenset(str(v) for v in req.params.get("skip", []))
        disown = disown_param(req.params.get("disown"))
        graph = self._nous.kb.graph_view()
        seen_eids: Set[int] = set()
        edges: List[Edge] = []
        for vertex in frontier:
            if not graph.has_vertex(vertex):
                continue
            for edge in graph.incident_edges(vertex):
                if edge.eid in seen_eids:
                    continue
                if not owns_edge(edge, req.shard, req.num_shards, disown):
                    continue
                if str(edge.other(vertex)) in skip:
                    continue
                seen_eids.add(edge.eid)
                edges.append(edge)
        edges.sort(key=lambda e: (str(e.src), e.label, str(e.dst)))
        return {"edges": [edge_payload(e) for e in edges]}

    def _contrib(self, req: ComputeRequest) -> Dict[str, Any]:
        """One PageRank superstep: sum incoming rank shares per
        destination over this shard's owned out-edges."""
        shares = req.params.get("shares", {})
        disown = disown_param(req.params.get("disown"))
        graph = self._nous.kb.graph_view()
        contrib: Dict[str, float] = {}
        for src in sorted(shares):
            if not graph.has_vertex(src):
                continue
            share = float(shares[src])
            for edge in graph.out_edges(src):
                if not owns_edge(edge, req.shard, req.num_shards, disown):
                    continue
                dst = str(edge.dst)
                contrib[dst] = contrib.get(dst, 0.0) + share
        return {"contrib": dict(sorted(contrib.items()))}

    def _min_labels(self, req: ComputeRequest) -> Dict[str, Any]:
        """One connected-components superstep: min-label messages over
        this shard's owned edges (direction ignored)."""
        labels = {str(v): str(lbl) for v, lbl in req.params.get("labels", {}).items()}
        disown = disown_param(req.params.get("disown"))
        messages: Dict[str, str] = {}

        def offer(target: str, label: str) -> None:
            current = messages.get(target)
            if current is None or _order_key(label) < _order_key(current):
                messages[target] = label

        for edge in self._owned_edges(req):
            src, dst = str(edge.src), str(edge.dst)
            src_label = labels.get(src, src)
            dst_label = labels.get(dst, dst)
            if _order_key(src_label) < _order_key(dst_label):
                offer(dst, src_label)
            elif _order_key(dst_label) < _order_key(src_label):
                offer(src, dst_label)
        return {"messages": dict(sorted(messages.items()))}

    def _resolve(self, req: ComputeRequest) -> Dict[str, Any]:
        """Link mentions onto KB entities with this shard's linker."""
        linker = self._nous.mapper.linker
        return {
            "entities": [
                linker.link(str(m)).entity
                for m in req.params.get("mentions", [])
            ]
        }

    def _mine_embeddings(self, req: ComputeRequest) -> Dict[str, Any]:
        """One phase of the distributed embedding enumeration.

        Window edges are extracted on exactly one shard and never
        replicated, so unlike the graph ops there is no ownership rule
        to apply: this shard's window *is* its owned slice of the merged
        window.  All three phases are pure reads of the miner's
        incrementally-maintained state — no re-enumeration happens here.

        ``census``: the window's vertex set plus the miner settings the
        coordinator needs to plan the job.

        ``local``: the aggregate per-pattern support state (embedding
        counts + per-variable distinct vertex images — every embedding
        whose edges all live here, already counted exactly once by this
        miner) and the window edges incident to the coordinator's
        ``boundary`` vertices, each tagged with its shard-local edge id.

        ``expand``: window edges incident to the requested frontier
        ``vertices`` whose ids are not in ``skip`` — the ids shipped in
        earlier rounds — so each window edge crosses the wire at most
        once per job.
        """
        miner = self._nous.dynamic.miner
        phase = str(req.params.get("phase", ""))
        if phase == MINE_PHASE_CENSUS:
            return {
                "vertices": [str(v) for v in miner.window_vertices()],
                "min_support": miner.min_support,
                "max_edges": miner.max_edges,
                "window_edges": miner.window_size,
                "last_timestamp": float(self._nous.last_timestamp),
            }
        if phase == MINE_PHASE_LOCAL:
            boundary = [str(v) for v in req.params.get("boundary", [])]
            return {
                "patterns": [
                    support_entry_payload(pattern, count, images)
                    for pattern, count, images in miner.support_state()
                ],
                "edges": [
                    instance_edge_payload(eid, edge)
                    for eid, edge in miner.incident_instances(boundary)
                ],
            }
        if phase == MINE_PHASE_EXPAND:
            frontier = [str(v) for v in req.params.get("vertices", [])]
            skip = frozenset(int(e) for e in req.params.get("skip", []))
            return {
                "edges": [
                    instance_edge_payload(eid, edge)
                    for eid, edge in miner.incident_instances(frontier, skip)
                ]
            }
        raise ConfigError(f"unknown mine_embeddings phase {phase!r}")

    def _edge_dump(self, req: ComputeRequest) -> Dict[str, Any]:
        """The ship-everything baseline: the *entire* local partition,
        ownership ignored — what a router would have to pull from every
        shard to rebuild the merged graph centrally."""
        graph = self._nous.kb.graph_view()
        kb = self._nous.kb
        edges = sorted(
            graph.edges(), key=lambda e: (str(e.src), e.label, str(e.dst))
        )
        return {
            "vertices": sorted(str(v) for v in graph.vertices()),
            "entities": [
                [entity, kb.description(entity)]
                for entity in sorted(kb.entities())
            ],
            "edges": [edge_payload(e) for e in edges],
        }

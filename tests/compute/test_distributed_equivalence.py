"""Distributed compute vs the monolith: the superstep contract.

The coordinator's jobs must agree with the single-graph reference
implementations on the *merged* graph, for any partitioning:

- **Analytics** — cluster :meth:`pagerank` / :meth:`components` /
  :meth:`degree_centrality` against :mod:`repro.graph.algorithms` on a
  monolith holding the same facts, N ∈ {1..4} (hypothesis corpora whose
  subjects route to different shards, so edges genuinely split).
- **Cross-shard path search** — :class:`DistributedPathSearch` against
  a :class:`CoherentPathSearch` over the monolith's topic-annotated
  graph, with a lossless beam so tie-ordering cannot leak into the
  comparison: the *sets* of ``(route, coherence)`` must be equal,
  including routes whose edges live on different shards (invisible to
  every per-shard search — the regime this subsystem exists for).
- **Query surface** — ``pagerank`` / ``connected components`` /
  ``degree centrality`` query texts answer byte-identically on a
  cluster and a monolith, and the cluster's merged-result cache serves
  repeats without re-running the compute job.

Process-mode runs cover the ``/v1/shard/compute`` wire route end to
end; they need ``PYTHONHASHSEED`` pinned (the CI compute job pins 0).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import NousConfig, NousService, ServiceConfig, build_drone_kb
from repro.api.cluster.service import ShardedNousService
from repro.compute import DistributedPathSearch
from repro.errors import QAError, VertexNotFoundError
from repro.graph.algorithms import connected_components, pagerank
from repro.kb.knowledge_base import KnowledgeBase
from repro.qa.pathsearch import CoherentPathSearch

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Each process-mode example spawns worker subprocesses; fewer examples
# keep wall clock sane (the local runs pin the logic at full depth, the
# process runs only need to cover the wire transport).
_PROCESS_SETTINGS = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _require_pinned_hashseed():
    """Cross-interpreter identity comparisons (worker subprocesses pin
    their hash seed, the monolith runs in this interpreter) need this
    process pinned too — the CI compute job sets PYTHONHASHSEED=0."""
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        pytest.skip(
            "cross-interpreter identity comparisons need PYTHONHASHSEED set"
        )

# Alphabetic names: the LDA tokenizer drops digit-bearing tokens, and
# an all-numeric entity alphabet would leave it nothing to fit.
_ENTITIES = [
    "Alpha", "Bravo", "Charlie", "Delta",
    "Echo", "Foxtrot", "Golf", "Hotel",
]
_PREDICATES = ["relA", "relB", "relC"]

#: Every corpus carries this backbone so a multi-hop route always
#: exists; drawn edges add shortcuts, branches and cycles around it.
#: Subjects are distinct entities, so subject-routing scatters the
#: chain's edges across shards — the boundary-spanning regime.
_BACKBONE = [
    ("Alpha", "relA", "Bravo"),
    ("Bravo", "relA", "Charlie"),
    ("Charlie", "relA", "Delta"),
]

graph_corpus = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_ENTITIES) - 1),
        st.integers(min_value=0, max_value=len(_ENTITIES) - 1),
        st.integers(min_value=0, max_value=len(_PREDICATES) - 1),
    ),
    min_size=0,
    max_size=10,
)


def _facts(edges):
    facts = list(_BACKBONE)
    for s, o, p in edges:
        if s == o:
            continue
        facts.append((_ENTITIES[s], _PREDICATES[p], _ENTITIES[o]))
    return facts


def _config() -> NousConfig:
    # Small LDA and a lossless beam: every completed route within the
    # hop budget survives on both sides, so set comparison is exact.
    return NousConfig(
        window_size=10_000, min_support=2, lda_iterations=10,
        retrain_every=0, seed=3, max_hops=3, beam_width=64,
    )


def _monolith(facts, kb=None) -> NousService:
    service = NousService(
        kb=kb if kb is not None else KnowledgeBase(),
        config=_config(),
        service_config=ServiceConfig(auto_start=False),
    )
    assert service.ingest_facts(facts, date="2015-06-01").ok
    return service


def _cluster(
    facts, num_shards, shard_mode="local", kb_spec="empty"
) -> ShardedNousService:
    cluster = ShardedNousService(
        num_shards=num_shards,
        config=_config(),
        service_config=ServiceConfig(auto_start=False),
        shard_mode=shard_mode,
        kb_spec=kb_spec,
    )
    assert cluster.ingest_facts(facts, date="2015-06-01").ok
    return cluster


def _reference_search(mono: NousService) -> CoherentPathSearch:
    """The monolith's own topic-annotated graph under the monolith's
    search settings — the cluster's topic space must derive the same
    vectors from the union entity/description set."""
    config = _config()
    return CoherentPathSearch(
        mono.nous._topic_annotated_graph(),
        max_hops=config.max_hops,
        beam_width=config.beam_width,
    )


def _distributed_search(cluster: ShardedNousService) -> DistributedPathSearch:
    config = _config()
    return DistributedPathSearch(
        cluster.compute_coordinator(),
        n_topics=config.n_topics,
        lda_iterations=config.lda_iterations,
        seed=config.seed,
        max_hops=config.max_hops,
        beam_width=config.beam_width,
    )


def _route_set(paths):
    return {(tuple(p.nodes), round(p.coherence, 9)) for p in paths}


# ---------------------------------------------------------------------------
# cross-shard path search
# ---------------------------------------------------------------------------

class TestPathSearchEquivalence:
    @_SETTINGS
    @given(edges=graph_corpus, num_shards=st.integers(min_value=1, max_value=4))
    def test_route_sets_match_monolith(self, edges, num_shards):
        self._check(edges, num_shards, "local")

    @_PROCESS_SETTINGS
    @given(edges=graph_corpus, num_shards=st.integers(min_value=2, max_value=3))
    def test_route_sets_match_monolith_process_shards(self, edges, num_shards):
        _require_pinned_hashseed()
        self._check(edges, num_shards, "process")

    def _check(self, edges, num_shards, shard_mode):
        facts = _facts(edges)
        mono = _monolith(facts)
        cluster = _cluster(facts, num_shards, shard_mode)
        try:
            reference = _reference_search(mono)
            distributed = _distributed_search(cluster)
            # k past any plausible route count: no top-k cut, so the
            # comparison is over *all* completed routes.
            assert _route_set(
                distributed.top_k_paths("Alpha", "Delta", k=50)
            ) == _route_set(reference.top_k_paths("Alpha", "Delta", k=50))
        finally:
            mono.close()
            cluster.close()

    #: New entities around a *described* curated base: the base fit is
    #: over the replicated descriptions, the newcomers are folded in.
    _DESCRIBED_FACTS = [
        ("Acme_Drone_Works", "partnerOf", "DJI"),
        ("Acme_Drone_Works", "acquired", "Zed_Capital"),
        ("Zed_Capital", "investsIn", "GoPro"),
        ("Rotor_Camera_Labs", "partnerOf", "Zed_Capital"),
        ("Rotor_Camera_Labs", "suppliesTo", "Parrot"),
    ]

    @pytest.mark.parametrize("shard_mode", ["local", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_described_base_matches_monolith(self, num_shards, shard_mode):
        if shard_mode == "process":
            _require_pinned_hashseed()
        mono = _monolith(self._DESCRIBED_FACTS, kb=build_drone_kb())
        cluster = _cluster(
            self._DESCRIBED_FACTS, num_shards, shard_mode, kb_spec="drone"
        )
        try:
            reference = _reference_search(mono)
            distributed = _distributed_search(cluster)
            for source, target in [
                ("GoPro", "Parrot"), ("Rotor_Camera_Labs", "DJI"),
            ]:
                expected = _route_set(reference.top_k_paths(source, target, k=50))
                assert expected
                assert _route_set(
                    distributed.top_k_paths(source, target, k=50)
                ) == expected
            # One base over the curated descriptions on both sides; the
            # minted entities took part in neither fit.
            assert (
                distributed.topic_space.base.doc_ids
                == mono.nous.topics.doc_ids
                == sorted(e for e in build_drone_kb().entities())
            )
        finally:
            mono.close()
            cluster.close()

    def test_boundary_spanning_route_is_found(self):
        """The three backbone edges route to three *different* shards at
        N=4 (pinned below) — the whole route is invisible to every
        per-shard search, yet the distributed search walks it."""
        facts = list(_BACKBONE)
        cluster = _cluster(facts, 4)
        try:
            homes = {
                cluster.router.shard_for_entity(s) for s, _p, _o in facts
            }
            assert len(homes) > 1, "fixture no longer spans shards"
            paths = _distributed_search(cluster).top_k_paths(
                "Alpha", "Delta", k=3
            )
            assert [str(n) for n in paths[0].nodes] == [
                "Alpha", "Bravo", "Charlie", "Delta",
            ]
        finally:
            cluster.close()

    def test_relationship_constraint_filters_routes(self):
        facts = list(_BACKBONE) + [("Alpha", "relB", "Delta")]
        cluster = _cluster(facts, 3)
        try:
            search = _distributed_search(cluster)
            constrained = search.top_k_paths(
                "Alpha", "Delta", k=10, relationship="relB"
            )
            assert constrained
            assert all(
                any(edge.label == "relB" for edge in path.edges)
                for path in constrained
            )
        finally:
            cluster.close()

    def test_absent_endpoints_raise_structured_errors(self):
        cluster = _cluster(list(_BACKBONE), 2)
        try:
            search = _distributed_search(cluster)
            with pytest.raises(VertexNotFoundError):
                search.top_k_paths("Alpha", "Nowhere", k=3)
            with pytest.raises(QAError):
                search.top_k_paths("Alpha", "Alpha", k=3)
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# analytics jobs
# ---------------------------------------------------------------------------

class TestAnalyticsEquivalence:
    @_SETTINGS
    @given(edges=graph_corpus, num_shards=st.integers(min_value=1, max_value=4))
    def test_jobs_match_reference_algorithms(self, edges, num_shards):
        self._check(edges, num_shards, "local")

    @_PROCESS_SETTINGS
    @given(edges=graph_corpus, num_shards=st.integers(min_value=2, max_value=3))
    def test_jobs_match_reference_algorithms_process_shards(
        self, edges, num_shards
    ):
        self._check(edges, num_shards, "process")

    def _check(self, edges, num_shards, shard_mode):
        facts = _facts(edges)
        mono = _monolith(facts)
        cluster = _cluster(facts, num_shards, shard_mode)
        try:
            graph = mono.nous.kb.to_property_graph()
            coordinator = cluster.compute_coordinator()

            reference_ranks = {
                str(v): score for v, score in pagerank(graph).items()
            }
            ranks = coordinator.pagerank()
            assert set(ranks) == set(reference_ranks)
            for vertex, score in reference_ranks.items():
                assert ranks[vertex] == pytest.approx(score, abs=1e-9)

            reference_parts = _partitions(
                {str(v): str(c) for v, c in connected_components(graph).items()}
            )
            assert _partitions(coordinator.components()) == reference_parts

            assert coordinator.degree_centrality() == {
                str(v): graph.degree(v) for v in graph.vertices()
            }
        finally:
            mono.close()
            cluster.close()


def _partitions(labels):
    groups = {}
    for vertex, label in labels.items():
        groups.setdefault(label, set()).add(vertex)
    return frozenset(frozenset(members) for members in groups.values())


# ---------------------------------------------------------------------------
# query surface + result cache
# ---------------------------------------------------------------------------

ANALYTICS_QUERIES = [
    "pagerank",
    "show pagerank top 5",
    "connected components",
    "degree centrality",
    "most connected entities top 3",
]


class TestAnalyticsQuerySurface:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_envelopes_byte_identical_to_monolith(self, num_shards):
        facts = _facts([(0, 4, 0), (4, 5, 1), (5, 0, 2), (6, 7, 0)])
        mono = _monolith(facts)
        cluster = _cluster(facts, num_shards)
        try:
            for text in ANALYTICS_QUERIES:
                expected = mono.query(text)
                actual = cluster.query(text)
                assert actual.ok and expected.ok, text
                assert actual.kind == expected.kind, text
                assert actual.payload == expected.payload, text
                assert actual.rendered == expected.rendered, text
        finally:
            mono.close()
            cluster.close()

    def test_result_cache_skips_repeat_compute_jobs(self):
        cluster = _cluster(list(_BACKBONE), 2)
        try:
            first = cluster.query("pagerank top 5")
            assert first.ok
            jobs_after_first = cluster.cluster_info()["compute"]["jobs"]
            assert jobs_after_first >= 1
            repeat = cluster.query("pagerank top 5")
            assert repeat.payload == first.payload
            # Served from the composite-stamp cache: no new compute job.
            assert cluster.cluster_info()["compute"]["jobs"] == jobs_after_first
            # A KG mutation moves the stamp and re-runs the job.
            assert cluster.ingest_facts(
                [("Foxtrot", "relB", "Alpha")], date="2015-06-02"
            ).ok
            refreshed = cluster.query("pagerank top 5")
            assert refreshed.ok
            assert cluster.cluster_info()["compute"]["jobs"] > jobs_after_first
            assert refreshed.payload != first.payload
        finally:
            cluster.close()

    def test_compute_counters_surface_under_cluster_stats(self):
        cluster = _cluster(list(_BACKBONE), 2)
        try:
            assert cluster.query("why is Alpha related to Delta").ok
            stats = cluster.statistics()
            assert stats.ok
            compute = stats.payload["cluster"]["compute"]
            assert compute["path_searches"] >= 1
            assert compute["jobs"] >= 1
            assert compute["supersteps"] >= 1
            assert compute["cross_shard_bytes"] > 0
            assert compute["last_messages_per_step"]
        finally:
            cluster.close()

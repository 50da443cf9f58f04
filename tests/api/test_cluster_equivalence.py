"""Sharded-vs-monolith equivalence: the scatter-gather contract.

Three layers, weakest assumptions last:

- **Single shard is the monolith** — ``ShardedNousService(N=1)`` must
  answer *byte-for-byte* like a ``NousService`` on the same corpus, for
  every query class, statistics included.  This pins the merge
  assembly itself (renderers, top-k direction, support summation,
  curated-once statistics) with zero partitioning noise.
- **Structured star corpora** (hypothesis) — random star-shaped fact
  sets whose pattern embeddings are co-located by construction: every
  query class must be *set-equal* between N ∈ {1..4} shards and the
  monolith, trending supports exactly.
- **Text corpora** (hypothesis) — random simple-sentence documents over
  curated entities, ingested through the full NLP pipeline one
  micro-batch per document; entity / entity-trend / pattern answers
  must be set-equal up to ranking scores (confidences drift with
  source-trust order, which is partition-dependent by design).

Every layer runs in **both shard modes**: ``local`` (in-process
``NousService`` shards) and ``process`` (``nous serve`` worker
subprocesses behind ``RemoteShardClient``) — the wire transport must
not change a single merged answer.  Process-mode hypothesis runs draw
fewer examples (each example spawns real subprocesses); the merge
logic itself is pinned at full depth by the local runs, so the process
runs only need to cover the transport.

Run under ``PYTHONHASHSEED=0`` (the CI ``shards`` /
``process-shards`` jobs do) for reproducible counterexamples.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    NousConfig,
    NousService,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
)
from repro.api.wire import decode_payload
from repro.kb.knowledge_base import KnowledgeBase

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Each process-mode example spawns num_shards worker subprocesses;
# fewer examples keep the suite's wall clock sane while still smoking
# the wire transport end to end.
_PROCESS_SETTINGS = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SHARD_MODES = ("local", "process")

#: Worker subprocesses hash deterministically (PYTHONHASHSEED pinned by
#: ShardProcessManager), but the *monolith* they are compared against
#: runs in this interpreter.  Comparisons that are sensitive to
#: cross-interpreter iteration order (byte-identical envelopes, path
#: ranking) therefore need this process pinned too — exactly why the
#: golden driver runs under PYTHONHASHSEED=0.  Set-equality checks are
#: order-robust and run regardless.
_HASH_PINNED = os.environ.get("PYTHONHASHSEED", "random") != "random"


def _require_pinned_hashseed(shard_mode):
    if shard_mode == "process" and not _HASH_PINNED:
        pytest.skip(
            "cross-interpreter identity comparisons need PYTHONHASHSEED "
            "set (the CI shards/process-shards jobs pin 0)"
        )


def _make_cluster(shard_mode, kb_spec, num_shards, config, service_config):
    """A cluster over the named curated base, in either shard mode
    (``kb_spec`` resolves identically on workers and in-process)."""
    return ShardedNousService(
        num_shards=num_shards,
        config=config,
        service_config=service_config,
        shard_mode=shard_mode,
        kb_spec=kb_spec,
    )


def _structured_config() -> NousConfig:
    # Window far larger than any generated corpus: shard windows and the
    # monolith window then hold identical content (count-window eviction
    # is the one partition-dependent effect we exclude on purpose; the
    # stress/golden suites cover evicting windows).
    return NousConfig(window_size=10_000, min_support=2, seed=3)


def _service_config() -> ServiceConfig:
    return ServiceConfig(auto_start=False)


def _trending_set(envelope):
    report = decode_payload("trending", envelope.payload)
    return {(p.describe(), s) for p, s in report.closed_frequent}


def _entity_fact_keys(envelope):
    summary = decode_payload("entity", envelope.payload)
    return {(s, p, o, curated) for s, p, o, _conf, curated in summary.facts}


def _trend_keys(envelope):
    rows = decode_payload("entity-trend", envelope.payload)
    return {(ts, s, p, o) for ts, s, p, o, _conf in rows}


def _match_set(envelope):
    matches = decode_payload("pattern", envelope.payload)
    return {tuple(sorted(m.items())) for m in matches}


# ---------------------------------------------------------------------------
# structured star corpora
# ---------------------------------------------------------------------------

star_corpus = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),   # spokes per hub
        st.integers(min_value=1, max_value=3),   # distinct predicates
    ),
    min_size=1,
    max_size=5,
)


def _star_facts(shape):
    """Star-shaped facts: hub ``h`` emits ``spokes`` facts over its own
    predicate alphabet.  Facts sharing a node always share their hub
    subject, so routing by subject co-locates every pattern embedding
    (and every node binding) on one shard — the regime where summed MNI
    supports are exact."""
    facts = []
    for h, (spokes, preds) in enumerate(shape):
        for j in range(spokes):
            facts.append((f"Hub{h}", f"rel{h}x{j % preds}", f"Spoke{h}x{j}"))
    return facts


class TestStructuredEquivalence:
    @_SETTINGS
    @given(shape=star_corpus, num_shards=st.integers(min_value=1, max_value=4))
    def test_every_query_class_set_equal(self, shape, num_shards):
        self._check(shape, num_shards, "local")

    @_PROCESS_SETTINGS
    @given(shape=star_corpus, num_shards=st.integers(min_value=1, max_value=3))
    def test_every_query_class_set_equal_process_shards(
        self, shape, num_shards
    ):
        self._check(shape, num_shards, "process")

    def _check(self, shape, num_shards, shard_mode):
        facts = _star_facts(shape)
        mono = NousService(
            kb=KnowledgeBase(),
            config=_structured_config(),
            service_config=_service_config(),
        )
        cluster = _make_cluster(
            shard_mode,
            "empty",
            num_shards,
            _structured_config(),
            _service_config(),
        )
        try:
            assert mono.ingest_facts(facts, date="2015-06-01").ok
            assert cluster.ingest_facts(facts, date="2015-06-01").ok

            # statistics first: entity queries below *mint* the queried
            # mention on shards that never saw it (the monolith's
            # documented unknown-mention behaviour, once per shard),
            # which would legitimately skew entity counts afterwards.
            mono_stats = mono.statistics().payload
            cluster_stats = cluster.statistics().payload
            for key in (
                "num_facts",
                "num_entities",
                "curated_facts",
                "extracted_facts",
                "confidence_histogram",
                "facts_per_predicate",
                "facts_per_source",
                "entities_per_type",
            ):
                assert cluster_stats[key] == mono_stats[key], key

            # trending: closed frequent patterns with exact supports
            assert _trending_set(
                cluster.query("show trending patterns")
            ) == _trending_set(mono.query("show trending patterns"))

            hubs = sorted({s for s, _p, _o in facts})
            predicates = sorted({p for _s, p, _o in facts})
            for hub in hubs:
                # entity: union + dedupe fact sets
                assert _entity_fact_keys(
                    cluster.query(f"tell me about {hub}")
                ) == _entity_fact_keys(mono.query(f"tell me about {hub}"))
                # entity-trend: window rows about the hub
                assert _trend_keys(
                    cluster.query(f"what's new about {hub}")
                ) == _trend_keys(mono.query(f"what's new about {hub}"))
            for predicate in predicates:
                # pattern: binding rows (embeddings are shard-local for
                # stars, so the union is the monolith's match set)
                assert _match_set(
                    cluster.query(f"match (?a)-[{predicate}]->(?b)")
                ) == _match_set(mono.query(f"match (?a)-[{predicate}]->(?b)"))
        finally:
            mono.close()
            cluster.close()


# ---------------------------------------------------------------------------
# text corpora through the full NLP pipeline
# ---------------------------------------------------------------------------

_COMPANIES = [
    "DJI", "GoPro", "Intel", "Amazon", "Google", "Boeing",
    "AeroVironment", "CyPhy_Works",
]
_VERBS = ["acquired", "partnered with"]

text_corpus = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_COMPANIES) - 1),  # subject
        st.integers(min_value=0, max_value=len(_COMPANIES) - 1),  # object
        st.integers(min_value=0, max_value=len(_VERBS) - 1),      # verb
    ),
    min_size=2,
    max_size=10,
)


def _render_docs(pairs):
    """One simple SVO document per drawn pair (self-loops skipped).

    Mentions are exact curated names, so linking is unambiguous and no
    entities are minted — document answers then depend only on the
    document, not on which other documents share its shard.
    """
    docs = []
    for i, (s, o, v) in enumerate(pairs):
        if s == o:
            continue
        subject = _COMPANIES[s].replace("_", " ")
        object_ = _COMPANIES[o].replace("_", " ")
        docs.append(
            {
                "text": f"{subject} {_VERBS[v]} {object_}.",
                "doc_id": f"doc-{i}",
                "date": f"2015-06-{(i % 27) + 1:02d}",
                "source": "equivalence",
            }
        )
    return docs


def _text_config() -> NousConfig:
    # accept_threshold=0: source trust evolves in partition-dependent
    # order, so near-threshold confidences could gate differently per
    # sharding; with the gate open, the accepted fact *set* is exactly
    # the mapped set on any partitioning.
    return NousConfig(window_size=10_000, min_support=2,
                      accept_threshold=0.0, retrain_every=0, seed=3)


def _ingest_docs(service, docs):
    from repro.api.envelopes import IngestRequest

    tickets = service.submit_many(
        [IngestRequest.from_dict(doc) for doc in docs]
    )
    service.flush()
    for ticket in tickets:
        assert ticket.result(timeout=0).ok


class TestTextEquivalence:
    @_SETTINGS
    @given(pairs=text_corpus, num_shards=st.integers(min_value=1, max_value=4))
    def test_entity_answers_partition_invariant(self, pairs, num_shards):
        self._check(pairs, num_shards, "local")

    @_PROCESS_SETTINGS
    @given(pairs=text_corpus, num_shards=st.integers(min_value=1, max_value=3))
    def test_entity_answers_partition_invariant_process_shards(
        self, pairs, num_shards
    ):
        self._check(pairs, num_shards, "process")

    def _check(self, pairs, num_shards, shard_mode):
        docs = _render_docs(pairs)
        if not docs:
            return
        # max_batch=1: collective entity linking runs per document on
        # both sides, so linking cannot depend on batch co-location.
        service_config = ServiceConfig(auto_start=False, max_batch=1)
        mono = NousService(
            kb=build_drone_kb(),
            config=_text_config(),
            service_config=service_config,
        )
        cluster = _make_cluster(
            shard_mode, "drone", num_shards, _text_config(), service_config
        )
        try:
            _ingest_docs(mono, docs)
            _ingest_docs(cluster, docs)
            mentioned = sorted(
                {_COMPANIES[s] for s, o, _v in pairs if s != o}
                | {_COMPANIES[o] for s, o, _v in pairs if s != o}
            )
            for company in mentioned:
                mention = company.replace("_", " ")
                assert _entity_fact_keys(
                    cluster.query(f"tell me about {mention}")
                ) == _entity_fact_keys(mono.query(f"tell me about {mention}"))
                assert _trend_keys(
                    cluster.query(f"what's new about {mention}")
                ) == _trend_keys(mono.query(f"what's new about {mention}"))
            for predicate in ("acquired", "partnerOf"):
                assert _match_set(
                    cluster.query(f"match (?a)-[{predicate}]->(?b)")
                ) == _match_set(mono.query(f"match (?a)-[{predicate}]->(?b)"))
            # fact totals are partition-invariant
            assert (
                cluster.statistics().payload["num_facts"]
                == mono.statistics().payload["num_facts"]
            )
        finally:
            mono.close()
            cluster.close()


class TestPathEquivalence:
    """Path answers on a corpus co-located by dominant entity.

    Every document leads with the same hub entity (mentioned twice, so
    the dominant-entity router sends all documents to one shard); the
    loaded shard is then state-identical to the monolith, and the
    merged top-k must contain the monolith's best answer with an
    equal-or-better top coherence (other shards can only contribute
    curated-graph routes).
    """

    @_SETTINGS
    @given(
        objects=st.lists(
            st.integers(min_value=1, max_value=len(_COMPANIES) - 1),
            min_size=2,
            max_size=5,
            unique=True,
        ),
        num_shards=st.integers(min_value=2, max_value=4),
    )
    def test_monolith_best_path_survives_merge(self, objects, num_shards):
        self._check(objects, num_shards, "local")

    @pytest.mark.skipif(
        not _HASH_PINNED,
        reason="cross-interpreter path ranking needs PYTHONHASHSEED set "
        "(the CI shards/process-shards jobs pin 0)",
    )
    @_PROCESS_SETTINGS
    @given(
        objects=st.lists(
            st.integers(min_value=1, max_value=len(_COMPANIES) - 1),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        num_shards=st.integers(min_value=2, max_value=3),
    )
    def test_monolith_best_path_survives_merge_process_shards(
        self, objects, num_shards
    ):
        self._check(objects, num_shards, "process")

    def _check(self, objects, num_shards, shard_mode):
        hub = _COMPANIES[0]  # DJI
        docs = [
            {
                "text": (
                    f"{hub} acquired {_COMPANIES[o].replace('_', ' ')}. "
                    f"{hub} announced record sales."
                ),
                "doc_id": f"doc-{i}",
                "date": f"2015-06-{i + 1:02d}",
                "source": "paths",
            }
            for i, o in enumerate(objects)
        ]
        service_config = ServiceConfig(auto_start=False, max_batch=1)
        mono = NousService(
            kb=build_drone_kb(),
            config=_text_config(),
            service_config=service_config,
        )
        cluster = _make_cluster(
            shard_mode, "drone", num_shards, _text_config(), service_config
        )
        try:
            _ingest_docs(mono, docs)
            _ingest_docs(cluster, docs)
            # the hub's shard received every document
            assert [c for c in cluster.documents_routed if c] == [len(docs)]
            target = _COMPANIES[objects[0]].replace("_", " ")
            query = f"how is {hub} related to {target}"
            mono_paths = decode_payload(
                "relationship", mono.query(query).payload
            )
            merged_envelope = cluster.query(query)
            merged_paths = decode_payload(
                "relationship", merged_envelope.payload
            )
            assert mono_paths and merged_paths
            merged_routes = [tuple(map(str, p.nodes)) for p in merged_paths]
            assert tuple(map(str, mono_paths[0].nodes)) in merged_routes
            assert (
                merged_paths[0].coherence
                <= mono_paths[0].coherence + 1e-9
            )
        finally:
            mono.close()
            cluster.close()


# ---------------------------------------------------------------------------
# the base case: one shard IS the monolith
# ---------------------------------------------------------------------------

class TestSingleShardIsMonolith:
    QUERIES = [
        "tell me about DJI",
        "show trending patterns",
        "what's new about DJI",
        "match (?a:Company)-[acquired]->(?b:Company)",
        "how is GoPro related to DJI",
        "why does Windermere use drones",
        "tell me about NoSuchEntity",
        "how is DJI related to Atlantis99",  # qa error on both sides
    ]

    @pytest.fixture(scope="class", params=SHARD_MODES)
    def pair(self, request):
        _require_pinned_hashseed(request.param)
        from repro import CorpusConfig, generate_corpus, generate_descriptions

        def factory():
            kb = build_drone_kb()
            articles = generate_corpus(kb, CorpusConfig(n_articles=24, seed=7))
            generate_descriptions(kb, seed=7)
            return kb, articles

        config = NousConfig(
            window_size=200, min_support=2, lda_iterations=10, seed=7
        )
        service_config = ServiceConfig(auto_start=False, max_batch=24)
        kb, articles = factory()
        mono = NousService(
            kb=kb, config=config, service_config=service_config
        )
        mono.submit_many(articles)
        mono.flush()
        # "world:24:7" names exactly what factory() builds — the single
        # shard starts from the same curated base in both modes.
        one = _make_cluster(
            request.param, "world:24:7", 1, config, service_config
        )
        one.submit_many(articles)
        one.flush()
        yield mono, one
        mono.close()
        one.close()

    @pytest.mark.parametrize("query", QUERIES)
    def test_envelopes_identical(self, pair, query):
        mono, one = pair
        a = mono.query(query)
        b = one.query(query)
        assert a.ok == b.ok
        assert a.kind == b.kind
        assert a.rendered == b.rendered
        assert a.payload == b.payload
        if not a.ok:
            assert a.error.code == b.error.code

    def test_statistics_identical(self, pair):
        mono, one = pair
        a = mono.statistics()
        b = one.statistics()
        payload = dict(b.payload)
        cluster_block = payload.pop("cluster")
        assert payload == a.payload
        assert a.rendered == b.rendered
        assert cluster_block["shards"] == 1

    def test_composite_stamp_is_singleton(self, pair):
        mono, one = pair
        assert one.shard_versions == (one.shards[0].kg_version,)
        assert one.kg_version == one.shards[0].kg_version
        assert mono.kg_version > 0


class TestStatisticsRankTies:
    """Equal PageRank scores must order the same way on both sides:
    ``Zed`` and ``Abe`` (inserted in that order) tie exactly, and the
    monolith used to list them in insertion order while the merge
    tie-breaks by name."""

    @staticmethod
    def _kb():
        kb = KnowledgeBase()
        kb.add_fact("Zed", "linksTo", "Hub")
        kb.add_fact("Abe", "linksTo", "Hub")
        return kb

    def test_central_entities_identical_on_ties(self):
        mono = NousService(kb=self._kb(), service_config=_service_config())
        one = ShardedNousService(
            kb_factory=self._kb, num_shards=1,
            service_config=_service_config(),
        )
        try:
            a = mono.statistics()
            b = one.statistics()
        finally:
            mono.close()
            one.close()
        central = a.payload["central_entities"]
        assert [entity for entity, _rank in central] == ["Hub", "Abe", "Zed"]
        assert central[1][1] == central[2][1]  # a genuine tie
        assert b.payload["central_entities"] == central
        assert a.rendered == b.rendered


# ---------------------------------------------------------------------------
# restart mid-stream: durability must not change a single merged answer
# ---------------------------------------------------------------------------

class TestRestartMidStream:
    """Snapshot, SIGKILL and recover a shard *between micro-batches*.

    The restarted cluster ingests half the corpus, snapshots, loses a
    worker to ``kill -9``, recovers it from snapshot + WAL through the
    supervisor, then ingests the rest.  At ``N=1`` its answers must be
    byte-identical to a monolith that never restarted; at ``N=3`` they
    must be byte-identical to an *identically partitioned* cluster that
    never restarted (the strongest restart-transparency statement:
    same partitioning, same batching, one crash — zero drift).
    """

    QUERIES = [
        "tell me about DJI",
        "show trending patterns",
        "what's new about DJI",
        "match (?a:Company)-[acquired]->(?b:Company)",
        "how is GoPro related to DJI",
    ]

    N_ARTICLES = 12

    def _world(self):
        from repro import CorpusConfig, generate_corpus, generate_descriptions

        kb = build_drone_kb()
        articles = generate_corpus(
            kb, CorpusConfig(n_articles=self.N_ARTICLES, seed=7)
        )
        generate_descriptions(kb, seed=7)
        return kb, articles

    def _config(self):
        return NousConfig(
            window_size=200, min_support=2, lda_iterations=10, seed=7
        )

    def _cluster(self, num_shards, tmp_path=None):
        return ShardedNousService(
            num_shards=num_shards,
            config=self._config(),
            service_config=ServiceConfig(
                auto_start=False, max_batch=self.N_ARTICLES
            ),
            shard_mode="process",
            kb_spec=f"world:{self.N_ARTICLES}:7",
            data_dir=None if tmp_path is None else str(tmp_path / "data"),
            restart_backoff=0.05,
        )

    def _ingest_with_restart(self, cluster, articles, victim):
        half = len(articles) // 2
        cluster.submit_many(articles[:half])
        cluster.flush()
        cluster.snapshot()
        worker = cluster._manager.workers[victim]
        worker.process.kill()
        worker.process.wait(timeout=10)
        assert victim in cluster.dead_shards()
        # No explicit recovery: submit_many's entry gate respawns and
        # replays before routing the second half.
        cluster.submit_many(articles[half:])
        cluster.flush()
        assert cluster.dead_shards() == []
        assert cluster.cluster_info()["shard_restarts"][victim] == 1

    def test_single_shard_restart_equals_monolith(self, tmp_path):
        _require_pinned_hashseed("process")
        kb, articles = self._world()
        mono = NousService(
            kb=kb,
            config=self._config(),
            service_config=ServiceConfig(
                auto_start=False, max_batch=self.N_ARTICLES
            ),
        )
        restarted = self._cluster(1, tmp_path)
        try:
            # Same micro-batch boundaries as the restarted side: trust
            # evolves at batch granularity, so confidence values are
            # only comparable under identical chunking.
            half = len(articles) // 2
            mono.submit_many(articles[:half])
            mono.flush()
            mono.submit_many(articles[half:])
            mono.flush()
            self._ingest_with_restart(restarted, articles, victim=0)
            for query in self.QUERIES:
                a = mono.query(query)
                b = restarted.query(query)
                assert a.ok == b.ok, query
                assert a.payload == b.payload, query
                assert a.rendered == b.rendered, query
            stats = dict(restarted.statistics().payload)
            stats.pop("cluster")
            assert stats == mono.statistics().payload
        finally:
            mono.close()
            restarted.close()

    def test_three_shard_restart_is_transparent(self, tmp_path):
        _require_pinned_hashseed("process")
        _kb, articles = self._world()
        reference = self._cluster(3)
        restarted = self._cluster(3, tmp_path)
        try:
            half = len(articles) // 2
            reference.submit_many(articles[:half])
            reference.flush()
            reference.submit_many(articles[half:])
            reference.flush()
            self._ingest_with_restart(restarted, articles, victim=1)
            assert restarted.documents_routed == reference.documents_routed
            assert restarted.shard_versions == reference.shard_versions
            for query in self.QUERIES:
                a = reference.query(query)
                b = restarted.query(query)
                assert a.ok == b.ok, query
                assert a.payload == b.payload, query
                assert a.rendered == b.rendered, query
            a_stats = dict(reference.statistics().payload)
            b_stats = dict(restarted.statistics().payload)
            a_stats.pop("cluster")
            b_stats.pop("cluster")
            assert a_stats == b_stats
        finally:
            reference.close()
            restarted.close()


# ---------------------------------------------------------------------------
# boundary-straddling embeddings: the regression summation could not see
# ---------------------------------------------------------------------------

class TestBoundaryStraddlingTrending:
    """Red-first regression for cross-shard pattern embeddings (ISSUE 9).

    Two funding stars whose hub chains split across shards at ``N=2``
    (``alpha``/``beta``/``delta`` route to shard 1; ``omega``/``gamma``/
    ``pi`` to shard 0): the ``funds+advises`` pattern through ``omega``
    and the ``funds+funds`` pair through ``pi`` have embeddings whose
    edges live on *different* shards, invisible to every per-shard
    miner.  The retired merge — summing per-shard MNI support tables —
    both missed those embeddings and summed per-shard minima instead of
    taking the minimum over unioned node images, so it disagreed with
    the monolith in each direction.  The first test keeps the red pin
    alive as a strict inequality (if it ever passes, the corpus stopped
    straddling and the suite lost its teeth); the second pins the
    distributed enumeration to the exact monolith value.
    """

    _FACTS = [
        ("alpha", "funds", "omega"),
        ("beta", "funds", "omega"),
        ("omega", "advises", "zed"),
        ("gamma", "funds", "pi"),
        ("delta", "funds", "pi"),
        ("pi", "advises", "ku"),
    ]

    def _monolith(self):
        mono = NousService(
            kb=KnowledgeBase(),
            config=_structured_config(),
            service_config=_service_config(),
        )
        assert mono.ingest_facts(self._FACTS, date="2015-06-01").ok
        return mono

    def _cluster(self, shard_mode):
        cluster = _make_cluster(
            shard_mode, "empty", 2, _structured_config(), _service_config()
        )
        assert cluster.ingest_facts(self._FACTS, date="2015-06-01").ok
        return cluster

    @staticmethod
    def _summed_supports(cluster):
        """The retired merge, reproduced: per-shard MNI supports (each
        shard's minimum over its *own* variable images) summed across
        shards — exactly what ``merge_window_reports`` consumed before
        the distributed enumeration replaced it."""
        from repro.compute.protocol import (
            MINE_PHASE_LOCAL,
            OP_MINE_EMBEDDINGS,
            support_entry_from_payload,
        )

        coord = cluster.compute_coordinator()
        coord.begin_job()
        local = coord._round(
            OP_MINE_EMBEDDINGS,
            {
                i: {"phase": MINE_PHASE_LOCAL, "boundary": []}
                for i in range(coord.num_shards)
            },
        )
        summed = {}
        for index in range(coord.num_shards):
            for entry in local[index]["patterns"]:
                pattern, _count, images = support_entry_from_payload(entry)
                support = min(
                    len(images[var]) for var in pattern.variables()
                )
                summed[pattern] = summed.get(pattern, 0) + support
        return summed

    @staticmethod
    def _exact_supports(mono):
        return {
            pattern: min(len(images[var]) for var in pattern.variables())
            for pattern, _count, images
            in mono.nous.dynamic.miner.support_state()
        }

    def test_summed_merge_disagrees_on_this_corpus(self):
        mono = self._monolith()
        cluster = self._cluster("local")
        try:
            homes = {
                cluster.router.shard_for_entity(s)
                for s, _p, _o in self._FACTS
            }
            assert len(homes) == 2, "fixture no longer spans shards"
            exact = self._exact_supports(mono)
            summed = self._summed_supports(cluster)
            assert summed != exact
            # At least one multi-edge pattern is undercounted: its
            # straddling embeddings were invisible to both shards.
            assert any(
                summed.get(pattern, 0) < support
                for pattern, support in exact.items()
                if len(pattern.edges) > 1
            )
        finally:
            mono.close()
            cluster.close()

    @pytest.mark.parametrize("shard_mode", SHARD_MODES)
    def test_trending_equals_monolith_exactly(self, shard_mode):
        _require_pinned_hashseed(shard_mode)
        mono = self._monolith()
        cluster = self._cluster(shard_mode)
        try:
            expected = mono.query("show trending patterns")
            actual = cluster.query("show trending patterns")
            assert actual.ok and expected.ok
            assert _trending_set(actual) == _trending_set(expected)
            assert actual.payload == expected.payload
            assert actual.rendered == expected.rendered
        finally:
            mono.close()
            cluster.close()

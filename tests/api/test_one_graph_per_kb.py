"""One materialisation per KB: every whole-graph reader — path search,
pagerank, components, centrality, statistics, pattern matching, shard
compute supersteps — reads the KB's maintained ``graph_view()``.

``to_property_graph()`` is the mirror's first materialisation and
nothing else, so however many writes and reads interleave it runs once
per :class:`KnowledgeBase` instance and the mirror object never changes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    CorpusConfig,
    NousConfig,
    NousService,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
    generate_corpus,
)
from repro.api.cluster.process import resolve_kb_spec
from repro.kb.knowledge_base import KnowledgeBase

KB_SPEC = "world:12:7"  # the drone KB extended by this corpus' world
CYCLES = 3

READS = [
    "how is GoPro related to DJI",
    "show pagerank top 5",
    "show connected components",
    "show degree centrality top 5",
    "match (?a:Company)-[acquired]->(?b:Company)",
]


@pytest.fixture
def materialisations(monkeypatch):
    """id(kb) -> number of ``to_property_graph`` calls on it."""
    calls: Counter = Counter()
    original = KnowledgeBase.to_property_graph

    def counting(self):
        calls[id(self)] += 1
        return original(self)

    monkeypatch.setattr(KnowledgeBase, "to_property_graph", counting)
    return calls


def _config() -> NousConfig:
    return NousConfig(window_size=200, min_support=2, lda_iterations=5, seed=7)


def _write_cycles():
    """CYCLES micro-batches of articles over the ``KB_SPEC`` world."""
    articles = generate_corpus(
        build_drone_kb(), CorpusConfig(n_articles=12, seed=7)
    )
    size = len(articles) // CYCLES
    return [articles[i * size:(i + 1) * size] for i in range(CYCLES)]


def _write(service, articles) -> None:
    stamp = service.kg_version
    service.submit_many(articles)
    service.flush()
    assert service.kg_version > stamp  # so every read below is a cache miss


def _read_all(service) -> None:
    for text in READS:
        response = service.query(text)
        assert response.ok, (text, response.error)
    assert service.statistics().ok


def test_monolith_materialises_once(materialisations):
    service = NousService(
        kb=resolve_kb_spec(KB_SPEC),
        config=_config(),
        service_config=ServiceConfig(auto_start=False),
    )
    try:
        kb = service.nous.kb
        view = kb.graph_view()
        for articles in _write_cycles():
            _write(service, articles)
            _read_all(service)
        assert kb.graph_view() is view
        assert materialisations == {id(kb): 1}
    finally:
        service.close()


def test_two_shard_cluster_materialises_once_per_shard(materialisations):
    cluster = ShardedNousService(
        num_shards=2,
        kb_spec=KB_SPEC,
        config=_config(),
        service_config=ServiceConfig(auto_start=False),
    )
    try:
        kbs = [shard.nous.kb for shard in cluster.shards]
        views = [kb.graph_view() for kb in kbs]
        jobs = cluster.cluster_info()["compute"]["jobs"]
        for articles in _write_cycles():
            _write(cluster, articles)
            # Path search and the analytics classes run as distributed
            # compute jobs: shard supersteps are the readers here.
            _read_all(cluster)
        assert cluster.cluster_info()["compute"]["jobs"] > jobs
        assert all(kb.graph_view() is view for kb, view in zip(kbs, views))
        assert materialisations == {id(kb): 1 for kb in kbs}
    finally:
        cluster.close()

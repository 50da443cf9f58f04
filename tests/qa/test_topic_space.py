"""The topic space is a pure function of KB state.

Pinned here:

- **fold-in purity** — the vector of a description-less vertex depends
  on the base and its name only, never on which other vertices were
  annotated before it, how often, or in what order;
- **base stability** — entities without descriptions (everything ingest
  mints) neither change the base fingerprint nor cost a fit; a changed
  description does; with no descriptions at all the base is every
  entity's name document;
- **fit count** — k writes beside k path answers pay exactly one
  ``LdaModel.fit``; ``set_description`` pays one more;
- **history independence** — a service that answered a path query after
  every write and one that ingested the same chunks and asked once give
  byte-identical payloads (monolith, N=2 local, N=2 process).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CorpusConfig,
    NousConfig,
    NousService,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
    generate_corpus,
    generate_descriptions,
)
from repro.errors import ConfigError
from repro.graph import PropertyGraph
from repro.kb.knowledge_base import KnowledgeBase
from repro.qa.lda import LdaModel
from repro.qa.topics import js_divergence, vertex_topics
from repro.qa.topicspace import (
    TopicSpace,
    base_documents,
    fingerprint,
    fold_in,
    name_document,
)

DESCRIBED = {
    "DJI": "Chinese drone maker selling quadcopter camera platforms",
    "GoPro": "action camera company entering the drone market",
    "Accel": "venture capital investor funding drone startups",
    "FAA": "aviation agency writing drone airspace regulation",
}

MINTED = [
    "Drone_Camera_Works", "Venture_Airspace", "Acme_Holdings", "Zed",
    "Capital_Drone_Fund", "Quadcopter_Market", "Unknown_Thing_42",
]


def graph_of(vertices):
    graph = PropertyGraph()
    for vertex in vertices:
        graph.add_vertex(vertex)
    return graph


def descriptions_with(minted):
    return {**DESCRIBED, **{name: "" for name in minted}}


def vectors(space, vertices, descriptions):
    graph = graph_of(vertices)
    space.annotate(graph, descriptions)
    return {v: vertex_topics(graph, v).tobytes() for v in vertices}


def space():
    return TopicSpace(n_topics=3, lda_iterations=15, seed=5)


@pytest.fixture
def fit_calls(monkeypatch):
    """Count ``LdaModel.fit`` calls made in this process."""
    calls = []
    original = LdaModel.fit

    def counting_fit(self, documents):
        calls.append(sorted(documents))
        return original(self, documents)

    monkeypatch.setattr(LdaModel, "fit", counting_fit)
    return calls


# ---------------------------------------------------------------------------
# fold-in
# ---------------------------------------------------------------------------

class TestFoldIn:
    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.sampled_from(MINTED), min_size=1, max_size=6, unique=True),
            min_size=1,
            max_size=5,
        )
    )
    def test_order_and_duplication_cannot_change_a_vector(self, batches):
        """Annotate arbitrary overlapping batches on one long-lived
        space; every vector equals the one a fresh space gives that
        vertex alone."""
        descriptions = descriptions_with(MINTED)
        lived = space()
        for batch in batches:
            got = vectors(lived, batch, descriptions)
            for vertex in batch:
                alone = vectors(space(), [vertex], descriptions)
                assert got[vertex] == alone[vertex]

    def test_vector_is_a_function_of_the_name_only(self):
        """Which *other* description-less entities exist is irrelevant."""
        few = vectors(space(), ["Drone_Camera_Works"], descriptions_with(MINTED[:1]))
        many = vectors(space(), ["Drone_Camera_Works"], descriptions_with(MINTED))
        assert few == many

    def test_is_a_distribution_pulled_towards_its_words(self):
        lived = space()
        graph = graph_of(["Drone_Camera_Works", "DJI", "Accel"])
        assert lived.annotate(graph, descriptions_with(MINTED)) == 2
        folded = vertex_topics(graph, "Drone_Camera_Works")
        assert folded.sum() == pytest.approx(1.0)
        assert (folded > 0).all()
        # "drone camera" are DJI's words, not the investor's.
        assert js_divergence(folded, vertex_topics(graph, "DJI")) < js_divergence(
            folded, vertex_topics(graph, "Accel")
        )

    def test_no_known_token_means_uniform(self):
        lived = space()
        graph = graph_of(["Unknown_Thing_42", "Zed"])
        lived.annotate(graph, descriptions_with(MINTED))
        for vertex in ("Unknown_Thing_42", "Zed"):
            np.testing.assert_array_equal(
                vertex_topics(graph, vertex), np.full(3, 1.0 / 3)
            )

    def test_fold_in_is_deterministic_and_read_only(self):
        topics = LdaModel(n_topics=3, n_iterations=15, seed=5).fit(DESCRIBED)
        ids = [topics.vocabulary["drone"], topics.vocabulary["camera"]]
        first, second = fold_in(topics, ids), fold_in(topics, ids)
        assert first.tobytes() == second.tobytes()
        with pytest.raises(ValueError):
            first[0] = 1.0


# ---------------------------------------------------------------------------
# base
# ---------------------------------------------------------------------------

class TestBase:
    def test_base_is_the_described_documents(self):
        assert base_documents(descriptions_with(MINTED)) == DESCRIBED

    def test_fingerprint_ignores_order_and_separates_content(self):
        forward = dict(sorted(DESCRIBED.items()))
        backward = dict(sorted(DESCRIBED.items(), reverse=True))
        assert fingerprint(forward) == fingerprint(backward)
        assert fingerprint({"ab": "c"}) != fingerprint({"a": "bc"})
        changed = {**DESCRIBED, "DJI": DESCRIBED["DJI"] + " worldwide"}
        assert fingerprint(changed) != fingerprint(DESCRIBED)

    def test_minted_entities_cost_no_fit(self, fit_calls):
        lived = space()
        for upto in range(1, len(MINTED) + 1):
            vectors(lived, MINTED[:upto] + ["DJI"], descriptions_with(MINTED[:upto]))
        assert len(fit_calls) == 1
        assert fit_calls[0] == sorted(DESCRIBED)

    def test_changed_description_refits_and_matches_a_fresh_space(self, fit_calls):
        lived = space()
        before = vectors(lived, ["DJI", "Zed"], descriptions_with(MINTED))
        changed = {
            **descriptions_with(MINTED),
            "Zed": "rotor pilot training school for drone flight",
        }
        after = vectors(lived, ["DJI", "Zed"], changed)
        assert len(fit_calls) == 2
        assert after != before
        assert after == vectors(space(), ["DJI", "Zed"], changed)
        # Going back restores the earlier vectors exactly: no residue of
        # the fits made on the way.
        assert vectors(lived, ["DJI", "Zed"], descriptions_with(MINTED)) == before

    def test_base_exposes_the_fit(self):
        lived = space()
        assert lived.base is None
        vectors(lived, ["DJI"], DESCRIBED)
        assert lived.base.doc_ids == sorted(DESCRIBED)


class TestNoDescriptions:
    """``--kb empty`` / the hypothesis star corpora: nothing is
    described, so the base is every entity's name document."""

    NAMES = ["Drone_Maker", "Camera_Maker", "Venture_Fund", "Drone_Fund"]

    def test_base_is_every_name_document(self):
        documents = base_documents({name: "" for name in self.NAMES})
        assert documents == {name: name_document(name) for name in self.NAMES}

    def test_vectors_equal_a_plain_fit_over_the_names(self, fit_calls):
        descriptions = {name: "" for name in self.NAMES}
        lived = space()
        graph = graph_of(self.NAMES)
        assert lived.annotate(graph, descriptions) == len(self.NAMES)
        topics = LdaModel(n_topics=3, n_iterations=15, seed=5).fit(
            {name: name_document(name) for name in self.NAMES}
        )
        for name in self.NAMES:
            np.testing.assert_array_equal(
                vertex_topics(graph, name), topics.doc_distribution(name)
            )

    def test_still_a_pure_function_of_state(self, fit_calls):
        lived = space()
        for upto in range(2, len(self.NAMES) + 1):
            names = self.NAMES[:upto]
            descriptions = {name: "" for name in names}
            assert vectors(lived, names, descriptions) == vectors(
                space(), names, descriptions
            )
        # A new entity is a new base document here, so each step (and
        # each fresh comparison space) fitted once.
        assert len(fit_calls) == 2 * (len(self.NAMES) - 1)

    def test_tokenless_base_is_rejected_like_before(self):
        with pytest.raises(ConfigError):
            space().annotate(graph_of(["a1", "b2"]), {"a1": "", "b2": ""})

    def test_empty_kb_service_answers_path_queries(self):
        service = NousService(
            kb=KnowledgeBase(),
            config=NousConfig(lda_iterations=5, seed=3),
            service_config=ServiceConfig(auto_start=False),
        )
        facts = [
            ("Drone_Maker", "partnerOf", "Camera_Maker"),
            ("Camera_Maker", "fundedBy", "Venture_Fund"),
        ]
        assert service.ingest_facts(facts, date="2015-06-01").ok
        envelope = service.query("how is Drone Maker related to Venture Fund")
        assert envelope.ok
        assert envelope.payload["paths"][0]["nodes"] == [
            "Drone_Maker", "Camera_Maker", "Venture_Fund",
        ]
        assert service.nous.topics.doc_ids == sorted(
            ["Drone_Maker", "Camera_Maker", "Venture_Fund"]
        )


class TestJsDivergenceZeroVector:
    def test_all_zero_vector_is_maximally_distant_not_nan(self):
        zero = np.zeros(3)
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(zero, p) == 1.0
        assert js_divergence(p, zero) == 1.0
        assert js_divergence(zero, zero) == 1.0


# ---------------------------------------------------------------------------
# services: fit count and history independence
# ---------------------------------------------------------------------------

N_ARTICLES = 12
N_CHUNKS = 4
WORLD_SEED = 7
PATH_QUERIES = [
    "how is GoPro related to DJI",
    "why does Windermere use drones",
]


def world():
    kb = build_drone_kb()
    articles = generate_corpus(
        kb, CorpusConfig(n_articles=N_ARTICLES, seed=WORLD_SEED)
    )
    generate_descriptions(kb, seed=WORLD_SEED)
    return kb, articles


def chunks(articles):
    size = len(articles) // N_CHUNKS
    return [articles[i:i + size] for i in range(0, len(articles), size)]


def service_config():
    return ServiceConfig(auto_start=False, max_batch=N_ARTICLES)


def nous_config():
    return NousConfig(window_size=200, min_support=2, lda_iterations=10, seed=7)


def monolith():
    kb, _articles = world()
    return NousService(
        kb=kb, config=nous_config(), service_config=service_config()
    )


def cluster(shard_mode):
    return ShardedNousService(
        num_shards=2,
        config=nous_config(),
        service_config=service_config(),
        shard_mode=shard_mode,
        kb_spec=f"world:{N_ARTICLES}:{WORLD_SEED}",
    )


def path_payloads(service):
    out = []
    for text in PATH_QUERIES:
        envelope = service.query(text)
        assert envelope.ok, envelope.error
        assert envelope.payload["paths"], text
        out.append(json.dumps(envelope.payload, sort_keys=True))
    return out


def write(service, chunk):
    service.submit_many(chunk)
    service.flush()


class TestFitCount:
    def test_writes_do_not_refit_and_set_description_does(self, fit_calls):
        _kb, articles = world()
        service = monolith()
        try:
            entities_before = len(service.nous.kb.entities())
            for chunk in chunks(articles):
                write(service, chunk)
                path_payloads(service)
            minted = set(service.nous.kb.entities())
            assert len(minted) > entities_before
            assert len(fit_calls) == 1

            service.nous.kb.set_description(
                "GoPro", "camera company that briefly sold a folding drone"
            )
            path_payloads(service)
            assert len(fit_calls) == 2
            path_payloads(service)
            assert len(fit_calls) == 2
        finally:
            service.close()

    def test_fit_is_lazy(self, fit_calls):
        _kb, articles = world()
        service = monolith()
        try:
            write(service, articles)
            assert service.query("tell me about DJI").ok
            assert fit_calls == []
            assert service.nous.topics is None
        finally:
            service.close()


class TestHistoryIndependence:
    def _check(self, make_service, ask_after=frozenset(range(N_CHUNKS))):
        """``ask_after``: the writes after which the first service is
        asked; the second is only ever asked at the end."""
        _kb, articles = world()
        asked_on_the_way, asked_once = make_service(), make_service()
        try:
            for index, chunk in enumerate(chunks(articles)):
                write(asked_on_the_way, chunk)
                if index in ask_after:
                    path_payloads(asked_on_the_way)
                write(asked_once, chunk)
            assert asked_on_the_way.kg_version == asked_once.kg_version
            assert path_payloads(asked_once) == path_payloads(asked_on_the_way)
        finally:
            asked_on_the_way.close()
            asked_once.close()

    @settings(max_examples=8, deadline=None)
    @given(ask_after=st.frozensets(st.integers(0, N_CHUNKS - 1)))
    def test_monolith(self, ask_after):
        self._check(monolith, ask_after)

    def test_two_local_shards(self):
        self._check(lambda: cluster("local"))

    def test_two_process_shards(self):
        # Both sides run their coordinator in this interpreter and
        # their workers under the manager's pinned hash seed, so the
        # comparison needs no pinning of its own.
        self._check(lambda: cluster("process"))

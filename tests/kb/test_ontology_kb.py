"""Ontology, alias dictionary and KnowledgeBase facade tests."""

import pytest

from repro.errors import KBError, UnknownPredicateError, UnknownTypeError
from repro.kb import AliasDictionary, KnowledgeBase, Ontology, build_drone_kb
from repro.kb.aliases import normalize_alias
from repro.kb.drone_kb import build_ontology


class TestOntology:
    @pytest.fixture
    def ontology(self):
        return build_ontology()

    def test_taxonomy_chain(self, ontology):
        assert ontology.is_a("Company", "Organization")
        assert ontology.is_a("Company", "Agent")
        assert ontology.is_a("Company", Ontology.ROOT)
        assert not ontology.is_a("Company", "Location")

    def test_ancestors(self, ontology):
        assert ontology.ancestors("City") == ["Location", "Thing"]

    def test_unknown_type_raises(self, ontology):
        with pytest.raises(UnknownTypeError):
            ontology.ancestors("Spaceship")
        with pytest.raises(UnknownTypeError):
            ontology.add_type("X", parent="Spaceship")

    def test_lca(self, ontology):
        assert ontology.least_common_ancestor("Company", "Agency") == "Organization"
        assert ontology.least_common_ancestor("Company", "City") == "Thing"
        assert ontology.least_common_ancestor("Person", "Person") == "Person"

    def test_predicate_signature(self, ontology):
        sig = ontology.predicate("headquarteredIn")
        assert sig.domain == "Organization"
        assert sig.range_ == "Location"

    def test_unknown_predicate_raises(self, ontology):
        with pytest.raises(UnknownPredicateError):
            ontology.predicate("flibbertigibbet")

    def test_signature_allows(self, ontology):
        assert ontology.signature_allows("headquarteredIn", "Company", "City")
        assert not ontology.signature_allows("headquarteredIn", "City", "City")
        # None types pass (extraction may not know them)
        assert ontology.signature_allows("headquarteredIn", None, "City")

    def test_signature_rejects_unknown_type(self, ontology):
        assert not ontology.signature_allows("headquarteredIn", "Spaceship", None)

    def test_symmetric_flag(self, ontology):
        assert ontology.predicate("competitorOf").symmetric
        assert not ontology.predicate("acquired").symmetric


class TestAliasDictionary:
    def test_normalize(self):
        assert normalize_alias("The DJI") == "dji"
        assert normalize_alias("DJI's") == "dji"
        assert normalize_alias("  Accel   Partners ") == "accel partners"

    def test_candidates_with_priors(self):
        d = AliasDictionary()
        d.add("Phantom", "Phantom_3", count=3)
        d.add("Phantom", "Phantom_Movie", count=1)
        candidates = d.candidates("the Phantom")
        assert candidates[0][0] == "Phantom_3"
        assert candidates[0][1] == pytest.approx(0.75)
        assert sum(p for _, p in candidates) == pytest.approx(1.0)

    def test_unknown_mention(self):
        assert AliasDictionary().candidates("whatever") == []

    def test_aliases_of(self):
        d = AliasDictionary()
        d.add("DJI", "DJI")
        d.add("Da-Jiang Innovations", "DJI")
        assert d.aliases_of("DJI") == {"dji", "da-jiang innovations"}

    def test_merge(self):
        a, b = AliasDictionary(), AliasDictionary()
        a.add("X", "E1")
        b.add("X", "E2")
        a.merge(b)
        assert {e for e, _ in a.candidates("X")} == {"E1", "E2"}

    def test_empty_alias_ignored(self):
        d = AliasDictionary()
        d.add("the", "E1")  # normalises to empty
        assert len(d) == 0


class TestKnowledgeBase:
    @pytest.fixture
    def kb(self):
        return build_drone_kb()

    def test_entities_and_types(self, kb):
        assert kb.entity_type("DJI") == "Company"
        assert kb.entity_type("Shenzhen") == "City"
        assert "DJI" in kb.entities_of_type("Organization")  # via taxonomy

    def test_facts(self, kb):
        facts = kb.store.match(subject="DJI", predicate="manufactures")
        assert {t.object for t in facts} == {"Phantom_3", "Inspire_1"}
        assert all(t.curated for t in facts)

    def test_add_fact_registers_predicate_and_entities(self):
        kb = KnowledgeBase()
        kb.add_fact("a", "newPred", "b")
        assert kb.ontology.has_predicate("newPred")
        assert kb.has_entity("a") and kb.has_entity("b")

    def test_entity_context_reflects_neighborhood(self, kb):
        context = kb.entity_context("DJI")
        assert context["shenzhen"] > 0
        assert context["company"] > 0  # own type
        assert "phantom" in context

    def test_to_property_graph(self, kb):
        graph = kb.to_property_graph()
        assert graph.has_vertex("DJI")
        assert graph.vertex_props("DJI")["type"] == "Company"
        edges = graph.edges_between("DJI", "Shenzhen")
        assert edges[0].label == "headquarteredIn"
        assert edges[0].props["curated"]

    def test_gazetteer_labels(self, kb):
        gazetteer = kb.gazetteer()
        assert gazetteer["dji"] == "ORG"
        assert gazetteer["shenzhen"] == "LOCATION"
        assert gazetteer["frank wang"] == "PERSON"
        assert gazetteer["phantom 3"] == "PRODUCT"

    def test_alias_candidates_ambiguous(self, kb):
        candidates = kb.aliases.candidates("Phantom")
        assert any(e == "Phantom_3" for e, _ in candidates)

    def test_roundtrip_tsv(self, kb):
        kb.add_fact(
            "DJI", "uses", "Karma_Drone", confidence=0.55, source="wsj", curated=False
        )
        text = kb.dump_tsv()
        loaded = KnowledgeBase.load_tsv(text, ontology=build_ontology())
        assert loaded.num_facts == kb.num_facts
        assert loaded.entity_type("DJI") == "Company"
        fact = loaded.store.get("DJI", "uses", "Karma_Drone")
        assert fact.confidence == pytest.approx(0.55)
        assert not fact.curated
        assert loaded.aliases.candidates("Da-Jiang Innovations")[0][0] == "DJI"

    def test_load_tsv_rejects_garbage(self):
        with pytest.raises(KBError):
            KnowledgeBase.load_tsv("Z\tbad\tline")

    def test_descriptions_present(self, kb):
        assert "Shenzhen" in kb.description("DJI")

    def test_kb_alias_index_excludes_ambiguous(self, kb):
        kb.add_entity("Phantom_Movie", "Artifact", aliases=["Phantom"])
        index = kb.kb_alias_index()
        assert "phantom" not in index
        assert index.get("da-jiang innovations") == "DJI"


class TestGraphViewMirror:
    """The incrementally-maintained graph_view() must always equal a
    fresh to_property_graph() materialisation."""

    def _assert_mirror_matches_fresh(self, kb):
        mirror = kb.graph_view()
        fresh = kb.to_property_graph()
        assert set(mirror.vertices()) == set(fresh.vertices())
        assert sorted(
            (e.src, e.label, e.dst) for e in mirror.edges()
        ) == sorted((e.src, e.label, e.dst) for e in fresh.edges())
        mirror.check_index_invariants()

    def test_facts_added_after_first_view_appear(self):
        kb = KnowledgeBase()
        kb.add_fact("A", "likes", "B")
        kb.graph_view()  # materialise, then mutate
        kb.add_fact("B", "likes", "C")
        kb.add_entity("C", "Company")
        self._assert_mirror_matches_fresh(kb)
        assert kb.graph_view().vertex_props("C")["type"] == "Company"

    def test_confidence_upgrade_updates_edge_in_place(self):
        kb = KnowledgeBase()
        kb.add_fact("A", "likes", "B", confidence=0.4, curated=False)
        view = kb.graph_view()
        kb.add_fact("A", "likes", "B", confidence=0.9, curated=False)
        (edge,) = view.edges_between("A", "B")
        assert edge.props["confidence"] == pytest.approx(0.9)
        assert view.num_edges == 1

    def test_remove_fact_drops_edges_and_orphan_vertices(self):
        kb = KnowledgeBase()
        kb.add_fact("A", "likes", "B")
        kb.add_fact("B", "likes", "C")
        kb.graph_view()
        version = kb.version
        assert kb.remove_fact("A", "likes", "B")
        assert kb.version > version
        assert not kb.remove_fact("A", "likes", "B")  # already gone
        self._assert_mirror_matches_fresh(kb)
        assert not kb.graph_view().has_vertex("A")  # orphaned endpoint
        assert kb.graph_view().has_vertex("B")      # still in a fact

    def test_entities_of_type_uses_index(self):
        kb = build_drone_kb()
        before = kb.entities_of_type("Company")
        kb.add_entity("NewCo", "Company")
        after = kb.entities_of_type("Company")
        assert after == before | {"NewCo"}
        assert "DJI" in kb.entities_of_type("Organization")  # via taxonomy

"""Query parsing, pattern matching and engine execution."""

import pytest

from repro import Nous, NousConfig
from repro.errors import QueryParseError
from repro.kb import build_drone_kb
from repro.nlp.dates import parse_date
from repro.query import (
    CentralityQuery,
    ComponentsQuery,
    EntityQuery,
    ExplanatoryQuery,
    PageRankQuery,
    PatternQuery,
    PatternMatcher,
    QueryEngine,
    RelationshipQuery,
    TrendingQuery,
    parse_pattern,
    parse_query,
)


class TestParser:
    @pytest.mark.parametrize("text", [
        "show trending patterns",
        "what is trending",
        "trending",
        "show trending patterns in the last week",
    ])
    def test_trending(self, text):
        assert isinstance(parse_query(text), TrendingQuery)

    @pytest.mark.parametrize("text,entity", [
        # Mentions are normalized (case/whitespace) so equivalent query
        # strings produce equal Query objects.
        ("tell me about DJI", "dji"),
        ("Tell me about DJI?", "dji"),
        ("who is Frank Wang", "frank wang"),
        ("summary of Parrot", "parrot"),
    ])
    def test_entity(self, text, entity):
        query = parse_query(text)
        assert isinstance(query, EntityQuery)
        assert query.entity == entity

    def test_relationship(self):
        query = parse_query("how is DJI related to Amazon?")
        assert isinstance(query, RelationshipQuery)
        assert query.source == "dji"
        assert query.target == "amazon"
        assert query.relationship is None

    def test_relationship_with_predicate(self):
        query = parse_query("find path from DJI to Amazon via acquired")
        assert isinstance(query, RelationshipQuery)
        assert query.relationship == "acquired"

    def test_explanatory_with_verb(self):
        query = parse_query("why does Windermere use drones?")
        assert isinstance(query, ExplanatoryQuery)
        assert query.source == "windermere"
        assert query.target == "drones"
        assert query.relationship == "usesTechnology"

    @pytest.mark.parametrize("text,source,target,relationship", [
        # The lazy subject group used to stop at the first space.
        ("why does General Atomics supply drones",
         "general atomics", "drones", "suppliesTo"),
        ("why does Frank Wang use drones?", "frank wang", "drones",
         "usesTechnology"),
        ("why did Amazon Prime Air acquire Kiva Systems",
         "amazon prime air", "kiva systems", "acquired"),
        # "Partners" normalises to a known verb too; the lower-case
        # candidate is the verb, the capitalised one part of the name.
        ("why does Accel Partners fund DJI", "accel partners", "dji", "fundedBy"),
        ("why does accel partners fund dji", "accel", "fund dji", "partnerOf"),
        # No known verb anywhere: the template's own split stands.
        ("why does General Atomics fly drones", "general", "fly drones", None),
    ])
    def test_explanatory_multiword_subject(
        self, text, source, target, relationship
    ):
        query = parse_query(text)
        assert isinstance(query, ExplanatoryQuery)
        assert (query.source, query.target, query.relationship) == (
            source, target, relationship
        )

    def test_explanatory_related(self):
        query = parse_query("why is DJI related to Accel Partners")
        assert isinstance(query, ExplanatoryQuery)
        assert query.relationship is None

    def test_pattern(self):
        query = parse_query("match (?a:Company)-[acquired]->(?b:Company)")
        assert isinstance(query, PatternQuery)
        assert query.pattern_text.startswith("(?a")

    @pytest.mark.parametrize("text,top", [
        ("pagerank", 10),
        ("page rank", 10),
        ("show pagerank top 5", 5),
        ("compute pagerank top 25", 25),
    ])
    def test_pagerank(self, text, top):
        query = parse_query(text)
        assert isinstance(query, PageRankQuery)
        assert query.top == top

    @pytest.mark.parametrize("text", [
        "connected components",
        "show connected components",
        "find connected components?",
    ])
    def test_components(self, text):
        assert isinstance(parse_query(text), ComponentsQuery)

    @pytest.mark.parametrize("text,top", [
        ("degree centrality", 10),
        ("show degree centrality top 3", 3),
        ("most connected entities", 10),
        ("most connected entities top 7", 7),
    ])
    def test_centrality(self, text, top):
        query = parse_query(text)
        assert isinstance(query, CentralityQuery)
        assert query.metric == "degree"
        assert query.top == top

    def test_analytics_do_not_parse_as_entity_queries(self):
        # "what is pagerank" would be swallowed by the catch-all entity
        # templates if the analytics templates ran after them.
        assert isinstance(parse_query("What is PageRank?"), PageRankQuery)

    @pytest.mark.parametrize("bad", ["", "   ", "fnord gleep", "42"])
    def test_unparseable(self, bad):
        with pytest.raises(QueryParseError):
            parse_query(bad)

    def test_entity_does_not_swallow_why(self):
        # "what is trending" must parse as trending, not entity "trending"
        assert isinstance(parse_query("what is trending"), TrendingQuery)

    def test_normalization_produces_equal_queries(self):
        # Case/whitespace variants must collapse to one Query object so
        # they share a single query-result cache slot.
        assert parse_query("Tell me about DJI") == parse_query(
            "tell  me about dji"
        )
        assert parse_query("SHOW TRENDING PATTERNS") == parse_query(
            "show trending patterns"
        )
        assert parse_query("How is DJI  related to Amazon?") == parse_query(
            "how is dji related to amazon?"
        )

    def test_normalization_preserves_predicate_case(self):
        # 'via <predicate>' names camelCase ontology predicates; pattern
        # text likewise keeps its case.
        query = parse_query("Find path from DJI to Amazon via partnerOf")
        assert isinstance(query, RelationshipQuery)
        assert query.relationship == "partnerOf"
        pattern = parse_query("Match (?a:Company)-[acquired]->(?b:Company)")
        assert isinstance(pattern, PatternQuery)
        assert pattern.pattern_text == "(?a:Company)-[acquired]->(?b:Company)"
        assert pattern == parse_query(
            "match  (?a:Company)-[acquired]->(?b:Company)"
        )


class TestParsePattern:
    def test_single_edge(self):
        edges = parse_pattern("(?a:Company)-[acquired]->(?b:Company)")
        assert len(edges) == 1
        assert edges[0].predicate == "acquired"
        assert edges[0].src_type == "Company"

    def test_untyped_variables(self):
        edges = parse_pattern("(?x)-[rel]->(?y)")
        assert edges[0].src_type is None

    def test_multi_edge(self):
        edges = parse_pattern(
            "(?a:Company)-[fundedBy]->(?b:Company), (?a:Company)-[acquired]->(?c:Company)"
        )
        assert len(edges) == 2

    def test_garbage_rejected(self):
        with pytest.raises(QueryParseError):
            parse_pattern("this is not a pattern")
        with pytest.raises(QueryParseError):
            parse_pattern("(?a)-[p]->(?b) leftover junk")


class TestPatternMatcher:
    @pytest.fixture(scope="class")
    def graph_and_ontology(self):
        kb = build_drone_kb()
        return kb.to_property_graph(), kb.ontology

    def test_simple_match(self, graph_and_ontology):
        graph, ontology = graph_and_ontology
        matcher = PatternMatcher(graph, ontology)
        matches = matcher.match(parse_pattern("(?a:Company)-[acquired]->(?b:Company)"))
        assert {"a": "Amazon", "b": "Kiva_Systems"} in matches

    def test_type_filtering_via_taxonomy(self, graph_and_ontology):
        graph, ontology = graph_and_ontology
        matcher = PatternMatcher(graph, ontology)
        # Organization matches Company subtypes through the taxonomy
        matches = matcher.match(
            parse_pattern("(?a:Organization)-[acquired]->(?b:Company)")
        )
        assert matches

    def test_wrong_type_no_match(self, graph_and_ontology):
        graph, ontology = graph_and_ontology
        matcher = PatternMatcher(graph, ontology)
        matches = matcher.match(parse_pattern("(?a:City)-[acquired]->(?b:Company)"))
        assert matches == []

    def test_join_across_edges(self, graph_and_ontology):
        graph, ontology = graph_and_ontology
        matcher = PatternMatcher(graph, ontology)
        matches = matcher.match(parse_pattern(
            "(?c:Company)-[foundedBy]->(?p:Person), (?c:Company)-[headquarteredIn]->(?l:Location)"
        ))
        assert any(m["c"] == "DJI" and m["p"] == "Frank_Wang" for m in matches)

    def test_injective_bindings(self, graph_and_ontology):
        graph, ontology = graph_and_ontology
        matcher = PatternMatcher(graph, ontology)
        matches = matcher.match(parse_pattern(
            "(?a:Company)-[competitorOf]->(?b:Company)"
        ))
        assert all(m["a"] != m["b"] for m in matches)

    def test_limit_respected(self, graph_and_ontology):
        graph, ontology = graph_and_ontology
        matcher = PatternMatcher(graph, ontology)
        matches = matcher.match(
            parse_pattern("(?a)-[productOf]->(?b)"), limit=2
        )
        assert len(matches) == 2


class TestQueryEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        nous = Nous(config=NousConfig(
            window_size=100, min_support=2, lda_iterations=10, retrain_every=0
        ))
        nous.ingest(
            "GoPro partnered with DJI in June 2015.",
            doc_id="a", date=parse_date("2015-06-10"), source="wsj",
        )
        nous.ingest(
            "Intel partnered with PrecisionHawk in July 2015.",
            doc_id="b", date=parse_date("2015-07-02"), source="wsj",
        )
        return QueryEngine(nous)

    def test_entity_query(self, engine):
        result = engine.execute_text("tell me about DJI")
        assert result.kind == "entity"
        assert result.result_count > 0
        assert "DJI" in result.rendered
        assert result.elapsed_ms >= 0

    def test_trending_query(self, engine):
        result = engine.execute_text("show trending patterns")
        assert result.kind == "trending"
        assert "window edges" in result.rendered

    def test_relationship_query(self, engine):
        result = engine.execute_text("how is GoPro related to DJI")
        assert result.kind == "relationship"
        assert result.result_count >= 1
        assert "coherence" in result.rendered

    def test_explanatory_query(self, engine):
        result = engine.execute_text("why does Windermere use drones")
        assert result.kind == "explanatory"
        # Path exists via usesTechnology edges in the curated KB
        assert result.result_count >= 1

    def test_multiword_why_query_is_a_pure_read(self, engine):
        """Mis-split subject fragments ("frank" / "use drones") used to
        be minted as entities, so a *read* moved the KG stamp."""
        kb = engine.nous.kb
        version, entities = kb.version, kb.entities()
        result = engine.execute_text("why does Frank Wang use drones")
        assert result.kind == "explanatory"
        assert result.result_count >= 1
        assert kb.version == version
        assert kb.entities() == entities

    def test_pattern_query(self, engine):
        result = engine.execute_text(
            "match (?a:Company)-[partnerOf]->(?b:Company)"
        )
        assert result.kind == "pattern"
        assert result.result_count >= 1

    def test_pagerank_query(self, engine):
        result = engine.execute_text("pagerank top 5")
        assert result.kind == "pagerank"
        assert 0 < result.result_count <= 5
        ranks = result.payload["ranks"]
        # Descending scores, and the census covers the whole graph.
        assert ranks == sorted(ranks, key=lambda row: (-row[1], row[0]))
        assert result.payload["num_vertices"] >= len(ranks)
        assert "pagerank over" in result.rendered

    def test_components_query(self, engine):
        result = engine.execute_text("connected components")
        assert result.kind == "components"
        census = result.payload["components"]
        assert result.result_count == len(census) > 0
        # Largest component first, members sorted, none shared.
        sizes = [len(members) for members in census]
        assert sizes == sorted(sizes, reverse=True)
        all_members = [m for members in census for m in members]
        assert len(all_members) == len(set(all_members))

    def test_centrality_query(self, engine):
        result = engine.execute_text("degree centrality top 5")
        assert result.kind == "centrality"
        assert result.payload["metric"] == "degree"
        assert 0 < result.result_count <= 5
        assert "degree centrality" in result.rendered

    def test_result_count_consistent_for_all_classes(self, engine):
        """result_count must be populated from the payload for every
        query class, never left at the dataclass default of 0."""
        by_kind = {}
        for text in [
            "show trending patterns",
            "tell me about DJI",
            "what's new about DJI",
            "how is GoPro related to DJI",
            "why does Windermere use drones",
            "match (?a:Company)-[partnerOf]->(?b:Company)",
        ]:
            result = engine.execute_text(text)
            by_kind[result.kind] = result
        assert by_kind["trending"].result_count == len(
            by_kind["trending"].payload.closed_frequent
        )
        assert by_kind["entity"].result_count == len(
            by_kind["entity"].payload.facts
        )
        for kind in ("entity-trend", "relationship", "explanatory", "pattern"):
            assert by_kind[kind].result_count == len(by_kind[kind].payload)
        # Non-degenerate: this fixture has data behind every class.
        for kind in ("trending", "entity", "relationship", "explanatory", "pattern"):
            assert by_kind[kind].result_count > 0, f"{kind} result_count is 0"

    def test_all_five_classes_covered(self, engine):
        kinds = set()
        for text in [
            "show trending patterns",
            "tell me about DJI",
            "how is GoPro related to DJI",
            "why does Windermere use drones",
            "match (?a:Company)-[partnerOf]->(?b:Company)",
        ]:
            kinds.add(engine.execute_text(text).kind)
        assert kinds == {
            "trending", "entity", "relationship", "explanatory", "pattern"
        }

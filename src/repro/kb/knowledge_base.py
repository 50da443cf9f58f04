"""The knowledge base facade: store + ontology + aliases + descriptions.

This is the "curated KB" interface the rest of NOUS consumes (and also
the container the *dynamic* KG grows in — extracted facts are added with
``curated=False`` and a confidence score).

Query-efficiency layer (maintained incrementally, never by rescans):

- a monotonic :attr:`KnowledgeBase.version` stamp, bumped on every
  mutation, which downstream caches (query results, topic annotation)
  key on;
- an exact-type index behind :meth:`entities_of_type`, so taxonomy-aware
  entity lookups no longer scan every entity;
- one incrementally-maintained property-graph mirror behind
  :meth:`graph_view`: every accepted fact is applied to the mirror as it
  arrives, and every whole-graph reader (path search, pagerank /
  components / centrality, statistics, shard compute supersteps, pattern
  matching, visualisation) reads that one object — nothing pays a full
  KB materialisation after the first.
"""

from __future__ import annotations

import io
from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import KBError
from repro.graph.property_graph import PropertyGraph
from repro.kb.aliases import AliasDictionary, normalize_alias
from repro.kb.ontology import Ontology
from repro.kb.triples import Triple, TripleStore
from repro.nlp.dates import SimpleDate, parse_date

_STOPWORDS = {
    "the", "a", "an", "of", "and", "or", "in", "on", "to", "for", "is",
    "was", "are", "were", "by", "with", "at", "as", "its", "it", "that",
    "this", "from", "be", "has", "have",
}


class KnowledgeBase:
    """A typed, aliased, documented knowledge graph.

    Args:
        ontology: Target ontology; a fresh one is created if omitted.
    """

    def __init__(self, ontology: Optional[Ontology] = None) -> None:
        self.ontology = ontology or Ontology()
        self.store = TripleStore()
        self.aliases = AliasDictionary()
        self._types: Dict[str, str] = {}
        self._descriptions: Dict[str, str] = {}
        self._by_exact_type: Dict[str, Set[str]] = {}
        self._graph_view: Optional[PropertyGraph] = None
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic stamp of every cache-relevant KB mutation.

        Sums the KB's own counter (facts, entities, descriptions) with
        the alias-dictionary and ontology counters, so linking and
        taxonomy changes — which alter query results without touching the
        triple store — also invalidate downstream caches.
        """
        return self._version + self.aliases.version + self.ontology.version

    # ------------------------------------------------------------------
    # entities
    # ------------------------------------------------------------------
    def add_entity(
        self,
        entity_id: str,
        type_name: str = Ontology.ROOT,
        aliases: Iterable[str] = (),
        description: str = "",
    ) -> str:
        """Register an entity with its type, aliases and description.

        The entity id itself is always registered as an alias.
        """
        if not self.ontology.has_type(type_name):
            self.ontology.add_type(type_name)
        self._set_type(entity_id, type_name)
        self.aliases.add(entity_id.replace("_", " "), entity_id)
        for alias in aliases:
            self.aliases.add(alias, entity_id)
        if description:
            self._descriptions[entity_id] = description
        if self._graph_view is not None and self._graph_view.has_vertex(entity_id):
            self._graph_view.set_vertex_prop(entity_id, "type", type_name)
        self._version += 1
        return entity_id

    def _set_type(self, entity_id: str, type_name: str) -> None:
        """Update the type map and the exact-type index together."""
        previous = self._types.get(entity_id)
        if previous == type_name:
            return
        if previous is not None:
            members = self._by_exact_type.get(previous)
            if members is not None:
                members.discard(entity_id)
                if not members:
                    del self._by_exact_type[previous]
        self._types[entity_id] = type_name
        self._by_exact_type.setdefault(type_name, set()).add(entity_id)

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._types

    def entity_type(self, entity_id: str) -> Optional[str]:
        """Declared type of the entity (None when unregistered)."""
        return self._types.get(entity_id)

    def entities(self) -> Set[str]:
        return set(self._types)

    def entities_of_type(self, type_name: str) -> Set[str]:
        """Entities whose type equals or descends from ``type_name``.

        Answered from the exact-type index: only the (few) distinct type
        names are tested against the taxonomy, never every entity.
        """
        out: Set[str] = set()
        for exact_type, members in self._by_exact_type.items():
            if self.ontology.has_type(exact_type) and self.ontology.is_a(
                exact_type, type_name
            ):
                out.update(members)
        return out

    def description(self, entity_id: str) -> str:
        return self._descriptions.get(entity_id, "")

    def set_description(self, entity_id: str, text: str) -> None:
        self._descriptions[entity_id] = text
        self._version += 1

    # ------------------------------------------------------------------
    # facts
    # ------------------------------------------------------------------
    def add_fact(
        self,
        subject: str,
        predicate: str,
        object: str,
        confidence: float = 1.0,
        source: str = "curated",
        date: Optional[SimpleDate] = None,
        curated: bool = True,
    ) -> Triple:
        """Add a fact; auto-registers the predicate when unknown."""
        if not self.ontology.has_predicate(predicate):
            self.ontology.add_predicate(predicate)
        triple = Triple(
            subject=subject,
            predicate=predicate,
            object=object,
            confidence=confidence,
            source=source,
            date=date,
            curated=curated,
        )
        changed = self.store.add(triple)
        for endpoint in (subject, object):
            if endpoint not in self._types:
                self._set_type(endpoint, Ontology.ROOT)
                self.aliases.add(endpoint.replace("_", " "), endpoint)
        if changed:
            self._mirror_fact(triple)
            self._version += 1
        return triple

    def remove_fact(self, subject: str, predicate: str, object: str) -> bool:
        """Delete a fact, keeping the graph mirror in sync.

        Returns:
            True if the fact was present.
        """
        if not self.store.remove(subject, predicate, object):
            return False
        if self._graph_view is not None:
            for edge in list(self._graph_view.edges_between(subject, object)):
                if edge.label == predicate:
                    self._graph_view.remove_edge(edge.eid)
            for endpoint in (subject, object):
                # A fresh materialisation only contains entities that
                # appear in stored triples; drop endpoints the removal
                # orphaned so the mirror never shows ghost vertices.
                if (
                    self._graph_view.has_vertex(endpoint)
                    and self._graph_view.degree(endpoint) == 0
                ):
                    self._graph_view.remove_vertex(endpoint)
        self._version += 1
        return True

    def facts_about(self, entity_id: str) -> List[Triple]:
        return self.store.about(entity_id)

    @property
    def num_facts(self) -> int:
        return len(self.store)

    # ------------------------------------------------------------------
    # context construction (for AIDA-style similarity and LDA)
    # ------------------------------------------------------------------
    def entity_context(self, entity_id: str, use_description: bool = True) -> Counter:
        """Bag of words describing the entity.

        Built from the KG neighbourhood (predicate names, neighbour names
        and types) — the paper's adaptation of AIDA, which replaces
        Wikipedia-article context with KG-neighbourhood context — plus
        the stored description when available.
        """
        words: Counter = Counter()
        for triple in self.store.about(entity_id):
            other = triple.object if triple.subject == entity_id else triple.subject
            for token in _name_tokens(other):
                words[token] += 2
            for token in _name_tokens(triple.predicate):
                words[token] += 1
            other_type = self._types.get(other)
            if other_type:
                words[other_type.lower()] += 1
        own_type = self._types.get(entity_id)
        if own_type:
            words[own_type.lower()] += 3
        if use_description:
            for token in self._descriptions.get(entity_id, "").lower().split():
                token = token.strip(".,()\"'")
                if token and token not in _STOPWORDS:
                    words[token] += 1
        return words

    # ------------------------------------------------------------------
    # graph view
    # ------------------------------------------------------------------
    def graph_view(self) -> PropertyGraph:
        """The KB as a property graph — *the* read contract for every
        whole-graph reader.

        The first call materialises the full KB
        (:meth:`to_property_graph`); afterwards every :meth:`add_fact` /
        :meth:`remove_fact` / :meth:`add_entity` is applied to the same
        object in O(1), in :class:`TripleStore` order, so it stays
        order-exactly equal to a fresh materialisation while no fact is
        removed (and set-equal when one is).

        Structure is read-only: callers must not add or remove
        vertices/edges, nor touch the ``type``/``name`` vertex props or
        any edge prop.  ``topics`` is the one derived vertex prop —
        :class:`~repro.core.pipeline.Nous` sets the QA topic vectors in
        place before a path search.  Readers share the object, so they
        must run under the lock writers hold (the service's engine lock).
        """
        if self._graph_view is None:
            self._graph_view = self.to_property_graph()
        return self._graph_view

    def _mirror_fact(self, triple: Triple) -> None:
        """Apply one stored fact to the graph mirror (no-op before the
        mirror exists; upgrades in place when the key is already there)."""
        graph = self._graph_view
        if graph is None:
            return
        for endpoint in (triple.subject, triple.object):
            if not graph.has_vertex(endpoint):
                graph.add_vertex(
                    endpoint,
                    type=self._types.get(endpoint, Ontology.ROOT),
                    name=endpoint.replace("_", " "),
                )
        edge_props = dict(
            confidence=triple.confidence,
            source=triple.source,
            date=triple.date,
            curated=triple.curated,
        )
        for edge in graph.edges_between(triple.subject, triple.object):
            if edge.label == triple.predicate:
                graph.update_edge_props(edge.eid, **edge_props)  # upgrade
                return
        graph.add_edge(
            triple.subject, triple.object, triple.predicate, **edge_props
        )

    def to_property_graph(self) -> PropertyGraph:
        """Materialise the KB as a fresh property graph.

        The first materialisation behind :meth:`graph_view`, and the
        reference the tests compare the maintained mirror against; no
        other code calls it.  Vertex properties carry ``type`` and
        ``name``; edge properties carry confidence/source/date/curated.
        """
        graph = PropertyGraph()
        for triple in self.store:
            for endpoint in (triple.subject, triple.object):
                if not graph.has_vertex(endpoint):
                    graph.add_vertex(
                        endpoint,
                        type=self._types.get(endpoint, Ontology.ROOT),
                        name=endpoint.replace("_", " "),
                    )
            graph.add_edge(
                triple.subject,
                triple.object,
                triple.predicate,
                confidence=triple.confidence,
                source=triple.source,
                date=triple.date,
                curated=triple.curated,
            )
        return graph

    # ------------------------------------------------------------------
    # serialization (TSV, one fact per line)
    # ------------------------------------------------------------------
    def dump_tsv(self) -> str:
        """Serialise entities and facts to a TSV string."""
        out = io.StringIO()
        for entity, type_name in sorted(self._types.items()):
            aliases = ",".join(sorted(self.aliases.aliases_of(entity)))
            description = self._descriptions.get(entity, "").replace("\t", " ").replace("\n", " ")
            out.write(f"E\t{entity}\t{type_name}\t{aliases}\t{description}\n")
        for triple in sorted(self.store, key=lambda t: t.key()):
            date = str(triple.date) if triple.date else ""
            out.write(
                "T\t{s}\t{p}\t{o}\t{c:.6f}\t{src}\t{d}\t{cur}\n".format(
                    s=triple.subject,
                    p=triple.predicate,
                    o=triple.object,
                    c=triple.confidence,
                    src=triple.source,
                    d=date,
                    cur=int(triple.curated),
                )
            )
        return out.getvalue()

    @classmethod
    def load_tsv(cls, text: str, ontology: Optional[Ontology] = None) -> "KnowledgeBase":
        """Parse a KB from :meth:`dump_tsv` output."""
        kb = cls(ontology=ontology)
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            fields = line.split("\t")
            kind = fields[0]
            if kind == "E" and len(fields) >= 3:
                entity, type_name = fields[1], fields[2]
                aliases = fields[3].split(",") if len(fields) > 3 and fields[3] else []
                description = fields[4] if len(fields) > 4 else ""
                kb.add_entity(entity, type_name, aliases=aliases, description=description)
            elif kind == "T" and len(fields) >= 4:
                date = parse_date(fields[6]) if len(fields) > 6 and fields[6] else None
                kb.add_fact(
                    fields[1],
                    fields[2],
                    fields[3],
                    confidence=float(fields[4]) if len(fields) > 4 else 1.0,
                    source=fields[5] if len(fields) > 5 else "curated",
                    date=date,
                    curated=bool(int(fields[7])) if len(fields) > 7 else True,
                )
            else:
                raise KBError(f"malformed KB line {line_no}: {line!r}")
        return kb

    # ------------------------------------------------------------------
    def gazetteer(self) -> Dict[str, str]:
        """alias -> NER label map derived from entity types."""
        label_map = {
            "Company": "ORG", "Organization": "ORG", "Agency": "ORG",
            "University": "ORG", "Person": "PERSON", "City": "LOCATION",
            "Country": "LOCATION", "Location": "LOCATION", "Region": "LOCATION",
            "Product": "PRODUCT", "Technology": "MISC",
        }
        out: Dict[str, str] = {}
        for entity, type_name in self._types.items():
            label = None
            current: Optional[str] = type_name
            while current is not None and label is None:
                label = label_map.get(current)
                current = (
                    self.ontology.parent(current)
                    if self.ontology.has_type(current)
                    else None
                )
            if label is None:
                continue
            for alias in self.aliases.aliases_of(entity):
                out[alias] = label
        return out

    def kb_alias_index(self) -> Dict[str, str]:
        """alias -> entity id for unambiguous aliases only."""
        out: Dict[str, str] = {}
        for entity in self._types:
            for alias in self.aliases.aliases_of(entity):
                candidates = self.aliases.candidates(alias)
                if len(candidates) == 1:
                    out[alias] = entity
        return out


def _name_tokens(name: str) -> List[str]:
    tokens = []
    for raw in name.replace("_", " ").lower().split():
        token = raw.strip(".,()\"'")
        if token and token not in _STOPWORDS:
            tokens.append(token)
    return tokens

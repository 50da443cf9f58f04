"""``KnowledgeBase.graph_view()`` is the one graph every reader shares,
so it must stay *order-exactly* equal to a fresh materialisation.

PageRank sums in edge order and the beam search breaks ties in
adjacency order, so "same vertices and edges" is not enough for
byte-identical answers: the vertex sequence, the edge sequence and the
edge ids have to match what ``to_property_graph()`` would build from
the triple store right now.  That holds while no fact is removed (a
removal re-orders the store and the mirror differently; no ``src/``
caller removes facts) — with removals only set equality is promised.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Nous, NousConfig, build_drone_kb
from repro.kb.knowledge_base import KnowledgeBase
from repro.qa.topics import TOPIC_PROP
from repro.storage.snapshot import restore_nous, snapshot_nous

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small pools, so repeated keys (confidence upgrades, no-op re-adds,
# retypes of live vertices) are the common case.
_NAMES = ("A", "B", "C", "E_F", "$5 million")  # the last is a literal object
_PREDICATES = ("likes", "raised")
_TYPES = ("Company", "Person", "Thing")

_names = st.sampled_from(_NAMES)
_add_fact = st.tuples(
    st.just("add_fact"),
    _names,
    st.sampled_from(_PREDICATES),
    _names,
    st.sampled_from((0.2, 0.5, 0.9, 1.0)),  # repeats upgrade or no-op
    st.booleans(),
)
_add_entity = st.tuples(st.just("add_entity"), _names, st.sampled_from(_TYPES))
_set_description = st.tuples(
    st.just("set_description"), _names, st.sampled_from(("", "makes drones"))
)
_remove_stored = st.tuples(st.just("remove_stored"), st.integers(0, 40))


def _apply(kb: KnowledgeBase, op) -> None:
    kind, *args = op
    if kind == "add_fact":
        subject, predicate, object_, confidence, curated = args
        kb.add_fact(
            subject, predicate, object_,
            confidence=confidence, curated=curated, source="test",
        )
    elif kind == "remove_stored":  # the n-th stored fact: always a hit
        stored = list(kb.store)
        if stored:
            kb.remove_fact(*stored[args[0] % len(stored)].key())
    else:
        getattr(kb, kind)(*args)


def ordered_signature(graph):
    """Everything a reader can observe, in iteration order (the derived
    ``topics`` vertex prop aside)."""
    vertices = [
        (v, [(k, p) for k, p in graph.vertex_props(v).items() if k != TOPIC_PROP])
        for v in graph.vertices()
    ]
    edges = [
        (e.eid, e.src, e.label, e.dst, list(e.props.items()))
        for e in graph.edges()
    ]
    return vertices, edges


def assert_order_exact(kb: KnowledgeBase) -> None:
    mirror = kb.graph_view()
    assert ordered_signature(mirror) == ordered_signature(kb.to_property_graph())
    mirror.check_index_invariants()


class TestMirrorEqualsFreshMaterialisation:
    @_SETTINGS
    @given(
        ops=st.lists(
            st.one_of(_add_fact, _add_fact, _add_entity, _set_description),
            max_size=30,
        ),
        data=st.data(),
    )
    def test_order_exact_without_removals(self, ops, data):
        materialise_at = data.draw(st.integers(0, len(ops)))
        kb = KnowledgeBase()
        view = None
        for step, op in enumerate(ops):
            if step == materialise_at:
                view = kb.graph_view()
            _apply(kb, op)
        assert_order_exact(kb)
        assert view is None or kb.graph_view() is view

    @_SETTINGS
    @given(
        ops=st.lists(
            st.one_of(_add_fact, _add_fact, _add_entity, _remove_stored),
            max_size=30,
        ),
        data=st.data(),
    )
    def test_set_equal_with_removals(self, ops, data):
        materialise_at = data.draw(st.integers(0, len(ops)))
        kb = KnowledgeBase()
        for step, op in enumerate(ops):
            if step == materialise_at:
                kb.graph_view()
            _apply(kb, op)
        mirror, fresh = kb.graph_view(), kb.to_property_graph()
        assert {v: mirror.vertex_props(v) for v in mirror.vertices()} == {
            v: fresh.vertex_props(v) for v in fresh.vertices()
        }
        assert {(e.src, e.label, e.dst): e.props for e in mirror.edges()} == {
            (e.src, e.label, e.dst): e.props for e in fresh.edges()
        }
        mirror.check_index_invariants()


class TestMirrorAcrossRestore:
    """Restore drops the mirror with the store it mirrored; the next
    reader re-materialises once and later writes keep it exact."""

    FIRST = [("DJI", "partnerOf", "GoPro"), ("GoPro", "acquired", "Kolor_SAS")]
    LATER = [("Kolor_SAS", "partnerOf", "DJI"), ("DJI", "partnerOf", "GoPro")]

    @staticmethod
    def _engine() -> Nous:
        return Nous(kb=build_drone_kb(), config=NousConfig(lda_iterations=5))

    def test_snapshot_restore_then_writes(self):
        original = self._engine()
        original.kb.graph_view()
        original.ingest_facts(self.FIRST)
        original.explain("GoPro", "DJI")  # sets ``topics`` on the mirror
        state = snapshot_nous(original)

        restored = self._engine()
        before_restore = restored.kb.graph_view()
        restore_nous(restored, state)
        view = restored.kb.graph_view()
        assert view is not before_restore
        assert_order_exact(restored.kb)

        for engine in (original, restored):
            engine.ingest_facts(self.LATER, confidence=0.95)
            engine.kb.add_entity("Kolor_SAS", "Company")
        assert restored.kb.graph_view() is view
        assert_order_exact(restored.kb)
        assert ordered_signature(view) == ordered_signature(
            original.kb.graph_view()
        )
        # The restored engine annotates its own mirror on the next path
        # query, to the vectors the uninterrupted engine holds.
        a = original.explain("GoPro", "DJI")
        b = restored.explain("GoPro", "DJI")
        assert [(p.describe(), p.coherence) for p in a] == [
            (p.describe(), p.coherence) for p in b
        ]

"""Engine-state snapshots and WAL effect records for one NOUS shard.

Two complementary serialisations of a :class:`~repro.core.pipeline.Nous`
engine, both JSON-safe and built on the frozen leaf codecs in
:mod:`repro.api.wire`:

- :func:`snapshot_nous` / :func:`restore_nous` — the *full* state: KB
  (ontology, aliases, entities, facts), sliding window, miner, BPR
  models, source trust, linker cache, mapper state and every monotonic
  counter feeding the composite version stamp.  Restore rebuilds the
  window and miner by replaying the windowed edges through the normal
  listener wiring, then forces the counters, so the restored engine is
  *stamp-exact*: ``dynamic.version`` and every query payload match the
  snapshotted engine byte for byte.

- :func:`record_ingest` / :func:`replay_record` — the *incremental*
  effects of one accepted ingest call, captured as a structured WAL
  record.  Replay skips the expensive stages (NLP extraction, entity
  linking, confidence scoring) and re-applies only their outcomes —
  which facts were accepted, which entities/aliases/predicates were
  minted, how trust moved — then forces the post-call counters, landing
  on the exact same composite stamp the original call produced.

Both sides preserve **dict insertion order** deliberately: under
``PYTHONHASHSEED=0`` the set/dict iteration orders that feed the LDA
topic fit and the BPR training derive from insertion history, so a
restored engine only answers byte-identically if that history is
reproduced.

The restore target must be a *freshly constructed* engine built from
the same curated KB (the NLP gazetteer and alias index are frozen from
it at construction and are not part of the snapshot).
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.wire import (
    date_from_wire,
    date_to_wire,
    pattern_from_wire,
    pattern_to_wire,
    timed_edge_from_wire,
    timed_edge_to_wire,
    triple_from_wire,
    triple_to_wire,
)
from repro.confidence.bpr import BprLinkPredictor, PredicateModel
from repro.confidence.trust import _BetaCounts
from repro.core.pipeline import Nous
from repro.errors import StorageError
from repro.kb.ontology import PredicateSignature
from repro.kb.triples import TripleStore
from repro.linking.mapper import MappedTriple, MappingStats
from repro.nlp.pipeline import RawTriple


# ---------------------------------------------------------------------------
# raw-triple codec (the one engine leaf the wire module has no payload for)
# ---------------------------------------------------------------------------


def raw_triple_to_wire(raw: RawTriple) -> Dict[str, Any]:
    return {
        "subject": raw.subject,
        "relation": raw.relation,
        "object": raw.object,
        "date": date_to_wire(raw.date),
        "doc_id": raw.doc_id,
        "sentence_index": raw.sentence_index,
        "confidence": raw.confidence,
        "extractor": raw.extractor,
        "subject_label": raw.subject_label,
        "object_label": raw.object_label,
        "negated": raw.negated,
        "source": raw.source,
    }


def raw_triple_from_wire(data: Dict[str, Any]) -> RawTriple:
    return RawTriple(
        subject=str(data["subject"]),
        relation=str(data["relation"]),
        object=str(data["object"]),
        date=date_from_wire(data["date"]),
        doc_id=str(data["doc_id"]),
        sentence_index=int(data["sentence_index"]),
        confidence=float(data["confidence"]),
        extractor=str(data["extractor"]),
        subject_label=data["subject_label"],
        object_label=data["object_label"],
        negated=bool(data["negated"]),
        source=str(data["source"]),
    )


def _model_to_wire(model: PredicateModel) -> Dict[str, Any]:
    subjects = sorted(model.subject_index, key=model.subject_index.__getitem__)
    objects = sorted(model.object_index, key=model.object_index.__getitem__)
    return {
        "predicate": model.predicate,
        "subjects": subjects,
        "objects": objects,
        "U": model.U.tolist(),
        "V": model.V.tolist(),
        "object_bias": model.object_bias.tolist(),
        "trained_pairs": sorted(list(pair) for pair in model.trained_pairs),
    }


def _model_from_wire(data: Dict[str, Any]) -> PredicateModel:
    return PredicateModel(
        predicate=str(data["predicate"]),
        subject_index={s: i for i, s in enumerate(data["subjects"])},
        object_index={o: i for i, o in enumerate(data["objects"])},
        U=np.array(data["U"], dtype=np.float64),
        V=np.array(data["V"], dtype=np.float64),
        object_bias=np.array(data["object_bias"], dtype=np.float64),
        trained_pairs={(s, o) for s, o in data["trained_pairs"]},
    )


# ---------------------------------------------------------------------------
# full snapshot
# ---------------------------------------------------------------------------


def snapshot_nous(nous: Nous) -> Dict[str, Any]:
    """Serialise the complete engine state as a JSON-safe dict."""
    kb = nous.kb
    window = nous.dynamic.window
    miner = nous.dynamic.miner
    predictor = nous.estimator.link_predictor
    trust = nous.estimator.source_trust
    return {
        "ontology": {
            "types": [
                [name, parent] for name, parent in kb.ontology._parent.items()
            ],
            "predicates": [
                {
                    "name": sig.name,
                    "domain": sig.domain,
                    "range_": sig.range_,
                    "symmetric": sig.symmetric,
                    "description": sig.description,
                }
                for sig in kb.ontology._predicates.values()
            ],
            "version": kb.ontology.version,
        },
        "aliases": {
            "table": [
                [alias, [[entity, count] for entity, count in slots.items()]]
                for alias, slots in kb.aliases._alias_to_entities.items()
            ],
            "version": kb.aliases.version,
        },
        "kb": {
            "types": [[e, t] for e, t in kb._types.items()],
            "descriptions": [[e, d] for e, d in kb._descriptions.items()],
            "facts": [triple_to_wire(t) for t in kb.store],
            "version": kb._version,
        },
        "window": {
            "edges": [timed_edge_to_wire(e) for e in window.window_edges()],
            "last_timestamp": window._last_timestamp,
            "total_added": window.total_added,
            "total_evicted": window.total_evicted,
        },
        "dynamic": {"facts_streamed": nous.dynamic.facts_streamed},
        "miner": {
            "previous_frequent": sorted(
                (pattern_to_wire(p) for p in miner._previous_frequent),
                key=lambda w: json.dumps(w, sort_keys=True),
            ),
            "updates_processed": miner.updates_processed,
            "embeddings_touched": miner.embeddings_touched,
        },
        "estimator": {
            "models": [
                _model_to_wire(predictor.models[p])
                for p in sorted(predictor.models)
            ],
            "trust": [
                [source, counts.alpha, counts.beta]
                for source, counts in trust._counts.items()
            ],
        },
        "linker_cache": [
            [entity, [[word, count] for word, count in bag.items()]]
            for entity, bag in nous.mapper.linker._context_cache.items()
        ],
        "mapper": {
            "mention_index": [
                [m, e] for m, e in nous.mapper.mention_index.items()
            ],
            "stats": {
                "mapped": nous.mapper.stats.mapped,
                "rejected": [
                    [reason, count]
                    for reason, count in nous.mapper.stats.rejected.items()
                ],
                "created_entities": nous.mapper.stats.created_entities,
            },
        },
        "nous": {
            "documents_ingested": nous.documents_ingested,
            "accepted_since_retrain": nous._accepted_since_retrain,
            "last_timestamp": nous._last_timestamp,
            "raw_buffer": [raw_triple_to_wire(r) for r in nous._raw_buffer],
        },
    }


def restore_nous(nous: Nous, state: Dict[str, Any]) -> None:
    """Restore a snapshot onto a freshly constructed engine, in place.

    Mutates the engine's existing component objects (KB, ontology,
    aliases, window, miner, ...) rather than replacing them, so every
    cross-reference inside the engine stays valid.  The window and miner
    are rebuilt by replaying the snapshotted window edges through the
    normal add-listener wiring; the monotonic counters are then forced
    to their snapshotted values so the composite stamp is exact.

    Raises:
        StorageError: if the engine has already streamed facts (restore
            only targets a fresh engine built from the same curated KB).
    """
    if nous.dynamic.window.total_added or nous.dynamic.facts_streamed:
        raise StorageError(
            "restore_nous needs a freshly constructed engine "
            f"(window already holds {nous.dynamic.window.total_added} adds)"
        )
    kb = nous.kb
    ontology = kb.ontology

    ontology._parent = {
        name: parent for name, parent in state["ontology"]["types"]
    }
    ontology._predicates = {
        sig["name"]: PredicateSignature(
            name=sig["name"],
            domain=sig["domain"],
            range_=sig["range_"],
            symmetric=sig["symmetric"],
            description=sig["description"],
        )
        for sig in state["ontology"]["predicates"]
    }

    aliases = kb.aliases
    aliases._alias_to_entities = {
        alias: {entity: count for entity, count in slots}
        for alias, slots in state["aliases"]["table"]
    }
    aliases._entity_to_aliases = {}
    for alias, slots in aliases._alias_to_entities.items():
        for entity in slots:
            aliases._entity_to_aliases.setdefault(entity, set()).add(alias)

    kb._types = {}
    kb._by_exact_type = {}
    for entity, type_name in state["kb"]["types"]:
        kb._set_type(entity, type_name)
    kb._descriptions = {e: d for e, d in state["kb"]["descriptions"]}
    kb.store = TripleStore()
    for wire_fact in state["kb"]["facts"]:
        kb.store.add(triple_from_wire(wire_fact))
    kb._graph_view = None

    predictor = nous.estimator.link_predictor
    restored = BprLinkPredictor(
        n_factors=predictor.n_factors,
        n_epochs=predictor.n_epochs,
        learning_rate=predictor.learning_rate,
        regularization=predictor.regularization,
        seed=predictor.seed,
        default_score=predictor.default_score,
    )
    restored.models = {
        m["predicate"]: _model_from_wire(m)
        for m in state["estimator"]["models"]
    }
    nous.estimator.link_predictor = restored
    nous.estimator.source_trust._counts = {
        source: _BetaCounts(alpha, beta)
        for source, alpha, beta in state["estimator"]["trust"]
    }

    nous.mapper.linker._context_cache = {
        entity: Counter({word: count for word, count in bag})
        for entity, bag in state["linker_cache"]
    }
    nous.mapper.mention_index = {
        m: e for m, e in state["mapper"]["mention_index"]
    }
    stats = state["mapper"]["stats"]
    nous.mapper.stats = MappingStats(
        mapped=stats["mapped"],
        rejected=Counter({r: c for r, c in stats["rejected"]}),
        created_entities=stats["created_entities"],
    )

    # Window + miner: replay the windowed edges through the real add
    # path so the miner's incremental state (supports, embeddings,
    # incident index) rebuilds via the listener wiring — entity types
    # resolve exactly as at original add time because the KB above is
    # already final and types are never reassigned.
    window = nous.dynamic.window
    for wire_edge in state["window"]["edges"]:
        edge = timed_edge_from_wire(wire_edge)
        window.add_edge(
            edge.src,
            edge.dst,
            edge.label,
            edge.timestamp,
            **dict(edge.props),
        )
    miner = nous.dynamic.miner
    miner._previous_frequent = {
        pattern_from_wire(p) for p in state["miner"]["previous_frequent"]
    }

    nous._raw_buffer = deque(
        (raw_triple_from_wire(r) for r in state["nous"]["raw_buffer"]),
        maxlen=nous._raw_buffer.maxlen,
    )
    nous._topics_version = -1

    _force_counters(
        nous,
        {
            "kb_version": state["kb"]["version"],
            "aliases_version": state["aliases"]["version"],
            "ontology_version": state["ontology"]["version"],
            "total_added": state["window"]["total_added"],
            "total_evicted": state["window"]["total_evicted"],
            "window_last_timestamp": state["window"]["last_timestamp"],
            "facts_streamed": state["dynamic"]["facts_streamed"],
            "updates_processed": state["miner"]["updates_processed"],
            "embeddings_touched": state["miner"]["embeddings_touched"],
            "documents_ingested": state["nous"]["documents_ingested"],
            "accepted_since_retrain": state["nous"]["accepted_since_retrain"],
            "last_timestamp": state["nous"]["last_timestamp"],
        },
    )


def _force_counters(nous: Nous, counters: Dict[str, Any]) -> None:
    """Pin every monotonic counter feeding the composite stamp."""
    nous.kb._version = counters["kb_version"]
    nous.kb.aliases.version = counters["aliases_version"]
    nous.kb.ontology.version = counters["ontology_version"]
    window = nous.dynamic.window
    window.total_added = counters["total_added"]
    window.total_evicted = counters["total_evicted"]
    window._last_timestamp = counters["window_last_timestamp"]
    nous.dynamic.facts_streamed = counters["facts_streamed"]
    nous.dynamic.miner.updates_processed = counters["updates_processed"]
    nous.dynamic.miner.embeddings_touched = counters["embeddings_touched"]
    nous.documents_ingested = counters["documents_ingested"]
    nous._accepted_since_retrain = counters["accepted_since_retrain"]
    nous._last_timestamp = counters["last_timestamp"]


# ---------------------------------------------------------------------------
# WAL effect records
# ---------------------------------------------------------------------------


class IngestRecorder:
    """Captures the effects of one accepted ingest call as a WAL record.

    Used through :func:`record_ingest`; while active it observes the
    engine's accept path (which facts reach the dynamic KG, in which
    batches — the batch structure matters because a batch skips its
    window-doomed facts) and diffs the grow-only engine tables around
    the call.  :attr:`record` is available after the context exits
    cleanly.
    """

    def __init__(self, nous: Nous) -> None:
        self.nous = nous
        self.record: Optional[Dict[str, Any]] = None
        # ("batch", [(mapped, conf, ts), ...]) or ("retrain", None)
        self._events: List[Tuple[str, Any]] = []
        self._raws_extracted = 0
        kb = nous.kb
        self._pre_entities = len(kb._types)
        self._pre_types = len(kb.ontology._parent)
        self._pre_predicates = len(kb.ontology._predicates)
        self._pre_mentions = len(nous.mapper.mention_index)
        self._pre_cache = set(nous.mapper.linker._context_cache)
        self._pre_aliases = {
            alias: dict(slots)
            for alias, slots in kb.aliases._alias_to_entities.items()
        }

    # -- observation hooks (installed by record_ingest) -----------------
    def _on_accept_batch(self, facts) -> None:
        self._events.append(("batch", list(facts)))

    def _on_extract(self, n_triples: int) -> None:
        self._raws_extracted += n_triples

    def _on_retrain(self) -> None:
        self._events.append(("retrain", None))

    # -- record construction --------------------------------------------
    def finish(self) -> Dict[str, Any]:
        nous = self.nous
        kb = nous.kb
        window = nous.dynamic.window
        miner = nous.dynamic.miner

        new_entities = [
            [e, kb._types[e], kb._descriptions.get(e, "")]
            for e in list(kb._types)[self._pre_entities:]
        ]
        alias_sets: List[List[Any]] = []
        for alias, slots in kb.aliases._alias_to_entities.items():
            before = self._pre_aliases.get(alias, {})
            for entity, count in slots.items():
                if before.get(entity) != count:
                    alias_sets.append([alias, entity, count])
        new_types = [
            [name, kb.ontology._parent[name]]
            for name in list(kb.ontology._parent)[self._pre_types:]
        ]
        new_predicates = [
            {
                "name": sig.name,
                "domain": sig.domain,
                "range_": sig.range_,
                "symmetric": sig.symmetric,
                "description": sig.description,
            }
            for sig in list(kb.ontology._predicates.values())[
                self._pre_predicates:
            ]
        ]
        # The linker cache is a lazily recomputed memo whose *staleness*
        # is part of byte-exact state.  Calls without a retrain only ever
        # add entries, so a key diff suffices; a mid-call retrain wipes
        # the cache, after which surviving entries were recomputed from
        # an intermediate KB — the record then carries the full
        # end-of-call cache so replay can reinstate it absolutely.
        retrained = any(kind == "retrain" for kind, _ in self._events)
        cache = nous.mapper.linker._context_cache
        cache_adds = [
            [entity, [[w, c] for w, c in cache[entity].items()]]
            for entity in cache
            if retrained or entity not in self._pre_cache
        ]
        new_mentions = [
            [m, nous.mapper.mention_index[m]]
            for m in list(nous.mapper.mention_index)[self._pre_mentions:]
        ]
        n_raws = min(self._raws_extracted, len(nous._raw_buffer))
        raws = (
            [
                raw_triple_to_wire(r)
                for r in list(nous._raw_buffer)[-n_raws:]
            ]
            if n_raws
            else []
        )

        self.record = {
            "events": [
                {"kind": kind}
                if kind == "retrain"
                else {
                    "kind": kind,
                    "facts": [_fact_to_wire(m, c, t) for m, c, t in payload],
                }
                for kind, payload in self._events
            ],
            "entities": new_entities,
            "aliases": alias_sets,
            "types": new_types,
            "predicates": new_predicates,
            "cache": cache_adds,
            "mention_index": new_mentions,
            "stats": {
                "mapped": nous.mapper.stats.mapped,
                "rejected": [
                    [r, c] for r, c in nous.mapper.stats.rejected.items()
                ],
                "created_entities": nous.mapper.stats.created_entities,
            },
            "raws": raws,
            "trust": [
                [source, counts.alpha, counts.beta]
                for source, counts in (
                    nous.estimator.source_trust._counts.items()
                )
            ],
            "retrained": retrained,
            "counters": {
                "kb_version": kb._version,
                "aliases_version": kb.aliases.version,
                "ontology_version": kb.ontology.version,
                "total_added": window.total_added,
                "total_evicted": window.total_evicted,
                "window_last_timestamp": window._last_timestamp,
                "facts_streamed": nous.dynamic.facts_streamed,
                "updates_processed": miner.updates_processed,
                "embeddings_touched": miner.embeddings_touched,
                "documents_ingested": nous.documents_ingested,
                "accepted_since_retrain": nous._accepted_since_retrain,
                "last_timestamp": nous._last_timestamp,
            },
        }
        return self.record


@contextlib.contextmanager
def record_ingest(nous: Nous) -> Iterator[IngestRecorder]:
    """Capture one ingest call's effects as a replayable WAL record.

    Wrap exactly one engine-mutating ingest call (``ingest_batch`` plus
    its deferred ``retrain_if_due``, or ``ingest_facts``).  On clean
    exit the recorder's :attr:`IngestRecorder.record` holds the record;
    if the wrapped call raises, no record is produced.
    """
    recorder = IngestRecorder(nous)
    dynamic = nous.dynamic
    estimator = nous.estimator
    orig_batch = dynamic.accept_batch
    orig_extract_batch = nous._extract_batch
    orig_retrain = estimator.retrain

    def accept_batch(facts):
        recorder._on_accept_batch(facts)
        return orig_batch(facts)

    def extract_batch(articles):
        extracted = orig_extract_batch(articles)
        for triples, _context in extracted:
            recorder._on_extract(len(triples))
        return extracted

    def retrain(triples):
        # Recorded as an ordered event: a mid-call retrain refits from
        # the KG *at that point*, so replay must re-run it at the same
        # point in the accept stream, not at the end of the record.
        recorder._on_retrain()
        return orig_retrain(triples)

    dynamic.accept_batch = accept_batch  # type: ignore[method-assign]
    nous._extract_batch = extract_batch  # type: ignore[method-assign]
    estimator.retrain = retrain  # type: ignore[method-assign]
    try:
        yield recorder
        recorder.finish()
    finally:
        del dynamic.accept_batch
        del nous._extract_batch
        del estimator.retrain


def _fact_to_wire(
    mapped: MappedTriple, confidence: float, timestamp: float
) -> Dict[str, Any]:
    return {
        "s": mapped.subject,
        "p": mapped.predicate,
        "o": mapped.object,
        "confidence": confidence,
        "source": mapped.source,
        "date": date_to_wire(mapped.date),
        "timestamp": timestamp,
    }


def _fact_from_wire(
    data: Dict[str, Any]
) -> Tuple[MappedTriple, float, float]:
    date = date_from_wire(data["date"])
    raw = RawTriple(
        subject=str(data["s"]),
        relation=str(data["p"]),
        object=str(data["o"]),
        date=date,
        source=str(data["source"]),
        confidence=float(data["confidence"]),
    )
    mapped = MappedTriple(
        subject=str(data["s"]),
        predicate=str(data["p"]),
        object=str(data["o"]),
        object_is_literal=False,
        extraction_confidence=float(data["confidence"]),
        link_confidence=1.0,
        mapping_confidence=1.0,
        date=date,
        doc_id="",
        source=str(data["source"]),
        raw=raw,
    )
    return mapped, float(data["confidence"]), float(data["timestamp"])


def replay_record(nous: Nous, record: Dict[str, Any]) -> None:
    """Re-apply one WAL record's effects, landing on its exact stamp.

    Replay order mirrors the original call's effect order: ontology
    growth first (types, predicates), then minted entities and absolute
    alias counts — so the accept path's endpoint auto-registration
    no-ops instead of corrupting alias priors — then mention-index
    growth, then the ordered event stream: accepted facts through the
    *same* accept path (batch structure preserved, so window dooming
    replays identically; the ``"fact"`` events of WALs written before
    every accept became a batch replay as singleton batches) with
    retrains re-run at their original positions (a mid-call retrain fits
    the KG as it stood at that point).  Trust/stats land wholesale, the
    linker cache is reinstated last (absolute on retrained records), and
    the counters are forced.
    """
    kb = nous.kb
    for name, parent in record["types"]:
        kb.ontology.add_type(name, parent)
    for sig in record["predicates"]:
        kb.ontology.add_predicate(
            sig["name"],
            domain=sig["domain"],
            range_=sig["range_"],
            symmetric=sig["symmetric"],
            description=sig["description"],
        )
    for entity, type_name, description in record["entities"]:
        kb._set_type(entity, type_name)
        if description:
            kb._descriptions[entity] = description
    for alias, entity, count in record["aliases"]:
        kb.aliases._alias_to_entities.setdefault(alias, {})[entity] = count
        kb.aliases._entity_to_aliases.setdefault(entity, set()).add(alias)
    for mention, entity in record["mention_index"]:
        nous.mapper.mention_index[mention] = entity

    for event in record["events"]:
        if event["kind"] == "retrain":
            nous.estimator.retrain(kb.store)
            nous.mapper.linker.invalidate_cache()
            continue
        facts = [_fact_from_wire(f) for f in event["facts"]]
        if event["kind"] == "batch":
            nous.dynamic.accept_batch(facts)
        else:  # "fact"
            for mapped, confidence, timestamp in facts:
                nous.dynamic.accept_fact(mapped, confidence, timestamp)

    # Cache entries land *after* any retrain wipe: on retrained records
    # record["cache"] is the full end-of-call cache (absolute), otherwise
    # it is the set of entries this call added.  Nothing during replay
    # reads the cache, so applying it last is safe and exact.
    for entity, bag in record["cache"]:
        nous.mapper.linker._context_cache[entity] = Counter(
            {word: count for word, count in bag}
        )

    stats = record["stats"]
    nous.mapper.stats = MappingStats(
        mapped=stats["mapped"],
        rejected=Counter({r: c for r, c in stats["rejected"]}),
        created_entities=stats["created_entities"],
    )
    nous.estimator.source_trust._counts = {
        source: _BetaCounts(alpha, beta)
        for source, alpha, beta in record["trust"]
    }
    nous._raw_buffer.extend(
        raw_triple_from_wire(r) for r in record["raws"]
    )
    _force_counters(nous, record["counters"])

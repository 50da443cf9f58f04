"""Typed triple storage with SPO/POS/OSP indexes.

The store answers the access patterns the rest of NOUS needs in O(1)
index lookups: all facts about an entity, all pairs under a predicate,
and existence checks used by link prediction and the miners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.nlp.dates import SimpleDate


@dataclass(frozen=True)
class Triple:
    """An edge of the knowledge graph.

    Attributes:
        subject: Canonical subject entity id.
        predicate: Ontology predicate name.
        object: Canonical object entity id (or literal string).
        confidence: Belief in the fact, in (0, 1]; curated facts are 1.0.
        source: Provenance tag ("yago", "wsj", a crawl site, ...).
        date: Optional fact date (publication or event date).
        curated: True for facts imported from the curated KB.
    """

    subject: str
    predicate: str
    object: str
    confidence: float = 1.0
    source: str = "curated"
    date: Optional[SimpleDate] = None
    curated: bool = True

    def key(self) -> Tuple[str, str, str]:
        """The (s, p, o) identity of this triple."""
        return (self.subject, self.predicate, self.object)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"({self.subject}, {self.predicate}, {self.object})"


class TripleStore:
    """Indexed set of :class:`Triple` (one fact per (s, p, o) key).

    Re-adding an existing key keeps the *higher-confidence* version, so
    extraction can never degrade curated knowledge.
    """

    def __init__(self) -> None:
        self._facts: Dict[Tuple[str, str, str], Triple] = {}
        self._spo: Dict[str, Dict[str, Set[str]]] = {}
        self._pos: Dict[str, Dict[str, Set[str]]] = {}
        self._osp: Dict[str, Dict[str, Set[str]]] = {}

    def add(self, triple: Triple) -> bool:
        """Insert a triple.

        Returns:
            True if the store changed (new fact, or confidence upgraded).
        """
        key = triple.key()
        existing = self._facts.get(key)
        if existing is not None:
            if triple.confidence > existing.confidence:
                self._facts[key] = triple
                return True
            return False
        self._facts[key] = triple
        s, p, o = key
        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        return True

    def remove(self, subject: str, predicate: str, object: str) -> bool:
        """Delete a fact; returns True if it was present."""
        key = (subject, predicate, object)
        if key not in self._facts:
            return False
        del self._facts[key]
        self._spo[subject][predicate].discard(object)
        self._pos[predicate][object].discard(subject)
        self._osp[object][subject].discard(predicate)
        return True

    def __contains__(self, key: Tuple[str, str, str]) -> bool:
        return key in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._facts.values())

    def get(self, subject: str, predicate: str, object: str) -> Optional[Triple]:
        """Fetch the stored fact for an exact key, if any."""
        return self._facts.get((subject, predicate, object))

    # ------------------------------------------------------------------
    # pattern queries; None is a wildcard
    # ------------------------------------------------------------------
    def match(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        object: Optional[str] = None,
    ) -> List[Triple]:
        """All facts matching a (possibly wildcarded) pattern."""
        if subject is not None and predicate is not None and object is not None:
            fact = self._facts.get((subject, predicate, object))
            return [fact] if fact else []
        if subject is not None and predicate is not None:
            objects = self._spo.get(subject, {}).get(predicate, set())
            return [self._facts[(subject, predicate, o)] for o in objects]
        if predicate is not None and object is not None:
            subjects = self._pos.get(predicate, {}).get(object, set())
            return [self._facts[(s, predicate, object)] for s in subjects]
        if subject is not None and object is not None:
            predicates = self._osp.get(object, {}).get(subject, set())
            return [self._facts[(subject, p, object)] for p in predicates]
        if subject is not None:
            return [
                self._facts[(subject, p, o)]
                for p, objs in self._spo.get(subject, {}).items()
                for o in objs
            ]
        if predicate is not None:
            return [
                self._facts[(s, predicate, o)]
                for o, subjects in self._pos.get(predicate, {}).items()
                for s in subjects
            ]
        if object is not None:
            return [
                self._facts[(s, p, object)]
                for s, preds in self._osp.get(object, {}).items()
                for p in preds
            ]
        return list(self._facts.values())

    def objects(self, subject: str, predicate: str) -> Set[str]:
        """Objects o with (subject, predicate, o) in the store."""
        return set(self._spo.get(subject, {}).get(predicate, set()))

    def subjects(self, predicate: str, object: str) -> Set[str]:
        """Subjects s with (s, predicate, object) in the store."""
        return set(self._pos.get(predicate, {}).get(object, set()))

    def predicates(self) -> Set[str]:
        """All predicates present."""
        return set(self._pos)

    def entities(self) -> Set[str]:
        """All subjects and objects present."""
        return set(self._spo) | set(self._osp)

    def about(self, entity: str) -> List[Triple]:
        """All facts where ``entity`` is subject or object."""
        return self.match(subject=entity) + [
            t for t in self.match(object=entity) if t.subject != entity
        ]

    def neighbors(self, entity: str) -> Set[str]:
        """Entities one hop away from ``entity``."""
        out = {t.object for t in self.match(subject=entity)}
        out |= {t.subject for t in self.match(object=entity)}
        out.discard(entity)
        return out

    def degree(self, entity: str) -> int:
        """Number of facts touching ``entity``."""
        return len(self.about(entity))

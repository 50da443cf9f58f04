"""Alias dictionary: surface forms -> candidate entities with priors.

AIDA-style entity disambiguation starts from a mention-entity candidate
table with popularity priors; this class provides it, built either from
curated KB aliases or incrementally as new entities stream in.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


def normalize_alias(text: str) -> str:
    """Canonical key for alias lookup: lowercase, collapsed spaces,
    determiners and trailing possessives stripped."""
    words = text.lower().replace("'s", " ").split()
    while words and words[0] in {"the", "a", "an"}:
        words = words[1:]
    return " ".join(words)


class AliasDictionary:
    """Bidirectional alias table with per-(alias, entity) counts.

    The count acts as the popularity prior: ``p(entity | alias)`` is the
    count normalised over all entities sharing the alias.
    """

    def __init__(self) -> None:
        self._alias_to_entities: Dict[str, Dict[str, int]] = {}
        self._entity_to_aliases: Dict[str, Set[str]] = {}
        # Monotonic mutation stamp, folded into KnowledgeBase.version so
        # alias changes invalidate query-result caches.
        self.version = 0

    def add(self, alias: str, entity: str, count: int = 1) -> None:
        """Register (or reinforce) an alias for an entity."""
        key = normalize_alias(alias)
        if not key:
            return
        slots = self._alias_to_entities.setdefault(key, {})
        slots[entity] = slots.get(entity, 0) + count
        self._entity_to_aliases.setdefault(entity, set()).add(key)
        self.version += 1

    def candidates(self, mention: str) -> List[Tuple[str, float]]:
        """Candidate entities for a mention with normalised priors.

        Returns:
            ``[(entity, prior)]`` sorted by descending prior; empty when
            the mention is unknown.
        """
        key = normalize_alias(mention)
        slots = self._alias_to_entities.get(key)
        if not slots:
            return []
        total = sum(slots.values())
        ranked = sorted(slots.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(entity, count / total) for entity, count in ranked]

    def aliases_of(self, entity: str) -> Set[str]:
        """All normalised aliases registered for an entity."""
        return set(self._entity_to_aliases.get(entity, set()))

    def entities(self) -> Set[str]:
        return set(self._entity_to_aliases)

    def __len__(self) -> int:
        return len(self._alias_to_entities)

    def merge(self, other: "AliasDictionary") -> None:
        """Fold another dictionary's counts into this one."""
        for alias, slots in other._alias_to_entities.items():
            for entity, count in slots.items():
                self.add(alias, entity, count)

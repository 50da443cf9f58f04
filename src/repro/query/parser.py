"""NL-like query parsing: surface templates -> query objects.

The paper's Figure 5 shows "natural language like queries that are
transparently translated" to graph algorithms.  The parser is template
based (this is a query language, not open-domain NLU): each query class
has a small family of accepted phrasings.
"""

from __future__ import annotations

import re
from typing import Tuple

from repro.errors import QueryParseError
from repro.linking.predicate_mapping import normalize_relation
from repro.query.model import (
    CentralityQuery,
    ComponentsQuery,
    EntityQuery,
    EntityTrendQuery,
    ExplanatoryQuery,
    PageRankQuery,
    PatternQuery,
    Query,
    RelationshipQuery,
    TrendingQuery,
)

_TRENDING_RE = re.compile(
    r"^(show\s+)?(what('s| is)\s+)?trending(\s+patterns?)?\??$"
    r"|^show\s+trending.*$|^what\s+is\s+trending\??$",
    re.IGNORECASE,
)

# Analytics templates run before the catch-all entity templates, or
# "what is pagerank" would parse as an entity summary of "pagerank".
_PAGERANK_RE = re.compile(
    r"^(show\s+|compute\s+|what\s+is\s+)?page\s?rank"
    r"(\s+top\s+(?P<n>\d+))?\??$",
    re.IGNORECASE,
)

_COMPONENTS_RE = re.compile(
    r"^(show\s+|find\s+|list\s+)?connected\s+components\??$", re.IGNORECASE
)

_CENTRALITY_RES = [
    re.compile(
        r"^(show\s+|compute\s+)?degree\s+centrality(\s+top\s+(?P<n>\d+))?\??$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^(show\s+)?most\s+connected\s+entities(\s+top\s+(?P<n>\d+))?\??$",
        re.IGNORECASE,
    ),
]

_ENTITY_RES = [
    re.compile(r"^tell\s+me\s+about\s+(?P<e>.+?)\??$", re.IGNORECASE),
    re.compile(r"^who\s+is\s+(?P<e>.+?)\??$", re.IGNORECASE),
    re.compile(r"^what\s+is\s+(?P<e>.+?)\??$", re.IGNORECASE),
    re.compile(r"^summar(y|ize)\s+(of\s+)?(?P<e>.+?)\??$", re.IGNORECASE),
]

_RELATED_RES = [
    re.compile(
        r"^how\s+(is|are)\s+(?P<s>.+?)\s+(related|connected)\s+to\s+(?P<t>.+?)"
        r"(\s+via\s+(?P<p>\w+))?\??$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^(find\s+)?paths?\s+from\s+(?P<s>.+?)\s+to\s+(?P<t>.+?)"
        r"(\s+via\s+(?P<p>\w+))?\??$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^connect\s+(?P<s>.+?)\s+(and|with|to)\s+(?P<t>.+?)\??$", re.IGNORECASE
    ),
]

_WHY_RES = [
    # "why does Windermere use drones"
    re.compile(
        r"^why\s+(does|do|did|would|may|might)\s+(?P<s>.+?)\s+"
        r"(?P<v>\w+)\s+(?P<t>.+?)\??$",
        re.IGNORECASE,
    ),
    # "why is DJI related to Accel Partners"
    re.compile(
        r"^why\s+(is|are|was|were)\s+(?P<s>.+?)\s+"
        r"(related|connected|linked)\s+to\s+(?P<t>.+?)\??$",
        re.IGNORECASE,
    ),
]

_PATTERN_RE = re.compile(r"^(match|find\s+pattern)\s+(?P<p>\(.+)$", re.IGNORECASE)

_ENTITY_TREND_RES = [
    re.compile(r"^what('s| is)\s+new\s+(about|with)\s+(?P<e>.+?)\??$", re.IGNORECASE),
    re.compile(r"^recent\s+news\s+(about|on)\s+(?P<e>.+?)\??$", re.IGNORECASE),
]

# Verb -> ontology predicate hints for explanatory queries.
_VERB_PREDICATES = {
    "use": "usesTechnology",
    "uses": "usesTechnology",
    "employ": "usesTechnology",
    "acquire": "acquired",
    "acquired": "acquired",
    "buy": "acquired",
    "fund": "fundedBy",
    "invest": "investsIn",
    "partner": "partnerOf",
    "regulate": "regulates",
    "manufacture": "manufactures",
    "make": "manufactures",
    "supply": "suppliesTo",
}


def _split_at_verb(subject: str, verb: str, target: str) -> Tuple[str, str, str]:
    """Re-split a ``why does S <verb> T`` match at the first known verb.

    The template's lazy ``S`` stops at the first space, so a multi-word
    subject ("General Atomics supply drones") comes out as S="General",
    verb="Atomics" — and linking those fragments *mints* entities, i.e.
    a read moves the KG stamp.  Splitting at the first token that
    normalises to a :data:`_VERB_PREDICATES` verb keeps the subject
    whole; a lower-case candidate wins over a capitalised one, which is
    more likely part of a name ("Accel Partners fund DJI").  With no
    known verb the template's own split stands.
    """
    tokens = f"{subject} {verb} {target}".split()
    candidates = [
        i
        for i in range(1, len(tokens) - 1)
        if normalize_relation(tokens[i]) in _VERB_PREDICATES
    ]
    if not candidates:
        return subject, verb, target
    lower_case = [i for i in candidates if tokens[i].islower()]
    i = (lower_case or candidates)[0]
    return " ".join(tokens[:i]), tokens[i], " ".join(tokens[i + 1:])


def _normalize_mention(mention: str) -> str:
    """Canonical form for captured entity mentions: lowercase, single
    spaces.  Alias lookup is already case/whitespace-insensitive
    (:func:`repro.kb.aliases.normalize_alias`), so linking is
    unaffected."""
    return " ".join(mention.split()).lower()


def parse_query(text: str) -> Query:
    """Parse one query string into a :class:`Query` object.

    The parse is **normalizing**: surface case and whitespace are
    canonicalised (queries lowercased, runs of whitespace collapsed, and
    captured mentions likewise), so textually-equivalent strings —
    ``"Tell me about DJI"`` and ``"tell  me about dji"`` — produce
    *equal* :class:`Query` objects and therefore share one query-result
    cache entry.  Pattern text and explicit ``via <predicate>`` names
    keep their case (predicates are camelCase ontology ids).

    Raises:
        QueryParseError: when no template matches.
    """
    stripped = " ".join(text.split())
    if not stripped:
        raise QueryParseError(text, "empty query")
    lowered = stripped.lower()

    if _TRENDING_RE.match(lowered):
        return TrendingQuery(text=lowered)

    match = _PAGERANK_RE.match(stripped)
    if match:
        top = int(match.group("n")) if match.group("n") else 10
        return PageRankQuery(text=lowered, top=top)

    if _COMPONENTS_RE.match(lowered):
        return ComponentsQuery(text=lowered)

    for regex in _CENTRALITY_RES:
        match = regex.match(stripped)
        if match:
            top = int(match.group("n")) if match.group("n") else 10
            return CentralityQuery(text=lowered, metric="degree", top=top)

    for regex in _ENTITY_TREND_RES:
        match = regex.match(stripped)
        if match:
            return EntityTrendQuery(
                text=lowered, entity=_normalize_mention(match.group("e"))
            )

    match = _PATTERN_RE.match(stripped)
    if match:
        pattern_text = match.group("p").strip()
        return PatternQuery(
            text=f"match {pattern_text}", pattern_text=pattern_text
        )

    for regex in _WHY_RES:
        match = regex.match(stripped)
        if match:
            groups = match.groupdict()
            source, target, relationship = groups["s"], groups["t"], None
            if groups.get("v"):
                source, verb, target = _split_at_verb(
                    source, groups["v"], target
                )
                relationship = _VERB_PREDICATES.get(normalize_relation(verb))
            return ExplanatoryQuery(
                text=lowered,
                source=_normalize_mention(source),
                target=_normalize_mention(target),
                relationship=relationship,
            )

    for regex in _RELATED_RES:
        match = regex.match(stripped)
        if match:
            groups = match.groupdict()
            return RelationshipQuery(
                text=lowered,
                source=_normalize_mention(groups["s"]),
                target=_normalize_mention(groups["t"]),
                # Case preserved: predicates are camelCase ontology ids.
                relationship=groups.get("p"),
            )

    for regex in _ENTITY_RES:
        match = regex.match(stripped)
        if match:
            return EntityQuery(
                text=lowered, entity=_normalize_mention(match.group("e"))
            )

    raise QueryParseError(text, "no query template matched")

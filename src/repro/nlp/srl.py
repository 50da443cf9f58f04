"""Verb-frame semantic role labelling (SRL-lite).

The appendix of the paper (Figure 3) shows triples produced "using
Semantic Role Labeling".  This module implements a frame-lexicon SRL:
for verbs with known frames it assigns PropBank-flavoured roles — A0
(agent), A1 (patient/theme) and a small set of modifier roles resolved
through the verb's preferred prepositions (price, source, purpose,
location, time, partner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.nlp.chunker import Chunk, chunk_sentence
from repro.nlp.lexicon import verb_lemma
from repro.nlp.openie import OpenIEExtractor
from repro.nlp.tokenizer import Token

# Frame lexicon: verb lemma -> {'object_role': role of the direct object,
# 'preps': preposition -> role}.
FRAMES: Dict[str, Dict] = {
    "acquire": {"object_role": "A1", "preps": {"for": "AM-PRICE", "from": "A2-SOURCE", "in": "AM-TMP"}},
    "buy": {"object_role": "A1", "preps": {"for": "AM-PRICE", "from": "A2-SOURCE"}},
    "purchase": {"object_role": "A1", "preps": {"for": "AM-PRICE", "from": "A2-SOURCE"}},
    "raise": {"object_role": "A1", "preps": {"from": "A2-SOURCE", "in": "AM-TMP", "at": "AM-VALUATION"}},
    "invest": {"object_role": None, "preps": {"in": "A1", "with": "A2-PARTNER"}},
    "use": {"object_role": "A1", "preps": {"for": "AM-PNC", "in": "AM-LOC", "to": "AM-PNC"}},
    "employ": {"object_role": "A1", "preps": {"for": "AM-PNC", "to": "AM-PNC"}},
    "deploy": {"object_role": "A1", "preps": {"in": "AM-LOC", "for": "AM-PNC", "to": "AM-PNC"}},
    "launch": {"object_role": "A1", "preps": {"in": "AM-TMP", "at": "AM-LOC"}},
    "unveil": {"object_role": "A1", "preps": {"at": "AM-LOC", "in": "AM-TMP"}},
    "announce": {"object_role": "A1", "preps": {"in": "AM-TMP", "at": "AM-LOC"}},
    "release": {"object_role": "A1", "preps": {"in": "AM-TMP"}},
    "partner": {"object_role": None, "preps": {"with": "A1", "on": "A2-TOPIC"}},
    "merge": {"object_role": None, "preps": {"with": "A1"}},
    "sue": {"object_role": "A1", "preps": {"over": "A2-TOPIC", "for": "A2-TOPIC"}},
    "ban": {"object_role": "A1", "preps": {"in": "AM-LOC", "from": "A2-SCOPE"}},
    "approve": {"object_role": "A1", "preps": {"for": "A2-SCOPE", "in": "AM-TMP"}},
    "hire": {"object_role": "A1", "preps": {"as": "A2-ROLE", "from": "A2-SOURCE"}},
    "manufacture": {"object_role": "A1", "preps": {"in": "AM-LOC", "for": "A2-CLIENT"}},
    "sell": {"object_role": "A1", "preps": {"to": "A2-BUYER", "for": "AM-PRICE", "in": "AM-LOC"}},
    "test": {"object_role": "A1", "preps": {"in": "AM-LOC", "for": "AM-PNC"}},
    "develop": {"object_role": "A1", "preps": {"for": "A2-CLIENT", "with": "A2-PARTNER"}},
    "supply": {"object_role": "A1", "preps": {"to": "A2-BUYER"}},
    "deliver": {"object_role": "A1", "preps": {"to": "A2-BUYER", "in": "AM-LOC", "by": "AM-TMP"}},
    "regulate": {"object_role": "A1", "preps": {"in": "AM-LOC"}},
    "fund": {"object_role": "A1", "preps": {"with": "AM-PRICE"}},
    "value": {"object_role": "A1", "preps": {"at": "AM-VALUATION"}},
    "crash": {"object_role": None, "preps": {"in": "AM-LOC", "near": "AM-LOC", "during": "AM-TMP"}},
    "operate": {"object_role": "A1", "preps": {"in": "AM-LOC"}},
    "expand": {"object_role": "A1", "preps": {"into": "A2-SCOPE", "in": "AM-LOC"}},
    "open": {"object_role": "A1", "preps": {"in": "AM-LOC"}},
    "win": {"object_role": "A1", "preps": {"from": "A2-SOURCE"}},
    "sign": {"object_role": "A1", "preps": {"with": "A2-PARTNER"}},
    "file": {"object_role": "A1", "preps": {"against": "A2-TARGET", "in": "AM-LOC"}},
    "introduce": {"object_role": "A1", "preps": {"in": "AM-TMP", "at": "AM-LOC"}},
}


@dataclass
class SrlFrame:
    """A predicate with its filled roles.

    Attributes:
        verb: Verb lemma (the frame's predicate).
        roles: Role name -> argument text; always contains ``A0``.
        negated: Verb group negation flag.
        confidence: Heuristic confidence inherited from extraction.
    """

    verb: str
    roles: Dict[str, str] = field(default_factory=dict)
    negated: bool = False
    confidence: float = 0.6

    def triples(self) -> List[tuple]:
        """Flatten into ``(A0, verb[:role], argument)`` triples."""
        agent = self.roles.get("A0")
        if agent is None:
            return []
        out = []
        for role, text in self.roles.items():
            if role == "A0":
                continue
            relation = self.verb if role == "A1" else f"{self.verb}:{role.lower()}"
            out.append((agent, relation, text))
        return out


class SrlExtractor:
    """Frame-lexicon SRL built on the OpenIE chunk machinery.

    Only sentences whose main verb has a frame produce output; everything
    else is left to plain OpenIE.  This mirrors how NOUS combines both
    extractors (Figure 3 shows SRL-derived rows, §3.2 describes OpenIE).
    """

    def __init__(self) -> None:
        self._openie = OpenIEExtractor(emit_nary_binaries=False)

    def extract(
        self,
        tokens: Sequence[Token],
        tags: Sequence[str],
        mentions: Sequence = (),
        chunks: Optional[Sequence[Chunk]] = None,
    ) -> List[SrlFrame]:
        """Extract SRL frames from one tagged sentence."""
        if chunks is None:
            chunks = chunk_sentence(tokens, tags)
        frames: List[SrlFrame] = []
        for extraction in self._openie.extract(tokens, tags, mentions, chunks):
            frame_def = FRAMES.get(extraction.verb)
            if frame_def is None:
                continue
            roles: Dict[str, str] = {"A0": extraction.arg1}
            relation_words = extraction.relation.split()
            folded_prep = relation_words[-1] if len(relation_words) > 1 else None

            object_role = frame_def["object_role"]
            if folded_prep and folded_prep in frame_def["preps"]:
                roles[frame_def["preps"][folded_prep]] = extraction.arg2
            elif object_role is not None:
                roles[object_role] = extraction.arg2

            for prep, text in extraction.extra_args:
                role = frame_def["preps"].get(prep)
                if role is not None and role not in roles:
                    roles[role] = text

            # Purpose clause: "uses drones to capture aerial photos" —
            # OpenIE folds "to capture" chains into extras when possible;
            # also scan for to+VB after the object.
            purpose = self._purpose_clause(tokens, tags, extraction.arg2_span[1])
            if purpose and "AM-PNC" in frame_def["preps"].values() and "AM-PNC" not in roles:
                roles["AM-PNC"] = purpose

            if len(roles) > 1:
                frames.append(
                    SrlFrame(
                        verb=extraction.verb,
                        roles=roles,
                        negated=extraction.negated,
                        confidence=min(0.95, extraction.confidence + 0.1),
                    )
                )
        return frames

    def _purpose_clause(
        self, tokens: Sequence[Token], tags: Sequence[str], start: int
    ) -> Optional[str]:
        """Capture "to <verb> <rest>" immediately after the object."""
        n = len(tokens)
        if start >= n or tokens[start].lower != "to":
            return None
        if start + 1 >= n or not tags[start + 1].startswith("VB"):
            return None
        words = [tokens[start + 1].text]
        i = start + 2
        while i < n and tags[i] not in {"PUNCT"} and tokens[i].lower not in {"and", "but"}:
            words.append(tokens[i].text)
            i += 1
        clause = " ".join(words).strip()
        return clause or None


def frame_for(verb: str) -> Optional[Dict]:
    """Public lookup of the frame definition for a verb lemma."""
    return FRAMES.get(verb_lemma(verb))

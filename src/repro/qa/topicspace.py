"""The QA topic space as a maintained index over KB state.

Path search ranks routes by topic coherence, so every vertex needs a
topic vector (§3.6: LDA over the documents of entities).  Refitting LDA
whenever the KG moved made the first "why is X related to Y" after any
accepted fact cost a full fit.  :class:`TopicSpace` splits the work by
how the inputs actually change:

* **Base** — the *described* documents (curated descriptions).  Ingest
  never touches them, so the LDA fit over them is cached on a content
  fingerprint of that set, not on the KG version.
* **Fold-in** — every other vertex (each entity the linker minted; its
  "document" is its two-or-three-token name) gets its vector by a
  deterministic, RNG-free fold-in against the frozen base φ, memoised
  per (base, name).

Both halves are functions of KB state alone — which descriptions exist
and what a vertex is called — never of how many fits or queries
happened on the way.  That is what lets a cold-restarted service, a
reference monolith and every shard of a cluster derive the same vectors
independently.

A KB where *no* entity has a description falls back to the base being
every entity's name document (then a minted entity does change the
base, and the fit is redone — still as a pure function of state).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional

import numpy as np

from repro.graph.property_graph import PropertyGraph
from repro.qa.lda import LdaModel, LdaTopics
from repro.qa.topics import TOPIC_PROP

#: EM sweeps of the fold-in.  Names are 2-3 tokens; the update is a
#: contraction that settles to ~1e-9 well inside this many sweeps.
FOLD_IN_SWEEPS = 20


def name_document(vertex: Hashable) -> str:
    """The document of a description-less vertex: its readable name."""
    return str(vertex).replace("_", " ")


def base_documents(descriptions: Mapping[str, str]) -> Dict[str, str]:
    """The documents the base LDA is fitted on.

    Args:
        descriptions: entity -> description for *every* entity of the
            KB state (``""`` when it has none).

    Returns:
        The described entities' descriptions; when nothing is described,
        every entity's name document.
    """
    described = {e: text for e, text in descriptions.items() if text}
    if described:
        return described
    return {e: name_document(e) for e in descriptions}


def fingerprint(documents: Mapping[str, str]) -> str:
    """Content hash of a document set (order-independent)."""
    digest = hashlib.sha1()
    for doc_id in sorted(documents):
        for part in (doc_id, documents[doc_id]):
            data = part.encode("utf-8")
            # Length-prefixed, so no two document sets share an encoding.
            digest.update(len(data).to_bytes(8, "big"))
            digest.update(data)
    return digest.hexdigest()


def fold_in(topics: LdaTopics, token_ids: List[int]) -> np.ndarray:
    """Topic vector of an unseen document against a frozen fit.

    Fixed-point iteration of the posterior-mean update with φ held
    constant: responsibilities ``r[k, n] ∝ θ[k] · φ[k, w_n]``, then
    ``θ[k] = (Σ_n r[k, n] + α) / (N + Kα)``, from a uniform start for
    :data:`FOLD_IN_SWEEPS` sweeps.  No randomness; a document with no
    in-vocabulary token gets the uniform vector (the prior mean — what
    a zero-token document gets from the fit itself).
    """
    n_topics = topics.topic_word.shape[0]
    theta = np.full(n_topics, 1.0 / n_topics)
    if token_ids:
        columns = topics.phi()[:, token_ids]
        norm = len(token_ids) + n_topics * topics.alpha
        for _ in range(FOLD_IN_SWEEPS):
            joint = columns * theta[:, None]
            counts = (joint / joint.sum(axis=0)).sum(axis=1)
            theta = (counts + topics.alpha) / norm
    theta.setflags(write=False)
    return theta


@dataclass
class _Base:
    """One fitted base plus the fold-ins computed against it."""

    fingerprint: str
    topics: LdaTopics
    folded: Dict[str, np.ndarray] = field(default_factory=dict)


class TopicSpace:
    """Topic vectors for KG vertices, maintained across KG versions.

    Args:
        n_topics / lda_iterations / seed: Settings of the base fit.
            Two topic spaces with equal settings give equal vectors for
            equal KB state.
    """

    def __init__(
        self, n_topics: int = 6, lda_iterations: int = 60, seed: int = 29
    ) -> None:
        self._model = LdaModel(
            n_topics=n_topics, n_iterations=lda_iterations, seed=seed
        )
        self._base: Optional[_Base] = None
        # One fit at a time: concurrent path queries on a fresh base
        # wait for the first fit instead of each paying their own.
        self._fit_lock = threading.Lock()

    @property
    def base(self) -> Optional[LdaTopics]:
        """The current base fit (None before the first path query)."""
        current = self._base
        return current.topics if current is not None else None

    def annotate(
        self, graph: PropertyGraph, descriptions: Mapping[str, str]
    ) -> int:
        """Attach a topic vector to every vertex of ``graph``.

        Args:
            graph: The (region of the) KG about to be searched.
            descriptions: entity -> description for every entity of the
                KB state the graph was taken from; decides the base.

        Returns:
            Number of vertices whose vector came from the base fit.

        Raises:
            ConfigError: when the base documents hold no usable token.
        """
        base = self._base_for(descriptions)
        theta = base.topics.theta()
        fitted = 0
        for vertex in graph.vertices():
            row = base.topics.row_of(str(vertex))
            if row is not None:
                vector = theta[row]
                fitted += 1
            else:
                vector = self._folded(base, name_document(vertex))
            graph.set_vertex_prop(vertex, TOPIC_PROP, vector)
        return fitted

    # ------------------------------------------------------------------
    def _base_for(self, descriptions: Mapping[str, str]) -> _Base:
        documents = base_documents(descriptions)
        wanted = fingerprint(documents)
        with self._fit_lock:
            current = self._base
            if current is None or current.fingerprint != wanted:
                current = _Base(wanted, self._model.fit(documents))
                self._base = current
            return current

    def _folded(self, base: _Base, text: str) -> np.ndarray:
        vector = base.folded.get(text)
        if vector is None:
            vocabulary = base.topics.vocabulary
            token_ids = [
                vocabulary[token]
                for token in self._model.tokenize(text)
                if token in vocabulary
            ]
            vector = fold_in(base.topics, token_ids)
            base.folded[text] = vector
        return vector

"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

Small, dependency-free (numpy only) LDA suited to the per-entity
description documents: a few hundred documents with a vocabulary of a
few hundred terms.  Deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass
class LdaTopics:
    """Fitted topic state (immutable after the fit).

    Attributes:
        vocabulary: term -> column index.
        topic_word: (n_topics x vocab) count matrix.
        doc_topic: (n_docs x n_topics) count matrix.
        doc_ids: Row order of ``doc_topic``.
    """

    vocabulary: Dict[str, int]
    topic_word: np.ndarray
    doc_topic: np.ndarray
    doc_ids: List[str]
    alpha: float
    beta: float

    # The counts never change after the fit and path search asks for
    # the derived views per vertex, so each is computed once.
    @cached_property
    def _theta(self) -> np.ndarray:
        return _normalised_rows(self.doc_topic + self.alpha)

    @cached_property
    def _phi(self) -> np.ndarray:
        return _normalised_rows(self.topic_word + self.beta)

    @cached_property
    def _row_of(self) -> Dict[str, int]:
        return {doc_id: row for row, doc_id in enumerate(self.doc_ids)}

    @cached_property
    def _words(self) -> List[str]:
        return sorted(self.vocabulary, key=self.vocabulary.__getitem__)

    def theta(self) -> np.ndarray:
        """Posterior-mean document-topic distributions (rows sum to 1).

        The array is shared between calls and read-only.
        """
        return self._theta

    def phi(self) -> np.ndarray:
        """Posterior-mean topic-word distributions (rows sum to 1).

        The array is shared between calls and read-only.
        """
        return self._phi

    def row_of(self, doc_id: str) -> Optional[int]:
        """Row of ``doc_id`` in ``doc_topic``/``theta`` (None if unfitted)."""
        return self._row_of.get(doc_id)

    def doc_distribution(self, doc_id: str) -> np.ndarray:
        """Topic distribution of one document.

        Raises:
            ValueError: if ``doc_id`` was not part of the fit.
        """
        row = self.row_of(doc_id)
        if row is None:
            raise ValueError(f"{doc_id!r} is not a fitted document")
        return self._theta[row]

    def top_words(self, topic: int, n: int = 8) -> List[str]:
        """Most probable words of a topic."""
        order = np.argsort(-self._phi[topic])[:n]
        return [self._words[int(i)] for i in order]


def _normalised_rows(smoothed: np.ndarray) -> np.ndarray:
    out = smoothed / smoothed.sum(axis=1, keepdims=True)
    out.setflags(write=False)
    return out


def _numpy_order_sum(values: Sequence[float]) -> float:
    """``np.sum`` of a contiguous float64 vector, in plain floats.

    numpy reduces pairwise: below 8 elements a left-to-right loop, up
    to 128 eight interleaved accumulators combined as a balanced tree
    plus a left-to-right tail, above that a recursive halving (the
    split rounded down to a multiple of 8).  Repeating the same
    additions in the same order gives the same bits.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        full = n - n % 8
        for i in range(8, full, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[full:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _numpy_order_sum(values[:half]) + _numpy_order_sum(values[half:])


class LdaModel:
    """Collapsed-Gibbs LDA trainer.

    Args:
        n_topics: Number of topics K.
        alpha: Document-topic Dirichlet prior.
        beta: Topic-word Dirichlet prior.
        n_iterations: Gibbs sweeps.
        seed: RNG seed (training is deterministic given it).
        min_word_length: Tokens shorter than this are dropped.
    """

    def __init__(
        self,
        n_topics: int = 6,
        alpha: float = 0.5,
        beta: float = 0.05,
        n_iterations: int = 150,
        seed: int = 23,
        min_word_length: int = 3,
    ) -> None:
        if n_topics < 2:
            raise ConfigError("n_topics must be >= 2")
        if n_iterations < 1:
            raise ConfigError("n_iterations must be >= 1")
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.n_iterations = n_iterations
        self.seed = seed
        self.min_word_length = min_word_length

    # ------------------------------------------------------------------
    def fit(self, documents: Dict[str, str]) -> LdaTopics:
        """Fit on ``doc_id -> text`` and return the topic state.

        The sampler is the textbook one — per token: remove its
        assignment, weight every topic, normalise, draw — written so
        that it is bit-for-bit the numpy formulation it replaced
        (``tests/qa/reference_lda.py``) at a fraction of the cost:

        * ``Generator.choice(K, p=w)`` consumes exactly one
          ``Generator.random()`` double and returns how many entries of
          ``cumsum(w) / cumsum(w)[-1]`` are ``<=`` it, so one
          ``rng.random(n_tokens)`` block per sweep is the same stream;
        * the weights are the same IEEE operations in the same order
          (``(n_kw + beta) / (n_k + V*beta) * (n_dk + alpha)``, then a
          division by their numpy-order sum) on Python floats;
        * the count tables are plain lists, indexed per token instead of
          sliced per token.

        Raises:
            ConfigError: when no usable tokens survive preprocessing.
        """
        doc_ids = sorted(documents)
        tokenized = [self.tokenize(documents[d]) for d in doc_ids]
        vocabulary: Dict[str, int] = {}
        for tokens in tokenized:
            for token in tokens:
                vocabulary.setdefault(token, len(vocabulary))
        if not vocabulary:
            raise ConfigError("no tokens to fit LDA on")

        rng = np.random.default_rng(self.seed)
        K, V, D = self.n_topics, len(vocabulary), len(doc_ids)
        topics = range(K)
        word_topic = [[0] * K for _ in range(V)]
        doc_topic = [[0] * K for _ in range(D)]
        topic_totals = [0] * K

        doc_tokens: List[List[int]] = []
        assignments: List[List[int]] = []
        for d, tokens in enumerate(tokenized):
            ids = [vocabulary[t] for t in tokens]
            z = rng.integers(0, K, size=len(ids)).tolist()
            doc_tokens.append(ids)
            assignments.append(z)
            counts = doc_topic[d]
            for w, topic in zip(ids, z):
                word_topic[w][topic] += 1
                counts[topic] += 1
                topic_totals[topic] += 1

        alpha, beta = self.alpha, self.beta
        v_beta = V * beta
        n_tokens = sum(len(ids) for ids in doc_tokens)
        # np.sum adds left to right below 8 elements only.
        pairwise = K >= 8
        weights = [0.0] * K
        for _sweep in range(self.n_iterations):
            uniforms = iter(rng.random(n_tokens).tolist())
            for d in range(D):
                ids = doc_tokens[d]
                z = assignments[d]
                in_doc = doc_topic[d]
                for n, w in enumerate(ids):
                    of_word = word_topic[w]
                    old = z[n]
                    of_word[old] -= 1
                    in_doc[old] -= 1
                    topic_totals[old] -= 1
                    total = 0.0
                    for k in topics:
                        weight = (
                            (of_word[k] + beta)
                            / (topic_totals[k] + v_beta)
                            * (in_doc[k] + alpha)
                        )
                        weights[k] = weight
                        total += weight
                    if pairwise:
                        total = _numpy_order_sum(weights)
                    # cdf[k] = cumsum(weights / total)[k]; the draw is
                    # the first k with cdf[k] / cdf[-1] > u.
                    cumulative = 0.0
                    cdf = []
                    for k in topics:
                        cumulative += weights[k] / total
                        cdf.append(cumulative)
                    u = next(uniforms)
                    new = 0
                    while new < K - 1 and cdf[new] / cumulative <= u:
                        new += 1
                    z[n] = new
                    of_word[new] += 1
                    in_doc[new] += 1
                    topic_totals[new] += 1

        return LdaTopics(
            vocabulary=vocabulary,
            topic_word=np.array(word_topic, dtype=np.int64).T.copy(),
            doc_topic=np.array(doc_topic, dtype=np.int64),
            doc_ids=doc_ids,
            alpha=alpha,
            beta=beta,
        )

    # ------------------------------------------------------------------
    def tokenize(self, text: str) -> List[str]:
        """Lower-cased alphabetic tokens of at least ``min_word_length``."""
        out = []
        for raw in text.lower().split():
            token = raw.strip(".,()\"'!?;:")
            if len(token) >= self.min_word_length and token.isalpha():
                out.append(token)
        return out

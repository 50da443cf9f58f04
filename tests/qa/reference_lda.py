"""The seed's collapsed-Gibbs sampler, kept verbatim as the oracle.

``repro.qa.lda.LdaModel.fit`` was rewritten to a faster exact form (one
bulk uniform draw per sweep, plain-list count tables).  This module is
the sampler it replaced — numpy count matrices, one ``rng.choice`` per
token — and exists only so the tests can pin the new kernel to it
array-for-array.  Do not optimise it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ConfigError
from repro.qa.lda import LdaModel, LdaTopics


def reference_fit(model: LdaModel, documents: Dict[str, str]) -> LdaTopics:
    """Fit ``documents`` with the original sampler under ``model``'s
    settings (same seed, priors, sweeps and tokeniser)."""
    doc_ids = sorted(documents)
    tokenized = [model.tokenize(documents[d]) for d in doc_ids]
    vocabulary: Dict[str, int] = {}
    for tokens in tokenized:
        for token in tokens:
            vocabulary.setdefault(token, len(vocabulary))
    if not vocabulary:
        raise ConfigError("no tokens to fit LDA on")

    rng = np.random.default_rng(model.seed)
    K, V, D = model.n_topics, len(vocabulary), len(doc_ids)
    topic_word = np.zeros((K, V), dtype=np.int64)
    doc_topic = np.zeros((D, K), dtype=np.int64)
    topic_totals = np.zeros(K, dtype=np.int64)

    # token assignment state
    doc_tokens: List[np.ndarray] = []
    assignments: List[np.ndarray] = []
    for d, tokens in enumerate(tokenized):
        ids = np.array([vocabulary[t] for t in tokens], dtype=np.int64)
        z = rng.integers(0, K, size=len(ids))
        doc_tokens.append(ids)
        assignments.append(z)
        for w, topic in zip(ids, z):
            topic_word[topic, w] += 1
            doc_topic[d, topic] += 1
            topic_totals[topic] += 1

    alpha, beta = model.alpha, model.beta
    v_beta = V * beta
    for _sweep in range(model.n_iterations):
        for d in range(D):
            ids = doc_tokens[d]
            z = assignments[d]
            for n in range(len(ids)):
                w, old = ids[n], z[n]
                topic_word[old, w] -= 1
                doc_topic[d, old] -= 1
                topic_totals[old] -= 1
                weights = (
                    (topic_word[:, w] + beta)
                    / (topic_totals + v_beta)
                    * (doc_topic[d] + alpha)
                )
                weights = weights / weights.sum()
                new = int(rng.choice(K, p=weights))
                z[n] = new
                topic_word[new, w] += 1
                doc_topic[d, new] += 1
                topic_totals[new] += 1

    return LdaTopics(
        vocabulary=vocabulary,
        topic_word=topic_word,
        doc_topic=doc_topic,
        doc_ids=doc_ids,
        alpha=alpha,
        beta=beta,
    )

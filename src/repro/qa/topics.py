"""Topic vectors on graph vertices and divergence measures."""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.graph.property_graph import PropertyGraph
from repro.qa.lda import LdaTopics

TOPIC_PROP = "topics"


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (base-2 logs, in [0, 1]).

    An all-zero vector is no distribution at all; it is maximally far
    from everything (1.0) rather than NaN, which would poison every
    coherence comparison downstream.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p_total, q_total = p.sum(), q.sum()
    if p_total == 0 or q_total == 0:
        return 1.0
    p = p / p_total
    q = q / q_total
    m = 0.5 * (p + q)

    def kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def assign_topic_vectors(
    graph: PropertyGraph,
    topics: LdaTopics,
    default_uniform: bool = True,
) -> int:
    """Attach each vertex's LDA topic distribution as a vertex property.

    Vertices without a fitted document get a uniform distribution when
    ``default_uniform`` (otherwise no property).

    Returns:
        Number of vertices that received a *fitted* (non-uniform) vector.
    """
    theta = topics.theta()
    n_topics = theta.shape[1]
    uniform = np.full(n_topics, 1.0 / n_topics)
    fitted = 0
    for vertex in graph.vertices():
        row = topics.row_of(str(vertex))
        if row is not None:
            graph.set_vertex_prop(vertex, TOPIC_PROP, theta[row])
            fitted += 1
        elif default_uniform:
            graph.set_vertex_prop(vertex, TOPIC_PROP, uniform.copy())
    return fitted


def vertex_topics(graph: PropertyGraph, vertex: Hashable) -> Optional[np.ndarray]:
    """The topic vector stored on a vertex, if any."""
    return graph.vertex_props(vertex).get(TOPIC_PROP)

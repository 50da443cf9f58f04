"""Question answering (paper §3.6).

Explanatory ("why"-like) questions are answered by a top-K path search
between a source and target entity.  Every entity carries a topic
distribution obtained by running LDA over its text document; the search
performs a look-ahead at each hop, preferring nodes whose topics diverge
least from the target, and ranks complete paths by a coherence score
(mean topic divergence along the path — lower is more coherent).

The topic vectors are maintained by :class:`TopicSpace`: one LDA fit
over the described documents, kept across KG versions, plus a
deterministic fold-in for the entities ingest mints.
"""

from repro.qa.lda import LdaModel, LdaTopics
from repro.qa.topics import assign_topic_vectors, js_divergence
from repro.qa.topicspace import TopicSpace
from repro.qa.pathsearch import CoherentPathSearch, RankedPath
from repro.qa.baselines import bfs_path_ranker, unguided_top_k

__all__ = [
    "LdaModel",
    "LdaTopics",
    "assign_topic_vectors",
    "js_divergence",
    "TopicSpace",
    "CoherentPathSearch",
    "RankedPath",
    "bfs_path_ranker",
    "unguided_top_k",
]

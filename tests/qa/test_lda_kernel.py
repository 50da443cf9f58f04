"""The fast Gibbs kernel is the reference sampler, bit for bit.

``LdaModel.fit`` pre-draws its uniforms in bulk and keeps counts in
plain lists; ``reference_lda.reference_fit`` is the numpy sampler it
replaced, kept verbatim.  Every array of the fitted state must be
*equal* — not close — on any corpus, seed and topic count, because the
topic space is part of the byte-identity contract between monolith,
cluster and cold restart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_lda import reference_fit
from repro.api.cluster.process import resolve_kb_spec
from repro.qa.lda import LdaModel, _numpy_order_sum
from repro.qa.topicspace import base_documents

_WORDS = [
    "drone", "rotor", "pilot", "flight", "camera", "funding", "venture",
    "capital", "equity", "market", "sensor", "agency", "airspace",
]

corpora = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    values=st.lists(st.sampled_from(_WORDS), min_size=0, max_size=12).map(
        " ".join
    ),
    min_size=1,
    max_size=8,
).filter(lambda docs: any(docs.values()))


def assert_same_fit(model, documents):
    fast = model.fit(documents)
    reference = reference_fit(model, documents)
    assert fast.vocabulary == reference.vocabulary
    assert fast.doc_ids == reference.doc_ids
    assert fast.topic_word.dtype == reference.topic_word.dtype
    assert fast.doc_topic.dtype == reference.doc_topic.dtype
    np.testing.assert_array_equal(fast.topic_word, reference.topic_word)
    np.testing.assert_array_equal(fast.doc_topic, reference.doc_topic)
    # Equal counts and equal priors: the derived distributions follow.
    assert fast.theta().tobytes() == reference.theta().tobytes()
    assert fast.phi().tobytes() == reference.phi().tobytes()


class TestKernelEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        documents=corpora,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        # 8 and 9 cross into numpy's unrolled pairwise summation.
        n_topics=st.sampled_from([2, 3, 6, 7, 8, 9, 17]),
        sweeps=st.integers(min_value=1, max_value=6),
    )
    def test_small_corpora(self, documents, seed, n_topics, sweeps):
        model = LdaModel(n_topics=n_topics, n_iterations=sweeps, seed=seed)
        assert_same_fit(model, documents)

    @pytest.mark.parametrize("spec", ["drone", "world:12:3", "world:30:7"])
    def test_curated_kbs(self, spec):
        kb = resolve_kb_spec(spec)
        documents = base_documents(
            {entity: kb.description(entity) for entity in kb.entities()}
        )
        assert len(documents) >= 40
        assert_same_fit(LdaModel(n_topics=6, n_iterations=8, seed=29), documents)

    def test_name_documents(self):
        """The no-description fallback corpus: 2-3 token documents, some
        with no usable token at all."""
        kb = resolve_kb_spec("drone")
        documents = {e: e.replace("_", " ") for e in kb.entities()}
        assert_same_fit(LdaModel(n_topics=6, n_iterations=10, seed=3), documents)

    def test_non_default_priors(self):
        model = LdaModel(n_topics=4, alpha=0.1, beta=0.3, n_iterations=5, seed=1)
        assert_same_fit(
            model, {"a": "drone rotor pilot drone", "b": "venture equity drone"}
        )


class TestNumpyOrderSum:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=400,
        )
    )
    def test_matches_numpy_bit_for_bit(self, values):
        assert _numpy_order_sum(values) == float(np.array(values).sum())


class TestFittedStateViews:
    @pytest.fixture(scope="class")
    def topics(self):
        documents = {
            "a": "drone rotor pilot flight",
            "b": "funding venture capital equity",
            "c": "drone funding market",
        }
        return LdaModel(n_topics=2, n_iterations=10, seed=4).fit(documents)

    def test_theta_and_phi_are_computed_once(self, topics):
        assert topics.theta() is topics.theta()
        assert topics.phi() is topics.phi()

    def test_views_are_read_only(self, topics):
        with pytest.raises(ValueError):
            topics.theta()[0, 0] = 1.0
        with pytest.raises(ValueError):
            topics.phi()[0, 0] = 1.0

    def test_doc_distribution_is_the_theta_row(self, topics):
        for row, doc_id in enumerate(topics.doc_ids):
            assert topics.row_of(doc_id) == row
            np.testing.assert_array_equal(
                topics.doc_distribution(doc_id), topics.theta()[row]
            )
        assert topics.row_of("never fitted") is None
        with pytest.raises(ValueError):
            topics.doc_distribution("never fitted")

    def test_top_words_follow_phi(self, topics):
        words = sorted(topics.vocabulary, key=topics.vocabulary.get)
        for topic in range(2):
            order = np.argsort(-topics.phi()[topic])[:3]
            assert topics.top_words(topic, 3) == [words[int(i)] for i in order]

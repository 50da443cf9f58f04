"""End-to-end golden regression test.

Ingests a fixed seeded corpus (40 articles, seed 11) in a subprocess
with ``PYTHONHASHSEED=0`` — hash iteration order can break ties in
collective linking and beam search, so the pipeline is only bit-stable
under a pinned hash seed — and compares the resulting metrics against
pinned golden values: accepted-triple counts, trending output, and one
explanatory path answer.

If an index/batching/caching refactor changes any of these numbers, this
test fails loudly instead of letting results drift silently.  When a
change is *intended* (e.g. an extraction improvement), regenerate with::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden_driver.py

and update ``GOLDEN`` below, explaining the drift in the commit message.

The driver also runs the same query set through a cache-enabled and a
cache-disabled engine twice; ``cache_consistent`` pins that enabling the
result cache does not change any answer.
"""

import json
import os
import subprocess
import sys

import pytest

# Regenerated for ISSUE 2: the driver now goes through NousService, so
# the corpus takes the ingest_batch path (one collective linking pass).
# accepted/raw/fact counts and the trending output are identical to the
# sequential seed values; num_entities moved 136 -> 138 because
# collective linking mints two additional zero-fact mention entities,
# which in turn shifts the LDA topic fit and the (same-path) coherence
# score 0.208112 -> 0.411789.
# ISSUE 13 moved the coherence again, 0.411789 -> 0.401403 (same route):
# topic vectors now come from a base fit over the *described* documents
# plus a deterministic fold-in for the description-less entities, where
# before the name documents of minted entities took part in the fit.
GOLDEN = {
    "accepted_total": 83,
    "rejected_confidence_total": 0,
    "raw_triples_total": 228,
    "num_facts": 194,
    "num_entities": 138,
    "window_edges": 83,
    "closed_frequent_count": 25,
    "top_patterns": [
        "(?0:Company)-[acquired]->(?1:Company) (?0:Company)-[acquiredFor]->(?2:Thing)|4",
        "(?0:Company)-[acquired]->(?1:Company) (?0:Company)-[raisedFunding]->(?2:Thing)|2",
        "(?0:Company)-[acquired]->(?1:Company) (?1:Company)-[acquired]->(?2:Company)|3",
        "(?0:Company)-[acquired]->(?1:Company) (?1:Company)-[fundedBy]->(?2:Company)|2",
        "(?0:Company)-[acquired]->(?1:Company) (?1:Company)-[raisedFunding]->(?2:Thing)|3",
    ],
    "top_path_nodes": ["Windermere", "AirTech_2", "DJI", "Drone_Industry"],
    "top_path_coherence": 0.401403,
    "cache_consistent": True,
}

# ISSUE 4: the same corpus through a 3-shard ShardedNousService — pins
# document routing, every per-query-class merge, and the composite-
# version merged-result cache.  Totals that must be partition-invariant
# (accepted documents, merged fact count, window size) equal the
# monolith's; num_entities counts per-shard minted duplicates.
# ISSUE 9: trending moved from support-table summation to the
# distributed embedding enumeration, so the merged closed-frequent
# output now equals the monolith's exactly (pre-PR-9 the summation pin
# was 26 patterns with drifted supports — embeddings spanning shard
# boundaries were invisible and per-shard MNI minima summed instead of
# unioning node images).
GOLDEN_SHARDED = {
    "accepted_total": 83,
    "documents_routed": [9, 17, 14],
    "num_facts": 194,
    "num_entities": 155,
    "window_edges": 83,
    "closed_frequent_count": GOLDEN["closed_frequent_count"],
    "top_patterns": GOLDEN["top_patterns"],
    "top_path_nodes": ["Windermere", "AirTech_2", "DJI", "Drone_Industry"],
    # Equals the monolith's coherence for the same route: the
    # distributed cross-shard path search derives the same topic space
    # from the replicated descriptions and searches the merged region,
    # so the hybrid merge keeps its monolith-exact score.
    "top_path_coherence": GOLDEN["top_path_coherence"],
    "cut_edges": 25,
    "cache_consistent": True,
}


@pytest.fixture(scope="module")
def golden_metrics():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    driver = os.path.join(repo_root, "tests", "golden_driver.py")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(repo_root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, driver],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, f"driver failed:\n{proc.stderr}"
    return json.loads(proc.stdout)


class TestGoldenPipeline:
    def test_accepted_triple_counts_pinned(self, golden_metrics):
        for key in (
            "accepted_total",
            "rejected_confidence_total",
            "raw_triples_total",
            "num_facts",
            "num_entities",
        ):
            assert golden_metrics[key] == GOLDEN[key], (
                f"{key}: got {golden_metrics[key]}, pinned {GOLDEN[key]}"
            )

    def test_trending_output_pinned(self, golden_metrics):
        assert golden_metrics["window_edges"] == GOLDEN["window_edges"]
        assert (
            golden_metrics["closed_frequent_count"]
            == GOLDEN["closed_frequent_count"]
        )
        assert golden_metrics["top_patterns"] == GOLDEN["top_patterns"]

    def test_explanatory_path_answer_pinned(self, golden_metrics):
        assert golden_metrics["top_path_nodes"] == GOLDEN["top_path_nodes"]
        assert (
            golden_metrics["top_path_coherence"]
            == pytest.approx(GOLDEN["top_path_coherence"], abs=1e-6)
        )

    def test_cache_does_not_change_results(self, golden_metrics):
        assert golden_metrics["cache_consistent"] is True
        assert golden_metrics["cache_hits"] > 0

    def test_queue_drained_in_one_deterministic_batch(self, golden_metrics):
        # The driver pins the service path: whole corpus, one drain.
        assert golden_metrics["batches_drained"] == 1

    def test_cold_start_matches_uninterrupted_run(self, golden_metrics):
        # ISSUE 6: half the corpus, snapshot, restart from disk, rest of
        # the corpus — byte-identical to a service that never stopped.
        assert golden_metrics["cold_start_consistent"] is True


class TestGoldenShardedPipeline:
    """The N=3 scatter-gather pipeline, pinned output by output."""

    def test_routing_and_totals_pinned(self, golden_metrics):
        sharded = golden_metrics["sharded"]
        for key in ("accepted_total", "documents_routed", "num_facts",
                    "num_entities", "window_edges", "cut_edges"):
            assert sharded[key] == GOLDEN_SHARDED[key], (
                f"{key}: got {sharded[key]}, pinned {GOLDEN_SHARDED[key]}"
            )

    def test_partition_invariant_totals_match_monolith(self, golden_metrics):
        # Documents accepted, merged fact count and total window size
        # must not depend on how the corpus was partitioned.
        sharded = golden_metrics["sharded"]
        assert sharded["accepted_total"] == golden_metrics["accepted_total"]
        assert sharded["num_facts"] == golden_metrics["num_facts"]
        assert sharded["window_edges"] == golden_metrics["window_edges"]

    def test_merged_trending_pinned(self, golden_metrics):
        sharded = golden_metrics["sharded"]
        assert (
            sharded["closed_frequent_count"]
            == GOLDEN_SHARDED["closed_frequent_count"]
        )
        assert sharded["top_patterns"] == GOLDEN_SHARDED["top_patterns"]

    def test_merged_path_answer_pinned(self, golden_metrics):
        sharded = golden_metrics["sharded"]
        assert sharded["top_path_nodes"] == GOLDEN_SHARDED["top_path_nodes"]
        assert sharded["top_path_coherence"] == pytest.approx(
            GOLDEN_SHARDED["top_path_coherence"], abs=1e-6
        )

    def test_merged_cache_consistent(self, golden_metrics):
        sharded = golden_metrics["sharded"]
        assert sharded["cache_consistent"] is True
        assert sharded["cache_hits"] > 0

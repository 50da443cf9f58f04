"""PROCESS SHARDS: multi-process ingest vs the in-process cluster.

ISSUE 5's acceptance gate, on the synthetic world corpus at N=4 shards:

1. **Process-parallel ingest** — a ``ShardedNousService`` in
   ``shard_mode="process"`` (one ``nous serve`` worker subprocess per
   shard, documents travelling over the wire envelopes) must ingest the
   corpus at least ``PROCESS_GATE`` (default 1.0x) as fast as the same
   cluster with in-process shards.
2. **Equivalence** — identical accepted-fact totals and document
   counts on both paths (partitioning and transport must not change
   what was accepted).

This is the first benchmark in the repo that can beat the *GIL*, not
just the algorithm: the in-process cluster already wins ~3x against a
monolith because per-shard miner/linking work is superlinear in window
and batch size, but its four drainer threads still share one
interpreter.  Process shards do the same reduced work on four cores at
once; what they pay back is wire overhead — one HTTP round trip per
routed document plus ticket polling — which the batch submit endpoint
(``/v1/shard/submit``, one request per shard sub-batch) keeps small.
Worker startup (interpreter + curated world build) is deliberately
excluded from the timed section: it is a deploy-time cost, not an
ingest-throughput cost.

Run me: ``PYTHONPATH=src python -m pytest -q -s
benchmarks/bench_process_shards.py`` (the CI ``process-shards`` job
smokes this with a relaxed gate and uploads the ``BENCH_*.json``
trajectory artifact).
"""

from __future__ import annotations

import os
import time

from conftest import record_bench

from repro import (
    CorpusConfig,
    NousConfig,
    ServiceConfig,
    ShardedNousService,
    build_drone_kb,
    generate_corpus,
    generate_descriptions,
)

BENCH_SEED = 7
N_ARTICLES = 120
N_SHARDS = 4
KB_SPEC = f"world:{N_ARTICLES}:{BENCH_SEED}"
_CORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)
# With a second core available, multi-process ingest must be >= the
# in-process cluster (the whole point of escaping the GIL).  On a
# single-core host there is no parallelism to win, so the default gate
# degrades to a wire-overhead bound: the envelope hops may cost at most
# ~25% against in-process shards doing identical work.  CI relaxes
# further via env var while the equivalence checks stay strict.
PROCESS_GATE = float(
    os.environ.get("BENCH_PROCESS_GATE", "1.0" if _CORES >= 2 else "0.75")
)
CONFIG = dict(
    window_size=500,
    min_support=2,
    max_pattern_edges=3,
    lda_iterations=10,
    retrain_every=0,
    seed=BENCH_SEED,
)


def _fresh_articles():
    kb = build_drone_kb()
    articles = generate_corpus(
        kb, CorpusConfig(n_articles=N_ARTICLES, seed=BENCH_SEED)
    )
    generate_descriptions(kb, seed=BENCH_SEED)
    return articles


def _timed_cluster(shard_mode):
    """Build a fresh N-shard cluster in the given mode, time only the
    ingest (submit_many + flush + ticket collection)."""
    articles = _fresh_articles()
    cluster = ShardedNousService(
        num_shards=N_SHARDS,
        config=NousConfig(**CONFIG),
        service_config=ServiceConfig(
            auto_start=True, max_batch=N_ARTICLES
        ),
        shard_mode=shard_mode,
        kb_spec=KB_SPEC,
    )
    try:
        t0 = time.perf_counter()
        tickets = cluster.submit_many(articles)
        cluster.flush()
        envelopes = [t.result(timeout=60) for t in tickets]
        elapsed = time.perf_counter() - t0
        assert all(env.ok for env in envelopes)
        accepted = sum(env.payload["accepted"] for env in envelopes)
        documents = cluster.documents_ingested
        routed = list(cluster.documents_routed)
    finally:
        cluster.close()
    return elapsed, accepted, documents, routed


def test_process_shard_ingest_at_least_matches_in_process_cluster():
    # Best-of-2 fresh runs per path: ingestion mutates state, so each
    # run needs its own cluster; the min damps scheduler noise.
    runs_local = [_timed_cluster("local") for _ in range(2)]
    runs_process = [_timed_cluster("process") for _ in range(2)]
    t_local, acc_local, docs_local, routed_local = min(
        runs_local, key=lambda r: r[0]
    )
    t_process, acc_process, docs_process, routed_process = min(
        runs_process, key=lambda r: r[0]
    )

    speedup = t_local / t_process
    print(
        f"\nin-process x{N_SHARDS} cluster:  {t_local:.3f}s "
        f"({acc_local} accepted facts, {docs_local} docs)"
    )
    print(
        f"process   x{N_SHARDS} cluster:  {t_process:.3f}s "
        f"({acc_process} accepted facts, {docs_process} docs)"
    )
    print(
        f"speedup:                {speedup:.2f}x "
        f"(gate {PROCESS_GATE}x on {_CORES} core(s))"
    )
    print(f"documents per shard:    {routed_process}")
    record_bench(
        "process_shards",
        articles=N_ARTICLES,
        shards=N_SHARDS,
        cores=_CORES,
        local_cluster_s=round(t_local, 4),
        process_cluster_s=round(t_process, 4),
        speedup=round(speedup, 3),
        gate=PROCESS_GATE,
        documents_per_shard=routed_process,
    )

    # equivalence: transport must not change what was accepted
    assert docs_local == docs_process == N_ARTICLES
    assert routed_local == routed_process, (
        "routing diverged between modes: "
        f"local {routed_local}, process {routed_process}"
    )
    assert acc_local == acc_process, (
        f"accepted facts diverged: local {acc_local}, "
        f"process {acc_process}"
    )

    assert speedup >= PROCESS_GATE, (
        f"multi-process ingest speedup {speedup:.2f}x below gate "
        f"{PROCESS_GATE}x (in-process {t_local:.3f}s vs process "
        f"{t_process:.3f}s)"
    )


if __name__ == "__main__":
    test_process_shard_ingest_at_least_matches_in_process_cluster()

"""SHARDED INGEST: partition-parallel construction vs one service.

ISSUE 4's acceptance gate, on the synthetic world corpus at N=4 shards:

1. **Parallel sharded ingest** — ``ShardedNousService.submit_many`` +
   ``flush`` (documents hash-partitioned by dominant entity, one
   micro-batch drainer per shard) must beat a single ``Nous.ingest_batch``
   over the same corpus by at least ``SHARDED_GATE`` (default 1.5x).
2. **Placement quality** — the run reports edge-cut and balance from
   ``PartitionStats`` and asserts sane bounds (all shards loaded, cut
   fraction in [0, 1], vertex balance bounded).

Why sharding wins even under the GIL: the expensive construction stages
are *superlinear* in what one service holds.  The streaming miner's
local embedding enumeration grows with window density (at the mined
3-edge pattern size it dominates construction), and collective entity
linking's coherence graph grows with the batch's mention count; N
shards each carry ~1/N of the window and batch, so the summed work is
far below the monolith's — parallel drains then overlap what remains.
The config mines 3-edge patterns (``max_pattern_edges=3``, the miner's
documented cap) to measure exactly that regime; periodic retraining is
disabled on *both* sides so the comparison isolates construction (each
shard retraining over its replicated curated base would otherwise bill
the cluster N times for the same model).

Result equivalence is asserted alongside the timing: identical accepted
totals and document counts on both paths.
"""

from __future__ import annotations

import os
import time

from conftest import record_bench

from repro import (
    CorpusConfig,
    Nous,
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
# Shared CI runners are noisy; the CI smoke step relaxes the gate via
# env var while the equivalence checks stay strict.
SHARDED_GATE = float(os.environ.get("BENCH_SHARDED_GATE", "1.5"))
CONFIG = dict(
    window_size=500,
    min_support=2,
    max_pattern_edges=3,
    lda_iterations=10,
    retrain_every=0,
    seed=BENCH_SEED,
)


def _fresh_world():
    """KB + corpus; the generator extends the KB with the synthetic
    world, so each timed run (and each shard) replays the same build."""
    kb = build_drone_kb()
    articles = generate_corpus(
        kb, CorpusConfig(n_articles=N_ARTICLES, seed=BENCH_SEED)
    )
    generate_descriptions(kb, seed=BENCH_SEED)
    return kb, articles


def _timed_single():
    kb, articles = _fresh_world()
    nous = Nous(kb=kb, config=NousConfig(**CONFIG))
    t0 = time.perf_counter()
    results = nous.ingest_batch(articles)
    elapsed = time.perf_counter() - t0
    return elapsed, sum(r.accepted for r in results), len(results)


def _timed_sharded():
    _kb, articles = _fresh_world()
    cluster = ShardedNousService(
        kb_factory=lambda: _fresh_world()[0],
        num_shards=N_SHARDS,
        config=NousConfig(**CONFIG),
        service_config=ServiceConfig(
            auto_start=True, max_batch=N_ARTICLES
        ),
    )
    t0 = time.perf_counter()
    tickets = cluster.submit_many(articles)
    cluster.flush()
    elapsed = time.perf_counter() - t0
    envelopes = [t.result(timeout=0) for t in tickets]
    assert all(env.ok for env in envelopes)
    accepted = sum(env.payload["accepted"] for env in envelopes)
    stats = cluster.partition_stats()
    routed = list(cluster.documents_routed)
    documents = cluster.documents_ingested
    cluster.close()
    return elapsed, accepted, documents, stats, routed


def test_sharded_ingest_speedup():
    # Best-of-2 fresh runs per path: ingestion mutates state, so each
    # run needs its own system; the min damps scheduler noise.
    runs_single = [_timed_single() for _ in range(2)]
    runs_sharded = [_timed_sharded() for _ in range(2)]
    t_single, acc_single, docs_single = min(runs_single, key=lambda r: r[0])
    t_sharded, acc_sharded, docs_sharded, stats, routed = min(
        runs_sharded, key=lambda r: r[0]
    )

    speedup = t_single / t_sharded
    print(
        f"\nsingle ingest_batch:   {t_single:.3f}s "
        f"({acc_single} accepted facts, {docs_single} docs)"
    )
    print(
        f"sharded x{N_SHARDS} parallel:  {t_sharded:.3f}s "
        f"({acc_sharded} accepted facts, {docs_sharded} docs)"
    )
    print(f"speedup:               {speedup:.2f}x (gate {SHARDED_GATE}x)")
    print(f"documents per shard:   {routed}")
    print(
        "placement:             "
        f"cut={stats.cut_edges}/{stats.total_edges} "
        f"({stats.cut_fraction:.2f}), "
        f"vertex balance {stats.vertex_balance:.2f}, "
        f"edge balance {stats.edge_balance:.2f}"
    )
    record_bench(
        "sharded_ingest",
        articles=N_ARTICLES,
        shards=N_SHARDS,
        single_s=round(t_single, 4),
        sharded_s=round(t_sharded, 4),
        speedup=round(speedup, 3),
        gate=SHARDED_GATE,
        documents_per_shard=routed,
        cut_edges=stats.cut_edges,
        total_edges=stats.total_edges,
        cut_fraction=round(stats.cut_fraction, 4),
        vertex_balance=round(stats.vertex_balance, 4),
        edge_balance=round(stats.edge_balance, 4),
    )

    # equivalence: partitioning must not change what was accepted
    assert docs_single == docs_sharded == N_ARTICLES
    assert acc_single == acc_sharded, (
        f"accepted facts diverged: single {acc_single}, "
        f"sharded {acc_sharded}"
    )

    # placement sanity from PartitionStats
    assert sum(routed) == N_ARTICLES
    assert all(count > 0 for count in routed), routed
    assert stats.total_edges > 0
    assert 0.0 <= stats.cut_fraction <= 1.0
    assert 1.0 <= stats.vertex_balance <= float(N_SHARDS)

    assert speedup >= SHARDED_GATE, (
        f"sharded ingest speedup {speedup:.2f}x below gate "
        f"{SHARDED_GATE}x (single {t_single:.3f}s vs sharded "
        f"{t_sharded:.3f}s)"
    )


if __name__ == "__main__":
    test_sharded_ingest_speedup()

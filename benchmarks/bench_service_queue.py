"""SERVICE QUEUE: async micro-batched ingestion vs the raw hot paths.

ISSUE 2's acceptance gates, on the synthetic world corpus:

1. **Queue overhead** — submitting every document individually through
   ``NousService.submit`` (background drainer, micro-batches of
   ``max_batch``) must land within ``QUEUE_OVERHEAD_GATE`` (default
   1.3x) of calling ``Nous.ingest_batch`` directly on the whole corpus.
2. **Amortisation preserved** — the queue must stay at least
   ``SPEEDUP_GATE`` (default 2x) faster than the seed per-document
   ``ingest`` loop: single-document callers transparently ride the
   batched path.

Result equivalence (accepted facts, KB size, window content) is
asserted alongside the timings.
"""

from __future__ import annotations

import os
import time

from conftest import record_bench

from repro import (
    CorpusConfig,
    Nous,
    NousConfig,
    NousService,
    ServiceConfig,
    build_drone_kb,
    generate_corpus,
)

QUEUE_SEED = 7
N_ARTICLES = 120
# Shared CI runners are noisy; the CI smoke step relaxes both gates via
# env vars while result-equivalence checks stay strict.
SPEEDUP_GATE = float(os.environ.get("BENCH_SPEEDUP_GATE", "2.0"))
QUEUE_OVERHEAD_GATE = float(os.environ.get("BENCH_QUEUE_OVERHEAD_GATE", "1.3"))
CONFIG = dict(
    window_size=100,
    min_support=2,
    lda_iterations=10,
    retrain_every=40,
    seed=QUEUE_SEED,
)
# 80 splits the 120-doc corpus into two genuine micro-batches while the
# deferred busy-period retrain keeps the overhead comfortably in-gate.
SERVICE_CONFIG = ServiceConfig(max_batch=80)


def _fresh_corpus():
    kb = build_drone_kb()
    articles = generate_corpus(
        kb, CorpusConfig(n_articles=N_ARTICLES, seed=QUEUE_SEED)
    )
    return kb, articles


def _timed_sequential():
    kb, articles = _fresh_corpus()
    nous = Nous(kb=kb, config=NousConfig(**CONFIG))
    t0 = time.perf_counter()
    results = nous.ingest_corpus(articles)
    return time.perf_counter() - t0, nous, results


def _timed_direct_batch():
    kb, articles = _fresh_corpus()
    nous = Nous(kb=kb, config=NousConfig(**CONFIG))
    t0 = time.perf_counter()
    results = nous.ingest_batch(articles)
    return time.perf_counter() - t0, nous, results


def _timed_queue():
    kb, articles = _fresh_corpus()
    service = NousService(
        kb=kb, config=NousConfig(**CONFIG), service_config=SERVICE_CONFIG
    )
    try:
        t0 = time.perf_counter()
        tickets = service.submit_many(articles)
        service.flush(timeout=300.0)
        elapsed = time.perf_counter() - t0
        envelopes = [t.result(timeout=0) for t in tickets]
    finally:
        service.close()
    return elapsed, service, envelopes


def test_queue_within_gate_of_direct_batch_and_faster_than_seed():
    # Best-of-2 fresh runs per path: ingestion mutates state, so each
    # run needs its own system; the min damps scheduler noise.
    runs_seq = [_timed_sequential() for _ in range(2)]
    runs_direct = [_timed_direct_batch() for _ in range(2)]
    runs_queue = [_timed_queue() for _ in range(2)]
    t_seq, nous_seq, results_seq = min(runs_seq, key=lambda r: r[0])
    t_direct, nous_direct, results_direct = min(runs_direct, key=lambda r: r[0])
    t_queue, service, envelopes = min(runs_queue, key=lambda r: r[0])

    overhead = t_queue / t_direct
    speedup = t_seq / t_queue
    print(
        f"\nqueue ingestion ({N_ARTICLES} articles): "
        f"sequential {t_seq * 1000:.0f} ms  direct-batch {t_direct * 1000:.0f} ms  "
        f"queue {t_queue * 1000:.0f} ms  "
        f"(overhead vs batch {overhead:.2f}x, speedup vs seq {speedup:.1f}x, "
        f"{service.batches_drained} drains)"
    )
    record_bench(
        "service_queue",
        articles=N_ARTICLES,
        sequential_s=round(t_seq, 4),
        direct_batch_s=round(t_direct, 4),
        queue_s=round(t_queue, 4),
        overhead_vs_batch=round(overhead, 3),
        speedup_vs_sequential=round(speedup, 3),
        batches_drained=service.batches_drained,
        overhead_gate=QUEUE_OVERHEAD_GATE,
        speedup_gate=SPEEDUP_GATE,
    )

    # Equivalence of outcomes, not just speed.
    assert all(env.ok for env in envelopes)
    assert len(envelopes) == len(results_direct) == len(results_seq)
    assert (
        sum(env.payload["raw_triples"] for env in envelopes)
        == sum(r.raw_triples for r in results_direct)
    )
    accepted_queue = sum(env.payload["accepted"] for env in envelopes)
    accepted_direct = sum(r.accepted for r in results_direct)
    accepted_seq = sum(r.accepted for r in results_seq)
    # Micro-batch retrain timing may shift a handful of borderline
    # confidences, exactly like direct batching vs the sequential loop.
    assert abs(accepted_queue - accepted_direct) <= max(3, accepted_direct // 20)
    assert abs(accepted_queue - accepted_seq) <= max(3, accepted_seq // 20)
    assert (
        abs(service.nous.kb.num_facts - nous_direct.kb.num_facts)
        <= max(3, nous_direct.kb.num_facts // 20)
    )
    assert service.nous.dynamic.window.window_size > 0
    assert service.nous.dynamic.miner.window_size > 0
    # Micro-batching actually happened (not one-doc-at-a-time drains).
    assert service.batches_drained < N_ARTICLES / 4

    assert overhead <= QUEUE_OVERHEAD_GATE, (
        f"queue {overhead:.2f}x slower than direct ingest_batch "
        f"(gate {QUEUE_OVERHEAD_GATE}x)"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"queue only {speedup:.2f}x faster than per-document ingest "
        f"(gate {SPEEDUP_GATE}x)"
    )


def test_single_document_latency_on_idle_service():
    kb, articles = _fresh_corpus()
    service = NousService(
        kb=kb,
        config=NousConfig(**CONFIG),
        service_config=ServiceConfig(max_batch=64),
    )
    try:
        t0 = time.perf_counter()
        response = service.ingest(articles[0], timeout=30.0)
        latency = time.perf_counter() - t0
    finally:
        service.close()
    assert response.ok
    print(f"\nsingle-document queue latency: {latency * 1000:.0f} ms")
    record_bench(
        "service_queue_latency", single_doc_latency_s=round(latency, 4)
    )
    # Generous bound: one tiny drain; catches regressions where a lone
    # document waits for a batch that never fills (or a forgotten flush
    # path).
    assert latency < 5.0

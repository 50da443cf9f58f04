"""LOAD: closed-loop tail latency against a live gateway (ISSUE 8).

Two experiments gating the "parallel extraction + leaner wire" work:

1. **Closed-loop saturating load** — ``LOAD_CLIENTS`` threads drive a
   live :class:`NousGateway` as hard as they can (each client issues
   its next request the moment the previous response lands: a closed
   loop, so offered load tracks service capacity instead of stampeding
   past it).  The mix interleaves ingest with the standing query set.
   Per-class p50/p95/p99 land in ``BENCH_load_p99.json`` and the query
   p99 must stay under ``BENCH_P99_GATE_MS`` — tail latency, not the
   mean, is what a refactor of the hot path degrades first.
2. **Bytes on the wire** — the trending *full-view* scatter (whole
   support tables as subscribe frames) re-encoded exactly as the
   server's per-frame gzip writes it.  The acceptance gate is a >= 3x
   reduction, measured deterministically (``mtime=0``, one
   stream-spanning compressor), so it holds on any machine.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
import zlib

from conftest import record_bench

from repro import (
    CorpusConfig,
    NousConfig,
    NousService,
    ServiceConfig,
    build_drone_kb,
    generate_corpus,
    generate_descriptions,
)
from repro.api.http import ClientSession, GatewayConfig, NousGateway
from repro.api.http.protocol import encode_frame

SEED = 7
N_ARTICLES = 120
LOAD_CLIENTS = int(os.environ.get("BENCH_LOAD_CLIENTS", "6"))
LOAD_SECONDS = float(os.environ.get("BENCH_LOAD_SECONDS", "6.0"))
_CORES = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1)
)
# Tail-latency gate on the query class, in milliseconds.  The tail is
# the cold path-search queries re-running after every stamp move; with
# several cores they overlap the other clients, on a starved host they
# serialize behind them, so the default degrades with core count (CI
# pins its own value via env var either way).
P99_GATE_MS = float(
    os.environ.get(
        "BENCH_P99_GATE_MS", "2500" if _CORES >= 4 else "15000"
    )
)
WIRE_REDUCTION_GATE = 3.0  # deterministic, so never relaxed

QUERY_MIX = [
    "tell me about DJI",
    "how is GoPro related to DJI",
    "match (?a:Company)-[acquired]->(?b:Company)",
    "tell me about Amazon",
    "what's new about DJI",
    "how is Amazon related to Google",
]
INGEST_EVERY = 5  # one ingest per this many operations, per client


def _build_service() -> NousService:
    kb = build_drone_kb()
    articles = generate_corpus(
        kb, CorpusConfig(n_articles=N_ARTICLES, seed=SEED)
    )
    generate_descriptions(kb, seed=SEED)
    service = NousService(
        kb=kb,
        config=NousConfig(window_size=300, seed=SEED),
    )
    service.submit_many(articles)
    service.flush()
    return service


def _percentile(samples, q):
    """Nearest-rank percentile on a sorted copy (no interpolation:
    tail gates should reflect a latency that actually happened)."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _ms(seconds):
    return round(seconds * 1000.0, 2)


def test_closed_loop_tail_latency_under_gate():
    service = _build_service()
    try:
        with NousGateway(service) as gateway:
            # Warm every query class so the harness measures steady
            # state, not first-touch topic fitting.
            for text in QUERY_MIX:
                assert service.query(text).ok

            latencies = {"query": [], "ingest": []}
            lock = threading.Lock()
            errors = []
            stop_at = time.perf_counter() + LOAD_SECONDS

            def client_loop(client_id):
                local = {"query": [], "ingest": []}
                try:
                    with ClientSession(gateway.url, timeout=120.0) as session:
                        op = 0
                        while time.perf_counter() < stop_at:
                            if op % INGEST_EVERY == INGEST_EVERY - 1:
                                text = (
                                    f"DJI acquired LoadCo_{client_id} in May "
                                    f"2016. Amazon tested delivery run "
                                    f"{client_id}-{op}."
                                )
                                t0 = time.perf_counter()
                                ok = session.ingest(
                                    text,
                                    doc_id=f"load-{client_id}-{op}",
                                    date="2016-05-02",
                                    source="bench",
                                ).ok
                                local["ingest"].append(
                                    time.perf_counter() - t0
                                )
                            else:
                                text = QUERY_MIX[op % len(QUERY_MIX)]
                                t0 = time.perf_counter()
                                ok = session.query(text).ok
                                local["query"].append(
                                    time.perf_counter() - t0
                                )
                            if not ok:
                                raise AssertionError(
                                    f"envelope not ok for {text!r}"
                                )
                            op += 1
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)
                with lock:
                    latencies["query"].extend(local["query"])
                    latencies["ingest"].extend(local["ingest"])

            t0 = time.perf_counter()
            clients = [
                threading.Thread(target=client_loop, args=(i,), daemon=True)
                for i in range(LOAD_CLIENTS)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=LOAD_SECONDS + 300.0)
            elapsed = time.perf_counter() - t0
            assert not any(t.is_alive() for t in clients), "client deadlock"
            service.flush(timeout=120.0)

        assert not errors, errors
        queries, ingests = latencies["query"], latencies["ingest"]
        assert queries and ingests, "the loop must exercise both classes"
        total_ops = len(queries) + len(ingests)

        report = {
            "clients": LOAD_CLIENTS,
            "duration_s": round(elapsed, 2),
            "ops_total": total_ops,
            "throughput_ops_s": round(total_ops / elapsed, 1),
            "query_ops": len(queries),
            "query_p50_ms": _ms(_percentile(queries, 0.50)),
            "query_p95_ms": _ms(_percentile(queries, 0.95)),
            "query_p99_ms": _ms(_percentile(queries, 0.99)),
            "query_mean_ms": _ms(statistics.fmean(queries)),
            "ingest_ops": len(ingests),
            "ingest_p50_ms": _ms(_percentile(ingests, 0.50)),
            "ingest_p95_ms": _ms(_percentile(ingests, 0.95)),
            "ingest_p99_ms": _ms(_percentile(ingests, 0.99)),
            "p99_gate_ms": P99_GATE_MS,
            "cores": _CORES,
        }
        print(
            f"\nclosed loop: {LOAD_CLIENTS} clients, {elapsed:.1f}s, "
            f"{total_ops} ops ({report['throughput_ops_s']} ops/s)\n"
            f"query  p50 {report['query_p50_ms']} ms  "
            f"p95 {report['query_p95_ms']} ms  "
            f"p99 {report['query_p99_ms']} ms\n"
            f"ingest p50 {report['ingest_p50_ms']} ms  "
            f"p95 {report['ingest_p95_ms']} ms  "
            f"p99 {report['ingest_p99_ms']} ms"
        )
        record_bench("load_p99", **report)
        assert report["query_p99_ms"] <= P99_GATE_MS, (
            f"query p99 {report['query_p99_ms']} ms over the "
            f"{P99_GATE_MS} ms gate"
        )
    finally:
        service.close()


def test_trending_full_view_wire_bytes_reduced():
    service = _build_service()
    try:
        with NousGateway(service) as gateway:
            with ClientSession(gateway.url, timeout=60.0) as session:
                with session.subscribe(
                    "show trending patterns",
                    snapshot=True,
                    trending_full_view=True,
                    max_seconds=0.5,
                    include_heartbeats=True,
                ) as stream:
                    frames = list(stream)
        assert frames and frames[0]["event"] == "subscribed"
        assert frames[0].get("rows"), "full view must carry the table"

        # Re-encode the captured frames exactly as the server writes
        # them: one stream-spanning compressor, one sync flush per
        # frame (deterministic — no timestamps involved).
        plain = [encode_frame(frame) for frame in frames]
        plain_bytes = sum(len(line) for line in plain)
        compressor = zlib.compressobj(6, zlib.DEFLATED, 31)
        gzip_bytes_total = 0
        for line in plain:
            gzip_bytes_total += len(
                compressor.compress(line)
                + compressor.flush(zlib.Z_SYNC_FLUSH)
            )
        gzip_bytes_total += len(compressor.flush(zlib.Z_FINISH))
        reduction = plain_bytes / gzip_bytes_total

        print(
            f"\ntrending full view: {len(frames)} frames, "
            f"{plain_bytes} B identity -> {gzip_bytes_total} B gzip "
            f"({reduction:.1f}x smaller)"
        )
        record_bench(
            "wire_bytes",
            frames=len(frames),
            identity_bytes=plain_bytes,
            gzip_bytes=gzip_bytes_total,
            reduction=round(reduction, 2),
            gate=WIRE_REDUCTION_GATE,
        )
        assert reduction >= WIRE_REDUCTION_GATE, (
            f"gzip only {reduction:.2f}x smaller on the trending "
            f"full view (gate {WIRE_REDUCTION_GATE}x)"
        )
    finally:
        service.close()

"""One run of one workload: the service lifecycle every workload walks.

    set up (x3, median) -> bulk ingest -> subscribe -> write probes ->
    write cycles -> closed-loop read replay (where the spec has one) ->
    close -> cold restart -> verify against the oracle

Closed loop throughout: the callers are ``ClientSession`` / in-process
clients that wait for each reply.  Every phase is a fixed, seeded script
(fixed op counts, not fixed duration), so sample counts are identical
on both sides of any comparison.  The same code runs traced and
untraced; with a tracer every op is a root span carrying an op id.
"""

from __future__ import annotations

import http.client
import itertools
import os
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import NousConfig, NousService, ShardedNousService
from repro.api.envelopes import ApiResponse, IngestRequest
from repro.api.http import ClientSession, NousGateway
from repro.errors import ReproError
from repro.nlp.dates import parse_date

from nousbench import oracle
from nousbench.oracle import Answer, Records, answer_of
from nousbench.trace import PropagatingExecutor, Tracer, trace_session
from nousbench.workloads import (
    KB_SPEC,
    PATH_CLASSES,
    STATS_OP,
    SUBSCRIPTION_QUERY,
    QueryOp,
    Script,
    WorkloadSpec,
    build_kb,
    build_pool,
    generate,
)

SHARDS = 2
SETUP_REPEATS = 3
RECOVER_REPEATS = 3
DELTA_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 120.0
DEFAULT_LDA_ITERATIONS = NousConfig().lda_iterations
#: What a client call raises when the transport or the body fails (a
#: timeout, a reset, a refusal, an undecodable reply): the op failed.
OP_ERRORS = (OSError, http.client.HTTPException, ReproError)
#: end-to-end metric -> the per-write / per-cycle samples it is the median of
MEDIAN_OF = {
    "ingest_ack_p50_ms": "ingest_ack_ms",
    "sub_delta_p50_ms": "sub_delta_ms",
    "query_fresh_path_p50_ms": "query_fresh_path_ms",
}


def engine_config(seed: int, scale: float) -> NousConfig:
    """Library defaults except ``seed``.  A scaled-down run (smoke
    tests, never a measurement) also scales the topic model's
    iterations, or its fixed ~4.5 s fit would dwarf everything else."""
    if scale >= 1.0:
        return NousConfig(seed=seed)
    return NousConfig(
        seed=seed,
        lda_iterations=max(2, round(DEFAULT_LDA_ITERATIONS * scale)),
    )


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


class DirectClient:
    """In-process caller of a service (the ``monolith`` deployment)."""

    def __init__(self, service: Any) -> None:
        self._service = service

    def query(self, text: str) -> ApiResponse:
        return self._service.query(text)

    def stats(self) -> ApiResponse:
        return self._service.statistics()

    def ingest(self, request: IngestRequest) -> ApiResponse:
        return self._service.ingest(request)

    def close(self) -> None:
        pass


class WireClient:
    """One keep-alive ``ClientSession`` against the gateway."""

    def __init__(self, url: str, tracer: Optional[Tracer]) -> None:
        self._session = ClientSession(url, timeout=CLIENT_TIMEOUT_S)
        if tracer is not None:
            trace_session(tracer, self._session)
        self._session.healthz()  # open the connection during set-up

    def query(self, text: str) -> ApiResponse:
        return self._session.query(text)

    def stats(self) -> ApiResponse:
        return self._session.statistics()

    def ingest(self, request: IngestRequest) -> ApiResponse:
        return self._session.ingest(request)

    def close(self) -> None:
        self._session.close()


class Subscriber:
    """Holds the standing query and timestamps every delta it decodes."""

    def __init__(self) -> None:
        self._arrived = threading.Condition()
        self._deltas: List[Tuple[float, Sequence[Dict[str, Any]]]] = []

    def _on_delta(self, added: Sequence[Dict[str, Any]]) -> None:
        with self._arrived:
            self._deltas.append((time.perf_counter(), added))
            self._arrived.notify_all()

    def wait_for(self, timestamp: float) -> Optional[float]:
        """When the first delta carrying a row with stream time
        ``timestamp`` was decoded (None if none arrives in time).

        Deltas are matched by the row the write adds, not by stamp: a
        process-shard cluster stamps deltas with a cached health hint
        that may trail the write's acknowledged composite stamp.
        """
        deadline = time.monotonic() + DELTA_TIMEOUT_S
        with self._arrived:
            while True:
                for at, added in self._deltas:
                    if any(row.get("timestamp") == timestamp for row in added):
                        return at
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._arrived.wait(remaining)

    def close(self) -> None:
        raise NotImplementedError


class DirectSubscriber(Subscriber):
    def __init__(self, service: Any) -> None:
        super().__init__()
        self._service = service
        self._subscription = service.subscribe(
            SUBSCRIPTION_QUERY, callback=lambda update: self._on_delta(update.added)
        )

    def close(self) -> None:
        self._service.unsubscribe(self._subscription)


class WireSubscriber(Subscriber):
    """A second connection holding the NDJSON subscribe stream."""

    def __init__(self, url: str) -> None:
        super().__init__()
        self._session = ClientSession(url, timeout=CLIENT_TIMEOUT_S)
        self._stream = self._session.subscribe(SUBSCRIPTION_QUERY)
        self._reader = threading.Thread(
            target=self._read, name="nousbench-subscriber", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        for frame in self._stream:
            if frame.get("event") == "update":
                self._on_delta(frame["added"])

    def close(self) -> None:
        # Called once the gateway has said "bye": closing a stream whose
        # reader is still blocked in a read stalls until the next
        # heartbeat frame arrives.
        self._reader.join(timeout=10.0)
        self._stream.close()
        self._session.close()


# ---------------------------------------------------------------------------
# deployment
# ---------------------------------------------------------------------------


class Deployment:
    """Curated KB + service (+ gateway and clients when ``serve``)."""

    def __init__(
        self,
        spec: WorkloadSpec,
        config: NousConfig,
        data_dir: str,
        tracer: Optional[Tracer],
        serve: bool = True,
    ) -> None:
        self.spec = spec
        self.data_dir = data_dir
        self.kb = build_kb()
        self.gateway: Optional[NousGateway] = None
        self.clients: List[Any] = []
        self.subscriber: Optional[Subscriber] = None
        self._executor: Optional[PropagatingExecutor] = None
        self._closed = False
        if spec.deployment == "cluster":
            if tracer is not None:
                self._executor = PropagatingExecutor(tracer, SHARDS)
            self.service: Any = ShardedNousService(
                num_shards=SHARDS,
                config=config,
                shard_mode="process",
                kb_spec=KB_SPEC,
                router_kb=self.kb,
                data_dir=data_dir,
                executor=self._executor,
            )
        else:
            self.service = NousService(kb=self.kb, config=config, data_dir=data_dir)
        try:
            if not serve:
                return
            if spec.deployment == "monolith":
                self.clients = [DirectClient(self.service) for _ in range(spec.clients)]
            else:
                self.gateway = NousGateway(self.service).start()
                self.clients = [
                    WireClient(self.gateway.url, tracer) for _ in range(spec.clients)
                ]
        except BaseException:
            self.close()
            raise

    def subscribe(self) -> Subscriber:
        """Open the standing query; it stays open until :meth:`close`
        (the gateway ends the stream when it shuts down)."""
        if self.gateway is None:
            self.subscriber = DirectSubscriber(self.service)
        else:
            self.subscriber = WireSubscriber(self.gateway.url)
        return self.subscriber

    def worker_pids(self) -> List[int]:
        if self.spec.deployment != "cluster":
            return []
        return [w["pid"] for w in self.service.cluster_info().get("workers", ())]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for client in self.clients:
            client.close()
        if self.gateway is not None:
            self.gateway.close()
        if self.subscriber is not None:
            self.subscriber.close()
        self.service.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of one process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _peak_rss_mb(deployment: Deployment) -> float:
    """Serving process plus its children (the shard workers)."""
    return _vm_hwm_mb(os.getpid()) + sum(
        _vm_hwm_mb(pid) for pid in deployment.worker_pids()
    )


def _dir_file_bytes(root: str, filename: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        if filename in files:
            total += os.path.getsize(os.path.join(directory, filename))
    return total


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a latency that actually happened)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


@dataclass
class RunResult:
    workload: str
    seed: int
    scale: float
    #: end-to-end metric name -> value (seconds-based samples in `samples`)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: timing samples in ms (or s for setup) behind the reported medians
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: plain counters the per-layer metrics need beyond the spans
    facts: Dict[str, float] = field(default_factory=dict)
    #: wall seconds per lifecycle phase (where the run's time went)
    phases: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    mismatches: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return min(len(self.mismatches), self.attempted)


class _Run:
    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        scale: float,
        tracer: Optional[Tracer],
        work_dir: str,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.config = engine_config(seed, scale)
        self.tracer = tracer
        self.work_dir = work_dir
        self.result = RunResult(spec.name, seed, scale)
        self._op_ids = itertools.count(1)
        self._dirs = itertools.count(1)
        #: wall seconds the clients spent on the ops in samples["query_ms"]
        self._query_wall_s = 0.0

    # -- helpers ------------------------------------------------------
    @contextmanager
    def _op(self, name: str) -> Iterator[None]:
        """One client-visible operation (a root span when traced)."""
        if self.tracer is None:
            yield
            return
        with self.tracer.span(name, op=next(self._op_ids)):
            yield

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.result.phases[name] = time.perf_counter() - start

    def _fail(self, message: str) -> None:
        self.result.mismatches.append(message)

    def _new_data_dir(self) -> str:
        return os.path.join(self.work_dir, f"data-{next(self._dirs)}")

    def _timed_query(
        self, client: Any, op: QueryOp, span_name: str = "op.query"
    ) -> Tuple[float, Answer]:
        """One read op.  A transport failure is a failed op — a not-ok
        answer, which the oracle lists — not a dead run."""
        with self._op("op.stats" if op.text == STATS_OP else span_name):
            start = time.perf_counter()
            try:
                envelope = (
                    client.stats() if op.text == STATS_OP else client.query(op.text)
                )
                answer = answer_of(envelope)
            except OP_ERRORS as exc:
                answer = Answer(False, "error", 0, repr(exc))
            elapsed = time.perf_counter() - start
        return elapsed * 1000.0, answer

    # -- phases -------------------------------------------------------
    def set_up(self) -> Deployment:
        """Build the curated KB and bring the deployment up, several
        times; the last one serves the run."""
        samples = self.result.samples["setup_s"]
        repeats = max(1, round(SETUP_REPEATS * min(1.0, self.result.scale)))
        deployment = None
        for _ in range(repeats):
            if deployment is not None:
                deployment.close()
                shutil.rmtree(deployment.data_dir, ignore_errors=True)
            start = time.perf_counter()
            deployment = Deployment(
                self.spec, self.config, self._new_data_dir(), self.tracer
            )
            samples.append(time.perf_counter() - start)
        assert deployment is not None
        self.result.end_to_end["setup_s"] = statistics.median(samples)
        return deployment

    def bulk(self, deployment: Deployment, script: Script) -> List[List[Any]]:
        """``submit_many`` + ``flush`` (manual snapshot part-way when the
        spec asks); returns the chunks so a reference can mirror them."""
        service = deployment.service
        cut = self.spec.snapshot_at
        chunks = [c for c in (script.bulk[:cut], script.bulk[cut:]) if c]
        start = time.perf_counter()
        tickets = []
        for index, chunk in enumerate(chunks):
            with self._op("op.bulk"):
                tickets += service.submit_many(chunk)
                service.flush()
            if cut and index == 0:
                with self._op("op.snapshot"):
                    service.snapshot()
        envelopes = [ticket.result(timeout=CLIENT_TIMEOUT_S) for ticket in tickets]
        elapsed = time.perf_counter() - start
        for article, envelope in zip(script.bulk, envelopes):
            if not envelope.ok:
                self._fail(f"bulk {article.doc_id}: {envelope.error}")
        self.result.attempted += len(script.bulk)
        self.result.end_to_end["ingest_docs_per_s"] = len(script.bulk) / elapsed
        return chunks

    def write(
        self,
        client: Any,
        subscriber: Subscriber,
        request: IngestRequest,
        records: Records,
    ) -> None:
        """One synchronous ingest; the subscriber must decode the delta
        that carries the row this write adds."""
        samples = self.result.samples
        self.result.attempted += 1
        with self._op("op.ingest"):
            sent = time.perf_counter()
            try:
                envelope = client.ingest(request)
            except OP_ERRORS as exc:
                self._fail(f"write {request.doc_id}: {exc!r}")
                records.write_versions.append(-1)
                return
            acked = time.perf_counter()
        records.write_versions.append(envelope.kg_version)
        if not envelope.ok or not envelope.payload["accepted"]:
            self._fail(f"write {request.doc_id}: not accepted ({envelope.error})")
            return
        samples["ingest_ack_ms"].append((acked - sent) * 1000.0)
        stream_time = float(parse_date(request.date).ordinal())
        decoded = subscriber.wait_for(stream_time)
        if decoded is None:
            self._fail(
                f"write {request.doc_id}: no subscription delta carried its "
                f"row (stream time {stream_time}) within {DELTA_TIMEOUT_S}s"
            )
            return
        samples["sub_delta_ms"].append((decoded - sent) * 1000.0)

    def cycles(
        self, deployment: Deployment, script: Script, records: Records
    ) -> None:
        client = deployment.clients[0]
        subscriber = deployment.subscribe()
        probes = self.spec.write_probes
        for request in script.writes[:probes]:
            self.write(client, subscriber, request, records)
        for request, ops in zip(script.writes[probes:], script.cycle_queries):
            self.write(client, subscriber, request, records)
            answers = []
            for op in ops:
                fresh = op is ops[0]
                latency, answer = self._timed_query(
                    client, op, "op.fresh_query" if fresh else "op.query"
                )
                answers.append(answer)
                # The fresh path answer has its own metric; the others
                # are the workload's post-write misses.
                if fresh:
                    self.result.samples["query_fresh_path_ms"].append(latency)
                else:
                    self.result.samples["query_ms"].append(latency)
                    self._query_wall_s += latency / 1000.0
            records.cycles.append(answers)
            self.result.attempted += len(ops)

    def read_replay(
        self, deployment: Deployment, script: Script, records: Records
    ) -> None:
        """Every client replays its Zipf script; the first 5 % of each
        script is warm-up, then all clients start the timed part together."""
        warmup = script.warmup_ops
        clients = deployment.clients
        barrier = threading.Barrier(len(clients))
        latencies: List[List[float]] = [[] for _ in clients]
        answers: List[List[Answer]] = [[] for _ in clients]
        spans: List[Tuple[float, float]] = [(0.0, 0.0)] * len(clients)
        crashes: List[BaseException] = []

        def replay(index: int) -> None:
            try:
                client, ops = clients[index], script.read_scripts[index]
                for op in ops[:warmup]:
                    answers[index].append(self._timed_query(client, op)[1])
                barrier.wait(timeout=CLIENT_TIMEOUT_S)
                start = time.perf_counter()
                for op in ops[warmup:]:
                    latency, answer = self._timed_query(client, op)
                    latencies[index].append(latency)
                    answers[index].append(answer)
                spans[index] = (start, time.perf_counter())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                barrier.abort()
                crashes.append(exc)

        threads = [
            threading.Thread(target=replay, args=(i,), name=f"nousbench-client-{i}")
            for i in range(len(clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashes:  # a bug in the benchmark, not a failed op
            raise crashes[0]
        records.reads = answers
        self.result.attempted += sum(len(ops) for ops in script.read_scripts)
        self.result.samples["query_ms"] += [
            latency for per_client in latencies for latency in per_client
        ]
        self._query_wall_s += max(end for _, end in spans) - min(
            start for start, _ in spans
        )

    def query_metrics(self) -> None:
        """Over every timed read op of the run bar the fresh path ones:
        the replay's, and each cycle's post-write misses."""
        timed = self.result.samples["query_ms"]
        self.result.end_to_end["query_p50_ms"] = percentile(timed, 0.50)
        self.result.end_to_end["query_p99_ms"] = percentile(timed, 0.99)
        self.result.end_to_end["query_per_s"] = len(timed) / self._query_wall_s

    def collect_facts(self, deployment: Deployment) -> Tuple[int, Answer]:
        """Counters the per-layer metrics need, read before close;
        returns the pre-close composite stamp and statistics answer."""
        service, facts = deployment.service, self.result.facts
        stats = service.statistics()
        facts["kb.facts"] = stats.payload["num_facts"]
        facts["kb.entities"] = stats.payload["num_entities"]
        facts["batches_drained"] = service.batches_drained
        facts["documents_drained"] = service.documents_drained
        if self.spec.deployment == "cluster":
            info = stats.payload["cluster"]
            facts["cache_hits"] = service.cache_hits
            facts["cache_misses"] = service.cache_misses
            facts["cluster.balance"] = info["partition"]["edge_balance"]
            facts["cluster.edge_cut"] = info["partition"]["cut_fraction"]
            for key in ("jobs", "supersteps", "messages"):
                facts[f"compute.{key}"] = info["compute"][key]
            facts["compute.bytes"] = info["compute"]["cross_shard_bytes"]
        else:
            facts["cache_hits"] = service.engine.cache_hits
            facts["cache_misses"] = service.engine.cache_misses
        return service.kg_version, answer_of(stats)

    def recover(
        self, deployment: Deployment, stamp: int, stats: Answer
    ) -> Deployment:
        """Cold restart from the same data directory, several times;
        each must land on the exact pre-close composite stamp and
        statistics.  Returns the last restarted deployment."""
        facts = self.result.facts
        facts["storage.wal_bytes"] = _dir_file_bytes(deployment.data_dir, "wal.jsonl")
        facts["storage.snapshot_bytes"] = _dir_file_bytes(
            deployment.data_dir, "snapshot.json"
        )
        samples = self.result.samples["recover_s"]
        repeats = max(1, round(RECOVER_REPEATS * min(1.0, self.result.scale)))
        recovered = None
        for _ in range(repeats):
            if recovered is not None:
                recovered.close()
            with self._op("op.recover"):
                start = time.perf_counter()
                recovered = Deployment(
                    self.spec, self.config, deployment.data_dir, self.tracer,
                    serve=False,
                )
                samples.append(time.perf_counter() - start)
            self.result.attempted += 1
            after = recovered.service.kg_version
            if after != stamp:
                self._fail(f"recover: composite stamp {after} != pre-close {stamp}")
            elif not answer_of(recovered.service.statistics()).matches(stats):
                self._fail("recover: GraphStatistics differ from the pre-close service")
        assert recovered is not None
        self.result.end_to_end["recover_s"] = statistics.median(samples)
        return recovered

    # -- the whole lifecycle -------------------------------------------
    def run(self, verify: bool) -> RunResult:
        result, spec = self.result, self.spec
        started = time.perf_counter()
        with self._phase("set_up"):
            deployment = self.set_up()
        recovered: Optional[Deployment] = None
        try:
            script = generate(spec, self.seed, deployment.kb, build_pool())
            records = Records(cycles=[], reads=[], write_versions=[])
            with self._phase("bulk"):
                chunks = self.bulk(deployment, script)
            with self._phase("cycles"):
                self.cycles(deployment, script, records)
            if spec.read_ops:
                with self._phase("read_replay"):
                    self.read_replay(deployment, script, records)
            self.query_metrics()
            with self._phase("close"):
                stamp, stats = self.collect_facts(deployment)
                peak = _peak_rss_mb(deployment)
                deployment.close()
            with self._phase("recover"):
                recovered = self.recover(deployment, stamp, stats)
            result.end_to_end["peak_rss_mb"] = max(peak, _peak_rss_mb(recovered))
            result.wall_s = time.perf_counter() - started
            if self.tracer is not None:
                # The oracle queries services in-process; its calls are
                # not part of the run and must not land in the trace.
                self.tracer.unwrap_all()
            if verify:
                with self._phase("verify"):
                    self.verify(recovered, script, records, chunks)
        finally:
            deployment.close()
            if recovered is not None:
                recovered.close()
        for name, key in MEDIAN_OF.items():
            if result.samples[key]:
                result.end_to_end[name] = statistics.median(result.samples[key])
        return result

    def verify(
        self,
        recovered: Deployment,
        script: Script,
        records: Records,
        chunks: List[List[Any]],
    ) -> None:
        if self.spec.reference:
            checker: oracle.Recovered = oracle.Reference(self.config)
        else:
            checker = oracle.Recovered(recovered.service)
        unchecked = () if self.spec.verify_paths else PATH_CLASSES
        try:
            self.result.mismatches += oracle.verify(
                records, script, self.spec, checker, chunks, unchecked
            )
        finally:
            checker.close()


@contextmanager
def packed_onto_one_cpu(spec: WorkloadSpec) -> Iterator[None]:
    """Keep a single-process deployment's threads on one CPU.

    Gateway, clients and engine share one interpreter lock, so a second
    CPU adds no work done — but where the scheduler happens to *spread*
    the threads, every lock handoff to the subscribe stream's 20 Hz
    poll wakes an idle vCPU, and on this 2-vCPU sandbox the same
    topic-model fit then takes 6.5-7 s instead of 4.5 s (likewise the
    median cache hit over the wire 2.3 ms instead of 1.3 ms).  Which of
    the two a run got depended on what ran before it.  The cluster
    deployment is left alone: its workers are processes of their own
    and need the CPUs.  Threads started inside inherit the mask; the
    caller's is restored.
    """
    if spec.deployment == "cluster" or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_workload(
    spec: WorkloadSpec,
    seed: int,
    scale: float,
    tracer: Optional[Tracer],
    work_dir: str,
    verify: bool = True,
) -> RunResult:
    """Run one (already scaled) workload spec once."""
    os.makedirs(work_dir, exist_ok=True)
    with packed_onto_one_cpu(spec):
        return _Run(spec, seed, scale, tracer, work_dir).run(verify)

"""Correctness oracle: every answer the system gave is checked.

An answer is reduced to ``(ok, kind, row count, checksum)`` where the
checksum is the SHA-1 of the canonical JSON of the wire payload — the
repo's contract is byte-identical envelopes, so nothing looser is
needed.  Two fields are left out of the checksum on purpose: a trending
report's ``newly_frequent`` / ``newly_infrequent`` (transition state
that is *consumed on read*, so it depends on how two concurrent clients
interleaved) and the cluster's routing block on ``/v1/stats``.

Two oracles supply the expected answers:

- ``Reference`` — an independent in-process monolith ``NousService``
  fed the same documents in the same order; it follows the run's
  history, so it checks every write cycle.  Used for ``serve-mixed``
  (``WorkloadSpec.reference``), the workload whose cycles are the point
  and whose served engine *is* a monolith.
- ``Recovered`` — the service cold-started from the run's own data
  directory, queried in-process.  It knows only the final state, so it
  checks the last cycle and the read replay.  Used where that is all
  there is (``build-bulk`` and ``serve-read`` run one cycle) and where
  no independent reference exists: ``cluster-mixed`` (text ingestion on
  two shards trains per-shard confidence models, so a monolith is not
  its reference; the repo's N>1 identity contract covers structured
  facts only).

Path-class answers cost a topic-model fit per KG state (~5 s here), so
they are compared only where the caller asks (``unchecked_classes``),
and then at the final state only; everywhere else they are checked for
shape: ``ok`` and a stamp at or past the write's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro import NousConfig, NousService, ServiceConfig
from repro.api.envelopes import ApiResponse, IngestRequest

from nousbench.workloads import (
    PATH_CLASSES,
    STATS_OP,
    QueryOp,
    Script,
    WorkloadSpec,
    build_kb,
)

#: The list field of each payload kind that holds its rows.
_ROW_FIELD = {
    "entity": "facts",
    "entity-trend": "rows",
    "relationship": "paths",
    "explanatory": "paths",
    "pattern": "matches",
    "trending": "closed_frequent",
    "pagerank": "ranks",
    "centrality": "ranks",
    "components": "components",
    "statistics": "central_entities",
}
_UNCHECKED_FIELDS = ("newly_frequent", "newly_infrequent", "cluster")


@dataclass(frozen=True)
class Answer:
    ok: bool
    kind: str
    count: int
    digest: str
    kg_version: int = -1

    def matches(self, other: "Answer") -> bool:
        return (self.ok, self.kind, self.count, self.digest) == (
            other.ok, other.kind, other.count, other.digest,
        )


def answer_of(envelope: ApiResponse) -> Answer:
    """Reduce an envelope to its comparable core."""
    if not envelope.ok or envelope.payload is None:
        code = envelope.error.code if envelope.error is not None else "?"
        return Answer(False, envelope.kind, 0, code, envelope.kg_version)
    rows = {
        key: value
        for key, value in envelope.payload.items()
        if key not in _UNCHECKED_FIELDS
    }
    canonical = json.dumps(rows, sort_keys=True, default=str)
    return Answer(
        True,
        envelope.kind,
        len(rows.get(_ROW_FIELD.get(envelope.kind, ""), ())),
        hashlib.sha1(canonical.encode("utf-8")).hexdigest(),
        envelope.kg_version,
    )


@dataclass
class Records:
    """What the system answered, by phase (filled by the lifecycle)."""

    cycles: List[List[Answer]]
    reads: List[List[Answer]]  # one list per client, script order
    write_versions: List[int]  # stamp each write's ack carried


class Recovered:
    """Oracle over the cold-restarted service (final state only)."""

    history = False

    def __init__(self, service: Any) -> None:
        self._service = service
        self._cache: Dict[str, Answer] = {}

    def bulk(self, chunks: Sequence[Sequence[Any]]) -> None:
        pass

    def write(self, request: IngestRequest) -> None:
        pass

    def answer(self, op: QueryOp) -> Answer:
        cached = self._cache.get(op.text)
        if cached is None:
            envelope = (
                self._service.statistics()
                if op.text == STATS_OP
                else self._service.query(op.text)
            )
            cached = self._cache[op.text] = answer_of(envelope)
        return cached

    def close(self) -> None:
        pass


class Reference(Recovered):
    """Oracle over an independent monolith that replays the history."""

    history = True

    def __init__(self, config: NousConfig) -> None:
        super().__init__(
            NousService(
                kb=build_kb(),
                config=config,
                service_config=ServiceConfig(auto_start=False),
            )
        )

    def bulk(self, chunks: Sequence[Sequence[Any]]) -> None:
        # Same submit_many boundaries as the system, so micro-batches
        # and the end-of-busy-period retrain fall on the same documents.
        for chunk in chunks:
            self._service.submit_many(chunk)
            self._service.flush()

    def write(self, request: IngestRequest) -> None:
        self._service.ingest(request)
        self._cache.clear()

    def close(self) -> None:
        self._service.close()


def verify(
    records: Records,
    script: Script,
    spec: WorkloadSpec,
    oracle: Recovered,
    chunks: Sequence[Sequence[Any]],
    unchecked_classes: Sequence[str] = (),
) -> List[str]:
    """Compare every recorded answer with the oracle's; returns one line
    per mismatching op (empty: all correct)."""
    mismatches: List[str] = []

    def check(where: str, op: QueryOp, got: Answer, floor: int, compare: bool) -> None:
        if not got.ok:
            mismatches.append(f"{where} {op.text!r}: failed with {got.digest}")
        elif got.kg_version < floor:
            mismatches.append(
                f"{where} {op.text!r}: stale stamp {got.kg_version} < {floor}"
            )
        elif compare and op.klass not in unchecked_classes:
            expected = oracle.answer(op)
            if not got.matches(expected):
                mismatches.append(
                    f"{where} {op.text!r}: got {got.kind}/{got.count}/"
                    f"{got.digest[:10]}, expected {expected.kind}/"
                    f"{expected.count}/{expected.digest[:10]}"
                )

    oracle.bulk(chunks)
    last_write = len(script.writes) - 1
    for index, request in enumerate(script.writes):
        oracle.write(request)
        cycle = index - spec.write_probes
        if cycle < 0:
            continue
        final = index == last_write
        for op, got in zip(script.cycle_queries[cycle], records.cycles[cycle]):
            comparable = final or (oracle.history and op.klass not in PATH_CLASSES)
            check(
                f"cycle {cycle}", op, got,
                records.write_versions[index], comparable,
            )
    floor = records.write_versions[-1] if records.write_versions else -1
    for client, (ops, answers) in enumerate(zip(script.read_scripts, records.reads)):
        for op, got in zip(ops, answers):
            check(f"read client {client}", op, got, floor, True)
    return mismatches

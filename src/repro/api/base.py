"""Structural interfaces shared by the service implementations.

Two classes implement the NOUS service surface: the monolithic
:class:`~repro.api.service.NousService` and the sharded
:class:`~repro.api.cluster.ShardedNousService`.  Adapters that must work
against either one — the HTTP gateway, the CLI, the tenant registry —
are typed against these :class:`~typing.Protocol` definitions instead of
a concrete class, which is what makes ``nous serve --shards N`` a
drop-in swap.

The surface is layered so each consumer can name exactly what it needs:

- :class:`ServiceCore` — the serve surface proper: ingest, query,
  statistics, standing queries, flush/close, and the ``kg_version``
  freshness stamp.  What a request handler touches.
- :class:`ServiceTelemetry` — the introspection counters health
  endpoints and dashboards read.  No KG access, no mutation.
- :class:`ServiceLike` — core + telemetry: the full adapter contract
  (the name every existing adapter is typed against).
- :class:`ShardLike` — the *shard-internal* extension the
  scatter-gather router consumes on top of ``ServiceLike``.
- :class:`TenantRegistryLike` — tenant id → service resolution for a
  multi-tenant gateway (implemented by
  :class:`~repro.api.tenancy.TenantRegistry`).

The protocols are intentionally minimal: they name exactly the surface
the adapters consume, not everything the implementations offer.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.api.envelopes import ApiResponse, IngestRequest, QueryRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.api.service import IngestTicket, StandingQueryUpdate, StreamView
    from repro.api.tenancy import TenantSpec
    from repro.core.statistics import GraphStatistics
    from repro.query.engine import QueryResult
    from repro.query.model import Query


class SubscriptionLike(Protocol):
    """What delta consumers (the gateway's subscribe stream) need from a
    standing-query registration, monolithic or fanned-out.

    Implementations also carry ``active`` / ``last_error`` bookkeeping,
    but no protocol-typed consumer reads them, so they are deliberately
    *not* part of the contract.
    """

    id: int

    @property
    def query_text(self) -> str: ...

    @property
    def current_rows(self) -> List[Dict[str, Any]]: ...

    @property
    def last_kg_version(self) -> int: ...

    def poll(self) -> List["StandingQueryUpdate"]: ...


class ServiceCore(Protocol):
    """The serve surface proper: what a request handler calls.

    ``kg_version`` abstracts over the monolith's single
    ``DynamicKnowledgeGraph.version`` stamp and the cluster's composite
    (summed) stamp; both are monotonic and move on every observable
    change, which is all the freshness/caching contract requires.
    """

    def submit(self, request: Union[IngestRequest, Any]) -> "IngestTicket": ...

    def submit_many(
        self, requests: List[Any]
    ) -> List["IngestTicket"]: ...

    def query(self, request: Union[str, QueryRequest]) -> ApiResponse: ...

    def statistics(self) -> ApiResponse: ...

    def subscribe(
        self,
        query_text: str,
        callback: Optional[Callable[["StandingQueryUpdate"], None]] = None,
        trending_full_view: bool = False,
    ) -> SubscriptionLike: ...

    def unsubscribe(self, subscription: Any) -> None: ...

    def flush(self, timeout: Optional[float] = None) -> None: ...

    def close(self) -> None: ...

    @property
    def kg_version(self) -> int: ...


class ServiceTelemetry(Protocol):
    """Read-only queue/stream counters: the ``/v1/healthz`` payload and
    anything else a dashboard polls.  Every member is a property — this
    surface can never mutate the service."""

    @property
    def documents_ingested(self) -> int: ...

    @property
    def pending_count(self) -> int: ...

    @property
    def draining_in_background(self) -> bool: ...

    @property
    def subscription_count(self) -> int: ...

    @property
    def batches_drained(self) -> int: ...

    @property
    def documents_drained(self) -> int: ...

    @property
    def subscription_errors(self) -> int: ...


class ServiceLike(ServiceCore, ServiceTelemetry, Protocol):
    """The full adapter contract: serve surface plus telemetry.

    This is the name adapters are typed against; the split bases exist
    so narrower consumers (a health poller, a pure query client) can
    depend on exactly the slice they touch.
    """


class ShardLike(ServiceLike, Protocol):
    """The *shard-internal* surface the scatter-gather router consumes.

    On top of the adapter-facing :class:`ServiceLike` contract, the
    router needs the merge-aware hooks — payload *objects* rather than
    encoded envelopes, the miner's full support table, placement
    accounting, and full-view trending subscriptions.  Two classes
    implement it: the in-process :class:`~repro.api.service.NousService`
    and the wire-speaking
    :class:`~repro.api.cluster.RemoteShardClient` (one ``nous serve``
    worker subprocess per shard), which is what makes
    ``--shard-mode process`` a drop-in swap inside
    :class:`~repro.api.cluster.ShardedNousService`.
    """

    def ingest_facts(
        self,
        facts: Sequence[Tuple[str, str, str]],
        date: Optional[str] = None,
        source: str = "structured",
        confidence: float = 0.9,
    ) -> ApiResponse: ...

    def execute_query(self, query: "Query") -> "QueryResult": ...

    def stream_view(self) -> "StreamView": ...

    def graph_statistics(self) -> "GraphStatistics": ...

    def extracted_fact_keys(self) -> List[Tuple[str, str, str]]: ...

    def refresh_subscriptions(self) -> List["StandingQueryUpdate"]: ...

    def compute_step(self, request: Dict[str, Any]) -> Dict[str, Any]: ...

    @property
    def alive(self) -> bool: ...

    @property
    def kg_version_hint(self) -> int: ...


class TenantRegistryLike(Protocol):
    """Tenant id → service resolution, as the gateway consumes it.

    Implemented by :class:`~repro.api.tenancy.TenantRegistry`; the
    gateway is typed against this protocol so a deployment may swap in
    its own resolution strategy (a remote control plane, a fixed map)
    without touching the HTTP layer.
    """

    def get(self, name: str) -> ServiceLike: ...

    def spec(self, name: str) -> "TenantSpec": ...

    def describe(self) -> List[Dict[str, Any]]: ...

    def create(self, spec: "TenantSpec") -> Dict[str, Any]: ...

    def delete(self, name: str, drain: bool = True) -> Dict[str, Any]: ...

    def ensure_subscription_capacity(self, name: str) -> None: ...

    def close(self) -> None: ...

"""Multi-tenant namespaces: one gateway, many isolated KGs.

The ROADMAP's "heavy traffic from millions of users" shape is not one
big graph — it is many *isolated* graphs behind one shared serving
fleet.  This module supplies the registry half of that shape:

- :class:`TenantSpec` — a declarative, JSON-round-trippable description
  of one tenant's service (curated-base spec, shard count/mode, config
  knobs, fairness quotas).
- :class:`TenantRegistry` — tenant id → live
  :class:`~repro.api.base.ServiceLike`, built *lazily* from its spec on
  first use.  Each tenant persists under its own ``data_dir`` subtree
  (``<root>/tenant-<name>``), sharded tenants borrow one shared scatter
  pool (a process-wide thread budget instead of ``num_shards`` threads
  per tenant), and per-tenant standing-query quotas are enforced here
  so the gateway stays a thin adapter.

The gateway (:class:`~repro.api.http.server.NousGateway`) wraps every
service it is given in a registry and resolves each request's tenant
from the route (``/v1/t/<tenant>/...``), the ``X-Nous-Tenant`` header,
or the ``default`` fallback — so a registry-less deployment behaves
exactly as before (see ``docs/TENANCY.md``).
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.base import ServiceLike
from repro.api.service import NousService, ServiceConfig
from repro.core.pipeline import NousConfig
from repro.errors import (
    ConfigError,
    TenancyError,
    TenantExistsError,
    TenantQuotaError,
    UnknownTenantError,
)

__all__ = ["DEFAULT_TENANT", "TenantSpec", "TenantRegistry"]

#: The tenant every un-prefixed (legacy) route resolves to.
DEFAULT_TENANT = "default"

#: Tenant ids are path segments and directory names: lowercase
#: alphanumerics plus ``- _ .`` after the first character, 64 max.
_TENANT_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")

#: Default size of the scatter-pool budget every sharded tenant shares.
DEFAULT_SCATTER_BUDGET = 8


def validate_tenant_name(name: str) -> str:
    """The name, when it is a legal tenant id.

    Raises:
        TenancyError: Malformed id (tenant ids travel in URL paths and
            on-disk directory names, so the alphabet is strict).
    """
    if not _TENANT_NAME_RE.match(name):
        raise TenancyError(
            f"invalid tenant name {name!r}: must match "
            "[a-z0-9][a-z0-9._-]{0,63}"
        )
    return name


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant's service.

    Attributes:
        name: Tenant id (validated; see :func:`validate_tenant_name`).
        kb: Curated-base spec, resolved by
            :func:`repro.api.cluster.process.resolve_kb_spec` —
            ``"drone"``, ``"empty"`` or ``"world:<articles>:<seed>"``.
        shards: Shard count; 1 serves a monolithic
            :class:`~repro.api.service.NousService`, more a
            :class:`~repro.api.cluster.ShardedNousService`.
        shard_mode: ``"local"`` or ``"process"`` (see docs/SHARDING.md).
        max_subscriptions: Standing-query quota; a subscribe past it
            answers the structured ``tenancy.quota`` error (HTTP 429).
            0 means unlimited.
        window_size: Miner window for the tenant's
            :class:`~repro.core.pipeline.NousConfig`.
        seed: Pipeline seed (determinism per tenant).
        extract_workers: NLP extraction pool size per service.
        max_batch: Micro-batch size for the ingestion queue.
    """

    name: str
    kb: str = "drone"
    shards: int = 1
    shard_mode: str = "local"
    max_subscriptions: int = 0
    window_size: int = 400
    seed: int = 7
    extract_workers: int = 1
    max_batch: int = 32

    def validate(self) -> "TenantSpec":
        validate_tenant_name(self.name)
        if self.shards < 1:
            raise TenancyError(
                f"tenant {self.name!r}: shards must be >= 1, got {self.shards}"
            )
        if self.shard_mode not in ("local", "process"):
            raise TenancyError(
                f"tenant {self.name!r}: shard_mode must be 'local' or "
                f"'process', got {self.shard_mode!r}"
            )
        if self.max_subscriptions < 0:
            raise TenancyError(
                f"tenant {self.name!r}: max_subscriptions must be >= 0, "
                f"got {self.max_subscriptions}"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        """Build and validate a spec from a wire dict (unknown keys are
        rejected so a typo'd quota can never silently mean *unlimited*)."""
        if "name" not in data:
            raise TenancyError("tenant spec requires a 'name'")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise TenancyError(
                f"unknown tenant spec fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        try:
            spec = cls(
                name=str(data["name"]),
                kb=str(data.get("kb", "drone")),
                shards=int(data.get("shards", 1)),
                shard_mode=str(data.get("shard_mode", "local")),
                max_subscriptions=int(data.get("max_subscriptions", 0)),
                window_size=int(data.get("window_size", 400)),
                seed=int(data.get("seed", 7)),
                extract_workers=int(data.get("extract_workers", 1)),
                max_batch=int(data.get("max_batch", 32)),
            )
        except (TypeError, ValueError) as exc:
            raise TenancyError(f"malformed tenant spec: {exc}") from exc
        return spec.validate()


class TenantRegistry:
    """Tenant id → live service, built lazily from per-tenant specs.

    The registry owns every service it builds (closed by
    :meth:`close`); a ``default_service`` handed in by the caller is
    *borrowed* — exactly the gateway's existing ownership contract (the
    caller keeps the service it passed to ``NousGateway``).

    Args:
        default_service: The service legacy un-prefixed routes resolve
            to, registered under :data:`DEFAULT_TENANT`.  Optional when
            ``specs`` carries a ``default`` entry instead.
        specs: Tenant specs to register (services are not built until
            first use).
        data_dir: Durability root; tenant *t* persists under
            ``<data_dir>/tenant-<t>`` (sharded tenants add their
            ``shard-<i>`` subtrees below that).
        scatter_budget: Thread budget of the single scatter pool every
            sharded tenant borrows (the "shared process pool" of
            docs/TENANCY.md).
    """

    def __init__(
        self,
        default_service: Optional[ServiceLike] = None,
        specs: Tuple[TenantSpec, ...] = (),
        data_dir: Optional[str] = None,
        scatter_budget: int = DEFAULT_SCATTER_BUDGET,
    ) -> None:
        if scatter_budget < 1:
            raise ConfigError(
                f"scatter_budget must be >= 1, got {scatter_budget}"
            )
        self._lock = threading.RLock()
        self._data_dir = data_dir
        self._scatter_budget = scatter_budget
        self._specs: Dict[str, TenantSpec] = {}
        self._services: Dict[str, ServiceLike] = {}
        # Names of tenants whose service this registry built (and must
        # therefore close); the injected default is the caller's.
        self._owned: set[str] = set()
        self._scatter_pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        for spec in specs:
            self._specs[spec.validate().name] = spec
        if default_service is not None:
            self._services[DEFAULT_TENANT] = default_service
            self._specs.setdefault(
                DEFAULT_TENANT, TenantSpec(name=DEFAULT_TENANT)
            )
        elif DEFAULT_TENANT not in self._specs:
            raise ConfigError(
                "a registry needs a default tenant: pass default_service "
                "or include a spec named 'default'"
            )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def spec(self, name: str) -> TenantSpec:
        with self._lock:
            spec = self._specs.get(name)
        if spec is None:
            raise UnknownTenantError(name)
        return spec

    def get(self, name: str) -> ServiceLike:
        """The live service for ``name``, building it on first use.

        Raises:
            UnknownTenantError: No such tenant is registered.
            TenancyError: The registry is closed.
        """
        with self._lock:
            if self._closed:
                raise TenancyError("tenant registry is closed")
            service = self._services.get(name)
            if service is not None:
                return service
            spec = self._specs.get(name)
            if spec is None:
                raise UnknownTenantError(name)
            # Build under the lock: construction must be once-only, and
            # a KB build is a one-time cost the first request amortises.
            service = self._build(spec)
            self._services[name] = service
            self._owned.add(name)
            return service

    @property
    def default(self) -> ServiceLike:
        return self.get(DEFAULT_TENANT)

    def ensure_subscription_capacity(self, name: str) -> None:
        """Enforce the tenant's standing-query quota *before* a
        subscribe registers.

        Raises:
            TenantQuotaError: The tenant is at ``max_subscriptions``.
        """
        spec = self.spec(name)
        if spec.max_subscriptions <= 0:
            return
        in_use = self.get(name).subscription_count
        if in_use >= spec.max_subscriptions:
            raise TenantQuotaError(name, spec.max_subscriptions, in_use)

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def describe(self) -> List[Dict[str, Any]]:
        """One info dict per tenant (``GET /v1/tenants``): the spec plus
        live state for tenants whose service has been built."""
        with self._lock:
            names = sorted(self._specs)
            infos = []
            for name in names:
                info: Dict[str, Any] = {"spec": self._specs[name].to_dict()}
                info["name"] = name
                service = self._services.get(name)
                info["live"] = service is not None
                if service is not None:
                    info["kg_version"] = service.kg_version
                    info["documents_ingested"] = service.documents_ingested
                    info["subscriptions"] = service.subscription_count
                infos.append(info)
            return infos

    def create(self, spec: TenantSpec) -> Dict[str, Any]:
        """Register a new tenant (service built lazily on first use).

        Raises:
            TenantExistsError: The name is taken.
        """
        spec.validate()
        with self._lock:
            if self._closed:
                raise TenancyError("tenant registry is closed")
            if spec.name in self._specs:
                raise TenantExistsError(spec.name)
            self._specs[spec.name] = spec
        return {"name": spec.name, "live": False, "spec": spec.to_dict()}

    def delete(self, name: str, drain: bool = True) -> Dict[str, Any]:
        """Unregister a tenant, draining and closing its service.

        The ``default`` tenant is not deletable — every legacy
        un-prefixed route resolves to it.

        Raises:
            UnknownTenantError: No such tenant.
            TenancyError: Attempt to delete ``default``.
        """
        if name == DEFAULT_TENANT:
            raise TenancyError(
                "the 'default' tenant cannot be deleted (legacy routes "
                "resolve to it)"
            )
        with self._lock:
            if name not in self._specs:
                raise UnknownTenantError(name)
            del self._specs[name]
            service = self._services.pop(name, None)
            owned = name in self._owned
            self._owned.discard(name)
        drained = False
        if service is not None and owned:
            if drain:
                try:
                    service.flush()
                    drained = True
                except Exception:  # noqa: BLE001 - best-effort drain
                    pass
            service.close()
        return {"name": name, "deleted": True, "drained": drained}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every registry-built service (idempotent).  Borrowed
        services — the injected default — stay running."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owned = [
                self._services[name]
                for name in self._owned
                if name in self._services
            ]
            self._services.clear()
            self._owned.clear()
            pool, self._scatter_pool = self._scatter_pool, None
        for service in owned:
            try:
                service.close()
            except Exception:  # noqa: BLE001 - teardown must finish
                pass
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _tenant_data_dir(self, name: str) -> Optional[str]:
        if self._data_dir is None:
            return None
        return os.path.join(self._data_dir, f"tenant-{name}")

    def _shared_scatter_pool(self) -> ThreadPoolExecutor:
        # Lazily built: a registry of pure monoliths never pays for it.
        if self._scatter_pool is None:
            self._scatter_pool = ThreadPoolExecutor(
                max_workers=self._scatter_budget,
                thread_name_prefix="nous-tenant-scatter",
            )
        return self._scatter_pool

    def _build(self, spec: TenantSpec) -> ServiceLike:
        from repro.api.cluster.process import resolve_kb_spec

        config = NousConfig(
            window_size=spec.window_size,
            seed=spec.seed,
            extract_workers=spec.extract_workers,
        )
        service_config = ServiceConfig(
            auto_start=True, max_batch=spec.max_batch
        )
        if spec.shards > 1:
            from repro.api.cluster import ShardedNousService

            return ShardedNousService(
                num_shards=spec.shards,
                config=config,
                service_config=service_config,
                shard_mode=spec.shard_mode,
                kb_spec=spec.kb,
                data_dir=self._tenant_data_dir(spec.name),
                executor=self._shared_scatter_pool(),
            )
        return NousService(
            kb=resolve_kb_spec(spec.kb),
            config=config,
            service_config=service_config,
            data_dir=self._tenant_data_dir(spec.name),
        )

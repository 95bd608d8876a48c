"""The multi-tenant graph query service.

:class:`GraphService` composes the pieces of this package into one
long-lived object:

- a :class:`~repro.service.catalog.GraphCatalog` of resident graphs,
- a :class:`~repro.service.cache.ResultCache` in front of execution
  (hot-root hits skip admission entirely — a cache hit costs microseconds
  and starves nobody, so rate-limiting it would only burn tokens the
  tenant needs for real work),
- a :class:`~repro.service.scheduler.FairScheduler` feeding a small pool
  of worker threads,
- a :class:`~repro.telemetry.MetricsRegistry` recording per-tenant
  latency/queue-wait/execute histograms and status counters.

Submission is asynchronous (:meth:`GraphService.submit` returns a
``concurrent.futures.Future``); :meth:`GraphService.query` is the
synchronous convenience the CLI and the parity tests use. Every path —
shed, queue-timeout, execute-timeout, error, hit, miss — resolves the
future with a :class:`~repro.service.query.QueryResult`; futures never
carry exceptions, so a caller handles one shape.

Timeout semantics: the deadline is checked when a query reaches the head
of its queue (expired → ``timeout`` without executing) and again after
execution (the worker cannot preempt a running kernel, so a late finish
reports ``timeout`` to the caller — but the payload it validly computed
still fills the cache for the next asker).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError, ReproError
from repro.service.cache import ResultCache
from repro.service.catalog import CatalogEntry, GraphCatalog, GraphSpec

if TYPE_CHECKING:
    from repro.graph.edgelist import EdgeList
from repro.service.query import QueryRequest, QueryResult
from repro.service.scheduler import (
    QUEUED,
    SHED_QUEUE,
    SHED_RATE,
    FairScheduler,
    TenantConfig,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.locks import blocking
from repro.utils.tables import Table

#: Latency-ish histogram buckets (seconds): µs cache hits up to multi-
#: second stragglers.
LATENCY_BUCKETS = (
    1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0, float("inf"),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (per-tenant QoS lives in :class:`TenantConfig`)."""

    workers: int = 2
    cache_capacity: int = 1024  #: 0 disables the result cache
    quantum: float = 1.0
    default_tenant: TenantConfig = field(default_factory=TenantConfig)
    default_timeout: float | None = None
    host_shared: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.cache_capacity < 0:
            raise ConfigError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ConfigError(
                f"default_timeout must be positive, got {self.default_timeout}"
            )


class _Pending:
    """A queued query: the request, its future, and its clock marks."""

    __slots__ = ("request", "future", "submitted", "deadline")

    def __init__(
        self,
        request: QueryRequest,
        future: Future,
        submitted: float,
        deadline: float | None,
    ) -> None:
        self.request = request
        self.future = future
        self.submitted = submitted
        self.deadline = deadline


class GraphService:
    """Catalog + cache + fair scheduler + worker pool, as one object."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self.catalog = GraphCatalog(
            metrics=self.metrics, host_shared=self.config.host_shared
        )
        self.cache = (
            ResultCache(self.config.cache_capacity)
            if self.config.cache_capacity > 0
            else None
        )
        # Evicting a graph must take its derived results with it — the name
        # may be reloaded with a different spec.
        if self.cache is not None:
            self.catalog.add_eviction_listener(self.cache.invalidate_graph)
        self.scheduler = FairScheduler(
            quantum=self.config.quantum,
            default_config=self.config.default_tenant,
            clock=clock,
        )
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"svc-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for t in self._workers:
            t.start()

    # -- catalog passthroughs ----------------------------------------------------
    def load_graph(
        self, name: str, spec: GraphSpec, edges: EdgeList | None = None
    ) -> CatalogEntry:
        return self.catalog.load(name, spec, edges=edges)

    def evict_graph(self, name: str) -> dict:
        return self.catalog.evict(name)

    def configure_tenant(self, name: str, config: TenantConfig) -> None:
        self.scheduler.configure_tenant(name, config)

    # -- submission --------------------------------------------------------------
    def submit(self, request: QueryRequest) -> Future:
        """Admit-or-shed ``request``; the future always resolves to a
        :class:`QueryResult` (sheds resolve immediately)."""
        if self._closed:
            raise ConfigError("service is closed")
        now = self._clock()
        future: Future = Future()
        self.metrics.counter("service_submitted", tenant=request.tenant).add()
        if self.cache is not None:
            payload = self.cache.get(request.key())
            if payload is not None:
                result = self._base_result(request, "ok")
                result.payload = payload
                result.cached = True
                result.latency = self._clock() - now
                self._record(result)
                future.set_result(result)
                return future
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.config.default_timeout
        )
        deadline = now + timeout if timeout is not None else None
        pending = _Pending(request, future, now, deadline)
        status = self.scheduler.offer(request.tenant, pending)
        if status in (SHED_RATE, SHED_QUEUE):
            result = self._base_result(request, "shed")
            result.error = (
                "rate limit exceeded"
                if status == SHED_RATE
                else "tenant queue full"
            )
            result.latency = self._clock() - now
            self._record(result)
            future.set_result(result)
        else:
            assert status == QUEUED
        return future

    def query(self, request: QueryRequest) -> QueryResult:
        """Synchronous :meth:`submit`; blocks until the result."""
        future = self.submit(request)
        blocking("Future.result")
        return future.result()

    # -- execution ---------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            pending = self.scheduler.take()
            if pending is None:  # closed and drained
                return
            try:
                result = self._process(pending)
            except BaseException as exc:  # pragma: no cover - defensive
                result = self._base_result(pending.request, "error")
                result.error = f"{type(exc).__name__}: {exc}"
            self._record(result)
            pending.future.set_result(result)

    def _process(self, pending: _Pending) -> QueryResult:
        request = pending.request
        started = self._clock()
        result = self._base_result(request, "ok")
        result.queue_wait = started - pending.submitted
        if pending.deadline is not None and started > pending.deadline:
            result.status = "timeout"
            result.error = "deadline passed while queued"
            result.latency = self._clock() - pending.submitted
            return result
        key = request.key()
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                result.payload = payload
                result.cached = True
                result.latency = self._clock() - pending.submitted
                return result
        try:
            with self.catalog.pin(request.graph) as entry:
                payload = entry.execute(request.algo, request.params)
        except (ReproError, ValueError) as exc:
            result.status = "error"
            result.error = str(exc)
            result.execute_seconds = self._clock() - started
            result.latency = self._clock() - pending.submitted
            return result
        done = self._clock()
        result.payload = payload
        result.execute_seconds = done - started
        result.latency = done - pending.submitted
        if self.cache is not None:
            # Cache fills even on a late finish: the payload is valid, only
            # this caller's deadline was missed.
            self.cache.put(key, payload)
        if pending.deadline is not None and done > pending.deadline:
            result.status = "timeout"
            result.error = "deadline passed during execution"
        return result

    # -- accounting --------------------------------------------------------------
    def _base_result(self, request: QueryRequest, status: str) -> QueryResult:
        return QueryResult(
            status=status,
            graph=request.graph,
            algo=request.algo,
            tenant=request.tenant,
            params=dict(request.params),
        )

    def _record(self, result: QueryResult) -> None:
        m = self.metrics
        tenant = result.tenant
        m.counter("service_queries", tenant=tenant, status=result.status).add()
        if result.cached:
            m.counter("service_cache_hits", tenant=tenant).add()
        if result.status == "shed":
            return
        m.histogram(
            "service_latency_seconds", buckets=LATENCY_BUCKETS, tenant=tenant
        ).observe(result.latency)
        m.histogram(
            "service_queue_wait_seconds", buckets=LATENCY_BUCKETS, tenant=tenant
        ).observe(result.queue_wait)
        m.histogram(
            "service_execute_seconds", buckets=LATENCY_BUCKETS, tenant=tenant
        ).observe(result.execute_seconds)

    # -- lifecycle ---------------------------------------------------------------
    def close(self, evict: bool = True) -> None:
        """Drain the queues, stop the workers, optionally evict the
        catalog. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        blocking("Thread.join")
        for t in self._workers:
            t.join()
        if evict:
            self.catalog.close()

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- reporting ---------------------------------------------------------------
    def tenant_stats(self, tenant: str) -> dict:
        """One tenant's service-side numbers (merged scheduler + telemetry)."""
        m = self.metrics
        row = {"tenant": tenant}
        for status in ("ok", "shed", "timeout", "error"):
            row[status] = int(
                m.value("service_queries", tenant=tenant, status=status)
            )
        row["cache_hits"] = int(m.value("service_cache_hits", tenant=tenant))
        latency = m.histogram(
            "service_latency_seconds", buckets=LATENCY_BUCKETS, tenant=tenant
        )
        queue_wait = m.histogram(
            "service_queue_wait_seconds", buckets=LATENCY_BUCKETS, tenant=tenant
        )
        execute = m.histogram(
            "service_execute_seconds", buckets=LATENCY_BUCKETS, tenant=tenant
        )
        row["queries"] = latency.count
        row["p50_seconds"] = latency.quantile(0.5)
        row["p99_seconds"] = latency.quantile(0.99)
        row["mean_queue_wait"] = queue_wait.mean()
        row["mean_execute"] = execute.mean()
        row.update(
            {f"sched_{k}": v for k, v in self.scheduler.stats(tenant).items()}
        )
        return row

    def report(self) -> str:
        """Human summary: per-tenant table + cache + catalog."""
        tenants = sorted(
            set(self.scheduler.tenants())
            | {
                t
                for t in self._seen_tenants()
            }
        )
        table = Table(
            ["tenant", "queries", "ok", "shed", "timeout", "error",
             "hits", "p50 ms", "p99 ms", "wait ms", "exec ms"],
            title="per-tenant service report",
        )
        for tenant in tenants:
            row = self.tenant_stats(tenant)
            table.add_row(
                [
                    tenant,
                    row["queries"] + row["shed"],
                    row["ok"],
                    row["shed"],
                    row["timeout"],
                    row["error"],
                    row["cache_hits"],
                    f"{row['p50_seconds'] * 1e3:.3f}",
                    f"{row['p99_seconds'] * 1e3:.3f}",
                    f"{row['mean_queue_wait'] * 1e3:.3f}",
                    f"{row['mean_execute'] * 1e3:.3f}",
                ]
            )
        parts = [table.render()]
        if self.cache is not None:
            s = self.cache.stats()
            parts.append(
                f"cache: {s['size']}/{s['capacity']} lines, "
                f"{s['hits']} hits / {s['misses']} misses "
                f"(rate {s['hit_rate']:.2%}), "
                f"{s['invalidations']} invalidated"
            )
        parts.append(self.catalog.stats_table())
        return "\n\n".join(parts)

    def _seen_tenants(self) -> list[str]:
        """Tenants with recorded queries (sheds included) even if the
        scheduler never queued them (pure cache-hit tenants)."""
        family = self.metrics.families().get("service_submitted")
        if family is None:
            return []
        out = set()
        fam = self.metrics._families["service_submitted"]
        for values in fam.children:
            out.add(values[0])
        return sorted(out)

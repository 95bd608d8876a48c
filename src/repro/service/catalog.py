"""Graph catalog: named, pre-built, pinned CSR graphs with lifecycle.

The batch harness rebuilds everything per invocation; a *service* keeps
graphs resident. A :class:`GraphCatalog` entry owns the three artifacts a
query needs — the raw edge list (TEPS accounting + validation), the
symmetrised deduplicated CSR (optionally rehosted zero-copy into shared
memory via :class:`~repro.graph.shm.SharedCSR`), and a set of constructed
kernels — built once at :meth:`~GraphCatalog.load` and reused by every
query until :meth:`~GraphCatalog.evict`.

Lifecycle is ref-counted: query execution holds a *pin* on the entry, an
evict of a pinned graph defers the actual release (shm teardown, kernel
drop) until the last pin falls, and eviction listeners fire immediately so
the result cache never serves a line of a graph the catalog no longer
vouches for.

This module is deliberately the **only** place in ``repro.service`` that
constructs kernels (``make_variant`` / superstep engines / runners) —
lint rule REP108 (service-kernel-bypass) enforces it. Everything else
routes through :meth:`CatalogEntry.execute` against a pinned entry, which
is what keeps query results bit-identical to the batch paths: same
generator, same shared-CSR construction, same kernel defaults.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.kronecker import KroneckerGenerator
from repro.utils.locks import NamedLock, blocking
from repro.utils.tables import Table

if TYPE_CHECKING:
    from repro.graph.shm import SharedCSR
    from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class GraphSpec:
    """How a catalog graph is generated and which machine serves it."""

    scale: int
    edge_factor: int = 16
    seed: int = 1
    nodes: int = 8
    nodes_per_super_node: int | None = None

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")
        if self.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {self.nodes}")


class CatalogEntry:
    """One resident graph: artifacts, kernels, pins, counters."""

    def __init__(
        self,
        name: str,
        spec: GraphSpec,
        edges: EdgeList,
        graph: CSRGraph,
        shared: SharedCSR | None = None,
    ) -> None:
        self.name = name
        self.spec = spec
        self.edges = edges
        self.graph = graph
        #: The SharedCSR hosting ``graph``'s arrays, when shm hosting is on.
        self.shared = shared
        self.pins = 0
        self.evicted = False
        self.executes = 0
        #: BFS kernels are reusable across roots — a root's parents, levels
        #: and traversed edges do not depend on which roots ran before it —
        #: so they are cached per variant; each carries a lock because one
        #: kernel must not run two roots concurrently. ``sim_seconds`` does
        #: depend on history, to round-off: ``run`` reports the difference
        #: of two absolute clock readings and the clock carries over from
        #: earlier roots (the same root drifts by up to 3e-8 s).
        self._bfs_kernels: dict[str, tuple[object, NamedLock]] = {}
        self._kernel_lock = NamedLock("CatalogEntry._kernel_lock")

    # -- sizing -------------------------------------------------------------------
    def resident_bytes(self) -> int:
        return (
            self.edges.nbytes()
            + self.graph.row_ptr.nbytes
            + self.graph.col_idx.nbytes
        )

    # -- kernels ------------------------------------------------------------------
    def _bfs_kernel(self, variant: str) -> tuple[object, NamedLock]:
        with self._kernel_lock:
            hit = self._bfs_kernels.get(variant)
            if hit is None:
                from repro.baselines import make_variant

                blocking("make_variant")
                kernel = make_variant(
                    variant,
                    self.edges,
                    self.spec.nodes,
                    nodes_per_super_node=self.spec.nodes_per_super_node,
                    graph=self.graph,
                )
                hit = self._bfs_kernels[variant] = (
                    kernel, NamedLock("CatalogEntry.variant_lock")
                )
            return hit

    def _superstep_kwargs(self) -> dict:
        return dict(
            nodes_per_super_node=self.spec.nodes_per_super_node,
            graph=self.graph,
        )

    # -- execution ----------------------------------------------------------------
    def execute(self, algo: str, params: dict) -> dict:
        """Run ``algo`` with canonicalised ``params``; returns the payload.

        Dispatches to the same kernels the batch paths use, against the
        pinned artifacts — the parity suite holds every payload array
        bit-identical to ``Graph500Runner`` / ``repro.algorithms``.
        """
        runner = getattr(self, f"_run_{algo}", None)
        if runner is None:
            raise ConfigError(f"unknown algorithm {algo!r}")
        if self.evicted:
            raise ConfigError(f"graph {self.name!r} has been evicted")
        blocking("CatalogEntry.execute")
        payload = runner(params)
        self.executes += 1
        return payload

    def _run_bfs(self, params: dict) -> dict:
        root = params["root"]
        if not 0 <= root < self.graph.num_vertices:
            raise ConfigError(f"root {root} out of range")
        from repro.graph500.timing import traversed_edges

        kernel, lock = self._bfs_kernel(params["variant"])
        with lock:
            result = kernel.run(root)
        return {
            "parent": result.parent,
            "levels": result.levels,
            "sim_seconds": result.sim_seconds,
            "traversed_edges": traversed_edges(self.edges, result.depths()),
        }

    def _run_sssp(self, params: dict) -> dict:
        from repro.algorithms import DistributedDeltaStepping, DistributedSSSP

        method = params["method"]
        if method == "bellman-ford":
            algo = DistributedSSSP(
                self.edges,
                self.spec.nodes,
                max_weight=params["max_weight"],
                **self._superstep_kwargs(),
            )
        elif method == "delta-stepping":
            algo = DistributedDeltaStepping(
                self.edges,
                self.spec.nodes,
                delta=params["delta"],
                max_weight=params["max_weight"],
                **self._superstep_kwargs(),
            )
        else:
            raise ConfigError(
                f"sssp method must be bellman-ford/delta-stepping, "
                f"got {method!r}"
            )
        result = algo.run(params["root"])
        return {
            "dist": result.dist,
            "supersteps": result.supersteps,
            "sim_seconds": result.sim_seconds,
        }

    def _run_pagerank(self, params: dict) -> dict:
        from repro.algorithms import DistributedPageRank

        algo = DistributedPageRank(
            self.edges,
            self.spec.nodes,
            damping=params["damping"],
            **self._superstep_kwargs(),
        )
        result = algo.run(iterations=params["iterations"], tol=params["tol"])
        return {
            "ranks": result.ranks,
            "supersteps": result.supersteps,
            "sim_seconds": result.sim_seconds,
        }

    def _run_kcore(self, params: dict) -> dict:
        from repro.algorithms import DistributedKCore

        algo = DistributedKCore(
            self.edges, self.spec.nodes, **self._superstep_kwargs()
        )
        result = algo.run(params["k"])
        return {
            "in_core": result.in_core,
            "core_size": result.core_size(),
            "supersteps": result.supersteps,
            "sim_seconds": result.sim_seconds,
        }

    def _run_wcc(self, params: dict) -> dict:
        from repro.algorithms import DistributedWCC

        algo = DistributedWCC(
            self.edges, self.spec.nodes, **self._superstep_kwargs()
        )
        result = algo.run()
        return {
            "labels": result.labels,
            "num_components": result.num_components(),
            "supersteps": result.supersteps,
            "sim_seconds": result.sim_seconds,
        }

    # -- teardown -----------------------------------------------------------------
    def _release(self) -> None:
        """Drop kernels and unhost the shm segment (last pin is gone)."""
        with self._kernel_lock:
            self._bfs_kernels.clear()
        if self.shared is not None:
            self.shared.destroy()
            self.shared = None


class GraphCatalog:
    """Named resident graphs with load/pin/evict lifecycle."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        host_shared: bool = True,
    ) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        self._lock = NamedLock("GraphCatalog._lock", fast=True)
        self._eviction_listeners: list[Callable[[str], None]] = []
        self.metrics = metrics
        #: Rehost loaded CSRs into POSIX shared memory when available so
        #: worker processes (and anything else on the box) can map the
        #: edge arrays zero-copy.
        self.host_shared = host_shared

    # -- lifecycle ---------------------------------------------------------------
    def load(
        self,
        name: str,
        spec: GraphSpec,
        edges: EdgeList | None = None,
    ) -> CatalogEntry:
        """Build and pin graph ``name`` (idempotent only by explicit evict).

        ``edges`` optionally supplies a pre-generated list (tests, file
        loads); by default the entry generates the Kronecker list from
        ``spec`` — the same generator path as ``Graph500Runner``, so a
        service query and a batch run over equal specs see equal graphs.
        """
        if not name:
            raise ConfigError("graph name must be non-empty")
        with self._lock:
            if name in self._entries:
                raise ConfigError(f"graph {name!r} is already loaded")
        if edges is None:
            edges = KroneckerGenerator(
                spec.scale, spec.edge_factor, seed=spec.seed
            ).generate()
        graph = CSRGraph.from_edges(edges)
        shared = None
        if self.host_shared:
            from repro.graph.shm import SharedCSR, shared_memory_available

            if shared_memory_available():
                shared = SharedCSR.host(graph)
                graph = shared.graph
        entry = CatalogEntry(name, spec, edges, graph, shared=shared)
        with self._lock:
            lost = name in self._entries
            if not lost:
                self._entries[name] = entry
        if lost:  # lost a load race; fold ours away outside the lock
            entry._release()
            raise ConfigError(f"graph {name!r} is already loaded")
        if self.metrics is not None:
            self.metrics.counter("service_catalog_loads").add()
        return entry

    def get(self, name: str) -> CatalogEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ConfigError(f"unknown graph {name!r}; load it first")
        return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    @contextmanager
    def pin(self, name: str) -> Iterator[CatalogEntry]:
        """Hold ``name``'s entry against release for the with-block.

        Pins taken before an evict stay valid for their whole block (the
        artifacts outlive the catalog's name binding); the release runs
        when the last pin drops.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ConfigError(f"unknown graph {name!r}; load it first")
            entry.pins += 1
        try:
            yield entry
        finally:
            with self._lock:
                entry.pins -= 1
                release = entry.evicted and entry.pins == 0
            if release:
                entry._release()

    def add_eviction_listener(self, callback: Callable[[str], None]) -> None:
        """``callback(name)`` fires inside :meth:`evict`, before release."""
        self._eviction_listeners.append(callback)

    def evict(self, name: str) -> dict:
        """Unbind ``name`` and release its artifacts (deferred past pins).

        Returns a small accounting dict: whether the release happened
        immediately and how many pins are still holding the artifacts.
        """
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                raise ConfigError(f"unknown graph {name!r}")
            entry.evicted = True
            pins = entry.pins
        for callback in list(self._eviction_listeners):
            callback(name)
        if pins == 0:
            entry._release()
        if self.metrics is not None:
            self.metrics.counter("service_catalog_evictions").add()
        return {"released": pins == 0, "pins": pins}

    def close(self) -> None:
        """Evict everything (shutdown path)."""
        for name in self.names():
            try:
                self.evict(name)
            except ReproError:  # pragma: no cover - already-gone race
                pass

    # -- introspection -----------------------------------------------------------
    def stats(self) -> list[dict]:
        with self._lock:
            entries = list(self._entries.values())
        rows = []
        for e in sorted(entries, key=lambda e: e.name):
            rows.append(
                {
                    "name": e.name,
                    "scale": e.spec.scale,
                    "edge_factor": e.spec.edge_factor,
                    "seed": e.spec.seed,
                    "nodes": e.spec.nodes,
                    "vertices": e.graph.num_vertices,
                    "edges": int(e.edges.num_edges),
                    "resident_bytes": e.resident_bytes(),
                    "shared_memory": e.shared is not None,
                    "pins": e.pins,
                    "executes": e.executes,
                }
            )
        return rows

    def stats_table(self) -> str:
        t = Table(
            ["graph", "scale", "nodes", "vertices", "edges", "MiB",
             "shm", "pins", "executes"],
            title="graph catalog",
        )
        for row in self.stats():
            t.add_row(
                [
                    row["name"],
                    row["scale"],
                    row["nodes"],
                    f"{row['vertices']:,}",
                    f"{row['edges']:,}",
                    f"{row['resident_bytes'] / 2**20:.1f}",
                    "yes" if row["shared_memory"] else "no",
                    row["pins"],
                    f"{row['executes']:,}",
                ]
            )
        return t.render()


def sample_hot_roots(entry: CatalogEntry, count: int, seed: int = 1) -> np.ndarray:
    """The benchmark-style root sample for a catalog graph (the natural
    hot set for a traversal service: the spec's 64 roots)."""
    from repro.graph500.roots import sample_roots

    return sample_roots(entry.edges, count, seed=seed)

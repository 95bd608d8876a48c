"""Generic superstep engine over the shuffle-and-relay substrate.

A Pregel-flavoured loop: each superstep every node emits (target vertex,
value) records; the engine shuffles them — generator module at the source,
relay module at the group relay (when relaying is on), handler module at
the owner — and hands each node its incoming batch. Timing is charged
through the same :class:`~repro.core.pipeline.NodePipeline` servers and
SimMPI links the BFS uses, so the techniques' costs carry over exactly as
Section 8 claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import GroupLayout
from repro.core.config import BFSConfig
from repro.core.pipeline import NodePipeline
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.partition import Partition1D
from repro.machine.node import SunwayNode
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.collectives import allreduce_seconds
from repro.network.simmpi import Message, SimCluster
from repro.sim.engine import Engine


@dataclass
class LocalPart:
    """One node's slice: vertex range, local CSR, pipeline, inbox."""

    node_id: int
    lo: int
    hi: int
    graph: CSRGraph
    pipeline: NodePipeline
    inbox_v: list = field(default_factory=list)
    inbox_x: list = field(default_factory=list)

    @property
    def n_local(self) -> int:
        return self.hi - self.lo

    def drain_inbox(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.inbox_v:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        v = np.concatenate(self.inbox_v)
        x = np.concatenate(self.inbox_x)
        self.inbox_v.clear()
        self.inbox_x.clear()
        return v, x


@dataclass
class SuperstepResult:
    """Common result envelope for the extension algorithms."""

    sim_seconds: float
    supersteps: int
    stats: dict[str, float] = field(default_factory=dict)


class SuperstepEngine:
    """Construction mirrors :class:`~repro.core.bfs.DistributedBFS` minus
    the BFS-specific machinery (policy, hubs)."""

    #: (target vertex id, float value) on the wire.
    record_bytes = 12

    def __init__(
        self,
        edges: EdgeList,
        nodes: int,
        config: BFSConfig | None = None,
        spec: MachineSpec = TAIHULIGHT,
        nodes_per_super_node: int | None = None,
        graph: CSRGraph | None = None,
    ):
        self.config = config or BFSConfig()
        self.spec = spec
        if nodes < 1:
            raise ConfigError(f"need at least one node, got {nodes}")
        self.num_nodes = nodes
        self.edges = edges
        # ``graph`` threads an already-built symmetrised deduplicated CSR
        # (e.g. a catalog-pinned instance) past re-derivation, exactly like
        # DistributedBFS(graph=...); only the cheap vertex-count check runs.
        if graph is None:
            graph = CSRGraph.from_edges(edges)
        elif graph.num_vertices != edges.num_vertices:
            raise ConfigError(
                f"prebuilt graph has {graph.num_vertices} vertices, "
                f"edge list has {edges.num_vertices}"
            )
        self.graph = graph
        n = self.graph.num_vertices
        if nodes > n:
            raise ConfigError(f"{nodes} nodes for only {n} vertices")
        weights = (
            self.graph.degrees()
            if self.config.partition_mode == "balanced"
            else None
        )
        self.partition = Partition1D(
            n, nodes, mode=self.config.partition_mode, edge_weights=weights
        )
        self.owner = self.partition.owner(np.arange(n, dtype=np.int64))
        nps = (
            nodes_per_super_node
            if nodes_per_super_node is not None
            else spec.taihulight.nodes_per_super_node
        )
        self.groups = GroupLayout(nodes, min(self.config.group_width or nps, nodes))
        self.engine = Engine()
        self.cluster = SimCluster(
            self.engine, nodes, spec=spec, nodes_per_super_node=nps,
            track_connections=self.config.track_connections,
        )
        self.parts: list[LocalPart] = []
        for i in range(nodes):
            lo, hi = self.partition.part_range(i)
            part = LocalPart(
                i, lo, hi, self.graph.row_slice(lo, hi),
                NodePipeline(SunwayNode(i, spec), self.config),
            )
            self.parts.append(part)
            self.cluster.register(i, self._make_handler(part))
        self._t_max = 0.0
        self.records_sent = 0

    # ------------------------------------------------------------ handlers --
    def _make_handler(self, part: LocalPart):
        def handler(msg: Message) -> None:
            self._on_message(part, msg)

        return handler

    def _on_message(self, part: LocalPart, msg: Message) -> None:
        ready = part.pipeline.submit_recv(msg.arrival_time)
        self._mark(ready)
        if msg.tag == "eol":
            return
        v, x = msg.payload
        if msg.tag == "alg":
            execution = part.pipeline.submit_module(ready, "forward_handler", msg.nbytes)
            self._mark(execution.finish)
            part.inbox_v.append(v)
            part.inbox_x.append(x)
        elif msg.tag == "alg_relay":
            execution = part.pipeline.submit_module(ready, "forward_relay", msg.nbytes)
            self._mark(execution.finish)
            self._stage_two(part, execution, v, x)
        else:  # pragma: no cover - defensive
            raise ConfigError(f"unknown tag {msg.tag!r}")

    def _mark(self, t: float) -> None:
        if t > self._t_max:
            self._t_max = t

    # -------------------------------------------------------------- routing --
    def _message_bytes(self, count: int) -> int:
        return self.config.header_bytes + count * self.record_bytes

    def _send_buckets(self, part, execution, tag, v, x, hops):
        if len(hops) == 0:
            return
        order = np.argsort(hops, kind="stable")
        hops, v, x = hops[order], v[order], x[order]
        boundaries = np.flatnonzero(np.diff(hops)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(hops)]))
        for k, (a, b) in enumerate(zip(starts, stops)):
            nbytes = self._message_bytes(b - a)
            ready = execution.ready_fraction((k + 1) / len(starts))
            send_at = part.pipeline.submit_send(ready, nbytes)
            self._mark(send_at)
            self.cluster.send(
                part.node_id, int(hops[a]), tag, nbytes,
                payload=(v[a:b], x[a:b]), at_time=send_at,
            )
            self.records_sent += b - a

    def _stage_two(self, part, execution, v, x):
        dest = self.owner[v]
        local = dest == part.node_id
        if local.any():
            nbytes = self._message_bytes(int(local.sum()))
            handler = part.pipeline.submit_module(
                execution.finish, "forward_handler", nbytes
            )
            self._mark(handler.finish)
            part.inbox_v.append(v[local])
            part.inbox_x.append(x[local])
        remote = ~local
        if remote.any():
            self._send_buckets(part, execution, "alg", v[remote], x[remote], dest[remote])

    def _route(self, part, execution, v, x):
        dest = self.owner[v]
        me = part.node_id
        local = dest == me
        if local.any():
            nbytes = self._message_bytes(int(local.sum()))
            handler = part.pipeline.submit_module(
                execution.finish, "forward_handler", nbytes
            )
            self._mark(handler.finish)
            part.inbox_v.append(v[local])
            part.inbox_x.append(x[local])
        remote = ~local
        if not remote.any():
            return
        rv, rx, rdest = v[remote], x[remote], dest[remote]
        if not self.config.use_relay:
            self._send_buckets(part, execution, "alg", rv, rx, rdest)
            return
        relays = self.groups.relay_vectorised(me, rdest)
        straight = (relays == me) | (relays == rdest)
        if straight.any():
            self._send_buckets(
                part, execution, "alg", rv[straight], rx[straight], rdest[straight]
            )
        hop = ~straight
        if hop.any():
            self._send_buckets(
                part, execution, "alg_relay", rv[hop], rx[hop], relays[hop]
            )

    # ------------------------------------------------------------ superstep --
    def superstep(
        self, outgoing: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exchange one round of records; returns each node's inbox.

        ``outgoing[i]`` is node i's (target vertices, values); the returned
        list has the records grouped at their owners.
        """
        if len(outgoing) != self.num_nodes:
            raise ConfigError("need one outgoing batch per node")
        t0 = self._t_max + allreduce_seconds(self.num_nodes, self.spec.taihulight)
        self._mark(t0)
        for part, (v, x) in zip(self.parts, outgoing):
            v = np.asarray(v, dtype=np.int64)
            x = np.asarray(x, dtype=np.float64)
            if v.shape != x.shape:
                raise ConfigError("targets and values must align")
            nbytes = max(len(v), 1) * self.record_bytes
            execution = part.pipeline.submit_module(t0, "forward_generator", nbytes)
            self._mark(execution.finish)
            if len(v):
                self._route(part, execution, v, x)
        self.engine.run_until_quiescent()
        return [part.drain_inbox() for part in self.parts]

    @property
    def sim_seconds(self) -> float:
        return self._t_max

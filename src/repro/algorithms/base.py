"""Generic superstep engine over the shuffle-and-relay substrate.

A Pregel-flavoured loop: each superstep every node emits (target vertex,
value) records; the engine shuffles them — generator module at the source,
relay module at the group relay (when relaying is on), handler module at
the owner — and hands each node its incoming batch. Machine wiring,
routing and bucketed sends are the BFS driver's own
(:class:`~repro.core.substrate.Substrate`), so the techniques' costs carry
over exactly as Section 8 claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BFSConfig
from repro.core.pipeline import NodePipeline
from repro.core.substrate import Substrate
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.collectives import allreduce_seconds


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


class SuperstepEngine(Substrate):
    """The substrate with ``alg`` (target vertex, value) records, delivered
    into each owner's inbox."""

    state_type = LocalPart
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
        # Spelled out rather than inherited: the benchmark ledger times
        # construction by wrapping ``SuperstepEngine.__init__`` in this
        # class's own namespace.
        super().__init__(edges, nodes, config, spec, nodes_per_super_node, graph)

    @property
    def parts(self) -> list[LocalPart]:
        return self.states

    def _apply(self, part: LocalPart, execution, kind, v, x) -> None:
        part.inbox_v.append(v)
        part.inbox_x.append(x)

    def _message_bytes(self, n_records: int) -> int:
        return self.config.header_bytes + n_records * self.record_bytes

    def _post(self, src, dests, tag, nbytes, payloads, at_times) -> None:
        # One ``cluster.send`` per bucket rather than one ``send_batch``:
        # the benchmark ledger's ``algo_mix`` workload is pinned to the
        # scalar ``send`` entry point (its regime test asserts it). Both
        # enter the same cluster core with the same simulated outcome.
        send = self.cluster.send
        for dst, nb, payload, at in zip(dests, nbytes, payloads, at_times):
            send(src, dst, tag, nb, payload=payload, at_time=at)

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
                self.route(part, execution, "alg", v, x, self.owner[v])
        self.engine.run_until_quiescent()
        return [part.drain_inbox() for part in self.parts]

    @property
    def sim_seconds(self) -> float:
        return self._t_max

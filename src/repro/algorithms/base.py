"""Generic superstep engine over the shuffle-and-relay substrate.

A Pregel-flavoured loop: each superstep every node emits (target vertex,
value) records; the engine shuffles them — generator module at the source,
relay module at the group relay (when relaying is on), handler module at
the owner — and hands each node its incoming batch. A superstep is one
:meth:`~repro.core.substrate.Substrate.exchange` round, the same round a
BFS level takes, so machine wiring, routing and bucketed sends are the
BFS driver's own and the techniques' costs carry over exactly as Section 8
claims.

A vertex program keeps one global ``np.ndarray`` per quantity and only
its vertex rule; the engine owns the rest of the loop:

- :meth:`~repro.core.substrate.Substrate.begin_run` opens the run window
  (its start time; the record count restarts at zero);
- :meth:`SuperstepEngine.scatter` builds each node's outgoing batch along
  the edges of its active vertices, in CSR order;
- :meth:`SuperstepEngine.superstep` exchanges the batches (one
  ``exchange`` round of ``alg`` records);
- :meth:`SuperstepEngine.combine_min` / :meth:`SuperstepEngine.combine_sum`
  fold each owner's inbox into a global vector, one node at a time, and
  :meth:`SuperstepEngine.reduce_sum` adds per-node partial sums the way
  an allreduce would.
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

        def batch_of(part: LocalPart) -> tuple[np.ndarray, np.ndarray]:
            v, x = outgoing[part.node_id]
            v = np.asarray(v, dtype=np.int64)
            x = np.asarray(x, dtype=np.float64)
            if v.shape != x.shape:
                raise ConfigError("targets and values must align")
            return v, x

        self.exchange(t0, "forward_generator", "alg", batch_of)
        return [part.drain_inbox() for part in self.parts]

    # ---------------------------------------------------- scatter / combine --
    def scatter(
        self, active: np.ndarray, value, keep=None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One outgoing batch per node: a record ``(t, value(s, t))`` along
        every edge ``(s, t)`` of an ``active`` vertex ``s`` the node owns,
        in CSR order. ``active`` is a global mask; ``s`` and ``t`` are
        global ids. ``keep(s, t)``, when given, picks the edges that send."""
        outgoing = []
        for part in self.parts:
            srcs = np.flatnonzero(active[part.lo : part.hi])
            if len(srcs) == 0:
                outgoing.append((np.empty(0, np.int64), np.empty(0)))
                continue
            s, t = part.graph.expand(srcs)
            s += part.lo
            if keep is not None:
                sends = keep(s, t)
                s, t = s[sends], t[sends]
            outgoing.append((t, value(s, t)))
        return outgoing

    def combine_min(self, inboxes, values: np.ndarray) -> np.ndarray:
        """Lower each owned entry of the global vector ``values`` to the
        least value in its records; returns the mask of lowered entries."""
        lowered = np.zeros(len(values), dtype=bool)
        for part, (v, x) in zip(self.parts, inboxes):
            if len(v):
                owned = values[part.lo : part.hi]
                before = owned.copy()
                np.minimum.at(owned, v - part.lo, x)
                lowered[part.lo : part.hi] = owned < before
        return lowered

    def combine_sum(self, inboxes) -> np.ndarray:
        """Global vector of each vertex's record-value sum, added up at its
        owner in arrival order."""
        sums = np.zeros(self.graph.num_vertices)
        for part, (v, x) in zip(self.parts, inboxes):
            if len(v):
                sums[part.lo : part.hi] = np.bincount(
                    v - part.lo, weights=x, minlength=part.n_local
                )
        return sums

    def reduce_sum(self, values: np.ndarray, where: np.ndarray | None = None) -> float:
        """Sum of ``values`` (at ``where``) as the machine forms it: one
        partial sum per node, added in node order. Float sums that reach
        an output or a stopping test go through here, so they do not
        depend on how the vector is laid out in memory."""
        total = 0.0
        for part in self.parts:
            x = values[part.lo : part.hi]
            if where is not None:
                x = x[where[part.lo : part.hi]]
            total += float(x.sum())
        return total

    @property
    def sim_seconds(self) -> float:
        return self._t_max

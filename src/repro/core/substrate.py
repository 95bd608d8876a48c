"""The record path of the BFS driver, superstep engine and 2-D comparator.

Section 8: BFS's core operation — generating records and shuffling them to
their owners — is also that of SSSP, WCC, PageRank and k-core.
:class:`Substrate` is that operation, written once: the machine wiring
(1-D partition and owner map, group layout, engine, SimMPI cluster, one
:class:`~repro.core.pipeline.NodePipeline` per node), :meth:`exchange`
(one round: each node's generator module, its records routed, the
end-of-level markers, the engine drained), :meth:`route` (local, straight
to the owner, or via the group relay, which forwards what it receives at
once), :meth:`_send_buckets` (one message per first hop, pipelined
against the producing module) and :meth:`begin_run` (where a run's window
starts; :meth:`run_count` reads how far a cluster counter moved in it).

A BFS top-down level, each bottom-up sub-round and a superstep are all one
:meth:`exchange`; they differ only in the generator module, the record
kind and how a node's batch is built.

The :class:`~repro.core.batching.GroupLayout` is the routing plan, and the
constructor is the one reader of ``config.use_relay``: relay routing lays
the nodes out as groups of a super node's width, direct routing as one
group of all P nodes, where every destination is a group mate and no
record takes the relay hop.

Records travel as two parallel arrays ``(a, b)``; their kind picks the
modules and the owner key (:data:`KINDS`), and the wire tag is the kind,
or ``<kind>_relay`` for the hop to a relay. A subclass sets ``state_type``
(built as ``state_type(node_id, lo, hi, row_slice, pipeline)``) and
supplies :meth:`_apply`; it may override :attr:`record_bytes`,
:meth:`_message_bytes` and :meth:`_post`.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from repro.core.batching import GroupLayout
from repro.core.config import BFSConfig
from repro.core.pipeline import NodePipeline
from repro.core.shuffle import ShufflePlan
from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.partition import Partition1D
from repro.machine.node import SunwayNode
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.simmpi import Message, SimCluster
from repro.sim.engine import Engine

#: Record kind -> (handler module at the owner, relay module at a relay,
#: index of the payload array whose vertices pick the owner).
KINDS = {
    "fwd": ("forward_handler", "forward_relay", 1),  # (parent, child)
    "bwd": ("backward_handler", "backward_relay", 0),  # (query, source)
    "alg": ("forward_handler", "forward_relay", 0),  # (target, value)
    # 2-D expand: (frontier vertices, None) to a column mate; never relayed.
    "frontier": ("forward_handler", "forward_relay", 0),
}

#: Wire tag -> (module run on arrival, record kind, owner-key index for a
#: relay hop or None for a batch at its owner).
_TAGS = {
    **{kind: (handler, kind, None) for kind, (handler, _, _) in KINDS.items()},
    **{
        f"{kind}_relay": (relay, kind, slot)
        for kind, (_, relay, slot) in KINDS.items()
    },
}


class Substrate:
    """A graph bound to a simulated machine, with one record path."""

    #: Per-node state class; see the module docstring.
    state_type: type[Any]

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
        if self.config.partition_mode == "cyclic":
            raise ConfigError(
                "the distributed runtime needs contiguous partitions "
                "(block or balanced)"
            )
        self.num_nodes = nodes
        self.edges = edges
        # ``graph`` lets callers that already built the symmetrised
        # deduplicated CSR (the benchmark runner for validation, a catalog
        # pin) share it instead of paying construction twice.
        if graph is None:
            graph = CSRGraph.from_edges(edges)
        elif graph.num_vertices != edges.num_vertices:
            raise ConfigError(
                f"prebuilt graph has {graph.num_vertices} vertices, "
                f"edge list has {edges.num_vertices}"
            )
        self.graph = graph
        n = graph.num_vertices
        if nodes > n:
            raise ConfigError(f"{nodes} nodes for only {n} vertices")

        # --- layout: partition, owners, groups ----------------------------
        weights = graph.degrees() if self.config.partition_mode == "balanced" else None
        self.partition = Partition1D(
            n, nodes, mode=self.config.partition_mode, edge_weights=weights
        )
        self.owner = self.partition.owner(np.arange(n, dtype=np.int64))
        nps = (
            nodes_per_super_node
            if nodes_per_super_node is not None
            else spec.taihulight.nodes_per_super_node
        )
        # The one routing decision (module docstring): direct = one group.
        relay_width = min(self.config.group_width or nps, nodes)
        self.groups = GroupLayout(nodes, relay_width if self.config.use_relay else nodes)

        # --- machine: engine, network, per-node state ---------------------
        self.engine = Engine()
        self.cluster = SimCluster(
            self.engine, nodes, spec=spec, nodes_per_super_node=nps,
            track_connections=self.config.track_connections,
        )
        self.states: list[Any] = []
        for i in range(nodes):
            lo, hi = self.partition.part_range(i)
            state = self.state_type(
                i, lo, hi, graph.row_slice(lo, hi),
                NodePipeline(SunwayNode(i, spec), self.config),
            )
            self.states.append(state)
            self.cluster.register(i, self._make_handler(state))

        #: SPM staging plan and its write-conflict sanitizer, consulted per
        #: shuffle in ``_send_buckets`` when both are set.
        self.shuffle_plan: ShufflePlan | None = None
        self.spm_sanitizer: Any = None
        #: Optional :class:`repro.telemetry.Telemetry` (one span per send).
        self.telemetry: Any = None
        self._t_max = 0.0
        self.records_sent = 0
        #: Cluster counter values at the start of the current run window.
        self._run_base: dict[str, float] = {}
        #: node id -> its end-of-level marker peers, built at the first
        #: marker (at 16,384 direct nodes the lists would not fit in memory,
        #: and construction must reach the connection-budget check).
        self._peers: list[list[int]] | None = None

    # --------------------------------------------------------- subclass hooks --
    def _apply(self, state, execution, kind: str, a, b) -> None:
        """Consume a batch of ``kind`` records at its owner, after the
        handler module ``execution``."""
        raise NotImplementedError

    @property
    def record_bytes(self) -> int:
        """Wire bytes per record; also sizes a generator module's input."""
        return self.config.record_bytes

    def _message_bytes(self, n_records: int) -> int:
        return self.config.header_bytes + n_records * self.record_bytes

    def _bucket_bytes(self, a, b, starts: list[int], stops: list[int]) -> list[int]:
        """Message size of each bucket ``[start, stop)``."""
        return [self._message_bytes(hi - lo) for lo, hi in zip(starts, stops)]

    def _post(self, src, dests, tag, nbytes, payloads, at_times) -> None:
        """Hand one node's messages to the fabric."""
        self.cluster.send_batch(
            src, dests, tag, nbytes, payloads=payloads, at_times=at_times
        )

    # ------------------------------------------------------------- time marks --
    def begin_run(self) -> float:
        """Open a run window: it starts once every job left by an earlier
        run has drained, so runs never overlap, and it counts its own
        records. Returns the window's start."""
        t0 = max(self.engine.now, self._t_max)
        self._t_max = t0
        self.records_sent = 0
        self._run_base = {
            name: c.value for name, c in self.cluster.stats.counters.items()
        }
        return t0

    def run_count(self, name: str) -> float:
        """How far the cluster counter ``name`` moved since :meth:`begin_run`."""
        return self.cluster.stats.value(name) - self._run_base.get(name, 0.0)

    def _mark(self, t: float) -> None:
        if t > self._t_max:
            self._t_max = t

    # ------------------------------------------------------------------ rounds --
    def exchange(
        self, t0: float, module: str, kind: str, batch_of, markers: bool = False
    ) -> int:
        """One round of the record path; returns how many records it routed.

        Node by node, ``batch_of(state)`` builds that node's ``kind``
        records ``(a, b)``, or returns None when it has none; the generator
        ``module`` runs at ``t0`` on ``max(records, 1) * record_bytes`` and
        the records are routed to their owners. With ``markers`` the node
        then sends its end-of-level markers (at ``t0`` for a node with no
        batch). The engine is drained once every node has sent."""
        slot = KINDS[kind][2]
        routed = 0
        for state in self.states:
            batch = batch_of(state)
            t_sent = t0
            if batch is not None:
                a, b = batch
                execution = state.pipeline.submit_module(
                    t0, module, max(len(a), 1) * self.record_bytes
                )
                self._mark(execution.finish)
                if len(a):
                    dest = self.owner[b if slot else a]
                    self.route(state, execution, kind, a, b, dest)
                    routed += len(a)
                t_sent = execution.finish
            if markers:
                self._send_markers(state, t_sent)
        self.engine.run_until_quiescent()
        return routed

    def _send_markers(self, state, t_ready: float) -> None:
        """End-of-level indicators (Section 3.3: "at least one message
        transfer... for each pair of nodes") to the column and group mates:
        the N+M-2 connection set, everyone in direct routing's one group."""
        if self._peers is None:
            self._peers = [self.groups.peers(i) for i in range(self.num_nodes)]
        peers = self._peers[state.node_id]
        if peers:
            n = len(peers)
            self._inject(
                state, peers, "eol", [self.config.header_bytes] * n, None,
                [t_ready] * n,
            )

    # ------------------------------------------------------------ message I/O --
    def _make_handler(self, state):
        # functools.partial rather than a closure: it forwards to
        # _on_message without an extra Python frame per message.
        return partial(self._on_message, state)

    def _on_message(self, state, msg: Message) -> None:
        ready = state.pipeline.submit_recv(msg.arrival_time)
        if ready > self._t_max:  # _mark, inlined on the per-message path
            self._t_max = ready
        if msg.tag == "eol":
            return
        try:
            module, kind, slot = _TAGS[msg.tag]
        except KeyError:  # pragma: no cover - defensive
            raise ReproError(f"unknown message tag {msg.tag!r}") from None
        execution = state.pipeline.submit_module(ready, module, msg.nbytes)
        self._mark(execution.finish)
        a, b = msg.payload
        if slot is None:
            self._apply(state, execution, kind, a, b)
        else:
            # Stage two at a relay: every destination is a group mate, so
            # route sends each record straight to its owner.
            key = b if slot else a
            self.route(state, execution, kind, a, b, self.owner[key])

    def route(self, state, execution, kind: str, a, b, dest) -> None:
        """Deliver records to their owner nodes ``dest``: locally, straight
        to a group mate or a same-column owner, or via the group relay."""
        me = state.node_id
        local = dest == me
        n_local = int(np.count_nonzero(local))
        if n_local:
            local_exec = state.pipeline.submit_module(
                execution.finish, KINDS[kind][0], self._message_bytes(n_local)
            )
            self._mark(local_exec.finish)
            self._apply(state, local_exec, kind, a[local], b[local])
        if n_local == len(dest):
            return
        if n_local:
            remote = ~local
            a, b, dest = a[remote], b[remote], dest[remote]
        relays = self.groups.relay_vectorised(me, dest)
        # Records whose relay is this node (intra-group targets) or is the
        # destination itself skip straight to stage two.
        straight = (relays == me) | (relays == dest)
        n_straight = int(np.count_nonzero(straight))
        if n_straight == len(dest):
            self._send_buckets(state, execution, kind, a, b, dest)
            return
        if n_straight:
            self._send_buckets(
                state, execution, kind, a[straight], b[straight], dest[straight]
            )
        hop = ~straight
        self._send_buckets(
            state, execution, f"{kind}_relay", a[hop], b[hop], relays[hop]
        )

    def _send_buckets(self, state, execution, tag: str, a, b, first_hops) -> None:
        """Group records by first hop and inject one message per hop,
        pipelined against the producing module's progress."""
        if len(first_hops) == 0:
            return
        if first_hops[0] == first_hops[-1] and np.all(first_hops == first_hops[0]):
            # Single destination (the common case under relay grouping):
            # the stable argsort would be the identity, so skip it and emit
            # the one bucket directly.
            hops_sorted = first_hops
            starts = np.array([0], dtype=np.int64)
            stops = np.array([len(first_hops)], dtype=np.int64)
        else:
            order = np.argsort(first_hops, kind="stable")
            hops_sorted = first_hops[order]
            a, b = a[order], b[order]
            boundaries = np.flatnonzero(np.diff(hops_sorted)) + 1
            starts = np.concatenate(([0], boundaries))
            stops = np.concatenate((boundaries, [len(hops_sorted)]))
        n_buckets = len(starts)
        spm_san = self.spm_sanitizer
        if spm_san is not None and self.shuffle_plan is not None:
            # One module execution = one shuffle phase: its consumer CPEs
            # must write disjoint per-destination regions (Section 4.3's
            # "no contention, no atomics", checked live).
            spm_san.check_bucket_writes(
                self.shuffle_plan,
                hops_sorted[starts],
                phase=f"node{state.node_id}:{tag}@{execution.start:.9e}",
            )
        starts_l, stops_l = starts.tolist(), stops.tolist()
        nbytes_l = self._bucket_bytes(a, b, starts_l, stops_l)
        if n_buckets == 1:
            # ready_fractions(1) without the array round trip — the
            # identical float expression for fraction 1.0.
            readies_l = [execution.start + 1.0 * (execution.finish - execution.start)]
        else:
            readies_l = execution.ready_fractions(n_buckets).tolist()
        payloads = [(a[lo:hi], b[lo:hi]) for lo, hi in zip(starts_l, stops_l)]
        dests = hops_sorted[starts].tolist()
        send_ats = self._inject(state, dests, tag, nbytes_l, payloads, readies_l)
        self.records_sent += len(first_hops)
        tel = self.telemetry
        if tel is not None:
            tel.spans.record(
                "message-batch", "batch", readies_l[0], send_ats[-1],
                parent=tel.current, tag=tag, buckets=n_buckets,
                records=len(first_hops), node=state.node_id,
            )

    def _inject(self, state, dests, tag, nbytes, payloads, readies) -> list[float]:
        """Charge the sender's M0 once per message, ready at ``readies``,
        and hand the messages to the fabric; returns their injection times."""
        send_ats = state.pipeline.submit_send_many(readies)
        self._mark(send_ats[-1])
        self._post(state.node_id, dests, tag, nbytes, payloads, send_ats)
        return send_ats

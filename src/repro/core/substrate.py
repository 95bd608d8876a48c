"""The record path shared by the BFS driver and the superstep engine.

Section 8: BFS's core operation — shuffling dynamically generated records
to their owners — is also that of SSSP, WCC, PageRank and k-core.
:class:`Substrate` is that operation, written once: the machine wiring
(1-D partition and owner map, relay groups, engine, SimMPI cluster, one
:class:`~repro.core.pipeline.NodePipeline` per node), :meth:`route`
(local, straight to the owner, or via the group relay, which forwards
what it receives at once) and :meth:`_send_buckets` (one message per first
hop, pipelined against the producing module).

Records travel as two parallel arrays ``(a, b)``; their kind picks the
modules and the owner key (:data:`KINDS`), and the wire tag is the kind,
or ``<kind>_relay`` for the hop to a relay. A subclass sets ``state_type``
(built as ``state_type(node_id, lo, hi, row_slice, pipeline)``) and
supplies :meth:`_apply`, :meth:`_message_bytes` and :meth:`_post`.
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
        self.groups = GroupLayout(nodes, min(self.config.group_width or nps, nodes))

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

    # --------------------------------------------------------- subclass hooks --
    def _apply(self, state, execution, kind: str, a, b) -> None:
        """Consume a batch of ``kind`` records at its owner, after the
        handler module ``execution``."""
        raise NotImplementedError

    def _message_bytes(self, n_records: int) -> int:
        raise NotImplementedError

    def _bucket_bytes(self, a, b, starts: list[int], stops: list[int]) -> list[int]:
        """Message size of each bucket ``[start, stop)``."""
        return [self._message_bytes(hi - lo) for lo, hi in zip(starts, stops)]

    def _post(self, src, dests, tag, nbytes, payloads, at_times) -> None:
        """Hand one node's messages to the fabric."""
        raise NotImplementedError

    # ------------------------------------------------------------- time marks --
    def _mark(self, t: float) -> None:
        if t > self._t_max:
            self._t_max = t

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
            # Stage two at a relay: final hops are intra-group.
            key = b if slot else a
            self.route(state, execution, kind, a, b, self.owner[key], relay=False)

    def route(self, state, execution, kind: str, a, b, dest, relay=True) -> None:
        """Deliver records to their owner nodes ``dest`` — locally,
        directly, or via the group relay, per configuration. A relay module
        forwarding its output passes ``relay=False``: final hops are
        intra-group by construction."""
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
        if not (relay and self.config.use_relay):
            self._send_buckets(state, execution, kind, a, b, dest)
            return
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
        send_ats = state.pipeline.submit_send_many(readies_l)
        self._mark(send_ats[-1])
        payloads = [(a[lo:hi], b[lo:hi]) for lo, hi in zip(starts_l, stops_l)]
        dests = hops_sorted[starts].tolist()
        self._post(state.node_id, dests, tag, nbytes_l, payloads, send_ats)
        self.records_sent += len(first_hops)
        tel = self.telemetry
        if tel is not None:
            tel.spans.record(
                "message-batch", "batch", readies_l[0], send_ats[-1],
                parent=tel.current, tag=tag, buckets=n_buckets,
                records=len(first_hops), node=state.node_id,
            )

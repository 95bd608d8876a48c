"""SimMPI: a deterministic rank-level message-passing runtime.

This is the substitute for MPI on 40,768 nodes: each simulated node is a
*rank* with a registered message handler; sends charge the fat-tree link
model and deliver by scheduling the destination handler on the
discrete-event engine. Payloads are passed by reference (numpy arrays) —
only *time* is simulated, data moves functionally.

Connection accounting is live: the first message between two ranks creates
connections on both ends, and either side may crash with
:class:`~repro.errors.ConnectionMemoryExhausted` exactly like the paper's
Direct-MPE baseline did.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.connection import ConnectionTable
from repro.network.cost import NetworkModel
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


@dataclass(slots=True, eq=False)
class Message:
    """One simulated message (header plus by-reference payload).

    Constructed exactly once per send; ``arrival_time`` starts at ``-1.0``
    and is filled in by the injection step once the link model has priced
    the transfer. Identity comparison (``eq=False``) keeps messages
    hashable and reflects what they are: unique in-flight objects, not
    values.
    """

    src: int
    dst: int
    tag: str
    nbytes: int
    payload: Any = None
    send_time: float = 0.0
    arrival_time: float = 0.0


Handler = Callable[[Message], None]

#: Batch width at which the send core (:meth:`SimCluster._post`) switches
#: from the plain pricing loop to vectorised
#: :meth:`NetworkModel.price_batch` (both produce bit-identical prices;
#: this is purely a constant-factor choice).
_VECTOR_THRESHOLD = 32


class SimCluster:
    """A set of ranks over one engine, network model and stats registry."""

    def __init__(
        self,
        engine: Engine,
        num_nodes: int,
        spec: MachineSpec = TAIHULIGHT,
        nodes_per_super_node: int | None = None,
        track_connections: bool = True,
    ):
        if num_nodes <= 0:
            raise ConfigError(f"cluster needs at least one node, got {num_nodes}")
        self.engine = engine
        self.spec = spec
        self.topology = FatTreeTopology(
            num_nodes,
            nodes_per_super_node=(
                nodes_per_super_node
                if nodes_per_super_node is not None
                else spec.taihulight.nodes_per_super_node
            ),
            central_oversubscription=spec.taihulight.central_oversubscription,
        )
        self.network = NetworkModel(self.topology, spec)
        self.stats = StatsRegistry()
        # Hot-path counters, resolved once (the registry hands out the same
        # Counter object for a name forever).
        self._stat_messages = self.stats.counter("messages")
        self._stat_bytes = self.stats.counter("bytes")
        self._stat_central_messages = self.stats.counter("central_messages")
        self._stat_central_bytes = self.stats.counter("central_bytes")
        self._stat_dead_letters = self.stats.counter("dead_letters")
        self.track_connections = track_connections
        self.connections = [
            ConnectionTable(i, spec.node) for i in range(num_nodes)
        ]
        self._handlers: dict[int, Handler] = {}
        self._dead: set[int] = set()
        #: Optional :class:`repro.telemetry.Telemetry`; when set, sends
        #: also count into per-tag labeled families.
        self.telemetry = None

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    # -- wiring -------------------------------------------------------------
    def register(self, rank: int, handler: Handler) -> None:
        """Install the message handler for ``rank`` (exactly one per rank)."""
        self.topology.check_node(rank)
        if rank in self._handlers:
            raise SimulationError(f"rank {rank} already has a handler")
        self._handlers[rank] = handler

    # -- node lifecycle -------------------------------------------------------
    def deregister(self, rank: int) -> None:
        """Mark ``rank`` crashed: its handler is removed and every message
        addressed to (or injected by) it from now on is counted under the
        ``dead_letters`` stat instead of raising inside the engine."""
        self.topology.check_node(rank)
        self._handlers.pop(rank, None)
        self._dead.add(rank)

    def revive(self, rank: int, handler: Handler) -> None:
        """Bring a crashed rank back (a replacement node taking over the
        rank): clears the dead mark and installs a fresh handler."""
        self.topology.check_node(rank)
        self._dead.discard(rank)
        self._handlers[rank] = handler

    def is_alive(self, rank: int) -> bool:
        return rank not in self._dead

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._dead)

    # -- sending --------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        tag: str,
        nbytes: int,
        payload: Any = None,
        at_time: float | None = None,
    ) -> Message:
        """Inject a message; its handler fires at the modelled arrival time.

        ``at_time`` lets callers queue a send for when their MPE finishes
        preparing it; default is engine-now. A one-message batch: it goes
        straight to the shared core (never through ``send_batch``, so an
        interceptor wrapping ``send`` is not re-entered).
        """
        when = self.engine.now if at_time is None else at_time
        return self._post(src, [dst], tag, [nbytes], (payload,), [when])[0]

    def send_batch(
        self,
        src: int,
        dests: np.ndarray,
        tag: str,
        nbytes: np.ndarray,
        payloads: Sequence[Any] | None = None,
        at_times: np.ndarray | None = None,
    ) -> list[Message]:
        """Inject ``N`` same-tag messages from one source in one call.

        Semantically identical to ``N`` :meth:`send` calls in batch order —
        same arrival times, same stats, same delivery interleaving with
        every other sender — but validation, connection accounting, stats
        counters and route pricing happen once per batch instead of once
        per message. Each message still gets its own injection event, so
        FIFO link admission runs in global simulated-time order (the only
        order in which the shared ``free_at`` recurrences are exact).

        When a fault injector has wrapped :meth:`send`, the batch degrades
        to per-message calls through the wrapper so per-message fault
        draws stay on the path.
        """
        # Plain lists pass through untouched (every element a Python int);
        # arrays are converted once. Either spelling is accepted from
        # callers — the driver sends lists to skip the round trip.
        if type(dests) is list:
            dests_l = dests
        else:
            dests_l = np.asarray(dests, dtype=np.int64).tolist()
        if type(nbytes) is list:
            nbytes_l = nbytes
        else:
            nbytes_l = np.asarray(nbytes, dtype=np.int64).tolist()
        n = len(dests_l)
        if len(nbytes_l) != n or (payloads is not None and len(payloads) != n):
            raise ConfigError("send_batch arrays must have equal lengths")
        if n == 0:
            return []
        if at_times is None:
            at_list = [self.engine.now] * n
        else:
            if type(at_times) is list:
                at_list = at_times
            else:
                at_list = np.asarray(at_times, dtype=np.float64).tolist()
            if len(at_list) != n:
                raise ConfigError("send_batch arrays must have equal lengths")
        if "send" in self.__dict__:
            # An interceptor (fault injector) owns the send path; keep its
            # per-message semantics.
            return [
                self.send(
                    src, d, tag, nb,
                    payload=None if payloads is None else payloads[i],
                    at_time=at_list[i],
                )
                for i, (d, nb) in enumerate(zip(dests_l, nbytes_l))
            ]
        return self._post(
            src, dests_l, tag, nbytes_l,
            (None,) * n if payloads is None else payloads, at_list,
        )

    def _post(
        self,
        src: int,
        dests_l: list[int],
        tag: str,
        nbytes_l: list[int],
        payloads: Sequence[Any],
        at_list: list[float],
    ) -> list[Message]:
        """The one way a message enters the fabric: validate, account
        connections and stats, price each route, and schedule one injection
        event per message. Inputs are equal-length, non-empty lists."""
        self.topology.check_node(src)
        if min(dests_l) < 0 or max(dests_l) >= self.topology.num_nodes:
            # Raises with the first bad node named.
            self.topology.check_nodes(np.asarray(dests_l, dtype=np.int64))
        if min(nbytes_l) < 0:
            raise ConfigError(f"negative message size: {min(nbytes_l)}")
        if min(at_list) < self.engine.now:
            raise SimulationError("cannot send in the past")
        n = len(dests_l)
        if self.track_connections:
            my_table = self.connections[src]
            my_peers = my_table.peers
            connections = self.connections
            for d in dests_l:
                # Steady state is two set-membership hits; ensure() only
                # runs (and budget-checks) the first time a pair appears.
                if d not in my_peers:
                    my_table.ensure(d)
                other = connections[d]
                if src not in other.peers:
                    other.ensure(src)
        self._stat_messages.add(n)
        self._stat_bytes.add(sum(nbytes_l))
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("messages_by_tag", tag=tag).add(n)
            tel.metrics.counter("bytes_by_tag", tag=tag).add(sum(nbytes_l))
        network = self.network
        nic_in, downlink = network.nic_in, network.downlink
        nps = self.topology.nodes_per_super_node
        sn_src = src // nps
        out = network.nic_out[src]
        up = network.uplink[sn_src]
        msgs = []
        argses = []
        if n >= _VECTOR_THRESHOLD:
            # Vectorised pricing: worth the fixed numpy call overhead only
            # for wide fan-outs (large eol broadcasts in direct mode).
            dests = np.asarray(dests_l, dtype=np.int64)
            nbytes = np.asarray(nbytes_l, dtype=np.int64)
            sn = self.topology.super_ids
            central = dests != src
            np.logical_and(central, sn[dests] != sn_src, out=central)
            n_central = int(np.count_nonzero(central))
            if n_central:
                self._stat_central_messages.add(n_central)
                self._stat_central_bytes.add(int(nbytes[central].sum()))
            d_nic, d_trunk, latency, intra = network.price_batch(
                src, dests, nbytes
            )
            sn_dst = sn[dests]
            d_nic, d_trunk = d_nic.tolist(), d_trunk.tolist()
            latency, intra = latency.tolist(), intra.tolist()
            for i, (dst, nb, payload, at) in enumerate(
                zip(dests_l, nbytes_l, payloads, at_list)
            ):
                msg = Message(src, dst, tag, nb, payload, at, -1.0)
                msgs.append(msg)
                if dst == src:
                    argses.append((msg, (), 0.0))
                elif intra[i]:
                    dn = d_nic[i]
                    argses.append(
                        (msg, ((out, dn), (nic_in[dst], dn)), latency[i])
                    )
                else:
                    dn, dt = d_nic[i], d_trunk[i]
                    argses.append(
                        (msg,
                         ((out, dn), (up, dt), (downlink[sn_dst[i]], dt),
                          (nic_in[dst], dn)),
                         latency[i])
                    )
        else:
            # Narrow batch (the common case: a handful of buckets per module
            # execution): a plain loop beats numpy's per-call overhead, and
            # scalar float division is the same IEEE operation, so prices
            # are bit-identical to price_batch.
            t = self.spec.taihulight
            lat_intra = t.intra_super_node_latency
            lat_inter = t.inter_super_node_latency
            nic_bw, trunk_bw = network.nic_bandwidth, network.trunk_bandwidth
            n_central = 0
            central_bytes = 0
            for dst, nb, payload, at in zip(
                dests_l, nbytes_l, payloads, at_list
            ):
                msg = Message(src, dst, tag, nb, payload, at, -1.0)
                msgs.append(msg)
                if dst == src:
                    argses.append((msg, (), 0.0))
                    continue
                dn = nb / nic_bw
                sn_dst = dst // nps
                if sn_dst == sn_src:
                    argses.append(
                        (msg, ((out, dn), (nic_in[dst], dn)), lat_intra)
                    )
                else:
                    n_central += 1
                    central_bytes += nb
                    dt = nb / trunk_bw
                    argses.append(
                        (msg,
                         ((out, dn), (up, dt), (downlink[sn_dst], dt),
                          (nic_in[dst], dn)),
                         lat_inter)
                    )
            if n_central:
                self._stat_central_messages.add(n_central)
                self._stat_central_bytes.add(central_bytes)
        self.engine.schedule_batch(at_list, self._inject_batched, argses)
        return msgs

    def _inject_batched(
        self,
        msg: Message,
        route: tuple,
        latency: float,
    ) -> None:
        """Injection with the route pre-priced: inline FIFO admission.

        Same float operations as :meth:`NetworkModel.transfer` in the same
        order — ``start = max(now, free_at)``, ``finish = start + d`` per
        link — with the per-call route construction and bounds checks
        already paid once for the whole batch.
        """
        if msg.src in self._dead:
            # The sender crashed before its NIC got the message out.
            self._stat_dead_letters.add()
            return
        t = self.engine.now
        if not route:  # self-send: no links, no latency
            msg.arrival_time = t
            self.engine.call_at(t, self._deliver, msg)
            return
        nb = msg.nbytes
        for link, d in route:
            link.bytes_carried += nb
            free = link.free_at
            start = t if t > free else free
            t = start + d
            link.free_at = t
            link.busy_time += d
            link.jobs += 1
            if link.intervals is not None:
                link.intervals.append((start, t))
        arrival = t + latency
        msg.arrival_time = arrival
        self.engine.call_at(arrival, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        handler = self._handlers.get(msg.dst)
        if handler is None:
            if msg.dst in self._dead:
                self._stat_dead_letters.add()
                return
            raise SimulationError(f"rank {msg.dst} has no handler for {msg.tag!r}")
        handler(msg)

    # -- diagnostics ------------------------------------------------------------
    def max_connections(self) -> int:
        return max(c.count for c in self.connections)

    def total_connection_memory(self) -> int:
        return sum(c.memory_used for c in self.connections)

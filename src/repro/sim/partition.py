"""Partitioned conservative-sync event engine (PDES) over node groups.

The sequential :class:`~repro.sim.engine.Engine` is one heap; at scale the
kernel phase is dominated by pushing and popping that single queue. This
module splits the event population into per-partition *lanes* — one compute
lane per simulated node group, one *fabric* lane for link admissions, one
*control* lane for timers and unregistered callbacks — and advances each
lane in conservative drain runs bounded by the other lanes' earliest work.

Why this is safe (the lookahead argument)
-----------------------------------------
A cross-partition message must traverse modeled fat-tree links, and every
link only delays it: the arrival time of a message from partition *p* to
partition *q* is at least ``send_time + min_cross_latency(p, q)`` — the
minimum propagation latency between the two node ranges, derived from
:class:`~repro.network.topology.FatTreeTopology` geometry and the
:class:`~repro.network.cost.NetworkModel` constants (1 us intra super node,
3 us across the central switches). That bound is the classic conservative
PDES *lookahead*: while a partition's clock plus the lookahead is below
every neighbour's horizon, no earlier cross-partition event can appear.
:class:`PartitionLayout` aligns partitions to super-node boundaries
whenever there are at least as many super nodes as partitions, which makes
*every* cross-partition message pay the 3 us central-switch latency — the
widest derivable window. Each ordered partition pair owns a
:class:`PartitionChannel` that timestamps every cross-partition delivery
and *verifies* the promised slack at runtime, so a link-model change that
silently shrank the window fails loudly instead of corrupting results.

Why results are bit-identical (the ordering argument)
-----------------------------------------------------
Event handles double as heap tie-breakers and are allocated in schedule
order, so the global ``(when, seq)`` execution order is observable —
simultaneous events (message bursts at a level barrier) are real, and
reordering them would reorder handle allocation downstream. The drain loop
therefore never reorders: it always executes the global minimum. A drain
run stays on one lane only while that lane's head is strictly below the
*drain bound* — the minimum head of every other lane, shrunk in place
whenever an executed callback pushes work across lanes — which is exactly
the condition under which the lane head *is* the global minimum. The
sequential engine remains the executable specification;
``tests/test_message_path_parity.py`` pins parents, ``sim_seconds``, stats
snapshots and telemetry spans bit-identical across partition counts.

The fabric lane exists because link admission mutates shared FIFO
``free_at`` state with zero lookahead — admissions must serialise in global
order, so they get their own lane instead of a compute lane. Self-sends
touch no links and stay on their node's compute lane.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ConfigError, SimulationError
from repro.sim.engine import Engine

_INF = float("inf")

#: Route kinds for registered scheduling entry points.
_DELIVERY = 0
_INJECTION = 1


class PartitionLayout:
    """Contiguous node groups, super-node aligned whenever possible."""

    __slots__ = ("num_nodes", "partitions", "bounds", "aligned", "part_of")

    def __init__(
        self, num_nodes: int, bounds: Sequence[int], aligned: bool
    ) -> None:
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != num_nodes:
            raise ConfigError(f"bad partition bounds {list(bounds)!r}")
        for lo, hi in zip(bounds, bounds[1:]):
            if hi <= lo:
                raise ConfigError(f"empty partition in bounds {list(bounds)!r}")
        self.num_nodes = num_nodes
        self.partitions = len(bounds) - 1
        self.bounds = tuple(bounds)
        self.aligned = aligned
        table = [0] * num_nodes
        for p in range(self.partitions):
            for node in range(bounds[p], bounds[p + 1]):
                table[node] = p
        #: Per-node partition id, indexed ``part_of[node]`` on the hot path.
        self.part_of = table

    @classmethod
    def build(cls, topology: Any, partitions: int) -> "PartitionLayout":
        """Split ``topology``'s nodes into at most ``partitions`` groups.

        When the machine has at least as many super nodes as requested
        partitions, whole super nodes are grouped — then every
        cross-partition message crosses the central switches and the
        inter-super-node latency is the lookahead. Otherwise nodes are
        split evenly and the (smaller) intra-super-node latency applies.
        More partitions than nodes collapses to one node per partition.
        """
        n = int(topology.num_nodes)
        p = max(1, min(int(partitions), n))
        n_sn = int(topology.num_super_nodes)
        nps = int(topology.nodes_per_super_node)
        bounds = [0]
        if n_sn >= p:
            base, extra = divmod(n_sn, p)
            sn = 0
            for i in range(p):
                sn += base + (1 if i < extra else 0)
                bounds.append(min(sn * nps, n))
            aligned = True
        else:
            base, extra = divmod(n, p)
            node = 0
            for i in range(p):
                node += base + (1 if i < extra else 0)
                bounds.append(node)
            aligned = False
        return cls(n, bounds, aligned)

    def span(self, partition: int) -> tuple[int, int]:
        """Node range ``[lo, hi)`` of one partition."""
        return self.bounds[partition], self.bounds[partition + 1]


class LookaheadTable:
    """Derived per-ordered-pair lookahead between partition node ranges."""

    __slots__ = ("partitions", "_latency")

    def __init__(self, layout: PartitionLayout, network: Any) -> None:
        p = layout.partitions
        self.partitions = p
        latency = [0.0] * (p * p)
        for a in range(p):
            for b in range(p):
                if a != b:
                    latency[a * p + b] = float(
                        network.min_cross_latency(layout.span(a), layout.span(b))
                    )
        self._latency = latency

    def lookahead(self, src_partition: int, dst_partition: int) -> float:
        """Seconds no ``src -> dst`` cross event can beat past its send."""
        return self._latency[src_partition * self.partitions + dst_partition]

    def min_lookahead(self) -> float:
        """The tightest window of any ordered pair (reporting)."""
        cross = [
            self._latency[a * self.partitions + b]
            for a in range(self.partitions)
            for b in range(self.partitions)
            if a != b
        ]
        return min(cross) if cross else _INF


class PartitionChannel:
    """Timestamped cross-partition delivery channel for one ordered pair.

    Every delivery scheduled from partition ``src`` into partition ``dst``
    is recorded here; the channel checks the observed slack (arrival minus
    send time) against the derived lookahead so the safe-window guarantee
    is enforced, not assumed.
    """

    __slots__ = ("src_partition", "dst_partition", "lookahead", "pushes", "min_slack")

    def __init__(
        self, src_partition: int, dst_partition: int, lookahead: float
    ) -> None:
        self.src_partition = src_partition
        self.dst_partition = dst_partition
        self.lookahead = lookahead
        self.pushes = 0
        self.min_slack = _INF

    def record(self, when: float, send_time: float) -> None:
        slack = when - send_time
        # The epsilon tolerates the one float rounding of ``t + latency``;
        # a genuine violation is off by a full latency class, not an ulp.
        if slack < self.lookahead * (1.0 - 1e-9):
            raise SimulationError(
                f"cross-partition delivery {self.src_partition}->"
                f"{self.dst_partition} arrived with slack {slack:.3e}s, "
                f"below the derived lookahead {self.lookahead:.3e}s — the "
                "link model no longer honours the safe-window bound"
            )
        self.pushes += 1
        if slack < self.min_slack:
            self.min_slack = slack


class PartitionedEngine(Engine):
    """Multi-lane event engine executing the exact global event order.

    Drop-in replacement for :class:`~repro.sim.engine.Engine` (same
    scheduling/cancel/run API, same clock semantics, same telemetry
    accounting). Construct with the partition count, then call
    :meth:`attach_cluster` once the simulated cluster exists so the layout
    and lookahead table can be derived from its modeled network.
    """

    def __init__(self, partitions: int) -> None:
        super().__init__()
        if partitions < 1:
            raise ConfigError(f"need at least one partition, got {partitions}")
        self.partitions = int(partitions)
        #: Lane indices: ``0..partitions-1`` compute, then fabric, control.
        self._fabric = self.partitions
        self._control = self.partitions + 1
        self._lanes: list[list[list[Any]]] = [
            [] for _ in range(self.partitions + 2)
        ]
        #: Live (scheduled, not executed, not cancelled) entries by handle.
        self._entries: dict[int, list[Any]] = {}
        #: Registered scheduling entry points: underlying function -> kind.
        self._routes: dict[Any, int] = {}
        self._node_partition: list[int] = []
        self.layout: PartitionLayout | None = None
        self.lookahead: LookaheadTable | None = None
        self._channels: dict[int, PartitionChannel] = {}
        self._current_lane = self._control
        self._drain_bound: tuple[float, int] = (_INF, -1)
        # PDES self-accounting — kept out of the cluster stats registry on
        # purpose: parity tests pin stats snapshots bit-identical to the
        # sequential engine, so this surfaces via partition_report() only.
        self._lane_events = [0] * (self.partitions + 2)
        self._drains = 0
        self._longest_drain = 0
        #: Drain-run length histogram: ``_drain_hist[i]`` counts runs of
        #: length ``[2**(i-1), 2**i)`` (index 0 counts empty runs).
        self._drain_hist: list[int] = []

    # -- wiring ------------------------------------------------------------------
    def attach_cluster(self, cluster: Any) -> None:
        """Derive layout/lookahead from the cluster's modeled network and
        register its scheduling entry points as routed functions."""
        layout = PartitionLayout.build(cluster.network.topology, self.partitions)
        self.layout = layout
        self._node_partition = layout.part_of
        self.lookahead = LookaheadTable(layout, cluster.network)
        self._channels = {}
        for a in range(layout.partitions):
            for b in range(layout.partitions):
                if a != b:
                    self._channels[a * self.partitions + b] = PartitionChannel(
                        a, b, self.lookahead.lookahead(a, b)
                    )
        cls = type(cluster)
        self.register_delivery(cls._deliver)
        self.register_injection(cls._inject)
        inject_batched = getattr(cls, "_inject_batched", None)
        if inject_batched is not None:
            self.register_injection(inject_batched)

    def register_delivery(self, fn: Callable[..., None]) -> None:
        """Mark ``fn(msg, ...)`` as a delivery entry point: its events run
        on the compute lane of ``msg.dst``'s partition, and cross-partition
        schedules are validated through the pair channel."""
        self._routes[getattr(fn, "__func__", fn)] = _DELIVERY

    def register_injection(self, fn: Callable[..., None]) -> None:
        """Mark ``fn(msg, ...)`` as a link-admission entry point: remote
        sends serialise on the shared FIFO link state (zero lookahead) and
        ride the fabric lane; self-sends touch no links and stay on the
        node's compute lane."""
        self._routes[getattr(fn, "__func__", fn)] = _INJECTION

    # -- classification ----------------------------------------------------------
    def _lane_of(
        self, when: float, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> int:
        kind = self._routes.get(getattr(fn, "__func__", fn))
        if kind is None or not args:
            return self._control
        msg = args[0]
        table = self._node_partition
        if kind == _DELIVERY:
            dst_partition = table[msg.dst]
            src_partition = table[msg.src]
            if src_partition != dst_partition:
                self._channels[
                    src_partition * self.partitions + dst_partition
                ].record(when, msg.send_time)
            return dst_partition
        if msg.src == msg.dst:
            return table[msg.dst]
        return self._fabric

    # -- bookkeeping --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    # -- scheduling ---------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> int:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when!r} before now={self._now!r}"
            )
        handle = self._seq
        self._seq = handle + 1
        entry: list[Any] = [when, handle, fn, args]
        self._entries[handle] = entry
        lane = self._lane_of(when, fn, args)
        heapq.heappush(self._lanes[lane], entry)
        if self._running and lane != self._current_lane:
            bound_when, bound_seq = self._drain_bound
            if when < bound_when or (when == bound_when and handle < bound_seq):
                self._drain_bound = (when, handle)
        return handle

    def schedule_batch(
        self,
        whens: list[float],
        fn: Callable[..., None],
        argses: list[tuple[Any, ...]],
    ) -> range:
        if len(whens) != len(argses):
            raise SimulationError("schedule_batch lists must have equal lengths")
        if whens and min(whens) < self._now:
            raise SimulationError(
                f"cannot schedule event at t={min(whens)!r} before now={self._now!r}"
            )
        first = self._seq
        seq = first
        entries = self._entries
        lanes = self._lanes
        push = heapq.heappush
        running = self._running
        current = self._current_lane
        for when, args in zip(whens, argses):
            entry: list[Any] = [when, seq, fn, args]
            entries[seq] = entry
            lane = self._lane_of(when, fn, args)
            push(lanes[lane], entry)
            if running and lane != current:
                bound_when, bound_seq = self._drain_bound
                if when < bound_when or (when == bound_when and seq < bound_seq):
                    self._drain_bound = (when, seq)
            seq += 1
        self._seq = seq
        return range(first, seq)

    def cancel(self, handle: int) -> None:
        """Cancel by handle: the entry leaves the live table immediately
        and is voided in place in its lane heap (payload freed, heap node
        skipped at pop), so cancellation is bounded by construction.
        Cancelling an already-executed handle is a tolerated no-op."""
        if not 0 <= handle < self._seq:
            raise SimulationError(f"unknown event handle: {handle!r}")
        entry = self._entries.pop(handle, None)
        if entry is not None:
            entry[2] = None
            entry[3] = ()

    # -- running ------------------------------------------------------------------
    def _min_lane(self) -> int:
        """Lane holding the global-minimum live event, or -1 when drained.

        Voided (cancelled) heads are purged as a side effect so lane heads
        are live afterwards.
        """
        best = -1
        best_when = 0.0
        best_seq = -1
        pop = heapq.heappop
        for idx, heap in enumerate(self._lanes):
            while heap and heap[0][2] is None:
                pop(heap)
            if heap:
                head = heap[0]
                when = head[0]
                if (
                    best < 0
                    or when < best_when
                    or (when == best_when and head[1] < best_seq)
                ):
                    best = idx
                    best_when = when
                    best_seq = head[1]
        return best

    def step(self) -> bool:
        """Execute the next live event. Returns False when drained."""
        lane = self._min_lane()
        if lane < 0:
            return False
        entry = heapq.heappop(self._lanes[lane])
        del self._entries[entry[1]]
        self._now = entry[0]
        self._events_executed += 1
        self._lane_events[lane] += 1
        entry[2](*entry[3])
        return True

    def _drain_one(
        self,
        lane_idx: int,
        until: float | None,
        max_events: int | None,
        executed: int,
    ) -> int:
        """One conservative drain run on ``lane_idx``.

        Stays on the lane while its head is strictly below every other
        lane's earliest entry. The bound shrinks in place whenever an
        executed callback pushes work onto another lane
        (call_at/schedule_batch), so the run extends exactly as far as
        safety allows. Returns the updated executed count.
        """
        lanes = self._lanes
        entries = self._entries
        pop = heapq.heappop
        lane = lanes[lane_idx]
        bound_when = _INF
        bound_seq = -1
        for idx, other in enumerate(lanes):
            if idx != lane_idx and other:
                head = other[0]
                when = head[0]
                if when < bound_when or (
                    when == bound_when and head[1] < bound_seq
                ):
                    bound_when = when
                    bound_seq = head[1]
        self._drain_bound = (bound_when, bound_seq)
        self._current_lane = lane_idx
        self._drains += 1
        run_len = 0
        while lane:
            head = lane[0]
            fn = head[2]
            if fn is None:
                pop(lane)
                continue
            when = head[0]
            seq = head[1]
            bound_when, bound_seq = self._drain_bound
            if when > bound_when or (
                when == bound_when and seq > bound_seq
            ):
                break
            if until is not None and when > until:
                break
            if max_events is not None and executed >= max_events:
                break
            pop(lane)
            del entries[seq]
            self._now = when
            executed += 1
            run_len += 1
            fn(*head[3])
        self._lane_events[lane_idx] += run_len
        bucket = run_len.bit_length()
        hist = self._drain_hist
        while len(hist) <= bucket:
            hist.append(0)
        hist[bucket] += 1
        if run_len > self._longest_drain:
            self._longest_drain = run_len
        return executed

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the lanes in exact global ``(when, seq)`` order.

        Clock semantics match :meth:`Engine.run` exactly: with ``until``
        set, later events stay queued and the clock lands on ``until``.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                lane_idx = self._min_lane()
                if lane_idx < 0:
                    if until is not None:
                        self._now = max(self._now, until)
                    break
                lane = self._lanes[lane_idx]
                if until is not None and lane[0][0] > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                executed = self._drain_one(lane_idx, until, max_events, executed)
        finally:
            self._running = False
            self._current_lane = self._control
            # Folded out of the hot loop, exactly like the base engine, so
            # the telemetry counter families stay bit-identical.
            self._events_executed += executed
            if self.telemetry is not None and executed:
                self.telemetry.metrics.counter("engine_events").add(executed)
        return self._now

    def run_until_quiescent(self, max_events: int = 100_000_000) -> float:
        """Drain every event; raise if the bound is hit (runaway simulation)."""
        start = self._events_executed
        self.run(max_events=max_events)
        if self._entries:
            raise SimulationError(
                f"simulation still active after {self._events_executed - start} events"
            )
        return self._now

    # -- reporting ----------------------------------------------------------------
    def _drain_hist_rendered(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i, count in enumerate(self._drain_hist):
            if not count:
                continue
            if i == 0:
                label = "0"
            elif i == 1:
                label = "1"
            else:
                lo = 1 << (i - 1)
                hi = (1 << i) - 1
                label = f"{lo}-{hi}"
            out[label] = count
        return out

    def partition_report(self) -> dict[str, Any]:
        """PDES self-accounting: layout, lane loads, drain runs, channels.

        Deliberately *not* part of the cluster stats registry — parity
        tests pin stats snapshots bit-identical across partition counts,
        and this accounting only exists on the partitioned engine.
        """
        layout = self.layout
        channels = []
        for key in sorted(self._channels):
            channel = self._channels[key]
            channels.append(
                {
                    "src": channel.src_partition,
                    "dst": channel.dst_partition,
                    "lookahead": channel.lookahead,
                    "pushes": channel.pushes,
                    "min_slack": channel.min_slack if channel.pushes else None,
                }
            )
        return {
            "partitions": self.partitions,
            "bounds": None if layout is None else list(layout.bounds),
            "aligned": None if layout is None else layout.aligned,
            "lane_events": {
                "compute": list(self._lane_events[: self.partitions]),
                "fabric": self._lane_events[self._fabric],
                "control": self._lane_events[self._control],
            },
            "drains": self._drains,
            "longest_drain": self._longest_drain,
            "drain_run_hist": self._drain_hist_rendered(),
            "channels": channels,
        }

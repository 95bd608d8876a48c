"""The distributed BFS driver (Algorithms 1 and 2 on the simulated machine).

One :class:`DistributedBFS` instance binds a graph to a simulated machine.
The shared :class:`~repro.core.substrate.Substrate` partitions the graph
1-D across nodes, wires a SimMPI cluster and the per-node pipelines, and
routes records; the driver adds the hub directory, validates the shuffle
plan (SPM feasibility + deadlock-freedom) and the connection budget — then
``run(root)`` executes real level-synchronised message-driven traversals.

Timing model recap: module executions and per-message MPE overheads are
FIFO jobs on the node's servers; messages fly over the fat-tree link model;
per-level control collectives (direction allreduce + hub-bitmap allgather)
are priced analytically and added to the level barrier. The per-root
simulated duration is the span from the first level's start to the last
bookkeeping finish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BFSConfig
from repro.core.hubs import HubDirectory
from repro.core.policy import Direction, TraversalPolicy
from repro.core.runtime import NodeState
from repro.core.shuffle import ShufflePlan
from repro.core.substrate import Substrate
from repro.errors import ConfigError, ReproError, SimulatedCrash
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph500.reference import depths_from_parents
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.codec import encoded_size
from repro.network.collectives import allgather_seconds, allreduce_seconds
from repro.durability.shards import make_checkpoint_store
from repro.resilience.channel import ReliableChannel
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.config import ResilienceConfig


@dataclass(frozen=True)
class LevelTrace:
    """What one BFS level did and cost."""

    level: int
    direction: str
    frontier_vertices: int
    frontier_edges: int
    records_sent: int
    messages: int
    hub_settled: int
    subrounds: int
    start: float
    finish: float

    @property
    def seconds(self) -> float:
        return self.finish - self.start


@dataclass
class BFSResult:
    """Output of one rooted traversal."""

    root: int
    parent: np.ndarray
    levels: int
    sim_seconds: float
    traces: list[LevelTrace] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def depths(self) -> np.ndarray:
        return depths_from_parents(self.parent, self.root)

    def directions(self) -> list[str]:
        return [t.direction for t in self.traces]

    def to_json(self) -> str:
        """Serialise the run's traces and stats (not the parent array) for
        offline analysis — one record per level plus the run summary."""
        return json.dumps(
            {
                "root": self.root,
                "levels": self.levels,
                "sim_seconds": self.sim_seconds,
                "reached": int((self.parent >= 0).sum()),
                "stats": {k: float(v) for k, v in self.stats.items()},
                "traces": [
                    {
                        "level": int(t.level),
                        "direction": t.direction,
                        "frontier_vertices": int(t.frontier_vertices),
                        "frontier_edges": int(t.frontier_edges),
                        "records_sent": int(t.records_sent),
                        "messages": int(t.messages),
                        "hub_settled": int(t.hub_settled),
                        "subrounds": int(t.subrounds),
                        "seconds": float(t.seconds),
                    }
                    for t in self.traces
                ],
            }
        )


class DistributedBFS(Substrate):
    """A reusable BFS kernel over a fixed graph and simulated machine.

    Records are ``fwd`` (parent, child) pairs bound for the child's owner
    and ``bwd`` (query, source) pairs bound for the query's owner; the
    shared :class:`~repro.core.substrate.Substrate` routes both.
    """

    state_type = NodeState

    def __init__(
        self,
        edges: EdgeList,
        nodes: int,
        config: BFSConfig | None = None,
        spec: MachineSpec = TAIHULIGHT,
        nodes_per_super_node: int | None = None,
        resilience: ResilienceConfig | None = None,
        graph: CSRGraph | None = None,
        telemetry=None,
    ):
        super().__init__(edges, nodes, config, spec, nodes_per_super_node, graph)
        self.resilience = resilience or ResilienceConfig()

        # --- feasibility: SPM staging + connection budget ------------------------
        if self.config.use_cpe_clusters:
            dests = (
                max(self.groups.num_groups, self.groups.width)
                if self.config.use_relay
                else nodes
            )
            self.shuffle_plan = ShufflePlan.from_config(self.config, max(1, dests))

        # --- runtime sanitizers (opt-in; repro.sanitizers.runtime) --------------
        # ``spm_sanitizer`` (the substrate's SPM write-conflict detector) is
        # installed after the reliable channel below via ``config.sanitize``,
        # or post-construction by ``Graph500Runner(sanitize=True)``.
        #: Message-mutated-after-send detector on the cluster's send core.
        self.message_sanitizer = None
        if self.config.track_connections:
            for i in range(nodes):
                required = (
                    self.groups.relay_connections(i)
                    if self.config.use_relay
                    else self.groups.direct_connections()
                )
                self.cluster.connections[i].require(required)

        # --- hubs ------------------------------------------------------------------
        self.policy = TraversalPolicy(
            self.config.alpha, self.config.beta, self.config.direction_optimizing
        )
        self.hubs: HubDirectory | None = None
        if self.config.use_hub_prefetch:
            per_node = self.graph.num_vertices / nodes
            cap = max(1, int(per_node * self.config.hub_fraction_cap))
            hubs_per_node = min(
                max(self.config.hub_count_topdown, self.config.hub_count_bottomup),
                cap,
            )
            self.hubs = HubDirectory(self.graph, self.partition, hubs_per_node)
            self._build_hub_adjacency()

        # --- resilience: reliable transport + checkpoint store -------------------
        self.channel: ReliableChannel | None = None
        if self.resilience.reliable_transport:
            self.channel = ReliableChannel(self.cluster, self.resilience)
        if self.config.sanitize:
            # Above the channel's delivery hook, where the runner installs it
            # too: every wire frame, acks included, is checked at delivery.
            from repro.sanitizers.runtime import (
                MessageSanitizer,
                SpmWriteSanitizer,
            )

            self.spm_sanitizer = SpmWriteSanitizer()
            self.message_sanitizer = MessageSanitizer(self.cluster)
        #: Buddy or erasure-coded store per ``resilience.checkpoint_mode``
        #: (built eagerly so an infeasible RS placement fails construction).
        self.checkpoints = make_checkpoint_store(
            self.resilience, self.num_nodes, self.cluster.topology.nodes_per_super_node
        )
        #: rank -> I/O slowdown factor >= 1 for a degraded checkpoint disk;
        #: populated by :class:`repro.sim.faults.DiskFaultInjector` and read
        #: by the checkpoint/scrub/recovery cost models.
        self.disk_slowdowns: dict[int, float] = {}

        # --- construction-time estimate (not part of TEPS) ----------------------
        self.construction_seconds = self._estimate_construction_time()

        # run-scoped scratch
        self._hub_settled = 0
        self._recoveries = 0
        self._checkpoint_seconds = 0.0
        self._recovery_seconds = 0.0
        self._scrub_seconds = 0.0
        #: Per-node transfer size of the last save (what scrub repairs ship).
        self._save_bytes = 0
        #: node id -> its termination-marker peer list (config-fixed).
        self._peer_cache: dict[int, list[int]] = {}

        # --- observability -------------------------------------------------------
        # ``self.telemetry`` is set by ``Telemetry.attach_kernel`` (a disabled
        # telemetry leaves it None, so every hook costs one attribute check).
        if telemetry is not None:
            telemetry.attach_kernel(self)

    # ------------------------------------------------------------------ setup --
    def _build_hub_adjacency(self) -> None:
        """Per node: CSR from hub slot -> local indices of its neighbours."""
        assert self.hubs is not None
        for state in self.states:
            # Local rows' targets that are hubs give (hub slot, local vertex).
            v_local_all, u_global = state.graph.expand(
                np.arange(state.n_local, dtype=np.int64)
            )
            slots = self.hubs.slot_of[u_global]
            keep = slots >= 0
            slots, v_local = slots[keep], v_local_all[keep]
            order = np.argsort(slots, kind="stable")
            slots, v_local = slots[order], v_local[order]
            counts = np.bincount(slots, minlength=self.hubs.num_hubs)
            row_ptr = np.zeros(self.hubs.num_hubs + 1, dtype=np.int64)
            np.cumsum(counts, out=row_ptr[1:])
            state.hub_adjacency = CSRGraph(row_ptr, v_local, self.hubs.num_hubs)

    def _estimate_construction_time(self) -> float:
        """Documented rough model of benchmark step 3 (not in the TEPS clock):
        ship each node its edge partition, then two local DMA passes to sort
        and pack the CSR."""
        t = self.spec.taihulight
        per_node_bytes = 2 * self.edges.num_edges / self.num_nodes * 16
        ship = per_node_bytes / t.nic_effective_bandwidth
        build = 2 * per_node_bytes / self.spec.core_group.cluster_dma_bandwidth
        return ship + build

    # ----------------------------------------------------------- diagnostics --
    def utilization(self) -> dict[str, float]:
        """Busy-time fraction per execution unit since construction.

        Keys are server names (``node3.C0``, ``node0.M1``, ...); values are
        busy seconds divided by total simulated time. The paper's design
        goal shows up here: in CPE mode the communication MPEs (M0/M1) and
        the module clusters carry the load; in MPE mode the aux MPEs do.
        """
        horizon = max(self._t_max, 1e-12)
        out: dict[str, float] = {}
        for state in self.states:
            for name, busy in state.pipeline.busy_times().items():
                out[name] = busy / horizon
        return out

    def _all_servers(self):
        for state in self.states:
            pl = state.pipeline
            yield from (pl.mpe_send, pl.mpe_recv, *pl.mpe_aux, *pl.clusters)

    def enable_tracing(self) -> None:
        """Record busy intervals (servers and links) for trace export."""
        from repro.telemetry.export import enable_tracing

        enable_tracing(self._all_servers())
        enable_tracing(self.cluster.network.all_links())

    def export_trace(self) -> str:
        """Chrome-trace JSON of all recorded busy intervals."""
        from repro.telemetry.export import collect_intervals, to_chrome_trace

        intervals = collect_intervals(self._all_servers())
        intervals.update(collect_intervals(self.cluster.network.all_links()))
        return to_chrome_trace(intervals)

    def utilization_by_unit_kind(self) -> dict[str, float]:
        """Mean utilisation aggregated over nodes: M0/M1/M2/M3/C0..C3."""
        per_server = self.utilization()
        sums: dict[str, list[float]] = {}
        for name, u in per_server.items():
            kind = name.split(".")[-1]
            sums.setdefault(kind, []).append(u)
        return {k: float(np.mean(v)) for k, v in sorted(sums.items())}

    # ------------------------------------------------------------ message I/O --
    def _apply(self, state: NodeState, execution, kind, u, v) -> None:
        if kind == "fwd":
            state.apply_forward(u, v)
        else:
            mu, mv = state.match_backward(u, v)
            if len(mu):
                self.route(state, execution, "fwd", mu, mv, self.owner[mv])

    def _post(self, src, dests, tag, nbytes, payloads=None, at_times=None) -> None:
        """All driver traffic funnels through here: the reliable channel
        when enabled, the raw cluster otherwise. ``cluster.send_batch`` is
        looked up dynamically so fault injectors installed after
        construction stay on the path."""
        sender = self.channel if self.channel is not None else self.cluster
        sender.send_batch(src, dests, tag, nbytes, payloads=payloads, at_times=at_times)

    def _message_bytes(self, n_records: int) -> int:
        payload = n_records * self.config.record_bytes / self.config.compression_ratio
        return self.config.header_bytes + int(payload)

    def _bucket_bytes(self, u, v, starts, stops) -> list[int]:
        cfg = self.config
        if cfg.use_codec:
            return [
                cfg.header_bytes + encoded_size(u[a:b], v[a:b])
                for a, b in zip(starts, stops)
            ]
        # The same ops as _message_bytes per bucket: exact int product, one
        # float division, truncation.
        hb, rb, ratio = cfg.header_bytes, cfg.record_bytes, cfg.compression_ratio
        return [hb + int((b - a) * rb / ratio) for a, b in zip(starts, stops)]

    def _send_termination_markers(self, state: NodeState, t_ready: float) -> None:
        """Per-level end-of-transmission indicators (Section 3.3: "at least
        one message transfer... for each pair of nodes"). Relay mode only
        touches column + group peers — the N+M-2 connection set."""
        if self.num_nodes == 1:
            return
        peers = self._peer_cache.get(state.node_id)
        if peers is None:
            if self.config.use_relay:
                # Deterministic union: concatenate + dict.fromkeys dedup
                # keeps every step insertion-ordered (no hash-order hop).
                peers = sorted(
                    dict.fromkeys(
                        self.groups.column_peers(state.node_id)
                        + self.groups.row_peers(state.node_id)
                    )
                )
            else:
                peers = [p for p in range(self.num_nodes) if p != state.node_id]
            self._peer_cache[state.node_id] = peers
        nbytes = self.config.header_bytes
        if not peers:
            return
        send_ats = state.pipeline.submit_send_many([t_ready] * len(peers))
        self._mark(send_ats[-1])
        self._post(
            state.node_id, peers, "eol", [nbytes] * len(peers), None, send_ats
        )

    # -------------------------------------------------------------- collectives --
    def _allreduce_time(self) -> float:
        return allreduce_seconds(self.num_nodes, self.spec.taihulight)

    def _hub_allgather_time(self, empty: bool) -> float:
        if self.hubs is None:
            return 0.0
        return allgather_seconds(
            self.num_nodes, self.hubs.allgather_bytes(empty), self.spec.taihulight
        )

    # ------------------------------------------------------------------ levels --
    def _hub_settle_pass(self, t0: float) -> None:
        """Settle vertices adjacent to frontier hubs, locally on every node."""
        assert self.hubs is not None
        slots = self.hubs.frontier.indices()
        if len(slots) == 0:
            return
        for state in self.states:
            candidates = state.hub_candidates(slots)
            if candidates == 0:
                continue
            nbytes = candidates * self.config.record_bytes
            execution = state.pipeline.submit_module(t0, "hub_settle", nbytes)
            self._mark(execution.finish)
            self._hub_settled += state.settle_from_hubs(slots, self.hubs.hub_ids)

    def _run_topdown_level(self, t0: float) -> None:
        for state in self.states:
            if len(state.curr) == 0:
                self._send_termination_markers(state, t0)
                continue
            frontier = state.curr
            if self.hubs is not None:
                # Frontier hubs are handled at the destination side by the
                # hub-settle pass; drop their edges at the source.
                frontier_global = state.to_global(frontier)
                frontier = frontier[~self.hubs.is_hub(frontier_global)]
            v_local, targets = state.graph.expand(frontier)
            sources = state.to_global(v_local)
            if self.hubs is not None and len(targets):
                keep = ~self.hubs.hub_visited(targets)
                sources, targets = sources[keep], targets[keep]
            nbytes = max(len(targets), 1) * self.config.record_bytes
            execution = state.pipeline.submit_module(t0, "forward_generator", nbytes)
            self._mark(execution.finish)
            if len(targets):
                self.route(
                    state, execution, "fwd", sources, targets, self.owner[targets]
                )
            self._send_termination_markers(state, execution.finish)
        self.engine.run_until_quiescent()

    def _run_bottomup_level(self, t0: float) -> int:
        """Bottom-up with chunked neighbour queries; returns sub-round count.

        Each sub-round every still-unvisited vertex queries its next
        ``bottomup_chunk`` untried neighbours (early-termination emulation of
        the paper's streaming Backward Generator).
        """
        subrounds = 0
        t_start = t0
        while subrounds < self.config.bottomup_max_subrounds:
            subrounds += 1
            any_sent = False
            for state in self.states:
                u_targets, v_sources = state.bu_expand(self.config.bottomup_chunk)
                if self.hubs is not None and len(u_targets):
                    keep = ~self.hubs.is_hub(u_targets)
                    u_targets, v_sources = u_targets[keep], v_sources[keep]
                if len(u_targets) == 0:
                    if subrounds == 1:
                        self._send_termination_markers(state, t_start)
                    continue
                any_sent = True
                nbytes = len(u_targets) * self.config.record_bytes
                execution = state.pipeline.submit_module(
                    t_start, "backward_generator", nbytes
                )
                self._mark(execution.finish)
                self.route(
                    state, execution, "bwd", u_targets, v_sources,
                    self.owner[u_targets],
                )
                if subrounds == 1:
                    self._send_termination_markers(state, execution.finish)
            self.engine.run_until_quiescent()
            # Ack/retransmit deliveries may outrun the marked compute times;
            # fold the drained clock in before scheduling the next sub-round.
            self._mark(self.engine.now)
            if not any_sent:
                break
            # Quick settled-check between sub-rounds: a small allreduce.
            t_start = self._t_max + self._allreduce_time()
            self._mark(t_start)
            if self.config.bottomup_chunk == 0:
                break
            if not any(len(s.bu_remaining()) for s in self.states):
                break
        return subrounds

    # ------------------------------------------------------ checkpoint/recovery --
    def _checkpoint_transfer_seconds(self, nbytes: int) -> float:
        """Shipping one checkpoint transfer (a buddy copy or a shard) to
        another node over the NIC."""
        t = self.spec.taihulight
        return nbytes / t.nic_effective_bandwidth + t.message_overhead

    def _disk_factor(self) -> float:
        """Checkpoint I/O runs in parallel across nodes, so the slowest
        (possibly degraded) disk gates every barrier-synchronous pass."""
        return max([1.0, *self.disk_slowdowns.values()])

    def _take_checkpoint(self, level: int) -> None:
        """Snapshot the level barrier into the store and charge its cost:
        every node makes the store's writes (one buddy copy, or k+m shards
        of 1/k snapshot size) in parallel, plus a barrier."""
        store = self.checkpoints
        assert store is not None
        traffic_before = store.bytes_written
        hubs = self.hubs
        io = store.save(
            Checkpoint(
                level=level,
                snapshots=tuple(s.snapshot() for s in self.states),
                hub_frontier=hubs.frontier.copy() if hubs is not None else None,
                hub_visited=hubs.visited.copy() if hubs is not None else None,
                policy_state=self.policy.state,
            )
        )
        self._save_bytes = io.nbytes
        transfer = self._checkpoint_transfer_seconds(io.nbytes)
        cost = io.transfers * transfer * self._disk_factor() + self._allreduce_time()
        self._checkpoint_seconds += cost
        self._mark(self._t_max + cost)
        self.cluster.stats.counter("checkpoints").add()
        self.cluster.stats.counter("checkpoint_bytes").add(
            store.bytes_written - traffic_before
        )

    def _run_scrub(self) -> None:
        """Background shard-checksum scrub at the level barrier (RS only):
        read every shard, verify its CRC, decode + re-place any that are
        corrupt or missing while >= k healthy shards survive per group."""
        store = self.checkpoints
        assert store is not None
        if not store.has_checkpoint:
            return
        dead = self.cluster.dead_ranks()
        alive = [rank for rank in range(self.num_nodes) if rank not in dead]
        alive_bytes = [store.holder_bytes(rank) for rank in alive]
        checked, repaired = store.scrub(dead=dead)
        if checked == 0 and repaired == 0:
            return
        t = self.spec.taihulight
        # Every holder streams its resident shards in parallel; repairs
        # add one shard transfer each plus the agreement barrier.
        cost = (
            max(alive_bytes, default=0) / t.nic_effective_bandwidth
            * self._disk_factor()
            + repaired * self._checkpoint_transfer_seconds(self._save_bytes)
            + self._allreduce_time()
        )
        self._scrub_seconds += cost
        self._mark(self._t_max + cost)
        self.cluster.stats.counter("scrub_passes").add()
        if repaired:
            # Every scrub repair is one rebuilt shard.
            self.cluster.stats.counter("scrub_repairs").add(repaired)
            self.cluster.stats.counter("shards_rebuilt").add(repaired)

    def _recover_or_raise(self, dead: frozenset[int]) -> int:
        """Restore the last checkpoint after a crash; returns its level.

        The crashed ranks are revived (a replacement node adopting the
        rank, with an empty checkpoint disk), then *every* node rewinds to
        the checkpointed barrier — the only globally consistent state —
        and the driver re-runs the lost levels. The store applies its own
        crash rules: buddy loses a snapshot when a node and its buddy both
        crashed; RS decodes around the crashed ranks' shards and heals
        them onto live holders. Raises :class:`SimulatedCrash` when there
        is nothing to recover from or the checkpoint did not survive.
        """
        store = self.checkpoints
        if store is None or not store.has_checkpoint:
            raise SimulatedCrash(
                f"node(s) {sorted(dead)} crashed with no checkpoint to "
                "recover from",
                node=min(dead),
            )
        self._recoveries += 1
        if self._recoveries > self.resilience.max_recoveries:
            raise SimulatedCrash(
                f"recovery limit ({self.resilience.max_recoveries}) exceeded",
                node=min(dead),
            )
        for rank in sorted(dead):
            self.cluster.revive(rank, self._make_handler(self.states[rank]))
        try:
            ckpt, io = store.recover(dead)
        except ReproError as exc:
            raise SimulatedCrash(str(exc), node=min(dead)) from exc
        # Cost: detecting the failure (a timed-out barrier), every node
        # reading its snapshot back in parallel, the heal traffic, and two
        # barriers to agree on the rewind.
        transfer = self._checkpoint_transfer_seconds(io.nbytes)
        cost = (
            self.resilience.ack_timeout
            + io.transfers * transfer * self._disk_factor()
            + io.rebuilt * transfer
            + 2 * self._allreduce_time()
        )
        if io.rebuilt:
            self.cluster.stats.counter("shards_rebuilt").add(io.rebuilt)
        for state, snap in zip(self.states, ckpt.snapshots):
            state.restore(snap)
        if self.hubs is not None:
            self.hubs.frontier = ckpt.hub_frontier.copy()
            self.hubs.visited = ckpt.hub_visited.copy()
        self.policy.restore(ckpt.policy_state)
        self._recovery_seconds += cost
        self._mark(self._t_max + cost)
        self.cluster.stats.counter("recoveries").add()
        return ckpt.level

    # --------------------------------------------------------------------- run --
    def run(self, root: int) -> BFSResult:
        """Traverse from ``root``; returns the validated-shape result."""
        n = self.graph.num_vertices
        if not 0 <= root < n:
            raise ConfigError(f"root {root} out of range")
        # Ranks that died during a previous root come back as replacement
        # nodes; their state is rebuilt by the reset below.
        for rank in sorted(self.cluster.dead_ranks()):
            self.cluster.revive(rank, self._make_handler(self.states[rank]))
        if self.channel is not None:
            self.channel.reset_run()
        for state in self.states:
            state.reset()
        if self.hubs is not None:
            self.hubs.reset()
        self.policy.reset()
        owner_of_root = int(self.owner[root])
        self.states[owner_of_root].seed_root(root)

        msgs_before = self.cluster.stats.value("messages")
        bytes_before = self.cluster.stats.value("bytes")
        resilience_keys = (
            "retransmits", "acks", "gave_up", "dup_suppressed",
            "corrupt_detected", "dead_letters",
        )
        resilience_before = {
            k: self.cluster.stats.value(k) for k in resilience_keys
        }
        # Start after every leftover job from a previous root has drained so
        # per-root durations never overlap.
        t_run_start = max(self.engine.now, self._t_max)
        tel = self.telemetry
        root_span = -1
        if tel is not None:
            root_span = tel.spans.open(
                f"root {root}", "root", parent=tel.current, root=root
            )
            tel.push(root_span)
        self._t_max = t_run_start
        self.records_sent = 0
        self._hub_settled = 0
        self._recoveries = 0
        self._checkpoint_seconds = 0.0
        self._recovery_seconds = 0.0
        self._scrub_seconds = 0.0
        traces: list[LevelTrace] = []
        if self.resilience.checkpoint_interval > 0:
            # Fresh store per root; the level-0 checkpoint makes any crash
            # recoverable without replaying from an earlier root's state.
            self.checkpoints = make_checkpoint_store(
                self.resilience,
                self.num_nodes,
                self.cluster.topology.nodes_per_super_node,
            )
            self._take_checkpoint(0)

        level = 0
        while level < self.config.max_levels:
            level += 1
            # Global statistics for the policy (charged as an allreduce).
            stats = [s.frontier_stats() for s in self.states]
            n_f = sum(s[0] for s in stats)
            m_f = sum(s[1] for s in stats)
            m_u = sum(s[2] for s in stats)
            direction = self.policy.decide(n_f, m_f, m_u, n)

            hub_count = 0
            if self.hubs is not None:
                frontier_global = np.concatenate(
                    [s.to_global(s.curr) for s in self.states]
                ) if n_f else np.empty(0, dtype=np.int64)
                hub_count = self.hubs.update_frontier(frontier_global)

            control = self._allreduce_time() + self._hub_allgather_time(
                empty=hub_count == 0
            )
            t0 = self._t_max + control
            self._mark(t0)
            level_span = -1
            if tel is not None:
                level_span = tel.spans.open(
                    f"level {level}",
                    "level",
                    parent=tel.current,
                    level=level,
                    direction=direction.value,
                    frontier=n_f,
                )
                tel.push(level_span)
            records_before_level = self.records_sent
            hub_before = self._hub_settled
            msgs_before_level = self.cluster.stats.value("messages")

            if self.hubs is not None:
                self._hub_settle_pass(t0)
            subrounds = 1
            if direction is Direction.TOP_DOWN:
                self._run_topdown_level(t0)
            else:
                subrounds = self._run_bottomup_level(t0)

            traces.append(
                LevelTrace(
                    level=level,
                    direction=direction.value,
                    frontier_vertices=n_f,
                    frontier_edges=m_f,
                    records_sent=self.records_sent - records_before_level,
                    messages=int(
                        self.cluster.stats.value("messages") - msgs_before_level
                    ),
                    hub_settled=self._hub_settled - hub_before,
                    subrounds=subrounds,
                    start=t0,
                    finish=self._t_max,
                )
            )
            if tel is not None:
                # Closed here so the recovery ``continue`` below still
                # balances the span stack.
                tel.spans.close(level_span, t0, self._t_max)
                tel.pop()

            # The barrier is also the failure-detection point: a crash event
            # may have fired (and advanced the engine clock) mid-drain.
            self._mark(self.engine.now)
            dead = self.cluster.dead_ranks()
            if dead:
                # The dead ranks missed records this level (dead letters),
                # so their partial state — and any "frontier empty" signal —
                # is untrustworthy. Rewind everyone to the last checkpoint
                # and re-run the lost levels.
                level = self._recover_or_raise(dead)
                continue

            # Level barrier: promote next -> curr; terminate on empty global
            # frontier (one more allreduce, folded into the next level's
            # control charge or the final mark).
            new_frontier = sum(s.advance_level() for s in self.states)
            if new_frontier == 0:
                self._mark(self._t_max + self._allreduce_time())
                break
            # Scrub before the new save: the scrubber validates what the
            # disks held *through* the level (a fresh save would mask any
            # latent corruption or loss the level's faults caused).
            if (
                self.resilience.scrub_interval > 0
                and level % self.resilience.scrub_interval == 0
            ):
                self._run_scrub()
            if (
                self.checkpoints is not None
                and level % self.resilience.checkpoint_interval == 0
            ):
                self._take_checkpoint(level)
        else:
            raise ReproError(f"BFS exceeded {self.config.max_levels} levels")

        parent = np.concatenate([s.parent for s in self.states])
        sim_seconds = self._t_max - t_run_start
        stats = {
            "records_sent": float(self.records_sent),
            "messages": self.cluster.stats.value("messages") - msgs_before,
            "bytes": self.cluster.stats.value("bytes") - bytes_before,
            "hub_settled": float(self._hub_settled),
            "td_levels": float(
                sum(1 for t in traces if t.direction == "topdown")
            ),
            "bu_levels": float(
                sum(1 for t in traces if t.direction == "bottomup")
            ),
        }
        store = self.checkpoints
        if self.channel is not None or store is not None:
            stats.update(
                {
                    k: self.cluster.stats.value(k) - resilience_before[k]
                    for k in resilience_keys
                }
            )
            stats["recoveries"] = float(self._recoveries)
            stats["checkpoints"] = float(store.taken if store is not None else 0)
            stats["checkpoint_seconds"] = self._checkpoint_seconds
            stats["recovery_seconds"] = self._recovery_seconds
        if store is not None:
            # Durability accounting (the store is fresh per root, so these
            # are per-root figures): bytes held, bytes moved, fault tallies.
            stats.update(store.durability_stats(self._scrub_seconds))
        result = BFSResult(
            root=root,
            parent=parent,
            # After a recovery, traces also hold the replayed levels; the
            # traversal's own depth is the final pass's level count.
            levels=level,
            sim_seconds=max(sim_seconds, 1e-12),
            traces=traces,
            stats=stats,
        )
        if tel is not None:
            tel.spans.close(
                root_span,
                t_run_start,
                self._t_max,
                sim_seconds=result.sim_seconds,
                levels=level,
            )
            tel.pop()
        return result

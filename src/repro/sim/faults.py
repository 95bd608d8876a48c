"""Deterministic fault injection for SimMPI messages and nodes.

Wraps a cluster's ``send`` with a fault plan that can drop, duplicate,
delay, reorder or corrupt selected messages, and (separately) crash or
slow down whole nodes. Used to demonstrate properties of the BFS runtime
the paper's design implies but never states:

- **duplicate tolerance** — handlers are idempotent (the ``Prt(v) = -1``
  guard), so duplicated deliveries cannot corrupt a traversal;
- **loss is caught** — a dropped record message produces a parent map that
  fails Graph500 validation (there is no silent wrong answer);
- **loss is survivable** — layered under
  :class:`repro.resilience.channel.ReliableChannel`, dropped or corrupted
  messages are retransmitted and the traversal still validates.

Two selection styles exist: by message ordinal (:class:`FaultPlan`, exact
replay of a scripted scenario) and by seeded probability
(:class:`RandomFaultPlan`, via :func:`repro.sim.rng.substream`, so rate-based
experiments replay exactly too). Node-level faults (:class:`NodeFaultPlan`)
model fail-stop crashes at a simulated time and stragglers whose traffic is
slowed by a factor.

Layering: install fault injectors directly on the cluster (they wrap
``cluster.send``), and install the reliable channel *after* them — faults
then happen "on the wire", below the ack/retransmit protocol, so every
retransmission is independently at risk.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.network.simmpi import Message, SimCluster
from repro.sim.rng import substream


def dropped_message(
    src: int, dst: int, tag: str, nbytes: int, payload: Any, send_time: float
) -> Message:
    """Sentinel for a message the fault layer swallowed.

    ``arrival_time`` is ``+inf`` — "never delivered" — so callers that read
    ``.arrival_time`` off the returned message see a well-typed value
    instead of crashing on ``None``.
    """
    return Message(src, dst, tag, nbytes, payload, send_time, math.inf)


def corrupt_payload(payload: Any, rng: np.random.Generator) -> tuple[Any, bool]:
    """Return a corrupted copy of ``payload`` and whether anything changed.

    Corruption swaps two entries of the first array in a record payload —
    a bit-flip model that stays *closed under ownership*: the records still
    route to valid handlers (no simulated segfaults), but the (u, v)
    pairing is wrong, which checksums detect and Graph500 validation
    catches. Payloads that cannot be corrupted safely (markers, scalars,
    single-record messages) are returned unchanged.
    """
    if dataclasses.is_dataclass(payload) and hasattr(payload, "payload"):
        # A reliable-transport envelope: corrupt the inner payload but keep
        # the frame (seq + checksum) intact, so the receiver can detect it.
        inner, changed = corrupt_payload(payload.payload, rng)
        if not changed:
            return payload, False
        return dataclasses.replace(payload, payload=inner), True
    if isinstance(payload, tuple) and payload and isinstance(payload[0], np.ndarray):
        u = payload[0]
        if len(u) >= 2:
            i, j = (int(x) for x in rng.choice(len(u), size=2, replace=False))
            if u[i] == u[j]:
                return payload, False
            u = u.copy()
            u[i], u[j] = u[j], u[i]
            return (u, *payload[1:]), True
    return payload, False


class SendInterceptor:
    """Base class for anything that wraps a cluster's ``send`` path.

    Subclasses implement ``_send`` with the same signature as
    :meth:`repro.network.simmpi.SimCluster.send`. Installation happens at
    construction; ``uninstall`` is idempotent and the instance doubles as a
    context manager (uninstalls on exit).
    """

    def __init__(self, cluster: SimCluster) -> None:
        self.cluster = cluster
        self._original_send = cluster.send
        cluster.send = self._send  # type: ignore[method-assign]

    def uninstall(self) -> None:
        if self._original_send is not None:
            self.cluster.send = self._original_send  # type: ignore[method-assign]
            self._original_send = None

    @property
    def installed(self) -> bool:
        return self._original_send is not None

    def __enter__(self) -> "SendInterceptor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _send(self, src: int, dst: int, tag: str, nbytes: int, payload: Any = None, at_time: float | None = None) -> Message:
        raise NotImplementedError  # pragma: no cover


@dataclass
class FaultPlan:
    """Which message ordinals (per matching tag) get which fault."""

    drop: set[int] = field(default_factory=set)
    duplicate: set[int] = field(default_factory=set)
    delay: dict[int, float] = field(default_factory=dict)
    #: Only messages whose tag starts with this prefix count and are
    #: eligible ("" = everything). Termination markers are usually excluded
    #: by filtering on data tags.
    tag_prefix: str = ""

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.delay.values()):
            raise ConfigError("delays must be non-negative")


class FaultInjector(SendInterceptor):
    """Installs an ordinal-based fault plan onto a cluster's send path."""

    def __init__(self, cluster: SimCluster, plan: FaultPlan) -> None:
        self.plan = plan
        self.matched = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        super().__init__(cluster)

    def _send(self, src: int, dst: int, tag: str, nbytes: int, payload: Any = None, at_time: float | None = None) -> Message:
        if not tag.startswith(self.plan.tag_prefix):
            return self._original_send(src, dst, tag, nbytes, payload, at_time)
        ordinal = self.matched
        self.matched += 1
        if ordinal in self.plan.drop:
            self.dropped += 1
            base = at_time if at_time is not None else self.cluster.engine.now
            return dropped_message(src, dst, tag, nbytes, payload, base)
        if ordinal in self.plan.delay:
            self.delayed += 1
            base = at_time if at_time is not None else self.cluster.engine.now
            at_time = base + self.plan.delay[ordinal]
        msg = self._original_send(src, dst, tag, nbytes, payload, at_time)
        if ordinal in self.plan.duplicate:
            self.duplicated += 1
            self._original_send(src, dst, tag, nbytes, payload, at_time)
        return msg


@dataclass
class RandomFaultPlan:
    """Seeded per-message fault probabilities (replayable noise).

    Each matching message independently draws whether it is dropped,
    duplicated, delayed by ``delay_seconds``, reordered (delayed by a
    uniform slice of ``reorder_window``, which shuffles it past later
    traffic) or payload-corrupted. All draws come from one
    :func:`~repro.sim.rng.substream` of ``seed``, so the same seed over the
    same workload replays the exact same fault sequence.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 1e-5
    reorder_rate: float = 0.0
    reorder_window: float = 1e-5
    corrupt_rate: float = 0.0
    tag_prefix: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate",
                     "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_seconds < 0 or self.reorder_window < 0:
            raise ConfigError("fault delays must be non-negative")

    @property
    def any_faults(self) -> bool:
        return any(
            getattr(self, name) > 0
            for name in ("drop_rate", "duplicate_rate", "delay_rate",
                         "reorder_rate", "corrupt_rate")
        )


class RandomFaultInjector(SendInterceptor):
    """Installs seeded probabilistic faults onto a cluster's send path.

    Per-fault tallies are kept on the instance *and* pushed into the
    cluster's :class:`~repro.sim.stats.StatsRegistry` (``fault_drops``,
    ``fault_duplicates``, ``fault_delays``, ``fault_reorders``,
    ``fault_corruptions``) so reports can surface them.
    """

    def __init__(self, cluster: SimCluster, plan: RandomFaultPlan) -> None:
        self.plan = plan
        self.rng = substream(plan.seed, "faults", "network")
        self.matched = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.corrupted = 0
        super().__init__(cluster)

    def _send(self, src: int, dst: int, tag: str, nbytes: int, payload: Any = None, at_time: float | None = None) -> Message:
        if not tag.startswith(self.plan.tag_prefix):
            return self._original_send(src, dst, tag, nbytes, payload, at_time)
        self.matched += 1
        plan, stats = self.plan, self.cluster.stats
        # One fixed-width block of draws per message keeps the stream
        # aligned no matter which fault classes are enabled.
        u = self.rng.random(6)
        if u[0] < plan.drop_rate:
            self.dropped += 1
            stats.counter("fault_drops").add()
            base = at_time if at_time is not None else self.cluster.engine.now
            return dropped_message(src, dst, tag, nbytes, payload, base)
        if u[1] < plan.delay_rate:
            self.delayed += 1
            stats.counter("fault_delays").add()
            base = at_time if at_time is not None else self.cluster.engine.now
            at_time = base + plan.delay_seconds
        if u[2] < plan.reorder_rate:
            self.reordered += 1
            stats.counter("fault_reorders").add()
            base = at_time if at_time is not None else self.cluster.engine.now
            at_time = base + float(u[3]) * plan.reorder_window
        if u[4] < plan.corrupt_rate:
            payload, changed = corrupt_payload(payload, self.rng)
            if changed:
                self.corrupted += 1
                stats.counter("fault_corruptions").add()
        msg = self._original_send(src, dst, tag, nbytes, payload, at_time)
        if u[5] < plan.duplicate_rate:
            self.duplicated += 1
            stats.counter("fault_duplicates").add()
            self._original_send(src, dst, tag, nbytes, payload, at_time)
        return msg


@dataclass
class NodeFaultPlan:
    """Node-level faults: fail-stop crashes and stragglers.

    ``crash_at`` maps rank -> absolute simulated time of a fail-stop crash
    (the rank is :meth:`~repro.network.simmpi.SimCluster.deregister`-ed; its
    traffic becomes dead letters). ``stragglers`` maps rank -> slowdown
    factor >= 1 applied to every message that rank sends or receives,
    modelling a degraded NIC/MPE.
    """

    crash_at: dict[int, float] = field(default_factory=dict)
    stragglers: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.crash_at.values()):
            raise ConfigError("crash times must be non-negative")
        if any(f < 1.0 for f in self.stragglers.values()):
            raise ConfigError("straggler slowdown factors must be >= 1")


class NodeFaultInjector(SendInterceptor):
    """Schedules node crashes on the engine and slows straggler traffic."""

    def __init__(self, cluster: SimCluster, plan: NodeFaultPlan) -> None:
        self.plan = plan
        self.crashed: list[int] = []
        self.straggled = 0
        engine = cluster.engine
        for rank in sorted(plan.crash_at):
            cluster.topology.check_node(rank)
            when = max(plan.crash_at[rank], engine.now)
            engine.call_at(when, self._crash, cluster, rank)
        for rank in plan.stragglers:
            cluster.topology.check_node(rank)
        if plan.stragglers:
            super().__init__(cluster)
        else:
            # Crash-only plans leave ``send`` untouched: crashes are engine
            # events, not send-path perturbations. Wrapping ``send`` would
            # split every ``send_batch`` into per-message calls through the
            # wrapper for the whole run, for no fault the wrapper applies;
            # dead letters are counted in the one send core either way.
            self.cluster = cluster
            self._original_send = None

    def _crash(self, cluster: SimCluster, rank: int) -> None:
        if cluster.is_alive(rank):
            cluster.deregister(rank)
            cluster.stats.counter("node_crashes").add()
            self.crashed.append(rank)

    def _straggle_seconds(self, src: int, dst: int, nbytes: int) -> float:
        t = self.cluster.spec.taihulight
        extra = 0.0
        for rank in (src, dst):
            factor = self.plan.stragglers.get(rank)
            if factor is not None:
                extra += (factor - 1.0) * (
                    nbytes / t.nic_effective_bandwidth + t.message_overhead
                )
        return extra

    def _send(self, src: int, dst: int, tag: str, nbytes: int, payload: Any = None, at_time: float | None = None) -> Message:
        if self.plan.stragglers:
            extra = self._straggle_seconds(src, dst, nbytes)
            if extra > 0.0:
                self.straggled += 1
                base = at_time if at_time is not None else self.cluster.engine.now
                at_time = base + extra
        return self._original_send(src, dst, tag, nbytes, payload, at_time)


@dataclass
class DiskFaultPlan:
    """Checkpoint-disk faults: shard loss, latent corruption, slow disks.

    ``lose_at`` maps rank -> absolute simulated time its checkpoint disk
    dies (every shard it holds is gone; the node itself keeps running).
    ``corrupt_at`` maps rank -> time one resident shard gets a byte
    flipped (which the per-shard CRC detects at the next scrub or
    restore). ``degrade`` maps rank -> I/O slowdown factor >= 1 applied
    to every checkpoint/scrub/recovery pass — the fat sibling of the
    network straggler, after kelp's ``check_for_failing_disk`` model.
    """

    lose_at: dict[int, float] = field(default_factory=dict)
    corrupt_at: dict[int, float] = field(default_factory=dict)
    degrade: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.lose_at.values()):
            raise ConfigError("disk loss times must be non-negative")
        if any(t < 0 for t in self.corrupt_at.values()):
            raise ConfigError("disk corruption times must be non-negative")
        if any(f < 1.0 for f in self.degrade.values()):
            raise ConfigError("disk slowdown factors must be >= 1")

    @property
    def any_faults(self) -> bool:
        return bool(self.lose_at or self.corrupt_at or self.degrade)


class DiskFaultInjector:
    """Schedules disk faults against a BFS kernel's checkpoint store.

    Unlike the send-path injectors this wraps nothing: losses and
    corruptions are engine events that mutate whatever checkpoint store
    the kernel holds when they fire (buddy stores lose their single copy;
    sharded stores lose/corrupt individual shards), and ``degrade``
    factors land in the kernel's ``disk_slowdowns`` map, which its cost
    model reads. ``kernel`` is duck-typed: it needs ``cluster``,
    ``checkpoints`` and ``disk_slowdowns`` attributes (the
    :class:`repro.core.bfs.DistributedBFS` surface).
    """

    def __init__(self, kernel: Any, plan: DiskFaultPlan, seed: int = 0) -> None:
        self.kernel = kernel
        self.plan = plan
        self.rng = substream(seed, "faults", "disk")
        self.disks_lost = 0
        self.shards_dropped = 0
        self.corrupted = 0
        cluster: SimCluster = kernel.cluster
        engine = cluster.engine
        for rank in sorted(plan.lose_at):
            cluster.topology.check_node(rank)
            engine.call_at(max(plan.lose_at[rank], engine.now), self._lose, rank)
        for rank in sorted(plan.corrupt_at):
            cluster.topology.check_node(rank)
            engine.call_at(
                max(plan.corrupt_at[rank], engine.now), self._corrupt, rank
            )
        for rank in sorted(plan.degrade):
            cluster.topology.check_node(rank)
        kernel.disk_slowdowns.update(plan.degrade)

    def _lose(self, rank: int) -> None:
        store = self.kernel.checkpoints
        if store is None:
            return
        self.disks_lost += 1
        self.kernel.cluster.stats.counter("disk_losses").add()
        dropped = store.drop_holder(rank)
        if dropped:
            self.shards_dropped += dropped

    def _corrupt(self, rank: int) -> None:
        store = self.kernel.checkpoints
        if store is None:
            return
        if store.corrupt_shard(rank, self.rng):
            self.corrupted += 1
            self.kernel.cluster.stats.counter("disk_corruptions").add()

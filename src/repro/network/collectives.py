"""Collective operations over SimMPI: broadcast, reduce, allreduce, allgather.

The drivers charge their control collectives analytically (zero events)
with :func:`allreduce_seconds` and :func:`allgather_seconds`; this module
also provides the *executed* equivalents —
real message patterns over the simulated fabric — for substrate testing
and for algorithms that want collective semantics (binomial trees for
broadcast/reduce, recursive doubling for allreduce, ring for allgather).

Each collective runs to quiescence on the engine and returns both the
functional results and the completion time, so tests can check the
analytic charges against executed patterns.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.machine.specs import TaihuLightSpec
from repro.network.simmpi import Message, SimCluster


def allreduce_seconds(num_nodes: int, spec: TaihuLightSpec) -> float:
    """Latency of a small tree allreduce across ``num_nodes``: one
    inter-super-node hop plus message overhead per round."""
    if num_nodes == 1:
        return 0.0
    rounds = int(np.ceil(np.log2(num_nodes)))
    return rounds * (spec.inter_super_node_latency + spec.message_overhead)


def allgather_seconds(
    num_nodes: int, per_node_bytes: int, spec: TaihuLightSpec
) -> float:
    """An allgather of ``per_node_bytes`` from every node: the allreduce
    rounds plus the whole gathered volume over one NIC."""
    if num_nodes == 1:
        return 0.0
    volume = per_node_bytes * num_nodes / spec.nic_effective_bandwidth
    return allreduce_seconds(num_nodes, spec) + volume


class Collectives:
    """Stateful collective executor bound to one cluster.

    One collective may run at a time (like a communicator); handlers are
    installed at construction, so build this *instead of* registering your
    own handlers on the same ranks.
    """

    def __init__(self, cluster: SimCluster, item_bytes: int = 8):
        self.cluster = cluster
        self.item_bytes = item_bytes
        self._values: list[Any] = [None] * cluster.num_nodes
        self._pending: dict[int, list[Any]] = {}
        self._op: Callable[[Any, Any], Any] | None = None
        for rank in range(cluster.num_nodes):
            cluster.register(rank, self._on_message)

    @property
    def P(self) -> int:
        return self.cluster.num_nodes

    # ------------------------------------------------------------- plumbing --
    def _on_message(self, msg: Message) -> None:
        kind, payload = msg.payload
        if kind == "set":
            self._values[msg.dst] = payload
        elif kind == "combine":
            assert self._op is not None
            self._values[msg.dst] = self._op(self._values[msg.dst], payload)
        elif kind == "append":
            self._pending.setdefault(msg.dst, []).append(payload)
        else:  # pragma: no cover - defensive
            raise ConfigError(f"unknown collective message {kind!r}")

    def _send(self, src: int, dst: int, kind: str, payload: Any, items: int) -> None:
        self.cluster.send(
            src, dst, f"coll:{kind}", max(1, items) * self.item_bytes,
            payload=(kind, payload),
        )

    def _size_of(self, value: Any) -> int:
        return len(value) if hasattr(value, "__len__") else 1

    # ----------------------------------------------------------- collectives --
    def broadcast(self, root: int, value: Any) -> tuple[list[Any], float]:
        """Binomial-tree broadcast; returns (per-rank values, finish time)."""
        self.cluster.topology.check_node(root)
        self._values = [None] * self.P
        self._values[root] = value
        items = self._size_of(value)
        # Binomial tree on ranks relative to the root, stage by stage so a
        # rank only forwards after it holds the value.
        span = 1
        while span < self.P:
            for rel in range(span):
                rel_dst = rel + span
                if rel_dst >= self.P:
                    continue
                src = (root + rel) % self.P
                dst = (root + rel_dst) % self.P
                self._send(src, dst, "set", value, items)
            self.cluster.engine.run_until_quiescent()
            span *= 2
        return list(self._values), self.cluster.engine.now

    def reduce(
        self, root: int, contributions: list[Any], op: Callable[[Any, Any], Any]
    ) -> tuple[Any, float]:
        """Binomial-tree reduction to ``root``."""
        if len(contributions) != self.P:
            raise ConfigError("need one contribution per rank")
        self._values = list(contributions)
        self._op = op
        items = self._size_of(contributions[0])
        span = 1
        while span < self.P:
            for rel in range(0, self.P, span * 2):
                rel_src = rel + span
                if rel_src >= self.P:
                    continue
                src = (root + rel_src) % self.P
                dst = (root + rel) % self.P
                # Value sent is whatever src has accumulated by then;
                # functional ordering matches because lower spans flushed
                # to quiescence first.
                self._send(src, dst, "combine", self._values[src], items)
            self.cluster.engine.run_until_quiescent()
            span *= 2
        return self._values[root], self.cluster.engine.now

    def allreduce(
        self, contributions: list[Any], op: Callable[[Any, Any], Any]
    ) -> tuple[list[Any], float]:
        """Recursive doubling (power-of-two ranks) or reduce+broadcast."""
        if len(contributions) != self.P:
            raise ConfigError("need one contribution per rank")
        p = self.P
        if p & (p - 1) == 0 and p > 1:
            self._values = list(contributions)
            self._op = op
            items = self._size_of(contributions[0])
            span = 1
            while span < p:
                snapshot = list(self._values)
                for rank in range(p):
                    self._send(rank, rank ^ span, "combine", snapshot[rank], items)
                self.cluster.engine.run_until_quiescent()
                span *= 2
            return list(self._values), self.cluster.engine.now
        total, _ = self.reduce(0, contributions, op)
        values, t = self.broadcast(0, total)
        return values, t

    def allgather(self, contributions: list[Any]) -> tuple[list[list[Any]], float]:
        """Ring allgather: P-1 steps, each rank forwarding what it received."""
        if len(contributions) != self.P:
            raise ConfigError("need one contribution per rank")
        items = self._size_of(contributions[0])
        self._pending = {r: [contributions[r]] for r in range(self.P)}
        carried = list(contributions)
        for _step in range(self.P - 1):
            for rank in range(self.P):
                self._send(rank, (rank + 1) % self.P, "append", carried[rank], items)
            self.cluster.engine.run_until_quiescent()
            carried = [self._pending[r][-1] for r in range(self.P)]
        return [self._pending[r] for r in range(self.P)], self.cluster.engine.now

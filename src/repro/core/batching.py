"""Group-based message batching (Section 4.4, Figures 7-9).

Nodes are arranged as an N x M matrix — N groups (rows) of M nodes. A
message from source ``s`` to destination ``d`` relays through the node in
**the same column as the source and the same row (group) as the
destination**; groups map onto super nodes so that stage two always rides
the full-bandwidth lower network.

Connections per node drop from N*M - 1 (everyone) to at most
(N - 1) + (M - 1): the column mates it relays through plus the group mates
it delivers to. At 40,000 nodes that is the paper's "4 GB to approximately
40 MB" of MPI connection memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class GroupLayout:
    """The N x M node matrix. ``node = group * width + member``."""

    num_nodes: int
    width: int  # M, nodes per group

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError(f"need at least one node, got {self.num_nodes}")
        if not 1 <= self.width <= self.num_nodes:
            raise ConfigError(
                f"group width {self.width} out of range [1, {self.num_nodes}]"
            )
        # Per-source relay lookup rows (group index -> relay node), built
        # lazily by relay_vectorised; not a dataclass field so eq/hash and
        # frozenness are untouched.
        object.__setattr__(self, "_relay_rows", {})

    @classmethod
    def for_topology(cls, num_nodes: int, nodes_per_super_node: int) -> "GroupLayout":
        """The paper's mapping: one group per super node."""
        return cls(num_nodes, min(num_nodes, nodes_per_super_node))

    @property
    def num_groups(self) -> int:  # N
        return -(-self.num_nodes // self.width)

    def group_of(self, node: int) -> int:
        self._check(node)
        return node // self.width

    def member_of(self, node: int) -> int:
        self._check(node)
        return node % self.width

    def group_size(self, group: int) -> int:
        if not 0 <= group < self.num_groups:
            raise ConfigError(f"group {group} out of range")
        lo = group * self.width
        return min(self.width, self.num_nodes - lo)

    def group_members(self, group: int) -> range:
        size = self.group_size(group)
        return range(group * self.width, group * self.width + size)

    def relay_for(self, src: int, dst: int) -> int:
        """The relay node: destination's row, source's column.

        A ragged final group may lack the source's column; the member index
        then wraps into the group (documented deviation — the real machine's
        groups are full super nodes).
        """
        self._check(src)
        self._check(dst)
        g = self.group_of(dst)
        member = self.member_of(src) % self.group_size(g)
        return g * self.width + member

    def relay_vectorised(self, src: int, dst: np.ndarray) -> np.ndarray:
        """:meth:`relay_for` over a destination array: one cached lookup row
        per source (indexed by destination group), then a single gather."""
        row = self._relay_rows.get(src)
        if row is None:
            g = np.arange(self.num_groups, dtype=np.int64)
            sizes = np.minimum(self.width, self.num_nodes - g * self.width)
            row = g * self.width + self.member_of(src) % sizes
            self._relay_rows[src] = row
        return row[np.asarray(dst, dtype=np.int64) // self.width]

    # -- connection arithmetic (the Section 4.4 claims) -------------------------
    def column_peers(self, node: int) -> list[int]:
        """Stage-one targets: same member index, every other group."""
        m = self.member_of(node)
        out = []
        for g in range(self.num_groups):
            peer = g * self.width + (m % self.group_size(g))
            if peer != node:
                out.append(peer)
        return out

    def row_peers(self, node: int) -> list[int]:
        """Stage-two targets: every other node in the group."""
        return [p for p in self.group_members(self.group_of(node)) if p != node]

    def peers(self, node: int) -> list[int]:
        """Every node ``node`` talks to, ascending: its column and group
        mates. In the one-group layout (width P) that is everyone else."""
        # dict.fromkeys: order-stable dedup (determinism lint REP104 —
        # hash-ordered set unions are banned in sim-core modules).
        return sorted(dict.fromkeys(self.column_peers(node) + self.row_peers(node)))

    def relay_connections(self, node: int) -> int:
        """Distinct peers: <= (N-1) + (M-1), so P-1 in the one-group layout."""
        return len(self.peers(node))

    def direct_connections(self) -> int:
        """Distinct peers under direct routing: everyone."""
        return self.num_nodes - 1

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"node {node} out of range [0, {self.num_nodes})")

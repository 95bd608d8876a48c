"""Fat-tree geometry: nodes, super nodes, and route classification.

The topology is purely structural — which super node a node lives in and
whether a message crosses the central switches. Bandwidth and latency live
in :mod:`repro.network.cost`.

Validation happens at the boundary: :meth:`FatTreeTopology.check_node` /
:meth:`FatTreeTopology.check_nodes` are the entry gates (message injection,
rank registration), while the classification helpers (`super_node_of`,
`is_intra_super_node`, `hop_count`) trust their inputs — they sit on the
per-message hot path and used to burn a bounds check per call from paths
that had already validated. Batch callers should use the precomputed
:attr:`super_ids` array instead of scalar calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class FatTreeTopology:
    """A two-level fat tree over ``num_nodes`` compute nodes."""

    num_nodes: int
    nodes_per_super_node: int = 256
    central_oversubscription: int = 4

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError(f"need at least one node, got {self.num_nodes}")
        if self.nodes_per_super_node <= 0:
            raise ConfigError(
                f"bad super node size {self.nodes_per_super_node}"
            )
        if self.central_oversubscription < 1:
            raise ConfigError(
                f"oversubscription must be >= 1, got {self.central_oversubscription}"
            )
        # Lazily built (frozen dataclass: assign around the freeze).
        object.__setattr__(self, "_super_ids", None)

    @property
    def num_super_nodes(self) -> int:
        return -(-self.num_nodes // self.nodes_per_super_node)

    @property
    def super_ids(self) -> np.ndarray:
        """Per-node super-node id, ``super_ids[node] == node // nps``.

        Built on first use and cached; batch paths index this array instead
        of calling :meth:`super_node_of` per message.
        """
        ids = self._super_ids
        if ids is None:
            ids = np.arange(self.num_nodes, dtype=np.int64) // self.nodes_per_super_node
            object.__setattr__(self, "_super_ids", ids)
        return ids

    # -- boundary validation -----------------------------------------------------
    def check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigError(f"node {node} out of range [0, {self.num_nodes})")

    def check_nodes(self, nodes: np.ndarray) -> None:
        """Vectorised :meth:`check_node` over an array of node ids."""
        nodes = np.asarray(nodes)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            bad = nodes[(nodes < 0) | (nodes >= self.num_nodes)][0]
            raise ConfigError(
                f"node {int(bad)} out of range [0, {self.num_nodes})"
            )

    # -- classification (inputs boundary-validated) ------------------------------
    def super_node_of(self, node: int) -> int:
        return node // self.nodes_per_super_node

    def nodes_in_super_node(self, sn: int) -> range:
        if not 0 <= sn < self.num_super_nodes:
            raise ConfigError(f"super node {sn} out of range")
        lo = sn * self.nodes_per_super_node
        return range(lo, min(lo + self.nodes_per_super_node, self.num_nodes))

    def is_intra_super_node(self, src: int, dst: int) -> bool:
        """True when a message stays below the central switches."""
        return self.super_node_of(src) == self.super_node_of(dst)

    def hop_count(self, src: int, dst: int) -> int:
        """Switch hops on the static route (0 self, 2 intra, 4 via central)."""
        if src == dst:
            return 0
        return 2 if self.is_intra_super_node(src, dst) else 4

"""Composition of one TaihuLight node for the simulator.

A :class:`SunwayNode` bundles the timing models (4 MPEs, 4 CPE clusters,
DMA, atomics) with a simple main-memory budget. The BFS runtime layers
:class:`~repro.sim.resources.Server` queues over the units; this class owns
the *rates*, not the scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, SimulatedCrash
from repro.machine.atomics import AtomicsModel
from repro.machine.cluster import CpeCluster
from repro.machine.dma import DmaModel
from repro.machine.specs import MachineSpec, TAIHULIGHT


@dataclass
class MemoryBudget:
    """Tracks named reservations against the node's 32 GB main memory."""

    capacity: int
    node_id: int = -1
    reservations: dict[str, int] = field(default_factory=dict)

    @property
    def used(self) -> int:
        return sum(self.reservations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def reserve(self, name: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ConfigError(f"negative reservation: {nbytes}")
        current = self.reservations.get(name, 0)
        if self.used - current + nbytes > self.capacity:
            raise SimulatedCrash(
                f"main memory exhausted reserving {name!r} "
                f"({nbytes} B requested, {self.free + current} B free)",
                node=self.node_id if self.node_id >= 0 else None,
            )
        self.reservations[name] = nbytes

    def release(self, name: str) -> None:
        self.reservations.pop(name, None)


class SunwayNode:
    """One node: timing models + memory accounting, identified by ``node_id``."""

    def __init__(self, node_id: int = 0, spec: MachineSpec = TAIHULIGHT):
        if node_id < 0:
            raise ConfigError(f"bad node id {node_id}")
        self.node_id = node_id
        self.spec = spec
        self.dma = DmaModel(spec)
        self.cluster = CpeCluster(spec, self.dma)
        self.atomics = AtomicsModel(spec)
        self.memory = MemoryBudget(spec.node.memory_bytes, node_id)

    @property
    def num_mpes(self) -> int:
        return self.spec.node.core_groups

    @property
    def num_clusters(self) -> int:
        return self.spec.node.core_groups

    def __repr__(self) -> str:
        return f"SunwayNode(id={self.node_id})"

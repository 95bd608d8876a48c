"""Model of the Sunway TaihuLight compute node (SW26010 CPU).

The model captures exactly the architectural features Section 3 of the paper
says drive the BFS design:

- heterogeneous cores: 4 MPEs (general purpose, one thread each, no shared
  cache) + 4 CPE clusters (64 accelerator cores each);
- 64 KB scratch-pad memory (SPM) per CPE, explicitly managed;
- DMA to shared off-chip memory whose effective bandwidth depends on chunk
  size (Figure 3) and on how many CPEs issue transfers (Figure 5);
- an 8x8 register mesh with row/column-only synchronous communication and
  no deadlock avoidance in hardware;
- only atomic-increment in main memory, at painful cost;
- a ~10 us interrupt latency, which forces flag-polling notification.

Everything is parameterised by :class:`~repro.machine.specs.MachineSpec`,
whose defaults are the paper's published numbers.
"""

from repro.machine.specs import (
    MpeSpec,
    CpeSpec,
    CoreGroupSpec,
    NodeSpec,
    TaihuLightSpec,
    MachineSpec,
    TAIHULIGHT,
)
from repro.machine.dma import DmaModel
from repro.machine.spm import Spm
from repro.machine.mesh import MeshTopology, RegisterMesh, Route
from repro.machine.cluster import CpeCluster
from repro.machine.node import SunwayNode
from repro.machine.atomics import AtomicsModel

__all__ = [
    "MpeSpec",
    "CpeSpec",
    "CoreGroupSpec",
    "NodeSpec",
    "TaihuLightSpec",
    "MachineSpec",
    "TAIHULIGHT",
    "DmaModel",
    "Spm",
    "MeshTopology",
    "RegisterMesh",
    "Route",
    "CpeCluster",
    "SunwayNode",
    "AtomicsModel",
]

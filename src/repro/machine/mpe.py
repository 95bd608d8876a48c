"""Management Processing Element (MPE) model.

The MPE is a single-threaded general-purpose core: it runs MPI, schedules
work onto CPE clusters, and — in the MPE baselines and the small-message
quick path — processes module data itself at main-memory speed (9.4 GB/s
max with 256 B batches, Section 3.2).

Notification between MPEs and CPE clusters cannot use interrupts (10 us
latency, Section 3.1); both sides busy-wait on memory flags, which costs a
couple of round trips through non-coherent main memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.dma import DmaModel
from repro.machine.specs import MachineSpec, TAIHULIGHT


@dataclass(frozen=True)
class Mpe:
    """Timing helpers for work executed on one MPE."""

    spec: MachineSpec = TAIHULIGHT
    dma: DmaModel = field(default_factory=DmaModel)

    def process_time(self, nbytes: float, chunk_bytes: int = 256) -> float:
        """Streaming ``nbytes`` through the MPE (memory-bandwidth bound)."""
        return self.dma.mpe_transfer_time(nbytes, chunk_bytes)

    def interrupt_time(self) -> float:
        """What a hardware interrupt *would* cost (why polling is used)."""
        return self.spec.core_group.mpe.interrupt_latency

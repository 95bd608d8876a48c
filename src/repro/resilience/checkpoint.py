"""Level-synchronous BFS checkpointing: snapshots and the recovery store.

The level barrier of the distributed BFS is a natural global-consistency
point: no messages are in flight, every node's parent array and frontier
are settled. A :class:`Checkpoint` captures exactly that state — per-node
parent/frontier snapshots plus the replicated hub bitmaps and the
direction-policy state — every ``k`` levels. After a fail-stop node crash,
restoring the last checkpoint on *all* nodes (the replacement rank
included) rewinds the traversal to a consistent level and the driver
simply re-runs the lost levels.

Both checkpoint stores — the buddy :class:`CheckpointStore` here and the
erasure-coded :class:`repro.durability.shards.ShardedCheckpointStore` —
are :class:`DurableStore` subclasses: ``save`` and ``recover`` apply the
store's own rules and report the per-node I/O as a :class:`StoreIO`,
which the driver prices with one formula for either store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ReproError


def buddy(rank: int, num_nodes: int) -> int:
    """The buddy-checkpoint partner of ``rank``: its XOR-1 pair, or the
    previous rank when the pair would fall off the end."""
    partner = rank ^ 1
    return partner if partner < num_nodes else rank - 1


@dataclass(frozen=True)
class NodeSnapshot:
    """One node's BFS state at a level barrier (deep copies)."""

    parent: np.ndarray
    curr: np.ndarray
    curr_mask: np.ndarray

    @property
    def nbytes(self) -> int:
        """Wire bytes to ship this snapshot: the parent array plus the
        frontier as a bitmap (``curr`` is derivable from ``curr_mask``)."""
        return int(self.parent.nbytes) + (len(self.curr_mask) + 7) // 8


@dataclass(frozen=True)
class Checkpoint:
    """A globally consistent traversal state at the end of ``level``."""

    level: int
    snapshots: tuple[NodeSnapshot, ...]
    #: Replicated hub bitmaps (copies), when hub prefetch is enabled.
    hub_frontier: Any = None
    hub_visited: Any = None
    #: The direction policy's hysteresis state at the barrier.
    policy_state: Any = None

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.snapshots)

    @property
    def max_node_bytes(self) -> int:
        return max((s.nbytes for s in self.snapshots), default=0)


@dataclass(frozen=True)
class StoreIO:
    """Per-node I/O of one save or recovery, for the driver's cost model:
    every node (in parallel) makes ``transfers`` serial transfers of
    ``nbytes`` each, and the pass re-places ``rebuilt`` lost shards."""

    transfers: int
    nbytes: int
    rebuilt: int = 0


class DurableStore(ABC):
    """What the BFS driver calls, the same way for the buddy and the
    erasure-coded store, plus the counters both keep. The disk-fault
    injector also calls ``drop_holder(rank)`` and ``corrupt_shard(rank,
    rng)``. ``last`` is the current checkpoint (for RS only its level and
    sidecar state; the snapshots live in the shards)."""

    def __init__(self) -> None:
        self.last: Checkpoint | None = None
        self.taken = 0
        self.restored = 0
        #: Cumulative bytes shipped to other nodes / durably held now.
        self.bytes_written = 0
        self.storage_bytes = 0
        #: Serialized snapshot bytes of the current checkpoint (the 1x base
        #: the storage overhead ratio is measured against).
        self.raw_bytes = 0
        self.shards_lost = 0
        self.shards_corrupted = 0

    @property
    def has_checkpoint(self) -> bool:
        return self.last is not None

    @abstractmethod
    def save(self, checkpoint: Checkpoint) -> StoreIO: ...

    @abstractmethod
    def recover(self, dead: frozenset[int]) -> tuple[Checkpoint, StoreIO]:
        """The last checkpoint after ``dead`` crashed (and were revived
        with empty disks); :class:`ReproError` when it did not survive."""

    def scrub(self, dead: frozenset[int] = frozenset()) -> tuple[int, int]:
        """``(checked, repaired)`` shards; a store without per-shard
        checksums has nothing to scrub."""
        return 0, 0

    def holder_bytes(self, rank: int) -> int:
        """Checkpoint bytes a scrub pass reads on ``rank``."""
        return 0

    def durability_stats(self, scrub_seconds: float) -> dict[str, float]:
        """Per-root bytes held, bytes moved and fault tallies."""
        return {
            "checkpoint_storage_bytes": float(self.storage_bytes),
            "checkpoint_raw_bytes": float(self.raw_bytes),
            "checkpoint_traffic_bytes": float(self.bytes_written),
            "shards_lost": float(self.shards_lost),
            "shards_corrupted": float(self.shards_corrupted),
        }


class CheckpointStore(DurableStore):
    """Buddy checkpointing: each node's snapshot stays in its own memory
    and one full copy goes to its :func:`buddy`, so the store holds 2x
    the snapshot bytes and survives any crash that spares one node of
    every buddy pair. Any disk fault on the copy (loss *or* detected
    corruption — there is no redundancy to repair from) destroys the
    checkpoint outright. It never scrubs: a corrupt copy is caught by
    its whole-copy checksum (and dropped) when the corruption happens.
    """

    def save(self, checkpoint: Checkpoint) -> StoreIO:
        """Keep ``checkpoint``; each node ships one copy to its buddy."""
        self.last = checkpoint
        self.taken += 1
        self.bytes_written += checkpoint.total_bytes
        self.raw_bytes = checkpoint.total_bytes
        self.storage_bytes = 2 * checkpoint.total_bytes
        return StoreIO(1, checkpoint.max_node_bytes)

    def restore(self) -> Checkpoint:
        if self.last is None:
            raise LookupError("no checkpoint to restore from")
        self.restored += 1
        return self.last

    def recover(self, dead: frozenset[int]) -> tuple[Checkpoint, StoreIO]:
        """Each crashed node re-fetches its snapshot from its buddy; a
        crashed buddy pair took both copies of a snapshot with it."""
        num_nodes = len(self.last.snapshots) if self.last is not None else 0
        for rank in sorted(dead):
            partner = buddy(rank, num_nodes)
            if partner in dead:
                raise ReproError(
                    f"unrecoverable checkpoint: node {rank} and its buddy "
                    f"{partner} both crashed"
                )
        checkpoint = self.restore()
        return checkpoint, StoreIO(1, checkpoint.max_node_bytes)

    def drop_holder(self, rank: int) -> int:
        """A buddy disk died: the single copy — the checkpoint — is gone."""
        if self.last is None:
            return 0
        self.shards_lost += 1
        self._discard()
        return 1

    def corrupt_shard(self, rank: int, rng: np.random.Generator) -> bool:
        """Corruption of the buddy copy: detected (whole-copy checksum)
        but unrepairable without parity, so the checkpoint is discarded."""
        if self.last is None:
            return False
        self.shards_corrupted += 1
        self._discard()
        return True

    def _discard(self) -> None:
        self.last = None
        self.storage_bytes = 0
        self.raw_bytes = 0

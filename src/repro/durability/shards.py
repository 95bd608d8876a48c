"""Shard planning and the erasure-coded checkpoint store.

Each node's :class:`~repro.resilience.checkpoint.NodeSnapshot` is
serialised (parent array + frontier bitmap; ``curr`` is derivable from
the bitmap), split by :class:`~repro.durability.rs.RSCode` into k data +
m parity shards, and the shards placed on *other* simulated nodes under
three rules:

1. **never the owner** — a node holding any shard of its own snapshot
   would lose checkpoint and shard together when it dies;
2. **never the owner's buddy** — the pair that fate-shares in the buddy
   checkpointing scheme (rank ``r ^ 1``) stays excluded, so the RS
   layout strictly dominates the buddy layout's failure modes;
3. **rack-aware** — holders round-robin across fat-tree supernodes
   before reusing one, so a whole-supernode outage costs the fewest
   possible shards per group.

The :class:`ShardedCheckpointStore` answers the same
:class:`~repro.resilience.checkpoint.DurableStore` calls as the buddy
store but keeps *only* shards — (k+m)/k storage overhead instead of 2x
— and therefore always exercises the decode path on restore: a
recovered traversal's bit-identical parents are evidence the codec
round-tripped, not an artifact of a retained plain copy. Every shard carries a CRC32; scrub
verifies them in the background and repairs corrupt/missing shards by
decode + re-encode while >= k healthy shards survive per group.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.durability.rs import RSCode
from repro.errors import ConfigError, ReproError
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointStore,
    DurableStore,
    NodeSnapshot,
    StoreIO,
    buddy as buddy_of,
)
from repro.resilience.config import ResilienceConfig


def snapshot_to_bytes(snap: NodeSnapshot) -> np.ndarray:
    """Serialise a snapshot to the flat byte layout priced by ``nbytes``:
    the parent array (little-endian int64) then the frontier bitmap."""
    if not np.array_equal(snap.curr, np.flatnonzero(snap.curr_mask)):
        raise ReproError(
            "snapshot frontier list and bitmap disagree; barrier snapshots "
            "must keep curr == flatnonzero(curr_mask)"
        )
    parent_bytes = np.frombuffer(
        np.ascontiguousarray(snap.parent, dtype="<i8").tobytes(), dtype=np.uint8
    )
    mask_bytes = np.packbits(snap.curr_mask.astype(bool))
    return np.concatenate([parent_bytes, mask_bytes])


def snapshot_from_bytes(buf: np.ndarray, n_local: int) -> NodeSnapshot:
    """Inverse of :func:`snapshot_to_bytes` for a node with ``n_local``
    vertices; rebuilds ``curr`` from the bitmap."""
    parent_end = 8 * n_local
    mask_end = parent_end + (n_local + 7) // 8
    if len(buf) < mask_end:
        raise ConfigError(
            f"serialized snapshot too short: {len(buf)} bytes for "
            f"{n_local} local vertices"
        )
    parent = np.frombuffer(
        np.ascontiguousarray(buf[:parent_end]).tobytes(), dtype="<i8"
    ).astype(np.int64)
    mask = np.unpackbits(
        np.ascontiguousarray(buf[parent_end:mask_end])
    )[:n_local].astype(bool)
    return NodeSnapshot(
        parent=parent, curr=np.flatnonzero(mask), curr_mask=mask
    )


@dataclass(frozen=True)
class ShardPlacement:
    """Deterministic, rack-aware shard-to-holder assignment."""

    num_nodes: int
    nodes_per_super_node: int
    data_shards: int
    parity_shards: int

    def __post_init__(self) -> None:
        total = self.data_shards + self.parity_shards
        if self.nodes_per_super_node < 1:
            raise ConfigError(
                f"nodes_per_super_node must be >= 1, got "
                f"{self.nodes_per_super_node}"
            )
        # Worst case the owner and its buddy are both ineligible.
        if self.num_nodes < total + 2:
            raise ConfigError(
                f"RS({self.data_shards},{self.parity_shards}) placement "
                f"needs >= {total + 2} nodes (owner and buddy excluded), "
                f"got {self.num_nodes}"
            )

    buddy = staticmethod(buddy_of)

    def holders(self, owner: int) -> tuple[int, ...]:
        """The k+m distinct holder ranks for ``owner``'s shards.

        Walks supernodes round-robin starting just past the owner's
        supernode, taking at most one new node per supernode per lap, so
        holders spread across the most racks the eligible set allows.
        """
        total = self.data_shards + self.parity_shards
        excluded = {owner, self.buddy(owner, self.num_nodes)}
        nps = self.nodes_per_super_node
        num_supers = -(-self.num_nodes // nps)
        racks: list[list[int]] = [[] for _ in range(num_supers)]
        for rank in range(self.num_nodes):
            if rank not in excluded:
                racks[rank // nps].append(rank)
        chosen: list[int] = []
        start = owner // nps + 1
        lap = 0
        while len(chosen) < total:
            progressed = False
            for step in range(num_supers):
                rack = racks[(start + step) % num_supers]
                if lap < len(rack):
                    chosen.append(rack[lap])
                    progressed = True
                    if len(chosen) == total:
                        break
            if not progressed:  # pragma: no cover - guarded by __post_init__
                raise ConfigError(
                    f"cannot place {total} shards for owner {owner} on "
                    f"{self.num_nodes} nodes"
                )
            lap += 1
        return tuple(chosen)


@dataclass
class _Shard:
    """One stored shard: its group coordinates, bytes, and checksum."""

    owner: int
    index: int
    holder: int
    data: np.ndarray
    crc: int

    @property
    def healthy(self) -> bool:
        return zlib.crc32(self.data.tobytes()) == self.crc


@dataclass
class _GroupMeta:
    """Per-owner decode metadata for the current checkpoint."""

    n_local: int
    nbytes: int
    holders: tuple[int, ...]


class ShardedCheckpointStore(DurableStore):
    """Erasure-coded :class:`~repro.resilience.checkpoint.DurableStore`.

    Shards are the *only* durable copy: ``restore`` always decodes, and
    heals any missing or corrupt shards back onto their planned holders
    (dead holders are skipped until they are revived and the next save
    or scrub re-covers them).
    """

    def __init__(self, code: RSCode, placement: ShardPlacement) -> None:
        if placement.data_shards != code.data_shards or (
            placement.parity_shards != code.parity_shards
        ):
            raise ConfigError("placement and code disagree on (k, m)")
        super().__init__()
        self.code = code
        self.placement = placement
        self.shards_rebuilt = 0
        self.scrub_passes = 0
        self.scrub_repairs = 0
        self._shards: dict[tuple[int, int], _Shard] = {}
        self._groups: dict[int, _GroupMeta] = {}

    # -- introspection -------------------------------------------------------
    @property
    def max_shard_bytes(self) -> int:
        """Largest per-shard payload of the current checkpoint (the unit
        of the parallel transfer cost model)."""
        if not self._groups:
            return 0
        return max(
            self.code.shard_length(g.nbytes) for g in self._groups.values()
        )

    def holder_bytes(self, rank: int) -> int:
        """Bytes of checkpoint shards currently on ``rank``'s disk."""
        return sum(
            len(s.data) for s in self._shards.values() if s.holder == rank
        )

    # -- save ----------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> StoreIO:
        """Shard and place a barrier checkpoint, replacing the previous one:
        each node scatters its k+m shards to their holders.

        The hub/policy sidecar state rides in the (tiny) metadata record —
        the replicated hub bitmaps are already cluster-global, so sharding
        them would model redundancy they inherently have.
        """
        self._shards.clear()
        self._groups.clear()
        # Keep only the sidecar state; snapshots live exclusively in shards.
        self.last = replace(checkpoint, snapshots=())
        storage = 0
        raw = 0
        for owner, snap in enumerate(checkpoint.snapshots):
            payload = snapshot_to_bytes(snap)
            shards = self.code.encode(payload)
            holders = self.placement.holders(owner)
            self._groups[owner] = _GroupMeta(
                n_local=len(snap.curr_mask),
                nbytes=len(payload),
                holders=holders,
            )
            raw += len(payload)
            for index, holder in enumerate(holders):
                storage += self._place(owner, index, holder, shards[index])
        self.taken += 1
        self.storage_bytes = storage
        self.raw_bytes = raw
        self.bytes_written += storage
        return StoreIO(self.code.total_shards, self.max_shard_bytes)

    # -- fault entry points (driven by DiskFaultInjector) --------------------
    def drop_holder(self, rank: int) -> int:
        """A disk (or the whole node) at ``rank`` is gone: its shards too.
        Returns how many shards were lost."""
        doomed = [key for key, s in self._shards.items() if s.holder == rank]
        for key in doomed:
            self.storage_bytes -= len(self._shards[key].data)
            del self._shards[key]
        self.shards_lost += len(doomed)
        return len(doomed)

    def corrupt_shard(self, rank: int, rng: np.random.Generator) -> bool:
        """Flip one byte of one shard on ``rank``'s disk (seeded choice).
        Returns whether a shard was there to corrupt."""
        keys = sorted(
            key for key, s in self._shards.items() if s.holder == rank
        )
        if not keys:
            return False
        shard = self._shards[keys[int(rng.integers(0, len(keys)))]]
        offset = int(rng.integers(0, len(shard.data)))
        flip = 1 + int(rng.integers(0, 255))
        shard.data = shard.data.copy()
        shard.data[offset] ^= flip
        self.shards_corrupted += 1
        return True

    # -- scrub ---------------------------------------------------------------
    def scrub(self, dead: frozenset[int] = frozenset()) -> tuple[int, int]:
        """Verify every shard checksum; rebuild what fails or is missing.

        Returns ``(checked, repaired)``. Groups that have lost too many
        shards to repair are left for ``restore`` to report — scrub is
        best-effort background maintenance, not the recovery path.
        """
        checked = 0
        repaired = 0
        for owner in sorted(self._groups):
            good, bad = self._split_group(owner, frozenset())
            checked += len(good) + sum((owner, i) in self._shards for i in bad)
            if not bad or len(good) < self.code.data_shards:
                continue
            payload = self._decode(owner, good)
            repaired += self._rebuild_group(owner, payload, bad, dead)
        self.scrub_passes += 1
        self.scrub_repairs += repaired
        return checked, repaired

    def _split_group(
        self, owner: int, dead: frozenset[int]
    ) -> tuple[list[int], list[int]]:
        """``owner``'s shard indices that are readable (present, healthy,
        not on a ``dead`` holder), and the rest."""
        good: list[int] = []
        bad: list[int] = []
        for index in range(self.code.total_shards):
            shard = self._shards.get((owner, index))
            if shard is None or shard.holder in dead or not shard.healthy:
                bad.append(index)
            else:
                good.append(index)
        return good, bad

    def _decode(self, owner: int, good: list[int]) -> np.ndarray:
        return self.code.decode(
            np.asarray(good, dtype=np.int64),
            np.stack([self._shards[(owner, i)].data for i in good]),
            self._groups[owner].nbytes,
        )

    def _rebuild_group(
        self, owner: int, payload: np.ndarray, bad: list[int], dead: frozenset[int]
    ) -> int:
        """Re-encode ``owner``'s decoded payload and re-place the ``bad``
        shards on their live holders."""
        fresh = self.code.encode(payload)
        holders = self._groups[owner].holders
        rebuilt = 0
        for index in bad:
            holder = holders[index]
            if holder in dead:
                # No disk to write to yet; the next scrub or save catches it.
                continue
            old = self._shards.get((owner, index))
            if old is not None:
                self.storage_bytes -= len(old.data)
            nbytes = self._place(owner, index, holder, fresh[index])
            self.storage_bytes += nbytes
            self.bytes_written += nbytes
            rebuilt += 1
        self.shards_rebuilt += rebuilt
        return rebuilt

    def _place(self, owner: int, index: int, holder: int, shard: np.ndarray) -> int:
        """Store one shard and its CRC32 on ``holder``; returns its size."""
        data = np.ascontiguousarray(shard)
        crc = zlib.crc32(data.tobytes())
        self._shards[(owner, index)] = _Shard(owner, index, holder, data, crc)
        return len(data)

    # -- restore -------------------------------------------------------------
    def restore(self, dead: frozenset[int] = frozenset()) -> Checkpoint:
        """Decode every node's snapshot from surviving healthy shards.

        ``dead`` names ranks whose disks are unreadable *right now* (the
        crashed nodes during recovery); their shards are treated as
        erasures on top of anything already lost or corrupt. Missing
        shards are healed onto live holders as part of the pass. Raises
        :class:`LookupError` when no checkpoint was ever saved and
        :class:`ReproError` when some group has fewer than k healthy
        shards (the >m-failures case).
        """
        if self.last is None:
            raise LookupError("no checkpoint to restore from")
        snapshots: list[NodeSnapshot] = []
        for owner in sorted(self._groups):
            good, bad = self._split_group(owner, dead)
            if len(good) < self.code.data_shards:
                raise ReproError(
                    f"unrecoverable checkpoint: node {owner}'s shard group "
                    f"has {len(good)} healthy shards, needs "
                    f"{self.code.data_shards}"
                )
            payload = self._decode(owner, good)
            snapshots.append(
                snapshot_from_bytes(payload, self._groups[owner].n_local)
            )
            if bad:
                self._rebuild_group(owner, payload, bad, dead)
        self.restored += 1
        return replace(self.last, snapshots=tuple(snapshots))

    def recover(self, dead: frozenset[int]) -> tuple[Checkpoint, StoreIO]:
        """Restore after ``dead`` crashed and came back as replacement
        nodes with empty disks: their shards are erasures, each node
        gathers k shards, and the heal pass re-places what was lost."""
        for rank in sorted(dead):
            self.drop_holder(rank)
        rebuilt_before = self.shards_rebuilt
        checkpoint = self.restore()
        io = StoreIO(
            self.code.data_shards,
            self.max_shard_bytes,
            self.shards_rebuilt - rebuilt_before,
        )
        return checkpoint, io

    def durability_stats(self, scrub_seconds: float) -> dict[str, float]:
        """The shared figures plus heals and scrubs."""
        return {
            **super().durability_stats(scrub_seconds),
            "shards_rebuilt": float(self.shards_rebuilt),
            "scrub_passes": float(self.scrub_passes),
            "scrub_repairs": float(self.scrub_repairs),
            "scrub_seconds": scrub_seconds,
        }


def make_checkpoint_store(
    resilience: ResilienceConfig, num_nodes: int, nodes_per_super_node: int
) -> DurableStore | None:
    """A fresh store per ``resilience.checkpoint_mode`` (None when
    checkpointing is off); an infeasible RS placement raises here."""
    if resilience.checkpoint_interval <= 0:
        return None
    if resilience.checkpoint_mode == "buddy":
        return CheckpointStore()
    k, m = resilience.rs_data_shards, resilience.rs_parity_shards
    placement = ShardPlacement(num_nodes, nodes_per_super_node, k, m)
    return ShardedCheckpointStore(RSCode(k, m), placement)

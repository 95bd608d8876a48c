"""Corner cases of :mod:`repro.resilience.checkpoint`.

The store and snapshot dataclasses are the substrate both durability
schemes (buddy and RS) build on; these tests pin the edges the happy-path
recovery tests never hit — empty frontiers, empty stores, byte accounting,
and the buddy store's disk-fault semantics (single copy: any fault is
fatal).
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointStore,
    NodeSnapshot,
    StoreIO,
)


def _snapshot(n_local: int, frontier=()):
    parent = np.full(n_local, -1, dtype=np.int64)
    curr = np.asarray(sorted(frontier), dtype=np.int64)
    mask = np.zeros(n_local, dtype=bool)
    mask[curr] = True
    return NodeSnapshot(parent=parent, curr=curr, curr_mask=mask)


# --- snapshot byte accounting -------------------------------------------------
def test_snapshot_nbytes_counts_parent_plus_bitmap():
    snap = _snapshot(64, frontier=(1, 5))
    # 64 int64 parents + 64 mask bits packed into 8 bytes.
    assert snap.nbytes == 64 * 8 + 8


def test_snapshot_nbytes_rounds_bitmap_up():
    snap = _snapshot(65)
    assert snap.nbytes == 65 * 8 + 9  # 65 bits -> 9 bytes


def test_empty_frontier_snapshot_is_legal_and_costed():
    """A node whose frontier emptied still snapshots (its parents matter
    for recovery); the frontier contributes only the bitmap bytes."""
    snap = _snapshot(32)
    assert snap.curr.size == 0
    assert not snap.curr_mask.any()
    assert snap.nbytes == 32 * 8 + 4
    ckpt = Checkpoint(level=3, snapshots=(snap,))
    store = CheckpointStore()
    store.save(ckpt)
    restored = store.restore()
    assert restored.snapshots[0].curr.size == 0
    assert np.array_equal(restored.snapshots[0].parent, snap.parent)


def test_checkpoint_max_node_bytes_accounting():
    snaps = (_snapshot(16), _snapshot(256, frontier=(0, 255)), _snapshot(8))
    ckpt = Checkpoint(level=1, snapshots=snaps)
    assert ckpt.total_bytes == sum(s.nbytes for s in snaps)
    assert ckpt.max_node_bytes == snaps[1].nbytes  # the 256-vertex node
    assert Checkpoint(level=0, snapshots=()).max_node_bytes == 0
    assert Checkpoint(level=0, snapshots=()).total_bytes == 0


# --- store corner cases -------------------------------------------------------
def test_restore_from_empty_store_raises():
    store = CheckpointStore()
    with pytest.raises(LookupError, match="no checkpoint to restore"):
        store.restore()


def test_store_save_restore_counters_and_storage():
    store = CheckpointStore()
    a = Checkpoint(level=1, snapshots=(_snapshot(16),))
    b = Checkpoint(level=2, snapshots=(_snapshot(16), _snapshot(16)))
    store.save(a)
    store.save(b)  # replaces a: buddy memory holds exactly one
    assert store.taken == 2
    assert store.bytes_written == a.total_bytes + b.total_bytes
    assert store.raw_bytes == b.total_bytes
    assert store.storage_bytes == 2 * b.total_bytes  # full buddy copy
    assert store.restore() is b
    assert store.restore() is b  # restore does not consume
    assert store.restored == 2


def test_buddy_drop_holder_destroys_the_single_copy():
    store = CheckpointStore()
    assert store.drop_holder(3) == 0  # nothing saved yet: no-op
    store.save(Checkpoint(level=1, snapshots=(_snapshot(16),)))
    assert store.drop_holder(3) == 1
    assert store.shards_lost == 1
    assert store.storage_bytes == 0
    assert store.raw_bytes == 0
    with pytest.raises(LookupError):
        store.restore()


def test_buddy_corruption_is_detected_but_unrepairable():
    store = CheckpointStore()
    rng = np.random.default_rng(0)
    assert store.corrupt_shard(2, rng) is False  # empty store: no-op
    store.save(Checkpoint(level=1, snapshots=(_snapshot(16),)))
    assert store.corrupt_shard(2, rng) is True
    assert store.shards_corrupted == 1
    assert store.shards_lost == 0  # counted as corruption, not loss
    with pytest.raises(LookupError):
        store.restore()


# --- the shared store surface -------------------------------------------------
def test_buddy_save_and_recover_report_one_node_sized_transfer():
    ckpt = Checkpoint(
        level=1, snapshots=tuple(_snapshot(n) for n in (16, 64, 32, 8))
    )
    store = CheckpointStore()
    assert not store.has_checkpoint
    assert store.save(ckpt) == StoreIO(1, ckpt.max_node_bytes)
    assert store.has_checkpoint
    restored, io = store.recover(frozenset({0, 2}))
    assert restored is ckpt
    assert io == StoreIO(1, ckpt.max_node_bytes, rebuilt=0)


def test_buddy_recover_refuses_a_crashed_buddy_pair():
    """Ranks 2 and 3 hold each other's only copy; with an odd node count
    the last rank's buddy is the previous rank."""
    store = CheckpointStore()
    store.save(Checkpoint(level=1, snapshots=(_snapshot(8),) * 4))
    with pytest.raises(ReproError, match="node 2 and its buddy 3"):
        store.recover(frozenset({1, 2, 3}))
    assert store.restored == 0
    store.save(Checkpoint(level=2, snapshots=(_snapshot(8),) * 3))
    with pytest.raises(ReproError, match="node 0 and its buddy 1"):
        store.recover(frozenset({0, 1}))
    with pytest.raises(ReproError, match="node 2 and its buddy 1"):
        store.recover(frozenset({1, 2}))  # buddy(2) == 1 on three nodes


def test_buddy_scrub_checks_nothing():
    """No per-shard checksums: a scrub pass reads and repairs nothing."""
    store = CheckpointStore()
    store.save(Checkpoint(level=1, snapshots=(_snapshot(8),) * 2))
    assert store.scrub() == (0, 0)
    assert store.holder_bytes(0) == 0

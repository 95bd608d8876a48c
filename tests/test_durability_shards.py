"""Shard serialisation, placement rules, and the sharded store.

Placement is where the durability guarantee becomes a *combinatorial*
claim — never the owner, never its buddy, all-distinct, rack-aware — so
these tests check the rules over every owner of several cluster shapes
rather than a hand-picked example. The store tests then drive the save /
fault / scrub / restore lifecycle directly, without the BFS driver.
"""

import numpy as np
import pytest

from repro.durability import (
    RSCode,
    ShardedCheckpointStore,
    ShardPlacement,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.errors import ConfigError, ReproError
from repro.resilience.checkpoint import Checkpoint, NodeSnapshot


def _snapshot(n_local: int, frontier=(), seed=0):
    rng = np.random.default_rng(seed)
    parent = rng.integers(-1, 1000, size=n_local, dtype=np.int64)
    mask = np.zeros(n_local, dtype=bool)
    mask[list(frontier)] = True
    return NodeSnapshot(
        parent=parent, curr=np.flatnonzero(mask), curr_mask=mask
    )


# --- serialisation ------------------------------------------------------------
@pytest.mark.parametrize("n_local", [1, 7, 8, 9, 64, 129])
def test_snapshot_roundtrip_odd_sizes(n_local):
    frontier = tuple(range(0, n_local, 3))
    snap = _snapshot(n_local, frontier, seed=n_local)
    buf = snapshot_to_bytes(snap)
    assert len(buf) == snap.nbytes  # serialisation matches the cost model
    back = snapshot_from_bytes(buf, n_local)
    assert np.array_equal(back.parent, snap.parent)
    assert np.array_equal(back.curr, snap.curr)
    assert np.array_equal(back.curr_mask, snap.curr_mask)


def test_snapshot_roundtrip_empty_frontier():
    snap = _snapshot(40)
    back = snapshot_from_bytes(snapshot_to_bytes(snap), 40)
    assert back.curr.size == 0
    assert np.array_equal(back.parent, snap.parent)


def test_snapshot_serialise_rejects_inconsistent_frontier():
    bad = NodeSnapshot(
        parent=np.zeros(8, dtype=np.int64),
        curr=np.array([3], dtype=np.int64),
        curr_mask=np.zeros(8, dtype=bool),  # disagrees with curr
    )
    with pytest.raises(ReproError, match="disagree"):
        snapshot_to_bytes(bad)


def test_snapshot_deserialise_rejects_short_buffer():
    with pytest.raises(ConfigError, match="too short"):
        snapshot_from_bytes(np.zeros(10, dtype=np.uint8), n_local=8)


# --- placement ----------------------------------------------------------------
@pytest.mark.parametrize(
    "num_nodes,nps,k,m",
    [(8, 4, 4, 2), (8, 2, 4, 2), (16, 4, 4, 2), (12, 3, 6, 2), (9, 4, 4, 2)],
)
def test_placement_rules_hold_for_every_owner(num_nodes, nps, k, m):
    plc = ShardPlacement(
        num_nodes=num_nodes,
        nodes_per_super_node=nps,
        data_shards=k,
        parity_shards=m,
    )
    for owner in range(num_nodes):
        holders = plc.holders(owner)
        assert len(holders) == k + m
        assert len(set(holders)) == k + m  # all distinct
        assert owner not in holders  # never the owner
        assert ShardPlacement.buddy(owner, num_nodes) not in holders
        # Rack-aware: no supernode hosts a second shard until every
        # supernode with eligible nodes hosts its first.
        racks = [h // nps for h in holders]
        eligible_racks = {
            r // nps
            for r in range(num_nodes)
            if r not in (owner, ShardPlacement.buddy(owner, num_nodes))
        }
        first_lap = racks[: len(eligible_racks)]
        assert len(set(first_lap)) == len(first_lap)


def test_placement_is_deterministic():
    plc = ShardPlacement(8, 4, 4, 2)
    assert plc.holders(3) == plc.holders(3)


def test_buddy_pairing():
    assert ShardPlacement.buddy(0, 8) == 1
    assert ShardPlacement.buddy(1, 8) == 0
    assert ShardPlacement.buddy(6, 7) == 5  # pair falls off the end


def test_placement_rejects_too_few_nodes():
    with pytest.raises(ConfigError, match="needs >= 8 nodes"):
        ShardPlacement(num_nodes=7, nodes_per_super_node=4,
                       data_shards=4, parity_shards=2)


# --- the sharded store --------------------------------------------------------
def _store(num_nodes=8, k=4, m=2, nps=4):
    return ShardedCheckpointStore(
        RSCode(k, m),
        ShardPlacement(num_nodes=num_nodes, nodes_per_super_node=nps,
                       data_shards=k, parity_shards=m),
    )


def _checkpoint(num_nodes=8, n_local=32, level=2):
    snaps = tuple(
        _snapshot(n_local, frontier=(owner % n_local,), seed=owner)
        for owner in range(num_nodes)
    )
    return Checkpoint(level=level, snapshots=snaps, policy_state=("td", 1))


def _assert_checkpoints_equal(a, b):
    assert a.level == b.level
    assert a.policy_state == b.policy_state
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.parent, sb.parent)
        assert np.array_equal(sa.curr, sb.curr)
        assert np.array_equal(sa.curr_mask, sb.curr_mask)


def test_store_restore_always_decodes_bit_identically():
    store = _store()
    ckpt = _checkpoint()
    store.save(ckpt)
    assert store.has_checkpoint and store.last.level == 2
    _assert_checkpoints_equal(store.restore(), ckpt)


def test_store_storage_overhead_is_rs_not_buddy():
    store = _store()
    ckpt = _checkpoint()
    store.save(ckpt)
    ratio = store.storage_bytes / store.raw_bytes
    assert ratio < 1.6  # acceptance bound; exact is ~(k+m)/k with padding
    assert ratio >= 6 / 4 - 0.01
    assert store.raw_bytes == ckpt.total_bytes


def test_restore_from_empty_store_raises_lookup():
    with pytest.raises(LookupError, match="no checkpoint"):
        _store().restore()


def test_survives_any_two_holder_losses():
    ckpt = _checkpoint()
    for a in range(8):
        for b in range(a + 1, 8):
            store = _store()
            store.save(ckpt)
            lost = store.drop_holder(a) + store.drop_holder(b)
            assert store.shards_lost == lost
            _assert_checkpoints_equal(store.restore(), ckpt)


def test_restore_heals_lost_shards_back_onto_live_holders():
    store = _store()
    ckpt = _checkpoint()
    store.save(ckpt)
    baseline = store.storage_bytes
    store.drop_holder(5)
    assert store.storage_bytes < baseline
    store.restore()
    assert store.storage_bytes == baseline  # healed in the same pass
    assert store.shards_rebuilt > 0
    assert store.holder_bytes(5) > 0


def test_restore_skips_dead_holders_when_healing():
    store = _store()
    store.save(_checkpoint())
    store.drop_holder(5)
    store.restore(dead=frozenset({5}))
    assert store.holder_bytes(5) == 0  # no disk to write to yet
    store.restore()  # 5 is back: this pass re-covers it
    assert store.holder_bytes(5) > 0


def test_more_than_m_losses_is_unrecoverable():
    store = _store()
    store.save(_checkpoint())
    # Find three holders sharing one owner's group.
    holders = store.placement.holders(0)[:3]
    for rank in holders:
        store.drop_holder(rank)
    with pytest.raises(ReproError, match="unrecoverable checkpoint"):
        store.restore()


def test_scrub_detects_and_repairs_corruption():
    store = _store()
    ckpt = _checkpoint()
    store.save(ckpt)
    rng = np.random.default_rng(5)
    assert store.corrupt_shard(2, rng) is True
    checked, repaired = store.scrub()
    assert repaired == 1
    assert store.scrub_repairs == 1
    assert store.shards_corrupted == 1
    # CRCs are whole again and the data decodes clean.
    checked2, repaired2 = store.scrub()
    assert repaired2 == 0
    _assert_checkpoints_equal(store.restore(), ckpt)


def test_scrub_repairs_missing_shards_from_survivors():
    store = _store()
    ckpt = _checkpoint()
    store.save(ckpt)
    lost = store.drop_holder(1)
    _, repaired = store.scrub()
    assert repaired == lost
    _assert_checkpoints_equal(store.restore(), ckpt)


def test_scrub_leaves_hopeless_groups_for_restore():
    store = _store()
    store.save(_checkpoint())
    for rank in store.placement.holders(0)[:3]:
        store.drop_holder(rank)
    checked, repaired = store.scrub()  # must not raise
    with pytest.raises(ReproError):
        store.restore()


def test_corrupt_shard_on_empty_holder_is_noop():
    store = _store()
    assert store.corrupt_shard(3, np.random.default_rng(0)) is False


def test_save_replaces_previous_checkpoint():
    store = _store()
    first = _checkpoint(level=1)
    second = _checkpoint(level=4)
    store.save(first)
    written = store.bytes_written
    store.save(second)
    assert store.taken == 2
    assert store.last.level == 4
    assert store.bytes_written == 2 * written  # same-shaped checkpoints
    _assert_checkpoints_equal(store.restore(), second)


def test_store_rejects_mismatched_code_and_placement():
    with pytest.raises(ConfigError, match="disagree"):
        ShardedCheckpointStore(
            RSCode(4, 2),
            ShardPlacement(num_nodes=10, nodes_per_super_node=4,
                           data_shards=4, parity_shards=4),
        )

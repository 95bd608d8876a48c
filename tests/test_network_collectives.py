"""Collective-operation tests: correctness and timing sanity."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.machine.specs import TAIHULIGHT
from repro.network import SimCluster
from repro.network.collectives import (
    Collectives,
    allgather_seconds,
    allreduce_seconds,
)
from repro.sim import Engine


def make(n=8, nps=4):
    eng = Engine()
    cluster = SimCluster(eng, n, TAIHULIGHT, nodes_per_super_node=nps)
    return Collectives(cluster)


def test_broadcast_reaches_everyone():
    coll = make(8)
    values, t = coll.broadcast(3, {"payload": 42})
    assert values == [{"payload": 42}] * 8
    assert t > 0


def test_broadcast_from_every_root():
    for root in range(5):
        coll = make(5)
        values, _ = coll.broadcast(root, root * 10)
        assert values == [root * 10] * 5


def test_broadcast_takes_log_stages():
    """Binomial broadcast latency grows ~log2(P), not linearly."""
    t8 = make(8)
    _, time8 = t8.broadcast(0, 1)
    t64 = make(64, nps=16)
    _, time64 = t64.broadcast(0, 1)
    assert time64 < time8 * 4  # 8x ranks, ~2x stages


def test_reduce_sums_contributions():
    coll = make(8)
    total, t = coll.reduce(0, list(range(8)), lambda a, b: a + b)
    assert total == sum(range(8))
    assert t > 0


def test_reduce_to_nonzero_root():
    coll = make(6)
    total, _ = coll.reduce(4, [2] * 6, lambda a, b: a + b)
    assert total == 12


def test_allreduce_power_of_two_uses_recursive_doubling():
    coll = make(8)
    values, _ = coll.allreduce([1] * 8, lambda a, b: a + b)
    assert values == [8] * 8


def test_allreduce_non_power_of_two_falls_back():
    coll = make(6)
    values, _ = coll.allreduce(list(range(6)), lambda a, b: a + b)
    assert values == [15] * 6


def test_allreduce_max():
    coll = make(4)
    values, _ = coll.allreduce([3, 9, 1, 7], max)
    assert values == [9] * 4


def test_allgather_ring_collects_everything():
    coll = make(5)
    gathered, t = coll.allgather([f"seg{r}" for r in range(5)])
    for r, got in enumerate(gathered):
        assert sorted(got) == [f"seg{i}" for i in range(5)]
    assert t > 0


def test_allgather_with_arrays():
    coll = make(4)
    segs = [np.arange(3) + 10 * r for r in range(4)]
    gathered, _ = coll.allgather(segs)
    stacked = np.sort(np.concatenate(gathered[0]))
    assert np.array_equal(stacked, np.sort(np.concatenate(segs)))


def test_validation():
    coll = make(4)
    with pytest.raises(ConfigError):
        coll.reduce(0, [1, 2], lambda a, b: a + b)
    with pytest.raises(ConfigError):
        coll.allgather([1, 2, 3])
    with pytest.raises(ConfigError):
        coll.broadcast(99, 1)


def test_allreduce_time_close_to_analytic_charge():
    """The driver's analytic allreduce charge should be the right order of
    magnitude next to an executed recursive doubling."""
    coll = make(16, nps=4)
    _, t = coll.allreduce([1] * 16, lambda a, b: a + b)
    spec = TAIHULIGHT.taihulight
    analytic = math.ceil(math.log2(16)) * (
        spec.inter_super_node_latency + spec.message_overhead
    )
    assert analytic / 5 < t < analytic * 10


def test_analytic_collective_charges():
    spec = TAIHULIGHT.taihulight
    hop = spec.inter_super_node_latency + spec.message_overhead
    assert allreduce_seconds(1, spec) == 0.0
    assert allgather_seconds(1, 64, spec) == 0.0
    assert allreduce_seconds(5, spec) == 3 * hop
    assert allgather_seconds(4, 64, spec) == (
        2 * hop + 64 * 4 / spec.nic_effective_bandwidth
    )

"""Checkpointed-recovery tests: crashes, stragglers, dead letters, suite
degradation."""

import numpy as np
import pytest

from repro.core import BFSConfig, DistributedBFS
from repro.errors import SimulatedCrash, SimulationError
from repro.graph import CSRGraph, KroneckerGenerator
from repro.graph500.runner import Graph500Runner
from repro.graph500.validate import validate_bfs_result
from repro.network.simmpi import SimCluster
from repro.resilience import ResilienceConfig
from repro.sim.engine import Engine
from repro.sim.faults import (
    NodeFaultInjector,
    NodeFaultPlan,
    RandomFaultInjector,
    RandomFaultPlan,
)

CFG = BFSConfig(hub_count_topdown=16, hub_count_bottomup=16)


def make_bfs(seed=41, resilience=None):
    edges = KroneckerGenerator(scale=10, seed=seed).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    bfs = DistributedBFS(
        edges, 8, config=CFG, nodes_per_super_node=4, resilience=resilience
    )
    return edges, graph, root, bfs


def test_crash_without_checkpoint_raises():
    _, _, root, bfs = make_bfs(
        resilience=ResilienceConfig(reliable_transport=True)
    )
    NodeFaultInjector(bfs.cluster, NodeFaultPlan(crash_at={3: 1e-4}))
    with pytest.raises(SimulatedCrash):
        bfs.run(root)


def test_crash_recovers_from_checkpoint():
    """The acceptance scenario: a mid-traversal node crash rewinds to the
    last level checkpoint and finishes with a tree identical to the
    fault-free run."""
    edges, graph, root, clean_bfs = make_bfs()
    clean = clean_bfs.run(root)
    res = ResilienceConfig(reliable_transport=True, checkpoint_interval=1)
    _, _, _, bfs = make_bfs(resilience=res)
    NodeFaultInjector(bfs.cluster, NodeFaultPlan(crash_at={3: 1e-4}))
    result = bfs.run(root)
    assert result.stats["recoveries"] == 1
    assert result.stats["checkpoints"] >= 1
    validate_bfs_result(graph, edges, root, result.parent)
    assert np.array_equal(result.parent, clean.parent)
    assert np.array_equal(result.depths(), clean.depths())
    # Recovery replays levels: strictly slower than the clean run.
    assert result.sim_seconds > clean.sim_seconds


def test_crash_recovery_with_sparse_checkpoints():
    """checkpoint_interval > 1 still recovers — just replays more levels."""
    edges, graph, root, clean_bfs = make_bfs()
    clean = clean_bfs.run(root)
    res = ResilienceConfig(reliable_transport=True, checkpoint_interval=3)
    _, _, _, bfs = make_bfs(resilience=res)
    NodeFaultInjector(bfs.cluster, NodeFaultPlan(crash_at={5: 2e-4}))
    result = bfs.run(root)
    assert result.stats["recoveries"] == 1
    validate_bfs_result(graph, edges, root, result.parent)
    assert np.array_equal(result.depths(), clean.depths())


def test_crash_recovery_deterministic_replay():
    def one_run():
        res = ResilienceConfig(
            reliable_transport=True, checkpoint_interval=2, seed=9
        )
        _, _, root, bfs = make_bfs(resilience=res)
        NodeFaultInjector(bfs.cluster, NodeFaultPlan(crash_at={2: 1.5e-4}))
        RandomFaultInjector(
            bfs.cluster, RandomFaultPlan(drop_rate=0.01, seed=13)
        )
        return bfs.run(root)

    a, b = one_run(), one_run()
    assert a.stats == b.stats
    assert a.sim_seconds == b.sim_seconds
    assert np.array_equal(a.parent, b.parent)
    assert a.stats["recoveries"] == 1


def test_straggler_slows_but_stays_correct():
    edges, graph, root, clean_bfs = make_bfs()
    clean = clean_bfs.run(root)
    _, _, _, bfs = make_bfs()
    NodeFaultInjector(bfs.cluster, NodeFaultPlan(stragglers={2: 8.0}))
    result = bfs.run(root)
    assert result.sim_seconds > clean.sim_seconds
    validate_bfs_result(graph, edges, root, result.parent)
    assert np.array_equal(result.depths(), clean.depths())


def test_node_fault_plan_validation():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        NodeFaultPlan(stragglers={0: 0.5})  # factor must be >= 1
    with pytest.raises(ConfigError):
        NodeFaultPlan(crash_at={1: -2.0})  # absolute time must be >= 0


def test_deregistered_rank_collects_dead_letters():
    engine = Engine()
    cluster = SimCluster(engine, num_nodes=4, track_connections=False)
    inbox = []
    for rank in range(4):
        cluster.register(rank, lambda m: inbox.append(m))

    cluster.send(0, 1, "fwd", 64)
    engine.run_until_quiescent()
    assert len(inbox) == 1

    cluster.deregister(1)
    assert not cluster.is_alive(1)
    assert cluster.dead_ranks() == frozenset({1})
    # Traffic *to* the dead rank: delivered nowhere, counted.
    cluster.send(0, 1, "fwd", 64)
    # Traffic *from* the dead rank (in-flight sends of a crashed node).
    cluster.send(1, 2, "fwd", 64)
    engine.run_until_quiescent()
    assert len(inbox) == 1
    assert cluster.stats.value("dead_letters") == 2

    # A replacement node takes the rank over.
    cluster.revive(1, lambda m: inbox.append(m))
    assert cluster.is_alive(1)
    cluster.send(0, 1, "fwd", 64)
    engine.run_until_quiescent()
    assert len(inbox) == 2


def test_unregistered_rank_still_raises():
    """Dead letters are only for *crashed* ranks; sending to a rank that
    never had a handler is still a simulation bug."""
    engine = Engine()
    cluster = SimCluster(engine, num_nodes=2, track_connections=False)
    cluster.register(0, lambda m: None)
    cluster.send(0, 1, "fwd", 8)
    with pytest.raises(SimulationError):
        engine.run_until_quiescent()


def test_engine_cancel_skips_without_advancing_clock():
    engine = Engine()
    fired = []
    engine.call_at(1.0, lambda: fired.append("a"))
    handle = engine.call_at(5.0, lambda: fired.append("b"))
    engine.call_at(2.0, lambda: fired.append("c"))
    engine.cancel(handle)
    engine.run_until_quiescent()
    assert fired == ["a", "c"]
    # The cancelled event at t=5 must not have advanced simulated time.
    assert engine.now == 2.0
    assert len(engine) == 0


def test_runner_skip_policy_records_failed_root():
    """An unrecoverable crash under on_root_failure="skip" becomes a failed
    RootRun row; the remaining roots still run and validate."""
    runner = Graph500Runner(
        scale=10,
        nodes=8,
        seed=41,
        config=CFG,
        nodes_per_super_node=4,
        resilience=ResilienceConfig(reliable_transport=True),
        node_faults=NodeFaultPlan(crash_at={3: 1e-4}),
        on_root_failure="skip",
    )
    report = runner.run(num_roots=3)
    assert len(report.runs) == 3
    failed = report.failed_runs
    assert len(failed) == 1
    assert failed[0].failure is not None and "crash" in failed[0].failure
    assert failed[0].teps == 0.0
    # Harmonic-mean stats exclude the failed root.
    assert len(report.successful_runs) == 2
    assert report.stats.gteps() > 0
    assert all(r.validated for r in report.successful_runs)
    assert "node_crashes" in report.extra
    # And the rendering paths handle the degraded report.
    assert "FAILED" in report.per_root_table()
    assert "1 root(s) FAILED" in report.summary()


@pytest.mark.parametrize("mode", ["buddy", "rs"])
@pytest.mark.parametrize(
    "crashed", [(0, 1), (0, 5)], ids=["buddy-pair", "unpaired"]
)
def test_two_crashes_recover_unless_a_buddy_pair_dies(mode, crashed):
    """Ranks 0 and 1 are each other's buddy: when both crash, both copies
    of each one's snapshot are gone and the buddy store cannot recover.
    RS(4, 2) never places a shard on the owner or its buddy, so it
    survives any two crashes."""
    edges, graph, root, bfs = make_bfs(
        resilience=ResilienceConfig(checkpoint_interval=1, checkpoint_mode=mode)
    )
    NodeFaultInjector(
        bfs.cluster, NodeFaultPlan(crash_at={rank: 1e-5 for rank in crashed})
    )
    if mode == "buddy" and crashed == (0, 1):
        with pytest.raises(SimulatedCrash, match="node 0 and its buddy 1"):
            bfs.run(root)
        return
    result = bfs.run(root)
    assert result.stats["recoveries"] == 1
    validate_bfs_result(graph, edges, root, result.parent)


def test_runner_abort_policy_raises():
    runner = Graph500Runner(
        scale=10,
        nodes=8,
        seed=41,
        config=CFG,
        nodes_per_super_node=4,
        resilience=ResilienceConfig(reliable_transport=True),
        node_faults=NodeFaultPlan(crash_at={3: 1e-4}),
        on_root_failure="abort",
    )
    with pytest.raises(SimulatedCrash):
        runner.run(num_roots=3)


def test_runner_checkpoint_recovery_end_to_end():
    """Runner + checkpoints: the crashing root recovers in-place instead of
    failing, and every root validates."""
    runner = Graph500Runner(
        scale=10,
        nodes=8,
        seed=41,
        config=CFG,
        nodes_per_super_node=4,
        resilience=ResilienceConfig(
            reliable_transport=True, checkpoint_interval=2
        ),
        node_faults=NodeFaultPlan(crash_at={3: 1e-4}),
        on_root_failure="skip",
    )
    report = runner.run(num_roots=3)
    assert len(report.failed_runs) == 0
    assert report.all_validated
    assert report.extra.get("recoveries") == 1
    assert report.extra.get("checkpoints", 0) >= 1

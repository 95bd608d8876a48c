"""Unit tests for the partitioned conservative-sync engine.

The parity suite (``tests/test_message_path_parity.py``) pins whole
traversals bit-identical across partition counts; this file tests the
PDES machinery itself — layout construction, lookahead derivation,
channel slack validation, lane routing, drain semantics, cancellation —
plus the base engine's cancelled-set boundedness, against small
hand-built scenarios where the expected answer is obvious.
"""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.machine.specs import TAIHULIGHT
from repro.network.cost import NetworkModel
from repro.network.simmpi import SimCluster
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Engine
from repro.sim.partition import (
    LookaheadTable,
    PartitionChannel,
    PartitionedEngine,
    PartitionLayout,
)
from repro.sim.stats import StatsRegistry


def _topology(num_nodes=16, nps=4):
    return FatTreeTopology(num_nodes=num_nodes, nodes_per_super_node=nps)


# --- layout -------------------------------------------------------------------
def test_layout_super_node_aligned_split():
    layout = PartitionLayout.build(_topology(16, 4), 2)  # 4 SNs >= 2 parts
    assert layout.aligned
    assert layout.bounds == (0, 8, 16)
    assert layout.part_of[0] == 0 and layout.part_of[7] == 0
    assert layout.part_of[8] == 1 and layout.part_of[15] == 1
    assert layout.span(0) == (0, 8)
    assert layout.span(1) == (8, 16)


def test_layout_uneven_super_node_split():
    # 3 partitions over 4 super nodes: 2+1+1 SNs, still aligned.
    layout = PartitionLayout.build(_topology(16, 4), 3)
    assert layout.aligned
    assert layout.bounds == (0, 8, 12, 16)


def test_layout_unaligned_fallback():
    # One 16-node super node cannot host 2 aligned partitions: even split.
    layout = PartitionLayout.build(_topology(16, 16), 2)
    assert not layout.aligned
    assert layout.bounds == (0, 8, 16)


def test_layout_clamps_excess_partitions():
    layout = PartitionLayout.build(_topology(4, 4), 64)
    assert layout.partitions == 4  # one node per partition at most
    assert layout.bounds == (0, 1, 2, 3, 4)


def test_layout_rejects_bad_bounds():
    with pytest.raises(ConfigError, match="bad partition bounds"):
        PartitionLayout(8, [0, 4], aligned=False)  # doesn't reach num_nodes
    with pytest.raises(ConfigError, match="empty partition"):
        PartitionLayout(8, [0, 4, 4, 8], aligned=False)


# --- lookahead ----------------------------------------------------------------
def test_lookahead_aligned_is_inter_super_node_latency():
    topo = _topology(16, 4)
    layout = PartitionLayout.build(topo, 2)
    table = LookaheadTable(layout, NetworkModel(topo, TAIHULIGHT))
    inter = TAIHULIGHT.taihulight.inter_super_node_latency
    assert table.lookahead(0, 1) == inter
    assert table.lookahead(1, 0) == inter
    assert table.lookahead(0, 0) == 0.0
    assert table.min_lookahead() == inter


def test_lookahead_unaligned_falls_back_to_intra_latency():
    topo = _topology(16, 16)  # one super node: every hop is intra-SN
    layout = PartitionLayout.build(topo, 2)
    table = LookaheadTable(layout, NetworkModel(topo, TAIHULIGHT))
    assert table.min_lookahead() == TAIHULIGHT.taihulight.intra_super_node_latency


def test_lookahead_single_partition_has_no_pairs():
    topo = _topology(16, 4)
    layout = PartitionLayout.build(topo, 1)
    table = LookaheadTable(layout, NetworkModel(topo, TAIHULIGHT))
    assert table.min_lookahead() == float("inf")


# --- channel ------------------------------------------------------------------
def test_channel_records_slack_and_pushes():
    ch = PartitionChannel(0, 1, lookahead=3e-6)
    ch.record(when=5e-6, send_time=1e-6)
    ch.record(when=4e-6, send_time=1e-6)
    assert ch.pushes == 2
    assert ch.min_slack == 3e-6


def test_channel_tolerates_exact_lookahead_rounding():
    ch = PartitionChannel(0, 1, lookahead=3e-6)
    t = 0.12345
    ch.record(when=t + 3e-6, send_time=t)  # one float add of rounding
    assert ch.pushes == 1


def test_channel_raises_on_lookahead_violation():
    ch = PartitionChannel(0, 1, lookahead=3e-6)
    with pytest.raises(SimulationError, match="below the derived lookahead"):
        ch.record(when=2e-6, send_time=1e-6)  # 1us slack < 3us window


# --- engine: run/clock semantics match the sequential spec --------------------
def _fill(engine):
    ran = []
    whens = [3e-6, 1e-6, 1e-6, 2e-6, 5e-6]
    for i, w in enumerate(whens):
        engine.call_at(w, ran.append, i)
    return ran


def test_partitioned_run_matches_engine_order_and_clock():
    base, part = Engine(), PartitionedEngine(2)
    ran_base, ran_part = _fill(base), _fill(part)
    assert base.run() == part.run()
    assert ran_base == ran_part == [1, 2, 3, 0, 4]
    assert base.events_executed == part.events_executed == 5


def test_partitioned_run_until_semantics():
    base, part = Engine(), PartitionedEngine(2)
    ran_base, ran_part = _fill(base), _fill(part)
    # Clock lands exactly on until; the 5us event stays queued.
    assert base.run(until=4e-6) == part.run(until=4e-6) == 4e-6
    assert ran_base == ran_part
    assert len(part) == 1
    # until beyond the last event advances the drained clock to until.
    assert base.run(until=9e-6) == part.run(until=9e-6) == 9e-6
    assert len(part) == 0


def test_partitioned_run_max_events():
    part = PartitionedEngine(2)
    ran = _fill(part)
    part.run(max_events=2)
    assert ran == [1, 2]
    assert len(part) == 3
    part.run()
    assert ran == [1, 2, 3, 0, 4]


def test_partitioned_step_and_quiescence():
    part = PartitionedEngine(2)
    ran = _fill(part)
    assert part.step()
    assert ran == [1]
    part.run_until_quiescent()
    assert len(part) == 0
    with pytest.raises(SimulationError, match="still active"):
        part.call_at(part.now + 1.0, ran.append, 9)
        part.run_until_quiescent(max_events=0)


def test_partitioned_rejects_past_and_reentry():
    part = PartitionedEngine(2)
    part.call_at(1e-6, lambda: None)
    part.run()
    with pytest.raises(SimulationError, match="before now"):
        part.call_at(0.0, lambda: None)

    def reenter():
        part.run()

    part.call_at(part.now + 1e-6, reenter)
    with pytest.raises(SimulationError, match="not reentrant"):
        part.run()


def test_partitioned_schedule_batch_contiguous_handles():
    base, part = Engine(), PartitionedEngine(2)
    ran_base, ran_part = [], []
    whens = [3e-6, 1e-6, 1e-6, 2e-6]
    argses = [(i,) for i in range(4)]
    hb = base.schedule_batch(whens, ran_base.append, argses)
    hp = part.schedule_batch(whens, ran_part.append, argses)
    assert list(hb) == list(hp) == [0, 1, 2, 3]
    base.run()
    part.run()
    assert ran_base == ran_part
    with pytest.raises(SimulationError, match="equal lengths"):
        part.schedule_batch([1.0], lambda: None, [])


# --- engine: cancellation ------------------------------------------------------
def test_partitioned_cancel_pending_event():
    part = PartitionedEngine(2)
    ran = []
    keep = part.call_at(1e-6, ran.append, "keep")
    drop = part.call_at(2e-6, ran.append, "drop")
    part.cancel(drop)
    assert len(part) == 1
    part.run()
    assert ran == ["keep"]
    assert part.now == 1e-6  # cancelled event never advances the clock


def test_partitioned_cancel_executed_handle_is_noop():
    part = PartitionedEngine(2)
    handle = part.call_at(1e-6, lambda: None)
    part.run()
    part.cancel(handle)  # tolerated: ack paths race the timers they guard
    assert len(part) == 0
    with pytest.raises(SimulationError, match="unknown event handle"):
        part.cancel(10_000)


def test_partitioned_cancel_from_inside_callback():
    part = PartitionedEngine(2)
    ran = []
    timer = part.call_at(5e-6, ran.append, "timer")
    part.call_at(1e-6, lambda: part.cancel(timer))
    part.run()
    assert ran == []
    assert len(part) == 0


# --- base engine: cancelled-set boundedness (regression) ----------------------
def test_engine_cancelled_set_stays_bounded_across_runs():
    """Cancelling already-fired handles (the ack-vs-timer race pattern)
    must not leak marks run over run: the quiescent sweep reclaims them."""
    engine = Engine()
    for round_idx in range(50):
        handle = engine.call_at(engine.now + 1e-6, lambda: None)
        engine.run()
        engine.cancel(handle)  # fires first, cancel races in afterwards
        assert len(engine._cancelled) <= 1
    engine.call_at(engine.now + 1e-6, lambda: None)
    engine.run()
    assert len(engine._cancelled) == 0


def test_engine_cancel_purges_marks_at_queue_head():
    engine = Engine()
    handles = [engine.call_at(1e-6 * (i + 1), lambda: None) for i in range(8)]
    for h in handles:  # cancel in heap order: every mark purges eagerly
        engine.cancel(h)
    assert len(engine._cancelled) == 0
    assert len(engine._queue) == 0


def test_engine_step_clears_cancelled_when_drained():
    engine = Engine()
    handle = engine.call_at(1e-6, lambda: None)
    assert engine.step()
    engine.call_at(2e-6, lambda: None)
    engine.cancel(handle)  # stale mark; head (seq 1) is live so no purge
    assert engine.step()
    assert not engine.step()  # drained: quiescent sweep reclaims the mark
    assert len(engine._cancelled) == 0


# --- lane routing through a real cluster --------------------------------------
def _attached(partitions=2, num_nodes=16, nps=4):
    engine = PartitionedEngine(partitions)
    cluster = SimCluster(engine, num_nodes, nodes_per_super_node=nps)
    engine.attach_cluster(cluster)
    for rank in range(num_nodes):
        cluster.register(rank, lambda msg: None)
    return engine, cluster


def test_attach_cluster_builds_channels_and_layout():
    engine, _ = _attached(partitions=2)
    assert engine.layout is not None and engine.layout.aligned
    assert len(engine._channels) == 2  # both ordered pairs of 2 partitions
    inter = TAIHULIGHT.taihulight.inter_super_node_latency
    assert engine.lookahead.lookahead(0, 1) == inter


def test_cross_partition_sends_flow_through_channels():
    engine, cluster = _attached(partitions=2)
    cluster.send(0, 12, "t", 64)  # partition 0 -> partition 1
    cluster.send(12, 0, "t", 64)  # and back
    cluster.send(1, 2, "t", 64)  # intra-partition: no channel traffic
    engine.run()
    report = engine.partition_report()
    per_pair = {(c["src"], c["dst"]): c for c in report["channels"]}
    assert per_pair[(0, 1)]["pushes"] >= 1
    assert per_pair[(1, 0)]["pushes"] >= 1
    for c in report["channels"]:
        if c["pushes"]:
            assert c["min_slack"] >= c["lookahead"] * (1 - 1e-9)


def test_lane_routing_self_send_stays_on_compute_lane():
    engine, cluster = _attached(partitions=2)
    cluster.send(3, 3, "t", 64)  # self-send: no links, no fabric traffic
    engine.run()
    report = engine.partition_report()
    assert report["lane_events"]["fabric"] == 0
    assert report["lane_events"]["compute"][0] > 0
    assert report["lane_events"]["compute"][1] == 0


def test_lane_routing_remote_send_uses_fabric_lane():
    engine, cluster = _attached(partitions=2)
    cluster.send(0, 9, "t", 64)
    engine.run()
    report = engine.partition_report()
    assert report["lane_events"]["fabric"] >= 1  # the link admission
    assert report["lane_events"]["compute"][1] >= 1  # the delivery
    assert report["drains"] >= 1
    assert report["longest_drain"] >= 1


def test_unregistered_callbacks_ride_the_control_lane():
    engine, _ = _attached(partitions=2)
    ran = []
    engine.call_at(engine.now + 1e-6, ran.append, 1)
    engine.run()
    assert ran == [1]
    assert engine.partition_report()["lane_events"]["control"] >= 1


def test_partitioned_engine_rejects_zero_partitions():
    with pytest.raises(ConfigError, match="at least one partition"):
        PartitionedEngine(0)


# --- drain edge cases: executed order equals the plain Engine's ---------------
class _Msg:
    """Minimal message shape for lane classification; ``seq`` is the
    handle its delivery event was scheduled under."""

    __slots__ = ("src", "dst", "send_time", "seq")

    def __init__(self, src, dst, send_time=0.0):
        self.src = src
        self.dst = dst
        self.send_time = send_time
        self.seq = -1


def _executed_order(engine, script):
    """Run ``script(schedule)`` and return the executed ``(when, seq,
    node)`` trace. ``schedule(when, node)`` schedules a delivery to
    ``node``; on the partitioned engine the callback is a registered
    delivery route, so it lands on that node's compute lane."""
    trace = []

    def deliver(msg):
        trace.append((engine.now, msg.seq, msg.dst))

    if isinstance(engine, PartitionedEngine):
        _cluster_on(engine)
        engine.register_delivery(deliver)

    def schedule(when, node):
        msg = _Msg(node, node)
        msg.seq = engine.call_at(when, deliver, msg)

    script(schedule)
    engine.run()
    assert len(engine) == 0
    return trace


def _cluster_on(engine, num_nodes=16, nps=4):
    cluster = SimCluster(engine, num_nodes, nodes_per_super_node=nps)
    if isinstance(engine, PartitionedEngine):
        engine.attach_cluster(cluster)
    return cluster


def _assert_order_matches_engine(script):
    engine = PartitionedEngine(2)
    trace = _executed_order(engine, script)
    assert trace == _executed_order(Engine(), script)
    return trace, engine


def test_simultaneous_lane_heads_run_in_schedule_order():
    """Heads on both compute lanes at one timestamp: the drain bound
    compares ``(when, seq)``, so the smaller handle runs first whichever
    lane holds it."""

    def lane1_first(schedule):
        schedule(1e-6, 8)  # lane 1, seq 0
        schedule(1e-6, 0)  # lane 0, seq 1

    trace, _ = _assert_order_matches_engine(lane1_first)
    assert trace == [(1e-6, 0, 8), (1e-6, 1, 0)]


def test_simultaneous_lane_heads_tie_after_a_run():
    """A run on one lane ends at a timestamp where three heads tie across
    both lanes: schedule order breaks the tie."""

    def tie_after_a_run(schedule):
        schedule(1e-6, 0)  # lane 0 runs alone first
        schedule(2e-6, 1)  # then three heads tie at 2us across both lanes
        schedule(2e-6, 8)
        schedule(2e-6, 9)

    trace, _ = _assert_order_matches_engine(tie_after_a_run)
    assert [(when, node) for when, _, node in trace] == [
        (1e-6, 0), (2e-6, 1), (2e-6, 8), (2e-6, 9),
    ]


def test_empty_compute_lane_with_pending_fabric_events():
    """A lane with no work must not stall the drain loop while the
    fabric still holds admissions destined for it."""

    def arrivals(engine):
        cluster = _cluster_on(engine)
        got = []
        for rank in range(16):
            cluster.register(rank, lambda msg, r=rank: got.append((engine.now, r)))
        cluster.send(0, 9, "t", 64)  # rides the fabric into empty lane 1
        engine.run()
        assert len(engine) == 0
        return got, engine.events_executed

    engine = PartitionedEngine(2)
    got, events = arrivals(engine)
    assert (got, events) == arrivals(Engine())
    assert [r for _, r in got] == [9]
    report = engine.partition_report()
    assert report["lane_events"]["fabric"] >= 1
    assert report["lane_events"]["compute"][1] >= 1


def test_drain_histogram_buckets_by_run_length():
    def script(schedule):
        # One run of 3 events on lane 0 (all below lane 1's head), then 1.
        for i in range(3):
            schedule(1e-6 + i * 1e-10, 0)
        schedule(1e-3, 8)

    _, engine = _assert_order_matches_engine(script)
    report = engine.partition_report()
    hist = report["drain_run_hist"]
    assert hist.get("2-3") == 1  # the 3-event run
    assert hist.get("1") == 1    # the singleton run
    assert sum(hist.values()) == report["drains"]


# --- stats: merge_counters -----------------------------------------------------
def test_merge_counters_folds_child_counts():
    parent, child = StatsRegistry(), StatsRegistry()
    parent.counter("messages").add(3)
    child.counter("messages").add(4)
    child.counter("bytes", link="uplink").add(100)
    parent.merge_counters(child)
    assert parent.counter("messages").value == 7
    assert parent.counter("bytes", link="uplink").value == 100

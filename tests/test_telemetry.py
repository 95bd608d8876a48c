"""Tests for repro.telemetry: metrics, spans, attribution, exporters.

Covers the label semantics of the unified registry, span nesting and
determinism across worker counts, the critical-path sweep's exact-sum
property, exporter output (golden structures), the null-recorder disabled
path, and the run-report attribution acceptance check on a real profiled
benchmark run.
"""

import json
import sys
import threading

import pytest

from repro.core.bfs import DistributedBFS
from repro.errors import ConfigError
from repro.graph.kronecker import KroneckerGenerator
from repro.graph500.runner import Graph500Runner
from repro.telemetry import (
    NullRecorder,
    SpanRecorder,
    Telemetry,
    analyze_critical_path,
    attribute_window,
    classify_resource,
)
from repro.telemetry.export import (
    interval_events,
    run_report,
    span_events,
    summary_csv,
    summary_markdown,
    to_chrome_trace,
)
from repro.telemetry.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.telemetry.profile import build_run_report


# --- labeled metrics ---------------------------------------------------------
def test_counter_labels_render_sorted_in_snapshot():
    reg = MetricsRegistry()
    reg.counter("messages_by_tag", tag="fwd").add(3)
    reg.counter("messages_by_tag", tag="bwd").add()
    reg.counter("plain").add(5)
    assert reg.snapshot() == {
        "messages_by_tag{tag=bwd}": 1.0,
        "messages_by_tag{tag=fwd}": 3.0,
        "plain": 5.0,
    }
    assert reg.value("messages_by_tag", tag="fwd") == 3.0
    assert reg.value("messages_by_tag", tag="nope") == 0.0
    assert reg.value("plain") == 5.0


def test_label_keys_sort_and_multiple_labels_render_stably():
    reg = MetricsRegistry()
    reg.counter("m", node="n1", module="fwd").add(2)
    # Same child regardless of keyword order.
    reg.counter("m", module="fwd", node="n1").add()
    assert reg.snapshot() == {"m{module=fwd,node=n1}": 3.0}


def test_family_label_keys_are_fixed():
    reg = MetricsRegistry()
    reg.counter("m", node=0)
    with pytest.raises(ConfigError, match="labels"):
        reg.counter("m", level=1)
    with pytest.raises(ConfigError, match="labels"):
        reg.counter("m")  # unlabeled use of a labeled family


def test_family_kind_is_fixed():
    reg = MetricsRegistry()
    reg.counter("depth")
    with pytest.raises(ConfigError, match="counter"):
        reg.gauge("depth")
    with pytest.raises(ConfigError, match="counter"):
        reg.histogram("depth")


def test_unlabeled_counter_is_resolved_once():
    reg = MetricsRegistry()
    c = reg.counter("messages")
    assert reg.counter("messages") is c
    c.add(4)
    assert reg.counters["messages"] is c  # back-compat bare-name view
    assert reg.snapshot() == {"messages": 4.0}


def test_gauge_set_add_max():
    reg = MetricsRegistry()
    g = reg.gauge("in_flight", node=2)
    g.set(5)
    g.add(-2)
    g.max(1)  # below current -> unchanged
    assert g.value == 3
    g.max(9)
    assert reg.value("in_flight", node=2) == 9


def test_histogram_buckets_and_mean():
    reg = MetricsRegistry()
    h = reg.histogram("latency", buckets=(1e-6, 1e-3, float("inf")))
    for v in (5e-7, 5e-7, 5e-4, 2.0):
        h.observe(v)
    assert h.counts == [2, 1, 1]
    assert h.count == 4
    assert h.mean() == pytest.approx((1e-6 + 5e-4 + 2.0) / 4)
    assert reg.value("latency") == 4.0  # snapshot value is the count
    with pytest.raises(ConfigError, match="ascend"):
        reg.histogram("bad", buckets=(1.0, 0.5))
    assert DEFAULT_BUCKETS[-1] == float("inf")


def test_concurrent_child_creation_yields_one_child_per_key():
    # The query service shares one registry between its event-loop thread
    # and its worker threads. Every thread races to create each "shared"
    # child in lockstep and owns one "own" child; a creation race that
    # forked a key into two children would drop the loser's increments.
    reg = MetricsRegistry()
    threads, rounds = 8, 300
    barrier = threading.Barrier(threads)
    seen: list[list[object]] = [[] for _ in range(threads)]

    def work(i: int) -> None:
        barrier.wait(timeout=30)
        for r in range(rounds):
            child = reg.counter("x", tenant=f"shared{r}")
            child.add()
            seen[i].append(child)
            reg.counter("x", tenant=f"own{i}").add()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)

    children = reg._families["x"].children
    assert len(children) == rounds + threads
    for r in range(rounds):
        child = children[(f"shared{r}",)]
        assert all(seen[i][r] is child for i in range(threads))
        assert child.value == threads
    for i in range(threads):
        assert reg.value("x", tenant=f"own{i}") == rounds


# --- spans -------------------------------------------------------------------
def test_span_open_close_nesting_and_queries():
    rec = SpanRecorder()
    run = rec.open("run", "run")
    root = rec.open("root 5", "root", parent=run, root=5)
    lvl = rec.record("level 1", "level", 1.0, 2.0, parent=root, level=1)
    rec.close(root, 0.5, 2.5, sim_seconds=2.0)
    rec.close(run, 0.0, 3.0)
    assert len(rec) == 3
    assert [s.name for s in rec.by_category("root")] == ["root 5"]
    assert [s.id for s in rec.children(root)] == [lvl]
    span = rec.spans[root]
    assert span.attrs == {"root": 5, "sim_seconds": 2.0}
    assert span.seconds == 2.0
    assert all(s.closed for s in rec.spans)


def test_span_recorder_rejects_bad_windows_and_parents():
    rec = SpanRecorder()
    sid = rec.open("x", "test")
    with pytest.raises(ConfigError, match="closes before it starts"):
        rec.close(sid, 2.0, 1.0)
    with pytest.raises(ConfigError, match="unknown parent"):
        rec.open("y", "test", parent=99)


def test_span_tree_filters_and_reparents():
    rec = SpanRecorder()
    run = rec.open("run", "run")
    root = rec.open("root 1", "root", parent=run)
    lvl = rec.open("level 1", "level", parent=root)
    rec.record("forward_generator", "module", 0.0, 1.0, parent=lvl)
    rec.record("message-batch", "batch", 0.0, 1.0, parent=lvl)
    for sid in (lvl, root, run):
        rec.close(sid, 0.0, 1.0)
    full = rec.tree()
    assert full[0]["name"] == "run"
    assert full[0]["children"][0]["children"][0]["name"] == "level 1"
    # Dropping the level category re-parents its children to the root.
    skeleton = rec.tree(categories={"run", "root", "module"})
    root_node = skeleton[0]["children"][0]
    assert [c["name"] for c in root_node["children"]] == ["forward_generator"]


def test_null_recorder_is_inert():
    rec = NullRecorder()
    assert rec.enabled is False
    assert rec.open("x", "y") == -1
    assert rec.record("x", "y", 0.0, 1.0) == -1
    rec.close(-1, 0.0, 1.0)  # no-op, no raise
    assert len(rec) == 0 and rec.spans == ()


def test_disabled_telemetry_is_null_configuration():
    tel = Telemetry(enabled=False)
    assert isinstance(tel.spans, NullRecorder)
    assert tel.record_intervals is False
    edges = KroneckerGenerator(scale=8, seed=3).generate()
    bfs = DistributedBFS(edges, 4, telemetry=tel)
    # attach_kernel is a no-op when disabled: no hooks installed anywhere.
    assert bfs.telemetry is None
    assert bfs.cluster.telemetry is None
    assert bfs.engine.telemetry is None
    assert all(s.pipeline.telemetry is None for s in bfs.states)
    result = bfs.run(1)
    assert result.levels > 0
    assert len(tel.spans) == 0


# --- critical-path attribution ------------------------------------------------
def test_classify_resource():
    assert classify_resource("node3.C1") == "relay"
    assert classify_resource("node0.M0") == "mpe"
    assert classify_resource("node0.M1") == "mpe"
    assert classify_resource("node2.C0") == "compute"
    assert classify_resource("node2.M2") == "compute"
    assert classify_resource("nic_out[5]") == "link"
    assert classify_resource("uplink[0]") == "link"


def test_attribute_window_equal_split_and_exact_sum():
    intervals = {
        "node0.C0": [(0.0, 4.0)],          # compute
        "node0.M0": [(2.0, 6.0)],          # mpe
        "nic_out[0]": [(2.0, 4.0)],        # link
    }
    seconds = attribute_window(intervals, 0.0, 8.0)
    # [0,2): compute alone; [2,4): three classes split 2s equally;
    # [4,6): mpe alone; [6,8): idle.
    assert seconds["compute"] == pytest.approx(2.0 + 2.0 / 3)
    assert seconds["mpe"] == pytest.approx(2.0 + 2.0 / 3)
    assert seconds["link"] == pytest.approx(2.0 / 3)
    assert seconds["relay"] == 0.0
    assert seconds["idle"] == pytest.approx(2.0)
    assert sum(seconds.values()) == pytest.approx(8.0, rel=1e-12)


def test_attribute_window_clips_to_window_and_handles_empty():
    intervals = {"node0.C0": [(0.0, 10.0)]}
    seconds = attribute_window(intervals, 2.0, 5.0)
    assert seconds["compute"] == pytest.approx(3.0)
    empty = attribute_window({}, 1.0, 2.0)
    assert empty["idle"] == pytest.approx(1.0)
    degenerate = attribute_window(intervals, 5.0, 5.0)
    assert sum(degenerate.values()) == 0.0


def test_analyze_critical_path_ranks_resources():
    intervals = {
        "node0.M0": [(0.0, 3.0)],
        "node0.C0": [(0.0, 1.0)],
        "node1.C1": [(1.0, 1.5)],
    }
    report = analyze_critical_path(intervals, [(1, 0.0, 2.0), (2, 2.0, 4.0)],
                                   top_k=2)
    assert [lv.level for lv in report.levels] == [1, 2]
    for lv in report.levels:
        assert lv.total() == pytest.approx(lv.duration, rel=1e-12)
    assert [r.name for r in report.top_resources] == ["node0.M0", "node0.C0"]
    assert report.top_resources[0].cls == "mpe"
    assert report.window == (0.0, 4.0)
    assert "level" in report.level_table()
    assert "node0.M0" in report.resource_table()


# --- exporters ---------------------------------------------------------------
def test_interval_events_golden():
    events = interval_events(
        {"node0.C0": [(1.0, 3.0)], "nic_out[2]": [(0.0, 2.0)]},
        time_scale=1.0,
    )
    assert events == [
        {"name": "nic_out[2]", "cat": "sim", "ph": "X", "ts": 0.0,
         "dur": 2.0, "pid": "network", "tid": "nic_out[2]"},
        {"name": "C0", "cat": "sim", "ph": "X", "ts": 1.0, "dur": 2.0,
         "pid": "node0", "tid": "C0"},
    ]


def test_span_events_skip_open_spans_and_carry_attrs():
    rec = SpanRecorder()
    a = rec.open("root 1", "root", root=1)
    rec.open("dangling", "root")  # never closed -> not exported
    rec.record("level 1", "level", 1e-6, 2e-6, parent=a, level=1)
    rec.close(a, 0.0, 3e-6)
    events = span_events(rec.spans)
    assert [e["name"] for e in events] == ["root 1", "level 1"]
    level = events[1]
    assert level["pid"] == "spans" and level["tid"] == "level"
    assert level["args"] == {"level": "1", "parent": "0"}


def test_chrome_trace_is_valid_json_envelope():
    rec = SpanRecorder()
    rec.record("root 0", "root", 0.0, 1e-6)
    doc = json.loads(
        to_chrome_trace({"node0.M0": [(0.0, 5e-7)]}, spans=rec.spans)
    )
    assert doc["displayTimeUnit"] == "ms"
    assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
    assert len(doc["traceEvents"]) == 2


def test_run_report_attribution_check_flags_drift():
    good = {
        "root": 1, "sim_seconds": 2.0,
        "levels": [], "attribution": [
            {"level": 1, "start": 0.0, "finish": 1.5,
             "seconds": {"compute": 1.0, "idle": 0.5}},
        ],
        "class_seconds": {}, "attributed_seconds": 2.0,
        "attribution_error": 0.0,
    }
    bad = dict(good, attribution_error=0.2)
    report = run_report({"scale": 9}, {"messages": 1.0}, [good])
    assert report["attribution_check"] == {
        "worst_relative_error": 0.0, "within_1pct": True,
    }
    report = run_report({"scale": 9}, {}, [good, bad])
    assert report["attribution_check"]["within_1pct"] is False
    assert report["attribution_check"]["worst_relative_error"] == 0.2


def test_summary_csv_and_markdown_shapes():
    entry = {
        "root": 3, "sim_seconds": 1.0,
        "levels": [{"level": 1}],
        "attribution": [],
        "class_seconds": {"compute": 0.25, "relay": 0.0, "mpe": 0.25,
                          "link": 0.0, "idle": 0.25, "control": 0.25},
        "attributed_seconds": 1.0, "attribution_error": 0.0,
    }
    report = run_report({}, {}, [entry])
    csv = summary_csv(report)
    header, row = csv.strip().split("\n")
    assert header.split(",")[:4] == ["root", "sim_seconds", "levels", "compute"]
    assert row.split(",")[0] == "3"
    md = summary_markdown(report)
    assert "| root |" in md and "within 1%: True" in md


# --- facade + kernel integration ----------------------------------------------
def _small_kernel(tel=None, nodes=4, scale=8):
    edges = KroneckerGenerator(scale=scale, seed=3).generate()
    return DistributedBFS(edges, nodes, telemetry=tel)


def test_attach_kernel_adopts_cluster_registry_and_migrates_counters():
    tel = Telemetry()
    tel.metrics.counter("preattach").add(7)
    bfs = _small_kernel(tel)
    assert tel.metrics is bfs.cluster.stats
    assert tel.metrics.value("preattach") == 7.0
    assert bfs.telemetry is tel
    assert bfs.engine.telemetry is tel
    assert bfs.cluster.telemetry is tel
    with pytest.raises(ConfigError, match="different kernel"):
        _small_kernel(tel)


def test_profiled_kernel_records_span_hierarchy_and_metrics():
    tel = Telemetry()
    bfs = _small_kernel(tel)
    result = bfs.run(1)
    roots = [s for s in tel.spans.by_category("root") if s.closed]
    assert len(roots) == 1
    assert roots[0].attrs["sim_seconds"] == result.sim_seconds
    levels = [s for s in tel.spans.by_category("level")]
    assert len(levels) == result.levels
    assert all(s.parent == roots[0].id for s in levels)
    for trace, span in zip(result.traces, levels):
        assert span.start == trace.start
        assert span.finish == trace.finish
        assert span.attrs["direction"] == trace.direction
    modules = tel.spans.by_category("module")
    assert modules and all(s.parent is not None for s in modules)
    snapshot = tel.metrics.snapshot()
    assert snapshot["engine_events"] > 0
    per_tag = sum(
        v for k, v in snapshot.items() if k.startswith("messages_by_tag{")
    )
    assert per_tag == snapshot["messages"]
    assert any(k.startswith("module_executions{") for k in snapshot)
    # Busy intervals were recorded for servers and links.
    intervals = tel.intervals()
    assert any("." in name for name in intervals)
    assert any("[" in name for name in intervals)
    doc = json.loads(tel.chrome_trace())
    assert len(doc["traceEvents"]) > len(tel.spans.spans)


def test_critical_path_from_level_spans_balances():
    tel = Telemetry()
    bfs = _small_kernel(tel)
    bfs.run(1)
    report = tel.critical_path()
    assert report.levels
    for lv in report.levels:
        assert lv.total() == pytest.approx(lv.duration, rel=1e-9)


def test_build_run_report_attribution_within_one_percent():
    tel = Telemetry()
    runner = Graph500Runner(scale=9, nodes=4, workers=1, telemetry=tel)
    bench = runner.run(num_roots=2)
    doc = build_run_report(tel, json.loads(bench.to_json()))
    assert doc["attribution_check"]["within_1pct"] is True
    assert len(doc["roots"]) == 2
    for entry in doc["roots"]:
        window_total = sum(
            row["finish"] - row["start"] for row in entry["attribution"]
        )
        attributed = sum(
            sum(row["seconds"].values()) for row in entry["attribution"]
        )
        assert attributed == pytest.approx(window_total, rel=1e-9)
        assert entry["class_seconds"]["control"] >= 0.0
        assert entry["sim_seconds"] >= window_total
    assert doc["critical_path"]["top_resources"]
    assert doc["spans"]["run"] == 1


def test_span_skeleton_deterministic_across_worker_counts():
    from repro.graph500.parallel import fork_available

    if not fork_available():  # pragma: no cover - platform dependent
        pytest.skip("needs fork")
    trees = []
    for workers in (1, 2):
        tel = Telemetry()
        runner = Graph500Runner(
            scale=9, nodes=4, validate="none", workers=workers, telemetry=tel
        )
        runner.run(num_roots=4)
        trees.append(tel.spans.tree(categories={"run", "root", "level"}))
    assert trees[0] == trees[1]


def test_runner_telemetry_disabled_records_nothing():
    tel = Telemetry(enabled=False)
    runner = Graph500Runner(scale=8, nodes=2, validate="none", telemetry=tel)
    runner.run(num_roots=1)
    assert len(tel.spans) == 0
    assert tel.metrics.snapshot() == {}

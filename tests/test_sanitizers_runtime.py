"""Runtime sanitizers: SPM write conflicts, payload mutation, link latency,
determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import BFSConfig
from repro.core.shuffle import ShufflePlan
from repro.errors import ReproError
from repro.graph500.runner import Graph500Runner
from repro.network.simmpi import Message, SimCluster
from repro.sanitizers import (
    MessageSanitizer,
    SanitizerViolation,
    SpmWriteSanitizer,
    check_determinism,
    payload_digest,
)
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, FaultPlan


# --- SPM write-conflict detector ----------------------------------------------
def test_spm_disjoint_claims_pass():
    san = SpmWriteSanitizer()
    san.begin_phase("p0")
    san.claim((0, 6), 0, 1024)
    san.claim((1, 6), 1024, 2048)
    san.claim((0, 6), 0, 1024)  # same CPE re-claiming its region is fine
    assert san.conflicts == []
    assert san.claims_checked == 3


def test_spm_overlap_between_cpes_raises():
    san = SpmWriteSanitizer()
    san.begin_phase("p0")
    san.claim((0, 6), 0, 1024)
    with pytest.raises(SanitizerViolation, match="SPM write conflict"):
        san.claim((1, 6), 512, 1536)
    assert isinstance(san.conflicts[0].phase, str)


def test_spm_violation_is_a_repro_error():
    assert issubclass(SanitizerViolation, ReproError)
    assert issubclass(SanitizerViolation, RuntimeError)


def test_spm_accumulate_mode_and_phase_reset():
    san = SpmWriteSanitizer(raise_on_violation=False)
    san.begin_phase("p0")
    san.claim((0, 6), 0, 1024)
    san.claim((1, 6), 0, 1024)
    assert len(san.conflicts) == 1
    # A new phase clears the claim table: the same region is claimable again.
    san.begin_phase("p1")
    san.claim((1, 6), 0, 1024)
    assert len(san.conflicts) == 1
    assert san.phases_checked == 2


def test_spm_empty_region_rejected():
    san = SpmWriteSanitizer()
    san.begin_phase("p0")
    with pytest.raises(SanitizerViolation, match="empty or negative"):
        san.claim((0, 6), 1024, 1024)


def test_spm_bucket_writes_clean_on_paper_plan():
    plan = ShufflePlan.from_config(BFSConfig(), 64)
    san = SpmWriteSanitizer()
    san.check_bucket_writes(plan, np.arange(64), phase="node0:fwd@0")
    assert san.conflicts == []
    assert san.phases_checked == 1
    assert san.claims_checked == 64


class _BrokenOwnershipPlan:
    """consumer_for flip-flops: two CPEs end up owning one slot's region."""

    staging_buffer_bytes = 1024
    num_destinations = 8

    def __init__(self):
        self.calls = 0

    def consumer_for(self, slot):
        self.calls += 1
        return (0, 6) if self.calls % 2 else (1, 6)


def test_spm_bucket_writes_catch_broken_ownership():
    san = SpmWriteSanitizer(raise_on_violation=False)
    # 0 and 8 alias to slot 0 -> same region, but the broken plan hands it
    # to two different consumers.
    san.check_bucket_writes(_BrokenOwnershipPlan(), [0, 8], phase="bad")
    assert len(san.conflicts) == 1
    assert "dest 8" in san.conflicts[0].second.label


# --- payload digests ----------------------------------------------------------
def test_payload_digest_stability_and_sensitivity():
    a = np.arange(8, dtype=np.int64)
    assert payload_digest(a) == payload_digest(a.copy())
    assert payload_digest(a) != payload_digest(a.astype(np.int32))
    assert payload_digest((a, 3)) == payload_digest((a.copy(), 3))
    assert payload_digest({"k": a}) != payload_digest({"k": a + 1})
    assert payload_digest(None) == payload_digest(None)
    b = a.copy()
    before = payload_digest(b)
    b[0] = 99
    assert payload_digest(b) != before


# --- message-mutation detector ------------------------------------------------
def _cluster_pair():
    engine = Engine()
    cluster = SimCluster(engine, num_nodes=2)
    delivered = []
    cluster.register(0, delivered.append)
    cluster.register(1, delivered.append)
    return engine, cluster, delivered


def test_message_sanitizer_clean_send():
    engine, cluster, delivered = _cluster_pair()
    san = MessageSanitizer(cluster)
    payload = np.arange(4)
    cluster.send(0, 1, "data", 32, payload)
    engine.run()
    assert len(delivered) == 1
    assert san.messages_checked == 1
    assert san.violations == []


def test_message_sanitizer_detects_mutation_after_send():
    engine, cluster, _ = _cluster_pair()
    MessageSanitizer(cluster)
    payload = np.arange(4)
    cluster.send(0, 1, "data", 32, payload)
    payload[0] = 99  # mutate the in-flight buffer
    with pytest.raises(SanitizerViolation, match="mutated after send"):
        engine.run()


def test_message_sanitizer_covers_batch_sends():
    engine, cluster, delivered = _cluster_pair()
    san = MessageSanitizer(cluster, raise_on_violation=False)
    payloads = [np.arange(3), np.arange(3)]
    cluster.send_batch(
        0, np.array([1, 1]), "batch", np.array([24, 24]), payloads
    )
    payloads[1][2] = -1
    engine.run()
    assert len(delivered) == 2
    assert san.messages_checked == 2
    assert len(san.violations) == 1
    assert "batch" in san.violations[0].render()


def test_message_sanitizer_uninstall_restores_cluster():
    engine, cluster, delivered = _cluster_pair()
    san = MessageSanitizer(cluster)
    san.uninstall()
    assert "_post" not in cluster.__dict__
    assert "_deliver" not in cluster.__dict__
    payload = np.arange(4)
    cluster.send(0, 1, "data", 32, payload)
    payload[0] = 99  # no longer watched
    engine.run()
    assert len(delivered) == 1
    assert san.messages_checked == 0


def test_message_sanitizer_keeps_batches_on_the_batch_path(monkeypatch):
    """The sanitizer hooks the send core, not ``send``: a sanitized batch
    is checked without a single per-message ``SimCluster.send`` call."""
    calls = []
    original_send = SimCluster.send

    def counting_send(self, *args, **kwargs):
        calls.append(args)
        return original_send(self, *args, **kwargs)

    monkeypatch.setattr(SimCluster, "send", counting_send)
    engine, cluster, delivered = _cluster_pair()
    san = MessageSanitizer(cluster)
    cluster.send_batch(0, [1, 1, 0, 1], "batch", [8, 8, 8, 8],
                       [np.arange(2) for _ in range(4)])
    engine.run()
    assert calls == []
    assert len(delivered) == 4
    assert san.messages_checked == 4


def test_message_sanitizer_never_digests_dropped_messages():
    """A dropped message never reaches the send core, so no digest of it
    is left behind for a later message to trip over."""
    engine, cluster, delivered = _cluster_pair()
    injector = FaultInjector(cluster, FaultPlan(drop={0, 2}))
    san = MessageSanitizer(cluster)
    cluster.send_batch(0, [1, 1, 1], "data", [8, 8, 8],
                       [np.arange(i + 1) for i in range(3)])
    engine.run()
    assert injector.dropped == 2
    assert len(delivered) == 1
    assert san.messages_checked == 1
    assert san._digests == {}


# --- link-latency check ------------------------------------------------------
def _two_super_nodes():
    engine = Engine()
    cluster = SimCluster(engine, num_nodes=8, nodes_per_super_node=4)
    delivered = []
    cluster.register(5, delivered.append)
    assert cluster.network.latency(0, 5) == 3e-6  # crosses the central switch
    return engine, cluster, delivered


def test_message_sanitizer_latency_clean_on_sanitized_run():
    # 16 nodes in 4 super nodes: both intra- and inter-super-node traffic.
    runner = Graph500Runner(
        scale=10, nodes=16, nodes_per_super_node=4, validate="none",
        sanitize=True,
    )
    report = runner.run(num_roots=2)
    assert report.extra["sanitizer_messages_checked"] > 0
    assert report.extra["sanitizer_mutations"] == 0


def test_message_sanitizer_rejects_delivery_before_link_latency():
    engine, cluster, _ = _two_super_nodes()
    MessageSanitizer(cluster)
    msg = Message(0, 5, "early", 64, None, 0.0, 1e-6)
    engine.call_at(1e-6, cluster._deliver, msg)  # 1us slack < 3us latency
    with pytest.raises(SanitizerViolation, match="below its link latency"):
        engine.run()


def test_message_sanitizer_accepts_delivery_at_exact_latency():
    engine, cluster, delivered = _two_super_nodes()
    san = MessageSanitizer(cluster)
    t = 0.3
    arrival = t + cluster.network.latency(0, 5)
    assert arrival - t < 3e-6  # the float add rounds the slack just below
    msg = Message(0, 5, "exact", 64, None, t, arrival)
    engine.call_at(arrival, cluster._deliver, msg)
    engine.run()
    assert delivered == [msg]
    assert san.violations == []


# --- determinism sanitizer ----------------------------------------------------
def test_check_determinism_passes_small_scale():
    result = check_determinism(
        scale=8, nodes=2, num_roots=2, runs=2, validate=True
    )
    assert result.ok, result.render()
    assert len(result.digests) == 2
    assert result.digests[0].report == result.digests[1].report
    assert "deterministic across 2 run(s)" in result.render()


def test_determinism_report_flags_mismatch():
    result = check_determinism(scale=8, nodes=2, num_roots=1, runs=2)
    result.digests[1].spans = "0" * 64
    result.mismatches.append("spans digest of run 1 differs from run 0")
    assert not result.ok
    assert "MISMATCH" in result.render()


# --- runner integration -------------------------------------------------------
def test_runner_sanitize_forces_sequential_and_reports_counters():
    runner = Graph500Runner(
        scale=8, nodes=2, validate="none", workers=4, sanitize=True
    )
    assert runner._effective_workers(num_roots=4) == 1
    report = runner.run(num_roots=2)
    assert report.extra["sanitizer_messages_checked"] > 0
    assert report.extra["sanitizer_mutations"] == 0
    assert report.extra["sanitizer_spm_phases"] > 0
    assert report.extra["sanitizer_spm_conflicts"] == 0


def test_runner_without_sanitize_has_no_counters():
    runner = Graph500Runner(scale=8, nodes=2, validate="none")
    report = runner.run(num_roots=1)
    assert "sanitizer_messages_checked" not in report.extra


def test_cli_sanitize_command(capsys):
    rc = main(
        ["sanitize", "--scale", "8", "--nodes", "2", "--roots", "1",
         "--no-validate"]
    )
    assert rc == 0
    assert "deterministic" in capsys.readouterr().out


def test_cli_graph500_sanitize_flag(capsys):
    rc = main(
        ["graph500", "--scale", "8", "--nodes", "2", "--roots", "1",
         "--sanitize"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sanitizer_messages_checked" in out

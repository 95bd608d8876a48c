"""Tests for :mod:`repro.analysis` — the interprocedural analyzer.

Covers the seeded violation corpus (every rule detected, stable
finding ids), determinism (two runs over ``src/repro`` render
byte-identical JSON), the clean-tree CI gate, baseline round-trips
(suppress -> clean -> un-suppress -> finding returns), effect
annotation plumbing, the REP109 bare-acquire lint, and SARIF output.
"""

import json
import os

import pytest

from repro.analysis import (
    ANALYSIS_RULES,
    analyze_paths,
    build_callgraph,
    declared_effects,
    effects,
    is_fast_lock,
    load_baseline,
    parse_effect_comment,
    write_baseline,
)
from repro.analysis.lockorder import LockEdge, analyze_locks, find_lock_cycles
from repro.cli import main
from repro.sanitizers import lint_source

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "data", "analysis_corpus")
SRC = os.path.abspath(os.path.join(HERE, "..", "src", "repro"))


def corpus_report():
    return analyze_paths([CORPUS])


# --- seeded corpus: every rule detected ---------------------------------------
def test_corpus_trips_every_interprocedural_rule():
    report = corpus_report()
    assert not report.ok
    rules = {f.rule for f in report.findings}
    assert rules == {"REP202", "REP203", "REP204"}


def test_corpus_lock_cycle_names_both_edges():
    report = corpus_report()
    rep202 = [f for f in report.findings if f.rule == "REP202"]
    assert len(rep202) == 1
    (finding,) = rep202
    assert "MirrorCatalog._lock" in finding.message
    assert "MirrorCache._lock" in finding.message
    assert finding.detail.startswith("cycle:")


def test_corpus_blocking_under_lock_direct_and_via_hop():
    report = corpus_report()
    rep203 = [f for f in report.findings if f.rule == "REP203"]
    assert len(rep203) == 2
    vias = {f.detail.rpartition(":")[2] for f in rep203}
    assert "blocking.FrontCatalog._flush" in vias  # the one-hop seed


def test_corpus_effect_mismatches_all_four_shapes():
    report = corpus_report()
    rep204 = [f for f in report.findings if f.rule == "REP204"]
    assert len(rep204) == 4
    messages = " | ".join(f.message for f in rep204)
    assert "declared pure but stores" in messages
    assert "declared pure but acquires a lock" in messages
    assert "declared locked:Ledger._lock" in messages
    assert "unknown effect 'frozen'" in messages


# --- finding ids: stable and line-independent ---------------------------------
def test_finding_ids_stable_across_runs():
    a = {f.fid for f in corpus_report().findings}
    b = {f.fid for f in corpus_report().findings}
    assert a == b
    assert all(len(fid) == 12 for fid in a)


def test_finding_id_survives_line_shifts(tmp_path):
    src = (
        "class Relay:\n"
        "    def _bump(self, msg):  # repro: effect=pure\n"
        "        self.delivered += 1\n"
    )
    p1 = tmp_path / "mod.py"
    p1.write_text(src)
    fids1 = [f.fid for f in analyze_paths([str(p1)]).findings]
    # Shift everything down: ids must not change (they hash content,
    # not line numbers).
    p1.write_text("# a comment\n# another\n\n" + src)
    fids2 = [f.fid for f in analyze_paths([str(p1)]).findings]
    assert fids1 == fids2 and fids1


# --- determinism: byte-identical double run over the real tree ----------------
def test_analyzer_json_byte_identical_over_src():
    first = analyze_paths([SRC]).to_json()
    second = analyze_paths([SRC]).to_json()
    assert first == second


def test_analyzer_sarif_byte_identical_over_corpus():
    assert corpus_report().to_sarif() == corpus_report().to_sarif()


# --- the repo itself is clean (the CI gate) -----------------------------------
def test_repo_sources_analyze_clean():
    report = analyze_paths([SRC])
    assert report.ok, report.render_text()
    assert report.checked_files > 90
    assert report.functions > 500


def test_repo_lock_pass_finds_catalog_kernel_edge_and_no_cycles():
    graph = build_callgraph([SRC])
    edges, cycles, blocking = analyze_locks(graph)
    assert cycles == []
    assert blocking == []
    pairs = {(e.held, e.acquired) for e in edges}
    assert ("GraphCatalog._lock", "CatalogEntry._kernel_lock") in pairs


# --- baseline round-trip ------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    report = corpus_report()
    assert not report.ok
    baseline_path = str(tmp_path / "analysis-baseline.json")
    write_baseline(baseline_path, report)

    # Suppressed: the same tree analyzes clean.
    baseline = load_baseline(baseline_path)
    suppressed = analyze_paths([CORPUS], baseline=baseline)
    assert suppressed.ok
    assert len(suppressed.baselined) == len(report.findings)
    assert suppressed.stale_baseline == ()

    # Un-suppress one finding: exactly that finding returns.
    doc = json.loads(open(baseline_path).read())
    removed = doc["suppress"].pop(0)
    partial = {e["id"]: e for e in doc["suppress"]}
    reanalyzed = analyze_paths([CORPUS], baseline=partial)
    assert not reanalyzed.ok
    assert [f.fid for f in reanalyzed.findings] == [removed["id"]]


def test_stale_baseline_entries_reported(tmp_path):
    baseline = {"deadbeef0000": {"id": "deadbeef0000", "rule": "REP202"}}
    report = analyze_paths([CORPUS], baseline=baseline)
    assert report.stale_baseline == ("deadbeef0000",)


def test_committed_baseline_is_empty():
    committed = os.path.join(HERE, "..", "analysis-baseline.json")
    assert load_baseline(committed) == {}


# --- effect annotation plumbing -----------------------------------------------
def test_effects_decorator_stamps_and_validates():
    @effects("pure", "locked:MetricsRegistry._create_lock")
    def fn():
        pass

    assert declared_effects(fn) == (
        "pure",
        "locked:MetricsRegistry._create_lock",
    )
    with pytest.raises(ValueError):
        effects("bogus")


def test_effect_comment_parsing():
    assert parse_effect_comment("def f():  # repro: effect=pure") == ("pure",)
    assert parse_effect_comment(
        "def f():  # repro: effect=pure, locked:A._lock"
    ) == ("pure", "locked:A._lock")
    assert parse_effect_comment("def f():") == ()


def test_noqa_suppresses_analysis_finding(tmp_path):
    src = (
        "class Relay:\n"
        "    def _bump(self):  # repro: effect=pure  # repro: noqa[REP204]\n"
        "        self.delivered += 1\n"
    )
    p = tmp_path / "mod.py"
    p.write_text(src)
    report = analyze_paths([str(p)])
    assert report.ok
    assert report.suppressed == 1


# --- fast-lock policy ---------------------------------------------------------
def test_fast_lock_policy():
    assert is_fast_lock("GraphCatalog._lock")
    assert is_fast_lock("ResultCache._lock")
    assert not is_fast_lock("CatalogEntry._kernel_lock")
    assert not is_fast_lock("ServiceClient._lock")  # not a Catalog/Cache
    assert not is_fast_lock("FairScheduler._cv")


def test_lock_cycle_detection_handles_smaller_out_of_cycle_neighbor():
    def edge(a, b):
        return LockEdge(a, b, "x.py", 1, "")

    # Cycle between B and C; A is a smaller-named neighbor of B that is
    # NOT part of the cycle — the DFS must still find B <-> C.
    edges = [edge("B", "A"), edge("B", "C"), edge("C", "B")]
    cycles = find_lock_cycles(edges)
    assert [locks for locks, _ in cycles] == [("B", "C")]


def test_self_loop_is_a_cycle():
    cycles = find_lock_cycles([LockEdge("A", "A", "x.py", 1, "")])
    assert [locks for locks, _ in cycles] == [("A",)]


# --- REP109: bare lock.acquire() ----------------------------------------------
def test_rep109_flags_bare_acquire():
    src = "def f(lock, work):\n    lock.acquire()\n    work()\n    lock.release()\n"
    report = lint_source(src, path="x.py")
    assert [f.rule for f in report.findings] == ["REP109"]


def test_rep109_allows_try_finally_idiom():
    src = (
        "def f(lock, work):\n"
        "    lock.acquire()\n"
        "    try:\n"
        "        work()\n"
        "    finally:\n"
        "        lock.release()\n"
    )
    assert lint_source(src, path="x.py").ok


def test_rep109_allows_conditional_acquire_inside_try():
    src = (
        "def f(lock, work):\n"
        "    try:\n"
        "        if lock.acquire(timeout=1):\n"
        "            work()\n"
        "    finally:\n"
        "        lock.release()\n"
    )
    assert lint_source(src, path="x.py").ok


def test_rep109_flags_conditional_acquire_without_finally():
    src = (
        "def f(lock, work):\n"
        "    if lock.acquire(timeout=1):\n"
        "        work()\n"
        "        lock.release()\n"
    )
    report = lint_source(src, path="x.py")
    assert [f.rule for f in report.findings] == ["REP109"]


def test_rep109_with_statement_is_clean():
    src = "def f(lock, work):\n    with lock:\n        work()\n"
    assert lint_source(src, path="x.py").ok


# --- CLI ----------------------------------------------------------------------
def test_cli_analyze_clean_tree_exits_zero(tmp_path):
    out = tmp_path / "analysis.json"
    rc = main(["analyze", SRC, "--format", "json", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["findings"] == []


def test_cli_analyze_nonzero_on_corpus(capsys):
    rc = main(["analyze", "--no-baseline", CORPUS, "--format", "json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["counts"]) == {"REP202", "REP203", "REP204"}


def test_cli_analyze_write_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "analysis-baseline.json"
    rc = main([
        "analyze", CORPUS, "--baseline", str(baseline), "--write-baseline",
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main(["analyze", CORPUS, "--baseline", str(baseline)])
    assert rc == 0


def test_cli_analyze_sarif_output(capsys):
    rc = main(["analyze", "--no-baseline", CORPUS, "--format", "sarif"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"REP202", "REP203", "REP204"}
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(ANALYSIS_RULES)


def test_cli_lint_sarif_output(capsys):
    fixture = os.path.join(HERE, "data", "lint_fixture.py")
    rc = main(["lint", fixture, "--scope", "sim-core", "--format", "sarif"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert any(
        r["ruleId"] == "REP109" for r in doc["runs"][0]["results"]
    )


def test_cli_analyze_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ANALYSIS_RULES:
        assert rule_id in out

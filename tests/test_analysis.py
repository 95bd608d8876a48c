"""Tests for :mod:`repro.analysis` — the whole-program lint passes.

Covers the seeded violation corpus (every REP2xx rule detected, exact
counts), determinism (two ``repro lint`` runs over ``src/repro`` render
byte-identical JSON), the clean-tree CI gate, effect annotation
plumbing, the REP109 bare-acquire lint, SARIF output, and the service's
import graph staying free of the checker.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.callgraph import build_callgraph
from repro.analysis.effects import declared_effects, effects, parse_effect_comment
from repro.analysis.lockorder import (
    LockEdge,
    analyze_locks,
    find_lock_cycles,
    is_fast_lock,
)
from repro.cli import main
from repro.sanitizers import RULES, iter_python_files, lint_paths, lint_source

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "data", "analysis_corpus")
SRC = os.path.abspath(os.path.join(HERE, "..", "src", "repro"))
CORPUS_COUNTS = {"REP202": 1, "REP203": 2, "REP204": 4}


def corpus_report():
    return lint_paths([CORPUS])


def src_callgraph():
    parsed = {}
    for path in iter_python_files([SRC]):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        parsed[path] = (ast.parse(source), source.splitlines())
    return build_callgraph(parsed)


# --- seeded corpus: every rule detected ---------------------------------------
def test_corpus_trips_every_interprocedural_rule():
    report = corpus_report()
    assert not report.ok
    assert report.counts() == CORPUS_COUNTS


def test_corpus_lock_cycle_names_both_edges():
    report = corpus_report()
    rep202 = [f for f in report.findings if f.rule == "REP202"]
    assert len(rep202) == 1
    (finding,) = rep202
    assert "MirrorCatalog._lock" in finding.message
    assert "MirrorCache._lock" in finding.message
    assert finding.message.startswith(
        "lock-order cycle MirrorCache._lock -> MirrorCatalog._lock -> "
        "MirrorCache._lock ("
    )


def test_corpus_blocking_under_lock_direct_and_via_hop():
    report = corpus_report()
    rep203 = [f for f in report.findings if f.rule == "REP203"]
    assert len(rep203) == 2
    messages = sorted(f.message for f in rep203)
    assert messages == [
        "blocking operation .sendall() while holding FrontCatalog._lock",
        # the one-hop seed
        "blocking operation .sendall() while holding FrontCatalog._lock "
        "(reached via blocking.FrontCatalog._flush)",
    ]


def test_corpus_effect_mismatches_all_four_shapes():
    report = corpus_report()
    rep204 = [f for f in report.findings if f.rule == "REP204"]
    assert len(rep204) == 4
    messages = " | ".join(f.message for f in rep204)
    assert "declared pure but stores" in messages
    assert "declared pure but acquires a lock" in messages
    assert "declared locked:Ledger._lock" in messages
    assert "unknown effect 'frozen'" in messages


# --- determinism: byte-identical double run over the real tree ----------------
def test_analyzer_json_byte_identical_over_src():
    first = lint_paths([SRC]).to_json()
    second = lint_paths([SRC]).to_json()
    assert first == second


def test_analyzer_sarif_byte_identical_over_corpus():
    assert corpus_report().to_sarif() == corpus_report().to_sarif()


# --- the repo itself is clean (the CI gate) -----------------------------------
def test_repo_sources_analyze_clean():
    report = lint_paths([SRC])
    assert report.ok, report.render_text()
    assert report.checked_files > 90
    assert len(src_callgraph().functions) > 500


def test_repo_lock_pass_finds_catalog_kernel_edge_and_no_cycles():
    graph = src_callgraph()
    edges, cycles, blocking = analyze_locks(graph)
    assert cycles == []
    assert blocking == []
    pairs = {(e.held, e.acquired) for e in edges}
    assert ("GraphCatalog._lock", "CatalogEntry._kernel_lock") in pairs


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
    report = lint_paths([str(p)])
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


# --- the runtime stays off the checker's import graph ------------------------
def test_service_import_leaves_checker_unloaded():
    code = (
        "import sys, repro.service\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(("
        "'repro.sanitizers', 'repro.analysis.callgraph', "
        "'repro.analysis.lockorder')))\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


# --- CLI ----------------------------------------------------------------------
def test_cli_analyze_clean_tree_exits_zero(tmp_path):
    # The service tree, where the named locks live, on its own.
    out = tmp_path / "findings.json"
    service = os.path.join(SRC, "service")
    rc = main(["lint", service, "--format", "json", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["findings"] == []


def test_cli_analyze_nonzero_on_corpus(capsys):
    rc = main(["lint", CORPUS, "--format", "json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == CORPUS_COUNTS


def test_cli_analyze_sarif_output(capsys):
    rc = main(["lint", CORPUS, "--format", "sarif"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == set(CORPUS_COUNTS)
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert rule_ids == list(RULES)
    assert all(rule_ids[r["ruleIndex"]] == r["ruleId"] for r in results)


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
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP100", "REP202", "REP203", "REP204"):
        assert rule_id in out

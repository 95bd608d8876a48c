"""Tests for ``repro lint`` as a whole-tree gate.

Covers the seeded fixture (each seed found exactly once), determinism
(two ``repro lint`` runs render byte-identical JSON and SARIF), the
clean-tree CI gate, noqa suppression, the REP109 bare-acquire lint,
SARIF output, and the service's import graph staying free of the
checker. Lock order and
blocking under a fast lock are checked at run time by the lock witness
(``tests/test_lock_witness.py``).
"""

import json
import os
import subprocess
import sys

from repro.cli import main
from repro.sanitizers import RULES, lint_paths, lint_source

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "lint_fixture.py")
SRC = os.path.abspath(os.path.join(HERE, "..", "src", "repro"))
#: Every per-file seed in the fixture, under the sim-core scope.
FIXTURE_COUNTS = {
    "REP101": 1, "REP102": 1, "REP103": 1, "REP104": 1, "REP105": 1,
    "REP109": 1,
}


def fixture_report():
    return lint_paths([FIXTURE], scope="sim-core")


# --- determinism: byte-identical double run over the real tree ----------------
def test_analyzer_json_byte_identical_over_src():
    first = lint_paths([SRC]).to_json()
    second = lint_paths([SRC]).to_json()
    assert first == second


def test_analyzer_sarif_byte_identical_over_corpus():
    assert fixture_report().to_sarif() == fixture_report().to_sarif()


# --- the repo itself is clean (the CI gate) -----------------------------------
def test_repo_sources_analyze_clean():
    report = lint_paths([SRC])
    assert report.ok, report.render_text()
    assert report.checked_files > 90


# --- suppression ----------------------------------------------------------------
def test_noqa_suppresses_analysis_finding(tmp_path):
    src = (
        "def f(lock, work):\n"
        "    lock.acquire()  # repro: noqa[REP109]\n"
        "    work()\n"
    )
    p = tmp_path / "mod.py"
    p.write_text(src)
    report = lint_paths([str(p)])
    assert report.ok
    assert report.suppressed == 1


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
        "'repro.sanitizers',)))\n"
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
    rc = main(["lint", FIXTURE, "--scope", "sim-core", "--format", "json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == FIXTURE_COUNTS


def test_cli_analyze_sarif_output(capsys):
    rc = main(["lint", FIXTURE, "--scope", "sim-core", "--format", "sarif"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == set(FIXTURE_COUNTS)
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert rule_ids == list(RULES)
    assert all(rule_ids[r["ruleIndex"]] == r["ruleId"] for r in results)


def test_cli_lint_sarif_output(capsys):
    rc = main(["lint", FIXTURE, "--scope", "sim-core", "--format", "sarif"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert any(
        r["ruleId"] == "REP109" for r in doc["runs"][0]["results"]
    )


def test_cli_analyze_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "REP100" in out and "REP109" in out
    assert "REP2" not in out

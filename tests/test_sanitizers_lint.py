"""Determinism lint: rule detection, suppressions, scoping, CLI gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.sanitizers import RULES, lint_paths, lint_source
from repro.sanitizers.rules import parse_noqa, path_scope

FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "lint_fixture.py"
)
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)
#: The rules the fixture trips (REP100 needs a file that does not parse).
SYNTACTIC_RULES = set(RULES) - {"REP100"}


def rules_hit(report) -> set[str]:
    return {f.rule for f in report.findings}


# --- individual rules ---------------------------------------------------------
def test_rep101_wall_clock_calls_flagged():
    src = "import time\nt = time.perf_counter()\nu = time.time()\n"
    report = lint_source(src, path="src/repro/sim/x.py")
    assert [f.rule for f in report.findings] == ["REP101", "REP101"]
    assert report.findings[0].line == 2


def test_rep101_from_import_alias_tracked():
    src = "from time import perf_counter as pc\nt = pc()\n"
    report = lint_source(src, path="src/repro/machine/x.py")
    assert rules_hit(report) == {"REP101"}


def test_rep101_only_in_sim_core_scope():
    src = "import time\nt = time.perf_counter()\n"
    report = lint_source(src, path="src/repro/graph500/timing.py")
    assert report.ok  # harness wall-clock measurement is legitimate


def test_rep102_global_rng_flagged_everywhere_in_repro():
    src = "import numpy as np\nr = np.random.default_rng(3)\n"
    for path in ("src/repro/graph/gen.py", "src/repro/core/x.py"):
        assert rules_hit(lint_source(src, path=path)) == {"REP102"}


def test_rep102_substream_module_exempt():
    src = "import numpy as np\nr = np.random.default_rng(seed)\n"
    report = lint_source(src, path="src/repro/sim/rng.py")
    assert report.ok


def test_rep102_random_import_flagged():
    src = "from random import shuffle\nshuffle(xs)\n"
    report = lint_source(src, path="src/repro/core/x.py")
    assert {f.rule for f in report.findings} == {"REP102"}
    assert len(report.findings) == 2  # the import and the call


def test_rep102_annotation_is_not_a_call():
    src = (
        "import numpy as np\n"
        "def f(rng: np.random.Generator) -> np.random.Generator:\n"
        "    return rng\n"
    )
    assert lint_source(src, path="src/repro/sim/faults.py").ok


def test_rep103_set_iteration_flagged():
    src = "for x in set(items):\n    use(x)\n"
    report = lint_source(src, path="src/repro/core/x.py")
    assert rules_hit(report) == {"REP103"}


def test_rep103_comprehension_and_wrappers():
    src = (
        "a = [y for y in set(items)]\n"
        "b = list(frozenset(items))\n"
        "c = tuple(enumerate({1, 2}))\n"
    )
    report = lint_source(src, path="src/repro/network/x.py")
    assert [f.rule for f in report.findings] == ["REP103"] * 3


def test_rep103_sorted_wrapper_is_clean():
    src = "a = sorted(set(items))\nfor x in sorted({3, 1}):\n    use(x)\n"
    assert lint_source(src, path="src/repro/core/x.py").ok


def test_rep104_set_union_flagged_even_inside_sorted():
    src = "peers = sorted(set(a) | set(b))\n"
    report = lint_source(src, path="src/repro/core/x.py")
    assert rules_hit(report) == {"REP104"}


def test_rep104_union_method_flagged():
    src = "n = len(set(a).union(b))\n"
    report = lint_source(src, path="src/repro/core/x.py")
    assert rules_hit(report) == {"REP104"}


def test_rep104_int_bitor_not_flagged():
    src = "flags = A | B\nmask: int | None = None\nx = 1 | 2\n"
    assert lint_source(src, path="src/repro/core/x.py").ok


def test_rep105_hot_dataclass_without_slots():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass AckMessage:\n    a: int\n"
        "@dataclass(slots=True)\nclass GoodEvent:\n    a: int\n"
        "@dataclass\nclass PlainConfig:\n    a: int\n"
    )
    report = lint_source(src, path="src/repro/sim/x.py")
    assert [f.rule for f in report.findings] == ["REP105"]
    assert "AckMessage" in report.findings[0].message


def test_rep108_kernel_construction_in_service_flagged():
    for call in (
        "make_variant('relay-cpe', e, 4)",
        "Graph500Runner(scale=10, nodes=4)",
        "DistributedBFS(e, 4)",
        "DistributedPageRank(e, 4)",
        "SuperstepEngine(e, 4)",
    ):
        report = lint_source(
            f"k = {call}\n", path="src/repro/service/worker.py"
        )
        assert rules_hit(report) == {"REP108"}, call


def test_rep108_catalog_module_exempt():
    src = "k = make_variant('relay-cpe', e, 4)\n"
    assert lint_source(src, path="src/repro/service/catalog.py").ok


def test_rep108_silent_outside_service():
    src = "k = make_variant('relay-cpe', e, 4)\n"
    assert lint_source(src, path="src/repro/graph500/runner.py").ok
    assert lint_source(src, path="src/repro/core/bfs.py").ok


def test_rep108_suppressible():
    src = "k = DistributedWCC(e, 4)  # repro: noqa[REP108]\n"
    report = lint_source(src, path="src/repro/service/x.py")
    assert report.ok and report.suppressed == 1


def test_syntax_error_reported_not_raised():
    report = lint_source("def f(:\n", path="src/repro/core/x.py")
    assert [f.rule for f in report.findings] == ["REP100"]


def test_syntax_error_is_catalogued():
    report = lint_source("def f(:\n", path="src/repro/core/x.py")
    assert report.findings[0].to_dict()["name"] == "parse-error"
    doc = json.loads(report.to_sarif())
    (result,) = doc["runs"][0]["results"]
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "REP100"


# --- suppressions and scope ---------------------------------------------------
def test_noqa_blanket_and_targeted():
    assert parse_noqa("x = 1  # repro: noqa") == frozenset()
    assert parse_noqa("x = 1  # repro: noqa[REP104]") == {"REP104"}
    assert parse_noqa("x = 1  # repro: noqa[rep103, REP104]") == {
        "REP103",
        "REP104",
    }
    assert parse_noqa("x = 1  # plain comment") is None


def test_noqa_suppresses_and_counts():
    src = "peers = set(a) | set(b)  # repro: noqa[REP104]\n"
    report = lint_source(src, path="src/repro/core/x.py")
    assert report.ok and report.suppressed == 1
    wrong_rule = "peers = set(a) | set(b)  # repro: noqa[REP101]\n"
    assert not lint_source(wrong_rule, path="src/repro/core/x.py").ok


def test_path_scope_resolution():
    assert path_scope("src/repro/core/bfs.py") == "sim-core"
    assert path_scope("src/repro/sim/engine.py") == "sim-core"
    assert path_scope("src/repro/graph500/runner.py") == "repro"
    assert path_scope("tests/data/lint_fixture.py") == "repro"


def test_scope_override_forces_sim_core_rules():
    src = "import time\nt = time.time()\n"
    assert lint_source(src, path="anywhere.py").ok
    assert not lint_source(src, path="anywhere.py", scope="sim-core").ok


# --- the fixture exercises every rule -----------------------------------------
def test_fixture_trips_every_rule():
    report = lint_paths([FIXTURE], scope="sim-core")
    assert rules_hit(report) == SYNTACTIC_RULES - {"REP108"}
    assert not report.ok
    # The service-layer rule needs the service scope to fire.
    service = lint_paths([FIXTURE], scope="service")
    assert "REP108" in rules_hit(service)


# --- the repo itself is clean (the CI gate) -----------------------------------
def test_repo_sources_lint_clean():
    report = lint_paths([SRC])
    assert report.ok, report.render_text()
    assert report.checked_files > 90


# --- CLI ----------------------------------------------------------------------
def test_cli_lint_json_gate(tmp_path, capsys):
    out = tmp_path / "findings.json"
    rc = main(["lint", SRC, "--format", "json", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["findings"] == []


def test_cli_lint_nonzero_on_fixture(capsys):
    rc = main(["lint", FIXTURE, "--scope", "sim-core", "--format", "json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    # REP108 is a service-layer rule; the sim-core pass fires the rest.
    assert set(doc["counts"]) == SYNTACTIC_RULES - {"REP108"}


def test_cli_lint_service_scope_on_fixture(capsys):
    rc = main(["lint", FIXTURE, "--scope", "service", "--format", "json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert "REP108" in doc["counts"]


def test_missing_or_non_python_path_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="does/not/exist"):
        main(["lint", "does/not/exist"])
    notes = tmp_path / "README.md"
    notes.write_text("not python\n")
    with pytest.raises(ConfigError, match="README.md"):
        lint_paths([str(notes)])


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_rule_catalogue_is_documented(rule_id):
    doc = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "docs",
        "static-analysis.md",
    )
    with open(doc, encoding="utf-8") as fh:
        assert rule_id in fh.read()

"""Findings, stable IDs, baseline, and the ``repro analyze`` entry point.

A finding's **stable id** is a short hash of ``rule | path | function |
detail`` — deliberately *not* the line number, so a baselined finding
survives unrelated edits above it. The committed baseline file
(``analysis-baseline.json``, discovered by walking up from the analyzed
path) suppresses known findings by id; suppressed-but-absent baseline
entries are reported so the file cannot rot silently.

Output formats: human text, deterministic JSON (two runs over the same
tree are byte-identical — the determinism tests pin this), and SARIF
via the shared exporter in :mod:`repro.sanitizers.sarif`.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.analysis.effects import is_valid_effect, locked_target
from repro.analysis.lockorder import (
    BlockingSite,
    LockEdge,
    _LockAnalysis,
    analyze_locks,
)
from repro.sanitizers.rules import Rule, parse_noqa
from repro.sanitizers.sarif import sarif_document

#: The interprocedural rule band (REP2xx; the syntactic lint owns REP1xx).
ANALYSIS_RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "REP200",
            "analysis-parse-error",
            "file does not parse; the analyzer cannot vouch for it",
            "repro",
        ),
        Rule(
            "REP202",
            "lock-order-cycle",
            "cycle in the lock-acquisition graph (lock B taken while A is "
            "held and, elsewhere, A while B is held) — a potential deadlock "
            "the moment two threads walk the cycle from different ends",
            "repro",
        ),
        Rule(
            "REP203",
            "blocking-under-lock",
            "blocking operation (socket I/O, kernel construction/execution, "
            "Condition.wait on another lock, sleep/join/result) while "
            "holding a fast catalog/cache lock that every admission and "
            "lookup crosses",
            "repro",
        ),
        Rule(
            "REP204",
            "effect-annotation-mismatch",
            "an @effects(...) / '# repro: effect=' declaration the AST "
            "contradicts (a 'pure' function that stores, locks or blocks, "
            "a 'locked:<name>' function that does not acquire the named "
            "lock)",
            "repro",
        ),
    )
}


@dataclass(frozen=True)
class AnalysisFinding:
    """One analyzer finding with a line-number-independent stable id."""

    rule: str
    path: str
    line: int
    col: int
    function: str
    message: str
    #: Stable discriminator (no line numbers): what the finding is about,
    #: not where it currently sits.
    detail: str

    @property
    def fid(self) -> str:
        digest = hashlib.sha1(
            f"{self.rule}|{self.path}|{self.function}|{self.detail}".encode()
        )
        return digest.hexdigest()[:12]

    def render(self) -> str:
        loc = f"{self.path}:{self.line}:{self.col}"
        return f"{loc}: {self.rule} [{self.fid}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "id": self.fid,
            "rule": self.rule,
            "name": ANALYSIS_RULES[self.rule].name
            if self.rule in ANALYSIS_RULES
            else "",
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "message": self.message,
            "detail": self.detail,
        }


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` learned, ready to render or gate on."""

    findings: list[AnalysisFinding] = field(default_factory=list)
    baselined: list[AnalysisFinding] = field(default_factory=list)
    suppressed: int = 0
    checked_files: int = 0
    functions: int = 0
    lock_edges: list[LockEdge] = field(default_factory=list)
    #: Baseline ids that matched nothing this run (stale entries).
    stale_baseline: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.checked_files} "
            f"file(s), {self.functions} function(s) indexed, "
            f"{len(self.lock_edges)} lock edge(s) "
            f"({len(self.baselined)} baselined, {self.suppressed} suppressed)"
        )
        if self.stale_baseline:
            lines.append(
                "stale baseline ids (matched nothing): "
                + ", ".join(self.stale_baseline)
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "checked_files": self.checked_files,
                "functions": self.functions,
                "lock_edges": [
                    {
                        "held": e.held,
                        "acquired": e.acquired,
                        "path": e.display,
                        "line": e.line,
                        "via": e.via,
                    }
                    for e in self.lock_edges
                ],
                "counts": self.counts(),
                "suppressed": self.suppressed,
                "baselined": [f.fid for f in self.baselined],
                "stale_baseline": list(self.stale_baseline),
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
            sort_keys=True,
        )

    def to_sarif(self) -> str:
        return sarif_document(
            tool_name="repro-analyze",
            rules=[
                {"id": r.id, "name": r.name, "summary": r.summary}
                for r in ANALYSIS_RULES.values()
            ],
            results=[
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in self.findings
            ],
        )


# -- baseline ------------------------------------------------------------------
BASELINE_NAME = "analysis-baseline.json"


def load_baseline(path: str) -> dict[str, dict]:
    """``{finding id: entry}`` from a baseline file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out: dict[str, dict] = {}
    for entry in doc.get("suppress", []):
        out[entry["id"]] = entry
    return out


def write_baseline(path: str, report: AnalysisReport) -> None:
    """Write every current finding (baselined or not) as suppressed."""
    entries = [
        {
            "id": f.fid,
            "rule": f.rule,
            "path": f.path,
            "function": f.function,
            "detail": f.detail,
        }
        for f in sorted(
            report.findings + report.baselined,
            key=lambda f: (f.path, f.rule, f.fid),
        )
    ]
    doc = {"version": 1, "suppress": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_baseline_path(paths: list[str]) -> str | None:
    """Walk upward from the first analyzed path looking for the
    committed baseline file."""
    if not paths:
        return None
    cur = os.path.abspath(paths[0])
    if os.path.isfile(cur):
        cur = os.path.dirname(cur)
    for _ in range(8):
        candidate = os.path.join(cur, BASELINE_NAME)
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(cur)
        if parent == cur:
            break
        cur = parent
    return None


# -- the passes ----------------------------------------------------------------
def _line_suppressed(
    lines_by_display: dict[str, list[str]], display: str, line: int, rule: str
) -> bool:
    lines = lines_by_display.get(display)
    if lines is None or not 1 <= line <= len(lines):
        return False
    suppressions = parse_noqa(lines[line - 1])
    if suppressions is None:
        return False
    return not suppressions or rule in suppressions


def _effect_findings(graph: CallGraph) -> list[AnalysisFinding]:
    analysis = _LockAnalysis(graph)
    out: list[AnalysisFinding] = []
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        for spec in info.effects:
            if not is_valid_effect(spec):
                out.append(
                    AnalysisFinding(
                        "REP204", info.display, info.lineno, 1, qual,
                        f"unknown effect {spec!r}", f"invalid:{spec}",
                    )
                )
                continue
            if spec == "pure":
                reason = _impure_reason(info, analysis)
                if reason is not None:
                    out.append(
                        AnalysisFinding(
                            "REP204", info.display, info.lineno, 1, qual,
                            f"declared pure but {reason}", "pure",
                        )
                    )
            else:
                lock = locked_target(spec)
                if lock is not None and not _acquires_named_lock(
                    info, analysis, lock
                ):
                    out.append(
                        AnalysisFinding(
                            "REP204", info.display, info.lineno, 1, qual,
                            f"declared locked:{lock} but never acquires it",
                            f"locked:{lock}",
                        )
                    )
    return out


def _impure_reason(info: FunctionInfo, analysis: _LockAnalysis) -> str | None:
    from repro.analysis.callgraph import _iter_own_statements

    for node in _iter_own_statements(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)) or (
            isinstance(node, ast.AnnAssign) and node.value is not None
        ):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return "stores to an attribute/container"
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if analysis.lock_of(item.context_expr, info) is not None:
                    return "acquires a lock"
        if isinstance(node, ast.Call):
            # Same operation set (and str.join exemption) as REP203.
            op = analysis._blocking_name(node, info)
            if op is not None:
                return f"performs blocking call .{op}()"
    return None


def _acquires_named_lock(
    info: FunctionInfo, analysis: _LockAnalysis, lock: str
) -> bool:
    from repro.analysis.callgraph import _iter_own_statements

    for node in _iter_own_statements(info.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                found = analysis.lock_of(item.context_expr, info)
                if found is not None and (
                    found == lock or found.endswith(f".{lock}") or
                    found.rpartition(".")[2] == lock
                ):
                    return True
    return False


def analyze_paths(
    paths: list[str], baseline: dict[str, dict] | None = None
) -> AnalysisReport:
    """Run every pass over the tree and fold in the baseline."""
    graph = build_callgraph(paths)
    lines_by_display = {
        m.display: m.lines for m in graph.modules.values()
    }
    findings: list[AnalysisFinding] = []
    suppressed = 0

    for display, lineno, msg in graph.parse_errors:
        findings.append(
            AnalysisFinding(
                "REP200", display, lineno, 1, "",
                f"file does not parse: {msg}", msg,
            )
        )

    # Pass 1: lock order + blocking-under-lock (REP202/REP203).
    lock_edges, cycles, blocking = analyze_locks(graph)
    for cycle_locks, cycle_edges in cycles:
        first = cycle_edges[0]
        ring = " -> ".join(cycle_locks + (cycle_locks[0],))
        sites = "; ".join(
            f"{e.held}->{e.acquired} at {e.display}:{e.line}"
            + (f" via {e.via}" if e.via else "")
            for e in cycle_edges
        )
        findings.append(
            AnalysisFinding(
                "REP202", first.display, first.line, 1, "",
                f"lock-order cycle {ring} ({sites})",
                "cycle:" + "->".join(cycle_locks),
            )
        )
    for site in blocking:
        findings.append(
            AnalysisFinding(
                "REP203", site.display, site.line, 1, site.via,
                f"blocking operation .{site.operation}() while holding "
                f"{site.held}"
                + (f" (reached via {site.via})" if site.via else ""),
                f"{site.held}:{site.operation}:{site.via}",
            )
        )

    # Pass 2: effect-annotation validation (REP204).
    findings.extend(_effect_findings(graph))

    # Per-line noqa suppressions, shared with the lint.
    kept: list[AnalysisFinding] = []
    for f in findings:
        if _line_suppressed(lines_by_display, f.path, f.line, f.rule):
            suppressed += 1
        else:
            kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.fid))

    report = AnalysisReport(
        findings=kept,
        suppressed=suppressed,
        checked_files=len(graph.modules) + len(graph.parse_errors),
        functions=len(graph.functions),
        lock_edges=lock_edges,
    )
    if baseline:
        still: list[AnalysisFinding] = []
        hit: set[str] = set()
        for f in report.findings:
            if f.fid in baseline:
                report.baselined.append(f)
                hit.add(f.fid)
            else:
                still.append(f)
        report.findings = still
        report.stale_baseline = tuple(sorted(set(baseline) - hit))
    return report


__all__ = [
    "ANALYSIS_RULES",
    "AnalysisFinding",
    "AnalysisReport",
    "BASELINE_NAME",
    "BlockingSite",
    "LockEdge",
    "analyze_paths",
    "default_baseline_path",
    "load_baseline",
    "write_baseline",
]

"""Interprocedural lock-discipline and effect analysis.

Where :mod:`repro.sanitizers` lints one file at a time, this package
builds a whole-program call graph over the scanned tree and runs two
interprocedural passes on it:

- **lock order** (REP202/REP203): cycles in the inferred
  lock-acquisition graph, and blocking operations performed while a
  catalog/cache fast lock is held;
- **effect validation** (REP204): ``@effects(...)`` decorators and
  ``# repro: effect=`` comments checked against inferred behaviour.

Entry point: :func:`analyze_paths` (CLI: ``repro analyze``). Findings
carry stable content-derived ids so a committed baseline file survives
unrelated edits.
"""

from repro.analysis.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.analysis.effects import (
    EFFECTS_ATTR,
    declared_effects,
    effects,
    is_valid_effect,
    parse_effect_comment,
)
from repro.analysis.lockorder import (
    BlockingSite,
    LockEdge,
    analyze_locks,
    build_lock_registry,
    find_lock_cycles,
    is_fast_lock,
)
from repro.analysis.report import (
    ANALYSIS_RULES,
    BASELINE_NAME,
    AnalysisFinding,
    AnalysisReport,
    analyze_paths,
    default_baseline_path,
    load_baseline,
    write_baseline,
)

__all__ = [
    "ANALYSIS_RULES",
    "AnalysisFinding",
    "AnalysisReport",
    "BASELINE_NAME",
    "BlockingSite",
    "CallGraph",
    "EFFECTS_ATTR",
    "FunctionInfo",
    "LockEdge",
    "analyze_locks",
    "analyze_paths",
    "build_callgraph",
    "build_lock_registry",
    "declared_effects",
    "default_baseline_path",
    "effects",
    "find_lock_cycles",
    "is_fast_lock",
    "is_valid_effect",
    "load_baseline",
    "parse_effect_comment",
    "write_baseline",
]

"""repro.sanitizers — static analysis + runtime sanitizers.

The determinism and contention-freedom claims the harness rests on,
turned into machine-checked properties:

- :mod:`~repro.sanitizers.determinism` — AST lint (``repro lint``) over
  the simulator sources: wall-clock reads, global RNG, hash-order
  iteration, unsorted set unions, slot-less hot dataclasses,
  service-layer kernel-construction bypasses, bare lock acquires (rule
  ids REP100-REP109); ``# repro: noqa[RULE]`` suppresses any of them;
- :mod:`~repro.sanitizers.mesh_prover` — static prover for the Section
  4.3 register-mesh shuffle: role partition, row-then-column direction
  discipline, channel-dependency acyclicity, per-phase port exclusivity
  and SPM feasibility;
- :mod:`~repro.sanitizers.runtime` — opt-in runtime detectors: SPM
  write conflicts, message-mutated-after-send, delivery sooner than
  the link latency, and the double-run
  determinism diff behind ``repro sanitize``.

See ``docs/static-analysis.md`` for the full rule catalogue and CI
wiring.
"""

from __future__ import annotations

from repro.sanitizers.determinism import (
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.sanitizers.mesh_prover import (
    MeshSchedule,
    ProofReport,
    Transfer,
    Violation,
    prove_plan,
    prove_schedule,
    schedule_from_plan,
)
from repro.sanitizers.rules import RULES, Finding, LintReport, Rule
from repro.sanitizers.sarif import sarif_document
from repro.sanitizers.runtime import (
    DeterminismReport,
    MessageSanitizer,
    SanitizerViolation,
    SpmWriteSanitizer,
    check_determinism,
    payload_digest,
    run_digest,
)

__all__ = [
    "RULES",
    "Rule",
    "Finding",
    "LintReport",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "sarif_document",
    "MeshSchedule",
    "Transfer",
    "ProofReport",
    "Violation",
    "prove_plan",
    "prove_schedule",
    "schedule_from_plan",
    "SpmWriteSanitizer",
    "MessageSanitizer",
    "SanitizerViolation",
    "DeterminismReport",
    "check_determinism",
    "payload_digest",
    "run_digest",
]

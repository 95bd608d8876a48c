"""Rule framework for ``repro lint`` (:mod:`repro.sanitizers`).

The harness rests on bit-exact reproducibility claims — batched == scalar
message paths, worker-count-invariant telemetry, seed-replayable faults —
that a single stray wall-clock read or unordered ``set`` iteration silently
voids. Each hazard class is a :class:`Rule` with a stable id (REP100-REP109)
checked by the per-file AST pass in :mod:`repro.sanitizers.determinism`;
it emits :class:`Finding` objects that render as human text, JSON or SARIF
and honour per-line suppressions::

    peers = set(a) | set(b)  # repro: noqa[REP104]

A bare ``# repro: noqa`` suppresses every rule on its line.

Scopes keep the lint honest about where determinism is load-bearing:
``sim-core`` rules apply only inside the simulator packages
(``repro.core``, ``repro.sim``, ``repro.machine``, ``repro.network``)
where iteration order escapes into message and event order; ``repro``
rules apply to the whole tree.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

#: Packages where container order escapes into simulated message/event
#: order — the blast radius of a nondeterministic iteration.
SIM_CORE_PACKAGES = ("core", "sim", "machine", "network")

#: Files exempt from specific rules (the one sanctioned RNG entry point).
RULE_EXEMPT_FILES = {
    "REP102": ("repro/sim/rng.py",),
    # The catalog is the service's one sanctioned kernel-construction
    # site: entries own their kernels and the execute dispatch.
    "REP108": ("repro/service/catalog.py",),
}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable id, a scope, and what it forbids."""

    id: str
    name: str
    summary: str
    scope: str  # "sim-core" or "repro"


RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "REP100",
            "parse-error",
            "file does not parse; no rule can vouch for it",
            "repro",
        ),
        Rule(
            "REP101",
            "wall-clock-read",
            "wall-clock reads (time.time/perf_counter/datetime.now) inside "
            "sim-core modules; simulated time must come from the engine",
            "sim-core",
        ),
        Rule(
            "REP102",
            "global-rng",
            "random / numpy.random use outside repro.sim.rng.substream; "
            "every stochastic draw must come from a named seeded substream",
            "repro",
        ),
        Rule(
            "REP103",
            "unordered-iteration",
            "iteration over a set/frozenset expression (or list()/tuple()/"
            "enumerate() of one) whose order can escape into message or "
            "event order; wrap in sorted() or dedup with dict.fromkeys",
            "sim-core",
        ),
        Rule(
            "REP104",
            "unsorted-set-union",
            "set-union expressions (set(a) | set(b), set(a).union(b)) feeding "
            "downstream consumers; build a deterministic sequence instead "
            "(sorted union or dict.fromkeys merge)",
            "sim-core",
        ),
        Rule(
            "REP105",
            "missing-slots",
            "hot message/event dataclasses (*Message, *Event, *Packet, "
            "*Execution) without slots=True; per-instance dicts cost space "
            "and invite untracked dynamic attributes",
            "sim-core",
        ),
        Rule(
            "REP108",
            "service-kernel-bypass",
            "direct kernel construction (Graph500Runner / make_variant / "
            "DistributedBFS / superstep algorithms) inside repro.service "
            "outside the catalog module; queries must execute through a "
            "pinned CatalogEntry so lifecycle, caching, and parity hold",
            "service",
        ),
        Rule(
            "REP109",
            "bare-lock-acquire",
            "bare lock.acquire() outside a with-statement or an "
            "acquire/try/finally-release idiom; an exception between "
            "acquire and release leaks the lock and deadlocks the next "
            "taker — use 'with lock:' (or release in a finally)",
            "repro",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Findings plus enough context to gate CI on them."""

    findings: list[Finding] = field(default_factory=list)
    checked_files: int = 0
    suppressed: int = 0

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
            f"{len(self.findings)} finding(s) in {self.checked_files} file(s)"
            f" ({self.suppressed} suppressed)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "checked_files": self.checked_files,
                "suppressed": self.suppressed,
                "counts": self.counts(),
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )

    def to_sarif(self) -> str:
        """SARIF 2.1.0 rendering (GitHub code scanning ingestion)."""
        from repro.sanitizers.sarif import sarif_document

        return sarif_document(
            tool_name="repro-lint",
            rules=[
                {"id": r.id, "name": r.name, "summary": r.summary}
                for r in RULES.values()
            ],
            results=[
                {
                    "rule": f.rule,
                    "path": f.path.replace("\\", "/"),
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in self.findings
            ],
        )


def parse_noqa(line: str) -> frozenset[str] | None:
    """Suppressions on one source line.

    Returns ``None`` when there is no directive, an empty frozenset for a
    blanket ``# repro: noqa``, or the set of uppercased rule ids for
    ``# repro: noqa[REP103,REP104]``.
    """
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    rules = m.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip().upper() for r in rules.split(",") if r.strip())


def is_suppressed(finding: Finding, source_lines: list[str]) -> bool:
    """Whether the finding's source line carries a matching noqa."""
    if not 1 <= finding.line <= len(source_lines):
        return False
    suppressions = parse_noqa(source_lines[finding.line - 1])
    if suppressions is None:
        return False
    return not suppressions or finding.rule in suppressions


def path_scope(path: str) -> str:
    """Lint scope of a file: ``sim-core`` or ``repro``.

    Scope comes from the path's position under the ``repro`` package;
    files outside it (fixtures, scripts) default to the broad scope.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        if idx + 1 < len(parts) and parts[idx + 1] in SIM_CORE_PACKAGES:
            return "sim-core"
    return "repro"


def rule_applies(rule: Rule, path: str, scope: str) -> bool:
    """Whether ``rule`` is live for a file, given its resolved scope."""
    norm = path.replace("\\", "/")
    for suffix in RULE_EXEMPT_FILES.get(rule.id, ()):
        if norm.endswith(suffix):
            return False
    if rule.scope == "repro":
        return True
    if rule.scope == "service":
        # Layering rules live where the layer does, independent of the
        # sim-core/repro scope split.
        return "repro/service/" in norm or scope == "service"
    return scope == "sim-core"

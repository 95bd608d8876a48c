"""AST determinism lint over the simulator sources.

Static enforcement of the invariants the parity tests pin dynamically:
no wall-clock reads in simulated time, no global RNG, no container
iteration whose order depends on hash seeding, no unsorted set unions
feeding downstream consumers, and ``slots`` on hot message dataclasses.

The pass is a single :class:`ast.NodeVisitor` walk per file — no type
inference, so it only flags *syntactic* hazards (a ``set()`` call it can
see, not a variable that happens to hold a set). That keeps it fast and
false-positive-light; the runtime sanitizers in
:mod:`repro.sanitizers.runtime` catch what escapes the syntax.

This module also drives ``repro lint`` as a whole: each file is parsed
once and the visitor and the bare-acquire scan run on its tree.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable, Mapping

from repro.errors import ConfigError
from repro.sanitizers.rules import (
    RULES,
    Finding,
    LintReport,
    is_suppressed,
    path_scope,
    rule_applies,
)

#: ``time`` module functions that read the host clock.
_WALL_CLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
#: ``datetime`` constructors that read the host clock.
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
#: Wrappers whose iteration order mirrors their argument's order.
_ITER_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter"})
#: Order-insensitive consumers: a set argument here is deterministic.
_ORDER_SAFE_WRAPPERS = frozenset({"sorted", "len", "sum", "any", "all", "bool"})
#: Set methods that return another unordered set.
_SET_COMBINATORS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
#: Dataclass name suffixes that mark a hot per-message/per-event type.
_HOT_SUFFIXES = ("Message", "Event", "Packet", "Execution")
#: Kernel entry points (REP108): inside ``repro.service`` only the
#: catalog module may call these — everything else executes through a
#: pinned CatalogEntry, which is what keeps graph lifecycle, kernel
#: reuse, and batch/service parity in one place.
_KERNEL_CONSTRUCTORS = frozenset(
    {
        "Graph500Runner",
        "DistributedBFS",
        "make_variant",
        "SuperstepEngine",
        "DistributedSSSP",
        "DistributedDeltaStepping",
        "DistributedPageRank",
        "DistributedWCC",
        "DistributedKCore",
    }
)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """Whether the expression syntactically produces an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_COMBINATORS
            and _is_set_expr(node.func.value)
        ):
            return True
    return False


class _LintVisitor(ast.NodeVisitor):
    """One file's walk; collects findings before suppression filtering."""

    def __init__(self, path: str, scope: str) -> None:
        self.path = path
        self.scope = scope
        self.findings: list[Finding] = []
        #: Names bound by ``from time import perf_counter``-style imports.
        self._clock_aliases: dict[str, str] = {}
        #: Names bound by ``from random import ...`` / numpy.random imports.
        self._rng_aliases: dict[str, str] = {}

    # -- plumbing --------------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        if not rule_applies(RULES[rule_id], self.path, self.scope):
            return
        self.findings.append(
            Finding(
                rule=rule_id,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    # -- imports feeding REP101/REP102 ----------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_FNS:
                    self._clock_aliases[alias.asname or alias.name] = (
                        f"time.{alias.name}"
                    )
        elif module == "random" or module.startswith("numpy.random"):
            for alias in node.names:
                bound = alias.asname or alias.name
                self._rng_aliases[bound] = f"{module}.{alias.name}"
                self._emit(
                    "REP102",
                    node,
                    f"import of global RNG symbol {module}.{alias.name}; "
                    "derive draws from repro.sim.rng.substream",
                )
        self.generic_visit(node)

    # -- calls: clocks, RNG, unordered wrappers --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            self._check_clock_call(node, dotted)
            self._check_rng_call(node, dotted)
            callee = dotted.rpartition(".")[2]
            if callee in _KERNEL_CONSTRUCTORS:
                self._emit(
                    "REP108",
                    node,
                    f"kernel construction {callee}() inside repro.service: "
                    "only the catalog builds kernels; execute queries "
                    "through a pinned CatalogEntry",
                )
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _ITER_WRAPPERS and node.args and _is_set_expr(node.args[0]):
                self._emit(
                    "REP103",
                    node.args[0],
                    f"{name}() over a set expression: iteration order depends "
                    "on hash seeding; wrap the set in sorted() first",
                )
        self.generic_visit(node)

    def _check_clock_call(self, node: ast.Call, dotted: str) -> None:
        root, _, rest = dotted.partition(".")
        hit = None
        if root == "time" and rest in _WALL_CLOCK_FNS:
            hit = dotted
        elif dotted in self._clock_aliases:
            hit = self._clock_aliases[dotted]
        elif rest.rpartition(".")[2] in _DATETIME_FNS and "datetime" in dotted:
            hit = dotted
        if hit is not None:
            self._emit(
                "REP101",
                node,
                f"wall-clock read {hit}(): simulated components must take "
                "time from the engine, not the host clock",
            )

    def _check_rng_call(self, node: ast.Call, dotted: str) -> None:
        root, _, rest = dotted.partition(".")
        hit = None
        if root == "random" and rest:
            hit = dotted
        elif root in ("np", "numpy") and rest.startswith("random."):
            hit = dotted
        elif dotted in self._rng_aliases:
            hit = self._rng_aliases[dotted]
        if hit is not None:
            self._emit(
                "REP102",
                node,
                f"global RNG call {hit}(): every stochastic draw must come "
                "from a named repro.sim.rng.substream generator",
            )

    # -- iteration order: for / comprehensions / unpacking ---------------------
    def _check_iterable(self, node: ast.AST) -> None:
        if _is_set_expr(node):
            self._emit(
                "REP103",
                node,
                "iteration over a set expression: order depends on hash "
                "seeding and escapes into downstream order; use sorted() "
                "or dict.fromkeys",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if not isinstance(node.value, (ast.Set, ast.SetComp)):
            # *set(...) spreads in hash order; a {*a, *b} set display is
            # itself a set expression and is judged where it is consumed.
            self._check_iterable(node.value)
        self.generic_visit(node)

    # -- set unions (REP104) ----------------------------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.BitOr) and (
            _is_set_expr(node.left) or _is_set_expr(node.right)
        ):
            self._emit(
                "REP104",
                node,
                "set union via |: the merged order is hash-dependent; merge "
                "deterministically (sorted(...) over a list union, or "
                "dict.fromkeys(a + b))",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # set(...).union(...) — the combinator form of REP104.
        if node.attr in _SET_COMBINATORS and _is_set_expr(node.value):
            self._emit(
                "REP104",
                node,
                f"set combinator .{node.attr}(): result order is "
                "hash-dependent; merge deterministically instead",
            )
        self.generic_visit(node)

    # -- hot dataclasses (REP105) -----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorated = False
        has_slots = False
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = _dotted_name(target)
            if name in ("dataclass", "dataclasses.dataclass"):
                decorated = True
                if isinstance(dec, ast.Call):
                    for kw in dec.keywords:
                        if (
                            kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            has_slots = True
        if (
            decorated
            and not has_slots
            and node.name.endswith(_HOT_SUFFIXES)
        ):
            self._emit(
                "REP105",
                node,
                f"hot dataclass {node.name} without slots=True: per-instance "
                "__dict__ costs space on the message path and admits "
                "untracked dynamic attributes",
            )
        self.generic_visit(node)


# -- bare lock.acquire() (REP109) ----------------------------------------------
def _is_acquire_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "acquire"
    )


def _acquire_receiver(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return _dotted_name(node.func.value)
    return None


def _release_receivers(stmts: list[ast.stmt]) -> frozenset[str]:
    """Dotted receivers of ``.release()`` calls anywhere under ``stmts``."""
    out: set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
            ):
                recv = _dotted_name(node.func.value)
                if recv is not None:
                    out.add(recv)
    return frozenset(out)


def _scan_bare_acquires(tree: ast.AST, visitor: _LintVisitor) -> None:
    """Flag ``lock.acquire()`` calls not paired with a finally-release.

    Two shapes are accepted: a with-statement (never produces a bare
    ``.acquire()`` call, so nothing to do), and the explicit idiom::

        lock.acquire()
        try:
            ...
        finally:
            lock.release()

    where the acquire statement is immediately followed by a ``try``
    whose ``finally`` releases the same receiver, or the acquire sits
    inside a ``try`` body whose ``finally`` releases it (the
    conditional-acquire shape ``if lock.acquire(timeout=...)``).
    Everything else leaks the lock on an exception between acquire and
    release.
    """
    safe: set[int] = set()

    def mark_sibling_idiom(stmts: list[ast.stmt]) -> None:
        for i, stmt in enumerate(stmts[:-1]):
            if not (isinstance(stmt, ast.Expr) and _is_acquire_call(stmt.value)):
                continue
            assert isinstance(stmt.value, ast.Call)
            recv = _acquire_receiver(stmt.value)
            nxt = stmts[i + 1]
            if (
                recv is not None
                and isinstance(nxt, ast.Try)
                and recv in _release_receivers(nxt.finalbody)
            ):
                safe.add(id(stmt.value))

    def visit(node: ast.AST, released: frozenset[str]) -> None:
        if isinstance(node, ast.Try):
            inner = released | _release_receivers(node.finalbody)
            for stmt in node.body:
                visit(stmt, inner)
            for handler in node.handlers:
                for stmt in handler.body:
                    visit(stmt, inner)
            for stmt in node.orelse:
                visit(stmt, inner)
            for stmt in node.finalbody:
                visit(stmt, released)
            return
        if (
            _is_acquire_call(node)
            and id(node) not in safe
        ):
            assert isinstance(node, ast.Call)
            recv = _acquire_receiver(node)
            if recv is None or recv not in released:
                visitor._emit(
                    "REP109",
                    node,
                    f"bare {recv or '<lock>'}.acquire() without with/"
                    "try-finally: an exception before release leaks the "
                    "lock; use 'with lock:' or release in a finally",
                )
        for value in ast.iter_child_nodes(node):
            if isinstance(value, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(value, frozenset())
            else:
                visit(value, released)

    for child in ast.walk(tree):
        for _, value in ast.iter_fields(child):
            if (
                isinstance(value, list)
                and value
                and isinstance(value[0], ast.stmt)
            ):
                mark_sibling_idiom(value)
    visit(tree, frozenset())


def _lint(sources: Mapping[str, str], scope: str | None) -> LintReport:
    """Every rule over ``{path: source}``; ``scope`` overrides path-based
    scoping of the REP1xx rules."""
    findings: list[Finding] = []
    lines: dict[str, list[str]] = {}
    for path, source in sources.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="REP100",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        visitor = _LintVisitor(
            path, scope if scope is not None else path_scope(path)
        )
        visitor.visit(tree)
        _scan_bare_acquires(tree, visitor)
        findings.extend(visitor.findings)
        lines[path] = source.splitlines()

    report = LintReport(checked_files=len(sources))
    for finding in findings:
        if is_suppressed(finding, lines.get(finding.path, [])):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort(
        key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )
    return report


def lint_source(
    source: str, path: str = "<string>", scope: str | None = None
) -> LintReport:
    """Lint one file's source text; ``scope`` overrides path-based scoping."""
    return _lint({path: source}, scope)


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A path that is neither a directory nor an existing ``.py`` file
    raises :class:`~repro.errors.ConfigError`, so a typo cannot pass a
    gate as "0 findings in 0 files".
    """
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                out.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        elif p.endswith(".py") and os.path.isfile(p):
            out.append(p)
        else:
            raise ConfigError(f"not a directory or .py file: {p}")
    return sorted(dict.fromkeys(out))


def lint_paths(paths: Iterable[str], scope: str | None = None) -> LintReport:
    """Lint every ``.py`` file under ``paths``; one merged report."""
    sources: dict[str, str] = {}
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            sources[path] = fh.read()
    return _lint(sources, scope)

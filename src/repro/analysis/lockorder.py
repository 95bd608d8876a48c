"""Lock-order, blocking-under-lock and effect-annotation passes.

The service and telemetry layers hold a small, named set of locks
(catalog ``_lock`` / ``_kernel_lock``, cache ``_lock``, scheduler
``_cv``, client ``_lock``, metrics ``_create_lock``). Two properties
keep them deadlock- and convoy-free, and this pass checks both:

- **REP202 (lock-order-cycle)**: the lock-acquisition graph — an edge
  ``A -> B`` whenever ``B`` is acquired (directly or through a call
  chain) while ``A`` is held — must be acyclic. A cycle is a potential
  deadlock the moment two threads walk it from different ends.
- **REP203 (blocking-under-lock)**: no blocking operation (socket I/O,
  kernel construction/execution, ``Condition.wait`` on a *different*
  lock, sleeps, joins, future waits) while holding a *fast* lock — one
  every admission/lookup crosses (``GraphCatalog._lock``,
  ``ResultCache._lock``). Locks that exist precisely to serialise
  blocking work are excluded by policy: ``CatalogEntry._kernel_lock``
  (kernel construction is its job), ``ServiceClient._lock`` (serialises
  socket I/O per connection), and a condition's own ``wait`` (the
  condition protocol releases the lock while waiting).

Lock identity is inferred from the AST — ``self.X = threading.Lock() /
RLock() / Condition()`` in a class body names lock ``Class.X`` — so the
pass needs no registry edits when a new lock appears. Non-``self``
acquisitions (``entry._kernel_lock``) resolve by attribute name when it
is unique across the inferred registry.

Scope: modules under ``repro.service`` / ``repro.telemetry`` (where the
named locks live) plus any scanned file outside the ``repro`` package
(the seeded violation corpus).

**REP204 (effect-annotation-mismatch)** reuses the same lock identity
and blocking-operation set to check every ``@effects(...)`` /
``# repro: effect=`` declaration (:mod:`repro.analysis.effects`)
against the function body. :func:`lock_findings` runs all three rules
for ``repro lint``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    _iter_own_statements,
    _resolve_call,
    display_path,
)
from repro.analysis.effects import is_valid_effect, locked_target
from repro.sanitizers.determinism import _KERNEL_CONSTRUCTORS
from repro.sanitizers.rules import Finding

#: Callable names treated as blocking under a fast lock.
BLOCKING_ATTRS = frozenset(
    {
        # socket I/O
        "sendall", "send", "recv", "recv_into", "accept", "connect",
        "create_connection", "recv_frame",
        # kernel construction / execution
        "run", "execute", "make_variant",
        # waits
        "wait", "wait_for", "sleep", "join", "result", "acquire",
    }
)

#: Bare-name calls treated as blocking (kernel constructors come from
#: the syntactic lint so the two rule bands agree on the set).
BLOCKING_NAMES = frozenset({"sleep", "create_connection"}) | _KERNEL_CONSTRUCTORS

#: Lock constructor names (``threading.X()`` or bare after import).
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore"})


def _lock_scope(info: FunctionInfo) -> bool:
    mod = info.module
    return (
        mod.startswith(("repro.service", "repro.telemetry"))
        or not mod.startswith("repro")
    )


def is_fast_lock(lock_id: str) -> bool:
    """Whether ``lock_id`` is a fast lock (no blocking allowed under it):
    an attribute named ``_lock`` on a catalog or cache class."""
    cls, _, attr = lock_id.rpartition(".")
    return attr == "_lock" and (cls.endswith("Catalog") or cls.endswith("Cache"))


@dataclass(frozen=True)
class LockEdge:
    """``held`` is locked when ``acquired`` is taken at ``path:line``
    (``via`` names the call chain hop, empty for a nested ``with``)."""

    held: str
    acquired: str
    path: str
    line: int
    via: str


@dataclass(frozen=True)
class BlockingSite:
    """A blocking operation at ``path:line`` while ``held`` is locked."""

    held: str
    operation: str
    path: str
    line: int
    via: str


def _ctor_lock_name(value: ast.AST) -> bool:
    """Whether ``value`` is a ``threading.Lock()``-style constructor call."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_CTORS
    if isinstance(func, ast.Name):
        return func.id in _LOCK_CTORS
    return False


def build_lock_registry(graph: CallGraph) -> dict[str, tuple[str, ...]]:
    """Inferred locks: ``{attr: sorted lock ids}`` — e.g.
    ``{"_lock": ("GraphCatalog._lock", "ResultCache._lock"), ...}``."""
    by_attr: dict[str, set[str]] = {}
    for info in graph.functions.values():
        if info.cls is None or not _lock_scope(info):
            continue
        for node in _iter_own_statements(info.node):
            if not isinstance(node, ast.Assign) or not _ctor_lock_name(node.value):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    by_attr.setdefault(target.attr, set()).add(
                        f"{info.cls}.{target.attr}"
                    )
    return {attr: tuple(sorted(ids)) for attr, ids in sorted(by_attr.items())}


class _LockAnalysis:
    """Per-program fixpoint state for the two lock rules."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.registry = build_lock_registry(graph)
        self.scope = {
            q: info for q, info in graph.functions.items() if _lock_scope(info)
        }
        #: Locks a function acquires somewhere in its body.
        self.direct: dict[str, set[str]] = {}
        #: Locks a function (transitively) may acquire when called.
        self.trans: dict[str, set[str]] = {}
        #: Blocking ops a function (transitively) may perform:
        #: qualname -> sorted (operation, path, line).
        self.blocks: dict[str, set[tuple[str, str, int]]] = {}

    # -- lock identity ---------------------------------------------------------
    def lock_of(self, expr: ast.AST, info: FunctionInfo) -> str | None:
        """The lock id a ``with`` context expression names, if any."""
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        candidates = self.registry.get(attr)
        if not candidates:
            return None
        recv = expr.value
        if isinstance(recv, ast.Name) and recv.id == "self" and info.cls is not None:
            own = f"{info.cls}.{attr}"
            if own in candidates:
                return own
            return None
        # Non-self receiver: unambiguous attribute names only.
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- per-function direct facts ----------------------------------------------
    def _scan_function(self, qual: str) -> None:
        info = self.scope[qual]
        acquired: set[str] = set()
        blocking: set[tuple[str, str, int]] = set()
        for node in _iter_own_statements(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self.lock_of(item.context_expr, info)
                    if lock is not None:
                        acquired.add(lock)
            elif isinstance(node, ast.Call):
                op = self._blocking_name(node, info)
                if op is not None:
                    blocking.add((op, info.path, node.lineno))
        self.direct[qual] = acquired
        self.blocks[qual] = blocking

    def _blocking_name(self, call: ast.Call, info: FunctionInfo) -> str | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and call.args
        ):
            # str.join / bytes.join take the iterable positionally;
            # Thread.join takes at most a timeout keyword.
            return None
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_ATTRS:
            # ``self._cv.wait()`` blocks, but it is the condition
            # protocol when the receiver IS a held lock — the caller-side
            # same-lock exemption in _check_blocking handles that; here we
            # just name the operation.
            return func.attr
        if isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
            return func.id
        return None

    # -- fixpoints ---------------------------------------------------------------
    def _fixpoint(self) -> None:
        for qual in self.scope:
            self._scan_function(qual)
        self.trans = {q: set(s) for q, s in self.direct.items()}
        trans_blocks = {q: set(s) for q, s in self.blocks.items()}
        changed = True
        while changed:
            changed = False
            for qual in self.scope:
                for callee in self.graph.edges.get(qual, ()):
                    if callee not in self.scope:
                        continue
                    before = len(self.trans[qual])
                    self.trans[qual] |= self.trans.get(callee, set())
                    if len(self.trans[qual]) != before:
                        changed = True
                    before_b = len(trans_blocks[qual])
                    trans_blocks[qual] |= trans_blocks.get(callee, set())
                    if len(trans_blocks[qual]) != before_b:
                        changed = True
        self.trans_blocks = trans_blocks

    # -- reporting passes --------------------------------------------------------
    def edges_and_blocking(self) -> tuple[list[LockEdge], list[BlockingSite]]:
        self._fixpoint()
        edges: set[LockEdge] = set()
        blocking: set[BlockingSite] = set()
        for qual in sorted(self.scope):
            info = self.scope[qual]
            self._walk_with(info.node, info, (), edges, blocking)
        return (
            sorted(edges, key=lambda e: (e.held, e.acquired, e.path, e.line)),
            sorted(
                blocking,
                key=lambda b: (b.held, b.path, b.line, b.operation),
            ),
        )

    def _walk_with(
        self,
        node: ast.AST,
        info: FunctionInfo,
        held: tuple[str, ...],
        edges: set[LockEdge],
        blocking: set[BlockingSite],
    ) -> None:
        """Recursive walk tracking the held-lock stack through ``with``
        bodies (without descending into nested defs)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                inner = held
                for item in child.items:
                    lock = self.lock_of(item.context_expr, info)
                    if lock is not None:
                        for outer in inner:
                            edges.add(
                                LockEdge(
                                    outer, lock, info.path,
                                    child.lineno, "",
                                )
                            )
                        inner = inner + (lock,)
                for stmt in child.body:
                    self._walk_with(stmt, info, inner, edges, blocking)
                    self._visit_holding(stmt, info, inner, edges, blocking)
                continue
            self._visit_holding(child, info, held, edges, blocking)
            self._walk_with(child, info, held, edges, blocking)

    def _visit_holding(
        self,
        node: ast.AST,
        info: FunctionInfo,
        held: tuple[str, ...],
        edges: set[LockEdge],
        blocking: set[BlockingSite],
    ) -> None:
        """Record call-derived lock edges and blocking ops at ``node``
        while ``held`` locks are taken."""
        if not held or not isinstance(node, ast.Call):
            return
        func = node.func
        # Direct blocking operation under a fast lock.
        op = self._blocking_name(node, info)
        if op is not None:
            same_lock = (
                op in ("wait", "wait_for", "acquire")
                and isinstance(func, ast.Attribute)
                and self._receiver_lock(func.value, info) == held[-1]
            )
            if not same_lock:
                for lock in held:
                    if is_fast_lock(lock):
                        blocking.add(
                            BlockingSite(
                                lock, op, info.path, node.lineno, ""
                            )
                        )
        # Call-derived facts: locks and blocking ops of the callee chain.
        callees = self._callees_at(node, info)
        for callee in callees:
            if callee not in self.scope:
                continue
            for lock in sorted(self.trans.get(callee, ())):
                for outer in held:
                    if outer != lock:
                        edges.add(
                            LockEdge(
                                outer, lock, info.path,
                                node.lineno, callee,
                            )
                        )
            for op_name, path, line in sorted(self.trans_blocks.get(callee, ())):
                for lock in held:
                    if is_fast_lock(lock):
                        blocking.add(
                            BlockingSite(lock, op_name, path, line, callee)
                        )

    def _receiver_lock(self, recv: ast.AST, info: FunctionInfo) -> str | None:
        return self.lock_of(recv, info) if isinstance(recv, ast.Attribute) else None

    def _callees_at(self, call: ast.Call, info: FunctionInfo) -> tuple[str, ...]:
        mod = self.graph.modules[info.path]
        return tuple(sorted(_resolve_call(self.graph, mod, info, call)))


# -- effect annotations (REP204) -----------------------------------------------
def _effect_findings(graph: CallGraph) -> list[Finding]:
    analysis = _LockAnalysis(graph)
    out: list[Finding] = []
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        for spec in info.effects:
            message: str | None = None
            if not is_valid_effect(spec):
                message = f"unknown effect {spec!r}"
            elif spec == "pure":
                reason = _impure_reason(info, analysis)
                if reason is not None:
                    message = f"declared pure but {reason}"
            else:
                lock = locked_target(spec)
                if lock is not None and not _acquires_named_lock(
                    info, analysis, lock
                ):
                    message = f"declared locked:{lock} but never acquires it"
            if message is not None:
                out.append(Finding("REP204", info.path, info.lineno, 1, message))
    return out


def _impure_reason(info: FunctionInfo, analysis: _LockAnalysis) -> str | None:
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


def find_lock_cycles(
    edges: list[LockEdge],
) -> list[tuple[tuple[str, ...], tuple[LockEdge, ...]]]:
    """Cycles in the lock-acquisition graph, canonicalised (each cycle
    rotated to start at its smallest lock id) and deduplicated."""
    adj: dict[str, dict[str, LockEdge]] = {}
    for edge in edges:
        adj.setdefault(edge.held, {}).setdefault(edge.acquired, edge)
    cycles: dict[tuple[str, ...], tuple[LockEdge, ...]] = {}

    def dfs(start: str, node: str, path: list[str]) -> None:
        for nxt in sorted(adj.get(node, ())):
            if nxt == start:
                cycle = tuple(path)
                pivot = cycle.index(min(cycle))
                canon = cycle[pivot:] + cycle[:pivot]
                if canon not in cycles:
                    ring = canon + (canon[0],)
                    cycles[canon] = tuple(
                        adj[a][b] for a, b in zip(ring, ring[1:])
                    )
            elif nxt not in path and nxt > start:
                # Only explore nodes > start so each cycle is found once,
                # from its smallest member.
                dfs(start, nxt, path + [nxt])

    for start in sorted(adj):
        dfs(start, start, [start])
    # Self-loops (lock re-acquired under itself) are cycles of length 1.
    for edge in edges:
        if edge.held == edge.acquired:
            cycles.setdefault((edge.held,), (edge,))
    return sorted(cycles.items())


def analyze_locks(
    graph: CallGraph,
) -> tuple[
    list[LockEdge],
    list[tuple[tuple[str, ...], tuple[LockEdge, ...]]],
    list[BlockingSite],
]:
    """The full lock pass: (acquisition edges, cycles, blocking sites)."""
    analysis = _LockAnalysis(graph)
    edges, blocking = analysis.edges_and_blocking()
    return edges, find_lock_cycles(edges), blocking


def lock_findings(graph: CallGraph) -> list[Finding]:
    """REP202, REP203 and REP204 findings over the program, before noqa
    suppression."""
    _, cycles, blocking = analyze_locks(graph)
    out: list[Finding] = []
    for cycle_locks, cycle_edges in cycles:
        first = cycle_edges[0]
        ring = " -> ".join(cycle_locks + (cycle_locks[0],))
        sites = "; ".join(
            f"{e.held}->{e.acquired} at {display_path(e.path)}:{e.line}"
            + (f" via {e.via}" if e.via else "")
            for e in cycle_edges
        )
        out.append(
            Finding(
                "REP202", first.path, first.line, 1,
                f"lock-order cycle {ring} ({sites})",
            )
        )
    for site in blocking:
        out.append(
            Finding(
                "REP203", site.path, site.line, 1,
                f"blocking operation .{site.operation}() while holding "
                f"{site.held}"
                + (f" (reached via {site.via})" if site.via else ""),
            )
        )
    out.extend(_effect_findings(graph))
    return out

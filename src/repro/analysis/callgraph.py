"""AST call-graph construction for the whole-program lint passes.

Built from the trees ``repro lint`` already parsed, two derived
structures:

- a **function index**: every module-level function and class method,
  keyed by dotted qualname (``repro.core.bfs.DistributedBFS._mark``).
  Nested ``def``s are indexed under their enclosing function with an
  implicit contains-edge, so closures handed out as callbacks stay
  reachable from their builder;
- a **call-edge map** resolved with deliberately *conservative* rules.
  Exact resolution where the syntax allows it (local functions, imported
  symbols, ``self.method()`` against the enclosing class, ``Class.method``
  / ``Class(...)`` constructor calls); name-based resolution for everything
  else (``obj.method()`` adds an edge to every indexed method of that
  name). Over-approximating the callee set can only widen reachability —
  the safe direction for a safety analysis.

Known limitation (documented in docs/static-analysis.md): calls through
containers (``self._handlers[dst](msg)``) are invisible to the AST.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.analysis.effects import parse_effect_comment

#: Ubiquitous builtin container/str method names, excluded from the
#: name-based fallback: an unresolvable ``self._entries.get(...)`` is a
#: dict lookup, not a call into every class that happens to define
#: ``get`` — resolving it by name would weld the catalog, the cache, and
#: every scheduler queue into one spurious blob of edges.
COMMON_METHOD_NAMES = frozenset(
    {
        "get", "pop", "popitem", "popleft", "append", "appendleft",
        "extend", "insert", "remove", "discard", "clear", "update",
        "setdefault", "keys", "values", "items", "copy", "sort",
        "reverse", "count", "index", "join", "split", "strip",
        "startswith", "endswith", "format", "encode", "decode", "read",
        "write", "close", "flush", "move_to_end", "rotate", "add",
        "notify", "notify_all", "put", "tolist", "astype", "item",
    }
)


def module_name(path: str) -> str:
    """Dotted module name for a file: anchored at the ``repro`` package
    when the path runs through one, else the bare stem (corpus files)."""
    parts = path.replace("\\", "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        idx = len(parts) - 2 - parts[-2::-1].index("repro")
        pkg = parts[idx:-1]
        return ".".join(pkg if stem == "__init__" else pkg + [stem])
    return stem


def display_path(path: str) -> str:
    """Stable, machine-independent rendering of a file path: anchored at
    ``repro/`` when possible, else the last two path components."""
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts[:-1]:
        idx = len(parts) - 2 - parts[-2::-1].index("repro")
        return "/".join(parts[idx:])
    return "/".join(parts[-2:])


@dataclass
class FunctionInfo:
    """One indexed function/method and its analysis-relevant facts."""

    qualname: str
    module: str
    cls: str | None
    name: str
    path: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    effects: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One parsed file: its imports, classes and functions."""

    path: str
    module: str
    #: Import alias -> fully dotted target ("np" -> "numpy",
    #: "make_variant" -> "repro.baselines.make_variant").
    imports: dict[str, str] = field(default_factory=dict)
    #: Top-level class name -> {method name -> qualname}.
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: Top-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)


@dataclass
class CallGraph:
    """The whole-program index the analysis passes run over."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    #: Caller qualname -> sorted callee qualnames.
    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Method/function name -> sorted qualnames (name-based fallback).
    by_name: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _iter_own_statements(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested def/class bodies."""
    stack = [node]
    first = True
    while stack:
        cur = stack.pop()
        if not first and isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        first = False
        yield cur
        stack.extend(reversed(list(ast.iter_child_nodes(cur))))


def _decorator_effects(
    node: ast.FunctionDef | ast.AsyncFunctionDef, lines: list[str]
) -> tuple[str, ...]:
    """Effects from an ``@effects(...)`` decorator plus the def-line
    ``# repro: effect=...`` comment."""
    out: list[str] = []
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            target = dec.func
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name == "effects":
                out.extend(
                    arg.value
                    for arg in dec.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                )
    if 1 <= node.lineno <= len(lines):
        out.extend(parse_effect_comment(lines[node.lineno - 1]))
    return tuple(dict.fromkeys(out))


def _index_module(
    path: str, tree: ast.Module, lines: list[str], graph: CallGraph
) -> None:
    mod = ModuleInfo(path, module_name(path))
    graph.modules[path] = mod

    def add_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        cls: str | None,
    ) -> FunctionInfo:
        info = FunctionInfo(
            qualname=qualname,
            module=mod.module,
            cls=cls,
            name=node.name,
            path=path,
            lineno=node.lineno,
            node=node,
            effects=_decorator_effects(node, lines),
        )
        graph.functions[qualname] = info
        return info

    def index_nested(
        parent: ast.FunctionDef | ast.AsyncFunctionDef,
        parent_qualname: str,
        cls: str | None,
    ) -> None:
        for child in ast.walk(parent):
            if child is parent:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_qual = f"{parent_qualname}.{child.name}"
                if inner_qual not in graph.functions:
                    add_function(child, inner_qual, cls)

    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            else:
                base = stmt.module or ""
                for alias in stmt.names:
                    mod.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{mod.module}.{stmt.name}"
            mod.functions[stmt.name] = qual
            add_function(stmt, qual, None)
            index_nested(stmt, qual, None)
        elif isinstance(stmt, ast.ClassDef):
            methods: dict[str, str] = {}
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{mod.module}.{stmt.name}.{item.name}"
                    methods[item.name] = qual
                    add_function(item, qual, stmt.name)
                    index_nested(item, qual, stmt.name)
                # Function-scope imports (lazy kernel imports in the
                # catalog) also bind resolvable names.
            mod.classes[stmt.name] = methods


def _class_lookup(graph: CallGraph, mod: ModuleInfo, name: str) -> str | None:
    """Resolve ``name`` to a class key ``module.Class`` visible from
    ``mod`` (local class, imported class, or unique global class)."""
    if name in mod.classes:
        return f"{mod.module}.{name}"
    target = mod.imports.get(name)
    if target is not None:
        tmod, _, tname = target.rpartition(".")
        other = _module_by_name(graph, tmod)
        if other is not None and tname in other.classes:
            return f"{other.module}.{tname}"
    hits = sorted(
        f"{m.module}.{name}" for m in graph.modules.values() if name in m.classes
    )
    if len(hits) == 1:
        return hits[0]
    return None


def _module_by_name(graph: CallGraph, name: str) -> ModuleInfo | None:
    for m in graph.modules.values():
        if m.module == name:
            return m
    return None


def _resolve_call(
    graph: CallGraph,
    mod: ModuleInfo,
    info: FunctionInfo,
    call: ast.Call,
) -> set[str]:
    """Possible callee qualnames for one Call node (may be empty)."""
    out: set[str] = set()
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in mod.functions:
            out.add(mod.functions[name])
        elif name in mod.imports:
            target = mod.imports[name]
            if target in graph.functions:
                out.add(target)
            else:
                cls_key = _class_lookup(graph, mod, name)
                if cls_key is not None and f"{cls_key}.__init__" in graph.functions:
                    out.add(f"{cls_key}.__init__")
        else:
            cls_key = _class_lookup(graph, mod, name)
            if cls_key is not None and f"{cls_key}.__init__" in graph.functions:
                out.add(f"{cls_key}.__init__")
            elif info.cls is not None and name not in COMMON_METHOD_NAMES:
                # A bare name inside a method may be a function-scope
                # import (the catalog's lazy kernel imports).
                hits = graph.by_name.get(name, ())
                out.update(q for q in hits if graph.functions[q].cls is None)
    elif isinstance(func, ast.Attribute):
        attr = func.attr
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
            if info.cls is not None:
                own = mod.classes.get(info.cls, {})
                if attr in own:
                    out.add(own[attr])
                    return out
            if attr not in COMMON_METHOD_NAMES:
                out.update(graph.by_name.get(attr, ()))
        elif isinstance(recv, ast.Name):
            cls_key = _class_lookup(graph, mod, recv.id)
            if cls_key is not None:
                cmod, _, cname = cls_key.rpartition(".")
                other = _module_by_name(graph, cmod)
                if other is not None and attr in other.classes.get(cname, {}):
                    out.add(other.classes[cname][attr])
                    return out
            if recv.id in mod.imports and recv.id not in graph.by_name:
                # Module alias (``np.argsort``): out of scanned scope.
                return out
            if attr not in COMMON_METHOD_NAMES:
                out.update(
                    q for q in graph.by_name.get(attr, ())
                    if graph.functions[q].cls is not None
                )
        else:
            # Generic receiver: name-based over indexed methods only.
            if attr not in COMMON_METHOD_NAMES:
                out.update(
                    q for q in graph.by_name.get(attr, ())
                    if graph.functions[q].cls is not None
                )
    return out


def build_callgraph(
    parsed: Mapping[str, tuple[ast.Module, list[str]]],
) -> CallGraph:
    """Build the program index and call edges from ``{path: (tree,
    source lines)}``."""
    graph = CallGraph()
    for path in sorted(parsed):
        tree, lines = parsed[path]
        _index_module(path, tree, lines, graph)

    by_name: dict[str, set[str]] = {}
    for qual, info in graph.functions.items():
        by_name.setdefault(info.name, set()).add(qual)
    graph.by_name = {
        name: tuple(sorted(quals)) for name, quals in sorted(by_name.items())
    }

    for qual, info in sorted(graph.functions.items()):
        mod = graph.modules[info.path]
        callees: set[str] = set()
        # Contains-edges to nested defs (closures handed out as callbacks).
        prefix = qual + "."
        callees.update(
            q for q in graph.functions
            if q.startswith(prefix) and "." not in q[len(prefix):]
        )
        for node in _iter_own_statements(info.node):
            if isinstance(node, ast.Call):
                callees.update(_resolve_call(graph, mod, info, node))
        callees.discard(qual)
        graph.edges[qual] = tuple(sorted(callees))
    return graph

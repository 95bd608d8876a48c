"""Hierarchical spans over *simulated* time.

The simulator computes every start/finish up front (servers are FIFO
next-free-time resources), so spans are recorded retrospectively rather
than timed: a caller *opens* a span to obtain its id (children can then
point at it immediately) and *closes* it once the window is known. The
canonical hierarchy a profiled Graph500 run produces::

    run                      (the whole benchmark, runner-level)
      root <r>               (one traversal; kernel-level)
        level <k>            (one BFS level between barriers)
          <module kind>      (one module execution on an MPE/CPE cluster)
          message-batch      (one bucket fan-out injected by a module)

Two recorders share the interface: :class:`SpanRecorder` collects, and
:class:`NullRecorder` is the disabled path — every method is a constant
no-op, so instrumented code costs one attribute check when telemetry is
off (the bench gate pins this at <= 2% harness overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError


@dataclass(slots=True)
class Span:
    """One named window of simulated time inside an optional parent."""

    id: int
    name: str
    category: str
    start: float = 0.0
    finish: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    closed: bool = False

    @property
    def seconds(self) -> float:
        return self.finish - self.start


class NullRecorder:
    """The disabled recorder: accepts everything, stores nothing."""

    enabled = False
    spans: tuple = ()

    def open(self, name: str, category: str, parent: int | None = None, **attrs: Any) -> int:
        return -1

    def close(self, span_id: int, start: float, finish: float, **attrs: Any) -> None:
        pass

    def record(self, name: str, category: str, start: float, finish: float, parent: int | None = None, **attrs: Any) -> int:
        return -1

    def __len__(self) -> int:
        return 0


class SpanRecorder:
    """Collects spans; ids are allocation-ordered and stable.

    Record order is deterministic for a deterministic simulation — ids are
    handed out by a monotone counter at ``open`` time, so two runs of the
    same configuration produce identical span lists.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording -------------------------------------------------------------
    def open(self, name: str, category: str, parent: int | None = None,
             **attrs: Any) -> int:
        """Allocate a span id now; times arrive at :meth:`close`."""
        if parent is not None and parent >= 0:
            if not 0 <= parent < len(self.spans):
                raise ConfigError(f"unknown parent span {parent}")
        else:
            parent = None
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, category, parent=parent,
                               attrs=dict(attrs)))
        return span_id

    def close(self, span_id: int, start: float, finish: float, **attrs: Any) -> None:
        if span_id < 0:
            return
        span = self.spans[span_id]
        if finish < start:
            raise ConfigError(
                f"span {span.name!r} closes before it starts "
                f"({finish} < {start})"
            )
        span.start = start
        span.finish = finish
        span.closed = True
        if attrs:
            span.attrs.update(attrs)

    def record(self, name: str, category: str, start: float, finish: float,
               parent: int | None = None, **attrs: Any) -> int:
        """Open and close in one call (for windows already known)."""
        span_id = self.open(name, category, parent=parent, **attrs)
        self.close(span_id, start, finish)
        return span_id

    # -- queries -----------------------------------------------------------------
    def by_category(self, *categories: str) -> list[Span]:
        wanted = set(categories)
        return [s for s in self.spans if s.category in wanted]

    def children(self, parent: int | None) -> list[Span]:
        return [s for s in self.spans if s.parent == parent]

    def tree(self, categories: set[str] | None = None) -> list[dict]:
        """Nested ``{name, category, children}`` dicts in record order.

        With ``categories`` given, spans of other categories are skipped
        and their children re-parented to the nearest kept ancestor —
        useful for comparing the run/root/level skeleton across harness
        modes whose deep instrumentation differs (e.g. ``workers=N``
        derives root/level spans from merged results and has no module
        spans to show).
        """
        keep: dict[int, dict] = {}
        remap: dict[int, int | None] = {}
        roots: list[dict] = []
        for span in self.spans:
            parent = span.parent
            # Walk up through skipped ancestors.
            while parent is not None and parent not in keep:
                parent = remap.get(parent, self.spans[parent].parent)
            if categories is not None and span.category not in categories:
                remap[span.id] = parent
                continue
            node = {
                "name": span.name,
                "category": span.category,
                "children": [],
            }
            keep[span.id] = node
            if parent is None:
                roots.append(node)
            else:
                keep[parent]["children"].append(node)
        return roots

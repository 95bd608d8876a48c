"""Effect annotations checked by ``repro lint``.

Functions on the simulator or service hot paths can declare their
concurrency contract, and ``repro lint`` validates the declaration
against what the AST actually shows (rule REP204):

- ``pure`` — no attribute stores, no lock acquisitions, no blocking
  operations in the body;
- ``locked:<Class>.<attr>`` — the body acquires the named lock
  (``with self.<attr>:``), e.g. ``locked:ResultCache._lock``.

Two spellings, for two layering situations:

- the :func:`effects` decorator, importable from anywhere that may
  depend on ``repro.analysis`` (the service layer uses it);
- a ``# repro: effect=pure`` comment on the ``def`` line, for
  modules below the checker in the import graph (``repro.telemetry``,
  ``repro.sim``) where importing the decorator would invert layering.

The decorator is deliberately stdlib-only and runtime-inert: it
stamps ``__repro_effects__`` on the function and returns it unchanged,
so it composes with dataclasses, pickling, and bound methods, and
importing it loads none of the checker.
"""

from __future__ import annotations

import re
from typing import Callable, TypeVar

#: Attribute set on decorated functions, read by the checker via AST
#: (the decorator call is visible syntactically) and by tooling at
#: runtime via :func:`declared_effects`.
EFFECTS_ATTR = "__repro_effects__"

#: Valid bare effect names; ``locked:<name>`` is validated by pattern.
BARE_EFFECTS = frozenset({"pure"})

_LOCKED_RE = re.compile(r"^locked:(?P<lock>[A-Za-z_][\w.]*)$")

#: ``# repro: effect=pure`` / ``# repro: effect=locked:Foo._lock``
#: (comma-separated list allowed) on a ``def`` line.
EFFECT_COMMENT_RE = re.compile(
    r"#\s*repro:\s*effect=(?P<specs>[\w.:,\s-]+)", re.IGNORECASE
)

F = TypeVar("F", bound=Callable[..., object])


def is_valid_effect(spec: str) -> bool:
    """Whether ``spec`` is a recognised effect declaration."""
    return spec in BARE_EFFECTS or _LOCKED_RE.match(spec) is not None


def locked_target(spec: str) -> str | None:
    """The lock name of a ``locked:<name>`` spec, else None."""
    m = _LOCKED_RE.match(spec)
    return m.group("lock") if m is not None else None


def effects(*specs: str) -> Callable[[F], F]:
    """Declare a function's concurrency effects (validated by
    ``repro lint``); returns the function unchanged."""
    for spec in specs:
        if not is_valid_effect(spec):
            raise ValueError(
                f"unknown effect {spec!r}; expected 'pure' or "
                "'locked:<Class>.<attr>'"
            )

    def mark(fn: F) -> F:
        setattr(fn, EFFECTS_ATTR, tuple(specs))
        return fn

    return mark


def declared_effects(fn: Callable[..., object]) -> tuple[str, ...]:
    """The effects stamped on ``fn`` by :func:`effects` (empty if none)."""
    out = getattr(fn, EFFECTS_ATTR, ())
    return tuple(out)


def parse_effect_comment(line: str) -> tuple[str, ...]:
    """Effect specs declared by a ``# repro: effect=...`` comment on one
    source line (empty tuple when there is no directive)."""
    m = EFFECT_COMMENT_RE.search(line)
    if m is None:
        return ()
    return tuple(
        spec.strip() for spec in m.group("specs").split(",") if spec.strip()
    )

"""Waitable events for process-style simulation code.

An :class:`Event` is a one-shot broadcast: processes that yield it are
resumed, in a deterministic order, when it succeeds. :class:`Timeout` is the
yield-value a process uses to sleep for a fixed amount of simulated time.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.sim.engine import Engine


class Timeout:
    """Yielded by a process to suspend for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Event:
    """A one-shot event that processes can wait on.

    ``succeed(value)`` fires the event, resuming every waiter with ``value``.
    Waiting on an already-fired event resumes immediately with the stored
    value (so there is no lost-wakeup race).
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._fired = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("event value read before the event fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            # Resume waiters asynchronously so that succeed() never reenters
            # the caller's frame — this keeps process semantics simple.
            self._engine.call_after(0.0, cb, value)

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        if self._fired:
            self._engine.call_after(0.0, cb, self._value)
        else:
            self._callbacks.append(cb)

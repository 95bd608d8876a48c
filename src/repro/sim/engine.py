"""The discrete-event engine: a time-ordered callback queue.

Design notes
------------
The engine is intentionally tiny. Everything that happens in the simulated
machine is an entry ``(time, seq, callback, args)`` in a binary heap. ``seq``
is a monotone counter that (a) breaks ties deterministically and (b) keeps
heap comparisons away from unorderable payloads.

Simulated time is a float in **seconds**. The engine never advances past an
event without executing it, and callbacks may schedule further events at or
after the current time (scheduling in the past is an error — it would make
the simulation acausal).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError


class Engine:
    """A deterministic event loop over simulated time."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        self._now = 0.0
        self._events_executed = 0
        self._running = False
        self._cancelled: set[int] = set()
        #: Optional :class:`repro.telemetry.Telemetry`; when set, each
        #: ``run`` folds its executed-event count into the metrics
        #: registry (zero cost on the per-event hot path).
        self.telemetry = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_executed

    def __len__(self) -> int:
        """Live pending events: queued and not cancelled.

        ``_cancelled`` may also hold marks for handles that already ran
        (see :meth:`cancel`), so only marks on queued entries count.
        """
        cancelled = self._cancelled
        if not cancelled:
            return len(self._queue)
        return sum(1 for entry in self._queue if entry[1] not in cancelled)

    # -- scheduling ------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> int:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``.

        Returns an event handle usable with :meth:`cancel`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when!r} before now={self._now!r}"
            )
        handle = self._seq
        heapq.heappush(self._queue, (when, handle, fn, args))
        self._seq += 1
        return handle

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> int:
        """Schedule ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def schedule_batch(
        self,
        whens: list[float],
        fn: Callable[..., None],
        argses: list[tuple[Any, ...]],
    ) -> range:
        """Schedule ``fn(*argses[i])`` at ``whens[i]`` for a whole batch.

        One past-time check and one attribute walk for the batch; handle
        allocation matches ``call_at`` called in order, so tie-breaking
        between batch members and any other event is unchanged. Returns the
        contiguous handle range (usable with :meth:`cancel`).
        """
        if len(whens) != len(argses):
            raise SimulationError("schedule_batch lists must have equal lengths")
        if whens and min(whens) < self._now:
            raise SimulationError(
                f"cannot schedule event at t={min(whens)!r} before now={self._now!r}"
            )
        seq = self._seq
        queue = self._queue
        push = heapq.heappush
        for when, args in zip(whens, argses):
            push(queue, (when, seq, fn, args))
            seq += 1
        first = self._seq
        self._seq = seq
        return range(first, seq)

    def cancel(self, handle: int) -> None:
        """Cancel a pending event by the handle :meth:`call_at` returned.

        A cancelled event is discarded without executing and — unlike a
        no-op callback — without advancing the clock, so timeout guards
        (ack timers, watchdogs) don't inflate simulated time once their
        condition is met. Cancelling an already-executed handle is a
        tolerated no-op (ack paths race the timers they guard); its mark
        is reclaimed at the next quiescent point, so the cancelled set
        stays bounded by the *pending* cancellations of the current run
        rather than growing for the lifetime of the engine. Marks that
        reach the queue head are purged eagerly.
        """
        if not 0 <= handle < self._seq:
            raise SimulationError(f"unknown event handle: {handle!r}")
        self._cancelled.add(handle)
        queue = self._queue
        cancelled = self._cancelled
        while queue and queue[0][1] in cancelled:
            cancelled.discard(queue[0][1])
            heapq.heappop(queue)

    # -- running ----------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event. Returns False when the queue is empty."""
        while self._queue:
            when, seq, fn, args = heapq.heappop(self._queue)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._now = when
            self._events_executed += 1
            fn(*args)
            return True
        self._cancelled.clear()
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue (optionally bounded by time or event count).

        Returns the simulated time after the run. With ``until`` set, events
        strictly after that time stay queued and the clock is advanced to
        exactly ``until`` (if the simulation reaches it).
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            executed = 0
            queue = self._queue
            cancelled = self._cancelled
            pop = heapq.heappop
            while queue:
                when = queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                # Fast path: simultaneous events (message bursts at a level
                # barrier) drain in one tight inner loop — the time-bound
                # check above holds for the whole batch, so it is not
                # re-evaluated per event.
                while queue and queue[0][0] == when:
                    if max_events is not None and executed >= max_events:
                        break
                    _, seq, fn, args = pop(queue)
                    if seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    self._now = when
                    executed += 1
                    fn(*args)
            else:
                if until is not None:
                    self._now = max(self._now, until)
                # Quiescent: every scheduled event has either executed or
                # been popped, so surviving marks can only refer to handles
                # cancelled *after* they fired — reclaim them here.
                cancelled.clear()
        finally:
            self._running = False
            # Folded out of the hot loop; nothing inside a callback reads
            # the counter mid-run.
            self._events_executed += executed
            if self.telemetry is not None and executed:
                self.telemetry.metrics.counter("engine_events").add(executed)
        return self._now

    def run_until_quiescent(self, max_events: int = 100_000_000) -> float:
        """Drain every event; raise if the bound is hit (runaway simulation)."""
        start = self._events_executed
        self.run(max_events=max_events)
        if self._queue:
            raise SimulationError(
                f"simulation still active after {self._events_executed - start} events"
            )
        return self._now

"""Busy-time resources for callback-style simulation.

The BFS runtime computes every service time up front (from the machine
model), so a resource does not need blocking semantics — only an answer to
"given work arriving at time ``t`` that takes ``d`` seconds, when does it
start and finish?". :class:`Server` is one FIFO execution unit (an MPE, a
CPE cluster, a network link).
"""

from __future__ import annotations

from repro.errors import SimulationError


class Server:
    """One FIFO unit of service with a next-free time and utilisation stats.

    Setting ``intervals`` to a list (see :mod:`repro.telemetry.export`) makes the
    server record every (start, finish) busy window for trace export.
    """

    __slots__ = ("name", "free_at", "busy_time", "jobs", "intervals")

    def __init__(self, name: str = "server") -> None:
        self.name = name
        self.free_at = 0.0
        self.busy_time = 0.0
        self.jobs = 0
        self.intervals: list[tuple[float, float]] | None = None

    def admit(self, now: float, duration: float) -> tuple[float, float]:
        """Enqueue a job arriving at ``now`` lasting ``duration``.

        Returns ``(start, finish)`` and advances the server's clock.
        """
        if duration < 0:
            raise SimulationError(f"negative service time: {duration!r}")
        start = max(now, self.free_at)
        finish = start + duration
        self.free_at = finish
        self.busy_time += duration
        self.jobs += 1
        if self.intervals is not None:
            self.intervals.append((start, finish))
        return start, finish

    def admit_many(self, times: list[float], duration: float) -> list[float]:
        """FIFO-admit one fixed-``duration`` job per arrival time; returns
        the finish times.

        Exactly :meth:`admit` called once per element in order — the
        ``max`` recurrence over ``free_at`` is order-dependent in floating
        point, so it stays a sequential scan — with the per-call attribute
        and bookkeeping overhead paid once per batch.
        """
        if duration < 0:
            raise SimulationError(f"negative service time: {duration!r}")
        finishes = []
        append = finishes.append
        free = self.free_at
        busy = self.busy_time
        intervals = self.intervals
        for now in times:
            start = now if now > free else free
            free = start + duration
            busy += duration
            append(free)
            if intervals is not None:
                intervals.append((start, free))
        self.free_at = free
        self.busy_time = busy
        self.jobs += len(times)
        return finishes

    def earliest_start(self, now: float) -> float:
        """When a job arriving at ``now`` would begin service."""
        return max(now, self.free_at)

    def utilisation(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.jobs = 0

    # -- telemetry ---------------------------------------------------------------
    def enable_intervals(self) -> None:
        """Start recording (start, finish) busy windows (idempotent)."""
        if self.intervals is None:
            self.intervals = []

    def clear_intervals(self) -> None:
        """Drop recorded windows but keep recording enabled (if it was)."""
        if self.intervals is not None:
            self.intervals = []


"""Lightweight statistics collection for simulations.

Simulations register named counters and time series under a
:class:`StatsRegistry`; benchmark harnesses read them to report message
counts, byte volumes, per-level timings and so on.

The registry is now a thin specialisation of
:class:`repro.telemetry.metrics.MetricsRegistry` — the unified observability
layer — so every simulation stats object also supports labeled counters,
gauges and histograms (``stats.counter("messages_by_tag", tag="fwd")``)
with unchanged unlabeled behaviour and snapshot format.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries", "StatsRegistry"]


class StatsRegistry(MetricsRegistry):
    """Named counters and series with create-on-first-use semantics.

    Adds the simulation-side :class:`TimeSeries` store to the base metrics
    registry; series are kept out of ``snapshot()`` (they are sequences,
    not scalars).
    """

    def __init__(self) -> None:
        super().__init__()
        self.series: dict[str, TimeSeries] = {}

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

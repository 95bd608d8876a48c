"""A small deterministic discrete-event simulation (DES) engine.

The engine drives both the machine model (DMA transfers, mesh shuffles,
module executions on CPE clusters) and the network model (message flights
over fat-tree links) in callback style: code schedules ``engine.call_at`` /
``engine.call_after`` callbacks, service times are computed up front, and
each :class:`~repro.sim.resources.Server` tracks its next-free time.

Determinism: ties in the event queue break on a monotone sequence number, so
two runs with the same seeds produce identical traces.
"""

from repro.sim.engine import Engine
from repro.sim.resources import Server
from repro.sim.stats import Counter, TimeSeries, StatsRegistry

__all__ = [
    "Engine",
    "Server",
    "Counter",
    "TimeSeries",
    "StatsRegistry",
]

"""A small deterministic discrete-event simulation (DES) engine.

The engine drives both the machine model (DMA transfers, mesh shuffles,
module executions on CPE clusters) and the network model (message flights
over fat-tree links). Two programming styles are supported:

- **callback style** (used by the BFS runtime): schedule ``engine.call_at`` /
  ``engine.call_after`` callbacks; service times are computed up front and
  resources track their next-free times (:class:`~repro.sim.resources.Server`
  and :class:`~repro.sim.resources.ServerPool`).
- **process style** (used in tests and small models): Python generators that
  ``yield`` :class:`~repro.sim.process.Timeout` or events.

Determinism: ties in the event queue break on a monotone sequence number, so
two runs with the same seeds produce identical traces.
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Server, ServerPool
from repro.sim.stats import Counter, TimeSeries, StatsRegistry

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "Server",
    "ServerPool",
    "Counter",
    "TimeSeries",
    "StatsRegistry",
]

"""Exception hierarchy for the repro package.

Simulated hardware failures are first-class citizens here: the paper reports
two of its baselines *crashing* at scale (Direct CPE past 256 nodes from SPM
exhaustion, Direct MPE at 16,384 nodes from MPI connection memory), and the
reproduction needs to raise — and the benchmarks need to catch — the same
failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent."""


class SimulatedCrash(ReproError, RuntimeError):
    """A modelled hardware/software failure occurred inside the simulator.

    Carries ``node`` (the simulated node id, or ``None`` for machine-wide
    failures) and a human-readable ``reason``.
    """

    def __init__(self, reason: str, node: int | None = None):
        self.reason = reason
        self.node = node
        where = f" on node {node}" if node is not None else ""
        super().__init__(f"simulated crash{where}: {reason}")

    def __reduce__(self):
        # Rebuild from (reason, node), not from the formatted message: a
        # crash shipped back from a forked root worker keeps its subclass,
        # reason, node and text.
        return type(self), (self.reason, self.node)


class SpmOverflow(SimulatedCrash):
    """A CPE scratch-pad memory allocation exceeded the 64 KB SPM.

    This is the failure mode that kills the Direct CPE baseline past 256
    nodes in Figure 11: per-destination staging buffers no longer fit.
    """


class ConnectionMemoryExhausted(SimulatedCrash):
    """The per-node MPI connection memory budget was exceeded.

    Each connection costs 100 KB (Section 3.3); the Direct MPE baseline dies
    at 16,384 nodes because 16,384 connections no longer fit the budget.
    """


class DeadlockError(ReproError, RuntimeError):
    """A register-mesh communication schedule contains a circular wait."""


class ValidationError(ReproError, AssertionError):
    """A BFS result failed the Graph500 validation rules."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event engine was driven into an invalid state."""


class ProtocolError(ReproError, RuntimeError):
    """A malformed, truncated, or oversized frame on the service wire."""

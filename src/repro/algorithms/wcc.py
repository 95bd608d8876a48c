"""Weakly connected components via hash-min label propagation.

Every vertex starts labelled with its own id; each superstep, vertices
whose label shrank broadcast it to their neighbours, who keep the minimum.
Convergence: a round with no label changes. Component ids are the minimum
vertex id of each component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SuperstepEngine, SuperstepResult
from repro.errors import ConfigError


@dataclass
class WCCResult(SuperstepResult):
    labels: np.ndarray = None  # type: ignore[assignment]

    def num_components(self) -> int:
        return len(np.unique(self.labels))


class DistributedWCC:
    def __init__(self, edges, nodes, **engine_kwargs):
        self.engine = SuperstepEngine(edges, nodes, **engine_kwargs)

    def run(self, max_rounds: int = 10_000) -> WCCResult:
        eng = self.engine
        labels = np.arange(eng.graph.num_vertices, dtype=np.float64)
        changed = np.ones(len(labels), dtype=bool)
        t_start = eng.begin_run()
        rounds = 0
        while changed.any():
            if rounds == max_rounds:
                raise ConfigError(f"WCC did not converge within {max_rounds} rounds")
            rounds += 1
            inboxes = eng.superstep(eng.scatter(changed, lambda s, t: labels[s]))
            changed = eng.combine_min(inboxes, labels)
        return WCCResult(
            sim_seconds=eng.sim_seconds - t_start,
            supersteps=rounds,
            stats={"records_sent": float(eng.records_sent)},
            labels=labels.astype(np.int64),
        )

"""k-core membership via distributed peeling.

A vertex is in the k-core iff it has >= k neighbours that are also in the
k-core. Supersteps: vertices falling under k announce their removal;
owners decrement the remaining-degree of the notified neighbours; repeat
until no removals. The surviving set is exactly the k-core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SuperstepEngine, SuperstepResult
from repro.errors import ConfigError


@dataclass
class KCoreResult(SuperstepResult):
    in_core: np.ndarray = None  # type: ignore[assignment]
    k: int = 0

    def core_size(self) -> int:
        return int(self.in_core.sum())


class DistributedKCore:
    def __init__(self, edges, nodes, **engine_kwargs):
        self.engine = SuperstepEngine(edges, nodes, **engine_kwargs)

    def run(self, k: int, max_rounds: int = 10_000) -> KCoreResult:
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        eng = self.engine
        degree = eng.graph.degrees().astype(np.int64)
        alive = np.ones(len(degree), dtype=bool)
        t_start = eng.begin_run()
        rounds = 0
        while True:
            doomed = alive & (degree < k)
            if not doomed.any():
                break
            if rounds == max_rounds:
                raise ConfigError(f"k-core did not converge within {max_rounds} rounds")
            rounds += 1
            alive[doomed] = False
            inboxes = eng.superstep(eng.scatter(doomed, lambda s, t: np.ones(len(t))))
            degree -= eng.combine_sum(inboxes).astype(np.int64)
        return KCoreResult(
            sim_seconds=eng.sim_seconds - t_start,
            supersteps=rounds,
            stats={"records_sent": float(eng.records_sent)},
            in_core=alive,
            k=k,
        )

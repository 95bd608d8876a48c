"""Single-source shortest paths on the superstep engine.

Bellman-Ford relaxation rounds: every vertex whose tentative distance
improved in the previous round pushes ``dist + w(u, v)`` to its neighbours.
Edge weights are synthesised deterministically from the endpoint pair
(the Graph500 generator produces unweighted edges) — symmetric, integral,
in ``[1, max_weight]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SuperstepEngine, SuperstepResult
from repro.errors import ConfigError


def edge_weight(u: np.ndarray, v: np.ndarray, max_weight: int = 8) -> np.ndarray:
    """Deterministic symmetric weight in [1, max_weight] per endpoint pair."""
    u = np.asarray(u, dtype=np.uint64)
    v = np.asarray(v, dtype=np.uint64)
    a, b = np.minimum(u, v), np.maximum(u, v)
    h = a * np.uint64(0x9E3779B97F4A7C15) ^ (b + np.uint64(0x7F4A7C15))
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h % np.uint64(max_weight)).astype(np.float64) + 1.0


@dataclass
class SSSPResult(SuperstepResult):
    dist: np.ndarray = None  # type: ignore[assignment]


class DistributedSSSP:
    """Bellman-Ford over the shuffle substrate."""

    def __init__(self, edges, nodes, max_weight: int = 8, **engine_kwargs):
        if max_weight < 1:
            raise ConfigError(f"max_weight must be >= 1, got {max_weight}")
        self.engine = SuperstepEngine(edges, nodes, **engine_kwargs)
        self.max_weight = max_weight

    def run(self, root: int, max_rounds: int = 10_000) -> SSSPResult:
        eng = self.engine
        n = eng.graph.num_vertices
        if not 0 <= root < n:
            raise ConfigError(f"root {root} out of range")
        dist = np.full(n, np.inf)
        dist[root] = 0.0
        changed = np.zeros(n, dtype=bool)
        changed[root] = True

        def candidate(s, t):
            return dist[s] + edge_weight(s, t, self.max_weight)

        t_start = eng.begin_run()
        rounds = 0
        while changed.any():
            if rounds == max_rounds:
                raise ConfigError(f"SSSP did not converge within {max_rounds} rounds")
            rounds += 1
            inboxes = eng.superstep(eng.scatter(changed, candidate))
            changed = eng.combine_min(inboxes, dist)
        return SSSPResult(
            sim_seconds=eng.sim_seconds - t_start,
            supersteps=rounds,
            stats={"records_sent": float(eng.records_sent)},
            dist=dist,
        )

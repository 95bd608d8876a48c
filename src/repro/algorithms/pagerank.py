"""PageRank with synchronous power iterations on the superstep engine.

Standard damped formulation over the symmetrised graph: each iteration,
every vertex scatters ``rank / degree`` to its neighbours; dangling mass
(degree-0 vertices) redistributes uniformly. Runs a fixed iteration count
or until the L1 delta falls under a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SuperstepEngine, SuperstepResult
from repro.errors import ConfigError


@dataclass
class PageRankResult(SuperstepResult):
    ranks: np.ndarray = None  # type: ignore[assignment]


class DistributedPageRank:
    def __init__(self, edges, nodes, damping: float = 0.85, **engine_kwargs):
        if not 0.0 < damping < 1.0:
            raise ConfigError(f"damping must be in (0, 1), got {damping}")
        self.engine = SuperstepEngine(edges, nodes, **engine_kwargs)
        self.damping = damping

    def run(self, iterations: int = 20, tol: float = 0.0) -> PageRankResult:
        if iterations < 1:
            raise ConfigError(f"need at least one iteration, got {iterations}")
        eng = self.engine
        n = eng.graph.num_vertices
        degree = eng.graph.degrees().astype(np.float64)
        has_edges = degree > 0
        dangling = ~has_edges
        ranks = np.full(n, 1.0 / n)
        t_start = eng.begin_run()
        done = 0
        for _ in range(iterations):
            done += 1
            share = ranks / np.maximum(degree, 1.0)
            inboxes = eng.superstep(eng.scatter(has_edges, lambda s, t: share[s]))
            base = (1.0 - self.damping) / n + self.damping * eng.reduce_sum(
                ranks, dangling
            ) / n
            new = base + self.damping * eng.combine_sum(inboxes)
            converged = tol > 0 and eng.reduce_sum(np.abs(new - ranks)) < tol
            ranks = new
            if converged:
                break
        return PageRankResult(
            sim_seconds=eng.sim_seconds - t_start,
            supersteps=done,
            stats={"records_sent": float(eng.records_sent)},
            ranks=ranks,
        )

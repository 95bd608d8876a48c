"""Distributed BFS validation (benchmark step 5, at scale).

Section 5: "we also ... optimize the BFS verification algorithm to scale
the entire benchmark to 10.6 million cores." The sequential validator
(:mod:`repro.graph500.validate`) re-runs a reference BFS — fine for ground
truth, impossible at machine scale. This validator checks the same rules
*distributively* on the superstep engine, with no reference traversal:

1. depths are resolved by iterative parent-depth queries (owner of the
   parent answers when its own depth is known) — a tree of height L
   resolves in L supersteps, and any cycle or dangling chain simply never
   resolves, which is the rule-1 violation;
2. claimed tree edges are checked against the owner's adjacency rows;
3. with depths replicated (one allgather, priced like the hub bitmaps),
   every input edge is checked to span at most one level and never straddle
   the reached/unreached boundary — which together with (1) and (2) pins
   the depths to exact BFS distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, ValidationError
from repro.graph.edgelist import EdgeList
from repro.network.collectives import allgather_seconds


@dataclass
class DistributedValidationResult:
    depth: np.ndarray
    sim_seconds: float
    supersteps: int


class DistributedValidator:
    """Validate parent maps for graphs distributed over ``nodes`` ranks."""

    def __init__(self, edges: EdgeList, nodes: int, **engine_kwargs):
        # Late import: repro.algorithms.base pulls in repro.core, whose
        # package init reaches back into repro.graph500 — importing here
        # keeps the package graph acyclic at module-load time.
        from repro.algorithms.base import SuperstepEngine

        self.engine = SuperstepEngine(edges, nodes, **engine_kwargs)
        self.edges = edges

    def validate(
        self, root: int, parent: np.ndarray, max_rounds: int = 100_000
    ) -> DistributedValidationResult:
        eng = self.engine
        n = eng.graph.num_vertices
        parent = np.asarray(parent, dtype=np.int64)
        if parent.shape != (n,):
            raise ConfigError(f"parent map must have shape ({n},)")
        if not 0 <= root < n:
            raise ConfigError(f"root {root} out of range")
        if parent[root] != root:
            raise ValidationError("rule 1: the root is not its own parent")
        if ((parent < -1) | (parent >= n)).any():
            raise ValidationError("rule 1: parent id out of range")

        # Rule 5 first (purely local at each child's owner): claimed tree
        # edges must exist.
        children = np.flatnonzero(parent >= 0)
        children = children[children != root]
        ok = eng.graph.has_edges(children, parent[children])
        if not ok.all():
            bad = int(children[np.flatnonzero(~ok)[0]])
            raise ValidationError(
                f"rule 5: claimed tree edge {parent[bad]} -> {bad} "
                "is not a graph edge"
            )

        # Depth resolution by repeated parent queries.
        depth = np.full(n, -1, dtype=np.int64)
        depth[root] = 0
        t_start = eng.begin_run()
        rounds = 0
        while True:
            unresolved = (parent >= 0) & (depth < 0)
            if not unresolved.any():
                break
            if rounds == max_rounds:
                raise ValidationError(f"depth resolution exceeded {max_rounds} rounds")
            rounds += 1
            # Ask the owner of each parent for its depth; encode the child id
            # as the value so the answer can come straight back as
            # (child, depth).
            queries = []
            for part in eng.parts:
                child = part.lo + np.flatnonzero(unresolved[part.lo : part.hi])
                queries.append((parent[child], child.astype(np.float64)))
            # Owners answer queries whose target depth is known.
            answers = []
            for q_parent, q_child in eng.superstep(queries):
                pd = depth[q_parent]
                known = pd >= 0
                answers.append(
                    (q_child[known].astype(np.int64), (pd[known] + 1).astype(np.float64))
                )
            resolved_now = False
            for child, child_depth in eng.superstep(answers):
                if len(child):
                    depth[child] = child_depth.astype(np.int64)
                    resolved_now = True
            if not resolved_now:
                # No progress while queries remain: a cycle or a chain
                # detached from the root.
                raise ValidationError(
                    "rule 1: parent chains contain a cycle or dangling branch"
                )

        # Replicate depths (allgather of int64s, priced) and run the edge rules.
        t_allgather = allgather_seconds(
            eng.num_nodes, n // eng.num_nodes * 8, eng.spec.taihulight
        )
        eng._mark(eng.sim_seconds + t_allgather)

        # Self-loops (du == dv) can fail neither edge rule: no filter copy.
        edges = self.edges
        du, dv = depth[edges.src], depth[edges.dst]
        if np.any((du >= 0) != (dv >= 0)):
            bad = int(np.flatnonzero((du >= 0) != (dv >= 0))[0])
            raise ValidationError(
                f"rule 4: edge ({edges.src[bad]}, {edges.dst[bad]}) straddles the "
                "reached/unreached boundary"
            )
        both = (du >= 0) & (dv >= 0)
        if both.any() and np.abs(du[both] - dv[both]).max() > 1:
            raise ValidationError("rule 3: an edge spans more than one level")
        # Reached set must agree with the parent map.
        if not np.array_equal(depth >= 0, parent >= 0):
            raise ValidationError("rule 1: reached sets disagree with depths")

        return DistributedValidationResult(
            depth=depth,
            sim_seconds=eng.sim_seconds - t_start,
            supersteps=rounds,
        )

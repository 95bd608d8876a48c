"""Graph500 result validation (benchmark step 5).

The spec's five rules, implemented vectorised over the whole parent map:

1. the parent map forms a tree rooted at the search root (no cycles);
2. tree edges connect vertices whose BFS depths differ by exactly one;
3. every edge of the input graph connects vertices whose depths differ by
   at most one, *or* has an unreached endpoint on both sides;
4. the BFS tree spans exactly the connected component containing the root;
5. a vertex and its claimed parent are actually joined by a graph edge.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph500.reference import depths_from_parents, reference_depths


def validate_bfs_result(
    graph: CSRGraph,
    edges: EdgeList,
    root: int,
    parent: np.ndarray,
) -> np.ndarray:
    """Run all five rules; returns the depth array on success.

    Raises :class:`~repro.errors.ValidationError` naming the violated rule.
    ``graph`` must be the symmetrised deduplicated CSR built from ``edges``.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = graph.num_vertices
    if parent.shape != (n,):
        raise ConfigError(f"parent map must have shape ({n},), got {parent.shape}")
    if not 0 <= root < n:
        raise ConfigError(f"root {root} out of range")

    if parent[root] != root:
        raise ValidationError(f"rule 1: parent[{root}] = {parent[root]}, not the root")
    out_of_range = (parent < -1) | (parent >= n)
    if out_of_range.any():
        bad = int(np.flatnonzero(out_of_range)[0])
        raise ValidationError(f"rule 1: parent[{bad}] = {parent[bad]} out of range")

    # Rule 1 (tree-ness) falls out of depths_from_parents: it only assigns
    # depths along parent chains that reach the root.
    try:
        depth = depths_from_parents(parent, root)
    except ConfigError as exc:
        raise ValidationError(f"rule 1: {exc}") from exc
    reached = parent >= 0
    if not np.array_equal(depth >= 0, reached):
        bad = int(np.flatnonzero((depth >= 0) != reached)[0])
        raise ValidationError(
            f"rule 1: vertex {bad} has a parent but no path to the root"
        )

    # Rule 2: each tree edge spans exactly one level.
    tree_children = np.flatnonzero(reached & (np.arange(n) != root))
    if len(tree_children):
        dd = depth[tree_children] - depth[parent[tree_children]]
        if not np.all(dd == 1):
            bad = int(tree_children[np.flatnonzero(dd != 1)[0]])
            raise ValidationError(
                f"rule 2: tree edge {parent[bad]} -> {bad} spans "
                f"{depth[bad] - depth[parent[bad]]} levels"
            )

    # Rule 3: every input edge has both ends within one level, or both
    # endpoints out of the component. A self-loop has du == dv and can
    # fail neither this rule nor rule 4, so the raw list is read as is.
    du, dv = depth[edges.src], depth[edges.dst]
    both_reached = (du >= 0) & (dv >= 0)
    if np.any((du >= 0) != (dv >= 0)):
        bad = int(np.flatnonzero((du >= 0) != (dv >= 0))[0])
        raise ValidationError(
            f"rule 4: edge ({edges.src[bad]}, {edges.dst[bad]}) straddles the "
            "component boundary — some component vertex was not reached"
        )
    gap = np.abs(du[both_reached] - dv[both_reached])
    if gap.size and gap.max() > 1:
        idx = np.flatnonzero(both_reached)[int(np.argmax(gap))]
        raise ValidationError(
            f"rule 3: edge ({edges.src[idx]}, {edges.dst[idx]}) spans "
            f"{abs(int(du[idx]) - int(dv[idx]))} levels"
        )

    # Rule 4 (completeness): depths must match the reference BFS exactly —
    # this also pins rule 3's "within one level" to the *minimum* distances.
    ref = reference_depths(graph, root)
    if not np.array_equal(ref, depth):
        bad = int(np.flatnonzero(ref != depth)[0])
        raise ValidationError(
            f"rule 4: vertex {bad} at depth {depth[bad]}, reference says {ref[bad]}"
        )

    # Rule 5: claimed parent edges exist in the graph. Batched binary
    # search over the sorted CSR rows — O(Σ log deg), versus the
    # benchmark-dominating np.isin over the expanded adjacency.
    children = tree_children
    if len(children):
        ok = graph.has_edges(children, parent[children])
        if not ok.all():
            bad = int(children[np.flatnonzero(~ok)[0]])
            raise ValidationError(
                f"rule 5: claimed tree edge {parent[bad]} -> {bad} is not a "
                "graph edge"
            )
    return depth

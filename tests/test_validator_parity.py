"""Parity tests for the rewritten validator hot paths.

The harness wall-clock overhaul replaced the validator's sort/isin-based
internals (rule-5 edge membership, the reference BFS, depths-from-parents)
with frontier-proportional implementations. These property-style tests pin
the new code to the *original* algorithms, re-implemented verbatim below:
on a spread of graphs and corruptions, both must accept exactly the same
parent maps, produce identical arrays, and reject naming the same rule.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, ValidationError
from repro.graph import CSRGraph, EdgeList, KroneckerGenerator
from repro.graph.generators import grid_edges, ring_edges, star_edges
from repro.graph500.distributed_validate import DistributedValidator
from repro.graph500.reference import (
    depths_from_parents,
    reference_bfs,
    reference_depths,
)
from repro.graph500.validate import validate_bfs_result


# --- the historical implementations, kept as executable specification ------
def old_reference_bfs(graph, root):
    parent = np.full(graph.num_vertices, -1, dtype=np.int64)
    parent[root] = root
    frontier = np.array([root], dtype=np.int64)
    while len(frontier):
        sources, targets = graph.expand(frontier)
        fresh = parent[targets] == -1
        sources, targets = sources[fresh], targets[fresh]
        if len(targets) == 0:
            break
        uniq_targets, first_idx = np.unique(targets, return_index=True)
        parent[uniq_targets] = sources[first_idx]
        frontier = uniq_targets
    return parent


def old_reference_depths(graph, root):
    depth = np.full(graph.num_vertices, -1, dtype=np.int64)
    depth[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        _, targets = graph.expand(frontier)
        targets = targets[depth[targets] == -1]
        if len(targets) == 0:
            break
        frontier = np.unique(targets)
        depth[frontier] = level
    return depth


def old_depths_from_parents(parent, root):
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    depth = np.full(n, -1, dtype=np.int64)
    if not 0 <= root < n or parent[root] != root:
        raise ConfigError("parent map is not rooted at the requested root")
    depth[root] = 0
    frontier_mask = np.zeros(n, dtype=bool)
    frontier_mask[root] = True
    reached = parent >= 0
    for level in range(1, n + 1):
        candidates = reached & (depth == -1)
        idx = np.flatnonzero(candidates)
        if len(idx) == 0:
            return depth
        hit = frontier_mask[parent[idx]]
        nxt = idx[hit]
        if len(nxt) == 0:
            raise ConfigError("parent map contains unreachable or cyclic chains")
        depth[nxt] = level
        frontier_mask = np.zeros(n, dtype=bool)
        frontier_mask[nxt] = True
    return depth


def old_rule5_membership(graph, children, parents_of_children):
    srcs, tgts = graph.expand(children)
    n = graph.num_vertices
    edge_keys = srcs * np.int64(n) + tgts
    query_keys = children * np.int64(n) + parents_of_children
    return np.isin(query_keys, edge_keys)


def case_graphs():
    yield CSRGraph.from_edges(ring_edges(17)), ring_edges(17)
    yield CSRGraph.from_edges(grid_edges(6, 7)), grid_edges(6, 7)
    yield CSRGraph.from_edges(star_edges(12)), star_edges(12)
    for seed in (2, 5, 9):
        edges = KroneckerGenerator(scale=9, seed=seed).generate()
        yield CSRGraph.from_edges(edges), edges


# --- parity on correct inputs ----------------------------------------------
def test_reference_bfs_matches_old_exactly():
    for graph, _ in case_graphs():
        for root in _roots_of(graph):
            assert np.array_equal(
                reference_bfs(graph, root), old_reference_bfs(graph, root)
            )


def test_reference_depths_matches_old_exactly():
    for graph, _ in case_graphs():
        for root in _roots_of(graph):
            assert np.array_equal(
                reference_depths(graph, root), old_reference_depths(graph, root)
            )


def test_depths_from_parents_matches_old_exactly():
    for graph, _ in case_graphs():
        for root in _roots_of(graph):
            parent = reference_bfs(graph, root)
            assert np.array_equal(
                depths_from_parents(parent, root),
                old_depths_from_parents(parent, root),
            )


def test_rule5_membership_matches_isin():
    rng = np.random.default_rng(7)
    for graph, _ in case_graphs():
        n = graph.num_vertices
        us = rng.integers(0, n, size=200)
        vs = rng.integers(0, n, size=200)
        got = graph.has_edges(us, vs)
        expected = old_rule5_membership(graph, us, vs)
        assert np.array_equal(got, expected)
        # And agreement with the scalar query, which never changed.
        for u, v, g in zip(us[:50], vs[:50], got[:50]):
            assert bool(g) == graph.has_edge(int(u), int(v))


def _roots_of(graph, k=3):
    nontrivial = np.flatnonzero(graph.degrees() > 0)
    return [int(r) for r in nontrivial[:: max(1, len(nontrivial) // k)][:k]]


# --- parity on rejected inputs: one crafted failure per rule ----------------
def _base_case(seed=4):
    edges = KroneckerGenerator(scale=9, seed=seed).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    parent = reference_bfs(graph, root)
    return graph, edges, root, parent


def test_rejects_rule1_cycle_like_old():
    graph, edges, root, parent = _base_case()
    parent = parent.copy()
    reached = np.flatnonzero((parent >= 0) & (np.arange(len(parent)) != root))
    a, b = reached[0], reached[1]
    parent[a], parent[b] = b, a
    with pytest.raises(ValidationError, match="rule 1"):
        validate_bfs_result(graph, edges, root, parent)
    with pytest.raises(ConfigError):
        old_depths_from_parents(parent, root)
    with pytest.raises(ConfigError):
        depths_from_parents(parent, root)


def test_rejects_rule2_level_skip():
    # A valid non-BFS tree: chain the ring the long way round, then claim a
    # two-level jump. Both rule-2 detection paths see the same depths.
    edges = ring_edges(9)
    graph = CSRGraph.from_edges(edges)
    parent = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(ValidationError, match="rule 3|rule 4"):
        validate_bfs_result(graph, edges, 0, parent)


def test_rejects_rule3_depth_gap():
    graph, edges, root, parent = _base_case()
    depth_new = validate_bfs_result(graph, edges, root, parent)
    depth_old = old_reference_depths(graph, root)
    assert np.array_equal(depth_new, depth_old)


def test_rejects_rule4_unreached_vertex():
    graph, edges, root, parent = _base_case()
    parent = parent.copy()
    reached = np.flatnonzero((parent >= 0) & (np.arange(len(parent)) != root))
    leaves = np.setdiff1d(reached, parent)
    parent[leaves[0]] = -1
    with pytest.raises(ValidationError, match="rule 4"):
        validate_bfs_result(graph, edges, root, parent)


def test_rejects_rule5_non_edge_parent():
    graph, edges, root, parent = _base_case()
    parent = parent.copy()
    depth = validate_bfs_result(graph, edges, root, parent)
    for v in np.flatnonzero(parent >= 0):
        if v == root:
            continue
        same_depth = np.flatnonzero(depth == depth[v] - 1)
        non_neighbors = [
            int(u) for u in same_depth if not graph.has_edge(int(u), int(v))
        ]
        if non_neighbors:
            parent[v] = non_neighbors[0]
            break
    else:
        pytest.skip("graph too dense for a non-neighbour at the right depth")
    # Old membership test and new binary search agree on the verdict...
    children = np.flatnonzero((parent >= 0) & (np.arange(len(parent)) != root))
    assert np.array_equal(
        graph.has_edges(children, parent[children]),
        old_rule5_membership(graph, children, parent[children]),
    )
    # ...and the validator names rule 5.
    with pytest.raises(ValidationError, match="rule 5"):
        validate_bfs_result(graph, edges, root, parent)


def test_randomly_corrupted_parents_agree_with_old():
    """Fuzz: random single-entry corruptions accept/reject identically."""
    graph, edges, root, parent = _base_case(seed=6)
    n = graph.num_vertices
    rng = np.random.default_rng(11)
    for _ in range(40):
        bad = parent.copy()
        v = int(rng.integers(0, n))
        bad[v] = int(rng.integers(-1, n))
        # Old acceptance: rebuild the old validator verdict from its parts.
        try:
            if bad[root] != root or ((bad < -1) | (bad >= n)).any():
                raise ValidationError("rule 1")
            d_old = old_depths_from_parents(bad, root)
            old_ok = (
                np.array_equal(d_old >= 0, bad >= 0)
                and np.array_equal(d_old, old_reference_depths(graph, root))
            )
            if old_ok:
                children = np.flatnonzero(
                    (bad >= 0) & (np.arange(n) != root)
                )
                old_ok = bool(
                    old_rule5_membership(graph, children, bad[children]).all()
                )
                # Rules 2/3 are implied by depth equality with the reference
                # for single-entry corruptions of a valid tree.
        except ConfigError:
            old_ok = False
        try:
            validate_bfs_result(graph, edges, root, bad)
            new_ok = True
        except (ValidationError, ConfigError):
            new_ok = False
        assert new_ok == old_ok, f"divergence corrupting vertex {v} -> {bad[v]}"


def test_dedup_cache_returns_equivalent_list():
    edges = KroneckerGenerator(scale=8, seed=3).generate()
    first = edges.deduplicated()
    second = edges.deduplicated()
    assert first is second  # cached
    assert first.deduplicated() is first  # idempotent
    fresh = EdgeList(edges.src.copy(), edges.dst.copy(), edges.num_vertices)
    ref = fresh.deduplicated()
    assert np.array_equal(ref.src, first.src)
    assert np.array_equal(ref.dst, first.dst)


# --- self-loops in the raw list ------------------------------------------------
@pytest.mark.parametrize(
    "pairs,n,parent,message,distributed_message",
    [
        # Rule 3: the 0-1-2-3 chain is a valid tree, but edge (3, 0) spans
        # three levels; vertex 5 is unreached and carries a self-loop.
        (
            [(0, 0), (0, 1), (2, 2), (1, 2), (2, 3), (3, 3), (3, 0), (5, 5)],
            6,
            [0, 0, 1, 2, -1, -1],
            "rule 3: edge (3, 0) spans 3 levels",
            "rule 3: an edge spans more than one level",
        ),
        # Rule 4: vertex 3 is joined to the tree but left unreached; its
        # self-loop sits on the unreached side and straddles nothing.
        (
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (2, 3)],
            4,
            [0, 0, 1, -1],
            "rule 4: edge (2, 3) straddles the component boundary — some "
            "component vertex was not reached",
            "rule 4: edge (2, 3) straddles the reached/unreached boundary",
        ),
    ],
)
def test_self_loops_do_not_change_edge_rule_messages(
    pairs, n, parent, message, distributed_message
):
    """Both validators read the raw list, self-loops included: a loop has
    equal depths at both ends, so it can never be the first edge to fail
    rule 3 or 4, and each rejection names the same edge as the loop-free
    list does."""
    edges = EdgeList(
        np.array([u for u, _ in pairs], dtype=np.int64),
        np.array([v for _, v in pairs], dtype=np.int64),
        n,
    )
    loop_free = edges.without_self_loops()
    graph = CSRGraph.from_edges(edges)
    parent = np.array(parent, dtype=np.int64)
    for e in (edges, loop_free):
        with pytest.raises(ValidationError) as exc:
            validate_bfs_result(graph, e, 0, parent)
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            DistributedValidator(e, 2).validate(0, parent)
        assert str(exc.value) == distributed_message

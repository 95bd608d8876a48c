"""2-D partitioned BFS comparator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.twod import TwoDBFS
from repro.core import BFSConfig, DistributedBFS
from repro.errors import ConfigError
from repro.graph import CSRGraph, KroneckerGenerator
from repro.graph.generators import grid_edges, ring_edges, star_edges
from repro.graph500.reference import reference_depths
from repro.graph500.validate import validate_bfs_result

CFG = BFSConfig(hub_count_topdown=16, hub_count_bottomup=16)


def check(edges, R, C, root, nps=4):
    graph = CSRGraph.from_edges(edges)
    bfs = TwoDBFS(edges, R, C, config=CFG, nodes_per_super_node=nps)
    result = bfs.run(root)
    depth = validate_bfs_result(graph, edges, root, result.parent)
    assert np.array_equal(depth, reference_depths(graph, root))
    return bfs, result


def test_kronecker_validates():
    edges = KroneckerGenerator(scale=10, seed=3).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    check(edges, 4, 4, root)


def test_non_square_grids():
    edges = KroneckerGenerator(scale=9, seed=5).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[1])
    check(edges, 2, 8, root)
    check(edges, 8, 2, root)
    check(edges, 1, 4, root)
    check(edges, 4, 1, root)


def test_structured_graphs():
    check(ring_edges(64), 2, 4, 0)
    check(star_edges(64), 4, 2, 0)
    check(grid_edges(8, 8), 2, 2, 5)


def test_single_processor_grid():
    edges = KroneckerGenerator(scale=8, seed=7).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    check(edges, 1, 1, root, nps=1)


def test_connection_set_bounded_by_grid_dims():
    """2-D's analogue of relay's connection bound: row + column mates."""
    edges = KroneckerGenerator(scale=10, seed=9).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    bfs, _ = check(edges, 4, 4, root)
    # Every rank talks only to its R-1 column mates + C-1 row mates.
    assert bfs.cluster.max_connections() <= (4 - 1) + (4 - 1)


def test_vector_owner_partition_is_total():
    edges = ring_edges(64)
    bfs = TwoDBFS(edges, 2, 4, config=CFG, nodes_per_super_node=2)
    v = np.arange(64, dtype=np.int64)
    i, j = bfs.vector_owner(v)
    ranks = i * 4 + j
    counts = np.bincount(ranks, minlength=8)
    assert (counts == 8).all()  # 64 vertices over 8 ranks evenly
    for p in range(8):
        lo, hi = bfs.segment_range(*bfs.coords(p))
        assert (ranks[lo:hi] == p).all()


def test_divisibility_required():
    with pytest.raises(ConfigError):
        TwoDBFS(ring_edges(10), 2, 2)
    with pytest.raises(ConfigError):
        TwoDBFS(ring_edges(16), 0, 2)


def test_root_out_of_range():
    bfs = TwoDBFS(ring_edges(16), 2, 2, config=CFG, nodes_per_super_node=2)
    with pytest.raises(ConfigError):
        bfs.run(99)


def test_comparison_with_1d_on_same_graph():
    """Both decompositions traverse correctly; the 2-D one moves frontier
    bitmaps up columns every level, the 1-D one sends records instead."""
    edges = KroneckerGenerator(scale=10, seed=11).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    one_d = DistributedBFS(edges, 16, config=CFG, nodes_per_super_node=4).run(root)
    two_d = TwoDBFS(edges, 4, 4, config=CFG, nodes_per_super_node=4).run(root)
    assert np.array_equal(one_d.depths(), two_d.depths())
    assert two_d.stats["messages"] > 0
    assert one_d.sim_seconds > 0 and two_d.sim_seconds > 0


@settings(max_examples=8, deadline=None)
@given(
    scale=st.integers(min_value=6, max_value=9),
    grid=st.sampled_from([(2, 2), (2, 4), (4, 2)]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_twod_matches_reference_depths(scale, grid, seed):
    edges = KroneckerGenerator(scale=scale, seed=seed).generate()
    graph = CSRGraph.from_edges(edges)
    candidates = np.flatnonzero(graph.degrees() > 0)
    root = int(candidates[seed % len(candidates)])
    bfs = TwoDBFS(edges, *grid, config=CFG, nodes_per_super_node=2)
    result = bfs.run(root)
    depth = validate_bfs_result(graph, edges, root, result.parent)
    assert np.array_equal(depth, reference_depths(graph, root))


@pytest.mark.parametrize(
    "make",
    [
        lambda edges: DistributedBFS(edges, 4, config=CFG, nodes_per_super_node=2),
        lambda edges: TwoDBFS(edges, 2, 2, config=CFG, nodes_per_super_node=2),
    ],
    ids=["1d", "2d"],
)
def test_second_run_of_a_root_reports_its_own_traffic(make):
    """A run's window counts only its own records, messages and bytes, so
    the same root twice on one instance reports the same figures."""
    edges = KroneckerGenerator(scale=9, seed=3).generate()
    bfs = make(edges)
    root = int(np.flatnonzero(bfs.graph.degrees() > 0)[0])
    first, second = bfs.run(root), bfs.run(root)
    assert np.array_equal(first.parent, second.parent)
    assert first.levels == second.levels
    assert np.array_equal(first.depths(), second.depths())
    for key in ("records_sent", "messages", "bytes"):
        assert first.stats[key] == second.stats[key] > 0, key

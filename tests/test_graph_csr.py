"""CSR graph construction and query tests."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError
from repro.graph import CSRGraph, EdgeList, KroneckerGenerator
from repro.graph.edgelist import MAX_PAIR_KEY_VERTICES
from repro.graph.generators import ring_edges, star_edges


def test_from_edges_symmetrize_dedup():
    e = EdgeList(np.array([0, 0, 1]), np.array([1, 1, 2]), 3)
    g = CSRGraph.from_edges(e)
    assert g.num_vertices == 3
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(2).tolist() == [1]
    assert g.num_edges == 4  # two undirected edges stored twice


def test_self_loops_dropped_by_default():
    e = EdgeList(np.array([0, 1]), np.array([0, 1]), 2)
    g = CSRGraph.from_edges(e)
    assert g.num_edges == 0


def test_from_edges_caches_per_flag_combination():
    """Repeated derivation over one edge list returns the same CSR object;
    different flag combinations build (and cache) distinct graphs."""
    e = EdgeList(np.array([0, 0, 1]), np.array([1, 1, 2]), 3)
    first = CSRGraph.from_edges(e)
    assert CSRGraph.from_edges(e) is first
    directed = CSRGraph.from_edges(e, symmetrize=False)
    assert directed is not first
    assert CSRGraph.from_edges(e, symmetrize=False) is directed
    # A fresh (equal) EdgeList has its own cache — keying is per instance.
    e2 = EdgeList(np.array([0, 0, 1]), np.array([1, 1, 2]), 3)
    assert CSRGraph.from_edges(e2) is not first


def test_prebuilt_graph_threads_through_engines():
    """DistributedBFS and the superstep engines accept a prebuilt CSR and
    reject one whose vertex count disagrees with the edge list."""
    from repro.algorithms import DistributedWCC
    from repro.core.bfs import DistributedBFS

    e = EdgeList(np.array([0, 1, 2]), np.array([1, 2, 3]), 4)
    g = CSRGraph.from_edges(e)
    assert DistributedBFS(e, 2, graph=g).graph is g
    assert DistributedWCC(e, 2, graph=g).engine.graph is g
    wrong = CSRGraph.from_edges(EdgeList(np.array([0]), np.array([1]), 8))
    with pytest.raises(ConfigError):
        DistributedWCC(e, 2, graph=wrong)


def test_directed_construction():
    e = EdgeList(np.array([0]), np.array([1]), 2)
    g = CSRGraph.from_edges(e, symmetrize=False)
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == []


def test_rows_are_sorted():
    e = EdgeList(np.array([0, 0, 0]), np.array([3, 1, 2]), 4)
    g = CSRGraph.from_edges(e, symmetrize=False)
    assert g.neighbors(0).tolist() == [1, 2, 3]


def test_has_edge():
    g = CSRGraph.from_edges(ring_edges(5))
    assert g.has_edge(0, 1)
    assert g.has_edge(0, 4)
    assert not g.has_edge(0, 2)


def test_expand_matches_neighbors():
    g = CSRGraph.from_edges(star_edges(6))
    sources, targets = g.expand(np.array([0]))
    assert sources.tolist() == [0] * 5
    assert sorted(targets.tolist()) == [1, 2, 3, 4, 5]


def test_expand_multiple_and_empty():
    g = CSRGraph.from_edges(ring_edges(6))
    sources, targets = g.expand(np.array([0, 3]))
    assert sources.tolist() == [0, 0, 3, 3]
    assert sorted(targets.tolist()) == [1, 2, 4, 5]
    s, t = g.expand(np.array([], dtype=np.int64))
    assert len(s) == len(t) == 0


def test_expand_with_isolated_vertex():
    e = EdgeList(np.array([0]), np.array([1]), 3)
    g = CSRGraph.from_edges(e)
    s, t = g.expand(np.array([2, 0]))
    assert s.tolist() == [0] and t.tolist() == [1]


def test_row_slice():
    g = CSRGraph.from_edges(ring_edges(6))
    local = g.row_slice(2, 4)
    assert local.num_vertices == 2
    assert local.neighbors(0).tolist() == [1, 3]  # global vertex 2
    assert local.neighbors(1).tolist() == [2, 4]  # global vertex 3
    with pytest.raises(ConfigError):
        g.row_slice(4, 2)


def test_degrees():
    g = CSRGraph.from_edges(star_edges(5))
    assert g.degrees().tolist() == [4, 1, 1, 1, 1]


def test_invalid_csr_rejected():
    with pytest.raises(ConfigError):
        CSRGraph(np.array([1, 2]), np.array([0, 1]))  # row_ptr[0] != 0
    with pytest.raises(ConfigError):
        CSRGraph(np.array([0, 2]), np.array([0]))  # end mismatch
    with pytest.raises(ConfigError):
        CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))  # decreasing


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 31)), min_size=1, max_size=120
    )
)
def test_expand_agrees_with_per_vertex_neighbors(pairs):
    n = 32
    e = EdgeList(
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
        n,
    )
    g = CSRGraph.from_edges(e)
    frontier = np.unique(np.array([p[0] for p in pairs], dtype=np.int64))
    sources, targets = g.expand(frontier)
    expected = []
    for v in frontier:
        for w in g.neighbors(int(v)):
            expected.append((int(v), int(w)))
    assert sorted(zip(sources.tolist(), targets.tolist())) == sorted(expected)


# --- one-sort construction parity -------------------------------------------
def _oracle_csr(pairs, n, symmetrize, dedup, drop_self_loops):
    """CSR rows from plain Python pair lists, independent of numpy sorting."""
    if drop_self_loops:
        pairs = [(u, v) for u, v in pairs if u != v]
    if symmetrize:
        pairs = pairs + [(v, u) for u, v in pairs]
    pairs = sorted(set(pairs)) if dedup else sorted(pairs)
    row_ptr = [0] * (n + 1)
    for u, _ in pairs:
        row_ptr[u + 1] += 1
    for v in range(n):
        row_ptr[v + 1] += row_ptr[v]
    return row_ptr, [v for _, v in pairs]


@st.composite
def _edge_lists(draw):
    """(pairs, n): n need not be a power of two; the pairs mix random
    edges, repeated (multi-)edges and self-loops, and may be empty or leave
    vertices isolated."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    loops = [(v, v) for v in draw(st.lists(vertex, max_size=10))]
    return draw(st.permutations(pairs + repeats + loops)), n


@pytest.mark.parametrize(
    "symmetrize,dedup,drop_self_loops", list(itertools.product([True, False], repeat=3))
)
@settings(max_examples=60, deadline=None)
@given(case=_edge_lists())
@example(case=([], 5))  # empty list
@example(case=([(0, 0), (3, 3), (3, 3)], 6))  # only self-loops
@example(case=([(1, 2), (1, 2), (2, 1), (1, 2)], 3))  # multi-edges
@example(case=([(0, 4), (4, 0), (2, 9)], 11))  # isolated vertices, n = 11
def test_from_edges_matches_python_oracle(case, symmetrize, dedup, drop_self_loops):
    pairs, n = case
    e = EdgeList(
        np.array([u for u, _ in pairs], dtype=np.int64),
        np.array([v for _, v in pairs], dtype=np.int64),
        n,
    )
    g = CSRGraph.from_edges(
        e, symmetrize=symmetrize, dedup=dedup, drop_self_loops=drop_self_loops
    )
    row_ptr, col_idx = _oracle_csr(pairs, n, symmetrize, dedup, drop_self_loops)
    assert g.num_vertices == n
    assert g.row_ptr.tolist() == row_ptr
    assert g.col_idx.tolist() == col_idx


@pytest.mark.parametrize(
    "scale,seed,digest",
    [
        (12, 1, "4f783a6ffbbb3f7e"),
        (12, 2, "8d78b910fd2a2336"),
        (12, 3, "d6e240c88602f347"),
        (16, 1, "e23937ab72bcee02"),
    ],
)
def test_kronecker_csr_bytes_are_pinned(scale, seed, digest):
    """The Graph500 search structure is byte-identical to the one the
    three-sort build (unique + argsort + lexsort) produced."""
    e = KroneckerGenerator(scale=scale, edge_factor=16, seed=seed).generate()
    g = CSRGraph.from_edges(e)
    got = hashlib.sha256(g.row_ptr.tobytes() + g.col_idx.tobytes()).hexdigest()
    assert got[:16] == digest


def test_pair_key_overflow_is_refused():
    """Past the int64 pair-key limit both key builders raise instead of
    wrapping; from_edges raises before allocating anything of size n."""
    e = EdgeList(np.array([0, 5]), np.array([5, 0]), 2**32 + 1)
    with pytest.raises(ConfigError, match=str(MAX_PAIR_KEY_VERTICES)):
        CSRGraph.from_edges(e)
    with pytest.raises(ConfigError, match=str(MAX_PAIR_KEY_VERTICES)):
        e.deduplicated()
    # At the limit itself the largest key, n*n - 1, is still exact.
    top = MAX_PAIR_KEY_VERTICES - 1
    at_limit = EdgeList(np.array([top, top, 0]), np.array([top, top, 1]), top + 1)
    dd = at_limit.deduplicated()
    assert dd.src.tolist() == [top, 0] and dd.dst.tolist() == [top, 1]

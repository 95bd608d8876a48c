"""Extension-algorithm tests, validated against networkx/scipy."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    DistributedDeltaStepping,
    DistributedKCore,
    DistributedPageRank,
    DistributedSSSP,
    DistributedWCC,
    edge_weight,
)
from repro.baselines.variants import variant_config
from repro.core import BFSConfig
from repro.errors import ConfigError
from repro.graph import CSRGraph, EdgeList, KroneckerGenerator
from repro.graph.generators import grid_edges, ring_edges

CFG = BFSConfig(hub_count_topdown=8, hub_count_bottomup=8)
KW = dict(config=CFG, nodes_per_super_node=2)


def kron(scale=9, seed=1):
    return KroneckerGenerator(scale=scale, seed=seed).generate()


def to_nx(edges, weighted=False):
    g = nx.Graph()
    g.add_nodes_from(range(edges.num_vertices))
    for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
        if u == v:
            continue
        if weighted:
            w = float(edge_weight(np.array([u]), np.array([v]))[0])
            if not g.has_edge(u, v):
                g.add_edge(u, v, weight=w)
        else:
            g.add_edge(u, v)
    return g


# --------------------------------------------------------------------- SSSP --
def test_sssp_matches_dijkstra_on_kronecker():
    edges = kron()
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    result = DistributedSSSP(edges, 4, **KW).run(root)
    expected = nx.single_source_dijkstra_path_length(to_nx(edges, weighted=True), root)
    for v in range(edges.num_vertices):
        if v in expected:
            assert result.dist[v] == pytest.approx(expected[v]), v
        else:
            assert np.isinf(result.dist[v])
    assert result.supersteps >= 1
    assert result.sim_seconds > 0


def test_sssp_on_ring_unit_structure():
    edges = ring_edges(16)
    result = DistributedSSSP(edges, 4, **KW).run(0)
    # Distances respect ring geometry: symmetric neighbours at most one
    # hop-weight apart along the two directions.
    assert result.dist[0] == 0
    assert result.dist[1] <= result.dist[2]  # monotone along the short arc


def test_sssp_relay_and_direct_agree():
    edges = kron(seed=3)
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[2])
    relay = DistributedSSSP(edges, 4, **KW).run(root)
    direct_cfg = BFSConfig(
        use_relay=False, hub_count_topdown=8, hub_count_bottomup=8
    )
    direct = DistributedSSSP(
        edges, 4, config=direct_cfg, nodes_per_super_node=2
    ).run(root)
    assert np.array_equal(relay.dist, direct.dist)


def test_edge_weight_properties():
    u = np.arange(100, dtype=np.int64)
    v = (u * 7 + 3) % 100
    w1 = edge_weight(u, v)
    w2 = edge_weight(v, u)
    assert np.array_equal(w1, w2)  # symmetric
    assert w1.min() >= 1 and w1.max() <= 8
    assert len(np.unique(w1)) > 1  # actually varies


def test_sssp_validation():
    with pytest.raises(ConfigError):
        DistributedSSSP(ring_edges(8), 2, max_weight=0)
    with pytest.raises(ConfigError):
        DistributedSSSP(ring_edges(8), 2, **KW).run(99)


# ---------------------------------------------------------------------- WCC --
def test_wcc_matches_scipy_components():
    edges = kron(scale=8, seed=5)
    n = edges.num_vertices
    mat = sp.coo_matrix(
        (np.ones(edges.num_edges), (edges.src, edges.dst)), shape=(n, n)
    )
    n_comp, expected = sp.csgraph.connected_components(mat, directed=False)
    result = DistributedWCC(edges, 4, **KW).run()
    assert result.num_components() == n_comp
    # Same partition: two vertices share a repro label iff scipy agrees.
    for comp in range(n_comp):
        members = np.flatnonzero(expected == comp)
        assert len(np.unique(result.labels[members])) == 1


def test_wcc_labels_are_component_minima():
    e = EdgeList(np.array([0, 5, 6]), np.array([1, 6, 7]), 10)
    result = DistributedWCC(e, 2, **KW).run()
    assert result.labels[0] == result.labels[1] == 0
    assert result.labels[5] == result.labels[6] == result.labels[7] == 5
    assert result.labels[9] == 9  # isolated vertex keeps its own label


def test_wcc_single_component_ring():
    result = DistributedWCC(ring_edges(32), 4, **KW).run()
    assert result.num_components() == 1
    assert (result.labels == 0).all()


# ----------------------------------------------------------------- PageRank --
def test_pagerank_matches_networkx():
    edges = kron(scale=8, seed=7)
    result = DistributedPageRank(edges, 4, **KW).run(iterations=50)
    expected = nx.pagerank(to_nx(edges), alpha=0.85, max_iter=200, tol=1e-10)
    ours = result.ranks
    for v, r in expected.items():
        assert ours[v] == pytest.approx(r, abs=2e-4), v
    assert ours.sum() == pytest.approx(1.0, abs=1e-6)


def test_pagerank_grid_symmetry():
    result = DistributedPageRank(grid_edges(4, 4), 2, **KW).run(iterations=60)
    r = result.ranks.reshape(4, 4)
    # Symmetric structure -> symmetric ranks.
    assert np.allclose(r, r.T, atol=1e-9)
    assert np.allclose(r, r[::-1, ::-1], atol=1e-9)


def test_pagerank_early_stop_with_tolerance():
    result = DistributedPageRank(ring_edges(16), 2, **KW).run(
        iterations=500, tol=1e-12
    )
    assert result.supersteps < 500
    # Ring: uniform ranks.
    assert np.allclose(result.ranks, 1 / 16, atol=1e-9)


def test_pagerank_validation():
    with pytest.raises(ConfigError):
        DistributedPageRank(ring_edges(8), 2, damping=1.5)
    with pytest.raises(ConfigError):
        DistributedPageRank(ring_edges(8), 2, **KW).run(iterations=0)


# -------------------------------------------------------------------- k-core --
def test_kcore_matches_networkx():
    edges = kron(scale=8, seed=9)
    g = to_nx(edges)
    g.remove_edges_from(nx.selfloop_edges(g))
    core_numbers = nx.core_number(g)
    for k in (2, 3, 4):
        result = DistributedKCore(edges, 4, **KW).run(k)
        expected = {v for v, c in core_numbers.items() if c >= k}
        assert set(np.flatnonzero(result.in_core).tolist()) == expected, k


def test_kcore_ring_is_its_own_2core():
    result = DistributedKCore(ring_edges(12), 2, **KW).run(2)
    assert result.core_size() == 12
    empty = DistributedKCore(ring_edges(12), 2, **KW).run(3)
    assert empty.core_size() == 0


def test_kcore_validation():
    with pytest.raises(ConfigError):
        DistributedKCore(ring_edges(8), 2, **KW).run(0)


# ----------------------------------------------------------- engine mechanics --
def test_superstep_engine_routes_all_records():
    from repro.algorithms.base import SuperstepEngine

    eng = SuperstepEngine(ring_edges(16), 4, **KW)
    # Every node sends one record to every vertex.
    outgoing = []
    for part in eng.parts:
        targets = np.arange(16, dtype=np.int64)
        outgoing.append((targets, np.full(16, float(part.node_id))))
    inboxes = eng.superstep(outgoing)
    for part, (v, x) in zip(eng.parts, inboxes):
        assert len(v) == 4 * part.n_local  # one from each sender per vertex
        assert set(np.unique(x).tolist()) == {0.0, 1.0, 2.0, 3.0}
        assert ((v >= part.lo) & (v < part.hi)).all()


def test_superstep_engine_validation():
    from repro.algorithms.base import SuperstepEngine

    eng = SuperstepEngine(ring_edges(16), 2, **KW)
    with pytest.raises(ConfigError):
        eng.superstep([])  # wrong batch count


def test_superstep_engine_empty_inboxes_combine_to_nothing():
    from repro.algorithms.base import SuperstepEngine

    eng = SuperstepEngine(ring_edges(16), 4, **KW)
    inboxes = eng.superstep(eng.scatter(np.zeros(16, dtype=bool), None))
    assert all(len(v) == 0 for v, _ in inboxes)
    values = np.arange(16, dtype=np.float64)
    assert not eng.combine_min(inboxes, values).any()
    assert np.array_equal(values, np.arange(16))
    assert not eng.combine_sum(inboxes).any()


def test_superstep_engine_scatter_keeps_csr_order():
    from repro.algorithms.base import SuperstepEngine

    eng = SuperstepEngine(kron(scale=7, seed=2), 4, **KW)
    active = eng.graph.degrees() % 3 == 1
    outgoing = eng.scatter(active, lambda s, t: s.astype(np.float64))
    for part, (t, s) in zip(eng.parts, outgoing):
        srcs = np.flatnonzero(active[part.lo : part.hi]) + part.lo
        want_s, want_t = eng.graph.expand(srcs)
        assert np.array_equal(t, want_t)
        assert np.array_equal(s, want_s.astype(np.float64))


# ----------------------------------------------------- one instance, two runs --
def _six_programs():
    from repro.graph500.distributed_validate import DistributedValidator
    from repro.graph500.reference import reference_bfs

    edges = kron(scale=8, seed=11)
    graph = CSRGraph.from_edges(edges)
    root = int(np.flatnonzero(graph.degrees() > 0)[0])
    parent = reference_bfs(graph, root)
    return {
        "sssp": (DistributedSSSP(edges, 4, **KW), lambda a: a.run(root), "dist"),
        "delta-stepping": (
            DistributedDeltaStepping(edges, 4, **KW), lambda a: a.run(root), "dist"
        ),
        "wcc": (DistributedWCC(edges, 4, **KW), lambda a: a.run(), "labels"),
        "pagerank": (
            DistributedPageRank(edges, 4, **KW), lambda a: a.run(iterations=5), "ranks"
        ),
        "kcore": (DistributedKCore(edges, 4, **KW), lambda a: a.run(3), "in_core"),
        "validator": (
            DistributedValidator(edges, 4, **KW),
            lambda a: a.validate(root, parent),
            "depth",
        ),
    }


@pytest.mark.parametrize(
    "name", ["sssp", "delta-stepping", "wcc", "pagerank", "kcore", "validator"]
)
def test_second_run_on_one_instance_repeats_the_first(name):
    """A run's window starts where the last one ended and counts only its
    own records, so a rerun reports the same result as the first run."""
    algo, run, field = _six_programs()[name]
    first = run(algo)
    first_records = algo.engine.records_sent
    second = run(algo)
    assert np.array_equal(getattr(first, field), getattr(second, field))
    assert first.supersteps == second.supersteps
    assert algo.engine.records_sent == first_records > 0
    if hasattr(first, "stats"):
        assert first.stats["records_sent"] == second.stats["records_sent"]
        assert second.stats["records_sent"] == first_records
    assert second.sim_seconds == pytest.approx(first.sim_seconds, rel=1e-9)


# ------------------------------------------------ adversarial graphs vs oracles --
#: Both routing layouts on four nodes: direct is one group of four (1 x P),
#: relay on super nodes of two is two groups of two (N x M).
LAYOUTS = {
    "direct-cpe": dict(config=variant_config("direct-cpe")),
    "relay-cpe": dict(config=variant_config("relay-cpe"), nodes_per_super_node=2),
}
P = 4


@st.composite
def hostile_graphs(draw):
    """Self-loops, multi-edges and isolated vertices on n vertices, with n
    not a multiple of the node count. Vertex n - 1 is always isolated."""
    n = P * draw(st.integers(1, 8)) + draw(st.integers(1, P - 1))
    vertex = st.integers(0, n - 2)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    loops = draw(st.lists(vertex, max_size=3))
    pairs += [(v, v) for v in loops]
    pairs += pairs[: draw(st.integers(0, len(pairs)))]  # multi-edges
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    root = draw(st.integers(0, n - 1))
    return EdgeList(src, dst, n), root


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=12, deadline=None)
@given(case=hostile_graphs())
def test_algorithms_match_oracles_on_hostile_graphs(layout, case):
    edges, root = case
    n = edges.num_vertices
    kw = LAYOUTS[layout]
    g = to_nx(edges)

    # WCC: the scipy partition, labelled by each component's least vertex.
    mat = sp.coo_matrix(
        (np.ones(edges.num_edges), (edges.src, edges.dst)), shape=(n, n)
    )
    _, comp = sp.csgraph.connected_components(mat, directed=False)
    labels = DistributedWCC(edges, P, **kw).run().labels
    for c in np.unique(comp):
        members = np.flatnonzero(comp == c)
        assert (labels[members] == members.min()).all()

    # SSSP and delta-stepping from a drawn root and from the isolated one.
    weighted = to_nx(edges, weighted=True)
    for r in (root, n - 1):
        expected = np.full(n, np.inf)
        for v, d in nx.single_source_dijkstra_path_length(weighted, r).items():
            expected[v] = d
        assert np.array_equal(DistributedSSSP(edges, P, **kw).run(r).dist, expected)
        delta = DistributedDeltaStepping(edges, P, delta=3.0, **kw).run(r).dist
        assert np.array_equal(delta, expected)

    # k-core membership from networkx core numbers.
    cores = nx.core_number(g)
    for k in (1, 2, 3):
        in_core = DistributedKCore(edges, P, **kw).run(k).in_core
        assert set(np.flatnonzero(in_core).tolist()) == {
            v for v, c in cores.items() if c >= k
        }

    # PageRank, dangling mass spread uniformly in both.
    ranks = DistributedPageRank(edges, P, **kw).run(iterations=300, tol=1e-13).ranks
    expected = nx.pagerank(g, alpha=0.85, max_iter=1000, tol=1e-14)
    assert ranks == pytest.approx([expected[v] for v in range(n)], abs=1e-9)

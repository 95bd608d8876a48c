"""Catalog lifecycle: load, pin, evict, kernel reuse, stats."""

import os

import numpy as np
import pytest

import repro.service.catalog as catalog_module
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.kronecker import KroneckerGenerator
from repro.service import GraphCatalog, GraphSpec
from repro.utils.locks import WITNESS

SPEC = GraphSpec(scale=7, nodes=2, seed=1)


@pytest.fixture()
def catalog():
    cat = GraphCatalog(host_shared=False)
    yield cat
    cat.close()


def test_load_builds_generator_identical_graph(catalog):
    entry = catalog.load("g", SPEC)
    edges = KroneckerGenerator(SPEC.scale, SPEC.edge_factor, seed=SPEC.seed).generate()
    assert np.array_equal(entry.edges.src, edges.src)
    assert entry.graph.num_vertices == 1 << SPEC.scale


def test_load_accepts_pregenerated_edges(catalog):
    edges = KroneckerGenerator(6, seed=9).generate()
    entry = catalog.load("pre", GraphSpec(scale=6, nodes=2, seed=9), edges=edges)
    assert entry.edges is edges


def test_duplicate_load_rejected(catalog):
    catalog.load("g", SPEC)
    with pytest.raises(ConfigError, match="already loaded"):
        catalog.load("g", SPEC)


def test_get_unknown_graph(catalog):
    with pytest.raises(ConfigError, match="unknown graph"):
        catalog.get("nope")


def test_bfs_kernel_cached_per_variant(catalog):
    entry = catalog.load("g", SPEC)
    first, lock1 = entry._bfs_kernel("relay-cpe")
    again, lock2 = entry._bfs_kernel("relay-cpe")
    assert first is again and lock1 is lock2
    other, _ = entry._bfs_kernel("direct-mpe")
    assert other is not first


def test_execute_counts_and_dispatch(catalog):
    entry = catalog.load("g", SPEC)
    bfs = entry.execute("bfs", {"root": 0, "variant": "relay-cpe"})
    assert bfs["parent"].shape == (128,)
    assert entry.executes == 1
    with pytest.raises(ConfigError, match="unknown algorithm"):
        entry.execute("quantum", {})
    with pytest.raises(ConfigError, match="out of range"):
        entry.execute("bfs", {"root": 10_000, "variant": "relay-cpe"})


def test_evict_releases_unpinned_entry(catalog):
    entry = catalog.load("g", SPEC)
    entry._bfs_kernel("relay-cpe")
    outcome = catalog.evict("g")
    assert outcome == {"released": True, "pins": 0}
    assert entry._bfs_kernels == {}
    assert "g" not in catalog.names()


def test_evict_defers_release_past_pins(catalog):
    entry = catalog.load("g", SPEC)
    with catalog.pin("g") as pinned:
        assert pinned is entry
        outcome = catalog.evict("g")
        assert outcome == {"released": False, "pins": 1}
        # Executing under the pin still works against live artifacts...
        with pytest.raises(ConfigError, match="evicted"):
            entry.execute("wcc", {})  # ...but new dispatch is refused.
    # Pin dropped -> released.
    assert entry.pins == 0


def test_eviction_listener_fires_before_release(catalog):
    events = []
    catalog.add_eviction_listener(events.append)
    catalog.load("g", SPEC)
    catalog.evict("g")
    assert events == ["g"]


def test_pin_unknown_graph(catalog):
    with pytest.raises(ConfigError, match="unknown graph"):
        with catalog.pin("nope"):
            pass


def test_stats_rows_and_table(catalog):
    catalog.load("g", SPEC)
    rows = catalog.stats()
    assert len(rows) == 1
    row = rows[0]
    assert row["name"] == "g"
    assert row["vertices"] == 128
    assert row["resident_bytes"] > 0
    assert not row["shared_memory"]
    table = catalog.stats_table()
    assert "graph catalog" in table and "g" in table


def test_close_evicts_everything(catalog):
    catalog.load("a", SPEC)
    catalog.load("b", GraphSpec(scale=6, nodes=2))
    catalog.close()
    assert catalog.names() == []


def test_shared_memory_hosting_roundtrip():
    from repro.graph.shm import shared_memory_available

    if not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    cat = GraphCatalog(host_shared=True)
    try:
        entry = cat.load("g", SPEC)
        assert entry.shared is not None
        # The entry's CSR is the shm-backed view, and queries run off it.
        payload = entry.execute("bfs", {"root": 0, "variant": "relay-cpe"})
        assert payload["parent"].shape == (128,)
    finally:
        cat.close()
    assert entry.shared is None  # destroyed on eviction


def test_lost_load_race_releases_outside_the_catalog_lock(monkeypatch):
    from repro.graph.shm import shared_memory_available

    if not (shared_memory_available() and os.path.isdir("/dev/shm")):
        pytest.skip("POSIX shared memory unavailable")
    cat = GraphCatalog(host_shared=True)
    winner = []

    class RacingCSR:
        """The outer load's CSR build runs a nested load of the same
        name first, so the outer load finds the name taken."""

        raced = False

        @staticmethod
        def from_edges(edges):
            if not RacingCSR.raced:
                RacingCSR.raced = True  # set first: the nested load re-enters
                winner.append(cat.load("g", SPEC))
            return CSRGraph.from_edges(edges)

    monkeypatch.setattr(catalog_module, "CSRGraph", RacingCSR)
    before = set(os.listdir("/dev/shm"))
    try:
        with pytest.raises(ConfigError, match="already loaded"):
            cat.load("g", SPEC)
        (entry,) = winner
        assert cat.get("g") is entry
        payload = entry.execute("bfs", {"root": 0, "variant": "relay-cpe"})
        assert payload["parent"].shape == (128,)
        # Only the winner's segment is new: the loser unlinked its own.
        assert set(os.listdir("/dev/shm")) - before == {entry.shared.name}
    finally:
        cat.close()
    assert not [e for e in WITNESS.edges() if e[0] == "GraphCatalog._lock"]

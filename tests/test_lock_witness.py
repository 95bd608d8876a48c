"""Tests for the runtime lock witness (:mod:`repro.utils.locks`).

The seeded lock-discipline violations must each raise
:class:`LockDisciplineError` naming both parties, before anything is
taken or released, and leave no lock held:

- a two-lock acquisition-order cycle, walked by one thread;
- a blocking ``recv_frame`` under a fast lock, directly and one call
  hop deep;
- a ``Condition.wait`` under another fast lock.

A hypothesis oracle holds the witness to networkx's DAG test, and one
service lifecycle pins the edges the real code records.
"""

import socket
import sys
import threading

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.service import (
    FairScheduler,
    GraphCatalog,
    GraphService,
    GraphSpec,
    QueryRequest,
    ResultCache,
    ServiceClient,
    ServiceConfig,
)
from repro.service.protocol import encode_frame, recv_frame
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.locks import (
    WITNESS,
    LockDisciplineError,
    NamedLock,
    Witness,
    named_condition,
)


def assert_nothing_held(witness, *locks):
    assert witness.held() == []
    assert not any(lock.locked() for lock in locks)


# --- seed: a two-lock order cycle ---------------------------------------------
class MirrorCatalog:
    def __init__(self, witness):
        self._lock = NamedLock("MirrorCatalog._lock", fast=True, witness=witness)
        self._entries = {}
        self.cache = None

    def refresh(self):
        # First half: catalog lock -> cache lock.
        with self._lock:
            self._entries.clear()
            self.cache.invalidate_all()

    def entry_count(self):
        with self._lock:
            return len(self._entries)


class MirrorCache:
    def __init__(self, catalog, witness):
        self._lock = NamedLock("MirrorCache._lock", fast=True, witness=witness)
        self._values = {}
        self.catalog = catalog

    def invalidate_all(self):
        with self._lock:
            self._values.clear()

    def evict(self):
        # Second half: cache lock -> catalog lock.
        with self._lock:
            if self.catalog.entry_count() == 0:
                self._values.clear()


def test_seed_lock_cycle_names_both_locks():
    witness = Witness()
    catalog = MirrorCatalog(witness)
    cache = catalog.cache = MirrorCache(catalog, witness)
    catalog.refresh()
    assert witness.edges() == [("MirrorCatalog._lock", "MirrorCache._lock")]
    with pytest.raises(LockDisciplineError) as err:
        cache.evict()
    assert str(err.value) == (
        "lock-order cycle MirrorCache._lock -> MirrorCatalog._lock -> "
        "MirrorCache._lock: MirrorCatalog._lock taken while "
        "MirrorCache._lock is held"
    )
    assert_nothing_held(witness, catalog._lock, cache._lock)
    # The closing edge was refused, not recorded.
    assert witness.edges() == [("MirrorCatalog._lock", "MirrorCache._lock")]


# --- seed: blocking receive under a fast lock --------------------------------
class FrontCatalog:
    def __init__(self, sock):
        self._lock = NamedLock("FrontCatalog._lock", fast=True)
        self._sock = sock

    def receive(self):
        # Direct: a socket read while holding the fast lock.
        with self._lock:
            return recv_frame(self._sock)

    def receive_via_hop(self):
        # One hop deep: _drain blocks on the socket.
        with self._lock:
            return self._drain()

    def _drain(self):
        return recv_frame(self._sock)


def test_seed_blocking_under_fast_lock_direct_and_via_hop():
    left, right = socket.socketpair()
    front = FrontCatalog(right)
    try:
        for receive in (front.receive, front.receive_via_hop):
            left.sendall(encode_frame({"op": "ping"}))
            with pytest.raises(LockDisciplineError) as err:
                receive()
            assert str(err.value) == (
                "blocking operation recv_frame while holding fast lock "
                "FrontCatalog._lock"
            )
            assert_nothing_held(WITNESS, front._lock)
            # The witness raised before the read: the frame is still queued.
            assert recv_frame(right) == {"op": "ping"}
    finally:
        left.close()
        right.close()


# --- seed: Condition.wait under another fast lock ----------------------------
def test_seed_wait_under_foreign_fast_lock():
    witness = Witness()
    fast = NamedLock("FrontCache._lock", fast=True, witness=witness)
    cv = named_condition("Queue._cv", witness=witness)
    with fast:
        with cv:
            with pytest.raises(LockDisciplineError) as err:
                cv.wait(0.01)
            # _release_save raised before releasing the condition's lock.
            assert witness.held() == [fast, cv._lock]
    assert str(err.value) == (
        "blocking operation Condition.wait on Queue._cv while holding "
        "fast lock FrontCache._lock"
    )
    assert_nothing_held(witness, fast, cv._lock)


def test_wait_under_own_lock_releases_and_restores():
    witness = Witness()
    cv = named_condition("Queue._cv", witness=witness)
    with cv:
        assert cv.wait(0.001) is False
        assert witness.held() == [cv._lock]
        cv.notify_all()
    assert_nothing_held(witness, cv._lock)
    with pytest.raises(RuntimeError, match="un-acquired"):
        cv.wait(0.001)


# --- order graph ----------------------------------------------------------------
def test_self_loop_is_a_cycle():
    witness = Witness()
    lock = NamedLock("A", witness=witness)
    with lock:
        # Raises before taking; without the check this would time out.
        with pytest.raises(LockDisciplineError, match="cycle A -> A"):
            lock.acquire(timeout=1)
        assert witness.held() == [lock]
    assert_nothing_held(witness, lock)
    assert witness.edges() == []


def test_lock_cycle_detection_handles_smaller_out_of_cycle_neighbor():
    witness = Witness()
    a, b, c = (NamedLock(n, witness=witness) for n in "ABC")
    for first, second in ((b, a), (b, c)):
        with first:
            with second:
                pass
    with c:
        with pytest.raises(LockDisciplineError, match="cycle C -> B -> C"):
            b.acquire()
    assert witness.edges() == [("B", "A"), ("B", "C")]


def test_fast_lock_policy():
    assert GraphCatalog()._lock.fast
    assert ResultCache()._lock.fast
    assert not MetricsRegistry()._create_lock.fast
    assert not FairScheduler()._cv._lock.fast
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = ServiceClient("127.0.0.1", server.getsockname()[1])
        assert not client._lock.fast
        client.close()


def test_racing_opposite_orders_record_one_edge_and_never_deadlock():
    """Threads take A then B or B then A at once. The witness records
    whichever edge comes first and refuses the other before it blocks,
    so every round ends with one edge and no thread stuck."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            witness = Witness()
            a, b = NamedLock("A", witness=witness), NamedLock("B", witness=witness)
            orders = [(a, b), (b, a)] * 4
            start = threading.Barrier(len(orders))
            refused = []

            def walk(first, second):
                start.wait(timeout=10)
                try:
                    with first:
                        with second:
                            pass
                except LockDisciplineError:
                    refused.append((first.name, second.name))

            threads = [
                threading.Thread(target=walk, args=o, daemon=True) for o in orders
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            (edge,) = witness.edges()
            assert refused == [edge[::-1]] * 4
            assert_nothing_held(witness, a, b)
    finally:
        sys.setswitchinterval(interval)


# --- independent oracle ---------------------------------------------------------
NAMES = "ABCDE"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=5), max_size=8
    )
)
def test_witness_matches_networkx_dag_oracle(chains):
    """Each chain takes its names nested; the witness must raise exactly
    when the recorded edges plus the new ones stop being a DAG."""
    witness = Witness()
    locks = {name: NamedLock(name, witness=witness) for name in NAMES}
    model = nx.DiGraph()
    for chain in chains:
        taken = []
        for name in chain:
            candidate = model.copy()
            candidate.add_edges_from((held, name) for held in taken)
            acyclic = nx.is_directed_acyclic_graph(candidate)
            try:
                got = locks[name].acquire(timeout=1)
            except LockDisciplineError:
                assert not acyclic
                break
            assert acyclic and got
            model = candidate
            taken.append(name)
        for name in reversed(taken):
            locks[name].release()
        assert_nothing_held(witness, *locks.values())
    assert witness.edges() == sorted(model.edges)


# --- the invariant on the real code -------------------------------------------
def test_service_lifecycle_records_kernel_to_metrics_edge():
    with GraphService(ServiceConfig(workers=2, host_shared=False)) as svc:
        svc.load_graph("g", GraphSpec(scale=7, nodes=2))
        bfs = QueryRequest(graph="g", algo="bfs", params={"root": 3})
        assert svc.query(bfs).status == "ok"
        rank = QueryRequest(graph="g", algo="pagerank", params={})
        assert svc.query(rank).status == "ok"
        hit = svc.query(bfs)
        assert hit.status == "ok" and hit.cached
        assert svc.evict_graph("g") == {"released": True, "pins": 0}
    edges = WITNESS.edges()
    assert ("CatalogEntry._kernel_lock", "MetricsRegistry._create_lock") in edges
    assert WITNESS.fast_edges() == []

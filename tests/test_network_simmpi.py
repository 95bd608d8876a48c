"""SimMPI runtime + connection-table tests."""

import pytest

from repro.errors import ConfigError, ConnectionMemoryExhausted, SimulationError
from repro.machine import TAIHULIGHT
from repro.network import ConnectionTable, SimCluster
from repro.sim import Engine


def make_cluster(n=8, **kw):
    eng = Engine()
    return eng, SimCluster(eng, n, **kw)


def test_message_delivery_and_payload():
    eng, cluster = make_cluster()
    got = []
    for r in range(cluster.num_nodes):
        cluster.register(r, lambda m, r=r: got.append((r, m.tag, m.payload)))
    cluster.send(0, 3, "hello", nbytes=64, payload={"x": 1})
    eng.run()
    assert got == [(3, "hello", {"x": 1})]


def test_arrival_time_is_positive_and_ordered():
    eng, cluster = make_cluster()
    arrivals = []
    cluster.register(1, lambda m: arrivals.append(eng.now))
    for r in range(cluster.num_nodes):
        if r != 1:
            cluster.register(r, lambda m: None)
    cluster.send(0, 1, "a", nbytes=1 << 20)
    cluster.send(0, 1, "b", nbytes=1 << 20)
    eng.run()
    assert len(arrivals) == 2
    assert 0 < arrivals[0] < arrivals[1]


def test_handlers_can_send_in_response():
    eng, cluster = make_cluster()
    log = []

    def ponger(m):
        if m.tag == "ping":
            cluster.send(m.dst, m.src, "pong", 64)

    def pinger(m):
        log.append(m.tag)

    cluster.register(0, pinger)
    cluster.register(1, ponger)
    for r in range(2, cluster.num_nodes):
        cluster.register(r, lambda m: None)
    cluster.send(0, 1, "ping", 64)
    eng.run()
    assert log == ["pong"]


def test_stats_track_messages_and_central_traffic():
    eng, cluster = make_cluster(512)
    for r in range(cluster.num_nodes):
        cluster.register(r, lambda m: None)
    cluster.send(0, 1, "intra", 100)
    cluster.send(0, 300, "inter", 200)
    eng.run()
    assert cluster.stats.value("messages") == 2
    assert cluster.stats.value("bytes") == 300
    assert cluster.stats.value("central_messages") == 1
    assert cluster.stats.value("central_bytes") == 200


@pytest.mark.parametrize(
    "bad_send",
    [
        lambda c: c.send(0, -1, "x", 10),
        lambda c: c.send(0, 99, "x", 10),
        lambda c: c.send_batch(-1, [1], "x", [10]),
    ],
    ids=["negative-dst", "dst-out-of-range", "negative-src"],
)
def test_bad_ranks_rejected_at_call_time(bad_send):
    """A bad source or destination raises ConfigError inside the call,
    before any connection, stat, link or engine state is touched."""
    eng, cluster = make_cluster(16)
    with pytest.raises(ConfigError, match="out of range"):
        bad_send(cluster)
    assert all(not table.peers for table in cluster.connections)
    assert cluster.stats.value("messages") == 0
    assert cluster.stats.value("bytes") == 0
    assert all(link.jobs == 0 for link in cluster.network.all_links())
    assert len(eng) == 0


def test_double_register_rejected():
    _, cluster = make_cluster()
    cluster.register(0, lambda m: None)
    with pytest.raises(SimulationError):
        cluster.register(0, lambda m: None)


def test_unregistered_destination_is_an_error():
    eng, cluster = make_cluster()
    cluster.send(0, 1, "x", 10)
    with pytest.raises(SimulationError):
        eng.run()


def test_connection_accounting_both_ends():
    eng, cluster = make_cluster()
    for r in range(cluster.num_nodes):
        cluster.register(r, lambda m: None)
    cluster.send(0, 1, "x", 10)
    cluster.send(0, 2, "x", 10)
    cluster.send(3, 0, "x", 10)
    eng.run()
    assert cluster.connections[0].count == 3  # peers 1, 2, 3
    assert cluster.connections[1].count == 1
    assert cluster.max_connections() == 3
    # node0 has 3 peers; nodes 1, 2, 3 have one each -> 6 connection records.
    assert cluster.total_connection_memory() == 6 * 100_000


def test_connection_table_budget_crash():
    spec = TAIHULIGHT.node
    table = ConnectionTable(0, spec)
    budget_peers = spec.mpi_memory_budget // spec.mpi_connection_bytes
    for p in range(1, budget_peers + 1):
        table.ensure(p)
    with pytest.raises(ConnectionMemoryExhausted) as exc:
        table.ensure(budget_peers + 1)
    assert exc.value.node == 0


def test_connection_table_idempotent_and_ignores_self():
    table = ConnectionTable(5, TAIHULIGHT.node)
    table.ensure(5)
    table.ensure(1)
    table.ensure(1)
    assert table.count == 1
    assert table.memory_used == 100_000


def test_sixteen_k_direct_connections_exceed_budget():
    """The Figure 11 Direct-MPE crash: 16,384 peers x 100 KB > 1 GiB."""
    spec = TAIHULIGHT.node
    assert 4_096 * spec.mpi_connection_bytes < spec.mpi_memory_budget
    assert 16_384 * spec.mpi_connection_bytes > spec.mpi_memory_budget

"""Golden digests of the message path, plus send-vs-send_batch parity.

Every message enters the simulated fabric through one ``SimCluster`` core
(``send`` is a one-element call into the core behind ``send_batch``). Whole traversals are pinned by
golden sha256 digests over parents, levels, ``repr(sim_seconds)``, the
per-run stats and the cluster stats snapshot (plus metrics, busy intervals
and span rows for the telemetry cases). The digests were recorded from the
per-message scalar driver that the batched driver replaced, and the
batched driver reproduced every one of them before the scalar driver was
deleted: a digest change is a change to simulated behaviour, not noise.
The two crash-recovery cases (``buddy-crash``, ``rs-crash-disk``) were
recorded from the driver that still branched on the checkpoint store's
type, before both stores answered one ``save``/``recover`` surface.

The cluster primitive, the network pricing, the pipeline servers and the
reliable transport are still checked pairwise — ``N`` single sends against
one ``N``-message batch — because both entry points stay public.

Float discipline: every comparison of times here is exact equality, not
approx. The batch path is only allowed vectorization where the IEEE
operations are order-independent; any reassociation would show up as a
failed ``==`` long before it showed up as a wrong traversal.
"""

import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.baselines.variants import variant_config
from repro.core.bfs import DistributedBFS
from repro.core.pipeline import ModuleExecution
from repro.errors import ConfigError, SimulationError
from repro.graph.kronecker import KroneckerGenerator
from repro.machine.specs import TAIHULIGHT
from repro.network.cost import NetworkModel
from repro.network.simmpi import SimCluster
from repro.network.topology import FatTreeTopology
from repro.resilience.channel import ReliableChannel
from repro.resilience.config import ResilienceConfig
from repro.sim.engine import Engine
from repro.sim.faults import (
    DiskFaultInjector,
    DiskFaultPlan,
    FaultInjector,
    FaultPlan,
    NodeFaultInjector,
    NodeFaultPlan,
)
from repro.sim.resources import Server
from repro.telemetry import Telemetry


# --- driver-level golden digests: whole traversals ---------------------------
GOLDEN = {
    "relay-cpe":
        "d76e762bfd44e4712f0c9c69f03ce520a91d1d1f733fdf49b804feff3bb17958",
    "direct-cpe":
        "d76e762bfd44e4712f0c9c69f03ce520a91d1d1f733fdf49b804feff3bb17958",
    "relay-mpe":
        "8e58a161adc2c4e78acbcc07d85a6bf22b85cb2f65d66c9bf63aef037768525a",
    "direct-mpe":
        "8e58a161adc2c4e78acbcc07d85a6bf22b85cb2f65d66c9bf63aef037768525a",
    "relay-multigroup":
        "34e42ab3cfd8bf24239beaf696a15068feb6a85e4bfe07b132df033d5a823e64",
    "codec":
        "2ea4e45ec393d11cffd25ac9aebf5733448a36d1af9210bc9ff7becbb538882d",
    "single-node":
        "a37dde2830c003e7b61051bd21405a2a9e7479b371611ff78799f87b03f1dd6c",
    "reliable":
        "2229fca85d5d04c0dde25a0d8e76c9bbc7d79caf618513849f34864717314f91",
    "reliable-checkpoints":
        "67a50caf188d8c06fc007d4f85723f4aefc750eeb0ff9d1056dbedec536ed9b3",
    "buddy-crash":
        "29fd466cddf7bff43267bf5f4aeae811fac0ec1a8bdf70834bf03ad527f9897a",
    "rs-crash-disk":
        "e019e36383067634925bc5d27d7ab2a0acbefe142be36a44459a0ea9bbc12ab9",
    "fault-injector":
        "fb567efc676c7fd737474f1820daf4fe087870c96bd422ac837e296edabee6dd",
    "telemetry-relay":
        "2dd7f7e0860d7f57e9fa3c16dbe85986a37ab6b7b14c561ebe5c5acb26260d85",
    "telemetry-direct":
        "7f6bd8a82bb3a6232fa2acb31117f24c51c83158aec28d08324d36babc2b6219",
}


def _edges(scale=9, seed=3):
    return KroneckerGenerator(scale=scale, seed=seed).generate()


def _plain(obj):
    """Plain-Python view of a value (numpy scalars unwrapped, dicts as
    sorted item lists), so a digest does not depend on numpy's reprs."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return sorted((k, _plain(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def _digest(results, snapshot, *extra):
    h = hashlib.sha256()
    for r in results:
        h.update(np.ascontiguousarray(r.parent, dtype=np.int64).tobytes())
        h.update(repr((r.levels, r.sim_seconds, _plain(r.stats))).encode())
    h.update(repr(_plain(snapshot)).encode())
    for item in extra:
        h.update(repr(_plain(item)).encode())
    return h.hexdigest()


def _span_rows(tel):
    return [
        (s.name, s.category, s.start, s.finish, s.parent, s.closed,
         tuple(sorted(s.attrs.items())))
        for s in tel.spans.spans
    ]


def _traversal_digest(variant="relay-cpe", nodes=8, resilience=None,
                      telemetry=False, roots=(1, 5), nps=None, **overrides):
    cfg = replace(variant_config(variant), **overrides)
    tel = Telemetry() if telemetry else None
    bfs = DistributedBFS(
        _edges(), nodes, config=cfg, resilience=resilience, telemetry=tel,
        nodes_per_super_node=nps,
    )
    results = [bfs.run(r) for r in roots]
    extra = ()
    if tel is not None:
        extra = (tel.metrics.snapshot(), tel.intervals(), _span_rows(tel))
    return _digest(results, bfs.cluster.stats.snapshot(), *extra)


@pytest.mark.parametrize(
    "variant", ["relay-cpe", "direct-cpe", "relay-mpe", "direct-mpe"]
)
def test_traversal_parity_across_variants(variant):
    assert _traversal_digest(variant) == GOLDEN[variant]


def test_traversal_parity_relay_across_groups():
    """Four groups of four nodes: the only case whose records take the
    relay hop (``fwd_relay``/``bwd_relay``) and the relay's stage two."""
    assert _traversal_digest(nodes=16, nps=4) == GOLDEN["relay-multigroup"]


def test_traversal_parity_with_codec():
    assert _traversal_digest(use_codec=True) == GOLDEN["codec"]


def test_traversal_parity_single_node():
    assert _traversal_digest(nodes=1) == GOLDEN["single-node"]


def test_traversal_parity_reliable_transport():
    res = ResilienceConfig(reliable_transport=True)
    assert _traversal_digest(resilience=res) == GOLDEN["reliable"]


def test_traversal_parity_reliable_transport_with_checkpoints():
    res = ResilienceConfig(reliable_transport=True, checkpoint_interval=2)
    assert _traversal_digest(resilience=res) == GOLDEN["reliable-checkpoints"]


def _recovery_digest(resilience, disk_faults=None):
    """Rank 3 fail-stops at 1e-4 (the CLI's ``--crash-at`` default) while
    root 1 runs; root 5 runs on the revived rank."""
    bfs = DistributedBFS(
        _edges(), 8, config=variant_config("relay-cpe"), resilience=resilience
    )
    NodeFaultInjector(bfs.cluster, NodeFaultPlan(crash_at={3: 1e-4}))
    if disk_faults is not None:
        DiskFaultInjector(bfs, disk_faults, seed=0)
    results = [bfs.run(r) for r in (1, 5)]
    assert results[0].stats["recoveries"] == 1.0
    return _digest(results, bfs.cluster.stats.snapshot())


def test_traversal_parity_buddy_crash_recovery():
    res = ResilienceConfig(checkpoint_interval=1)
    assert _recovery_digest(res) == GOLDEN["buddy-crash"]


def test_traversal_parity_rs_crash_and_disk_faults():
    """RS(4, 2) with a scrub every level: the crash, a lost disk and a
    corrupt shard all land in level 1, so recovery decodes around them
    and heals 13 shards; the degraded disk slows every checkpoint pass."""
    res = ResilienceConfig(
        checkpoint_interval=1, checkpoint_mode="rs", scrub_interval=1
    )
    disk = DiskFaultPlan(
        lose_at={5: 1e-4}, corrupt_at={6: 1e-4}, degrade={2: 1.5}
    )
    assert _recovery_digest(res, disk) == GOLDEN["rs-crash-disk"]


def test_traversal_parity_under_fault_injector():
    """An installed interceptor owns the send path: the batch API must
    degrade to per-message sends through it, so fault ordinals line up."""
    bfs = DistributedBFS(_edges(), 8, config=variant_config("relay-cpe"))
    plan = FaultPlan(drop={5, 17}, duplicate={9}, tag_prefix="fwd")
    with FaultInjector(bfs.cluster, plan) as injector:
        result = bfs.run(1)
    counts = (injector.matched, injector.dropped, injector.duplicated)
    digest = _digest([result], bfs.cluster.stats.snapshot(), counts)
    assert digest == GOLDEN["fault-injector"]


# --- superstep-engine golden digests: the algorithms and the validator -------
#: One digest per (algorithm, machine case), recorded from the engine that
#: still built its own partition, cluster and relay routing — before it and
#: the BFS driver shared one record path. The ``relay-cpe``/``relay-mpe``
#: cases (four super nodes of four) send ``alg_relay`` records through the
#: relay's stage two.
ALGO_GOLDEN = {
    ('pagerank', 'direct-cpe'):
        'efd62a6fe2b33dd80ff4bde3abf947d80c1f82fd6ba34506145fd96788e95069',
    ('pagerank', 'relay-cpe'):
        '3c1e758c520a6256d20ace09952f7b417e3e1d1f752cba6ea6728d7a35873e13',
    ('pagerank', 'relay-mpe'):
        'b79d7308e17c217973ad9c955187bac3be5e579aff49269bac685dbe3be21bc2',
    ('wcc', 'direct-cpe'):
        'd4d16ec8fe44066cf27e3b1002f0ee88036f736d214dc3e8ca237d1d4c41530e',
    ('wcc', 'relay-cpe'):
        '1e70b98463a5470c556d69e6b9ec3b76033e7167bd9bed98bd97efa34191030b',
    ('wcc', 'relay-mpe'):
        '8240aeac6427a780ce133a7154c77f310384d138ab891a6452e3976af4e20258',
    ('sssp', 'direct-cpe'):
        'cb99c1e3cd38c81aae8ed0c47252fbc7c0808465e9a5d4755a5a7129e005ec77',
    ('sssp', 'relay-cpe'):
        '35b9ae7494142db01a91e9ac690408899cc37a1a8fd0394e04238cad77756412',
    ('sssp', 'relay-mpe'):
        'ef8a9c69d933ab391adfbf032ec2ef3dbfb32d63830a17f9b3201f435f0dc954',
    ('delta-stepping', 'direct-cpe'):
        '5a80b729508919bc268544a33afc35d03b4515fd2193b1d5acb476de47f767e3',
    ('delta-stepping', 'relay-cpe'):
        'f36e8441a1d935f9c6a95b57408413799d561f9a12c4d086ec20f1e24de38e95',
    ('delta-stepping', 'relay-mpe'):
        'dc643040860ee5f223a3dea34cff6b7c6fe65a20dda9c67cba43db1c0eac59ce',
    ('kcore', 'direct-cpe'):
        '0a5d6e77fbb76fe7660f8d07b2cb3067575ab45d7df5d64eb24cfea4f94c1cba',
    ('kcore', 'relay-cpe'):
        '1a44b7d0129ee11ef5ae384630b74efa7c9ef0dcd9a701e2f44d6bbadb747a4c',
    ('kcore', 'relay-mpe'):
        '1a44b7d0129ee11ef5ae384630b74efa7c9ef0dcd9a701e2f44d6bbadb747a4c',
    ('validator', 'direct-cpe'):
        'b1d80b6b263776bac48cc66a26a14d19ffacc7ba645e0a5af3860815b575d826',
    ('validator', 'relay-cpe'):
        '370947e803a2556e56f7413603a362de5a9899090379ee47f9ececfeb0411e8a',
    ('validator', 'relay-mpe'):
        '12541aeb09ff7d14ab12bafb39411ee6ddd7b64a7962fd11a3cbcd9421a3f571',
}

ALGO_CASES = {
    "relay-cpe": ("relay-cpe", 4),
    "direct-cpe": ("direct-cpe", None),
    "relay-mpe": ("relay-mpe", 4),
}


def _run_algorithm(name, engine_kwargs):
    from repro.algorithms import (
        DistributedDeltaStepping,
        DistributedKCore,
        DistributedPageRank,
        DistributedSSSP,
        DistributedWCC,
    )
    from repro.graph.csr import CSRGraph
    from repro.graph500.distributed_validate import DistributedValidator
    from repro.graph500.reference import reference_bfs

    edges, root = _edges(), 1
    if name == "pagerank":
        algo = DistributedPageRank(edges, 16, **engine_kwargs)
        result = algo.run()
        arrays = (result.ranks,)
    elif name == "wcc":
        algo = DistributedWCC(edges, 16, **engine_kwargs)
        result = algo.run()
        arrays = (result.labels,)
    elif name == "sssp":
        algo = DistributedSSSP(edges, 16, **engine_kwargs)
        result = algo.run(root)
        arrays = (result.dist,)
    elif name == "delta-stepping":
        algo = DistributedDeltaStepping(edges, 16, **engine_kwargs)
        result = algo.run(root)
        arrays = (result.dist,)
    elif name == "kcore":
        algo = DistributedKCore(edges, 16, **engine_kwargs)
        result = algo.run(3)
        arrays = (result.in_core,)
    else:
        algo = DistributedValidator(edges, 16, **engine_kwargs)
        parent = reference_bfs(CSRGraph.from_edges(edges), root)
        result = algo.validate(root, parent)
        arrays = (result.depth,)
    return algo.engine, result, arrays


def _algorithm_digest(name, case):
    variant, nps = ALGO_CASES[case]
    eng, result, arrays = _run_algorithm(
        name, {"config": variant_config(variant), "nodes_per_super_node": nps}
    )
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((
        result.supersteps,
        repr(float(result.sim_seconds)),
        _plain(getattr(result, "stats", {})),
        _plain(eng.cluster.stats.snapshot()),
        [_plain(part.pipeline.busy_times()) for part in eng.parts],
    )).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(ALGO_CASES))
@pytest.mark.parametrize(
    "name", ["pagerank", "wcc", "sssp", "delta-stepping", "kcore", "validator"]
)
def test_superstep_engine_parity(name, case):
    assert _algorithm_digest(name, case) == ALGO_GOLDEN[(name, case)]


def test_superstep_engine_relay_case_takes_the_relay_hop():
    """The relay digests cover stage two: PageRank under ``relay-cpe`` on
    four super nodes delivers both owner-bound and relay-hop records."""
    from collections import Counter

    from repro.algorithms import DistributedPageRank

    algo = DistributedPageRank(
        _edges(), 16, config=variant_config("relay-cpe"), nodes_per_super_node=4
    )
    cluster = algo.engine.cluster
    tags = Counter()

    def counting(handler, msg):
        tags[msg.tag] += 1
        handler(msg)

    for rank, handler in list(cluster._handlers.items()):
        cluster._handlers[rank] = partial(counting, handler)
    algo.run()
    assert tags == {"alg": 4800, "alg_relay": 960}


# --- cluster-level parity: send_batch vs N sends -----------------------------
def _collecting_cluster(num_nodes=16, nps=4):
    engine = Engine()
    cluster = SimCluster(engine, num_nodes, nodes_per_super_node=nps)
    deliveries = []
    for rank in range(num_nodes):
        cluster.register(
            rank,
            lambda msg: deliveries.append(
                (msg.src, msg.dst, msg.tag, msg.nbytes, msg.arrival_time)
            ),
        )
    return engine, cluster, deliveries


def _mixed_batch():
    # Self-send, intra-super-node, and inter-super-node targets mixed,
    # with staggered (and tied) injection times.
    dests = [0, 1, 5, 9, 2, 13, 0, 7]
    nbytes = [64, 4096, 128, 65536, 0, 1024, 256, 4096]
    at_times = [0.0, 0.0, 1e-6, 1e-6, 2e-6, 2e-6, 2e-6, 5e-6]
    return dests, nbytes, at_times


def test_send_batch_matches_scalar_sends_exactly():
    dests, nbytes, ats = _mixed_batch()
    eng_s, clu_s, del_s = _collecting_cluster()
    for d, nb, at in zip(dests, nbytes, ats):
        clu_s.send(0, d, "t", nb, at_time=at)
    eng_s.run()
    eng_b, clu_b, del_b = _collecting_cluster()
    clu_b.send_batch(0, dests, "t", nbytes, at_times=ats)
    eng_b.run()
    assert del_s == del_b  # same order, same exact arrival floats
    assert clu_s.stats.snapshot() == clu_b.stats.snapshot()
    assert eng_s.now == eng_b.now
    # Link-server state is part of the contract: later traffic sees it.
    for ls, lb in zip(
        (clu_s.network.nic_out[0], clu_s.network.uplink[0]),
        (clu_b.network.nic_out[0], clu_b.network.uplink[0]),
    ):
        assert ls.free_at == lb.free_at
        assert ls.busy_time == lb.busy_time
        assert ls.bytes_carried == lb.bytes_carried
        assert ls.jobs == lb.jobs


def test_send_batch_vector_branch_matches_scalar():
    """Wide fan-outs (>= the vector threshold) take the numpy pricing
    branch; it must be as exact as the small-batch Python loop."""
    num_nodes = 48
    dests = [d for d in range(num_nodes) if d != 3] + [3, 3]  # 49 >= 32
    nbytes = [256 + 13 * i for i in range(len(dests))]
    ats = [1e-7 * (i % 5) for i in range(len(dests))]
    eng_s, clu_s, del_s = _collecting_cluster(num_nodes=num_nodes, nps=8)
    for d, nb, at in zip(dests, nbytes, ats):
        clu_s.send(3, d, "t", nb, at_time=at)
    eng_s.run()
    eng_b, clu_b, del_b = _collecting_cluster(num_nodes=num_nodes, nps=8)
    clu_b.send_batch(3, dests, "t", nbytes, at_times=ats)
    eng_b.run()
    assert del_s == del_b
    assert clu_s.stats.snapshot() == clu_b.stats.snapshot()


def test_send_batch_accepts_lists_and_arrays_identically():
    dests, nbytes, ats = _mixed_batch()
    eng_a, clu_a, del_a = _collecting_cluster()
    clu_a.send_batch(
        0,
        np.asarray(dests, dtype=np.int64),
        "t",
        np.asarray(nbytes, dtype=np.int64),
        at_times=np.asarray(ats),
    )
    eng_a.run()
    eng_l, clu_l, del_l = _collecting_cluster()
    clu_l.send_batch(0, dests, "t", nbytes, at_times=ats)
    eng_l.run()
    assert del_a == del_l
    assert clu_a.stats.snapshot() == clu_l.stats.snapshot()


def test_send_batch_interleaves_with_other_senders_like_scalar():
    """Batched traffic shares FIFO links with scalar traffic from another
    node; admission order (and therefore every arrival) must not depend on
    which API injected the messages."""
    dests = [9, 10, 11]
    nbytes = [8192, 8192, 8192]
    ats = [0.0, 0.0, 0.0]
    eng_s, clu_s, del_s = _collecting_cluster()
    for d, nb, at in zip(dests, nbytes, ats):
        clu_s.send(0, d, "t", nb, at_time=at)
    clu_s.send(1, 9, "x", 50000, at_time=0.0)  # contends on 9's NIC-in
    eng_s.run()
    eng_b, clu_b, del_b = _collecting_cluster()
    clu_b.send_batch(0, dests, "t", nbytes, at_times=ats)
    clu_b.send(1, 9, "x", 50000, at_time=0.0)
    eng_b.run()
    assert del_s == del_b


def test_send_batch_payloads_and_empty_batch():
    eng, clu, deliveries = _collecting_cluster()
    assert clu.send_batch(0, [], "t", []) == []
    msgs = clu.send_batch(0, [1, 2], "t", [8, 8], payloads=["a", "b"])
    assert [m.payload for m in msgs] == ["a", "b"]
    eng.run()
    assert len(deliveries) == 2


def test_send_batch_rejects_bad_inputs():
    eng, clu, _ = _collecting_cluster()
    with pytest.raises(ConfigError, match="equal lengths"):
        clu.send_batch(0, [1, 2], "t", [8])
    with pytest.raises(ConfigError, match="equal lengths"):
        clu.send_batch(0, [1, 2], "t", [8, 8], at_times=[0.0])
    with pytest.raises(ConfigError, match="negative message size"):
        clu.send_batch(0, [1, 2], "t", [8, -1])
    with pytest.raises(ConfigError):
        clu.send_batch(0, [1, 99], "t", [8, 8])  # dest out of range
    eng.call_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError, match="past"):
        clu.send_batch(0, [1], "t", [8], at_times=[0.5])


def test_send_batch_dead_letters_on_mid_batch_deregister():
    """A destination that deregisters while batched messages are in flight
    diverts them to ``dead_letters`` exactly like the scalar path: same
    deliveries, same dead-letter count, same clock. The deregister fires
    from a bare engine event, between injection and delivery."""
    dests = [9, 9, 9, 10]
    nbytes = [8192, 8192, 8192, 64]
    ats = [0.0, 0.0, 0.0, 0.0]
    snapshots = []
    for use_batch in (False, True):
        eng, clu, deliveries = _collecting_cluster()
        # Kill rank 9 after injection but before any transfer completes.
        eng.call_at(1e-9, clu.deregister, 9)
        if use_batch:
            clu.send_batch(0, dests, "t", nbytes, at_times=ats)
        else:
            for d, nb, at in zip(dests, nbytes, ats):
                clu.send(0, d, "t", nb, at_time=at)
        eng.run()
        snapshots.append((list(deliveries), clu.stats.snapshot(), eng.now))
    scalar, batched = snapshots
    assert scalar == batched
    deliveries, stats, _ = batched
    assert stats["dead_letters"] == 3  # the three in-flight messages to 9
    assert [d[1] for d in deliveries] == [10]  # rank 10 still delivered


def test_send_batch_from_deregistered_source_dead_letters():
    """Messages injected by an already-crashed source never reach the
    network — batched and scalar agree on the dead-letter accounting."""
    snapshots = []
    for use_batch in (False, True):
        eng, clu, deliveries = _collecting_cluster()
        clu.deregister(0)
        if use_batch:
            clu.send_batch(0, [1, 2], "t", [64, 64])
        else:
            clu.send(0, 1, "t", 64)
            clu.send(0, 2, "t", 64)
        eng.run()
        snapshots.append((list(deliveries), clu.stats.snapshot()))
    assert snapshots[0] == snapshots[1]
    assert snapshots[1][1]["dead_letters"] == 2
    assert snapshots[1][0] == []


def test_crash_only_node_faults_leave_batch_path_live():
    """A crash-only :class:`NodeFaultPlan` must not wrap ``cluster.send``:
    crashes act through ``deregister`` alone, so the vectorized batch path
    stays installed (a straggler plan still needs the per-message wrap)."""
    from repro.sim.faults import NodeFaultInjector, NodeFaultPlan

    eng, clu, _ = _collecting_cluster()
    NodeFaultInjector(clu, NodeFaultPlan(crash_at={3: 1e-4}))
    assert "send" not in clu.__dict__  # class-level send: batch path intact
    eng2, clu2, _ = _collecting_cluster()
    NodeFaultInjector(clu2, NodeFaultPlan(stragglers={2: 2.0}))
    assert "send" in clu2.__dict__  # stragglers price per message


# --- network-model parity: transfer_batch vs sequential transfers ------------
def test_transfer_batch_matches_sequential_transfers():
    topo = FatTreeTopology(num_nodes=16, nodes_per_super_node=4)
    net_s = NetworkModel(topo, TAIHULIGHT)
    net_b = NetworkModel(topo, TAIHULIGHT)
    dests = np.array([0, 1, 5, 9, 2, 13, 7], dtype=np.int64)
    nbytes = np.array([64, 4096, 128, 65536, 0, 1024, 4096], dtype=np.int64)
    ats = np.array([0.0, 0.0, 1e-6, 1e-6, 2e-6, 2e-6, 5e-6])
    order = np.argsort(ats, kind="stable")
    expected = np.empty(len(dests))
    for i in order.tolist():
        expected[i] = net_s.transfer(0, int(dests[i]), int(nbytes[i]), float(ats[i]))
    got = net_b.transfer_batch(0, dests, nbytes, ats)
    assert np.array_equal(got, expected)  # bitwise: no reassociation allowed
    for link_s, link_b in zip(
        (net_s.nic_out[0], net_s.uplink[0], net_s.nic_in[9], net_s.downlink[2]),
        (net_b.nic_out[0], net_b.uplink[0], net_b.nic_in[9], net_b.downlink[2]),
    ):
        assert link_s.free_at == link_b.free_at
        assert link_s.busy_time == link_b.busy_time


# --- pipeline/server parity: the batched admission helpers -------------------
def test_admit_many_matches_sequential_admits():
    a, b = Server("a"), Server("b")
    times = [0.0, 1e-6, 1e-6, 5e-7, 9e-6]
    finishes = []
    for t in times:
        _, fin = a.admit(t, 2e-6)
        finishes.append(fin)
    assert b.admit_many(times, 2e-6) == finishes
    assert a.free_at == b.free_at
    assert a.busy_time == b.busy_time
    assert a.jobs == b.jobs


def test_ready_fractions_matches_scalar_ready_fraction():
    ex = ModuleExecution("forward_generator", 1e-4, 7e-4, "cluster:0", 4096.0)
    for n in (1, 2, 3, 7, 16):
        got = ex.ready_fractions(n)
        expected = [ex.ready_fraction((k + 1) / n) for k in range(n)]
        assert got.tolist() == expected
    # The driver's single-bucket fast path uses this exact expression:
    assert ex.start + 1.0 * (ex.finish - ex.start) == ex.ready_fraction(1.0)


# --- reliable-transport parity: channel batch vs scalar ----------------------
def test_channel_send_batch_matches_scalar_channel_sends():
    outcomes = []
    for use_batch in (False, True):
        eng, clu, deliveries = _collecting_cluster()
        channel = ReliableChannel(clu, ResilienceConfig(reliable_transport=True))
        dests, nbytes, ats = _mixed_batch()
        dests = [d for d in dests if d != 0] or [1]
        n = len(dests)
        if use_batch:
            channel.send_batch(0, dests, "t", nbytes[:n], at_times=ats[:n])
        else:
            for d, nb, at in zip(dests, nbytes[:n], ats[:n]):
                channel.send(0, d, "t", nb, at_time=at)
        eng.run()
        outcomes.append((deliveries, clu.stats.snapshot(), channel.in_flight))
    assert outcomes[0] == outcomes[1]


def test_channel_send_batch_rejects_reserved_tag():
    _, clu, _ = _collecting_cluster()
    channel = ReliableChannel(clu, ResilienceConfig(reliable_transport=True))
    with pytest.raises(ConfigError, match="reserved"):
        channel.send_batch(0, [1], "ack", [8])


# --- telemetry golden digests: spans/intervals/metrics ----------------------
def test_telemetry_parity_relay_variant():
    """With tracing on, the same labeled-metric snapshot, busy intervals
    on every server and link, and span list (ids, parents, windows,
    attrs) as the recorded run."""
    assert _traversal_digest(telemetry=True) == GOLDEN["telemetry-relay"]


def test_telemetry_parity_direct_variant():
    digest = _traversal_digest("direct-cpe", telemetry=True, roots=(1,))
    assert digest == GOLDEN["telemetry-direct"]


def test_telemetry_off_leaves_stats_identical_to_untraced_run():
    """A disabled Telemetry must be a true no-op: exactly the snapshot a
    plain run produces (no extra families, no interval recording)."""
    edges = _edges()
    cfg = variant_config("relay-cpe")
    plain = DistributedBFS(edges, 8, config=cfg)
    plain_result = plain.run(1)
    tel = Telemetry(enabled=False)
    off = DistributedBFS(edges, 8, config=cfg, telemetry=tel)
    off_result = off.run(1)
    assert np.array_equal(plain_result.parent, off_result.parent)
    assert plain_result.sim_seconds == off_result.sim_seconds
    assert plain.cluster.stats.snapshot() == off.cluster.stats.snapshot()
    assert all(s.intervals is None for s in off._all_servers())


# --- reliable transport leaves the engine empty -------------------------------
@pytest.mark.parametrize("intercepted", [False, True])
def test_reliable_transport_leaves_engine_empty(intercepted):
    """Acks cancel their retry timers; after the run neither a live event
    nor a stale cancel mark may remain. ``intercepted`` installs a
    fault-free injector, which makes every batch degrade to per-message
    sends, so both routes into the fabric are covered."""
    bfs = DistributedBFS(
        _edges(), 16, config=variant_config("relay-cpe"),
        resilience=ResilienceConfig(reliable_transport=True),
    )
    injector = FaultInjector(bfs.cluster, FaultPlan()) if intercepted else None
    for root in (1, 5):
        bfs.run(root)
    if injector is not None:
        assert injector.matched > 0 and injector.dropped == 0
        injector.uninstall()
    assert len(bfs.engine._cancelled) == 0
    assert len(bfs.engine) == 0


# --- engine parity: schedule_batch vs call_at --------------------------------
def test_schedule_batch_matches_sequential_call_at():
    ran_a, ran_b = [], []
    eng_a, eng_b = Engine(), Engine()
    whens = [3e-6, 1e-6, 1e-6, 2e-6]
    for i, w in enumerate(whens):
        eng_a.call_at(w, ran_a.append, i)
    handles = eng_b.schedule_batch(whens, ran_b.append, [(i,) for i in range(4)])
    assert list(handles) == [0, 1, 2, 3]  # contiguous, same as call_at's
    eng_a.run()
    eng_b.run()
    assert ran_a == ran_b  # identical tie-breaking
    assert eng_a.now == eng_b.now

"""Micro rates: one public function at a time on fixed synthetic inputs.

These are not part of any workload. They say what a layer can do alone, so a
change to one layer shows in its own row first; the inputs never vary with
``--seed``. Each rate is the median of ``repeats`` timings.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


def _noop(*args) -> None:
    pass


def rates(repeats: int = 3) -> dict[str, float]:
    from repro.graph.csr import CSRGraph
    from repro.graph.edgelist import EdgeList
    from repro.graph.kronecker import KroneckerGenerator
    from repro.network.simmpi import SimCluster
    from repro.service.cache import ResultCache
    from repro.service.protocol import decode_body, encode_frame
    from repro.service.scheduler import FairScheduler
    from repro.sim.engine import Engine
    from repro.sim.resources import Server

    def _rate(work: float, once) -> float:
        """``work`` units per second; ``once()`` returns the seconds it spent
        inside the function under test."""
        return work / statistics.median(once() for _ in range(repeats))

    out: dict[str, float] = {}
    n_events = 50_000

    def events() -> float:
        eng = Engine()
        t0 = perf_counter()
        for i in range(n_events):
            eng.call_at(i * 1e-9, _noop)
        eng.run()
        return perf_counter() - t0

    out["micro.engine.events_per_s"] = _rate(n_events, events)

    whens = [float(i) for i in range(64)]
    argses = [()] * 64

    def schedule() -> float:
        eng = Engine()
        t0 = perf_counter()
        for _ in range(n_events // 64):
            eng.schedule_batch(whens, _noop, argses)
        return perf_counter() - t0

    out["micro.engine.schedule_batch_per_s"] = _rate(n_events // 64 * 64, schedule)

    nodes = 512  # two super nodes, so both route shapes are priced

    def cluster() -> SimCluster:
        c = SimCluster(Engine(), nodes)
        for rank in range(nodes):
            c.register(rank, _noop)
        return c

    for width, label in ((4, "b4"), (256, "b256")):  # below / above _VECTOR_THRESHOLD
        dests = [(7 + 3 * i) % nodes for i in range(width)]
        nbytes = [64 + i for i in range(width)]
        batches = 12_288 // width

        def send_batch() -> float:
            c = cluster()
            t0 = perf_counter()
            for _ in range(batches):
                c.send_batch(0, dests, "t", nbytes)
            return perf_counter() - t0

        out[f"micro.simmpi.send_batch_msgs_per_s.{label}"] = _rate(
            batches * width, send_batch)

        network = cluster().network
        d_arr, n_arr = np.array(dests), np.array(nbytes)

        def price() -> float:
            t0 = perf_counter()
            for _ in range(batches):
                network.price_batch(0, d_arr, n_arr)
            return perf_counter() - t0

        out[f"micro.cost.price_batch_ns_per_msg.{label}"] = 1e9 / _rate(
            batches * width, price)

    def send() -> float:
        c = cluster()
        t0 = perf_counter()
        for i in range(8_192):
            c.send(0, (7 + 3 * i) % nodes, "t", 64)
        return perf_counter() - t0

    out["micro.simmpi.send_msgs_per_s"] = _rate(8_192, send)

    def admit() -> float:
        server = Server()
        t0 = perf_counter()
        for _ in range(1_000):
            server.admit_many(whens, 1e-6)
        return perf_counter() - t0

    out["micro.resources.admit_many_per_s"] = _rate(64_000, admit)

    gen = KroneckerGenerator(13, 16, seed=7)

    def generate() -> float:
        t0 = perf_counter()
        gen.generate()
        return perf_counter() - t0

    out["micro.kronecker.medges_per_s"] = _rate(gen.num_edges / 1e6, generate)

    edges = gen.generate()

    def from_edges() -> float:
        fresh = EdgeList(edges.src, edges.dst, edges.num_vertices)  # no CSR cache
        t0 = perf_counter()
        CSRGraph.from_edges(fresh)
        return perf_counter() - t0

    out["micro.csr.from_edges_medges_per_s"] = _rate(gen.num_edges / 1e6, from_edges)

    graph = CSRGraph.from_edges(edges)
    rng = np.random.default_rng(7)
    us = rng.integers(0, graph.num_vertices, 200_000)
    vs = rng.integers(0, graph.num_vertices, 200_000)

    def has_edges() -> float:
        t0 = perf_counter()
        graph.has_edges(us, vs)
        return perf_counter() - t0

    out["micro.csr.has_edges_mlookups_per_s"] = _rate(0.2, has_edges)

    doc = {"ok": True, "payload": {"parent": np.arange(8192, dtype=np.int64), "levels": 7}}
    frame = encode_frame(doc)
    body = frame[4:]

    def encode() -> float:
        t0 = perf_counter()
        for _ in range(100):
            encode_frame(doc)
        return perf_counter() - t0

    def decode() -> float:
        t0 = perf_counter()
        for _ in range(100):
            decode_body(body)
        return perf_counter() - t0

    out["micro.protocol.encode_mb_per_s"] = _rate(100 * len(frame) / 1e6, encode)
    out["micro.protocol.decode_mb_per_s"] = _rate(100 * len(frame) / 1e6, decode)

    def offer_take() -> float:
        sched = FairScheduler()
        t0 = perf_counter()
        for i in range(10_000):
            sched.offer("a" if i & 1 else "b", i)
            sched.take()
        return perf_counter() - t0

    out["micro.scheduler.offer_take_per_s"] = _rate(10_000, offer_take)

    cache = ResultCache(1024)
    keys = [("g", "bfs", (("root", i),)) for i in range(512)]
    for key in keys:
        cache.put(key, key)

    def get() -> float:
        t0 = perf_counter()
        for _ in range(20):
            for key in keys:
                cache.get(key)
        return perf_counter() - t0

    out["micro.cache.get_per_s"] = _rate(20 * len(keys), get)
    return out

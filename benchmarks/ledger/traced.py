"""The traced run of a workload: per-layer numbers.

Order inside one child: warm up, a few untraced units (their median is the
base of ``ledger.trace_overhead_ratio``), install the wrappers, traced
units, restore. Each traced unit sits under one root span; a layer's value
is the median over traced units of its self time inside the unit, counts
come from the same spans or from the program's public counters, and
``ledger.unattributed_s`` is what no named span covers. The spans of the
last traced unit are written to ``out/trace-<workload>.json``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from ledger import micro, workloads
from ledger.trace import (
    CLIENT_TABLE,
    TABLE,
    Totals,
    Tracer,
    merge_columns,
    to_json,
)
from ledger.workloads import KernelTap, Segment, timed_loop

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CONTRACT = HERE.parents[1] / "BENCHMARK.json"
UNIT = "ledger.unattributed_s|unit"

#: Construction layers that on ``algo_mix`` and ``svc_*`` run during set-up,
#: outside every unit; there they are reported from the set-up spans.
SETUP_LAYERS = ("graph.kronecker.generate_s", "graph.csr.from_edges_s",
                "baselines.make_variant_s", "graph500.roots.sample_s")


def spans_to_layers(t: Totals) -> dict:
    """What the span table alone determines (self seconds, span counts)."""
    out = {k: v for k, v in t.self_s.items() if k.endswith("_s") and not k.startswith("ledger.")}
    out["sim.engine.run_span_s"] = t.incl_s.get("sim.engine.dispatch_s", 0.0)
    out["core.bfs.run_span_s"] = t.incl_s.get("core.bfs.self_s", 0.0)
    batches = t.count.get("network.simmpi.send_batch_s", 0)
    out["network.simmpi.batches"] = batches
    out["network.simmpi.mean_batch"] = (
        t.units.get("network.simmpi.send_batch_s", 0) / batches if batches else 0.0)
    out["network.cost.priced"] = t.units.get("network.cost.price_s", 0)
    out["core.pipeline.submits"] = t.count.get("core.pipeline.submit_s", 0)
    out["core.runtime.calls"] = t.count.get("core.runtime.kernels_s", 0)
    return out


def batch(name: str, p: dict, seed: int, budget: float) -> tuple[Segment, list[dict], float]:
    seg = Segment()
    tracer = Tracer()
    g500 = name.startswith("g500")
    durations: dict[bool, list[float]] = {False: [], True: []}
    per_unit: list[dict] = []
    setup_layers: dict = {}
    last_cols = None

    def unit(traced: bool) -> float:
        nonlocal last_cols
        token = tracer.begin(UNIT) if traced else None
        d = (workloads.g500_unit(p, seed, tap, seg) if g500
             else workloads.algo_unit(p, built, seg))
        durations[traced].append(d)
        if traced:
            tracer.end(token)
            last_cols = tracer.columns()
            tracer.clear()
            t = Totals(last_cols)
            layers = spans_to_layers(t)
            layers.update(seg.counters)
            layers["ledger.unattributed_s"] = t.self_s["ledger.unattributed_s"]
            layers["ledger.traced_run_s"] = t.incl_s["ledger.unattributed_s"]
            per_unit.append(layers)
        return d

    with KernelTap() as tap:
        built = None if g500 else workloads.algo_setup(p, seed)
        unit(False)  # warm-up
        durations[False].clear()
        timed_loop(budget * 0.3, lambda: unit(False))
        tracer.install(TABLE)
        try:
            if not g500:
                # Set-up again under the wrappers (a fresh edge list, so the
                # CSR is really rebuilt): algo_mix builds its graph here.
                built = workloads.algo_setup(p, seed)
                setup = spans_to_layers(Totals(tracer.columns()))
                setup_layers = {k: setup.get(k, 0.0) for k in SETUP_LAYERS}
                tracer.clear()
            timed_loop(budget * 0.4, lambda: unit(True))
        finally:
            tracer.restore()
    for layers in per_unit:
        layers.update({k: v for k, v in setup_layers.items() if not layers.get(k)})
        events = layers["sim.engine.events"]
        layers["sim.engine.host_us_per_event"] = 1e6 * layers["core.bfs.run_span_s"] / events
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}.json").write_text(json.dumps(to_json(last_cols)))
    ratio = statistics.median(durations[True]) / statistics.median(durations[False])
    return seg, per_unit, ratio


def stats_totals(stats: dict) -> dict:
    tenants = stats["tenants"].values()
    return {
        "hits": stats["cache"]["hits"], "misses": stats["cache"]["misses"],
        "queue_wait": sum(t["mean_queue_wait"] * t["queries"] for t in tenants),
        "shed": sum(t.get("sched_shed_rate", 0) + t.get("sched_shed_queue", 0)
                    for t in tenants),
    }


def svc(name: str, p: dict, seed: int, budget: float) -> tuple[Segment, list[dict], float]:
    from repro.service import ServiceClient

    seg = Segment()
    # Untraced base: the stock server, as in the timed run.
    load, server, keep = workloads.svc_start(name, p, seed, seg)
    try:
        plain: list[float] = []

        def plain_unit() -> float:
            plain.append(workloads.svc_unit(server.port, load, seg, keep))
            return plain[-1]

        timed_loop(budget * 0.25, plain_unit)
    finally:
        server.stop(seg)
    untraced_digest = seg.digest

    tracer = Tracer()
    spans_file = OUT / f"server-spans-{name}.npz"
    OUT.mkdir(exist_ok=True)
    windows: list[tuple[float, float, dict, dict, float]] = []
    tracer.install(CLIENT_TABLE)
    try:
        load, server, keep = workloads.svc_start(name, p, seed, seg, spans_out=spans_file)
        try:
            traced: list[float] = []
            with ServiceClient(port=server.port) as admin:

                def unit() -> float:
                    before = stats_totals(admin.stats())
                    lo = perf_counter()
                    traced.append(workloads.svc_unit(
                        server.port, load, seg, keep, tracer=tracer))
                    hi = perf_counter()
                    windows.append((lo, hi, before, stats_totals(admin.stats()),
                                    seg.latency_sum))
                    return traced[-1]

                timed_loop(budget * 0.35, unit)
        finally:
            server.stop(seg)
    finally:
        tracer.restore()
    workloads.svc_verify(p, load, keep, seg)
    # The traced server must have served the same answers as the stock one.
    seg.check(seg.digest == untraced_digest, "svc: traced run's digest differs from untraced")

    with np.load(spans_file) as npz:
        server_cols = {k: npz[k] for k in npz.files}
    spans_file.unlink()
    cols = merge_columns(tracer.columns(), server_cols)
    whole = spans_to_layers(Totals(cols))
    per_unit = []
    for lo, hi, before, after, latency_s in windows:
        t = Totals(cols, lo, hi)
        delta = {k: after[k] - before[k] for k in after}
        layers = spans_to_layers(t)
        layers.update({k: whole.get(k, 0.0) for k in SETUP_LAYERS})
        layers["service.catalog.execute_s"] = t.incl_s.get("service.catalog.execute_s", 0.0)
        layers["service.catalog.executes"] = t.count.get("service.catalog.execute_s", 0)
        layers["service.protocol.bytes_out"] = t.units.get("service.protocol.encode_s", 0)
        layers["service.cache.hits"] = delta["hits"]
        layers["service.cache.misses"] = delta["misses"]
        gets = delta["hits"] + delta["misses"]
        layers["service.cache.hit_ratio"] = delta["hits"] / gets if gets else 0.0
        layers["service.scheduler.queue_wait_s"] = delta["queue_wait"]
        layers["service.scheduler.shed"] = delta["shed"]
        layers["service.server.requests"] = t.count.get("service.server.request", 0)
        # A request's self time is what no named span covers while it is
        # open: the wait in the tenant queue, then asyncio and the future hop.
        layers["service.server.other_s"] = (
            t.self_s.get("service.server.request", 0.0) - delta["queue_wait"])
        # The client's wait outside the server's request spans: the socket,
        # the kernel and the event loop picking the frame up. Both processes
        # read one system-wide clock, so the difference is a measurement.
        layers["service.socket.transit_s"] = (
            t.self_s.get("ledger.client_wait_s", 0.0)
            - t.incl_s.get("service.server.request", 0.0))
        # Closure: the latencies the load generator timed itself, minus
        # every named part of them.
        layers["ledger.traced_run_s"] = latency_s
        layers["ledger.unattributed_s"] = latency_s - (
            layers["service.client.call_s"]
            + t.self_s.get("ledger.client_wait_s", 0.0))
        per_unit.append(layers)
    last = windows[-1]
    keep_rows = (cols["start"] >= last[0]) & (cols["start"] < last[1])
    last_cols = {k: (v if k == "names" else v[keep_rows]) for k, v in cols.items()}
    (OUT / f"trace-{name}.json").write_text(json.dumps(to_json(last_cols)))
    return seg, per_unit, statistics.median(traced) / statistics.median(plain)


def run(name: str, p: dict, seed: int, budget: float, smoke: bool) -> dict:
    names = [m["name"] for m in json.loads(CONTRACT.read_text())["per_layer"]]
    seg, per_unit, ratio = (svc if name.startswith("svc") else batch)(name, p, seed, budget)
    layers = dict.fromkeys(names, 0.0)
    for key in {k for unit in per_unit for k in unit}:
        if key not in layers:
            raise KeyError(f"{key} is measured but not declared in BENCHMARK.json")
        layers[key] = float(statistics.median(unit.get(key, 0.0) for unit in per_unit))
    layers["ledger.trace_overhead_ratio"] = ratio
    layers.update(micro.rates(repeats=1 if smoke else 3))
    return {
        "workload": name, "seed": seed, "units": len(per_unit),
        "attempted": seg.attempted, "failed": seg.failed, "failures": seg.failures,
        "layers": layers, "digest": seg.digest,
    }

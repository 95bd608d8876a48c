"""One segment of one workload, run in a fresh interpreter by ``run.py``.

A segment sets the workload up, runs timed units (one unit = one iteration
of a batch workload, one block of queries of a service workload) until its
time budget is spent, checks what the program returned, and prints one JSON
document as the last line of stdout. With ``--trace 1`` it instead runs a
few untraced units, installs the span wrappers of :mod:`trace`, runs traced
units, and reports per-layer numbers plus the micro rates.

Everything the program sees is generated from ``--seed``: the Kronecker
seed, the sampled roots and the Zipf draw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

#: name -> (full size, smoke size). ``block`` is queries per client per block.
SIZES = {
    "g500_fabric": (dict(scale=12, nodes=64, roots=8), dict(scale=9, nodes=16, roots=4)),
    "g500_bulk": (dict(scale=16, nodes=4, roots=8), dict(scale=10, nodes=2, roots=4)),
    "algo_mix": (dict(scale=14, nodes=16), dict(scale=9, nodes=4)),
    "svc_cold": (dict(scale=13, nodes=4, block=60), dict(scale=9, nodes=4, block=12)),
    "svc_hot": (dict(scale=13, nodes=4, block=500), dict(scale=9, nodes=4, block=60)),
}
CLIENTS = 2  # closed-loop callers, one connection and one tenant each (= nproc)
HOT_ROOTS = 32
WARM_QUERIES = 8  # per client, before the first timed block
#: Root span of one client query in a traced run; its self time is the
#: client's wait for the socket and the server.
QUERY_SPAN = "ledger.client_wait_s|ServiceClient.query"
VERIFY_ROOTS = 12  # replies re-derived with a direct kernel, per segment
#: A reused kernel's ``sim_seconds`` is a difference of absolute simulated
#: times, so it depends on the queries that ran before it: usually in the
#: last bits, but a rounding flip in a FIFO tie can move it by ~4e-5
#: (measured: 2 of 200 roots when the same roots run in reverse order) — and
#: two concurrent clients reach the kernel in a different order every run.
#: Parents, levels and traversed edges must be bit-identical; the simulated
#: time must agree to this relative tolerance.
SVC_SIM_TOL = 1e-3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the value with ``q`` of the samples at or
    below it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


class Segment:
    """Accumulates what one child reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {
            "run_s": [], "qps": [], "latency_p50_ms": [], "latency_p95_ms": [],
        }
        self.sim: dict[str, float] = {}
        self.digest: str | None = None
        self.counters: dict[str, float] = {}
        self.latency_samples = 0
        self.latency_sum = 0.0  # of the last unit

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)

    def unit(self, run_s: float, ops: int, latencies: list[float]) -> None:
        self.samples["run_s"].append(run_s)
        self.samples["qps"].append(ops / run_s)
        self.samples["latency_p50_ms"].append(1e3 * percentile(latencies, 0.50))
        self.samples["latency_p95_ms"].append(1e3 * percentile(latencies, 0.95))
        self.latency_samples += len(latencies)
        self.latency_sum = sum(latencies)

    def same(self, digest: str, sim: dict, what: str) -> None:
        """Every unit of a segment must reproduce the first one bit for bit."""
        if self.digest is None:
            self.digest, self.sim = digest, sim
        self.check(digest == self.digest and sim == self.sim,
                   f"{what}: determinism digest differs between units")


def timed_loop(budget: float, unit) -> int:
    """Call ``unit()`` (returns its duration) until the budget is spent,
    stopping where the total lands nearest the budget; at least once."""
    spent, durations = 0.0, []
    while True:
        durations.append(unit())
        spent += durations[-1]
        if spent + 0.5 * statistics.median(durations) >= budget:
            return len(durations)


# ---------------------------------------------------------------- g500_* ----
class KernelTap:
    """Keeps the kernel a ``Graph500Runner`` builds and the results it
    returns, which ``BenchmarkReport`` does not carry: the determinism
    digest needs the parent arrays and the engine's counters. Inside the
    timed region it costs one list append and one clock read per root."""

    def __enter__(self) -> "KernelTap":
        import repro.baselines as baselines

        self._owner = baselines
        self._make = make_variant = baselines.make_variant
        self.reset()

        def make(*args, **kwargs):
            kernel = make_variant(*args, **kwargs)
            run = kernel.run

            def tee(root):
                self.marks.append(perf_counter())
                result = run(root)
                self.results.append(result)
                return result

            kernel.run = tee
            self.kernel = kernel
            return kernel

        baselines.make_variant = make
        return self

    def __exit__(self, *exc) -> None:
        self._owner.make_variant = self._make

    def reset(self) -> None:
        self.kernel = None
        self.marks: list[float] = []
        self.results: list = []


def admits(pipelines) -> int:
    """Jobs admitted by every FIFO server (MPEs, CPE clusters) of the nodes."""
    return sum(s.jobs for pl in pipelines
               for s in (pl.mpe_send, pl.mpe_recv, *pl.mpe_aux, *pl.clusters))


def g500_unit(p: dict, seed: int, tap: KernelTap, seg: Segment) -> float:
    from repro.graph500.runner import Graph500Runner

    tap.reset()
    start = perf_counter()
    report = Graph500Runner(
        scale=p["scale"], nodes=p["nodes"], variant="relay-cpe", seed=seed
    ).run(num_roots=p["roots"])
    end = perf_counter()
    marks = tap.marks + [end]
    # One root's latency: its kernel run plus validation and TEPS accounting.
    seg.unit(end - start, len(report.runs),
             [b - a for a, b in zip(marks, marks[1:])])
    for run in report.runs:
        seg.check(run.validated and run.failure is None,
                  f"root {run.root}: {run.failure or 'not validated'}")
    kernel = tap.kernel
    events = kernel.engine.events_executed
    messages = kernel.cluster.stats.value("messages")
    digest = sha(*[x for r in tap.results for x in (r.root, r.parent, r.sim_seconds)],
                 events, messages)
    seg.same(digest, {"sim_gteps": report.gteps,
                      "sim_s": sum(r.seconds for r in report.runs)}, "g500")
    seg.counters = {
        "sim.engine.events": events,
        "network.simmpi.messages": messages,
        "sim.resources.admits": admits(st.pipeline for st in kernel.states),
        "core.bfs.levels": sum(r.levels for r in report.runs),
        "graph.kronecker.edges": int(kernel.edges.num_edges),
        "graph.csr.nnz": int(kernel.graph.num_edges),
    }
    return end - start


# -------------------------------------------------------------- algo_mix ----
def algo_setup(p: dict, seed: int):
    from repro.graph.csr import CSRGraph
    from repro.graph.kronecker import KroneckerGenerator
    from repro.graph500.roots import sample_roots

    edges = KroneckerGenerator(p["scale"], 16, seed=seed).generate()
    graph = CSRGraph.from_edges(edges)
    root = int(sample_roots(edges, 1, seed=seed)[0])
    return edges, graph, root


def algo_unit(p: dict, built, seg: Segment) -> float:
    from repro.algorithms import (
        DistributedDeltaStepping,
        DistributedPageRank,
        DistributedSSSP,
        DistributedWCC,
    )

    edges, graph, root = built
    calls = [
        (DistributedPageRank, lambda a: a.run(iterations=10, tol=0.0), "ranks"),
        (DistributedWCC, lambda a: a.run(), "labels"),
        (DistributedSSSP, lambda a: a.run(root), "dist"),
        (DistributedDeltaStepping, lambda a: a.run(root), "dist"),
    ]
    latencies, algos, results = [], [], []
    start = perf_counter()
    for cls, run, _ in calls:
        t0 = perf_counter()
        algo = cls(edges, p["nodes"], graph=graph)
        results.append(run(algo))
        latencies.append(perf_counter() - t0)
        algos.append(algo)
    end = perf_counter()
    seg.unit(end - start, len(calls), latencies)
    engines = [a.engine for a in algos]  # SuperstepEngine of each algorithm
    events = sum(e.engine.events_executed for e in engines)
    messages = sum(e.cluster.stats.value("messages") for e in engines)
    records = sum(e.records_sent for e in engines)
    sim_s = sum(r.sim_seconds for r in results)
    digest = sha(*[x for r, (_, _, field) in zip(results, calls)
                   for x in (getattr(r, field), r.sim_seconds, r.supersteps)],
                 events, messages)
    # Every record is one edge update crossing the substrate, so records
    # per simulated second is this workload's traversal rate.
    seg.same(digest, {"sim_gteps": records / sim_s / 1e9, "sim_s": sim_s}, "algo_mix")
    seg.check(all(np.isfinite(getattr(r, f)).any() for r, (_, _, f) in zip(results, calls)),
              "algo_mix: an algorithm returned no finite value", count=len(calls))
    seg.counters = {
        "sim.engine.events": events,
        "network.simmpi.messages": messages,
        "sim.resources.admits": admits(part.pipeline for e in engines for part in e.parts),
        "algorithms.records": records,
        "algorithms.supersteps": sum(r.supersteps for r in results),
        "graph.kronecker.edges": int(edges.num_edges),
        "graph.csr.nnz": int(graph.num_edges),
    }
    return end - start


# ----------------------------------------------------------------- svc_* ----
def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


class Server:
    """The service child: stock ``python -m repro serve`` when timing, the
    ledger's traced launcher (same service, same defaults) when tracing."""

    def __init__(self, p: dict, seed: int, spans_out: Path | None = None) -> None:
        preload = f"g:{p['scale']}:{p['nodes']}:{seed}"
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve",
                   "--preload", preload, "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "ledger._serve_traced",
                   "--preload", preload, "--spans-out", str(spans_out)]
        self.shm_before = shm_segments()
        # The child imports what this interpreter imports (src/, ledger).
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        self.port = 0
        for line in self.proc.stdout:
            if line.startswith("serving on"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if not self.port:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("service child exited before serving")

    def stop(self, seg: Segment) -> float:
        """terminate + wait; a non-zero exit or a SharedCSR segment left in
        /dev/shm is a failed operation. Returns the child's peak RSS (MiB)."""
        self.proc.terminate()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        leaked = shm_segments() - self.shm_before
        seg.check(code == 0 and not leaked,
                  f"service child exit {code}, leaked shm {sorted(leaked)}")
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Load:
    """Root lists for the closed-loop clients, all drawn from the seed."""

    def __init__(self, name: str, p: dict, seed: int) -> None:
        from repro.graph.kronecker import KroneckerGenerator
        from repro.graph500.roots import sample_roots

        self.hot = name == "svc_hot"
        self.block = p["block"]
        self.edges = KroneckerGenerator(p["scale"], 16, seed=seed).generate()
        rng = np.random.default_rng(seed)
        roots = sample_roots(self.edges, 1 << p["scale"], seed=seed)
        self.roots = rng.permutation(roots)
        self.rng = rng
        weights = 1.0 / np.arange(1, HOT_ROOTS + 1)
        self.zipf = weights / weights.sum()
        self.cursor = 0

    def take(self, n: int) -> list[int]:
        """The next ``n`` never-used roots."""
        out = self.roots[self.cursor:self.cursor + n]
        self.cursor += n
        if len(out) < n:
            raise RuntimeError("graph has too few roots for an all-distinct block")
        return out.tolist()

    def warm(self) -> list[list[int]]:
        if self.hot:
            self.hot_roots = self.take(HOT_ROOTS)
            half = HOT_ROOTS // CLIENTS
            return [self.hot_roots[i * half:(i + 1) * half] for i in range(CLIENTS)]
        return [self.take(WARM_QUERIES) for _ in range(CLIENTS)]

    def next_block(self) -> list[list[int]]:
        if self.hot:
            hot = np.array(self.hot_roots)
            return [hot[self.rng.choice(HOT_ROOTS, self.block, p=self.zipf)].tolist()
                    for _ in range(CLIENTS)]
        return [self.take(self.block) for _ in range(CLIENTS)]


def run_block(port: int, root_lists, keep: dict | None = None, tracer=None):
    """Each client sends its roots one after another, waiting for every
    reply. Returns ``(wall seconds, replies)`` with one
    ``(latency, ok, cached, root, sim_seconds, traversed_edges)`` per query."""
    from repro.errors import ReproError
    from repro.service import ServiceClient

    replies: list[list[tuple]] = [[] for _ in root_lists]

    def client(idx: int) -> None:
        out = replies[idx]
        with ServiceClient(port=port, timeout=60.0) as conn:
            for root in root_lists[idx]:
                token = tracer.begin(QUERY_SPAN) if tracer else None
                t0 = perf_counter()
                try:
                    res = conn.query("g", "bfs", {"root": root}, tenant=f"client{idx}")
                except (ReproError, OSError) as exc:
                    out.append((perf_counter() - t0, False, False, root, 0.0, 0))
                    print(f"query failed: {exc}", file=sys.stderr)
                    if tracer:
                        tracer.end(token)
                    continue
                out.append((perf_counter() - t0, res.ok, res.cached, root,
                            res.payload.get("sim_seconds", 0.0),
                            res.payload.get("traversed_edges", 0)))
                if tracer:
                    tracer.end(token)
                if keep is not None and root in keep and keep[root] is None:
                    keep[root] = res.payload

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(root_lists))]
    start = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return perf_counter() - start, [r for per in replies for r in per]


def svc_unit(port: int, load: Load, seg: Segment, keep: dict, tracer=None) -> float:
    """One block. ``keep`` starts empty with every server, so an empty
    ``keep`` marks the server's first block."""
    root_lists = load.next_block()
    first = not keep
    if first:
        # Replies to re-derive afterwards: the most popular hot roots, or
        # the head of each cold client's list.
        sample = load.hot_roots if load.hot else [
            r for pair in zip(*root_lists) for r in pair]
        keep.update(dict.fromkeys(sample[:VERIFY_ROOTS]))
    wall, replies = run_block(port, root_lists, keep, tracer)
    ok = [r for r in replies if r[1]]
    seg.check(len(ok) == len(replies), "svc: non-ok reply", count=len(replies))
    seg.check(all(r[2] == load.hot for r in ok),
              "svc: reply's cached flag does not match the workload")
    seg.unit(wall, len(ok), [r[0] for r in replies])
    if first:
        # Simulated cost of the answers served, each distinct answer once:
        # fixed by the seed, so it repeats (to SVC_SIM_TOL) on every run.
        distinct = {r[3]: r for r in ok}
        sim_s = sum(r[4] for r in distinct.values())
        edges = sum(r[5] for r in distinct.values())
        seg.sim = {"sim_gteps": edges / sim_s / 1e9, "sim_s": sim_s}
        seg.digest = sha(sorted((r[3], r[5]) for r in distinct.values()))
    return wall


def svc_verify(p: dict, load: Load, keep: dict, seg: Segment) -> None:
    """Sampled payloads must be bit-identical to a direct kernel run."""
    from repro.baselines import make_variant
    from repro.graph.csr import CSRGraph
    from repro.graph500.timing import traversed_edges

    kernel = make_variant("relay-cpe", load.edges, p["nodes"],
                          graph=CSRGraph.from_edges(load.edges))
    for root, payload in keep.items():
        if payload is None:
            seg.check(False, f"svc: no reply kept for sampled root {root}")
            continue
        direct = kernel.run(root)
        seg.check(
            np.array_equal(payload["parent"], direct.parent)
            and payload["parent"].dtype == direct.parent.dtype
            and payload["levels"] == direct.levels
            and math.isclose(payload["sim_seconds"], direct.sim_seconds, rel_tol=SVC_SIM_TOL)
            and payload["traversed_edges"] == traversed_edges(load.edges, direct.depths()),
            f"svc: payload for root {root} differs from a direct kernel run",
        )


def svc_start(name: str, p: dict, seed: int, seg: Segment, spans_out=None):
    load = Load(name, p, seed)
    server = Server(p, seed, spans_out)
    try:
        _, replies = run_block(server.port, load.warm())
    except BaseException:
        server.proc.kill()
        server.proc.wait()
        raise
    seg.check(all(r[1] for r in replies), "svc: warm-up query failed", count=len(replies))
    return load, server, {}


# ------------------------------------------------------------- the child ----
def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="parent's perf_counter() when it started this child")
    args = ap.parse_args()
    spawned = args.spawned_at if args.spawned_at is not None else perf_counter()
    p = SIZES[args.workload][1 if args.smoke else 0]
    if args.trace:
        from ledger import traced

        doc = traced.run(args.workload, p, args.seed, args.budget, args.smoke)
    else:
        doc = timed(args.workload, p, args.seed, args.budget, spawned)
    print(json.dumps(doc))
    return 0


def timed(name: str, p: dict, seed: int, budget: float, spawned: float) -> dict:
    seg = Segment()
    rss = None
    if name.startswith("g500"):
        with KernelTap() as tap:
            warm = Segment()
            g500_unit(p, seed, tap, warm)  # warm-up: lazy imports, allocator
            setup_s = perf_counter() - spawned
            units = timed_loop(budget, lambda: g500_unit(p, seed, tap, seg))
        seg.same(warm.digest, warm.sim, "g500 warm-up")
    elif name == "algo_mix":
        built = algo_setup(p, seed)
        warm = Segment()
        algo_unit(p, built, warm)
        setup_s = perf_counter() - spawned
        units = timed_loop(budget, lambda: algo_unit(p, built, seg))
        seg.same(warm.digest, warm.sim, "algo_mix warm-up")
    else:
        load, server, keep = svc_start(name, p, seed, seg)
        try:
            setup_s = perf_counter() - spawned
            units = timed_loop(budget, lambda: svc_unit(server.port, load, seg, keep))
        finally:
            rss = server.stop(seg)
        svc_verify(p, load, keep, seg)
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name, "seed": seed, "units": units,
        "attempted": seg.attempted, "failed": seg.failed, "failures": seg.failures,
        "setup_s": setup_s, "peak_rss_mb": rss, "samples": seg.samples,
        "latency_samples": seg.latency_samples,
        "sim": seg.sim, "digest": seg.digest,
        "sim_rel_tol": SVC_SIM_TOL if name.startswith("svc") else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())

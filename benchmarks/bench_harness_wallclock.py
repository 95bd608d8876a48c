"""Harness wall-clock benchmark: where the *real* seconds go.

Unlike the other benchmarks (which report simulated seconds from the
machine model), this one times the Python harness itself — the
generate/construct/kernel/validate phases of a Graph500 run — and writes
the numbers to ``BENCH_harness.json`` at the repo root. That file is the
perf trajectory: each entry records phase wall-clock at fixed
(scale, nodes, roots) points so later changes can be checked against it.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_harness_wallclock.py \
        --scale 13 --scale 15 --nodes 16 --roots 8

or let pytest exercise the tiny smoke configuration. ``--max-regression``
turns the run into a gate: if a (scale, nodes, roots, workers) point in
the existing JSON got slower by more than the given fraction, exit 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_harness.json"


def time_phases(
    scale: int,
    nodes: int,
    roots: int,
    workers: int = 1,
    seed: int = 1,
) -> dict:
    """One benchmark run, phase by phase; wall-clock seconds per phase."""
    from repro.baselines import make_variant
    from repro.graph.csr import CSRGraph
    from repro.graph.kronecker import KroneckerGenerator
    from repro.graph500.roots import sample_roots
    from repro.graph500.timing import traversed_edges
    from repro.graph500.validate import validate_bfs_result

    phases: dict[str, float] = {}
    t0 = time.perf_counter()
    edges = KroneckerGenerator(scale, 16, seed=seed).generate()
    phases["generate"] = time.perf_counter() - t0

    root_list = [int(r) for r in sample_roots(edges, roots, seed=seed)]

    t0 = time.perf_counter()
    graph = CSRGraph.from_edges(edges)
    bfs = make_variant("relay-cpe", edges, nodes, graph=graph)
    phases["construct"] = time.perf_counter() - t0

    kernel = validate = 0.0
    total_edges = 0
    total_sim_seconds = 0.0
    events_executed = None
    messages_per_sec = None
    if workers > 1:
        from repro.graph500.runner import Graph500Runner

        runner = Graph500Runner(scale, nodes, seed=seed)
        t0 = time.perf_counter()
        outcomes = list(
            runner.root_outcomes(bfs, graph, edges, root_list, workers=workers)
        )
        kernel = time.perf_counter() - t0  # kernel+validate fused in workers
        for o in outcomes:
            run = o.run
            assert run.validated, f"root {run.root} failed validation: {run.failure}"
            total_edges += run.traversed_edges
            total_sim_seconds += run.seconds
    else:
        # In-process runs expose the engine and stats: record how many
        # simulator events and messages the kernel phase chewed through
        # (the fork-based workers path can't surface these counters).
        events_before = bfs.engine.events_executed
        messages_before = bfs.cluster.stats.value("messages")
        for root in root_list:
            t0 = time.perf_counter()
            result = bfs.run(root)
            kernel += time.perf_counter() - t0
            t0 = time.perf_counter()
            validate_bfs_result(graph, edges, root, result.parent)
            validate += time.perf_counter() - t0
            total_edges += traversed_edges(edges, result.depths())
            total_sim_seconds += result.sim_seconds
        events_executed = bfs.engine.events_executed - events_before
        messages = bfs.cluster.stats.value("messages") - messages_before
        messages_per_sec = messages / kernel if kernel > 0 else 0.0
    phases["kernel"] = kernel
    phases["validate"] = validate
    phases["total"] = sum(phases.values())
    return {
        "scale": scale,
        "nodes": nodes,
        "roots": roots,
        "workers": workers,
        "phases": {k: round(v, 4) for k, v in phases.items()},
        "events_executed": events_executed,
        "messages_per_sec": (
            round(messages_per_sec, 1) if messages_per_sec is not None else None
        ),
        "mean_teps": (
            total_edges / total_sim_seconds if total_sim_seconds else 0.0
        ),
    }


def _point_key(entry: dict) -> tuple:
    return (
        entry.get("mode", "phases"),
        entry["scale"],
        entry["nodes"],
        entry["roots"],
        entry["workers"],
    )


def check_regressions(
    previous: dict, results: list[dict], max_regression: float
) -> list[str]:
    """Compare ``results`` against a previous file's matching points."""
    old = {_point_key(e): e for e in previous.get("results", [])}
    complaints = []
    for entry in results:
        prior = old.get(_point_key(entry))
        if prior is None:
            continue
        before = prior["phases"]["total"]
        after = entry["phases"]["total"]
        if before > 0 and after > before * (1.0 + max_regression):
            complaints.append(
                f"scale {entry['scale']}/nodes {entry['nodes']}: total "
                f"{after:.3f}s vs {before:.3f}s "
                f"(+{100 * (after / before - 1):.0f}%)"
            )
    return complaints


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, action="append",
                        help="repeatable; default: 13 and 15")
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--roots", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    parser.add_argument("--max-regression", type=float, default=None,
                        help="fail if a matching point's total slowed by more "
                             "than this fraction vs the existing JSON")
    args = parser.parse_args(argv)
    scales = args.scale or [13, 15]

    out_path = pathlib.Path(args.output)
    previous = None
    if out_path.exists():
        try:
            previous = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            previous = None

    results = []
    for scale in scales:
        entry = time_phases(
            scale, args.nodes, args.roots, workers=args.workers,
            seed=args.seed,
        )
        results.append(entry)
        phases = " ".join(f"{k}={v:.3f}s" for k, v in entry["phases"].items())
        extra = ""
        if entry["events_executed"] is not None:
            extra = (f" events={entry['events_executed']}"
                     f" msg/s={entry['messages_per_sec']:.0f}")
        print(f"scale {scale} nodes {args.nodes} roots {args.roots} "
              f"workers {args.workers}: {phases}{extra}")

    # A run only re-measures its own points; carry forward the latest row
    # for every other point so results stays the union of freshest rows
    # (a phase run must not evict the service rows, or vice versa).
    if previous is not None:
        measured = {_point_key(e) for e in results}
        results = [
            e for e in previous.get("results", [])
            if _point_key(e) not in measured
        ] + results

    payload = {
        "benchmark": "harness_wallclock",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": __import__("os").cpu_count(),
        },
        "results": results,
    }
    # Carry forward the recorded history (baseline + prior runs) so the
    # trajectory accumulates instead of resetting every invocation.
    if previous is not None and "baseline" in previous:
        payload["baseline"] = previous["baseline"]
    if previous is not None:
        history = previous.get("history", [])
        if previous.get("results"):
            history.append(
                {"timestamp": previous.get("timestamp"),
                 "results": previous["results"]}
            )
        if history:
            payload["history"] = history[-20:]

    complaints = []
    if args.max_regression is not None and previous is not None:
        complaints = check_regressions(previous, results, args.max_regression)
        for line in complaints:
            print(f"REGRESSION: {line}", file=sys.stderr)

    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 1 if complaints else 0


def test_harness_wallclock_smoke(save_report):
    """Pytest smoke: a tiny configuration runs and reports sane phases."""
    entry = time_phases(scale=8, nodes=4, roots=2)
    assert set(entry["phases"]) == {
        "generate", "construct", "kernel", "validate", "total",
    }
    assert entry["phases"]["total"] > 0
    assert entry["mean_teps"] > 0
    assert entry["events_executed"] > 0
    assert entry["messages_per_sec"] > 0
    save_report(
        "harness_wallclock_smoke",
        json.dumps(entry, indent=2),
    )


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``graph500`` — run the benchmark on the functional simulator;
- ``fig11`` / ``fig12`` / ``table2`` — regenerate the evaluation series
  from the calibrated model;
- ``specs`` — print Table 1;
- ``generate`` — write a Kronecker edge list to disk;
- ``lint`` — determinism, lock-order and effect checks over the
  sources (CI gate);
- ``prove-mesh`` — statically prove a shuffle schedule conflict- and
  deadlock-free;
- ``sanitize`` — double-run determinism check (digest diff);
- ``chaos`` — seeded chaos campaign over the erasure-coded checkpoint
  store, asserting bit-identical recovery against the fault-free run;
- ``serve`` / ``query`` — the long-lived multi-tenant graph query
  service and its client (see docs/service.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.tables import Table


def _parse_rank_value(specs, flag: str, default: float, cast=float):
    """Parse repeatable ``RANK[:VALUE]`` flags into a ``{rank: value}`` map."""
    from repro.errors import ConfigError

    out = {}
    for spec in specs or []:
        rank, _, value = spec.partition(":")
        try:
            out[int(rank)] = cast(value) if value else default
        except ValueError:
            raise ConfigError(
                f"bad {flag} {spec!r}: expected RANK[:VALUE]"
            ) from None
    return out


def _build_resilience(args: argparse.Namespace):
    """Fault/resilience knobs ->
    (resilience, fault_plan, node_faults, disk_faults)."""
    from repro.resilience.config import ResilienceConfig
    from repro.sim.faults import DiskFaultPlan, NodeFaultPlan, RandomFaultPlan

    resilience = None
    if args.reliable or args.checkpoint_interval > 0:
        resilience = ResilienceConfig(
            reliable_transport=args.reliable,
            ack_timeout=args.ack_timeout,
            max_retries=args.max_retries,
            seed=args.fault_seed,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_mode=args.checkpoint_mode,
            rs_data_shards=args.rs_k,
            rs_parity_shards=args.rs_m,
            scrub_interval=args.scrub_interval,
        )
    fault_plan = RandomFaultPlan(
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        delay_seconds=args.delay_seconds,
        corrupt_rate=args.corrupt_rate,
        seed=args.fault_seed,
    )
    if not fault_plan.any_faults:
        fault_plan = None
    node_faults = None
    crash_at = (
        {args.crash_node: args.crash_at} if args.crash_node is not None else {}
    )
    stragglers = _parse_rank_value(args.straggler, "--straggler", 2.0)
    if crash_at or stragglers:
        node_faults = NodeFaultPlan(crash_at=crash_at, stragglers=stragglers)
    disk_faults = None
    disk_plan = DiskFaultPlan(
        lose_at=_parse_rank_value(args.disk_lose, "--disk-lose", 1e-4),
        corrupt_at=_parse_rank_value(args.disk_corrupt, "--disk-corrupt", 1e-4),
        degrade=_parse_rank_value(args.disk_degrade, "--disk-degrade", 2.0),
    )
    if disk_plan.any_faults:
        disk_faults = disk_plan
    return resilience, fault_plan, node_faults, disk_faults


def _cmd_graph500(args: argparse.Namespace) -> int:
    from repro.graph500.runner import Graph500Runner

    resilience, fault_plan, node_faults, disk_faults = _build_resilience(args)
    runner = Graph500Runner(
        scale=args.scale,
        nodes=args.nodes,
        seed=args.seed,
        variant=args.variant,
        nodes_per_super_node=args.super_node,
        resilience=resilience,
        fault_plan=fault_plan,
        node_faults=node_faults,
        disk_faults=disk_faults,
        on_root_failure=args.on_root_failure,
        workers=args.workers,
        sanitize=args.sanitize,
    )
    report = runner.run(num_roots=args.roots)
    print(report.summary())
    if args.per_root:
        print()
        print(report.per_root_table())
    if report.extra:
        print()
        print("resilience/fault counters:")
        for key, value in sorted(report.extra.items()):
            print(f"  {key}: {value:,.0f}")
    return 0 if report.all_validated else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profiled benchmark run: spans + metrics + critical-path report."""
    import json
    import pathlib

    from repro.graph500.runner import Graph500Runner
    from repro.telemetry import Telemetry
    from repro.telemetry.export import summary_csv, summary_markdown
    from repro.telemetry.profile import build_run_report

    tel = Telemetry()
    runner = Graph500Runner(
        scale=args.scale,
        nodes=args.nodes,
        seed=args.seed,
        variant=args.variant,
        validate=not args.no_validate,
        workers=1,  # full kernel instrumentation needs the sequential path
        telemetry=tel,
    )
    report = runner.run(num_roots=args.roots)
    run_doc = build_run_report(tel, json.loads(report.to_json()))

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.json").write_text(tel.chrome_trace())
    (out_dir / "run_report.json").write_text(json.dumps(run_doc, indent=2))
    (out_dir / "summary.csv").write_text(summary_csv(run_doc))
    (out_dir / "summary.md").write_text(summary_markdown(run_doc))

    print(report.summary())
    print()
    critical = tel.critical_path()
    print(critical.level_table())
    print()
    print(critical.resource_table())
    check = run_doc["attribution_check"]
    print()
    print(
        f"attribution check: worst error "
        f"{100 * check['worst_relative_error']:.4f}% of sim_seconds "
        f"(within 1%: {check['within_1pct']})"
    )
    for name in ("trace.json", "run_report.json", "summary.csv", "summary.md"):
        print(f"wrote {out_dir / name}")
    return 0 if check["within_1pct"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos campaign: randomized faults vs the fault-free oracle."""
    import pathlib

    from repro.durability import ChaosConfig, run_campaign
    from repro.telemetry import Telemetry

    cfg = ChaosConfig(
        scale=args.scale,
        nodes=args.nodes,
        scenarios=args.scenarios,
        seed=args.seed,
        variant=args.variant,
        nodes_per_super_node=args.super_node,
        data_shards=args.rs_k,
        parity_shards=args.rs_m,
        max_losses=args.max_losses,
        checkpoint_interval=args.checkpoint_interval,
        scrub_interval=args.scrub_interval,
    )
    tel = Telemetry()
    report = run_campaign(cfg, telemetry=tel)
    print(report.render())
    if args.out:
        pathlib.Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static per-file checks (REP100-REP109), CI-gateable."""
    import pathlib

    from repro.sanitizers import RULES, lint_paths

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id} [{rule.scope}] {rule.name}: {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        # Default to the installed package sources.
        paths = [str(pathlib.Path(__file__).resolve().parent)]
    report = lint_paths(paths, scope=args.scope)
    if args.format == "json":
        rendered = report.to_json()
    elif args.format == "sarif":
        rendered = report.to_sarif()
    else:
        rendered = report.render_text()
    if args.output:
        pathlib.Path(args.output).write_text(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0 if report.ok else 1


def _cmd_prove_mesh(args: argparse.Namespace) -> int:
    """Statically prove the shuffle schedule for a role layout."""
    from repro.core.config import BFSConfig, RoleLayout
    from repro.core.shuffle import ShufflePlan
    from repro.sanitizers import prove_plan

    roles = RoleLayout(
        producer_cols=args.producer_cols,
        router_cols=args.router_cols,
        consumer_cols=args.consumer_cols,
    )
    config = BFSConfig(roles=roles)
    plan = ShufflePlan.from_config(config, args.destinations)
    report = prove_plan(plan)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Double-run determinism check: report/span/metric digest diff."""
    from repro.sanitizers import check_determinism

    result = check_determinism(
        scale=args.scale,
        nodes=args.nodes,
        num_roots=args.roots,
        seed=args.seed,
        variant=args.variant,
        workers=args.workers,
        runs=args.runs,
        validate=not args.no_validate,
    )
    print(result.render())
    return 0 if result.ok else 1


def _cmd_fig11(args: argparse.Namespace) -> int:
    from repro.perf.scaling import FIG11_NODE_COUNTS, FIG11_VARIANTS, ScalingModel

    model = ScalingModel()
    series = model.fig11_all()
    t = Table(["nodes", *FIG11_VARIANTS], title="Figure 11: GTEPS at 16M vertices/node")
    for i, n in enumerate(FIG11_NODE_COUNTS):
        row = [n]
        for v in FIG11_VARIANTS:
            p = series[v][i]
            row.append(f"CRASH:{p.crashed}" if p.crashed else f"{p.gteps:,.0f}")
        t.add_row(row)
    print(t.render())
    return 0


def _cmd_fig12(args: argparse.Namespace) -> int:
    from repro.perf.scaling import (
        FIG12_NODE_COUNTS,
        FIG12_VERTICES_PER_NODE,
        ScalingModel,
    )
    from repro.utils.units import fmt_count

    model = ScalingModel()
    t = Table(
        ["nodes", *(fmt_count(v) + " vpn" for v in FIG12_VERTICES_PER_NODE)],
        title="Figure 12: weak scaling (Relay CPE), GTEPS",
    )
    series = {v: model.fig12_series(v) for v in FIG12_VERTICES_PER_NODE}
    for i, n in enumerate(FIG12_NODE_COUNTS):
        t.add_row([n, *(f"{series[v][i].gteps:,.0f}" for v in FIG12_VERTICES_PER_NODE)])
    print(t.render())
    h = model.headline()
    print(f"\nheadline (scale 40, 40,768 nodes): {h.gteps:,.1f} GTEPS "
          "(paper: 23,755.7)")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.perf.scaling import ScalingModel

    t = Table(["Authors", "Year", "Scale", "GTEPS", "Architecture"],
              title="Table 2 (GTEPS: ours in the Present Work row)")
    for row, measured in ScalingModel().table2_rows():
        shown = f"{measured:,.1f}" if measured is not None else f"{row.gteps:,.1f}"
        t.add_row([row.authors, row.year, row.scale, shown, row.architecture])
    print(t.render())
    return 0


def _cmd_strong(args: argparse.Namespace) -> int:
    from repro.perf.scaling import ScalingModel

    model = ScalingModel()
    points = model.strong_scaling(scale=args.scale, variant=args.variant)
    t = Table(
        ["nodes", "vertices/node", "GTEPS", "per-root seconds"],
        title=f"Strong scaling (extension): fixed scale {args.scale}, {args.variant}",
    )
    for p in points:
        t.add_row(
            [p.nodes, f"{p.vertices_per_node:,.0f}", f"{p.gteps:,.0f}",
             f"{p.total_seconds:.4f}"]
        )
    print(t.render())
    return 0


def _cmd_fullbench(args: argparse.Namespace) -> int:
    from repro.perf.scaling import HEADLINE_VERTICES_PER_NODE, ScalingModel

    model = ScalingModel()
    times = model.full_benchmark_time(
        nodes=args.nodes,
        vertices_per_node=HEADLINE_VERTICES_PER_NODE * 40_768 / args.nodes,
        num_roots=args.roots,
    )
    t = Table(["step", "seconds"], title="Whole-benchmark time estimate")
    for step in ("generate", "construct", "kernel", "validate", "total"):
        t.add_row([step, f"{times[step]:.1f}"])
    print(t.render())
    return 0


def _cmd_specs(args: argparse.Namespace) -> int:
    from repro.machine.specs import spec_table_rows

    t = Table(["Item", "Specifications"], title="Table 1: Sunway TaihuLight")
    for item, spec in spec_table_rows():
        t.add_row([item, spec])
    print(t.render())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every modelled renderer, teeing each into ``--out``."""
    import contextlib
    import io
    import pathlib

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = {
        "table1_specs": (_cmd_specs, argparse.Namespace()),
        "fig11": (_cmd_fig11, argparse.Namespace()),
        "fig12": (_cmd_fig12, argparse.Namespace()),
        "table2": (_cmd_table2, argparse.Namespace()),
        "strong_scaling": (_cmd_strong, argparse.Namespace(scale=36, variant="relay-cpe")),
        "full_benchmark": (_cmd_fullbench, argparse.Namespace(nodes=40_768, roots=64)),
    }
    for name, (fn, ns) in jobs.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            fn(ns)
        path = out_dir / f"{name}.txt"
        path.write_text(buffer.getvalue())
        print(f"wrote {path}")
    print(
        "note: functional benchmarks (micro-benches, ablations) live in "
        "`pytest benchmarks/ --benchmark-only`, archived under "
        "benchmarks/results/"
    )
    return 0


def _cmd_sssp(args: argparse.Namespace) -> int:
    from repro.graph500.sssp import SSSPRunner

    report = SSSPRunner(
        scale=args.scale,
        nodes=args.nodes,
        algorithm=args.algorithm,
        nodes_per_super_node=args.super_node,
    ).run(num_roots=args.roots)
    print(report.summary())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.io import save_edgelist
    from repro.graph.kronecker import KroneckerGenerator
    from repro.graph.stats import degree_stats

    gen = KroneckerGenerator(scale=args.scale, seed=args.seed)
    edges = gen.generate()
    path = save_edgelist(args.output, edges)
    stats = degree_stats(edges)
    print(f"wrote {path}: {gen.describe()}")
    print(f"max degree {stats.max_degree}, top-1% share "
          f"{100 * stats.top1pct_share:.1f}%, gini {stats.gini:.2f}")
    return 0


def _parse_graph_spec(spec: str):
    """``NAME:SCALE[:NODES[:SEED]]`` → (name, GraphSpec)."""
    from repro.errors import ConfigError
    from repro.service import GraphSpec

    parts = spec.split(":")
    if not 2 <= len(parts) <= 4 or not parts[0]:
        raise ConfigError(
            f"bad graph spec {spec!r}: expected NAME:SCALE[:NODES[:SEED]]"
        )
    try:
        scale = int(parts[1])
        nodes = int(parts[2]) if len(parts) > 2 else 8
        seed = int(parts[3]) if len(parts) > 3 else 1
    except ValueError:
        raise ConfigError(f"bad graph spec {spec!r}: non-integer field") from None
    return parts[0], GraphSpec(scale=scale, nodes=nodes, seed=seed)


def _parse_tenant_spec(spec: str):
    """``NAME:RATE[:BURST[:WEIGHT]]`` → (name, TenantConfig); RATE may be
    ``-`` for unlimited."""
    from repro.errors import ConfigError
    from repro.service import TenantConfig

    parts = spec.split(":")
    if not 2 <= len(parts) <= 4 or not parts[0]:
        raise ConfigError(
            f"bad tenant spec {spec!r}: expected NAME:RATE[:BURST[:WEIGHT]]"
        )
    try:
        rate = None if parts[1] in ("-", "") else float(parts[1])
        burst = float(parts[2]) if len(parts) > 2 else 64.0
        weight = float(parts[3]) if len(parts) > 3 else 1.0
    except ValueError:
        raise ConfigError(f"bad tenant spec {spec!r}: non-numeric field") from None
    return parts[0], TenantConfig(rate=rate, burst=burst, weight=weight)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import GraphService, ServiceConfig, ServiceServer

    service = GraphService(
        ServiceConfig(
            workers=args.workers,
            cache_capacity=args.cache_capacity,
            default_timeout=args.default_timeout,
            host_shared=not args.no_shm,
        )
    )
    for spec in args.preload or []:
        name, graph_spec = _parse_graph_spec(spec)
        entry = service.load_graph(name, graph_spec)
        print(
            f"loaded {name}: scale {graph_spec.scale}, "
            f"{entry.graph.num_vertices:,} vertices, "
            f"{int(entry.edges.num_edges):,} edges"
            + (" (shared memory)" if entry.shared is not None else "")
        )
    for spec in args.tenant or []:
        name, config = _parse_tenant_spec(spec)
        service.configure_tenant(name, config)

    async def _serve() -> None:
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {args.host}:{server.port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - non-asyncio interrupt
        pass
    service.close()
    if args.report:
        print(service.report())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.service import ServiceClient

    admin = args.ping or args.stats or args.report or args.load or args.evict
    if not admin and (not args.graph or not args.algo):
        raise ConfigError("query needs GRAPH and ALGO (or an admin flag)")
    with ServiceClient(host=args.host, port=args.port) as client:
        if args.ping:
            print(client.ping())
            return 0
        if args.stats:
            import json

            print(json.dumps(client.stats(), indent=2, default=str))
            return 0
        if args.report:
            print(client.report())
            return 0
        if args.load:
            name, spec = _parse_graph_spec(args.load)
            print(client.load(name, scale=spec.scale, seed=spec.seed,
                              nodes=spec.nodes))
            return 0
        if args.evict:
            print(client.evict(args.evict))
            return 0
        params = {}
        for kv in args.param or []:
            key, sep, value = kv.partition("=")
            if not sep:
                raise ConfigError(f"bad --param {kv!r}: expected KEY=VALUE")
            params[key] = value
        result = client.query(
            args.graph, args.algo, params, tenant=args.tenant,
            timeout=args.timeout, arrays=not args.no_arrays,
        )
    print(
        f"{result.status}: {result.algo} on {result.graph} "
        f"(tenant {result.tenant}, cached {result.cached})"
    )
    if result.error:
        print(f"error: {result.error}")
    scalars = {
        k: v for k, v in result.payload.items()
        if isinstance(v, (int, float, str))
    }
    for key in sorted(scalars):
        print(f"  {key}: {scalars[key]}")
    print(
        f"  latency {result.latency * 1e3:.3f} ms "
        f"(queue {result.queue_wait * 1e3:.3f}, "
        f"execute {result.execute_seconds * 1e3:.3f})"
    )
    return 0 if result.status == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sunway TaihuLight Graph500 BFS reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph500", help="run the benchmark on the simulator")
    p.add_argument("--scale", type=int, default=12)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--roots", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--variant", default="relay-cpe")
    p.add_argument("--super-node", type=int, default=None)
    p.add_argument("--per-root", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="fork-parallel root execution (1 = sequential; "
                        "fault/resilience configs always run sequentially)")
    fault = p.add_argument_group("fault injection (seeded, replayable)")
    fault.add_argument("--drop-rate", type=float, default=0.0,
                       help="probability a message is dropped on the wire")
    fault.add_argument("--duplicate-rate", type=float, default=0.0,
                       help="probability a message is delivered twice")
    fault.add_argument("--delay-rate", type=float, default=0.0,
                       help="probability a message is delayed")
    fault.add_argument("--delay-seconds", type=float, default=1e-5,
                       help="delay applied to delayed messages")
    fault.add_argument("--corrupt-rate", type=float, default=0.0,
                       help="probability a record payload is corrupted")
    fault.add_argument("--fault-seed", type=int, default=0,
                       help="seed for fault draws and transport jitter")
    fault.add_argument("--crash-node", type=int, default=None,
                       help="rank to fail-stop crash")
    fault.add_argument("--crash-at", type=float, default=1e-4,
                       help="simulated time of the --crash-node crash")
    fault.add_argument("--straggler", action="append", metavar="RANK[:FACTOR]",
                       help="slow a rank's traffic by FACTOR (default 2x); "
                            "repeatable")
    fault.add_argument("--disk-lose", action="append", metavar="RANK[:TIME]",
                       help="lose RANK's checkpoint disk at simulated TIME "
                            "(default 1e-4); repeatable")
    fault.add_argument("--disk-corrupt", action="append", metavar="RANK[:TIME]",
                       help="flip a byte of one checkpoint shard on RANK at "
                            "TIME (default 1e-4); repeatable")
    fault.add_argument("--disk-degrade", action="append",
                       metavar="RANK[:FACTOR]",
                       help="slow RANK's checkpoint I/O by FACTOR "
                            "(default 2x); repeatable")
    res = p.add_argument_group("resilience")
    res.add_argument("--reliable", action="store_true",
                     help="enable the ack/retransmit reliable transport")
    res.add_argument("--ack-timeout", type=float, default=2e-4)
    res.add_argument("--max-retries", type=int, default=5)
    res.add_argument("--checkpoint-interval", type=int, default=0,
                     help="checkpoint every K levels (0 = off)")
    res.add_argument("--checkpoint-mode", choices=["buddy", "rs"],
                     default="buddy",
                     help="buddy: one full copy (2x storage, survives 1 "
                          "loss); rs: erasure-coded shards ((k+m)/k "
                          "storage, survives m losses)")
    res.add_argument("--rs-k", type=int, default=4,
                     help="RS data shards per snapshot (rs mode)")
    res.add_argument("--rs-m", type=int, default=2,
                     help="RS parity shards = simultaneous-loss budget")
    res.add_argument("--scrub-interval", type=int, default=0,
                     help="scrub shard checksums every K levels (0 = off; "
                          "rs mode)")
    res.add_argument("--on-root-failure", choices=["abort", "skip"],
                     default="abort",
                     help="skip: record a failed root and keep benchmarking")
    p.add_argument("--sanitize", action="store_true",
                   help="enable runtime sanitizers: SPM write-conflict and "
                        "message-mutation detection (forces workers=1)")
    p.set_defaults(func=_cmd_graph500)

    p = sub.add_parser(
        "lint",
        help="determinism and lock-hygiene checks over python sources "
             "(rule ids REP100-REP109)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the installed "
                        "repro package)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text")
    p.add_argument("--output", default=None,
                   help="write findings to this file instead of stdout")
    p.add_argument("--scope", choices=["sim-core", "repro", "service"],
                   default=None,
                   help="force a rule scope instead of deriving it from "
                        "each file's package path")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "prove-mesh",
        help="prove a register-mesh shuffle schedule conflict/deadlock-free",
    )
    p.add_argument("--destinations", type=int, default=64)
    p.add_argument("--producer-cols", type=int, default=4)
    p.add_argument("--router-cols", type=int, default=2)
    p.add_argument("--consumer-cols", type=int, default=2)
    p.set_defaults(func=_cmd_prove_mesh)

    p = sub.add_parser(
        "sanitize",
        help="determinism sanitizer: run the benchmark N times, diff digests",
    )
    p.add_argument("--scale", type=int, default=13)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--roots", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--variant", default="relay-cpe")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser(
        "profile",
        help="profiled benchmark run: Chrome trace, run report, summaries",
    )
    p.add_argument("--scale", type=int, default=13)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--roots", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--variant", default="relay-cpe")
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("--out", default="profile",
                   help="directory for trace.json / run_report.json / "
                        "summary.csv / summary.md")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos campaign: randomized disk/node faults vs the "
             "fault-free oracle (RS durability acceptance harness)",
    )
    p.add_argument("--scale", type=int, default=13)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--scenarios", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--variant", default="relay-cpe")
    p.add_argument("--super-node", type=int, default=4)
    p.add_argument("--rs-k", type=int, default=4,
                   help="RS data shards per snapshot")
    p.add_argument("--rs-m", type=int, default=2,
                   help="RS parity shards = simultaneous-loss budget")
    p.add_argument("--max-losses", type=int, default=2,
                   help="max destructive faults per scenario (capped at m)")
    p.add_argument("--checkpoint-interval", type=int, default=1)
    p.add_argument("--scrub-interval", type=int, default=1)
    p.add_argument("--out", default=None,
                   help="write the campaign report JSON to this path")
    p.set_defaults(func=_cmd_chaos)

    sub.add_parser("fig11", help="modelled Figure 11 sweep").set_defaults(
        func=_cmd_fig11
    )
    sub.add_parser("fig12", help="modelled Figure 12 weak scaling").set_defaults(
        func=_cmd_fig12
    )
    sub.add_parser("table2", help="Table 2 comparison").set_defaults(func=_cmd_table2)
    sub.add_parser("specs", help="print Table 1").set_defaults(func=_cmd_specs)

    p = sub.add_parser("strong", help="modelled strong scaling (extension)")
    p.add_argument("--scale", type=int, default=36)
    p.add_argument("--variant", default="relay-cpe")
    p.set_defaults(func=_cmd_strong)

    p = sub.add_parser("fullbench", help="whole-benchmark time estimate")
    p.add_argument("--nodes", type=int, default=40_768)
    p.add_argument("--roots", type=int, default=64)
    p.set_defaults(func=_cmd_fullbench)

    p = sub.add_parser(
        "reproduce", help="regenerate all modelled tables/figures into a directory"
    )
    p.add_argument("--out", default="reproduction")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("sssp", help="Graph500-style SSSP kernel (extension)")
    p.add_argument("--scale", type=int, default=10)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--roots", type=int, default=4)
    p.add_argument("--algorithm", default="delta-stepping",
                   choices=["delta-stepping", "bellman-ford"])
    p.add_argument("--super-node", type=int, default=None)
    p.set_defaults(func=_cmd_sssp)

    p = sub.add_parser("generate", help="write a Kronecker edge list (.npz)")
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "serve", help="run the multi-tenant graph query service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed on startup)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--cache-capacity", type=int, default=1024,
                   help="hot-root result cache lines (0 disables)")
    p.add_argument("--default-timeout", type=float, default=None,
                   help="per-query deadline in seconds")
    p.add_argument("--preload", action="append", metavar="NAME:SCALE[:NODES[:SEED]]",
                   help="pre-build a catalog graph (repeatable)")
    p.add_argument("--tenant", action="append", metavar="NAME:RATE[:BURST[:WEIGHT]]",
                   help="tenant QoS config; RATE '-' = unlimited (repeatable)")
    p.add_argument("--no-shm", action="store_true",
                   help="skip shared-memory hosting of catalog CSRs")
    p.add_argument("--report", action="store_true",
                   help="print the per-tenant report on shutdown")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("query", help="query a running service")
    p.add_argument("graph", nargs="?", help="catalog graph name")
    p.add_argument("algo", nargs="?",
                   help="bfs | sssp | pagerank | kcore | wcc")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--tenant", default="default")
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="algorithm parameter (repeatable), e.g. root=3")
    p.add_argument("--no-arrays", action="store_true",
                   help="strip bulky payload arrays from the response")
    p.add_argument("--ping", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print machine-readable service stats")
    p.add_argument("--report", action="store_true",
                   help="print the server-rendered per-tenant report")
    p.add_argument("--load", metavar="NAME:SCALE[:NODES[:SEED]]",
                   help="load a graph into the catalog")
    p.add_argument("--evict", metavar="NAME",
                   help="evict a graph from the catalog")
    p.set_defaults(func=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

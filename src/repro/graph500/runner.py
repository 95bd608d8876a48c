"""End-to-end Graph500 benchmark runner over the simulated machine.

Steps (Section 2.3): generate -> sample roots -> construct -> run kernel per
root -> validate -> report. Wall-clock time is irrelevant here; *simulated*
seconds from the machine/network models produce the TEPS figures.

Construction is shared: the symmetrised deduplicated CSR is built once and
threaded through both the kernel (``make_variant``) and the validator, so
benchmark step (3) is paid a single time per run.

Multi-root execution: the spec's 64 roots are independent, so
``workers=N`` fans them across a fork-based process pool (see
:mod:`repro.graph500.parallel`); ``workers=1`` keeps the exact sequential
path. Configurations with fault injection or resilience transports always
run sequentially — their seeded RNG streams advance across roots, and only
the sequential order replays them.

Resilience hooks: a :class:`~repro.resilience.config.ResilienceConfig`
turns on the reliable transport and/or checkpointed recovery inside the
kernel; ``fault_plan`` / ``node_faults`` install seeded fault injectors on
the kernel's cluster (below the transport, so retransmissions are at risk
too); and ``on_root_failure="skip"`` records an unrecoverable root as a
failed :class:`~repro.graph500.report.RootRun` — with its failure reason —
instead of aborting the whole benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulatedCrash, ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.kronecker import KroneckerGenerator
from repro.graph500.report import BenchmarkReport, RootRun
from repro.graph500.roots import sample_roots
from repro.graph500.spec import Graph500Spec
from repro.graph500.timing import traversed_edges
from repro.graph500.validate import validate_bfs_result

#: Transport/fault counters surfaced into ``report.extra`` when non-zero.
_RESILIENCE_COUNTERS = (
    "rt_messages", "acks", "retransmits", "gave_up", "dup_suppressed",
    "corrupt_detected", "dead_letters", "node_crashes", "checkpoints",
    "recoveries", "fault_drops", "fault_duplicates", "fault_delays",
    "fault_reorders", "fault_corruptions", "checkpoint_bytes",
    "disk_losses", "disk_corruptions", "shards_rebuilt", "scrub_passes",
    "scrub_repairs",
)


class Graph500Runner:
    """Configure once, ``run()`` to get a :class:`BenchmarkReport`."""

    def __init__(
        self,
        scale: int,
        nodes: int,
        edge_factor: int = 16,
        seed: int = 1,
        variant: str = "relay-cpe",
        config=None,
        nodes_per_super_node: int | None = None,
        validate: bool | str = "sequential",
        resilience=None,
        fault_plan=None,
        node_faults=None,
        disk_faults=None,
        on_root_failure: str = "abort",
        workers: int = 1,
        telemetry=None,
        sanitize: bool = False,
    ):
        if nodes < 1:
            raise ConfigError(f"need at least one simulated node, got {nodes}")
        self.spec = Graph500Spec(scale=scale, edge_factor=edge_factor)
        self.nodes = nodes
        self.seed = seed
        self.variant = variant
        self.config = config
        self.nodes_per_super_node = nodes_per_super_node
        if validate is True:
            validate = "sequential"
        elif validate is False:
            validate = "none"
        if validate not in ("sequential", "distributed", "none"):
            raise ConfigError(
                f"validate must be sequential/distributed/none, got {validate!r}"
            )
        self.validate = validate
        self.resilience = resilience
        self.fault_plan = fault_plan
        self.node_faults = node_faults
        self.disk_faults = disk_faults
        if on_root_failure not in ("skip", "abort"):
            raise ConfigError(
                f"on_root_failure must be skip/abort, got {on_root_failure!r}"
            )
        self.on_root_failure = on_root_failure
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: Optional :class:`repro.telemetry.Telemetry`. Sequential runs get
        #: full kernel instrumentation (spans, labeled metrics, busy
        #: intervals); ``workers>1`` runs derive the run/root/level span
        #: skeleton from the merged outcomes (a forked child's in-process
        #: telemetry dies with the child).
        self.telemetry = telemetry
        #: Install the runtime sanitizers (:mod:`repro.sanitizers.runtime`)
        #: on the constructed kernel: SPM write-conflict and message-
        #: mutation detection. Forces sequential execution — the detectors
        #: accumulate state in-process.
        self.sanitize = sanitize

    # ------------------------------------------------------------- dispatch --
    def _effective_workers(self, num_roots: int) -> int:
        """How many worker processes this configuration may actually use."""
        if self.workers <= 1 or num_roots <= 1:
            return 1
        if (
            self.fault_plan is not None
            or self.node_faults is not None
            or self.disk_faults is not None
            or self.resilience is not None
        ):
            # Seeded fault/transport RNG streams advance across roots; only
            # the sequential order replays them faithfully.
            return 1
        if self.sanitize:
            # Sanitizer digests/claims accumulate in-process.
            return 1
        from repro.graph500.parallel import fork_available

        if not fork_available():  # pragma: no cover - platform dependent
            return 1
        return min(self.workers, num_roots)

    def run(
        self,
        num_roots: int = 64,
        *,
        edges=None,
        graph: CSRGraph | None = None,
        roots=None,
    ) -> BenchmarkReport:
        """Run the benchmark; prebuilt artifacts skip their pipeline step.

        ``edges`` / ``graph`` / ``roots`` let a long-lived caller (the
        service catalog pins exactly these three) hand the generated edge
        list, the symmetrised deduplicated CSR and the sampled roots
        straight through — no regeneration, no CSR re-derivation, no
        re-validation beyond the vertex-count check ``make_variant``'s
        kernel already does. A ``graph`` without its ``edges`` is refused:
        TEPS accounting and validation need the raw tuples.
        """
        if graph is not None and edges is None:
            raise ConfigError("a prebuilt graph needs its edge list too")
        # Step 1: generate the raw edge list.
        if edges is None:
            gen = KroneckerGenerator(
                self.spec.scale, self.spec.edge_factor, seed=self.seed
            )
            edges = gen.generate()

        # Step 2: sample non-trivial search roots.
        if roots is None:
            roots = sample_roots(edges, num_roots, seed=self.seed)

        # Step 3: construct the search structure *once* — the symmetrised
        # deduplicated CSR serves the validator and, threaded through
        # ``make_variant``, the distributed kernel. (``from_edges`` caches
        # on the edge list, so a caller that already built it pays nothing
        # even without passing ``graph=``.)
        if graph is None:
            graph = CSRGraph.from_edges(edges)
        workers = self._effective_workers(num_roots)
        shared = None
        if workers > 1:
            # Rehost the read-only CSR into one shared-memory segment so
            # worker processes map the edge arrays zero-copy instead of
            # duplicating them (and so sharing survives non-fork start
            # methods, unlike copy-on-write inheritance).
            from repro.graph.shm import SharedCSR, shared_memory_available

            if shared_memory_available():
                shared = SharedCSR.host(graph)
                graph = shared.graph
        # The finally (plus SharedCSR's own atexit unlink guard) covers
        # every exit path, including a worker crash propagating out of
        # the pool mid-root: the segment never outlives the run.
        try:
            return self._run_steps(edges, roots, graph, workers)
        finally:
            if shared is not None:
                shared.destroy()

    def _run_steps(self, edges, roots, graph, workers) -> BenchmarkReport:
        from repro.baselines import make_variant  # late: heavy import chain

        bfs = make_variant(
            self.variant,
            edges,
            self.nodes,
            config=self.config,
            nodes_per_super_node=self.nodes_per_super_node,
            resilience=self.resilience,
            graph=graph,
        )
        # Fault injectors wrap the cluster's raw send path, *below* the
        # reliable channel (which intercepts delivery and sends through
        # ``cluster.send`` dynamically): every retransmission re-rolls the
        # fault dice, exactly like a lossy wire.
        if self.fault_plan is not None:
            from repro.sim.faults import RandomFaultInjector

            RandomFaultInjector(bfs.cluster, self.fault_plan)
        if self.node_faults is not None:
            from repro.sim.faults import NodeFaultInjector

            NodeFaultInjector(bfs.cluster, self.node_faults)
        if self.disk_faults is not None:
            from repro.sim.faults import DiskFaultInjector

            DiskFaultInjector(bfs, self.disk_faults, seed=self.seed)
        if self.sanitize:
            from repro.sanitizers.runtime import (
                MessageSanitizer,
                SpmWriteSanitizer,
            )

            if getattr(bfs, "spm_sanitizer", None) is None:
                bfs.spm_sanitizer = SpmWriteSanitizer()
            if getattr(bfs, "message_sanitizer", None) is None:
                bfs.message_sanitizer = MessageSanitizer(bfs.cluster)

        report = BenchmarkReport(
            spec=self.spec,
            nodes=self.nodes,
            variant=self.variant,
            construction_seconds=bfs.construction_seconds,
        )
        validator = None
        if self.validate == "distributed":
            from repro.graph500.distributed_validate import DistributedValidator

            validator = DistributedValidator(
                edges,
                self.nodes,
                config=bfs.config,
                nodes_per_super_node=self.nodes_per_super_node,
            )

        tel = self.telemetry
        if tel is not None and not tel.enabled:
            tel = None
        run_span = -1
        if tel is not None:
            run_span = tel.spans.open(
                "run",
                "run",
                parent=tel.current,
                scale=self.spec.scale,
                nodes=self.nodes,
                variant=self.variant,
                workers=workers,
            )
            tel.push(run_span)
            if workers == 1:
                tel.attach_kernel(bfs)
        if workers > 1:
            self._run_parallel(report, bfs, graph, edges, roots, validator, workers)
        else:
            self._run_sequential(report, bfs, graph, edges, roots, validator)
        if tel is not None:
            closed_roots = [s for s in tel.spans.by_category("root") if s.closed]
            start = min((s.start for s in closed_roots), default=0.0)
            finish = max((s.finish for s in closed_roots), default=start)
            tel.spans.close(run_span, start, finish)
            tel.pop()
        return report

    # ----------------------------------------------------------- sequential --
    def _run_sequential(
        self, report, bfs, graph, edges, roots, validator
    ) -> None:
        """Steps 4-5, one root after another on the shared kernel."""
        for root in np.asarray(roots):
            try:
                result = bfs.run(int(root))
            except SimulatedCrash as crash:
                if self.on_root_failure == "abort":
                    raise
                report.runs.append(
                    RootRun(
                        root=int(root),
                        traversed_edges=0,
                        seconds=0.0,
                        levels=0,
                        validated=False,
                        failure=f"crash: {crash.reason}",
                    )
                )
                continue
            validated = True
            failure = None
            if self.validate == "sequential":
                try:
                    validate_bfs_result(graph, edges, int(root), result.parent)
                except ValidationError as exc:
                    validated = False
                    if self.on_root_failure == "abort":
                        raise
                    failure = f"validation: {exc}"
            elif validator is not None:
                vres = validator.validate(int(root), result.parent)
                report.extra["validation_seconds"] = (
                    report.extra.get("validation_seconds", 0.0) + vres.sim_seconds
                )
            edges_traversed = traversed_edges(edges, result.depths())
            report.runs.append(
                RootRun(
                    root=int(root),
                    traversed_edges=edges_traversed,
                    seconds=result.sim_seconds,
                    levels=result.levels,
                    validated=validated,
                    failure=failure,
                )
            )
        for key in _RESILIENCE_COUNTERS:
            value = bfs.cluster.stats.value(key)
            if value:
                report.extra[key] = value
        msg_san = getattr(bfs, "message_sanitizer", None)
        if msg_san is not None:
            report.extra["sanitizer_messages_checked"] = (
                msg_san.messages_checked
            )
            report.extra["sanitizer_mutations"] = len(msg_san.violations)
        spm_san = getattr(bfs, "spm_sanitizer", None)
        if spm_san is not None:
            report.extra["sanitizer_spm_phases"] = spm_san.phases_checked
            report.extra["sanitizer_spm_conflicts"] = len(spm_san.conflicts)

    # ------------------------------------------------------------- parallel --
    def _run_parallel(
        self, report, bfs, graph, edges, roots, validator, workers
    ) -> None:
        """Steps 4-5 fanned across forked workers, merged in root order."""
        from repro.graph500.parallel import run_roots_parallel

        construction_counters = {
            key: bfs.cluster.stats.value(key) for key in _RESILIENCE_COUNTERS
        }
        tel = self.telemetry
        if tel is not None and not tel.enabled:
            tel = None
        outcomes = run_roots_parallel(
            bfs,
            graph,
            edges,
            np.asarray(roots),
            self.validate,
            validator,
            workers,
            counter_keys=_RESILIENCE_COUNTERS,
            collect_traces=tel is not None,
        )
        if self.on_root_failure == "abort":
            for outcome in outcomes:
                if outcome.crash_reason is not None:
                    raise SimulatedCrash(
                        outcome.crash_reason, node=outcome.crash_node
                    )
                if outcome.validation_error is not None:
                    raise ValidationError(outcome.validation_error)
        totals = dict(construction_counters)
        validation_seconds = 0.0
        for outcome in outcomes:
            report.runs.append(
                RootRun(
                    root=outcome.root,
                    traversed_edges=outcome.traversed_edges,
                    seconds=outcome.seconds,
                    levels=outcome.levels,
                    validated=outcome.validated,
                    failure=outcome.failure,
                )
            )
            validation_seconds += outcome.validation_seconds
            for key, delta in outcome.counters.items():
                totals[key] = totals.get(key, 0) + delta
            if tel is not None and outcome.traces:
                # Rebuild the root/level span skeleton the kernel would have
                # recorded live (times are the child's simulated clock).
                t0 = outcome.traces[0][2]
                root_span = tel.spans.open(
                    f"root {outcome.root}", "root",
                    parent=tel.current, root=outcome.root,
                )
                for lvl, direction, start, finish in outcome.traces:
                    tel.spans.record(
                        f"level {lvl}", "level", start, finish,
                        parent=root_span, level=lvl, direction=direction,
                    )
                tel.spans.close(
                    root_span, t0, t0 + outcome.seconds,
                    sim_seconds=outcome.seconds, levels=outcome.levels,
                )
        if validator is not None:
            report.extra["validation_seconds"] = validation_seconds
        for key in _RESILIENCE_COUNTERS:
            if totals.get(key):
                report.extra[key] = totals[key]

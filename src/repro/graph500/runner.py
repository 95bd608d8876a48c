"""End-to-end Graph500 benchmark runner over the simulated machine.

Steps (Section 2.3): generate -> sample roots -> construct -> run kernel per
root -> validate -> report. Wall-clock time is irrelevant here; *simulated*
seconds from the machine/network models produce the TEPS figures.

Construction is shared: the symmetrised deduplicated CSR is built once and
threaded through both the kernel (``make_variant``) and the validator, so
benchmark step (3) is paid a single time per run.

One root path: steps 4-5 for a root (kernel, validation, TEPS accounting,
counter deltas) happen in :meth:`Graph500Runner.run_root` and nowhere else,
and :meth:`Graph500Runner.run` records every outcome the same way. The
spec's 64 roots are independent, so ``workers=N`` runs that function in N
forked children — the edge list, CSR and constructed kernel reach them
through copy-on-write fork memory, never through pickling — and only the
picklable :class:`RootOutcome` travels back. Roots are assigned statically
(round-robin by index) and merged in root order, so the report is a pure
function of (graph, roots, workers); parent maps, traversed-edge counts and
level counts equal the ``workers=1`` run's, and per-root simulated seconds
agree to float round-off (each span is measured against a clock advanced by
whichever roots ran earlier on the same kernel instance). Configurations
with fault injection, resilience transports or sanitizers always run
in-process: their seeded RNG streams and detector state advance across
roots, and only the sequential order replays them.

Resilience hooks: a :class:`~repro.resilience.config.ResilienceConfig`
turns on the reliable transport and/or checkpointed recovery inside the
kernel; ``fault_plan`` / ``node_faults`` install seeded fault injectors on
the kernel's cluster (below the transport, so retransmissions are at risk
too); and ``on_root_failure="skip"`` records an unrecoverable root as a
failed :class:`~repro.graph500.report.RootRun` — with its failure reason —
instead of aborting the whole benchmark.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field

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


def fork_available() -> bool:
    """Whether fork-based worker processes exist on this platform."""
    return "fork" in mp.get_all_start_methods()


@dataclass
class RootOutcome:
    """Steps 4-5 for one root; picklable so a forked worker can ship it."""

    run: RootRun
    #: The crash or validation error behind ``run.failure``; the runner
    #: re-raises it under ``on_root_failure="abort"``.
    error: Exception | None = None
    validation_seconds: float = 0.0
    #: Resilience counters this root moved, as deltas.
    counters: dict[str, float] = field(default_factory=dict)
    #: ``(level, direction, start, finish)`` per level, kept when a forked
    #: worker's telemetry skeleton is rebuilt in the parent.
    traces: list[tuple[int, str, float, float]] | None = None


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
        #: Optional :class:`repro.telemetry.Telemetry`. In-process runs get
        #: full kernel instrumentation (spans, labeled metrics, busy
        #: intervals); forked runs derive the run/root/level span skeleton
        #: from the outcomes (a child's in-process telemetry dies with it).
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
        from repro.baselines import make_variant  # late: heavy import chain

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

            bfs.spm_sanitizer = SpmWriteSanitizer()
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

        # Steps 4-5: every root through run_root, recorded in root order.
        totals = {key: bfs.cluster.stats.value(key) for key in _RESILIENCE_COUNTERS}
        validation_seconds = 0.0
        # A forked root's spans are rebuilt here from its level traces.
        traces = tel is not None and workers > 1
        for outcome in self.root_outcomes(
            bfs, graph, edges, roots, validator, workers, traces
        ):
            if outcome.error is not None and self.on_root_failure == "abort":
                raise outcome.error
            report.runs.append(outcome.run)
            validation_seconds += outcome.validation_seconds
            for key, delta in outcome.counters.items():
                totals[key] += delta
            if traces and outcome.traces:
                _replay_root_spans(tel, outcome.run, outcome.traces)
        if validator is not None:
            report.extra["validation_seconds"] = validation_seconds
        for key in _RESILIENCE_COUNTERS:
            if totals[key]:
                report.extra[key] = totals[key]
        msg_san = bfs.message_sanitizer
        if msg_san is not None:
            report.extra["sanitizer_messages_checked"] = (
                msg_san.messages_checked
            )
            report.extra["sanitizer_mutations"] = len(msg_san.violations)
        spm_san = bfs.spm_sanitizer
        if spm_san is not None:
            report.extra["sanitizer_spm_phases"] = spm_san.phases_checked
            report.extra["sanitizer_spm_conflicts"] = len(spm_san.conflicts)

        if tel is not None:
            closed_roots = [s for s in tel.spans.by_category("root") if s.closed]
            start = min((s.start for s in closed_roots), default=0.0)
            finish = max((s.finish for s in closed_roots), default=start)
            tel.spans.close(run_span, start, finish)
            tel.pop()
        return report

    # ----------------------------------------------------------- one root --
    def run_root(
        self, bfs, graph, edges, root: int, validator=None, traces: bool = False
    ) -> RootOutcome:
        """Steps 4-5 for one root: kernel, validation, TEPS accounting.

        The only place a root runs, in-process or in a forked worker. A
        simulated crash or a validation error is returned in the outcome,
        never raised: :meth:`run` decides between abort and skip.
        """
        stats = bfs.cluster.stats
        before = [stats.value(key) for key in _RESILIENCE_COUNTERS]
        try:
            result = bfs.run(root)
        except SimulatedCrash as crash:
            outcome = RootOutcome(
                RootRun(
                    root=root,
                    traversed_edges=0,
                    seconds=0.0,
                    levels=0,
                    validated=False,
                    failure=f"crash: {crash.reason}",
                ),
                error=crash,
            )
        else:
            error: ValidationError | None = None
            validation_seconds = 0.0
            if self.validate == "sequential":
                try:
                    validate_bfs_result(graph, edges, root, result.parent)
                except ValidationError as exc:
                    error = exc
            elif validator is not None:
                validation_seconds = validator.validate(
                    root, result.parent
                ).sim_seconds
            run = RootRun(
                root=root,
                traversed_edges=traversed_edges(edges, result.depths()),
                seconds=result.sim_seconds,
                levels=result.levels,
                validated=error is None,
                failure=None if error is None else f"validation: {error}",
            )
            outcome = RootOutcome(
                run, error=error, validation_seconds=validation_seconds
            )
            if traces:
                outcome.traces = [
                    (t.level, t.direction, t.start, t.finish)
                    for t in result.traces
                ]
        after = [stats.value(key) for key in _RESILIENCE_COUNTERS]
        outcome.counters = {
            key: a - b
            for key, a, b in zip(_RESILIENCE_COUNTERS, after, before)
            if a != b
        }
        return outcome

    def root_outcomes(
        self, bfs, graph, edges, roots, validator=None, workers: int = 1,
        traces: bool = False,
    ):
        """:meth:`run_root` over ``roots``, in root order.

        ``workers=1`` yields lazily in-process, so an abort stops at the
        failing root. ``workers=N`` forks N children after construction;
        worker ``w`` statically owns roots ``w, w+N, w+2N, ...`` and ships
        its outcomes back over a pipe. A child that dies without reporting
        raises :class:`RuntimeError` instead of hanging the parent.
        """
        roots = [int(r) for r in np.asarray(roots)]
        workers = min(workers, len(roots))
        if workers <= 1:
            for root in roots:
                yield self.run_root(bfs, graph, edges, root, validator, traces)
            return
        ctx = mp.get_context("fork")
        procs = []
        conns = []
        try:
            for w in range(workers):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=self._worker,
                    args=(send, bfs, graph, edges, roots[w::workers],
                          validator, traces),
                    daemon=True,
                )
                proc.start()
                # Only the child holds the write end now: its exit is EOF.
                send.close()
                procs.append(proc)
                conns.append(recv)
            chunks = []
            for proc, conn in zip(procs, conns):
                try:
                    status, payload = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(
                        f"root worker exited with code {proc.exitcode} "
                        "before reporting its outcomes"
                    ) from None
                if status == "error":
                    raise RuntimeError(f"root worker failed: {payload}")
                chunks.append(payload)
                proc.join()
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for conn in conns:
                conn.close()
        for i in range(len(roots)):
            yield chunks[i % workers][i // workers]

    def _worker(self, conn, bfs, graph, edges, chunk, validator, traces) -> None:
        """Forked child body: run an assigned chunk of roots, ship outcomes."""
        try:
            outcomes = [
                self.run_root(bfs, graph, edges, root, validator, traces)
                for root in chunk
            ]
            conn.send(("ok", outcomes))
        except Exception as exc:
            import traceback

            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
        finally:
            conn.close()


def _replay_root_spans(tel, run: RootRun, traces) -> None:
    """Rebuild the root/level span skeleton a forked root would have
    recorded live from its ``(level, direction, start, finish)`` traces
    (times are the child's simulated clock)."""
    t0 = traces[0][2]
    root_span = tel.spans.open(
        f"root {run.root}", "root", parent=tel.current, root=run.root,
    )
    for lvl, direction, start, finish in traces:
        tel.spans.record(
            f"level {lvl}", "level", start, finish,
            parent=root_span, level=lvl, direction=direction,
        )
    tel.spans.close(
        root_span, t0, t0 + run.seconds,
        sim_seconds=run.seconds, levels=run.levels,
    )

"""Opt-in runtime sanitizers for the simulated machine.

Three detectors, all off by default (they cost time and memory on the hot
path) and switched on per-run via ``Graph500Runner(sanitize=True)`` /
``repro graph500 --sanitize`` or the ``repro sanitize`` determinism
command:

- :class:`SpmWriteSanitizer` — the contention claim at runtime: consumer
  CPEs must DMA-write disjoint per-destination regions within one module
  execution (phase); two CPEs touching the same region means the shuffle
  plan's destination ownership is broken.
- :class:`MessageSanitizer` — payloads are passed by reference through
  :class:`~repro.network.simmpi.SimCluster`, so mutating a buffer after
  ``send`` silently corrupts an in-flight message. The sanitizer digests
  every payload at injection and re-digests at delivery. It also checks
  that no message arrives sooner than its link's propagation latency.
- :func:`check_determinism` — the end-to-end guarantee: run the same
  benchmark configuration twice and diff report, metric and span digests
  bit-for-bit.

Raises :class:`SanitizerViolation` (a :class:`~repro.errors.ReproError`)
on the first conflict unless constructed with ``raise_on_violation=False``,
in which case violations accumulate for inspection.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ReproError


class SanitizerViolation(ReproError, RuntimeError):
    """A runtime sanitizer detected a broken invariant."""


# --------------------------------------------------------------------------
# SPM / output-region write conflicts
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class RegionClaim:
    """One CPE's write claim on a byte region within a phase."""

    cpe: tuple[int, int] | str
    lo: int
    hi: int
    label: str = ""


@dataclass
class SpmConflict:
    phase: str
    first: RegionClaim
    second: RegionClaim

    def render(self) -> str:
        return (
            f"phase {self.phase!r}: CPE {self.second.cpe} writes "
            f"[{self.second.lo}, {self.second.hi}) overlapping CPE "
            f"{self.first.cpe}'s [{self.first.lo}, {self.first.hi})"
            + (f" ({self.first.label} / {self.second.label})"
               if self.first.label or self.second.label else "")
        )


class SpmWriteSanitizer:
    """Detects two CPEs claiming overlapping write regions in one phase.

    A *phase* is one module execution (one shuffle); claims reset when
    :meth:`begin_phase` opens the next one. Regions live in a single
    address space per phase — for the consumer-side check that space is
    the per-destination output region array, where disjointness is
    exactly the paper's "no contention, no atomics" claim.
    """

    def __init__(self, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        self.conflicts: list[SpmConflict] = []
        self.phases_checked = 0
        self.claims_checked = 0
        self._phase: str = ""
        self._claims: list[RegionClaim] = []

    def begin_phase(self, label: str) -> None:
        self._phase = label
        self._claims = []
        self.phases_checked += 1

    def claim(
        self,
        cpe: tuple[int, int] | str,
        lo: int,
        hi: int,
        label: str = "",
    ) -> None:
        """Record a write claim; flag overlap with a different CPE's claim."""
        if hi <= lo:
            raise SanitizerViolation(
                f"empty or negative region [{lo}, {hi}) claimed by {cpe}"
            )
        new = RegionClaim(cpe, lo, hi, label)
        self.claims_checked += 1
        for prior in self._claims:
            if prior.cpe != cpe and prior.lo < hi and lo < prior.hi:
                conflict = SpmConflict(self._phase, prior, new)
                self.conflicts.append(conflict)
                if self.raise_on_violation:
                    raise SanitizerViolation(
                        "SPM write conflict: " + conflict.render()
                    )
        self._claims.append(new)

    def check_bucket_writes(
        self, plan: Any, destinations: Iterable[int], phase: str
    ) -> None:
        """Verify one shuffle's consumer writes are contention-free.

        ``destinations`` are the bucket destination indices of one module
        execution; each maps through the plan to an owning consumer CPE
        and a staging-slot-sized output region. Disjoint regions per
        distinct destination *and* a single owner per region is the
        invariant; a broken ``consumer_for`` (two consumers claiming one
        destination, or one region shared by two destinations) trips it.
        """
        self.begin_phase(phase)
        width = plan.staging_buffer_bytes
        for d in dict.fromkeys(int(d) for d in destinations):
            slot = d % plan.num_destinations
            consumer = plan.consumer_for(slot)
            self.claim(
                consumer,
                slot * width,
                (slot + 1) * width,
                label=f"dest {d}",
            )


# --------------------------------------------------------------------------
# message-mutated-after-send detection
# --------------------------------------------------------------------------
def payload_digest(payload: Any) -> str:
    """Stable content digest of a message payload.

    Payloads are numpy arrays, tuples/lists of arrays, scalars, dicts or
    ``None``; anything else falls back to ``repr`` (payloads move by
    reference, so this only needs to be sensitive to mutation, not
    canonical across processes).
    """
    h = hashlib.sha256()

    def feed(obj: Any) -> None:
        if obj is None:
            h.update(b"none")
        elif isinstance(obj, np.ndarray):
            h.update(b"nd")
            h.update(str(obj.dtype).encode())
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (tuple, list)):
            h.update(b"seq")
            for item in obj:
                feed(item)
        elif isinstance(obj, dict):
            h.update(b"map")
            for key in sorted(obj, key=repr):
                h.update(repr(key).encode())
                feed(obj[key])
        elif isinstance(obj, (int, float, str, bytes, bool)):
            h.update(repr(obj).encode())
        else:
            h.update(repr(obj).encode())

    feed(payload)
    return h.hexdigest()


@dataclass
class MutationViolation:
    tag: str
    src: int
    dst: int
    send_time: float

    def render(self) -> str:
        return (
            f"message {self.tag!r} {self.src}->{self.dst} sent at "
            f"{self.send_time:.3e}s was mutated between send and delivery"
        )


@dataclass
class LatencyViolation:
    tag: str
    src: int
    dst: int
    slack: float
    latency: float

    def render(self) -> str:
        return (
            f"message {self.tag!r} {self.src}->{self.dst} arrived "
            f"{self.slack:.3e}s after send, below its link latency "
            f"{self.latency:.3e}s"
        )


class MessageSanitizer:
    """Digests payloads at send, re-checks at delivery.

    Every delivery is also checked against the link model: no message may
    arrive sooner after its ``send_time`` than the propagation latency
    between its endpoints.

    Installs by hooking the cluster's send core ``_post`` — the one place
    every ``send`` and ``send_batch`` ends, below any fault interceptor on
    ``send`` — and ``_deliver``, both as instance attributes. Batches stay
    batched, and a message a fault injector drops never reaches the core,
    so it is never digested. Digests are keyed by the message object
    itself (identity-hashed, kept alive until delivery), so a recycled
    ``id`` can never alias a stale entry. ``uninstall`` restores the
    original methods.
    """

    def __init__(self, cluster: Any, raise_on_violation: bool = True) -> None:
        self.cluster = cluster
        self.raise_on_violation = raise_on_violation
        self.violations: list[MutationViolation | LatencyViolation] = []
        self.messages_checked = 0
        self._digests: dict[Any, str] = {}  # in-flight message -> digest
        self._original_post = cluster._post
        self._original_deliver = cluster._deliver
        cluster._post = self._post
        cluster._deliver = self._deliver

    # -- interception -----------------------------------------------------------
    def _post(self, *args: Any) -> Any:
        msgs = self._original_post(*args)
        for msg in msgs:
            self._digests[msg] = payload_digest(msg.payload)
        return msgs

    def _deliver(self, msg: Any) -> None:
        expected = self._digests.pop(msg, None)
        if expected is not None:
            self.messages_checked += 1
            if payload_digest(msg.payload) != expected:
                self._violate(
                    "payload mutated after send: ",
                    MutationViolation(msg.tag, msg.src, msg.dst, msg.send_time),
                )
        slack = self.cluster.engine.now - msg.send_time
        latency = self.cluster.network.latency(msg.src, msg.dst)
        # The epsilon tolerates the one float rounding of ``t + latency``;
        # a genuine violation is off by a full latency class, not an ulp.
        if slack < latency * (1.0 - 1e-9):
            self._violate(
                "delivered before its link latency: ",
                LatencyViolation(msg.tag, msg.src, msg.dst, slack, latency),
            )
        self._original_deliver(msg)

    def _violate(
        self, prefix: str, violation: MutationViolation | LatencyViolation
    ) -> None:
        self.violations.append(violation)
        if self.raise_on_violation:
            raise SanitizerViolation(prefix + violation.render())

    def uninstall(self) -> None:
        for name in ("_post", "_deliver"):
            self.cluster.__dict__.pop(name, None)
        self._digests.clear()


# --------------------------------------------------------------------------
# determinism sanitizer: double-run digest diff
# --------------------------------------------------------------------------
@dataclass
class RunDigest:
    """Digests of everything a benchmark run externalises."""

    report: str
    spans: str
    metrics: str

    def to_dict(self) -> dict[str, str]:
        return {"report": self.report, "spans": self.spans,
                "metrics": self.metrics}


@dataclass
class DeterminismReport:
    """Outcome of an N-run determinism check."""

    digests: list[RunDigest] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = []
        for i, d in enumerate(self.digests):
            lines.append(
                f"run {i}: report={d.report[:12]} spans={d.spans[:12]} "
                f"metrics={d.metrics[:12]}"
            )
        if self.ok:
            lines.append(f"deterministic across {len(self.digests)} run(s)")
        else:
            lines.extend(f"MISMATCH: {m}" for m in self.mismatches)
        return "\n".join(lines)


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(run_fn: Callable[[Any], str]) -> RunDigest:
    """Execute one benchmark run and digest its externally visible state.

    ``run_fn(telemetry)`` performs the run and returns the report text;
    span and metric digests come from the telemetry it recorded into.
    """
    from repro.telemetry import Telemetry

    tel = Telemetry()
    report = run_fn(tel)
    span_doc = [
        (s.name, s.category, s.parent, round(s.start, 15),
         round(s.finish, 15), sorted(s.attrs.items(), key=lambda kv: kv[0]))
        for s in tel.spans.spans
    ]
    metrics_doc = sorted(tel.metrics.snapshot().items())
    return RunDigest(
        report=_digest_text(report),
        spans=_digest_text(json.dumps(span_doc, default=str)),
        metrics=_digest_text(json.dumps(metrics_doc, default=str)),
    )


def check_determinism(
    scale: int,
    nodes: int,
    num_roots: int = 4,
    seed: int = 1,
    variant: str = "relay-cpe",
    workers: int = 1,
    runs: int = 2,
    validate: bool = False,
) -> DeterminismReport:
    """Run the benchmark ``runs`` times and diff every digest.

    Each run gets a fresh runner, kernel, engine and telemetry — nothing
    is shared, so any digest difference is real nondeterminism (host
    clock, global RNG, hash-order iteration) leaking into results.
    """
    from repro.graph500.runner import Graph500Runner

    def run_fn(tel: Any) -> str:
        runner = Graph500Runner(
            scale=scale,
            nodes=nodes,
            seed=seed,
            variant=variant,
            validate=validate,
            workers=workers,
            telemetry=tel,
        )
        return runner.run(num_roots=num_roots).to_json()

    result = DeterminismReport()
    for _ in range(runs):
        result.digests.append(run_digest(run_fn))
    first = result.digests[0]
    for i, other in enumerate(result.digests[1:], start=1):
        for kind in ("report", "spans", "metrics"):
            if getattr(other, kind) != getattr(first, kind):
                result.mismatches.append(
                    f"{kind} digest of run {i} differs from run 0 "
                    f"({getattr(other, kind)[:12]} != "
                    f"{getattr(first, kind)[:12]})"
                )
    return result

"""Reliable transport over SimMPI: acks, retransmission, dedup, checksums.

MPI gives the paper's BFS exactly-once delivery for free; SimMPI with a
fault injector underneath does not. :class:`ReliableChannel` closes that
gap the way a user-level reliable transport would:

- every data message is framed in an :class:`Envelope` carrying a sequence
  number and a payload checksum;
- the receiver acks each frame, verifies the checksum (a corrupted frame
  is silently discarded — the retransmission delivers a clean copy), and
  suppresses duplicate sequence numbers, so the BFS handlers see each
  logical message at most once even under duplicate storms;
- the sender keeps unacked frames pending and retransmits on a timeout
  with exponential backoff and seeded jitter, giving up (``gave_up``)
  after a bounded number of retries.

The channel intercepts the cluster's *delivery* path (so it survives rank
revival after a crash) and sends through ``cluster.send_batch`` /
``cluster.send`` looked up dynamically — a fault injector installed on
the cluster therefore sits *below* the protocol and every retransmission
is independently at risk, exactly like a lossy wire. Protocol stats flow
into the cluster's :class:`~repro.sim.stats.StatsRegistry`:
``rt_messages``, ``acks``, ``retransmits``, ``gave_up``,
``dup_suppressed``, ``corrupt_detected``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.network.simmpi import Message, SimCluster
from repro.resilience.config import ResilienceConfig
from repro.sim.rng import substream

#: Reserved tag for acknowledgement frames (never retransmitted or acked).
ACK_TAG = "ack"


def payload_checksum(payload: Any) -> int:
    """CRC32 over a message payload (0 for ``None``).

    Handles the shapes SimMPI traffic actually uses: record tuples of
    numpy arrays, bare arrays, and small scalars/strings.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return zlib.crc32(np.ascontiguousarray(payload).tobytes())
    if isinstance(payload, tuple):
        crc = 0
        for part in payload:
            if isinstance(part, np.ndarray):
                crc = zlib.crc32(np.ascontiguousarray(part).tobytes(), crc)
            else:
                crc = zlib.crc32(repr(part).encode(), crc)
        return crc
    return zlib.crc32(repr(payload).encode())


@dataclass(frozen=True)
class Envelope:
    """Wire frame around a data payload: sequence number + checksum."""

    seq: int
    checksum: int
    payload: Any = None


class _Pending:
    """Sender-side state of one unacked frame."""

    __slots__ = ("src", "dst", "tag", "nbytes", "envelope", "attempt", "timer")

    def __init__(self, src: int, dst: int, tag: str, nbytes: int, envelope: Envelope):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.envelope = envelope
        self.attempt = 0
        self.timer: int | None = None


class ReliableChannel:
    """Ack/retransmit/dedup protocol layered on one :class:`SimCluster`."""

    def __init__(self, cluster: SimCluster, config: ResilienceConfig | None = None):
        self.cluster = cluster
        self.config = config or ResilienceConfig(reliable_transport=True)
        self.engine = cluster.engine
        self._rng = substream(self.config.seed, "resilience", "jitter")
        self._next_seq = 0
        self._pending: dict[int, _Pending] = {}
        self._seen: set[int] = set()
        self._lower_deliver = cluster._deliver
        cluster._deliver = self._deliver  # type: ignore[method-assign]
        #: Optional :class:`repro.telemetry.Telemetry`; when set, protocol
        #: events also count into the labeled ``transport_events`` family.
        self.telemetry = None

    def _event(self, kind: str) -> None:
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("transport_events", kind=kind).add()

    # -- lifecycle -------------------------------------------------------------
    def uninstall(self) -> None:
        """Restore the cluster's raw delivery path (idempotent)."""
        if self._lower_deliver is not None:
            self.cluster._deliver = self._lower_deliver  # type: ignore[method-assign]
            self._lower_deliver = None

    def __enter__(self) -> "ReliableChannel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def reset_run(self) -> None:
        """Forget per-run protocol state (pending frames, dedup window).

        Called between traversals: the engine is quiescent then, so any
        leftover pending entry is a frame that already ``gave_up`` its data
        or whose timer is a stale no-op; dropping them keeps the dedup set
        from growing without bound across roots.
        """
        for pending in self._pending.values():
            if pending.timer is not None:
                self.engine.cancel(pending.timer)
        self._pending.clear()
        self._seen.clear()

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    # -- send side --------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        tag: str,
        nbytes: int,
        payload: Any = None,
        at_time: float | None = None,
    ) -> Message:
        """Send a data message reliably; same signature as ``cluster.send``
        (a one-message :meth:`send_batch`)."""
        at_times = None if at_time is None else [at_time]
        return self.send_batch(src, [dst], tag, [nbytes], [payload], at_times)[0]

    def send_batch(
        self,
        src: int,
        dests: np.ndarray,
        tag: str,
        nbytes: np.ndarray,
        payloads: list[Any] | None = None,
        at_times: np.ndarray | None = None,
    ) -> list[Message]:
        """Batched :meth:`send`: frame, register and transmit ``N`` data
        messages with one ``cluster.send_batch`` underneath.

        Per-message protocol state — sequence numbers, checksums, pending
        entries, retransmit timers and their jitter draws — is created in
        batch order, exactly the order ``N`` scalar sends would use, so
        the jitter substream stays aligned and retransmission behaviour is
        unchanged.
        """
        if tag == ACK_TAG:
            raise ConfigError(f"tag {ACK_TAG!r} is reserved for the transport")
        if type(dests) is not list:
            dests = np.asarray(dests, dtype=np.int64).tolist()
        if type(nbytes) is not list:
            nbytes = np.asarray(nbytes, dtype=np.int64).tolist()
        n = len(dests)
        if len(nbytes) != n or (payloads is not None and len(payloads) != n):
            raise ConfigError("send_batch arrays must have equal lengths")
        if n == 0:
            return []
        seq0 = self._next_seq
        envelopes = []
        for i, (dst, nb) in enumerate(zip(dests, nbytes)):
            payload = None if payloads is None else payloads[i]
            seq = self._next_seq
            self._next_seq += 1
            envelope = Envelope(seq, payload_checksum(payload), payload)
            self._pending[seq] = _Pending(src, dst, tag, nb, envelope)
            envelopes.append(envelope)
        self.cluster.stats.counter("rt_messages").add(n)
        msgs = self.cluster.send_batch(
            src, dests, tag, nbytes, payloads=envelopes, at_times=at_times
        )
        if at_times is None:
            bases = [self.engine.now] * n
        elif type(at_times) is list:
            bases = at_times
        else:
            bases = np.asarray(at_times, dtype=np.float64).tolist()
        for i, base in enumerate(bases):
            self._arm_timer(seq0 + i, base)
        return msgs

    def _arm_timer(self, seq: int, base: float) -> None:
        """Schedule the retransmit timeout of frame ``seq``: exponential
        backoff in its attempt count, with one seeded jitter draw."""
        pending = self._pending[seq]
        timeout = self.config.ack_timeout * self.config.backoff_factor ** pending.attempt
        timeout *= 1.0 + self.config.jitter_fraction * float(self._rng.random())
        pending.timer = self.engine.call_at(
            base + timeout, self._on_timeout, seq, pending.attempt
        )

    def _transmit(self, seq: int) -> None:
        """Retransmit frame ``seq`` now and re-arm its timer."""
        pending = self._pending[seq]
        self.cluster.send(
            pending.src, pending.dst, pending.tag, pending.nbytes,
            payload=pending.envelope,
        )
        self._arm_timer(seq, self.engine.now)

    def _on_timeout(self, seq: int, attempt: int) -> None:
        pending = self._pending.get(seq)
        if pending is None or pending.attempt != attempt:
            return  # acked, or superseded by a newer attempt's timer
        if pending.attempt >= self.config.max_retries:
            del self._pending[seq]
            self.cluster.stats.counter("gave_up").add()
            self._event("gave_up")
            return
        pending.attempt += 1
        self.cluster.stats.counter("retransmits").add()
        self._event("retransmit")
        self._transmit(seq)

    # -- receive side -------------------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        if msg.tag == ACK_TAG:
            pending = self._pending.pop(msg.payload, None)
            if pending is not None:
                self.cluster.stats.counter("acks").add()
                self._event("ack")
                if pending.timer is not None:
                    self.engine.cancel(pending.timer)
            return
        envelope = msg.payload
        if not isinstance(envelope, Envelope):
            # Raw traffic from code that bypassed the channel.
            self._lower_deliver(msg)
            return
        if not self.cluster.is_alive(msg.dst):
            # Dead rank: no ack (the sender will retry, then give up);
            # the lower layer counts the dead letter.
            self._lower_deliver(msg)
            return
        if payload_checksum(envelope.payload) != envelope.checksum:
            # Corrupted on the wire: pretend it never arrived.
            self.cluster.stats.counter("corrupt_detected").add()
            self._event("corrupt_detected")
            return
        self.cluster.send(
            msg.dst, msg.src, ACK_TAG, self.config.ack_bytes, payload=envelope.seq
        )
        if envelope.seq in self._seen:
            self.cluster.stats.counter("dup_suppressed").add()
            self._event("dup_suppressed")
            return
        self._seen.add(envelope.seq)
        self._lower_deliver(
            Message(
                msg.src, msg.dst, msg.tag, msg.nbytes, envelope.payload,
                msg.send_time, msg.arrival_time,
            )
        )

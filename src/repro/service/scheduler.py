"""Admission control and fair queueing for the query service.

Three mechanisms, composed in submission order:

1. **Token-bucket admission** per tenant: a tenant may burst up to
   ``burst`` queries and sustain ``rate`` queries/second; past that the
   query is *shed* at the door (429-style) rather than queued — the
   service protects its latency by refusing work it cannot serve in time.
2. **Bounded queues**: even an admitted query is shed if the tenant's
   queue is at depth; an unbounded queue just converts overload into
   unbounded latency.
3. **Deficit-round-robin dispatch** across tenants: each visit to a
   tenant's queue adds ``quantum x weight`` to its deficit and serves
   queries while the deficit covers their cost. With unit costs and equal
   weights this degenerates to exact round-robin — a tenant offering 10x
   the load of its peers still gets only its fair share of service, which
   is precisely the fairness property the load benchmark pins.

The scheduler is wall-clock based (it runs in the *harness*, not on the
simulated machine — no REP101 concern out here) but takes an injectable
``clock`` so the edge-case tests advance time deterministically.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.locks import named_condition

#: ``offer`` outcomes.
QUEUED = "queued"
SHED_RATE = "shed_rate"
SHED_QUEUE = "shed_queue"


class TokenBucket:
    """Classic token bucket; ``rate=None`` admits everything."""

    def __init__(
        self,
        rate: float | None,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ConfigError(f"rate must be positive or None, got {rate}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def try_take(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; refills lazily from the
        elapsed clock. A bucket at exactly ``cost`` tokens admits — the
        burst capacity is inclusive."""
        if self.rate is None:
            return True
        now = self._clock()
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
            self._last = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant QoS knobs (see docs/service.md)."""

    rate: float | None = None  #: sustained queries/sec (None = unlimited)
    burst: float = 64.0  #: token-bucket capacity
    weight: float = 1.0  #: DRR share relative to other tenants
    max_queue_depth: int = 256  #: admitted-but-waiting cap

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError(f"weight must be positive, got {self.weight}")
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


class _TenantState:
    __slots__ = (
        "name", "config", "bucket", "queue", "deficit", "visit_credited",
        "admitted", "shed_rate", "shed_queue", "served", "peak_depth",
    )

    def __init__(
        self, name: str, config: TenantConfig, clock: Callable[[], float]
    ) -> None:
        self.name = name
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock)
        self.queue: deque = deque()  # (item, cost)
        self.deficit = 0.0
        self.visit_credited = False
        self.admitted = 0
        self.shed_rate = 0
        self.shed_queue = 0
        self.served = 0
        self.peak_depth = 0


class FairScheduler:
    """Token-bucket admission + deficit-round-robin tenant queues."""

    def __init__(
        self,
        quantum: float = 1.0,
        default_config: TenantConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self.default_config = default_config or TenantConfig()
        self._clock = clock
        self._tenants: dict[str, _TenantState] = {}
        #: Ring of tenant names with non-empty queues, in DRR visit order.
        self._ring: deque[str] = deque()
        self._pending = 0
        self._closed = False
        self._cv = named_condition("FairScheduler._cv")

    # -- configuration ---------------------------------------------------------
    def configure_tenant(self, name: str, config: TenantConfig) -> None:
        """Install (or replace) a tenant's QoS config. Replacing resets the
        token bucket but keeps queued work and counters."""
        with self._cv:
            state = self._tenants.get(name)
            if state is None:
                self._tenants[name] = _TenantState(name, config, self._clock)
            else:
                state.config = config
                state.bucket = TokenBucket(config.rate, config.burst, self._clock)

    def _state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = _TenantState(
                name, self.default_config, self._clock
            )
        return state

    # -- submission ------------------------------------------------------------
    def offer(self, tenant: str, item: object, cost: float = 1.0) -> str:
        """Admit-or-shed ``item``; returns QUEUED / SHED_RATE / SHED_QUEUE."""
        with self._cv:
            state = self._state(tenant)
            if self._closed:
                raise ConfigError("scheduler is closed")
            if not state.bucket.try_take(cost):
                state.shed_rate += 1
                return SHED_RATE
            if len(state.queue) >= state.config.max_queue_depth:
                state.shed_queue += 1
                return SHED_QUEUE
            state.queue.append((item, cost))
            state.admitted += 1
            if len(state.queue) > state.peak_depth:
                state.peak_depth = len(state.queue)
            if len(state.queue) == 1:
                self._ring.append(tenant)
            self._pending += 1
            self._cv.notify()
            return QUEUED

    # -- dispatch ----------------------------------------------------------------
    def take(self, timeout: float | None = None) -> object | None:
        """Next item in DRR order, or None on timeout / after :meth:`close`.

        One call serves one item; a tenant's deficit carries across calls,
        so a weight-2 tenant is handed two consecutive items per ring
        visit before the ring rotates on.
        """
        with self._cv:
            while self._pending == 0:
                if self._closed:
                    return None
                if not self._cv.wait(timeout):
                    return None
            while True:
                name = self._ring[0]
                state = self._tenants[name]
                if not state.visit_credited:
                    state.deficit += self.quantum * state.config.weight
                    state.visit_credited = True
                item, cost = state.queue[0]
                if state.deficit >= cost:
                    state.queue.popleft()
                    state.deficit -= cost
                    state.served += 1
                    self._pending -= 1
                    if not state.queue:
                        # An idle tenant's leftover deficit does not bank:
                        # DRR resets it so a returning tenant can't burst
                        # past its share on stale credit.
                        state.deficit = 0.0
                        state.visit_credited = False
                        self._ring.popleft()
                    return item
                # Visit over — rotate; the next visit credits a fresh
                # quantum, so this loop strictly increases some deficit
                # and terminates (quantum and weights are positive).
                state.visit_credited = False
                self._ring.rotate(-1)

    def close(self) -> None:
        """Stop admitting; wake every blocked :meth:`take` (returns None
        once drained)."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    # -- introspection -----------------------------------------------------------
    def depth(self, tenant: str | None = None) -> int:
        with self._cv:
            if tenant is not None:
                state = self._tenants.get(tenant)
                return len(state.queue) if state else 0
            return self._pending

    def tenants(self) -> list[str]:
        with self._cv:
            return sorted(self._tenants)

    def stats(self, tenant: str) -> dict:
        with self._cv:
            state = self._tenants.get(tenant)
            if state is None:
                return {}
            return {
                "admitted": state.admitted,
                "served": state.served,
                "shed_rate": state.shed_rate,
                "shed_queue": state.shed_queue,
                "depth": len(state.queue),
                "peak_depth": state.peak_depth,
                "weight": state.config.weight,
            }

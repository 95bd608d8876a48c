"""Labeled metrics: counters, gauges, histograms under one registry.

This is the measurement half of :mod:`repro.telemetry`. A
:class:`MetricsRegistry` hands out metric instances keyed by ``(name,
label values)`` with create-on-first-use semantics — the same contract the
old ``repro.sim.stats.StatsRegistry`` had for bare counters, which now
subclasses this registry and keeps its exact unlabeled behaviour (hot-path
code resolves a :class:`Counter` once and calls ``add`` forever).

Label semantics follow the Prometheus conventions that matter here:

- a metric *family* (one name) has a fixed label-key set, established on
  first use — ``counter("messages", node=0)`` followed by
  ``counter("messages", level=1)`` is a :class:`~repro.errors.ConfigError`;
- a family also has a fixed kind — registering ``"depth"`` as a counter
  and later as a gauge is an error;
- ``snapshot()`` flattens everything to ``{"name{k=v,...}": value}`` with
  labels sorted by key, so snapshots compare with plain ``==``. Unlabeled
  metrics keep their bare name, which preserves every existing stats
  snapshot byte for byte.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.utils.locks import NamedLock

#: Default histogram bucket upper bounds (seconds-ish, log-spaced).
DEFAULT_BUCKETS = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, float("inf")
)


@dataclass
class Counter:
    """A monotone counter (events, bytes, messages...)."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (queue depth, in-flight frames...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def max(self, value: float) -> None:
        """Keep the running maximum (peak-tracking gauges)."""
        if value > self.value:
            self.value = value


@dataclass
class Histogram:
    """Cumulative-bucket histogram of observations."""

    name: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ConfigError(f"histogram {self.name!r} buckets must ascend")
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            # No +inf bucket configured: clamp into the last one.
            self.counts[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        """Snapshot value of a histogram is its observation count."""
        return float(self.count)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile from the cumulative buckets.

        Prometheus-style linear interpolation inside the bucket that
        crosses rank ``q * count`` (assuming uniform spread within it);
        a hit in the unbounded last bucket reports that bucket's lower
        edge — the histogram cannot see past its largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        lo = 0.0
        for bound, bucket_count in zip(self.buckets, self.counts):
            if bucket_count and cum + bucket_count >= rank:
                if bound == float("inf"):
                    return lo
                fraction = (rank - cum) / bucket_count
                return lo + (bound - lo) * fraction
            cum += bucket_count
            lo = bound if bound != float("inf") else lo
        return lo


@dataclass
class TimeSeries:
    """A sequence of (time, value) observations."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def observe(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> float:
        return sum(self.values)

    def mean(self) -> float:
        return self.total() / len(self.values) if self.values else 0.0

    def max(self) -> float:
        return max(self.values) if self.values else 0.0


@dataclass
class _Family:
    """One metric name: its kind, fixed label keys, and children."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    label_keys: tuple[str, ...]
    children: dict[tuple, object] = field(default_factory=dict)


def _render_key(
    name: str, label_keys: tuple[str, ...], values: tuple
) -> str:
    if not label_keys:
        return name
    inner = ",".join(f"{k}={v}" for k, v in zip(label_keys, values))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named, optionally labeled metrics with create-on-first-use semantics.

    The unlabeled fast path is exactly the old stats registry:
    ``registry.counter("messages")`` returns the same :class:`Counter`
    object forever, and ``value``/``snapshot`` read it under its bare name.
    """

    def __init__(self) -> None:
        # Bare-name views kept for the hot unlabeled path (and backward
        # compatibility: SimCluster and tests read ``registry.counters``).
        self.counters: dict[str, Counter] = {}
        self._families: dict[str, _Family] = {}
        # Guards family/child *creation* only. The query service shares
        # one registry between its event-loop thread and its worker
        # threads, which may race to materialise the same labeled child;
        # without the lock two Counter objects could exist for one key and
        # increments on the loser would be lost. Reads stay lock-free
        # (dict.get is atomic) and snapshots sort, so creation order never
        # leaks.
        self._create_lock = NamedLock("MetricsRegistry._create_lock")

    # -- family plumbing -----------------------------------------------------
    def _child(
        self, name: str, kind: str, labels: dict, factory: Callable[[str], Any]
    ) -> Any:
        keys = tuple(sorted(labels))
        family = self._families.get(name)
        if family is not None and family.kind == kind and family.label_keys == keys:
            values = tuple(labels[k] for k in keys)
            child = family.children.get(values)
            if child is not None:
                return child
        with self._create_lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, keys)
            elif family.kind != kind:
                raise ConfigError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            elif family.label_keys != keys:
                raise ConfigError(
                    f"metric {name!r} has labels {family.label_keys}, "
                    f"got {keys}"
                )
            values = tuple(labels[k] for k in keys)
            child = family.children.get(values)
            if child is None:
                child = family.children[values] = factory(
                    _render_key(name, keys, values)
                )
                if kind == "counter" and not keys:
                    self.counters[name] = child
            return child

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_create_lock"]  # locks don't pickle; recreated on load
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._create_lock = NamedLock("MetricsRegistry._create_lock")

    # -- metric constructors ---------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        if not labels:
            # Hot path: one dict hit in the steady state.
            c = self.counters.get(name)
            if c is not None:
                return c
        return self._child(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._child(name, "gauge", labels, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._child(
            name, "histogram", labels, lambda n: Histogram(n, buckets)
        )

    # -- reads --------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float:
        """Read a metric's value (0.0 if it was never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        values = tuple(labels[k] for k in family.label_keys if k in labels)
        if len(values) != len(family.label_keys):
            return 0.0
        child = family.children.get(values)
        return child.value if child is not None else 0.0

    def snapshot(self) -> dict[str, float]:
        """Flatten every metric to ``{rendered name: value}``, sorted."""
        out: dict[str, float] = {}
        for family in self._families.values():
            for values, child in family.children.items():
                out[_render_key(family.name, family.label_keys, values)] = (
                    child.value
                )
        return dict(sorted(out.items()))

    def families(self) -> dict[str, str]:
        """``{name: kind}`` for every registered family."""
        return {name: f.kind for name, f in sorted(self._families.items())}

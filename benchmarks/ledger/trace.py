"""Host-time span recorder installed *from outside* on public entry points.

``TABLE`` is the fixed list of (module, attribute path, layer metric) this
ledger times. :class:`Tracer` swaps each attribute for a recording wrapper
before a kernel or server is constructed (handlers are bound at
construction) and puts the original object back afterwards. A span is
``(id, name, start, end, parent)`` with the parent taken from a per-thread
stack; spans stay in per-thread lists until :meth:`Tracer.columns` merges
them. Private callbacks are never wrapped: their time is self time of the
public span that invoked them (``Engine.run`` owns the delivery callbacks
it dispatches).

Clock: ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, system-wide, so
spans recorded in the server child and in the load generator share a time
base.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter

import numpy as np

#: (module, attribute path inside it, layer metric the span's self time
#: feeds). A function imported by name into a consumer module is listed
#: once per namespace that calls it. An optional 4th element counts work
#: units from ``(args, result)``.
TABLE = [
    ("repro.sim.engine", "Engine.run", "sim.engine.dispatch_s"),
    ("repro.sim.engine", "Engine.schedule_batch", "sim.engine.schedule_s"),
    ("repro.network.simmpi", "SimCluster.send_batch",
     "network.simmpi.send_batch_s", lambda a, r: len(r)),
    ("repro.network.simmpi", "SimCluster.send", "network.simmpi.send_s"),
    ("repro.network.cost", "NetworkModel.price_batch",
     "network.cost.price_s", lambda a, r: len(a[2])),
    ("repro.network.cost", "NetworkModel.transfer",
     "network.cost.price_s", lambda a, r: 1),
    ("repro.network.cost", "NetworkModel.transfer_batch",
     "network.cost.price_s", lambda a, r: len(r)),
    ("repro.core.pipeline", "NodePipeline.submit_module", "core.pipeline.submit_s"),
    ("repro.core.pipeline", "NodePipeline.submit_send", "core.pipeline.submit_s"),
    ("repro.core.pipeline", "NodePipeline.submit_send_many", "core.pipeline.submit_s"),
    ("repro.core.pipeline", "NodePipeline.submit_recv", "core.pipeline.submit_s"),
    ("repro.core.pipeline", "NodePipeline.submit_recv_many", "core.pipeline.submit_s"),
    ("repro.core.bfs", "DistributedBFS.run", "core.bfs.self_s"),
    ("repro.core.runtime", "expand_chunks", "core.runtime.kernels_s"),
    ("repro.core.runtime", "NodeState.apply_forward", "core.runtime.kernels_s"),
    ("repro.core.runtime", "NodeState.match_backward", "core.runtime.kernels_s"),
    ("repro.core.runtime", "NodeState.settle_from_hubs", "core.runtime.kernels_s"),
    ("repro.core.runtime", "NodeState.frontier_stats", "core.runtime.kernels_s"),
    ("repro.core.runtime", "NodeState.bu_remaining", "core.runtime.kernels_s"),
    ("repro.graph.csr", "CSRGraph.expand", "graph.csr.expand_s"),
    ("repro.graph.csr", "CSRGraph.from_edges", "graph.csr.from_edges_s"),
    ("repro.graph.csr", "CSRGraph.has_edges", "graph.csr.has_edges_s"),
    ("repro.graph.kronecker", "KroneckerGenerator.generate",
     "graph.kronecker.generate_s"),
    ("repro.graph500.roots", "sample_roots", "graph500.roots.sample_s"),
    ("repro.graph500.runner", "sample_roots", "graph500.roots.sample_s"),
    ("repro.baselines", "make_variant", "baselines.make_variant_s"),
    ("repro.graph500.runner", "validate_bfs_result", "graph500.validate.validate_s"),
    ("repro.graph500.validate", "depths_from_parents", "graph500.reference.bfs_s"),
    ("repro.graph500.validate", "reference_depths", "graph500.reference.bfs_s"),
    ("repro.core.bfs", "depths_from_parents", "graph500.reference.bfs_s"),
    ("repro.algorithms.base", "SuperstepEngine.__init__",
     "algorithms.base.construct_s"),
    ("repro.algorithms.base", "SuperstepEngine.superstep",
     "algorithms.base.superstep_s"),
    ("repro.algorithms.pagerank", "DistributedPageRank.run", "algorithms.compute_s"),
    ("repro.algorithms.wcc", "DistributedWCC.run", "algorithms.compute_s"),
    ("repro.algorithms.sssp", "DistributedSSSP.run", "algorithms.compute_s"),
    ("repro.algorithms.delta_stepping", "DistributedDeltaStepping.run",
     "algorithms.compute_s"),
]

#: The server child wraps the request path and only the per-query kernel
#: entry points: per-event wrappers would slow the server they measure.
SERVER_TABLE = [
    ("repro.service.server", "decode_body", "service.protocol.decode_s"),
    ("repro.service.server", "encode_frame", "service.protocol.encode_s",
     lambda a, r: len(r)),
    ("repro.service.service", "GraphService.submit", "service.service.submit_s"),
    ("repro.service.scheduler", "FairScheduler.offer", "service.scheduler.offer_s"),
    ("repro.service.cache", "ResultCache.get", "service.cache.get_s"),
    ("repro.service.cache", "ResultCache.put", "service.cache.put_s"),
    ("repro.service.catalog", "CatalogEntry.execute", "service.catalog.execute_s"),
    ("repro.core.bfs", "DistributedBFS.run", "core.bfs.self_s"),
    ("repro.graph.kronecker", "KroneckerGenerator.generate",
     "graph.kronecker.generate_s"),
    ("repro.graph.csr", "CSRGraph.from_edges", "graph.csr.from_edges_s"),
    ("repro.baselines", "make_variant", "baselines.make_variant_s"),
]

#: The load generator's own codec work, so it is never charged to the server.
CLIENT_TABLE = [
    ("repro.service.client", "encode_frame", "service.client.call_s"),
    ("repro.service.protocol", "decode_body", "service.client.call_s"),
]


def resolve(module: str, path: str) -> tuple[object, str]:
    """``(owner, attribute name)`` of a table row: the module or class whose
    ``__dict__`` holds the entry point."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        #: Span adopted as parent when this thread's stack is empty (a
        #: worker thread serving a request opened on the loop thread).
        self.adopted = -1


class Tracer:
    """Installs, records, restores. One instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
            return st

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name: str, parent: int | None = None) -> tuple:
        """Open a span by hand (harness root spans, server request spans).

        With ``parent=None`` the span nests under the thread's stack and
        becomes its top; with an explicit parent it stays off the stack (it
        may end on another call, across awaits)."""
        st = self._state()
        sid = next(self._ids)
        stacked = parent is None
        if stacked:
            parent = st.stack[-1] if st.stack else st.adopted
            st.stack.append(sid)
        return (sid, self.name_id(name), perf_counter(), parent, stacked)

    def end(self, token: tuple) -> None:
        end = perf_counter()
        sid, idx, start, parent, stacked = token
        st = self._state()
        if stacked:
            st.stack.pop()
        st.spans.append((sid, idx, start, end, parent, 0))

    def adopt(self, sid: int) -> None:
        """Parent this thread's top-level spans under ``sid`` from now on."""
        self._state().adopted = sid

    def current(self) -> int:
        st = self._state()
        return st.stack[-1] if st.stack else st.adopted

    def _wrap(self, fn, name: str, units=None):
        idx = self.name_id(name)
        ids = self._ids
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else st.adopted
            sid = next(ids)
            stack.append(sid)
            count = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    count = units(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                st.spans.append((sid, idx, start, end, parent, count))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- install / restore -------------------------------------------------------
    def install(self, table) -> None:
        # Import everything first: a consumer module imported after its
        # supplier was patched would bind the wrapper and get wrapped twice.
        for module, *_ in table:
            importlib.import_module(module)
        for module, path, metric, *rest in table:
            owner, attr = resolve(module, path)
            original = owner.__dict__[attr]
            units = rest[0] if rest else None
            name = f"{metric}|{module}.{path}"
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name, units))
            else:
                wrapper = self._wrap(original, name, units)
            self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, new) -> None:
        """Swap ``owner.attr`` for ``new``; :meth:`restore` puts it back."""
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------
    def columns(self) -> dict:
        """Every recorded span, merged over threads, as parallel columns
        ordered by span id (ids are dense; a parent opens before its
        children, so ``parent < id``)."""
        with self._lock:
            threads = list(self._threads)
        rows = sorted(row for st in threads for row in st.spans)
        if rows:
            sid, name, start, end, parent, units = (np.array(c) for c in zip(*rows))
        else:
            sid = name = parent = units = np.zeros(0, dtype=np.int64)
            start = end = np.zeros(0)
        return {
            "names": np.array(self.names), "id": sid, "name": name,
            "start": start, "end": end, "parent": parent, "units": units,
        }

    def clear(self) -> None:
        with self._lock:
            for st in self._threads:
                st.spans.clear()


def merge_columns(a: dict, b: dict) -> dict:
    """Concatenate two processes' columns (ids and parents of ``b`` shift)."""
    shift = int(a["id"].max()) + 1 if len(a["id"]) else 0
    names = list(a["names"])
    remap = np.array([len(names) + i for i in range(len(b["names"]))], dtype=np.int64)
    names += list(b["names"])
    out = {"names": np.array(names)}
    for key in ("start", "end", "units"):
        out[key] = np.concatenate([a[key], b[key]])
    out["id"] = np.concatenate([a["id"], b["id"] + shift])
    out["name"] = np.concatenate([a["name"], remap[b["name"]]])
    out["parent"] = np.concatenate(
        [a["parent"], np.where(b["parent"] >= 0, b["parent"] + shift, -1)])
    return out


def self_times(cols: dict) -> np.ndarray:
    """Per-span self time: duration minus the part child spans cover.

    Children of one parent on one thread never overlap, so the covered
    part is the sum of child durations; children on *other* threads (a
    request's worker-thread spans) are covered too, which is what makes a
    request span's self time the time nothing named was running for it."""
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    # ids are sorted, so a parent's row is its rank; a parent that is not in
    # these columns (cleared earlier) covers nothing here.
    rows = np.minimum(np.searchsorted(cols["id"], parent), len(dur) - 1)
    has = (parent >= 0) & (cols["id"][rows] == parent)
    covered = np.bincount(rows[has], weights=dur[has], minlength=len(dur))
    return dur - covered


class Totals:
    """Per layer metric, over the spans that started inside ``[lo, hi)``:
    ``self_s`` (self seconds), ``incl_s`` (inclusive seconds), ``count``
    (spans) and ``units`` (work units the wrappers counted). Span names are
    ``"metric|module.path"`` and fold onto the metric."""

    def __init__(self, cols: dict, lo: float = -np.inf, hi: float = np.inf) -> None:
        pick = (cols["start"] >= lo) & (cols["start"] < hi)
        name = cols["name"][pick]
        n = len(cols["names"])
        metrics = [str(x).split("|", 1)[0] for x in cols["names"]]

        def fold(weights=None) -> dict:
            per_name = np.bincount(name, weights=weights, minlength=n)
            out: dict[str, float] = {}
            for metric, value in zip(metrics, per_name.tolist()):
                out[metric] = out.get(metric, 0) + value
            return out

        self.self_s = fold(self_times(cols)[pick])
        self.incl_s = fold((cols["end"] - cols["start"])[pick])
        self.units = fold(cols["units"][pick])
        self.count = fold()


def to_json(cols: dict) -> dict:
    """Columns as plain lists for ``trace-<workload>.json``."""
    t0 = float(cols["start"].min()) if len(cols["start"]) else 0.0
    return {
        "t0": t0,
        "names": [str(n) for n in cols["names"]],
        "id": cols["id"].tolist(),
        "name": cols["name"].tolist(),
        "start": np.round(cols["start"] - t0, 7).tolist(),
        "end": np.round(cols["end"] - t0, 7).tolist(),
        "parent": cols["parent"].tolist(),
        "units": cols["units"].tolist(),
    }

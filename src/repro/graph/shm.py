"""Zero-copy shared-memory hosting for read-only CSR graphs.

During the kernel the graph is read-only, so multi-process workers (the
query service's catalog hosts its graphs this way) never need private
copies of the edge arrays. :class:`SharedCSR` rehosts a
:class:`~repro.graph.csr.CSRGraph` into one POSIX shared-memory segment:
the wrapper's ``graph`` attribute is a regular ``CSRGraph`` whose
``row_ptr`` / ``col_idx`` are views straight into the mapping
(``CSRGraph.__init__`` keeps conforming int64 arrays as-is, so no copy
happens past the initial rehost).

Fork workers inherit the mapping for free; spawn-context workers attach by
name via :meth:`SharedCSR.attach` with the picklable :meth:`handle`. Either
way there is exactly one physical copy of the graph on the machine — and,
unlike plain fork copy-on-write, the sharing survives start methods that
don't inherit memory at all.
"""

from __future__ import annotations

import atexit

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

try:  # pragma: no cover - stdlib since 3.8, but keep the gate explicit
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platform dependent
    _shm = None  # type: ignore[assignment]

_ITEMSIZE = np.dtype(np.int64).itemsize


def shared_memory_available() -> bool:
    """Probe for a working shared-memory mount (``/dev/shm`` or similar)."""
    if _shm is None:
        return False
    try:
        probe = _shm.SharedMemory(create=True, size=_ITEMSIZE)
    except (OSError, ValueError):  # pragma: no cover - platform dependent
        return False
    try:
        probe.close()
    finally:
        try:
            probe.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
    return True


class SharedCSR:
    """A CSR graph whose arrays live in one shared-memory segment.

    Both :meth:`host` and :meth:`attach` results are context managers —
    ``with SharedCSR.host(graph) as shared:`` guarantees :meth:`destroy`
    on every exit path. A hosted segment additionally registers an atexit
    unlink guard: an exception path (or a worker crash that propagates up
    and skips a ``finally``) can never strand the named segment in
    ``/dev/shm`` past interpreter exit.
    """

    def __init__(
        self, segment: object, graph: CSRGraph, name: str, owner: bool
    ) -> None:
        self._segment = segment
        #: The shm-backed :class:`CSRGraph`; use it anywhere a graph goes.
        self.graph = graph
        self.name = name
        self._owner = owner
        self._atexit_guard = None
        if owner:
            # Bind the segment, not self: the guard must not keep the
            # (large) graph views alive, and destroy() disarms it.
            segment_ref = segment
            def _unlink_guard() -> None:  # pragma: no cover - exit path
                try:
                    segment_ref.unlink()  # type: ignore[attr-defined]
                except (FileNotFoundError, OSError):
                    pass
            self._atexit_guard = _unlink_guard
            atexit.register(_unlink_guard)

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc: object) -> None:
        self.destroy()

    # -- construction ------------------------------------------------------------
    @classmethod
    def host(cls, graph: CSRGraph) -> "SharedCSR":
        """Copy ``graph``'s arrays into a fresh segment (the only copy)."""
        if _shm is None:
            raise ConfigError("multiprocessing.shared_memory is unavailable")
        row = np.ascontiguousarray(graph.row_ptr, dtype=np.int64)
        col = np.ascontiguousarray(graph.col_idx, dtype=np.int64)
        segment = _shm.SharedMemory(
            create=True, size=max(row.nbytes + col.nbytes, _ITEMSIZE)
        )
        row_view = np.ndarray(row.shape, dtype=np.int64, buffer=segment.buf)
        col_view = np.ndarray(
            col.shape, dtype=np.int64, buffer=segment.buf, offset=row.nbytes
        )
        row_view[:] = row
        col_view[:] = col
        shared = CSRGraph(row_view, col_view, num_vertices=graph.num_vertices)
        return cls(segment, shared, segment.name, owner=True)

    def handle(self) -> tuple[str, int, int, int]:
        """Picklable ``(name, len(row_ptr), len(col_idx), num_vertices)``
        for :meth:`attach` in a worker that shares no memory."""
        graph = self.graph
        return (
            self.name,
            len(graph.row_ptr),
            len(graph.col_idx),
            graph.num_vertices,
        )

    @classmethod
    def attach(cls, handle: tuple[str, int, int, int]) -> "SharedCSR":
        """Map an existing segment by :meth:`handle`; zero copies."""
        if _shm is None:
            raise ConfigError("multiprocessing.shared_memory is unavailable")
        name, n_row, n_col, num_vertices = handle
        segment = _shm.SharedMemory(name=name)
        row = np.ndarray((n_row,), dtype=np.int64, buffer=segment.buf)
        col = np.ndarray(
            (n_col,), dtype=np.int64, buffer=segment.buf, offset=n_row * _ITEMSIZE
        )
        graph = CSRGraph(row, col, num_vertices=num_vertices)
        return cls(segment, graph, name, owner=False)

    # -- teardown ----------------------------------------------------------------
    def destroy(self) -> None:
        """Release this mapping; the hosting side also unlinks the name.

        Call only once the graph views are done being read: depending on
        the numpy version the views either pin the mapping (close raises
        BufferError, swallowed here) or don't (the pages unmap and any
        later dereference is invalid). Either way the name goes away.
        """
        try:
            self._segment.close()  # type: ignore[attr-defined]
        except BufferError:
            # This numpy holds a buffer export per view: the mapping
            # stays until the views die; unlinking below removes the name.
            pass
        if self._owner:
            try:
                self._segment.unlink()  # type: ignore[attr-defined]
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
            self._owner = False
        if self._atexit_guard is not None:
            atexit.unregister(self._atexit_guard)
            self._atexit_guard = None

"""Compressed Sparse Row graph storage.

The paper's framework "uses the Compressed Sparse Row (CSR) data structure
to partition the adjacency matrix of the input graph by rows" (Section 2.1).
This CSR is the same structure, usable either for a whole graph or for one
node's row slice (see :class:`repro.graph.partition.Partition1D`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.edgelist import EdgeList, check_pair_keys


class CSRGraph:
    """Adjacency in CSR form: ``col_idx[row_ptr[v]:row_ptr[v+1]]`` are v's
    neighbours, sorted ascending within each row."""

    def __init__(self, row_ptr: np.ndarray, col_idx: np.ndarray, num_vertices: int | None = None):
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        if row_ptr.ndim != 1 or col_idx.ndim != 1:
            raise ConfigError("row_ptr/col_idx must be 1-D")
        if len(row_ptr) == 0 or row_ptr[0] != 0 or row_ptr[-1] != len(col_idx):
            raise ConfigError("row_ptr must start at 0 and end at len(col_idx)")
        if np.any(np.diff(row_ptr) < 0):
            raise ConfigError("row_ptr must be non-decreasing")
        n = num_vertices if num_vertices is not None else len(row_ptr) - 1
        if n != len(row_ptr) - 1:
            raise ConfigError(
                f"num_vertices {n} inconsistent with row_ptr length {len(row_ptr)}"
            )
        if len(col_idx) and (col_idx.min() < 0):
            raise ConfigError("negative column index")
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.num_vertices = n

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: EdgeList,
        symmetrize: bool = True,
        dedup: bool = True,
        drop_self_loops: bool = True,
    ) -> "CSRGraph":
        """Build the search structure the Graph500 kernel traverses.

        Defaults mirror benchmark step (3): the raw Kronecker list is
        symmetrised, self-loops are dropped and parallel edges collapse —
        none of which changes BFS results, only wasted work.

        The result is cached on the (immutable) edge list per flag
        combination: the harness derives the same CSR repeatedly — runner
        validation, ``make_variant``, every superstep-engine construction —
        and long-lived callers like the service catalog hand one EdgeList
        to many kernels. The first build pays the sort; the rest are a
        dict hit returning the very same (read-only by convention) object.

        Raises :class:`~repro.errors.ConfigError` when ``num_vertices``
        exceeds :data:`~repro.graph.edgelist.MAX_PAIR_KEY_VERTICES`, the
        largest ``n`` whose int64 pair key ``src*n + dst`` cannot wrap.
        """
        flags = (symmetrize, dedup, drop_self_loops)
        cache = edges.__dict__.get("_csr_cache")
        if cache is not None:
            hit = cache.get(flags)
            if hit is not None:
                return hit
        n = edges.num_vertices
        check_pair_keys(n)
        src, dst = edges.src, edges.dst
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        # One sort of the pair key src*n + dst: key order is (src, dst)
        # lexicographic order and equal keys are equal pairs, so the sorted
        # keys are the CSR rows, already grouped and sorted.
        m = len(src)
        key = np.empty(2 * m if symmetrize else m, dtype=np.int64)
        np.multiply(src, n, out=key[:m])
        key[:m] += dst
        if symmetrize:
            np.multiply(dst, n, out=key[m:])
            key[m:] += src
        key.sort()
        if dedup and len(key) > 1:
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        src = key // n
        dst = key  # in place: the peak holds one array fewer than np.divmod's
        dst -= src * n
        counts = np.bincount(src, minlength=n)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        built = cls(row_ptr, dst, n)
        if cache is None:
            cache = {}
            # EdgeList is a frozen dataclass; cache like its _dedup_cache.
            object.__setattr__(edges, "_csr_cache", cache)
        cache[flags] = built
        return built

    # -- queries -------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Directed edge slots (an undirected edge stored twice counts twice)."""
        return len(self.col_idx)

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.num_vertices:
            raise ConfigError(f"vertex {v} out of range")
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorised membership: does edge ``(us[i], vs[i])`` exist?

        A batched binary search over the sorted CSR rows — O(Σ log deg)
        total, never materialising the expanded adjacency. This is the
        validator's rule-5 primitive: at Graph500 scale an ``np.isin``
        over ``expand()`` output dominates the whole benchmark's
        wall-clock, while this stays negligible.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ConfigError("us/vs must be equal-length 1-D arrays")
        if len(us) == 0:
            return np.zeros(0, dtype=bool)
        if us.min() < 0 or us.max() >= self.num_vertices:
            raise ConfigError("vertex out of range")
        lo = self.row_ptr[us].copy()
        hi = self.row_ptr[us + 1].copy()
        # Lower-bound binary search, advanced in lock-step across all
        # queries: each pass halves every still-active interval.
        active = np.flatnonzero(lo < hi)
        while len(active):
            mid = (lo[active] + hi[active]) >> 1
            less = self.col_idx[mid] < vs[active]
            lo[active[less]] = mid[less] + 1
            hi[active[~less]] = mid[~less]
            active = active[lo[active] < hi[active]]
        found = np.zeros(len(us), dtype=bool)
        in_row = lo < self.row_ptr[us + 1]
        found[in_row] = self.col_idx[lo[in_row]] == vs[in_row]
        return found

    def expand(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised frontier expansion.

        Returns ``(sources, targets)`` where every edge out of ``frontier``
        appears once; ``sources`` repeats each frontier vertex by its degree.
        This is the FORWARD_GENERATOR inner loop, flattened.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        starts = self.row_ptr[frontier]
        stops = self.row_ptr[frontier + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        sources = np.repeat(frontier, lengths)
        # Gather all adjacency slices: offsets within each slice via a
        # segmented ramp (standard trick: global arange minus per-segment base).
        seg_base = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths)
        targets = self.col_idx[np.arange(total, dtype=np.int64) + seg_base]
        return sources, targets

    def row_slice(self, lo: int, hi: int) -> "CSRGraph":
        """Rows ``[lo, hi)`` as a local CSR (columns stay global ids)."""
        if not 0 <= lo <= hi <= self.num_vertices:
            raise ConfigError(f"bad row slice [{lo}, {hi})")
        row_ptr = self.row_ptr[lo : hi + 1] - self.row_ptr[lo]
        col = self.col_idx[self.row_ptr[lo] : self.row_ptr[hi]]
        return CSRGraph(row_ptr, col, hi - lo)

    def nbytes(self) -> int:
        return self.row_ptr.nbytes + self.col_idx.nbytes

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

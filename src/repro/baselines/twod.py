"""2-D partitioned level-synchronous BFS (the road not taken).

The paper chose 1-D partitioning with direction optimisation; its related
work weighs that against 2-D decompositions (Buluc & Madduri [6], Checconi
[27], Yoo [26]). This comparator implements the classic 2-D algorithm on
the same simulated machine so the trade-off is measurable:

- processors form an R x C grid; the adjacency matrix is blocked with
  block-row i / block-column j at processor (i, j);
- the frontier/parent vectors are distributed conformally: processor
  (i, j) owns vector segment ``V[i,j]`` — sub-range j of row block i;
- each level: **expand** (allgather frontier bitmaps up the processor
  columns), **local multiply** (CSR expansion of the gathered frontier
  against the local block), **fold** (alltoall of candidate (v, parent)
  records along the processor row to v's vector owner), apply.

Communication therefore touches only R-1 column mates + C-1 row mates —
the 2-D analogue of the relay technique's N+M connection bound — but every
level moves whole frontier bitmaps up the columns, which is exactly the
cost the paper's hub-bitmap "does not scale well" remark is about.

The vector layout is a 1-D block partition (rank ``i*C + j`` owns every
``v`` with ``v // seg == i*C + j``), so the comparator is a
:class:`~repro.core.substrate.Substrate` that sends ``frontier`` records
(expand) and ``fwd`` (parent, child) records (fold) straight to grid mates.
Its vector state is the 1-D driver's :class:`~repro.core.runtime.NodeState`
(parents, frontier, first-wins apply, level promotion), and its run window
counts its own records, messages and bytes
(:meth:`~repro.core.substrate.Substrate.run_count`).

Requires ``n % (R*C) == 0`` (powers of two throughout in Graph500 use).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.bfs import BFSResult, LevelTrace
from repro.core.config import BFSConfig
from repro.core.runtime import NodeState
from repro.core.substrate import Substrate
from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.collectives import allreduce_seconds


class GridPart(NodeState):
    """Processor (i, j): the BFS vector state of segment ``[lo, hi)``, plus
    the adjacency block and the gathered column frontier."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: Block (i, j): rows are ``block_sources`` (column block j),
        #: columns global targets in row block i.
        self.block: CSRGraph | None = None
        self.block_sources: np.ndarray | None = None
        #: Frontier vertices (global ids) gathered up the column this level.
        self.gathered: list[np.ndarray] = []


class TwoDBFS(Substrate):
    """Level-synchronous BFS on an R x C processor grid."""

    state_type = GridPart

    def __init__(
        self,
        edges: EdgeList,
        grid_rows: int,
        grid_cols: int,
        config: BFSConfig | None = None,
        spec: MachineSpec = TAIHULIGHT,
        nodes_per_super_node: int | None = None,
    ):
        if grid_rows < 1 or grid_cols < 1:
            raise ConfigError(f"bad grid {grid_rows}x{grid_cols}")
        self.R, self.C = grid_rows, grid_cols
        self.P = grid_rows * grid_cols
        n = edges.num_vertices
        if n % self.P != 0:
            raise ConfigError(
                f"2-D layout needs {self.P} | {n} (powers of two throughout)"
            )
        self.n = n
        self.row_block = n // self.R       # vertices per block row
        self.seg = n // self.P             # vertices per vector segment
        config = replace(config or BFSConfig(), partition_mode="block")
        super().__init__(edges, self.P, config, spec, nodes_per_super_node)
        # Per-processor local CSR: rows = sources in column block j (the
        # union of V[i', j] over i'), columns = global targets restricted to
        # row block i.
        self._build_blocks()

    # ------------------------------------------------------------ geometry --
    def rank(self, i: int, j: int) -> int:
        return i * self.C + j

    def coords(self, p: int) -> tuple[int, int]:
        return divmod(p, self.C)

    def segment_range(self, i: int, j: int) -> tuple[int, int]:
        return self.partition.part_range(self.rank(i, j))

    def vector_owner(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(grid row, grid col) owning each vertex's vector entry."""
        return divmod(np.asarray(v, dtype=np.int64) // self.seg, self.C)

    def column_sources(self, j: int) -> np.ndarray:
        """Global ids whose frontier lives in processor column j."""
        return np.concatenate(
            [np.arange(*self.segment_range(i, j), dtype=np.int64) for i in range(self.R)]
        )

    def _col_local_rows(self, vertices: np.ndarray, j: int) -> np.ndarray:
        """Positions of column-block-j vertices within ``column_sources(j)``."""
        i = vertices // self.row_block
        return i * self.seg + (vertices - i * self.row_block - j * self.seg)

    def _build_blocks(self) -> None:
        # Slice the global CSR into R x C blocks (small functional scales).
        sources, targets = self.graph.expand(np.arange(self.n, dtype=np.int64))
        _, src_j = self.vector_owner(sources)
        tgt_row = targets // self.row_block
        for part in self.states:
            i, j = self.coords(part.node_id)
            keep = (src_j == j) & (tgt_row == i)
            s, t = sources[keep], targets[keep]
            col_sources = self.column_sources(j)
            local_rows = self._col_local_rows(s, j)
            order = np.lexsort((t, local_rows))
            local_rows, t = local_rows[order], t[order]
            counts = np.bincount(local_rows, minlength=len(col_sources))
            row_ptr = np.zeros(len(col_sources) + 1, dtype=np.int64)
            np.cumsum(counts, out=row_ptr[1:])
            part.block = CSRGraph(row_ptr, t, len(col_sources))
            part.block_sources = col_sources

    # ------------------------------------------------------- substrate hooks --
    def _apply(self, part: GridPart, execution, kind, u, v) -> None:
        if kind == "frontier":
            part.gathered.append(u)
        else:
            part.apply_forward(u, v)

    # ----------------------------------------------------------------- run --
    def run(self, root: int) -> BFSResult:
        if not 0 <= root < self.n:
            raise ConfigError(f"root {root} out of range")
        for part in self.states:
            part.reset()
        self.states[int(self.owner[root])].seed_root(root)

        t_start = self.begin_run()
        traces: list[LevelTrace] = []
        bitmap_bytes = -(-self.seg // 8)
        frontier_bytes = self.config.header_bytes + bitmap_bytes

        control = allreduce_seconds(self.P, self.spec.taihulight)
        level = 0
        while level < self.config.max_levels:
            level += 1
            # Level barrier: the "is the global frontier empty?" allreduce.
            t0 = self._t_max + control
            self._mark(t0)
            frontier_total = sum(len(part.curr) for part in self.states)
            msgs_before = self.cluster.stats.value("messages")
            records_before = self.records_sent

            # --- expand: allgather frontier segments up each column -------
            for part in self.states:
                i, j = self.coords(part.node_id)
                execution = part.pipeline.submit_module(
                    t0, "forward_generator", max(1, bitmap_bytes)
                )
                self._mark(execution.finish)
                frontier = part.to_global(part.curr)
                part.gathered.append(frontier)
                mates = [self.rank(i2, j) for i2 in range(self.R) if i2 != i]
                if mates:
                    self._inject(
                        part, mates, "frontier", [frontier_bytes] * len(mates),
                        [(frontier, None)] * len(mates),
                        [execution.finish] * len(mates),
                    )
            self.engine.run_until_quiescent()

            # --- local multiply + fold along rows --------------------------
            t1 = self._t_max
            for part in self.states:
                p = part.node_id
                # Never empty: expand appended the part's own segment.
                f_j = np.concatenate(part.gathered)
                part.gathered = []
                if len(f_j) == 0:
                    continue
                # Map gathered global frontier ids to block-local rows.
                local_rows = self._col_local_rows(f_j, p % self.C)
                srcs_local, targets = part.block.expand(local_rows)
                sources = part.block_sources[srcs_local]
                nbytes = max(1, len(targets)) * self.config.record_bytes
                execution = part.pipeline.submit_module(
                    t1, "forward_generator", nbytes
                )
                self._mark(execution.finish)
                if len(targets) == 0:
                    continue
                dest = self.owner[targets]
                order = np.argsort(dest, kind="stable")
                dest, sources, targets = dest[order], sources[order], targets[order]
                cuts = np.flatnonzero(np.diff(dest)) + 1
                starts = np.concatenate(([0], cuts)).tolist()
                stops = np.concatenate((cuts, [len(dest)])).tolist()
                self.records_sent += len(dest)
                # Fractions count the local bucket (_send_buckets does not).
                dests, sizes, payloads, readies = [], [], [], []
                for k, (a, b) in enumerate(zip(starts, stops)):
                    d = int(dest[a])
                    mb = self._message_bytes(b - a)
                    payload = (sources[a:b], targets[a:b])
                    if d == p:
                        local_exec = part.pipeline.submit_module(
                            execution.finish, "forward_handler", mb
                        )
                        self._mark(local_exec.finish)
                        part.apply_forward(*payload)
                        continue
                    dests.append(d)
                    sizes.append(mb)
                    payloads.append(payload)
                    readies.append(execution.ready_fraction((k + 1) / len(starts)))
                if dests:
                    self._inject(part, dests, "fwd", sizes, payloads, readies)
            self.engine.run_until_quiescent()

            traces.append(
                LevelTrace(
                    level=level,
                    direction="topdown",
                    frontier_vertices=frontier_total,
                    frontier_edges=0,
                    records_sent=self.records_sent - records_before,
                    messages=int(self.cluster.stats.value("messages") - msgs_before),
                    hub_settled=0,
                    subrounds=1,
                    start=t0,
                    finish=self._t_max,
                )
            )

            # --- barrier: promote next -> frontier ------------------------
            if sum(part.advance_level() for part in self.states) == 0:
                break
        else:
            raise ReproError(f"2-D BFS exceeded {self.config.max_levels} levels")

        parent = np.concatenate([part.parent for part in self.states])
        return BFSResult(
            root=root,
            parent=parent,
            levels=len(traces),
            sim_seconds=max(self._t_max - t_start, 1e-12),
            traces=traces,
            stats={
                "records_sent": float(self.records_sent),
                "messages": self.run_count("messages"),
                "bytes": self.run_count("bytes"),
                "hub_settled": 0.0,
                "td_levels": float(len(traces)),
                "bu_levels": 0.0,
            },
        )

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

Requires ``n % (R*C) == 0`` (powers of two throughout in Graph500 use).
"""

from __future__ import annotations

import numpy as np

from repro.core.bfs import BFSResult, LevelTrace
from repro.core.config import BFSConfig
from repro.core.pipeline import NodePipeline
from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.node import SunwayNode
from repro.machine.specs import MachineSpec, TAIHULIGHT
from repro.network.collectives import allreduce_seconds
from repro.network.simmpi import Message, SimCluster
from repro.sim.engine import Engine


class TwoDBFS:
    """Level-synchronous BFS on an R x C processor grid."""

    def __init__(
        self,
        edges: EdgeList,
        grid_rows: int,
        grid_cols: int,
        config: BFSConfig | None = None,
        spec: MachineSpec = TAIHULIGHT,
        nodes_per_super_node: int | None = None,
    ):
        self.config = config or BFSConfig()
        self.spec = spec
        if grid_rows < 1 or grid_cols < 1:
            raise ConfigError(f"bad grid {grid_rows}x{grid_cols}")
        self.R, self.C = grid_rows, grid_cols
        self.P = grid_rows * grid_cols
        self.edges = edges
        self.graph = CSRGraph.from_edges(edges)
        n = self.graph.num_vertices
        if n % self.P != 0:
            raise ConfigError(
                f"2-D layout needs {self.P} | {n} (powers of two throughout)"
            )
        self.n = n
        self.row_block = n // self.R       # vertices per block row
        self.seg = n // self.P             # vertices per vector segment

        self.engine = Engine()
        nps = (
            nodes_per_super_node
            if nodes_per_super_node is not None
            else spec.taihulight.nodes_per_super_node
        )
        self.cluster = SimCluster(self.engine, self.P, spec=spec,
                                  nodes_per_super_node=nps)
        self.pipelines = [
            NodePipeline(SunwayNode(p, spec), self.config) for p in range(self.P)
        ]
        # Per-processor local CSR: rows = sources in column block j (the
        # union of V[i', j] over i'), columns = global targets restricted to
        # row block i.
        self._build_blocks()
        for p in range(self.P):
            self.cluster.register(p, self._make_handler(p))

        # Vector state per processor: parent + next for its segment.
        self.parent = [np.full(self.seg, -1, dtype=np.int64) for _ in range(self.P)]
        self.next_mask = [np.zeros(self.seg, dtype=bool) for _ in range(self.P)]
        self.frontier = [np.empty(0, dtype=np.int64) for _ in range(self.P)]
        self._gathered: list[list[np.ndarray]] = [[] for _ in range(self.P)]
        self._t_max = 0.0
        self._records = 0

    # ------------------------------------------------------------ geometry --
    def rank(self, i: int, j: int) -> int:
        return i * self.C + j

    def coords(self, p: int) -> tuple[int, int]:
        return divmod(p, self.C)

    def segment_range(self, i: int, j: int) -> tuple[int, int]:
        lo = i * self.row_block + j * self.seg
        return lo, lo + self.seg

    def vector_owner(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(grid row, grid col) owning each vertex's vector entry."""
        v = np.asarray(v, dtype=np.int64)
        i = v // self.row_block
        j = (v - i * self.row_block) // self.seg
        return i, j

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
        self.blocks: list[CSRGraph] = []
        self.block_sources: list[np.ndarray] = []
        sources, targets = self.graph.expand(np.arange(self.n, dtype=np.int64))
        _, src_j = self.vector_owner(sources)
        tgt_row = targets // self.row_block
        for i in range(self.R):
            for j in range(self.C):
                keep = (src_j == j) & (tgt_row == i)
                s, t = sources[keep], targets[keep]
                col_sources = self.column_sources(j)
                local_rows = self._col_local_rows(s, j)
                order = np.lexsort((t, local_rows))
                local_rows, t = local_rows[order], t[order]
                counts = np.bincount(local_rows, minlength=len(col_sources))
                row_ptr = np.zeros(len(col_sources) + 1, dtype=np.int64)
                np.cumsum(counts, out=row_ptr[1:])
                self.blocks.append(CSRGraph(row_ptr, t, len(col_sources)))
                self.block_sources.append(col_sources)

    # ------------------------------------------------------------ messaging --
    def _mark(self, t: float) -> None:
        if t > self._t_max:
            self._t_max = t

    def _make_handler(self, p: int):
        def handler(msg: Message) -> None:
            self._on_message(p, msg)

        return handler

    def _on_message(self, p: int, msg: Message) -> None:
        ready = self.pipelines[p].submit_recv(msg.arrival_time)
        self._mark(ready)
        if msg.tag == "frontier":
            execution = self.pipelines[p].submit_module(
                ready, "forward_handler", msg.nbytes
            )
            self._mark(execution.finish)
            self._gathered[p].append(msg.payload)
        elif msg.tag == "fold":
            execution = self.pipelines[p].submit_module(
                ready, "forward_handler", msg.nbytes
            )
            self._mark(execution.finish)
            u, v = msg.payload
            self._apply(p, u, v)
        else:  # pragma: no cover - defensive
            raise ReproError(f"unknown tag {msg.tag!r}")

    def _apply(self, p: int, u: np.ndarray, v: np.ndarray) -> None:
        i, j = self.coords(p)
        lo, _ = self.segment_range(i, j)
        v_local = v - lo
        fresh = self.parent[p][v_local] < 0
        v_local, u = v_local[fresh], u[fresh]
        if len(v_local) == 0:
            return
        uniq, first = np.unique(v_local, return_index=True)
        self.parent[p][uniq] = u[first]
        self.next_mask[p][uniq] = True

    # ----------------------------------------------------------------- run --
    def run(self, root: int) -> BFSResult:
        if not 0 <= root < self.n:
            raise ConfigError(f"root {root} out of range")
        for p in range(self.P):
            self.parent[p][:] = -1
            self.next_mask[p][:] = False
            self.frontier[p] = np.empty(0, dtype=np.int64)
        ri, rj = self.vector_owner(np.array([root]))
        owner = self.rank(int(ri[0]), int(rj[0]))
        lo, _ = self.segment_range(int(ri[0]), int(rj[0]))
        self.parent[owner][root - lo] = root
        self.frontier[owner] = np.array([root], dtype=np.int64)

        t_start = max(self.engine.now, self._t_max)
        self._t_max = t_start
        self._records = 0
        traces: list[LevelTrace] = []
        bitmap_bytes = -(-self.seg // 8)

        control = allreduce_seconds(self.P, self.spec.taihulight)
        level = 0
        while level < self.config.max_levels:
            level += 1
            # Level barrier: the "is the global frontier empty?" allreduce.
            t0 = self._t_max + control
            self._mark(t0)
            frontier_total = sum(len(f) for f in self.frontier)
            msgs_before = self.cluster.stats.value("messages")
            records_before = self._records

            # --- expand: allgather frontier segments up each column -------
            for p in range(self.P):
                i, j = self.coords(p)
                execution = self.pipelines[p].submit_module(
                    t0, "forward_generator", max(1, bitmap_bytes)
                )
                self._mark(execution.finish)
                self._gathered[p].append(self.frontier[p])
                for i2 in range(self.R):
                    if i2 == i:
                        continue
                    peer = self.rank(i2, j)
                    send_at = self.pipelines[p].submit_send(
                        execution.finish, bitmap_bytes
                    )
                    self._mark(send_at)
                    self.cluster.send(
                        p, peer, "frontier",
                        self.config.header_bytes + bitmap_bytes,
                        payload=self.frontier[p], at_time=send_at,
                    )
            self.engine.run_until_quiescent()

            # --- local multiply + fold along rows --------------------------
            t1 = self._t_max
            for p in range(self.P):
                i, j = self.coords(p)
                gathered = self._gathered[p]
                self._gathered[p] = []
                f_j = (
                    np.concatenate(gathered)
                    if gathered
                    else np.empty(0, dtype=np.int64)
                )
                if len(f_j) == 0:
                    continue
                block = self.blocks[p]
                col_sources = self.block_sources[p]
                # Map gathered global frontier ids to block-local rows.
                local_rows = self._col_local_rows(f_j, j)
                srcs_local, targets = block.expand(local_rows)
                sources = col_sources[srcs_local]
                nbytes = max(1, len(targets)) * self.config.record_bytes
                execution = self.pipelines[p].submit_module(
                    t1, "forward_generator", nbytes
                )
                self._mark(execution.finish)
                if len(targets) == 0:
                    continue
                oi, oj = self.vector_owner(targets)
                dest = oi * self.C + oj
                order = np.argsort(dest, kind="stable")
                dest, sources, targets = dest[order], sources[order], targets[order]
                cuts = np.flatnonzero(np.diff(dest)) + 1
                starts = np.concatenate(([0], cuts))
                stops = np.concatenate((cuts, [len(dest)]))
                for k, (a, b) in enumerate(zip(starts, stops)):
                    d = int(dest[a])
                    self._records += b - a
                    payload = (sources[a:b], targets[a:b])
                    mb = self.config.header_bytes + (b - a) * self.config.record_bytes
                    if d == p:
                        local_exec = self.pipelines[p].submit_module(
                            execution.finish, "forward_handler", mb
                        )
                        self._mark(local_exec.finish)
                        self._apply(p, *payload)
                        continue
                    ready = execution.ready_fraction((k + 1) / len(starts))
                    send_at = self.pipelines[p].submit_send(ready, mb)
                    self._mark(send_at)
                    self.cluster.send(p, d, "fold", mb, payload=payload,
                                      at_time=send_at)
            self.engine.run_until_quiescent()

            traces.append(
                LevelTrace(
                    level=level,
                    direction="topdown",
                    frontier_vertices=frontier_total,
                    frontier_edges=0,
                    records_sent=self._records - records_before,
                    messages=int(self.cluster.stats.value("messages") - msgs_before),
                    hub_settled=0,
                    subrounds=1,
                    start=t0,
                    finish=self._t_max,
                )
            )

            # --- barrier: promote next -> frontier ------------------------
            new_total = 0
            for p in range(self.P):
                i, j = self.coords(p)
                lo, _ = self.segment_range(i, j)
                idx = np.flatnonzero(self.next_mask[p])
                self.frontier[p] = idx + lo
                self.next_mask[p][:] = False
                new_total += len(idx)
            if new_total == 0:
                break
        else:
            raise ReproError(f"2-D BFS exceeded {self.config.max_levels} levels")

        parent = np.full(self.n, -1, dtype=np.int64)
        for p in range(self.P):
            i, j = self.coords(p)
            lo, hi = self.segment_range(i, j)
            parent[lo:hi] = self.parent[p]
        return BFSResult(
            root=root,
            parent=parent,
            levels=len(traces),
            sim_seconds=max(self._t_max - t_start, 1e-12),
            traces=traces,
            stats={
                "records_sent": float(self._records),
                "messages": self.cluster.stats.value("messages"),
                "bytes": self.cluster.stats.value("bytes"),
                "hub_settled": 0.0,
                "td_levels": float(len(traces)),
                "bu_levels": 0.0,
            },
        )

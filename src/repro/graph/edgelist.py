"""Edge lists: the raw-graph interchange format of the Graph500 pipeline.

The benchmark's step (1) produces an *edge list*; step (3) constructs the
search structure (CSR) from it. TEPS counting (step 6) goes back to the raw
list: the spec counts every input tuple — self loops and multiplicities
included — whose endpoints land in the traversed component. Keeping the
edge list as a first-class object (rather than only the CSR) is therefore
load-bearing for faithful metric computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Largest vertex count whose int64 pair key ``src*n + dst`` is exact:
#: ``floor(sqrt(2**63 - 1))``, past scale 31.
MAX_PAIR_KEY_VERTICES = 3_037_000_499


def check_pair_keys(num_vertices: int) -> None:
    """Raise :class:`ConfigError` if ``src*n + dst`` could wrap in int64."""
    if num_vertices > MAX_PAIR_KEY_VERTICES:
        raise ConfigError(
            f"num_vertices {num_vertices} exceeds {MAX_PAIR_KEY_VERTICES}, the "
            "largest vertex count whose int64 edge key src*n + dst cannot wrap"
        )


@dataclass(frozen=True)
class EdgeList:
    """Directed edge tuples ``(src[i], dst[i])`` over ``num_vertices`` ids."""

    src: np.ndarray
    dst: np.ndarray
    num_vertices: int

    def __post_init__(self) -> None:
        src, dst = np.asarray(self.src), np.asarray(self.dst)
        if src.shape != dst.shape or src.ndim != 1:
            raise ConfigError(
                f"src/dst must be equal-length 1-D arrays, got {src.shape}/{dst.shape}"
            )
        if self.num_vertices <= 0:
            raise ConfigError(f"num_vertices must be positive, got {self.num_vertices}")
        if len(src) and (
            src.min() < 0
            or dst.min() < 0
            or src.max() >= self.num_vertices
            or dst.max() >= self.num_vertices
        ):
            raise ConfigError("edge endpoint out of range")
        object.__setattr__(self, "src", np.ascontiguousarray(src, dtype=np.int64))
        object.__setattr__(self, "dst", np.ascontiguousarray(dst, dtype=np.int64))

    @property
    def num_edges(self) -> int:
        return len(self.src)

    # -- transforms (all return new EdgeLists) -------------------------------
    def symmetrized(self) -> "EdgeList":
        """Append the reverse of every edge (Graph500 graphs are undirected)."""
        return EdgeList(
            np.concatenate([self.src, self.dst]),
            np.concatenate([self.dst, self.src]),
            self.num_vertices,
        )

    def without_self_loops(self) -> "EdgeList":
        keep = self.src != self.dst
        return EdgeList(self.src[keep], self.dst[keep], self.num_vertices)

    def deduplicated(self) -> "EdgeList":
        """Drop duplicate (src, dst) tuples, keeping each first occurrence
        in input order.

        The result is cached on the instance, so a caller that dedups the
        same list repeatedly pays for one sort. EdgeLists are immutable, so
        the cache can never go stale. Raises :class:`ConfigError` past
        :data:`MAX_PAIR_KEY_VERTICES`, where the pair key would wrap.
        """
        check_pair_keys(self.num_vertices)
        if self.num_edges == 0:
            return self
        cached = self.__dict__.get("_dedup_cache")
        if cached is not None:
            return cached
        key = self.src * np.int64(self.num_vertices) + self.dst
        _, idx = np.unique(key, return_index=True)
        idx.sort()
        result = EdgeList(self.src[idx], self.dst[idx], self.num_vertices)
        # Deduplicating an already-deduplicated list is the identity.
        object.__setattr__(result, "_dedup_cache", result)
        object.__setattr__(self, "_dedup_cache", result)
        return result

    def permuted(self, permutation: np.ndarray) -> "EdgeList":
        """Relabel vertices: new id of v is ``permutation[v]``."""
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.num_vertices,):
            raise ConfigError(
                f"permutation must have shape ({self.num_vertices},), got {perm.shape}"
            )
        if not np.array_equal(np.sort(perm), np.arange(self.num_vertices)):
            raise ConfigError("not a permutation of the vertex ids")
        return EdgeList(perm[self.src], perm[self.dst], self.num_vertices)

    def shuffled(self, rng: np.random.Generator) -> "EdgeList":
        order = rng.permutation(self.num_edges)
        return EdgeList(self.src[order], self.dst[order], self.num_vertices)

    # -- queries ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex under the *directed* reading of the tuples."""
        return np.bincount(self.src, minlength=self.num_vertices).astype(np.int64)

    def undirected_degrees(self) -> np.ndarray:
        """Degree counting each tuple at both endpoints (self loops once)."""
        deg = np.bincount(self.src, minlength=self.num_vertices)
        deg = deg + np.bincount(self.dst, minlength=self.num_vertices)
        loops = np.bincount(
            self.src[self.src == self.dst], minlength=self.num_vertices
        )
        return (deg - loops).astype(np.int64)

    def edges_within(self, mask: np.ndarray) -> int:
        """Input tuples with both endpoints inside ``mask`` (TEPS numerator)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_vertices,):
            raise ConfigError("mask must have one entry per vertex")
        return int(np.count_nonzero(mask[self.src] & mask[self.dst]))

    def nbytes(self) -> int:
        return self.src.nbytes + self.dst.nbytes

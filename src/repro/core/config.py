"""Configuration for the distributed BFS and its ablations.

The defaults are the paper's final system ("Relay CPE" in Figure 11):
direction optimisation on, contention-free shuffling on CPE clusters,
group-based relay batching, hub prefetch, and the 1 KB quick path.
Baselines and ablations flip individual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigError


@dataclass(frozen=True)
class RoleLayout:
    """Producer/router/consumer column split on the 8x8 mesh (Figure 6).

    The paper: "The first four columns of producers... two columns of
    routers for upward and downward pass... the last two columns only
    consume data."
    """

    producer_cols: int = 4
    router_cols: int = 2
    consumer_cols: int = 2
    mesh_rows: int = 8
    mesh_cols: int = 8

    def __post_init__(self) -> None:
        if min(self.producer_cols, self.router_cols, self.consumer_cols) < 1:
            raise ConfigError("each role needs at least one column")
        if self.router_cols < 2:
            raise ConfigError(
                "need an up-column and a down-column of routers for "
                "deadlock-free vertical passes"
            )
        if self.producer_cols + self.router_cols + self.consumer_cols != self.mesh_cols:
            raise ConfigError(
                "role columns must cover the mesh: "
                f"{self.producer_cols}+{self.router_cols}+{self.consumer_cols} "
                f"!= {self.mesh_cols}"
            )

    @property
    def n_producers(self) -> int:
        return self.producer_cols * self.mesh_rows

    @property
    def n_routers(self) -> int:
        return self.router_cols * self.mesh_rows

    @property
    def n_consumers(self) -> int:
        return self.consumer_cols * self.mesh_rows

    def producer_positions(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.mesh_rows) for c in range(self.producer_cols)]

    @cached_property
    def producer_set(self) -> frozenset[tuple[int, int]]:
        """Producer positions as a cached frozenset (hot membership tests).

        Safe to cache on a frozen dataclass: the fields it derives from
        can never change, and ``cached_property`` stores the value in the
        instance ``__dict__`` without going through ``__setattr__``.
        """
        return frozenset(self.producer_positions())

    def router_columns(self) -> tuple[int, int]:
        """(up_column, down_column) indices."""
        base = self.producer_cols
        return base, base + 1

    def consumer_positions(self) -> list[tuple[int, int]]:
        base = self.producer_cols + self.router_cols
        return [(r, c) for r in range(self.mesh_rows) for c in range(base, self.mesh_cols)]


@dataclass(frozen=True)
class BFSConfig:
    """All knobs of the distributed BFS."""

    # -- technique toggles (the Figure 11 axes) --------------------------------
    #: Process modules with contention-free shuffles on CPE clusters (True)
    #: or directly on the MPEs (False) — the "CPE" vs "MPE" tag.
    use_cpe_clusters: bool = True
    #: Route remote records through group relay nodes (True) or directly to
    #: their destination (False) — the "Relay" vs "Direct" tag.
    use_relay: bool = True

    # -- algorithm -------------------------------------------------------------
    #: Hybrid top-down/bottom-up (Beamer); False = pure top-down.
    direction_optimizing: bool = True
    #: Beamer switching parameters (m_f > m_u / alpha; n_f < n / beta).
    alpha: float = 14.0
    beta: float = 24.0
    #: Degree-aware hub prefetch (Section 5); hub counts are per node.
    use_hub_prefetch: bool = True
    hub_count_topdown: int = 1 << 12
    hub_count_bottomup: int = 1 << 14
    #: Cap on hubs as a fraction of per-node vertices. At paper scale
    #: (16M vertices/node) the absolute counts above rule; at toy scale the
    #: cap keeps hubs a minority so the message paths stay exercised.
    hub_fraction_cap: float = 1.0 / 64.0
    #: Bottom-up neighbour-chunk size per sub-round (early-termination
    #: emulation); 0 = flush every edge in a single sub-round.
    bottomup_chunk: int = 4
    bottomup_max_subrounds: int = 64

    # -- message/batching parameters --------------------------------------------
    #: Wire bytes per (u, v) record and per message header.
    record_bytes: int = 8
    header_bytes: int = 64
    #: Inputs below this size are handled on the MPE directly (Section 5:
    #: "we set the threshold to 1 KB").
    quick_path_threshold: int = 1024
    #: Wire compression factor for record payloads (Section 7 names message
    #: compression [4], [27], [28] as orthogonal future work; 1.0 = off).
    #: Records within a batch share a destination partition, so delta
    #: encoding of sorted ids plausibly reaches ~2x.
    compression_ratio: float = 1.0
    #: Use the real frame-of-reference codec (:mod:`repro.network.codec`)
    #: to size every record message exactly, instead of the fixed ratio.
    use_codec: bool = False
    #: Per-destination SPM staging buffer on consumer CPEs, and SPM reserved
    #: for control state. 16 consumers x (64 KB - 4 KB) / 1 KB ~ the paper's
    #: "up to 1024 destinations in practice".
    staging_buffer_bytes: int = 1024
    spm_reserved_bytes: int = 4096

    # -- layout ------------------------------------------------------------------
    roles: RoleLayout = field(default_factory=RoleLayout)
    #: 1-D partition strategy (Section 5 balances partitions by edges).
    partition_mode: str = "balanced"
    #: Group width M of the N x M node matrix; None = the super-node size.
    group_width: int | None = None

    # -- safety valves ---------------------------------------------------------------
    max_levels: int = 10_000
    track_connections: bool = True

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError(f"alpha/beta must be positive: {self.alpha}, {self.beta}")
        if self.record_bytes <= 0 or self.header_bytes < 0:
            raise ConfigError("bad record/header sizes")
        if self.hub_count_topdown < 0 or self.hub_count_bottomup < 0:
            raise ConfigError("hub counts cannot be negative")
        if not 0.0 < self.hub_fraction_cap <= 1.0:
            raise ConfigError(
                f"hub fraction cap must be in (0, 1], got {self.hub_fraction_cap}"
            )
        if self.quick_path_threshold < 0:
            raise ConfigError("quick path threshold cannot be negative")
        if self.compression_ratio < 1.0:
            raise ConfigError(
                f"compression ratio must be >= 1, got {self.compression_ratio}"
            )
        if self.use_codec and self.compression_ratio != 1.0:
            raise ConfigError("use either the codec or a fixed ratio, not both")
        if self.bottomup_chunk < 0 or self.bottomup_max_subrounds < 1:
            raise ConfigError("bad bottom-up sub-round parameters")
        if self.group_width is not None and self.group_width < 1:
            raise ConfigError(f"group width must be >= 1, got {self.group_width}")

    # -- derived -----------------------------------------------------------------
    @property
    def variant_name(self) -> str:
        """The Figure 11 tag for this configuration."""
        routing = "relay" if self.use_relay else "direct"
        compute = "cpe" if self.use_cpe_clusters else "mpe"
        return f"{routing}-{compute}"

    def max_shuffle_destinations(self, spm_bytes: int = 64 * 1024) -> int:
        """How many per-destination staging buffers the consumers can hold."""
        per_cpe = (spm_bytes - self.spm_reserved_bytes) // self.staging_buffer_bytes
        return per_cpe * self.roles.n_consumers

"""Erasure-coded checkpoint durability (the ROADMAP's RS(k, m) item).

The buddy checkpointing of :mod:`repro.resilience` survives exactly one
node loss at 2x storage. This package upgrades the durability story to
"provably survives any m simultaneous node/disk losses at (k+m)/k
storage" and makes the proof executable:

- :mod:`repro.durability.gf256` — vectorized GF(256) arithmetic
  (log/exp tables over numpy, matrix inverse by Gauss–Jordan);
- :mod:`repro.durability.rs` — :class:`RSCode`, a systematic
  Vandermonde Reed–Solomon erasure code: any k of k+m shards rebuild
  the payload;
- :mod:`repro.durability.shards` — snapshot serialisation,
  :class:`ShardPlacement` (never the owner, never its buddy, rack-aware
  across fat-tree supernodes), the :class:`ShardedCheckpointStore`
  with per-shard CRC32, background scrub, and heal-on-restore, and
  :func:`make_checkpoint_store`, which builds the buddy or the RS
  :class:`~repro.resilience.checkpoint.DurableStore` the BFS driver calls;
- :mod:`repro.durability.chaos` — seeded chaos campaigns
  (:func:`run_campaign`, ``python -m repro chaos``) sweeping randomized
  fault scenarios inside the loss budget and asserting bit-identical
  recovery against the fault-free run.

Fault *injection* for disks lives with the other injectors in
:mod:`repro.sim.faults` (:class:`~repro.sim.faults.DiskFaultPlan`);
``ResilienceConfig(checkpoint_mode="rs")`` selects this store.
"""

from repro.durability.chaos import (
    CampaignReport,
    ChaosConfig,
    ScenarioResult,
    run_campaign,
)
from repro.durability.gf256 import gf_div, gf_inv, gf_inv_matrix, gf_matmul, gf_mul
from repro.durability.rs import RSCode
from repro.durability.shards import (
    ShardedCheckpointStore,
    ShardPlacement,
    make_checkpoint_store,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

__all__ = [
    "CampaignReport",
    "ChaosConfig",
    "ScenarioResult",
    "run_campaign",
    "gf_div",
    "gf_inv",
    "gf_inv_matrix",
    "gf_matmul",
    "gf_mul",
    "RSCode",
    "ShardedCheckpointStore",
    "ShardPlacement",
    "make_checkpoint_store",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
]

"""Checkpointing / warm-restart tunables."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoverConfig"]


@dataclass(frozen=True)
class RecoverConfig:
    """How replicas checkpoint and how crashed ones come back.

    Snapshots are taken per replica at kernel-event boundaries (the only
    instants fleet state is quiescent, which is what makes them crash-
    consistent and digest-stable); each one records the replica's live
    request records plus the key of a miniature-but-faithful quantized
    KV state.  A restart that reads a corrupt epoch builds that state
    through :mod:`repro.core.serialization` — real packed codes, real
    CRC32 checksums — so corruption and salvage exercise the production
    code path, exactly like :mod:`repro.migrate` does for handoffs.
    """

    #: Wall-clock (simulated) seconds between per-replica snapshots.
    snapshot_interval_s: float = 5.0
    #: Snapshot epochs retained per replica; the recovery ladder walks
    #: them newest-first (snapshot -> salvage -> previous epoch -> cold).
    keep_epochs: int = 2
    #: Recover corrupted snapshots via :func:`repro.core.serialization.
    #: salvage_state` (keep the longest valid block prefix).  ``False``
    #: makes any corrupt epoch unusable — the cold-restart ablation.
    salvage: bool = True
    #: Probability a written snapshot epoch is corrupted at rest (torn
    #: write / disk rot), rolled from a stream keyed
    #: ``[seed, replica, epoch]`` so reruns are byte-identical.
    corrupt_rate: float = 0.0
    #: Seed for the corruption rolls and the miniature payload contents
    #: (independent of :class:`repro.cluster.faults.FaultConfig.seed` so
    #: snapshot fate never perturbs the crash schedule).
    seed: int = 0
    #: Miniature serialized-payload geometry (see
    #: :class:`repro.migrate.MigrationConfig` for the rationale): the
    #: replica's resident context maps proportionally onto
    #: ``payload_blocks`` quantized blocks of ``payload_block_tokens``
    #: tokens x ``payload_heads`` heads x ``payload_head_dim`` dims.
    payload_blocks: int = 8
    payload_block_tokens: int = 16
    payload_heads: int = 2
    payload_head_dim: int = 8

    def __post_init__(self) -> None:
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
        if self.keep_epochs < 1:
            raise ValueError("keep_epochs must be >= 1")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must lie in [0, 1]")
        if self.payload_blocks < 2:
            raise ValueError("payload_blocks must be >= 2 (salvage needs a prefix)")
        if min(self.payload_block_tokens, self.payload_heads, self.payload_head_dim) < 1:
            raise ValueError("payload geometry fields must be positive")

    @property
    def payload_tokens(self) -> int:
        """Miniature tokens one snapshot payload carries."""
        return self.payload_blocks * self.payload_block_tokens

"""Checkpointing / warm-restart tunables."""

from __future__ import annotations

from dataclasses import dataclass

from repro.migrate.config import PayloadPolicy

__all__ = ["RecoverConfig"]


@dataclass(frozen=True)
class RecoverConfig(PayloadPolicy):
    """How replicas checkpoint and how crashed ones come back.

    Snapshots are taken per replica at kernel-event boundaries (the only
    instants fleet state is quiescent, which is what makes them crash-
    consistent and digest-stable); each one records the replica's live
    request records plus the key of a miniature-but-faithful quantized
    KV state.  A restart that reads a corrupt epoch builds that state
    through :mod:`repro.core.serialization` and verifies it under the
    inherited :class:`~repro.migrate.PayloadPolicy` (``salvage`` and the
    ``payload_*`` geometry), exactly as :mod:`repro.migrate` does for
    handoffs.
    """

    #: Wall-clock (simulated) seconds between per-replica snapshots.
    snapshot_interval_s: float = 5.0
    #: Snapshot epochs retained per replica; the recovery ladder walks
    #: them newest-first (snapshot -> salvage -> previous epoch -> cold).
    keep_epochs: int = 2
    #: Probability a written snapshot epoch is corrupted at rest (torn
    #: write / disk rot), rolled from a stream keyed
    #: ``[seed, replica, epoch]`` so reruns are byte-identical.
    corrupt_rate: float = 0.0
    #: Seed for the corruption rolls and the miniature payload contents
    #: (independent of :class:`repro.cluster.faults.FaultConfig.seed` so
    #: snapshot fate never perturbs the crash schedule).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
        if self.keep_epochs < 1:
            raise ValueError("keep_epochs must be >= 1")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must lie in [0, 1]")
        super().__post_init__()

"""Policy knobs for prefill→decode KV migration and its payloads."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MigrationConfig", "PayloadPolicy"]


@dataclass(frozen=True)
class PayloadPolicy:
    """How the miniature-but-faithful serialized KV payload of a handoff
    (:class:`MigrationConfig`) or a snapshot epoch
    (:class:`repro.recover.RecoverConfig`) is shaped and read back: the
    real context maps proportionally onto ``payload_blocks`` quantized
    blocks of ``payload_block_tokens`` tokens x ``payload_heads`` heads x
    ``payload_head_dim`` dims, so corruption and salvage run the
    production code of :mod:`repro.core.serialization` on small arrays.
    """

    #: Keep a damaged payload's longest valid block prefix.  ``False``
    #: keeps nothing (a full re-prefill; an unusable snapshot epoch) —
    #: the ablation the harnesses use to show salvage's value.
    salvage: bool = True
    payload_blocks: int = 8
    payload_block_tokens: int = 16
    payload_heads: int = 2
    payload_head_dim: int = 8

    def __post_init__(self) -> None:
        if self.payload_blocks < 2:
            raise ValueError("payload_blocks must be >= 2 (salvage needs a prefix)")
        if min(self.payload_block_tokens, self.payload_heads, self.payload_head_dim) < 1:
            raise ValueError("payload geometry fields must be positive")

    @property
    def payload_tokens(self) -> int:
        """Miniature tokens one payload carries."""
        return self.payload_blocks * self.payload_block_tokens


@dataclass(frozen=True)
class MigrationConfig(PayloadPolicy):
    """How KV handoffs behave on the way to a decode replica.

    The *rates* of migration faults (drop/corrupt/link-stall) live with
    the other fault machinery in :class:`repro.cluster.faults.FaultConfig`
    so one seed drives every fault stream; this config holds the
    response-side policy.
    """

    #: Wait before re-offering a handoff the destination engine DEFERred
    #: (KV pressure; the request stays pinned on the source meanwhile).
    defer_retry_s: float = 0.25

    def __post_init__(self) -> None:
        if self.defer_retry_s <= 0:
            raise ValueError("defer_retry_s must be positive")
        super().__post_init__()

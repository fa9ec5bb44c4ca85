"""FP16 FlashAttention baseline: exact attention, uncompressed cache.

This is the paper's "FlashAttention / FP16" row — no accuracy change, full
16-bit KV memory footprint.  The cache is an FP16 window that never
flushes, read as is.
"""

from __future__ import annotations

from repro.baselines.base import AttentionBackend, WindowedState

__all__ = ["FP16Attention"]


class FP16Attention(AttentionBackend):
    """Exact FlashAttention over an FP16 cache."""

    name = "fp16"

    def _new_state(self, n_heads: int, head_dim: int) -> WindowedState:
        return WindowedState(n_heads, head_dim)

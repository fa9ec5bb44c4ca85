"""KIVI baseline (Liu et al., 2024): asymmetric KV cache group quantization.

KIVI's layout, reproduced here:

* **Key cache — per-channel**: tokens are grouped along the sequence axis
  (group size ``g``, 64 in the paper's best-accuracy mode); within each
  group every channel gets its own asymmetric scale/zero (statistics over
  the ``g`` tokens).
* **Value cache — per-token**: every token row is quantized with asymmetric
  statistics over channel groups of size ``g``.
* **FP16 residual window**: the most recent ``n_b`` tokens stay in full
  precision and are only quantized once a full group has accumulated.

Attention always runs over the *dequantized* cache (+ FP16 residual) with
exact FlashAttention — this is the "decompress to FP16 then FlashAttention"
pipeline whose dequantization latency Figure 1b charges against KIVI.
Prefill compute is exact; quantization error enters through decode reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.baselines.base import AttentionBackend, WindowedState
from repro.quant.qtensor import Granularity, QuantizedTensor

__all__ = ["KIVIConfig", "KIVIAttention"]


@dataclass(frozen=True)
class KIVIConfig:
    """KIVI hyper-parameters (paper notation: ``KIVI_{g=64, n_b=64}``)."""

    bits: int = 4
    group_size: int = 64
    residual: int = 64

    def __post_init__(self) -> None:
        if self.bits not in (2, 3, 4, 8):
            raise ValueError(f"unsupported bit-width: {self.bits}")
        if self.group_size <= 0 or self.residual <= 0:
            raise ValueError("group_size and residual must be positive")


def _quantize_key_group(chunk: np.ndarray, bits: int) -> QuantizedTensor:
    """Per-channel asymmetric quantization of a ``(heads, g, d)`` chunk."""
    return QuantizedTensor.from_float(
        chunk, bits=bits, symmetric=False, axis=-2, granularity=Granularity.PER_CHANNEL
    )


def _quantize_value_group(chunk: np.ndarray, bits: int, group_size: int) -> QuantizedTensor:
    """Per-token (channel-grouped) asymmetric quantization of a chunk."""
    h, t, d = chunk.shape
    gc = min(group_size, d)
    if d % gc:
        gc = d  # fall back to whole-row statistics for awkward dims
    grouped = chunk.reshape(h, t, d // gc, gc)
    return QuantizedTensor.from_float(
        grouped, bits=bits, symmetric=False, axis=-1, granularity=Granularity.PER_TOKEN
    )


class KIVIAttention(AttentionBackend):
    """KIVI cache compression + exact FlashAttention on dequantized KV."""

    name = "kivi"

    def __init__(self, config: KIVIConfig = KIVIConfig()):
        self.config = config

    def _new_state(self, n_heads: int, head_dim: int) -> WindowedState:
        cfg = self.config
        return WindowedState(n_heads, head_dim, self._encode, cfg.group_size, cfg.residual)

    def _encode(self, chunk_k: np.ndarray, chunk_v: np.ndarray) -> Tuple:
        """One flushed group: per-channel keys, per-token values."""
        cfg = self.config
        return (
            _quantize_key_group(chunk_k, cfg.bits),
            _quantize_value_group(chunk_v, cfg.bits, cfg.group_size),
        )

"""FP8 flash attention backend (FlashAttention-3-style low precision).

Q/K/V tiles are scaled per (head, tile) so their maxima sit at half the
E4M3 range, rounded to FP8, and multiplied on (emulated) FP8 tensor cores
with FP32 accumulation; the probability tile takes the same treatment for
the PV MatMul.  The KV cache stores FP8 values plus one FP16 scale per
(head, tile) — 8.25 effective bits, between FP16 and the INT4/2
progressive cache.

This is the "just use FP8" alternative to FlashQ's INT8 stage: comparable
compute-rate benefits on Hopper, but only ~2x cache compression and no
head-wise 2/4-bit path.  The accuracy harness can sweep it alongside the
other methods.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.base import AttentionBackend, WindowedState
from repro.fp.fp8 import FP8_E4M3, fp8_tile_quantize
from repro.attention.masks import causal_mask_block
from repro.attention.online_softmax import OnlineSoftmaxState

__all__ = ["FP8Attention"]

_TILE = 64


class _FP8Tile(NamedTuple):
    """One stored tile: FP8 values (kept scale-applied) + per-head scales."""

    values: np.ndarray
    scale: np.ndarray

    def dequantize(self) -> np.ndarray:
        return self.values

    @property
    def storage_bits(self) -> int:
        return self.values.size * 8 + self.scale.size * 16


def _fp8_tile(chunk: np.ndarray) -> _FP8Tile:
    vals, scale = fp8_tile_quantize(chunk, FP8_E4M3)
    return _FP8Tile(vals * scale, scale)


class FP8Attention(AttentionBackend):
    """Flash attention with FP8 tile quantization (FA3 low-precision mode)."""

    name = "fp8"

    def __init__(self, tile: int = _TILE):
        self.tile = tile

    def _new_state(self, n_heads: int, head_dim: int) -> WindowedState:
        """Whole tiles are stored as FP8; the tail waits, unrounded."""
        return WindowedState(
            n_heads, head_dim, self._encode, self.tile, self.tile, round_window=False
        )

    @staticmethod
    def _encode(chunk_k: np.ndarray, chunk_v: np.ndarray) -> Tuple[_FP8Tile, _FP8Tile]:
        return _fp8_tile(chunk_k), _fp8_tile(chunk_v)

    def _attend(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, causal: bool, scale: Optional[float]
    ) -> np.ndarray:
        n_q, d = q.shape[-2], q.shape[-1]
        n_k = k.shape[-2]
        sm_scale = scale if scale is not None else 1.0 / np.sqrt(d)
        offset = n_k - n_q
        out = np.zeros_like(q)
        for qs in range(0, n_q, self.tile):
            qe = min(qs + self.tile, n_q)
            q8, q_sc = fp8_tile_quantize(q[..., qs:qe, :], FP8_E4M3)
            state = OnlineSoftmaxState.initial(q.shape[:-2], qe - qs, d_v=d)
            for ks in range(0, n_k, self.tile):
                ke = min(ks + self.tile, n_k)
                if causal and ks > qe - 1 + offset:
                    break
                k8, k_sc = fp8_tile_quantize(k[..., ks:ke, :], FP8_E4M3)
                s_tile = (
                    q_sc * k_sc * (q8.astype(np.float32) @ np.swapaxes(k8, -1, -2).astype(np.float32))
                ) * sm_scale
                if causal:
                    s_tile = s_tile + causal_mask_block(qs, qe - qs, ks, ke - ks, offset)
                v8, v_sc = fp8_tile_quantize(v[..., ks:ke, :], FP8_E4M3)

                def pv_mm(p, vals, v_sc=v_sc):
                    p8, p_sc = fp8_tile_quantize(p, FP8_E4M3)
                    return p_sc * v_sc * (
                        p8.astype(np.float32) @ (vals / v_sc).astype(np.float32)
                    )

                state.update(
                    s_tile,
                    values=v8 * v_sc,
                    matmul=pv_mm,
                )
            o_tile, _ = state.finalize()
            out[..., qs:qe, :] = o_tile
        return out

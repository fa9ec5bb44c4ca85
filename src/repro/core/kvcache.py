"""Blockwise progressively-quantized KV cache (FlashQ storage, §3.1-§3.2).

The cache is a list of fixed-size blocks.  Each block holds the INT4/INT2
progressive codes of ``block_size`` tokens for all KV heads, together with
the integer channel scales/zero-points (INT8) and the per-(head, block)
FP16 stage-1 scale.  Head-wise mixed precision simply means the per-head
``bits`` array handed to :func:`repro.quant.progressive.pq_compress` is not
constant.

Blocks are immutable once written: decode never recompresses old tokens
(the enhanced buffer guarantees new tokens arrive already aligned to block
boundaries).

Because each :class:`ProgressiveBlock` carries its *own* per-head bit
array, blocks within one cache may legally differ in width: the adaptive
precision escalator (:mod:`repro.guard.escalation`) retunes
``head_bits`` between flushes via :meth:`QuantizedKVCache.set_head_bits`,
and only blocks appended afterwards pay the new cost.  Storage accounting
and serialization both honour per-block widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.quant.progressive import (
    ProgressiveBlock,
    legal_bits,
    pq_compress,
    pq_decompress_to_int8,
)

__all__ = ["CacheBlock", "QuantizedKVCache"]


@dataclass
class CacheBlock:
    """One block of compressed keys and values.

    ``k``/``v`` codes have shape ``(heads, length, head_dim)``; the stage-1
    scales live inside the :class:`ProgressiveBlock` (shape
    ``(heads, 1, 1)``).
    """

    k: ProgressiveBlock
    v: ProgressiveBlock
    length: int

    @property
    def storage_bits(self) -> int:
        return self.k.storage_bits + self.v.storage_bits


def _member(stack: ProgressiveBlock, i: int) -> ProgressiveBlock:
    """Block ``i`` of a tile compressed with a leading stack axis."""
    return ProgressiveBlock(
        codes=stack.codes[i],
        s_int=stack.s_int[i],
        z_int=stack.z_int[i],
        bits=stack.bits,
        float_scale=stack.float_scale[i],
    )


class QuantizedKVCache:
    """Append-only cache of :class:`CacheBlock` objects.

    Parameters
    ----------
    n_heads, head_dim:
        KV head count and per-head dimension.
    head_bits:
        Per-head storage bit-width array, shape ``(n_heads,)`` with values
        in {2, 4} (or a uniform width when mixed precision is off).
    block_size:
        Tokens per block (``B_c`` / ``n_b`` — the paper fixes both to 64).
    """

    def __init__(self, n_heads: int, head_dim: int, head_bits: np.ndarray, block_size: int):
        head_bits = np.asarray(head_bits, dtype=np.int32)
        if head_bits.shape != (n_heads,):
            raise ValueError(
                f"head_bits must have shape ({n_heads},), got {head_bits.shape}"
            )
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.head_bits = head_bits
        self.block_size = block_size
        self.blocks: List[CacheBlock] = []

    def __len__(self) -> int:
        return len(self.blocks)

    def set_head_bits(self, head_bits: np.ndarray) -> None:
        """Retune the widths used for *future* blocks (escalation hook).

        Existing blocks are untouched — they already store their own bit
        arrays — so this is a constant-time policy change, not a rewrite.
        """
        head_bits = np.asarray(head_bits, dtype=np.int32)
        if head_bits.shape != (self.n_heads,):
            raise ValueError(
                f"head_bits must have shape ({self.n_heads},), got {head_bits.shape}"
            )
        if not legal_bits(head_bits):
            raise ValueError(f"unsupported bit-widths: {np.unique(head_bits)}")
        self.head_bits = head_bits

    @property
    def seq_len(self) -> int:
        """Total cached tokens across blocks."""
        return sum(b.length for b in self.blocks)

    def append_block(
        self,
        k_codes: np.ndarray,
        v_codes: np.ndarray,
        k_scale: np.ndarray,
        v_scale: np.ndarray,
    ) -> CacheBlock:
        """Compress INT8 codes into a new block and append it.

        ``k_codes``/``v_codes`` have shape ``(heads, length, head_dim)``
        (``length <= block_size``), with their per-(head, block) symmetric
        scales of shape ``(heads, 1, 1)``.  The one-block case of
        :meth:`append_blocks`.
        """
        return self.append_blocks(
            np.asarray(k_codes)[None],
            np.asarray(v_codes)[None],
            np.asarray(k_scale)[None],
            np.asarray(v_scale)[None],
        )[0]

    def append_blocks(
        self,
        k_codes: np.ndarray,
        v_codes: np.ndarray,
        k_scale: np.ndarray,
        v_scale: np.ndarray,
    ) -> List[CacheBlock]:
        """Compress ``n`` stacked blocks of INT8 codes and append them in order.

        ``k_codes``/``v_codes`` have shape ``(n, heads, length, head_dim)``
        and the scales carry one entry per block on their leading axis
        (``(n, heads, 1, 1)``).  One :func:`pq_compress` per K and per V
        covers every block: the channel statistics reduce over the token
        axis only, so each block's codes, ``s_int`` and ``z_int`` are
        bit-identical to compressing it alone.
        """
        k_codes = np.asarray(k_codes)
        v_codes = np.asarray(v_codes)
        if k_codes.shape != v_codes.shape:
            raise ValueError("key and value code shapes must match")
        n, h, length, d = k_codes.shape
        if h != self.n_heads or d != self.head_dim:
            raise ValueError(
                f"block shape {k_codes.shape[1:]} does not match cache "
                f"({self.n_heads} heads, dim {self.head_dim})"
            )
        if length > self.block_size:
            raise ValueError(f"block length {length} exceeds block_size {self.block_size}")
        k_scale = np.asarray(k_scale)
        v_scale = np.asarray(v_scale)
        if k_scale.shape[:1] != (n,) or v_scale.shape[:1] != (n,):
            raise ValueError(f"scales need a leading axis of {n} blocks")
        bits = self.head_bits.reshape(-1, 1, 1)
        k = pq_compress(k_codes, bits=bits, float_scale=k_scale)
        v = pq_compress(v_codes, bits=bits, float_scale=v_scale)
        blocks = [
            CacheBlock(k=_member(k, i), v=_member(v, i), length=length)
            for i in range(n)
        ]
        self.blocks.extend(blocks)
        return blocks

    def iter_decompressed(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]]:
        """Yield per-block ``(k_int8, v_int8, k_scale, v_scale, length)``.

        Decompression to INT8 is the integer path of Algorithm 2; the float
        scales are the stage-1 symmetric scales needed for the score/output
        scaling.
        """
        for block in self.blocks:
            yield (
                pq_decompress_to_int8(block.k),
                pq_decompress_to_int8(block.v),
                block.k.float_scale,
                block.v.float_scale,
                block.length,
            )

    @property
    def storage_bits(self) -> int:
        return sum(b.storage_bits for b in self.blocks)

    @property
    def storage_bytes(self) -> float:
        return self.storage_bits / 8.0

    def effective_bits_per_value(self) -> float:
        """Average stored bits per cached K/V element, metadata included."""
        n = 2 * self.seq_len * self.n_heads * self.head_dim
        return self.storage_bits / n if n else 0.0

    def compression_ratio(self, reference_bits: int = 16) -> float:
        """Compression vs an FP16 cache of the same logical size."""
        n = 2 * self.seq_len * self.n_heads * self.head_dim
        if n == 0 or self.storage_bits == 0:
            return 1.0
        return (n * reference_bits) / self.storage_bits

"""GEAR-L baseline (Kang et al., 2024): quantization + low-rank residual.

GEAR-L compresses the KV cache with group-wise uniform quantization (we use
the KCVT layout the paper's Table 2 references: keys per-channel, values
per-token, like KIVI) and then approximates the *quantization error* with a
rank-``r`` SVD whose factors are stored in FP16:

    X  ~=  Dequant(Q(X)) + U_r S_r V_r^T

A recent-token FP16 residual window is kept exactly as in KIVI.  The extra
low-rank factors buy accuracy at the cost of extra memory and — in the
performance model — extra decode-time reconstruction FLOPs (the "GEAR has
high dequantization overhead" effect of Figure 6).

The low-rank term is computed per flushed group and per head, a streaming
variant of the paper's construction that preserves its error-compensation
behaviour while staying compatible with autoregressive flushing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from repro.baselines.kivi import KIVIAttention, KIVIConfig
from repro.fp.formats import FP16, quantize_to_format
from repro.quant.qtensor import QuantizedTensor

__all__ = ["GEARConfig", "GEARAttention", "low_rank_factors"]


@dataclass(frozen=True)
class GEARConfig(KIVIConfig):
    """GEAR-L hyper-parameters (paper notation: ``GEAR-L_{r=4}``): KIVI's
    plus the rank of the error correction."""

    rank: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


def low_rank_factors(err: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rank-``rank`` factors of a ``(heads, t, d)`` error tensor.

    Returns ``(A, B)`` with shapes ``(heads, t, r)`` and ``(heads, r, d)``
    such that ``A @ B`` is the best rank-``r`` approximation per head.
    Factors are rounded to FP16, as GEAR stores them.
    """
    err = np.asarray(err, dtype=np.float64)
    h, t, d = err.shape
    r = min(rank, t, d)
    a = np.empty((h, t, r))
    b = np.empty((h, r, d))
    for i in range(h):
        u, s, vt = np.linalg.svd(err[i], full_matrices=False)
        a[i] = u[:, :r] * s[:r]
        b[i] = vt[:r, :]
    return quantize_to_format(a, FP16), quantize_to_format(b, FP16)


class _Group(NamedTuple):
    """One flushed group: KIVI's quantized backbone + low-rank error factors."""

    qt: QuantizedTensor
    a: np.ndarray
    b: np.ndarray

    def dequantize(self) -> np.ndarray:
        correction = self.a @ self.b
        return self.qt.dequantize().reshape(correction.shape) + correction

    @property
    def storage_bits(self) -> int:
        return self.qt.storage_bits + (self.a.size + self.b.size) * 16


class GEARAttention(KIVIAttention):
    """GEAR-L compression + exact FlashAttention on reconstructed KV."""

    name = "gear"

    def __init__(self, config: GEARConfig = GEARConfig()):
        super().__init__(config)

    def _encode(self, chunk_k: np.ndarray, chunk_v: np.ndarray) -> Tuple:
        """KIVI's group plus FP16 factors of each side's quantization error."""
        groups = []
        for qt, chunk in zip(super()._encode(chunk_k, chunk_v), (chunk_k, chunk_v)):
            err = chunk - qt.dequantize().reshape(chunk.shape)
            groups.append(_Group(qt, *low_rank_factors(err, self.config.rank)))
        return tuple(groups)

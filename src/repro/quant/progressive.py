"""Progressive quantization: INT8 (symmetric) -> INT4/INT2 (asymmetric).

This is the storage format of FlashQ (paper §2.3 and §3.1, Algorithm 1).
Stage one quantizes a tile symmetrically to INT8 (``s = max|x|/119``) so the
attention MatMuls can run on integer tensor cores.  Stage two re-compresses
the *INT8 codes themselves* channel-wise with an asymmetric quantizer whose
scale and zero-point are **integers** stored in INT8:

    s_int = ceil((max - min) / (2^bits - 1))
    z_int = round(min / s_int)
    q2    = round(q1 / s_int) - z_int            (codes in [0, 2^bits - 1])

Decompression back to INT8 is pure integer arithmetic —
``q1_hat = (q2 + z_int) * s_int`` — which is what makes the dequantization
path cheap enough to live inside the attention kernel (the contrast with
KIVI/GEAR-style FP16 dequantization is the core of Figure 1b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "LEGAL_BITS",
    "ProgressiveConfig",
    "ProgressiveBlock",
    "pq_compress",
    "pq_decompress_to_int8",
    "pq_dequantize",
    "legal_bits",
]

_INT8_CLAMP = 127

#: Storage widths the progressive stage, the code packer and the
#: serialized schema support.
LEGAL_BITS = (2, 3, 4, 8)
_LEGAL_BITS_SET = frozenset(LEGAL_BITS)


def legal_bits(bits: Union[int, float, np.ndarray]) -> bool:
    """Whether every entry of ``bits`` (a scalar or any array) is in
    :data:`LEGAL_BITS`.

    Equivalent to ``np.isin(bits, LEGAL_BITS).all()`` — ``4.0`` is legal;
    ``1``, ``5``, ``4.5`` and NaN are not — as a set test over the Python
    values, which costs a fraction of ``np.isin`` on the few-entry
    per-head arrays every cache block carries.  Callers raise their own
    error type on ``False``.
    """
    return _LEGAL_BITS_SET.issuperset(np.ravel(bits).tolist())


@dataclass(frozen=True)
class ProgressiveConfig:
    """Configuration of the second (storage) quantization stage.

    Attributes
    ----------
    bits:
        Storage bit-width, 2 or 4 in the paper.
    token_axis:
        Axis indexing tokens inside a tile; channel statistics reduce over
        this axis (channel-wise quantization, Eq. 10).
    """

    bits: int = 4
    token_axis: int = -2

    def __post_init__(self) -> None:
        if self.bits not in LEGAL_BITS:
            raise ValueError(f"unsupported progressive bit-width: {self.bits}")


@dataclass
class ProgressiveBlock:
    """A progressively quantized tile of INT8 codes.

    ``codes`` are unsigned ``bits``-wide values; ``s_int``/``z_int`` are the
    integer scale and zero-point per channel (INT8-representable by
    construction).  ``float_scale`` carries the stage-1 symmetric FP16 scale
    of the tile so callers can reconstruct real values.
    """

    codes: np.ndarray
    s_int: np.ndarray
    z_int: np.ndarray
    bits: Union[int, np.ndarray]
    float_scale: np.ndarray

    @property
    def shape(self):
        return self.codes.shape

    @property
    def storage_bits(self) -> int:
        """Stored bits: packed codes + INT8 scale/zero + FP16 tile scale.

        ``bits`` may be a per-head array (head-wise mixed precision); it is
        broadcast against the code array so each element is charged its own
        width.
        """
        if self.codes.size == 0:
            return 0
        bits_map = np.broadcast_to(np.asarray(self.bits), self.codes.shape)
        meta = int(np.prod(self.s_int.shape)) * 8 + int(np.prod(self.z_int.shape)) * 8
        tile_scale = int(np.prod(np.shape(self.float_scale))) * 16
        return int(bits_map.sum()) + meta + tile_scale

    @property
    def storage_bytes(self) -> float:
        return self.storage_bits / 8.0

    def effective_bits_per_value(self) -> float:
        n = int(np.prod(self.codes.shape))
        return self.storage_bits / n if n else 0.0


def pq_compress(
    q1_codes: np.ndarray,
    bits: Union[int, np.ndarray],
    float_scale: np.ndarray,
    token_axis: int = -2,
) -> ProgressiveBlock:
    """Stage-2 compression of INT8 codes to ``bits`` (Algorithm 1, lines
    writing ``K^{q2}`` / ``V^{q2}``).

    Parameters
    ----------
    q1_codes:
        INT8 symmetric codes of a tile, shape ``(..., tokens, channels)`` by
        default (``token_axis`` selects the token axis).
    bits:
        Storage width (2 or 4), either a scalar or an array broadcastable to
        the channel statistics (e.g. shape ``(heads, 1, 1)`` for head-wise
        mixed precision, §3.2).
    float_scale:
        Stage-1 FP16 scale of the tile, retained for dequantization.
    """
    q1 = np.asarray(q1_codes, dtype=np.int32)
    bits_arr = np.asarray(bits)
    if not legal_bits(bits_arr):
        raise ValueError(f"unsupported progressive bit-width(s): {np.unique(bits_arr)}")
    hi = 2**bits_arr.astype(np.int32) - 1
    cmin = q1.min(axis=token_axis, keepdims=True)
    cmax = q1.max(axis=token_axis, keepdims=True)
    # Integer ceil-divide; a constant channel still gets scale 1.
    s_int = np.maximum((cmax - cmin + hi - 1) // hi, 1).astype(np.int32)
    z_int = np.rint(cmin / s_int).astype(np.int32)
    # round(q1 / s_int) in integer arithmetic: (q1 + s/2) // s for q1
    # shifted non-negative.  NumPy's rint on the float ratio is exact for
    # the magnitudes involved (|q1| <= 127), so use it for clarity.
    codes = np.rint(q1 / s_int).astype(np.int32) - z_int
    codes = np.clip(codes, 0, hi).astype(np.uint8)
    return ProgressiveBlock(
        codes=codes,
        s_int=s_int.astype(np.int16),
        z_int=z_int.astype(np.int16),
        bits=bits,
        float_scale=np.asarray(float_scale, dtype=np.float64),
    )


def pq_decompress_to_int8(block: ProgressiveBlock) -> np.ndarray:
    """Integer decompression back to INT8 codes (Algorithm 2, line
    ``K^{q1} = K^{q2} * s_int + z``).

    The result is clamped to the signed INT8 range; rounding in stage 2 can
    push reconstructions at most one scale step past the original extrema.
    """
    q1_hat = (block.codes.astype(np.int32) + block.z_int.astype(np.int32)) * block.s_int.astype(
        np.int32
    )
    return np.clip(q1_hat, -_INT8_CLAMP, _INT8_CLAMP).astype(np.int8)


def pq_dequantize(block: ProgressiveBlock, float_scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Full dequantization to float: stage-2 integer decode, then stage-1
    symmetric scale.  ``float_scale`` overrides the stored tile scale."""
    scale = block.float_scale if float_scale is None else np.asarray(float_scale)
    return pq_decompress_to_int8(block).astype(np.float64) * scale

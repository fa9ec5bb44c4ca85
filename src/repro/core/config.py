"""TurboAttention configuration.

Defaults follow §5.2 of the paper: block sizes ``B_r = B_c = 64``, decode
buffer ``n_b = 64``, SAS threshold ``n_r = -6``, and head-wise mixed
precision with half the heads at 2-bit (the rest at 4-bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.quant.progressive import LEGAL_BITS
from repro.sas.softmax import SASConfig

__all__ = ["TurboConfig"]


@dataclass(frozen=True)
class TurboConfig:
    """Hyper-parameters of the TurboAttention kernels.

    Attributes
    ----------
    block_q:
        Query tile size ``B_r``.
    block_k:
        Key/value tile size ``B_c`` (also the cache block size).
    buffer_size:
        Decode buffer capacity ``n_b``; the buffer flushes into the
        progressive cache every ``buffer_size`` generated tokens, one
        cache block per flush, so it may not exceed ``block_k``.
    kv_bits:
        Storage bit-width of the KV cache when mixed precision is off.
    mixed_precision:
        Enable head-wise 2/4-bit mixed precision (§3.2).
    two_bit_fraction:
        Fraction of heads compressed to 2-bit under mixed precision; the
        paper uses 0.5.
    head_selection:
        Name of the head-selection metric: ``"priority"`` (Eq. 11) or one of
        the ablation baselines ``"entropy"`` / ``"minmax"`` /
        ``"variation"`` / ``"random"``.
    sas:
        SAS configuration; set ``use_sas=False`` to fall back to exact FP32
        exponentiation (the FlashQ-only ablation of Table 4).
    use_sas:
        Whether the kernels use SAS or exact ``exp``.
    quantize_matmuls:
        Whether the QK^T and PV MatMuls run on INT8 codes (FlashQ).  With
        this off and ``use_sas=True`` the kernels become the SAS-only
        ablation of Table 4.
    int8_max_code:
        Symmetric INT8 code bound; the paper uses 119 to leave clamping
        headroom (Algorithm 1).
    clamp_code:
        Clamp bound applied when decode tokens are quantized with the
        frozen universal scale (§3.3).
    """

    block_q: int = 64
    block_k: int = 64
    buffer_size: int = 64
    kv_bits: int = 4
    mixed_precision: bool = False
    two_bit_fraction: float = 0.5
    head_selection: str = "priority"
    sas: SASConfig = field(default_factory=SASConfig)
    use_sas: bool = True
    quantize_matmuls: bool = True
    int8_max_code: int = 119
    clamp_code: int = 119

    def __post_init__(self) -> None:
        if self.block_q <= 0 or self.block_k <= 0:
            raise ValueError("block sizes must be positive")
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.buffer_size > self.block_k:
            raise ValueError(
                f"buffer_size {self.buffer_size} exceeds block_k {self.block_k}: "
                "each buffer flush must fit in one cache block"
            )
        if self.kv_bits not in LEGAL_BITS:
            raise ValueError(f"unsupported kv_bits: {self.kv_bits}")
        if not 0.0 <= self.two_bit_fraction <= 1.0:
            raise ValueError("two_bit_fraction must lie in [0, 1]")
        if self.head_selection not in ("priority", "entropy", "minmax", "variation", "random"):
            raise ValueError(f"unknown head_selection: {self.head_selection!r}")
        if not 1 <= self.int8_max_code <= 127:
            raise ValueError("int8_max_code must lie in [1, 127]")

    def average_kv_bits(self) -> float:
        """Nominal average code bits per cached value (excl. metadata)."""
        if not self.mixed_precision:
            return float(self.kv_bits)
        return 2.0 * self.two_bit_fraction + 4.0 * (1.0 - self.two_bit_fraction)

"""Per-method attention kernel cost models.

Four method families, matching the paper's Figure 6/7 sweep:

* ``fp16`` — stock FlashAttention: FP16 tensor-core MatMuls, FP32 CUDA-core
  softmax, FP16 KV cache.
* ``turbo`` — TurboAttention: INT8 tensor-core MatMuls, SAS softmax
  (tensor-core polynomial + tiny LUT), progressive INT4/2 cache read with
  *integer* in-kernel dequantization, fused quantization of Q/K/V tiles.
* ``kivi`` — KV cache stored INT4/2 with FP16 group metadata, but attention
  requires a *separate dequantization pass*: read compressed cache, write
  FP16 KV to HBM, then run stock FP16 FlashAttention over it.  This is the
  "decompress then FlashAttention" pipeline whose overhead Figure 1b/6
  charges against KIVI.
* ``gear`` — like ``kivi`` plus a rank-``r`` low-rank reconstruction GEMM
  per decode step and FP16 factor reads.

Counts are parameterized by :class:`AttentionGeometry`; the per-element
constants below are the calibration knobs of the model and are documented
inline.  They were set so that the FP16 prefill softmax share lands in the
paper's ">30% of attention execution time" regime (§4) — everything else
follows from datasheet rates and byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Union

import numpy as np

from repro.perf.counts import OpCounts
from repro.perf.gpu import GPUSpec, A100_80GB

__all__ = [
    "AttentionGeometry",
    "MethodSpec",
    "METHODS",
    "attention_counts",
    "attention_latency",
]

# --- calibration constants (ops per score element unless noted) -----------
#: FP32 CUDA ops per score element in stock flash softmax: exponentiation
#: (SFU), running max, subtract, rescale multiply, row-sum accumulate.
SOFTMAX_FP32_OPS = 8.0
#: SAS per-element work executed as FP16 tensor-core FLOPs: degree-3 Horner
#: (3 FMA = 6 FLOPs) plus the LUT multiply.
SAS_FP16_TC_OPS = 8.0
#: Residual FP32 bookkeeping SAS cannot remove (max/sum in the online
#: softmax accumulator).
SAS_FP32_OPS = 2.0
#: FP32 ops per element to quantize an activation tile to INT8
#: (scale reciprocal multiply + round; the tile max reduction amortizes).
QUANT_FP32_OPS = 2.0
#: Integer ALU ops per cached element for progressive integer
#: dequantization inside the turbo kernel: unpack nibbles (shift/mask),
#: widen, multiply by s_int, add z_int, and re-layout into the IMMA operand
#: format.  This per-element work does not shrink with the storage width,
#: which is why the measured decode speedup (paper: up to 1.7x) sits well
#: below the raw 4.4x byte reduction.
PQ_DEQUANT_INT_OPS = 8.0
#: FP16 CUDA ops per cached element for KIVI/GEAR-style float
#: dequantization (unpack, subtract zero-point, scale multiply, convert).
FP16_DEQUANT_OPS = 4.0


@dataclass(frozen=True)
class AttentionGeometry:
    """Shape of one attention call (one layer, all heads, whole batch).

    ``kv_len`` may be an int64 array: every element count below is then
    the scalar formula evaluated element-wise, one lane per context
    length (the serving engine prices a whole decode stretch that way).
    """

    batch: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    q_len: int
    kv_len: Union[int, np.ndarray]
    causal: bool = True

    def __post_init__(self) -> None:
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be a multiple of n_kv_heads")
        kv_min = self.kv_len.min() if isinstance(self.kv_len, np.ndarray) else self.kv_len
        if min(self.batch, self.head_dim, self.q_len, kv_min) <= 0:
            raise ValueError("geometry dimensions must be positive")

    @property
    def score_elements(self) -> float:
        """Entries of the S/P matrices actually computed."""
        full = self.batch * self.n_heads * self.q_len * self.kv_len
        if self.causal and self.q_len > 1:
            # Triangular fraction for square prefill; decode (q_len=1)
            # attends to everything.
            return full * (self.kv_len + 1) / (2 * self.kv_len)
        return full

    @property
    def q_elements(self) -> float:
        return self.batch * self.n_heads * self.q_len * self.head_dim

    @property
    def kv_elements(self) -> float:
        """K plus V elements (hence the factor 2)."""
        return 2.0 * self.batch * self.n_kv_heads * self.kv_len * self.head_dim

    @property
    def o_elements(self) -> float:
        return self.q_elements


@dataclass(frozen=True)
class MethodSpec:
    """Cost-model description of one attention method."""

    name: str
    kind: str  # "fp16" | "turbo" | "dequant"
    #: Effective stored bits per KV element including group metadata.
    kv_bits: float = 16.0
    #: Rank of the GEAR low-rank reconstruction (0 = none).
    lowrank_rank: int = 0
    #: Peak-resident multiplier on the KV footprint.  The paper's
    #: measurement harness (HuggingFace PyTorch) reallocates the FP16 cache
    #: on every append (``torch.cat``) and keeps dequantized working copies
    #: for the decompress-then-flash baselines, so the transient footprint
    #: sits well above the packed size; TurboAttention appends into
    #: preallocated compressed blocks.  Calibrated against the paper's
    #: observed OOM boundaries (Figure 6: FP16 OOMs past ~4k context at
    #: batch 4 while the compressed methods reach 32k).
    cache_workspace_factor: float = 1.0

    def with_bits(self, kv_bits: float) -> "MethodSpec":
        return replace(self, kv_bits=kv_bits)


def _fp16_flash(geom: AttentionGeometry, cache_resident: bool) -> OpCounts:
    """Stock FlashAttention.  ``cache_resident``: KV already in HBM as FP16
    cache (decode) vs produced by the projection (prefill, also written)."""
    score, kv = geom.score_elements, geom.kv_elements
    c = OpCounts(kernel_launches=1)
    c.fp16_tc = 4.0 * score * geom.head_dim  # QK^T plus PV, 2 ops per MAC
    c.fp32_cuda = SOFTMAX_FP32_OPS * score
    c.bytes_read = 2.0 * (geom.q_elements + kv)
    c.bytes_written = 2.0 * geom.o_elements
    if not cache_resident:
        c.bytes_written += 2.0 * kv  # write the FP16 cache
    return c


def _turbo(geom: AttentionGeometry, kv_bits: float, prefill: bool) -> OpCounts:
    score, q, kv = geom.score_elements, geom.q_elements, geom.kv_elements
    c = OpCounts(kernel_launches=1)
    c.int8_tc = 4.0 * score * geom.head_dim  # QK^T plus PV, 2 ops per MAC
    c.fp16_tc = SAS_FP16_TC_OPS * score
    c.fp32_cuda = SAS_FP32_OPS * score
    # Quantize the probability tile for the PV MatMul.
    c.fp32_cuda += QUANT_FP32_OPS * score
    if prefill:
        # Read FP16 activations from the (fused) projection, quantize all
        # three tiles, write the progressive cache.
        c.bytes_read = 2.0 * (q + kv)
        c.fp32_cuda += QUANT_FP32_OPS * (q + kv)
        c.int_alu = PQ_DEQUANT_INT_OPS * kv  # stage-2 compress
        c.bytes_written = 2.0 * geom.o_elements + kv * kv_bits / 8.0
    else:
        # Read the compressed cache, dequantize to INT8 in integer math.
        c.bytes_read = 2.0 * q + kv * kv_bits / 8.0
        c.fp32_cuda += QUANT_FP32_OPS * q
        c.int_alu = PQ_DEQUANT_INT_OPS * kv
        c.bytes_written = 2.0 * geom.o_elements
    return c


def _dequant_pipeline(
    geom: AttentionGeometry, kv_bits: float, prefill: bool, rank: int
) -> OpCounts:
    """KIVI/GEAR: separate (de)compression kernels around FP16 flash."""
    flash = _fp16_flash(geom, cache_resident=True)
    kv = geom.kv_elements
    extra = OpCounts(kernel_launches=1)
    if prefill:
        # Prefill attention is exact over the projection's FP16 output; a
        # compression kernel then reads FP16 KV and writes the packed cache.
        extra.bytes_read = 2.0 * kv
        extra.bytes_written = kv * kv_bits / 8.0
        extra.fp16_cuda = FP16_DEQUANT_OPS * kv
        if rank > 0:
            # SVD factor build is charged as a few GEMM-equivalent passes.
            extra.fp16_tc = 8.0 * kv * rank
            extra.bytes_written += 2.0 * rank * (
                kv / geom.head_dim + kv / geom.kv_len
            )
    else:
        # Decompression kernel: read packed cache, write FP16 KV, then the
        # flash kernel re-reads that FP16 KV (already counted in `flash`).
        extra.bytes_read = kv * kv_bits / 8.0
        extra.bytes_written = 2.0 * kv
        extra.fp16_cuda = FP16_DEQUANT_OPS * kv
        if rank > 0:
            # Low-rank reconstruction GEMM: A (t x r) @ B (r x d) per head
            # for both K and V, plus factor reads.
            extra.fp16_tc += 2.0 * rank * kv
            extra.bytes_read += 2.0 * rank * (kv / geom.head_dim + kv / geom.kv_len)
    return flash + extra


#: Effective bits include group metadata: KIVI/GEAR group-of-64 FP16
#: scale+zero adds 0.5 bits/element; GEAR's rank-4 factors add ~0.6 more at
#: the paper's head sizes.  Turbo stores INT8 scales/zeros (0.25 bits) plus
#: one FP16 tile scale (amortized).
METHODS: Dict[str, MethodSpec] = {
    "fp16": MethodSpec(name="fp16", kind="fp16", kv_bits=16.0, cache_workspace_factor=3.25),
    "turbo4": MethodSpec(name="turbo4", kind="turbo", kv_bits=4.3, cache_workspace_factor=1.2),
    "turbo_mixed": MethodSpec(
        name="turbo_mixed", kind="turbo", kv_bits=3.3, cache_workspace_factor=1.2
    ),
    "turbo2": MethodSpec(name="turbo2", kind="turbo", kv_bits=2.3, cache_workspace_factor=1.2),
    "kivi4": MethodSpec(name="kivi4", kind="dequant", kv_bits=4.5, cache_workspace_factor=2.0),
    "kivi2": MethodSpec(name="kivi2", kind="dequant", kv_bits=2.5, cache_workspace_factor=2.0),
    "gear4": MethodSpec(
        name="gear4", kind="dequant", kv_bits=5.1, lowrank_rank=4, cache_workspace_factor=2.0
    ),
}


def attention_counts(
    method: MethodSpec, geom: AttentionGeometry, prefill: bool
) -> OpCounts:
    """Operation counts of one attention call under ``method``."""
    if method.kind == "fp16":
        return _fp16_flash(geom, cache_resident=not prefill)
    if method.kind == "turbo":
        return _turbo(geom, method.kv_bits, prefill)
    if method.kind == "dequant":
        return _dequant_pipeline(geom, method.kv_bits, prefill, method.lowrank_rank)
    raise ValueError(f"unknown method kind: {method.kind!r}")


def attention_latency(
    method: MethodSpec,
    geom: AttentionGeometry,
    prefill: bool,
    gpu: Optional[GPUSpec] = None,
) -> float:
    """Roofline latency (seconds) of one attention call."""
    gpu = gpu if gpu is not None else A100_80GB
    return gpu.latency(attention_counts(method, geom, prefill))

"""End-to-end model geometry and the cost of its linear parts.

A cost model of the linear parts (QKV/O projections, SwiGLU FFN, LM
head), which the paper keeps in FP16 ("all other parts of the model are
maintained in FP16"), next to the per-method attention costs.  Whole-step
latency is :func:`repro.perf.tp.tp_step_latency`; this module also holds
the Figure 1a/1c phase split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.perf.attention_costs import (
    AttentionGeometry,
    MethodSpec,
    attention_counts,
)
from repro.perf.counts import OpCounts
from repro.perf.gpu import GPUSpec, A100_80GB

__all__ = ["ModelGeometry", "linear_counts", "phase_breakdown"]


@dataclass(frozen=True)
class ModelGeometry:
    """Transformer geometry for the performance model.

    ``phi3_medium()`` matches the model the paper benchmarks (Phi3-medium:
    40 layers, 40 heads x 128, 10 KV heads, FFN 17920, vocab 32064).
    """

    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    d_ff: int
    vocab_size: int
    weight_bits: float = 16.0

    @property
    def d_model(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    @property
    def linear_params(self) -> float:
        """Parameters in projections + FFN (per all layers) + LM head."""
        d = self.d_model
        per_layer = d * d + 2 * d * self.kv_dim + d * d + 3 * d * self.d_ff
        return self.n_layers * per_layer + d * self.vocab_size

    @property
    def weight_bytes(self) -> float:
        return self.linear_params * self.weight_bits / 8.0

    @classmethod
    def phi3_medium(cls) -> "ModelGeometry":
        return cls(
            n_layers=40,
            n_heads=40,
            n_kv_heads=10,
            head_dim=128,
            d_ff=17_920,
            vocab_size=32_064,
        )

    def attention_geometry(
        self, batch: int, q_len: int, kv_len: int, causal: bool = True
    ) -> AttentionGeometry:
        return AttentionGeometry(
            batch=batch,
            n_heads=self.n_heads,
            n_kv_heads=self.n_kv_heads,
            head_dim=self.head_dim,
            q_len=q_len,
            kv_len=kv_len,
            causal=causal,
        )


def linear_counts(model: ModelGeometry, batch: int, q_len: int) -> OpCounts:
    """Counts for every linear layer of one forward pass.

    GEMM FLOPs are ``2 * params * tokens``; weights are read once per pass
    (decode is weight-bandwidth-bound at small batch, the usual LLM
    roofline), activations once per layer.
    """
    tokens = batch * q_len
    c = OpCounts(kernel_launches=6 * model.n_layers + 1)
    c.fp16_tc = 2.0 * model.linear_params * tokens
    c.bytes_read = model.weight_bytes + 10.0 * tokens * model.d_model * 2.0
    c.bytes_written = 8.0 * tokens * model.d_model * 2.0
    return c


def phase_breakdown(
    method: MethodSpec,
    model: ModelGeometry,
    batch: int,
    prompt_len: int,
    gen_len: int,
    gpu: Optional[GPUSpec] = None,
) -> Dict[str, float]:
    """Seconds per phase for a full generation (Figure 1a/1c shares).

    Phases: ``linear`` (projections/FFN), ``attention`` (everything inside
    the attention kernels, including any dequantization pipeline).
    """
    gpu = gpu if gpu is not None else A100_80GB
    # Prefill.
    attn = gpu.latency(
        attention_counts(method, model.attention_geometry(batch, prompt_len, prompt_len), True)
        * model.n_layers
    )
    lin = gpu.latency(linear_counts(model, batch, prompt_len))
    # Decode steps at the midpoint KV length (trapezoidal approximation).
    mid_kv = prompt_len + gen_len // 2
    attn += gen_len * gpu.latency(
        attention_counts(method, model.attention_geometry(batch, 1, mid_kv, causal=True), False)
        * model.n_layers
    )
    lin += gen_len * gpu.latency(linear_counts(model, batch, 1))
    return {"linear": lin, "attention": attn, "total": lin + attn}

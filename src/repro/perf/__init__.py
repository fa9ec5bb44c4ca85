"""Analytical A100 performance model.

The paper's efficiency results (Figures 1, 6, 7a) come from Triton kernels
on an A100-80GB.  Without the hardware we reproduce the *shape* of those
results from first principles, using the same roofline arguments the paper
makes:

* MatMuls run on tensor cores — FP16 at 312 TFLOPS, INT8 at 624 TOPS.
* Exponentiation runs on FP32 CUDA cores at ~3% of FP16 tensor throughput
  (the §2.4 bottleneck SAS removes).
* Decode attention is memory-bound on KV-cache bytes; compressing the
  cache divides those bytes, while KIVI/GEAR-style "decompress to FP16
  then FlashAttention" pipelines *add* traffic and CUDA-core work.

Modules:

* :mod:`repro.perf.gpu` — device specification (A100 defaults).
* :mod:`repro.perf.counts` — operation/byte counting primitives.
* :mod:`repro.perf.attention_costs` — per-method attention kernel costs.
* :mod:`repro.perf.e2e` — model geometry and linear-layer costs.
* :mod:`repro.perf.memory` — weight/KV footprints, max batch, OOM.
* :mod:`repro.perf.throughput` — end-to-end tokens/s.
* :mod:`repro.perf.kernelsim` — tile-level kernel simulator producing the
  phase breakdowns of Figure 1b.
* :mod:`repro.perf.tp` — whole-model step latency (linear + attention,
  sharded over ``tp`` GPUs with per-layer all-reduces from the
  link-bandwidth model) and pooled replica KV budgets.
"""

from repro.perf.gpu import GPUSpec, A100_80GB
from repro.perf.counts import OpCounts
from repro.perf.attention_costs import (
    AttentionGeometry,
    attention_counts,
    attention_latency,
    METHODS,
)
from repro.perf.e2e import ModelGeometry, phase_breakdown
from repro.perf.memory import MemoryModel
from repro.perf.tp import replica_kv_budget, tp_step_latency
from repro.perf.throughput import generation_throughput, max_throughput
from repro.perf.roofline import RooflinePoint, roofline

__all__ = [
    "GPUSpec",
    "A100_80GB",
    "OpCounts",
    "AttentionGeometry",
    "attention_counts",
    "attention_latency",
    "METHODS",
    "ModelGeometry",
    "phase_breakdown",
    "MemoryModel",
    "replica_kv_budget",
    "tp_step_latency",
    "generation_throughput",
    "max_throughput",
    "RooflinePoint",
    "roofline",
]

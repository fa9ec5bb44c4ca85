"""End-to-end generation throughput (Figure 7a).

Throughput = generated tokens / wall time for a (prompt, generation)
workload at a given batch, with OOM enforced by the memory model.  Maximum
throughput sweeps the batch axis — compressed caches admit much larger
batches before OOM, which is where TurboAttention's 2.37x over FP16 comes
from (its per-step latency advantage compounds with the batch headroom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.perf.attention_costs import MethodSpec
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import GPUSpec, A100_80GB
from repro.perf.memory import MemoryModel
from repro.perf.tp import tp_step_latency

__all__ = ["ThroughputPoint", "generation_throughput", "max_throughput"]


@dataclass(frozen=True)
class ThroughputPoint:
    """One (batch, throughput) measurement; ``oom`` marks infeasibility."""

    batch: int
    tokens_per_second: float
    latency_seconds: float
    oom: bool


def generation_throughput(
    method: MethodSpec,
    model: ModelGeometry,
    batch: int,
    prompt_len: int,
    gen_len: int,
    gpu: Optional[GPUSpec] = None,
    memory: Optional[MemoryModel] = None,
) -> ThroughputPoint:
    """Tokens/s for one workload, or an OOM marker."""
    gpu = gpu if gpu is not None else A100_80GB
    memory = memory if memory is not None else MemoryModel(model, gpu)
    if not memory.fits(method, batch, prompt_len + gen_len):
        return ThroughputPoint(batch=batch, tokens_per_second=0.0, latency_seconds=float("inf"), oom=True)
    total = tp_step_latency(method, model, batch, prompt_len, prompt_len, prefill=True, gpu=gpu)
    # Decode at the trapezoidal-midpoint KV length.
    mid_kv = prompt_len + gen_len // 2
    total += gen_len * tp_step_latency(method, model, batch, 1, mid_kv, prefill=False, gpu=gpu)
    return ThroughputPoint(
        batch=batch,
        tokens_per_second=batch * gen_len / total,
        latency_seconds=total,
        oom=False,
    )


def max_throughput(
    method: MethodSpec,
    model: ModelGeometry,
    prompt_len: int,
    gen_len: int,
    gpu: Optional[GPUSpec] = None,
    memory: Optional[MemoryModel] = None,
    batch_limit: int = 4096,
) -> ThroughputPoint:
    """Best tokens/s over feasible batch sizes (powers of two + max batch)."""
    gpu = gpu if gpu is not None else A100_80GB
    memory = memory if memory is not None else MemoryModel(model, gpu)
    best: Optional[ThroughputPoint] = None
    candidates = [1 << i for i in range(0, batch_limit.bit_length())]
    candidates.append(memory.max_batch(method, prompt_len + gen_len, limit=batch_limit))
    for batch in sorted(set(b for b in candidates if 0 < b <= batch_limit)):
        point = generation_throughput(
            method, model, batch, prompt_len, gen_len, gpu=gpu, memory=memory
        )
        if point.oom:
            break
        if best is None or point.tokens_per_second > best.tokens_per_second:
            best = point
    if best is None:
        return ThroughputPoint(batch=0, tokens_per_second=0.0, latency_seconds=float("inf"), oom=True)
    return best

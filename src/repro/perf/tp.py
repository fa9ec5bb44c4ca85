"""Tensor-parallel sharding cost model.

Megatron-style intra-layer tensor parallelism over ``tp`` GPUs:

* **Compute/bytes shard.**  Attention heads and FFN columns are split
  across ranks, so every FLOP/byte field of the per-rank :class:`OpCounts`
  is the single-GPU count divided by ``tp``.  Kernel-launch overhead does
  *not* shard — each rank launches the same kernels — which is one of the
  two terms that caps scaling.
* **Collectives.**  Each decoder layer performs two all-reduces over the
  token activations (after the attention output projection and after the
  FFN down projection), costed by :meth:`repro.perf.gpu.GPUSpec.allreduce_time`
  from the link-bandwidth model.  This is the other saturating term: the
  bandwidth component amortizes with ``tp`` but the per-hop latency grows
  linearly with the ring size.
* **Memory.**  Weights and KV cache shard across ranks, so a ``tp``-way
  replica pools ``tp`` HBMs: the KV budget grows superlinearly per rank
  because the weight shard shrinks (:func:`replica_kv_budget`).

At ``tp=1`` there are no collectives and no sharding, so the single-GPU
serving engine is the ``tp=1`` special case of :func:`tp_step_latency`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

import numpy as np

from repro.perf.attention_costs import MethodSpec, attention_counts
from repro.perf.counts import OpCounts
from repro.perf.e2e import ModelGeometry, linear_counts
from repro.perf.gpu import GPUSpec, A100_80GB

__all__ = [
    "shard_counts",
    "allreduce_bytes_per_layer",
    "tp_step_latency",
    "decode_step_latency_batch",
    "replica_kv_budget",
]

#: All-reduced activations travel in FP16.
_ACT_BYTES = 2.0


def shard_counts(counts: OpCounts, tp: int) -> OpCounts:
    """Per-rank counts: FLOPs and HBM bytes divide by ``tp``; the kernel
    launch count (fixed per-rank overhead) does not."""
    if tp <= 1:
        return counts
    sharded = counts * (1.0 / tp)
    return replace(sharded, kernel_launches=counts.kernel_launches)


def allreduce_bytes_per_layer(model: ModelGeometry, batch: int, q_len: int) -> float:
    """FP16 bytes moved by ONE of a layer's two activation all-reduces."""
    return _ACT_BYTES * batch * q_len * model.d_model


def tp_step_latency(
    method: MethodSpec,
    model: ModelGeometry,
    batch: int,
    q_len: int,
    kv_len: Union[int, np.ndarray],
    prefill: bool,
    tp: int = 1,
    gpu: Optional[GPUSpec] = None,
) -> Union[float, np.ndarray]:
    """Latency (s) of one full-model forward step on a ``tp``-way replica.

    An int64 array ``kv_len`` prices one step per element and returns an
    array (see :func:`decode_step_latency_batch`).
    """
    if tp < 1:
        raise ValueError("tp must be >= 1")
    gpu = gpu if gpu is not None else A100_80GB
    attn = attention_counts(
        method, model.attention_geometry(batch, q_len, kv_len), prefill
    ) * model.n_layers
    lin = linear_counts(model, batch, q_len)
    compute = gpu.latency(shard_counts(attn, tp)) + gpu.latency(shard_counts(lin, tp))
    if tp == 1:
        return compute
    # Two activation all-reduces per decoder layer (attention out, FFN out).
    ar = 2 * model.n_layers * gpu.allreduce_time(
        allreduce_bytes_per_layer(model, batch, q_len), tp
    )
    return compute + ar


def decode_step_latency_batch(
    method: MethodSpec,
    model: ModelGeometry,
    batch: int,
    kv_lens,
    tp: int = 1,
    gpu: Optional[GPUSpec] = None,
) -> np.ndarray:
    """``tp_step_latency(..., q_len=1, prefill=False)`` over an array of
    context lengths.

    This is the scalar cost model evaluated once with an array ``kv_len``
    (:class:`AttentionGeometry` and :meth:`GPUSpec.latency` work
    element-wise), so element ``i`` is bit-identical to the scalar
    ``tp_step_latency(method, model, batch, 1, kv_lens[i], prefill=False,
    tp, gpu)``.  The serving simulator's bulk decode advance
    (:meth:`repro.serving.engine.ServingEngine.decode_steps`) relies on
    that to collapse thousands of per-step calls into one;
    ``tests/test_cost_model_arrays.py`` pins it.
    """
    return tp_step_latency(
        method, model, batch, 1, np.asarray(kv_lens, dtype=np.int64),
        prefill=False, tp=tp, gpu=gpu,
    )


def replica_kv_budget(
    model: ModelGeometry,
    tp: int = 1,
    gpu: Optional[GPUSpec] = None,
    reserve_gb: float = 6.5,
) -> float:
    """Pooled KV-cache byte budget of one ``tp``-way replica.

    Each rank reserves ``reserve_gb`` for activations/workspace and holds a
    ``1/tp`` weight shard; the rest of all ``tp`` HBMs is KV capacity.
    """
    if tp < 1:
        raise ValueError("tp must be >= 1")
    gpu = gpu if gpu is not None else A100_80GB
    return tp * (gpu.hbm_capacity_gb * 1e9 - reserve_gb * 1e9) - model.weight_bytes

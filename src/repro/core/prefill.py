"""TurboAttention prefill kernel (paper Algorithm 1).

The flash-attention tiling loop with three changes:

1. Q/K/V tiles are quantized to symmetric INT8 (scale ``max|x|/119`` per
   (head, tile)) and both MatMuls run as integer GEMMs (Eq. 6).
2. The exponential — both the probability tile and the running-max
   correction factor — is SAS instead of FP32 ``exp``.
3. After a key/value tile is consumed it is progressively compressed
   (INT8 -> INT4/2, channel-wise, integer scales) and written to the
   quantized KV cache; the ragged tail that doesn't fill a block goes to
   the decode buffer instead, already in INT8 under the universal scale
   (a tail longer than the buffer flushes into a shorter cache block
   whenever the buffer fills, exactly as decode does).

The attention itself is :func:`repro.core.decode._attend`, shared with the
decode kernel: the flattened INT8 core, or its loop twin under a guard, the
FP16-MatMul ablation or a failed int32 bound.  Prefill passes the loop its
sanitized float tiles, so a guard-flagged query or K/V tile runs its
MatMuls in FP16 over them.

Grouped-query attention is supported: ``q`` may carry ``G`` query heads per
KV head; the kernel broadcasts K/V across the group while the cache stores
only the KV heads.

Numerics note: integer products are computed with int32 accumulation via
:func:`repro.quant.integer_gemm.int_matmul` and then scaled in float64.
Because every scale here is a per-(head, tile) *scalar*, this is bit-exact
to an implementation that keeps the accumulator in integers until the final
scaling, i.e. exactly what the Triton kernel in the paper executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.decode import _attend, _exp_fn, quantize_tile
from repro.core.kvcache import QuantizedKVCache
from repro.guard.numerics import check_finite_tile, check_scale
from repro.guard.report import GuardConfig, GuardReport
# Unused here since the kernels share one loop, but bench/trace.py still
# patches this name to count prefill's integer GEMMs.
from repro.quant.integer_gemm import int_matmul  # noqa: F401

__all__ = ["PrefillResult", "turbo_prefill", "quantize_tile"]


@dataclass
class PrefillResult:
    """Output of the prefill kernel.

    Attributes
    ----------
    output:
        Attention output, shape ``(q_heads, n, head_dim)``.
    lse:
        Row-wise log-sum-exp, shape ``(q_heads, n)``.
    cache:
        The progressive KV cache holding all full blocks (plus any
        buffer flushes of a tail longer than the buffer).
    buffer:
        Decode buffer holding the unflushed ragged tail tokens (may be
        empty).
    head_bits:
        Per-KV-head storage bit-widths used.
    report:
        Guard counters for this prefill (``None`` when no guard ran).
    """

    output: np.ndarray
    lse: np.ndarray
    cache: QuantizedKVCache
    buffer: DecodeBuffer
    head_bits: np.ndarray
    report: Optional[GuardReport] = None


def turbo_prefill(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    config: TurboConfig,
    head_bits: np.ndarray,
    causal: bool = True,
    scale: Optional[float] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
) -> PrefillResult:
    """Run Algorithm 1 over a full prompt.

    Parameters
    ----------
    q:
        Queries, shape ``(q_heads, n, head_dim)``.
    k, v:
        Keys/values, shape ``(kv_heads, n, head_dim)`` with
        ``q_heads % kv_heads == 0``.
    config:
        Kernel hyper-parameters.
    head_bits:
        Per-KV-head storage widths (from
        :func:`repro.core.headwise.assign_head_bits` or uniform).
    causal:
        Apply the causal mask (always true for LLM prefill; off for tests).
    scale:
        Score scale, default ``1/sqrt(head_dim)``.
    guard:
        Optional numerics guard.  Every Q/K/V tile is checked for NaN/Inf
        before quantization and every scale for degeneracy; under the
        ``fallback`` policy an offending tile's MatMuls rerun on the FP16
        reference path (the sanitized floats) instead of the integer path,
        and the event is recorded.  Integer GEMMs get the recoverable
        accumulator-headroom guard.
    report:
        Counter sink; created automatically when ``guard`` is given.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hq, n, d = q.shape
    hkv, nk, _ = k.shape
    if hq % hkv != 0:
        raise ValueError(f"q_heads {hq} not a multiple of kv_heads {hkv}")
    g = hq // hkv
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    offset = nk - n
    exp = _exp_fn(config)
    mc = config.int8_max_code
    if guard is not None and report is None:
        report = GuardReport()

    qg = q.reshape(hkv, g, n, d)
    bq, bk = config.block_q, config.block_k

    # --- Pass 0: quantize K/V tiles once; codes serve compute AND storage.
    # Under a guard each float tile is screened first (a single NaN would
    # otherwise poison the tile's absmax and hence every code in it); the
    # sanitized floats are kept for the FP16 fallback path and the tail.
    # Unguarded, all full tiles quantize in ONE batched call — the tile
    # statistics reduce over the trailing (tokens, channels) axes, so a
    # stacked leading tile axis yields bit-identical scales and codes.
    k_tiles: List[Tuple[np.ndarray, np.ndarray]] = []
    v_tiles: List[Tuple[np.ndarray, np.ndarray]] = []
    f_tiles: List[Tuple[np.ndarray, np.ndarray]] = []
    bad_kv: set = set()
    bounds = [(s, min(s + bk, nk)) for s in range(0, nk, bk)]
    n_full = nk // bk
    if guard is None:
        if n_full:
            k_stack = (
                k[:, : n_full * bk, :].reshape(hkv, n_full, bk, d).transpose(1, 0, 2, 3)
            )
            v_stack = (
                v[:, : n_full * bk, :].reshape(hkv, n_full, bk, d).transpose(1, 0, 2, 3)
            )
            kc_all, ksc_all = quantize_tile(k_stack, mc)
            vc_all, vsc_all = quantize_tile(v_stack, mc)
            k_tiles = [(kc_all[j], ksc_all[j]) for j in range(n_full)]
            v_tiles = [(vc_all[j], vsc_all[j]) for j in range(n_full)]
        if n_full * bk < nk:
            k_tiles.append(quantize_tile(k[:, n_full * bk :, :], mc))
            v_tiles.append(quantize_tile(v[:, n_full * bk :, :], mc))
        f_tiles = [(k[:, ks:ke, :], v[:, ks:ke, :]) for ks, ke in bounds]
    else:
        for j, (ks, ke) in enumerate(bounds):
            kt = k[:, ks:ke, :]
            vt = v[:, ks:ke, :]
            kt, fb_k = check_finite_tile(kt, f"prefill k tile {j}", guard, report)
            vt, fb_v = check_finite_tile(vt, f"prefill v tile {j}", guard, report)
            if fb_k or fb_v:
                bad_kv.add(j)
                report.fallback_tiles += 1
            kc, ksc = quantize_tile(kt, mc)
            vc, vsc = quantize_tile(vt, mc)
            ksc = check_scale(ksc, f"prefill k scale tile {j}", guard, report)
            vsc = check_scale(vsc, f"prefill v scale tile {j}", guard, report)
            k_tiles.append((kc, ksc))
            v_tiles.append((vc, vsc))
            f_tiles.append((kt, vt))

    # --- Storage: full blocks go to the cache; the ragged tail to the buffer.
    cache = QuantizedKVCache(hkv, d, head_bits=head_bits, block_size=bk)
    k_all = np.concatenate([t[0] for t in f_tiles], axis=-2) if guard is not None else k
    v_all = np.concatenate([t[1] for t in f_tiles], axis=-2) if guard is not None else v
    k_univ = np.maximum(np.abs(k_all).max(axis=(-2, -1), keepdims=True), 1e-12) / float(mc)
    v_univ = np.maximum(np.abs(v_all).max(axis=(-2, -1), keepdims=True), 1e-12) / float(mc)
    buffer = DecodeBuffer(
        hkv, d, capacity=config.buffer_size,
        k_scale=k_univ, v_scale=v_univ, clamp_code=config.clamp_code,
    )
    if n_full:
        cache.append_blocks(
            np.stack([t[0] for t in k_tiles[:n_full]]),
            np.stack([t[0] for t in v_tiles[:n_full]]),
            np.stack([t[1].reshape(hkv, 1, 1) for t in k_tiles[:n_full]]),
            np.stack([t[1].reshape(hkv, 1, 1) for t in v_tiles[:n_full]]),
        )
    if n_full * bk < nk:
        # A tail longer than the buffer is staged the way decode stages
        # tokens: a full buffer flushes into a cache block first.
        tail_k, tail_v = f_tiles[-1]
        nb = config.buffer_size
        for ts in range(0, tail_k.shape[-2], nb):
            if buffer.is_full:
                cache.append_block(*buffer.drain())
            buffer.extend(tail_k[:, ts : ts + nb, :], tail_v[:, ts : ts + nb, :])

    # --- Compute: tiled online-softmax attention on the INT8 codes.
    spans = [(kc, vc, ksc, vsc) for (kc, ksc), (vc, vsc) in zip(k_tiles, v_tiles)]
    out, lse = _attend(
        qg, bq, spans, exp, scale, config, offset if causal else None,
        guard, report, floats=f_tiles, fp16_spans=bad_kv,
    )

    return PrefillResult(
        output=out.reshape(hq, n, d),
        lse=lse.reshape(hq, n),
        cache=cache,
        buffer=buffer,
        head_bits=np.asarray(head_bits, dtype=np.int32),
        report=report,
    )

"""TurboAttention prefill kernel (paper Algorithm 1).

The flash-attention tiling loop with three changes:

1. Q/K/V tiles are quantized to symmetric INT8 (scale ``max|x|/119`` per
   (head, tile)) and both MatMuls run as integer GEMMs (Eq. 6).
2. The exponential — both the probability tile and the running-max
   correction factor — is SAS instead of FP32 ``exp``.
3. After a key/value tile is consumed it is progressively compressed
   (INT8 -> INT4/2, channel-wise, integer scales) and written to the
   quantized KV cache; the ragged tail that doesn't fill a block goes to
   the decode buffer instead, already in INT8 under the universal scale.

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
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.attention.masks import causal_mask_block
from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.kvcache import QuantizedKVCache
from repro.fp.formats import fp16_matmul
from repro.guard.numerics import check_finite_tile, check_scale, guarded_int_matmul
from repro.guard.report import GuardConfig, GuardReport
from repro.quant.integer_gemm import int_matmul
from repro.sas.softmax import shared_sas

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
        The progressive KV cache holding all full blocks.
    buffer:
        Decode buffer holding the ragged tail tokens (may be empty).
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


def quantize_tile(
    x: np.ndarray, max_code: int, scale: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric INT8 quantization with one scalar scale per leading index.

    Statistics reduce over the last two axes (tokens x channels of a tile),
    matching Algorithm 1's ``s = max(abs(X)) / 119`` per tile.
    """
    x = np.asarray(x, dtype=np.float64)
    if scale is None:
        absmax = np.abs(x).max(axis=(-2, -1), keepdims=True)
        scale = np.maximum(absmax, 1e-12) / float(max_code)
    codes = np.clip(np.rint(x / scale), -max_code, max_code).astype(np.int8)
    return codes, scale


def _exp_fn(config: TurboConfig) -> Callable[[np.ndarray], np.ndarray]:
    if config.use_sas:
        return shared_sas(config.sas)
    return lambda x: np.where(np.isfinite(x), np.exp(np.minimum(x, 0.0)), 0.0)


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
        buffer.extend(f_tiles[-1][0], f_tiles[-1][1])

    def _imatmul(a, b, where):
        if guard is not None:
            return guarded_int_matmul(a, b, where, guard, report)
        return int_matmul(a, b)

    # --- Compute: tiled online-softmax attention on the INT8 codes.
    # Unguarded integer prefill takes the flattened path: per query tile,
    # ONE integer GEMM against the concatenated key codes, one SAS/exp
    # evaluation over the whole score row, one batched P quantization,
    # and stacked PV GEMMs — bit-identical to the tile loop below (same
    # argument as repro.core.decode._attend_spans_batched, with the
    # l/acc online-softmax rescale fused into in-place ufunc passes).
    if (
        guard is None
        and config.quantize_matmuls
        and mc * mc * max(d, bk) <= np.iinfo(np.int32).max
    ):
        return _prefill_fast(
            qg, k_tiles, v_tiles, bounds, config, exp, scale, causal, offset,
            cache, buffer, head_bits, hq, hkv, g, n, d,
        )
    out = np.zeros((hkv, g, n, d), dtype=np.float64)
    lse = np.zeros((hkv, g, n), dtype=np.float64)
    for qs in range(0, n, bq):
        qe = min(qs + bq, n)
        q_tile = qg[:, :, qs:qe, :]
        bad_q = False
        if guard is not None:
            q_tile, bad_q = check_finite_tile(
                q_tile, f"prefill q tile {qs // bq}", guard, report
            )
            if bad_q:
                report.fallback_tiles += 1
        qc, qsc = quantize_tile(q_tile, mc)  # scale shape (hkv, g, 1, 1)
        m = np.full((hkv, g, qe - qs), -np.inf)
        l = np.zeros((hkv, g, qe - qs))
        acc = np.zeros((hkv, g, qe - qs, d))
        for j, (ks, ke) in enumerate(bounds):
            if causal and ks > qe - 1 + offset:
                break
            kc, ksc = k_tiles[j]
            vc, vsc = v_tiles[j]
            # A tile flagged by the guard reruns on the FP16 reference path
            # (its sanitized floats) instead of the integer path.
            use_int = config.quantize_matmuls and not (bad_q or j in bad_kv)
            if use_int:
                s_tile = (
                    qsc
                    * ksc[:, None, :, :]
                    * _imatmul(
                        qc, np.swapaxes(kc, -1, -2)[:, None, :, :],
                        f"prefill qk q{qs // bq} k{j}",
                    )
                ) * scale
            else:
                s_tile = fp16_matmul(
                    q_tile, np.swapaxes(f_tiles[j][0], -1, -2)[:, None, :, :]
                ) * scale
            if causal:
                s_tile = s_tile + causal_mask_block(qs, qe - qs, ks, ke - ks, offset)
            m_new = np.maximum(m, s_tile.max(axis=-1))
            with np.errstate(invalid="ignore"):
                corr = exp(m - m_new)
            corr = np.where(np.isfinite(m), corr, 0.0)
            p = exp(s_tile - m_new[..., None])
            l = corr * l + p.sum(axis=-1)
            if use_int:
                pc, psc = quantize_tile(p, mc)
                pv = psc * vsc[:, None, :, :] * _imatmul(
                    pc, vc[:, None, :, :], f"prefill pv q{qs // bq} k{j}"
                )
            else:
                pv = fp16_matmul(
                    p.astype(np.float16).astype(np.float64),
                    f_tiles[j][1][:, None, :, :],
                )
            acc = corr[..., None] * acc + pv
            m = m_new
        safe_l = np.where(l > 0, l, 1.0)
        out[:, :, qs:qe, :] = acc / safe_l[..., None]
        lse[:, :, qs:qe] = np.where(l > 0, m + np.log(safe_l), -np.inf)

    return PrefillResult(
        output=out.reshape(hq, n, d),
        lse=lse.reshape(hq, n),
        cache=cache,
        buffer=buffer,
        head_bits=np.asarray(head_bits, dtype=np.int32),
        report=report,
    )


def _prefill_fast(
    qg: np.ndarray,
    k_tiles: List[Tuple[np.ndarray, np.ndarray]],
    v_tiles: List[Tuple[np.ndarray, np.ndarray]],
    bounds: List[Tuple[int, int]],
    config: TurboConfig,
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    causal: bool,
    offset: int,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    head_bits: np.ndarray,
    hq: int,
    hkv: int,
    g: int,
    n: int,
    d: int,
) -> PrefillResult:
    """Flattened integer prefill: whole-row GEMMs with the online-softmax
    recursion folded over precomputed per-tile segments.

    Bit-exact to the tile loop in :func:`turbo_prefill`: integer GEMM
    columns are independent, the mask/exponential/quantizer are
    element-wise, segmented ``max`` is exact in any order, and the
    ``l``/``acc`` rescales run the identical multiply-then-add per tile
    (in place, which changes allocation, not floats).
    """
    mc = config.int8_max_code
    bq, bk = config.block_q, config.block_k
    n_tiles = len(bounds)
    lens_all = np.array([ke - ks for ks, ke in bounds], dtype=np.int64)
    tile_starts = np.array([ks for ks, _ke in bounds], dtype=np.int64)
    kT_all = np.swapaxes(
        np.concatenate([t[0] for t in k_tiles], axis=-2), -1, -2
    )  # (hkv, d, nk)
    k_scale_stack = np.stack([t[1] for t in k_tiles], axis=-1).reshape(
        hkv, 1, 1, n_tiles
    )
    n_full_all = n_tiles - (1 if lens_all[-1] != bk else 0)
    vf_full = (
        np.stack([v_tiles[j][0] for j in range(n_full_all)], axis=1).astype(np.float64)
        if n_full_all
        else None
    )  # (hkv, n_full, bk, d)
    vf_tail = (
        v_tiles[-1][0].astype(np.float64) if n_full_all < n_tiles else None
    )  # (hkv, tail, d)

    out = np.zeros((hkv, g, n, d), dtype=np.float64)
    lse = np.zeros((hkv, g, n), dtype=np.float64)
    for qs in range(0, n, bq):
        qe = min(qs + bq, n)
        nq = qe - qs
        if causal:
            j_lim = int(np.searchsorted(tile_starts, qe - 1 + offset, side="right"))
        else:
            j_lim = n_tiles
        if j_lim == 0:
            lse[:, :, qs:qe] = -np.inf
            continue
        lens = lens_all[:j_lim]
        kmax_e = bounds[j_lim - 1][1]
        n_full = min(j_lim, n_full_all)
        full_e = n_full * bk

        qc, qsc = quantize_tile(qg[:, :, qs:qe, :], mc)
        gemm = int_matmul(qc, kT_all[:, None, :, :kmax_e])
        s_row = (np.repeat(qsc * k_scale_stack[..., :j_lim], lens, axis=-1) * gemm) * scale
        if causal:
            s_row = s_row + causal_mask_block(qs, nq, 0, kmax_e, offset)

        smax = s_row[..., :full_e].reshape(hkv, g, nq, n_full, bk).max(axis=-1)
        if full_e < kmax_e:
            smax = np.concatenate(
                [smax, s_row[..., full_e:].max(axis=-1, keepdims=True)], axis=-1
            )
        m_new = np.maximum.accumulate(smax, axis=-1)  # (hkv, g, nq, j_lim)
        m_prev = np.concatenate(
            [np.full((hkv, g, nq, 1), -np.inf), m_new[..., :-1]], axis=-1
        )
        with np.errstate(invalid="ignore"):
            corr_all = exp(m_prev - m_new)
        corr_all = np.where(np.isfinite(m_prev), corr_all, 0.0)
        p_row = exp(s_row - np.repeat(m_new, lens, axis=-1))

        abs_p = np.abs(p_row)
        p_absmax = abs_p[..., :full_e].reshape(hkv, g, nq, n_full, bk).max(axis=-1).max(axis=2)
        if full_e < kmax_e:
            p_absmax = np.concatenate(
                [p_absmax, abs_p[..., full_e:].max(axis=(-2, -1))[..., None]], axis=-1
            )
        p_scale = np.maximum(p_absmax, 1e-12) / float(mc)  # (hkv, g, j_lim)
        pc = np.clip(
            np.rint(p_row / np.repeat(p_scale[:, :, None, :], lens, axis=-1)), -mc, mc
        ).astype(np.int8)

        # Stacked PV GEMMs: exact-integer float64 BLAS (headroom certified
        # by the caller's mc*mc*max(d, bk) gate).
        pcf = pc.astype(np.float64)
        if n_full:
            pv_full = (
                pcf[..., :full_e].reshape(hkv, g, nq, n_full, bk).transpose(0, 1, 3, 2, 4)
                @ vf_full[:, None, :n_full]
            )  # (hkv, g, n_full, nq, d)
        if full_e < kmax_e:
            pv_tail = pcf[..., full_e:] @ vf_tail[:, None, :, :]  # (hkv, g, nq, d)

        l = np.zeros((hkv, g, nq))
        acc = np.zeros((hkv, g, nq, d))
        pos = 0
        for j in range(j_lim):
            length = int(lens[j])
            corr = corr_all[..., j]
            np.multiply(l, corr, out=l)
            np.add(l, p_row[..., pos : pos + length].sum(axis=-1), out=l)
            gemm_pv = pv_full[:, :, j] if j < n_full else pv_tail
            pv = (
                p_scale[..., j][..., None, None] * v_tiles[j][1][:, None, :, :]
            ) * gemm_pv
            np.multiply(acc, corr[..., None], out=acc)
            np.add(acc, pv, out=acc)
            pos += length
        safe_l = np.where(l > 0, l, 1.0)
        out[:, :, qs:qe, :] = acc / safe_l[..., None]
        lse[:, :, qs:qe] = np.where(l > 0, m_new[..., -1] + np.log(safe_l), -np.inf)

    return PrefillResult(
        output=out.reshape(hq, n, d),
        lse=lse.reshape(hq, n),
        cache=cache,
        buffer=buffer,
        head_bits=np.asarray(head_bits, dtype=np.int32),
        report=None,
    )

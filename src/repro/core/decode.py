"""TurboAttention decode kernel (paper Algorithm 2) and the INT8 attention
core it shares with the prefill kernel (Algorithm 1).

One autoregressive step: the new token's K/V are staged into the INT8
buffer (frozen universal scale, outliers clamped), the query is quantized
to INT8, and attention streams over

1. every progressive cache block — decompressed *to INT8* with pure integer
   arithmetic (``q1 = q2 * s_int + z_int``) — and
2. the current buffer contents, which are already INT8.

All score and output MatMuls are integer GEMMs; exponentiation is SAS.
After the attention, a full buffer is flushed into the cache (progressive
compression), so the number of cached FP16 bytes is always zero — the
property that distinguishes TurboAttention from KIVI/GEAR's FP16 residual
windows.

Algorithm 2's inner loop is Algorithm 1's tiled INT8 x SAS online softmax
run for one query row, so both kernels reach attention through one
selector, :func:`_attend`.  It runs the flattened core,
:func:`_attend_tiles`, or else its loop twin, :func:`_attend_loop`, which
is both kernels' guard, FP16-MatMul ablation and int32 fallback path.

:func:`turbo_decode_step_split_k` is the FlashDecoding-composed variant:
cache blocks are partitioned into splits, each split runs the same integer
inner loop independently, and the partial ``(output, logsumexp)`` pairs
merge exactly (see :mod:`repro.attention.split_k`) — demonstrating the
paper's claim that TurboAttention slots into existing attention
schedulers.
"""

from __future__ import annotations

from typing import Callable, Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.attention.masks import causal_mask_block
from repro.attention.split_k import merge_partials
from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.kvcache import QuantizedKVCache
from repro.fp.formats import fp16_matmul
from repro.guard.escalation import PrecisionEscalator
from repro.guard.numerics import check_finite_tile, check_scale, guarded_int_matmul
from repro.guard.report import GuardConfig, GuardReport
from repro.quant.integer_gemm import int_matmul
from repro.quant.progressive import pq_decompress_to_int8
from repro.sas.softmax import shared_sas

__all__ = [
    "quantize_tile",
    "turbo_decode_step",
    "turbo_decode_steps",
    "turbo_decode_step_split_k",
]

Span = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_INT32_MAX = np.iinfo(np.int32).max


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


def _segment_max(x: np.ndarray, runs: Sequence[Tuple[int, int, int, int]]) -> np.ndarray:
    """Per-segment ``max`` over the last axis of ``x``, one column per
    segment; each run of equal-length segments reshapes to a dense axis."""
    parts = [
        x[..., c0 : c0 + (j1 - j0) * length]
        .reshape(x.shape[:-1] + (j1 - j0, length))
        .max(axis=-1)
        for j0, j1, c0, length in runs
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _attend_tiles(
    q: np.ndarray,
    block_q: int,
    spans: Sequence[Span],
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    mc: int,
    causal_offset: Optional[int] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Flattened INT8 x SAS online-softmax attention: the inner loop of
    Algorithms 1 and 2 over whole key rows.

    ``q`` has shape ``(hkv, g, n, d)`` and is quantized in tiles of
    ``block_q`` rows; ``spans`` are the K/V code segments in key order,
    each ``(k_codes, v_codes, k_scale, v_scale)`` with one scalar scale
    per KV head.  Each query tile attends over a prefix of the
    concatenated segments: all of them, or with ``causal_offset``
    (``n_keys - n`` of a causal prefill) those that start at or before
    its last row, under the causal additive mask.  Per tile that is one
    integer QK GEMM, two ``exp`` calls (every running-max correction and
    the whole probability row), one segmented P quantization and one
    batched PV GEMM per run of equal-length segments.

    Bit-identical to its loop twin :func:`_attend_loop` (and to the
    oracles in ``tests/_reference_kernels.py``): integer GEMM columns are
    independent, so slicing one concatenated product equals per-segment
    products; ``max`` returns one of its inputs under any grouping, so
    segmented maxes plus ``np.maximum.accumulate`` reproduce the
    running-max trajectory; the exponential and the quantizer are
    element-wise; and the ``l``/``acc`` folds keep the per-segment
    recursion, whose float order matters (each segment's probability sum
    is the same pairwise ``.sum`` over a slice of the same length).  The
    PV products are exact integers in float64 BLAS under the int32 bound
    checked first; when the actual code magnitudes cannot rule out int32
    overflow this returns ``None`` and :func:`_attend` runs the loop twin,
    whose integer GEMMs check overflow one (tile, segment) pair at a time.

    Returns ``(out (hkv, g, n, d), lse (hkv, g, n))``.  Query tiles loop
    here rather than in the callers so the per-tile temporaries reuse
    heap memory instead of being returned to the OS between tiles.
    """
    hkv, g, n, d = q.shape
    q_tiles = [
        (qs, *quantize_tile(q[:, :, qs : qs + block_q, :], mc))
        for qs in range(0, n, block_q)
    ]
    k_all = np.concatenate([s[0] for s in spans], axis=-2)
    v_all = np.concatenate([s[1] for s in spans], axis=-2)
    lens = [s[0].shape[-2] for s in spans]
    q_amax = max((int(np.max(np.abs(qc), initial=0)) for _, qc, _ in q_tiles), default=0)
    k_amax = int(np.max(np.abs(k_all), initial=0))
    v_amax = int(np.max(np.abs(v_all), initial=0))
    if q_amax * k_amax * d > _INT32_MAX or mc * v_amax * max(lens) > _INT32_MAX:
        return None

    nseg = len(spans)
    ends = np.cumsum(lens)
    starts = ends - lens
    k_scales = np.stack([np.reshape(s[2], hkv) for s in spans], axis=-1).reshape(
        hkv, 1, 1, nseg
    )
    v_scales = np.stack([np.reshape(s[3], hkv) for s in spans], axis=-1).reshape(
        hkv, 1, 1, nseg
    )
    kT = np.swapaxes(k_all, -1, -2)[:, None, :, :]  # (hkv, 1, d, keys)
    # Maximal runs of equal-length segments, (first, stop, column, length):
    # cache blocks share one size, so a history is one or a few runs.
    breaks = [0] + [j for j in range(1, nseg) if lens[j] != lens[j - 1]] + [nseg]
    runs = [(j0, j1, int(starts[j0]), lens[j0]) for j0, j1 in zip(breaks, breaks[1:])]
    vf = None

    out = np.zeros((hkv, g, n, d), dtype=np.float64)
    lse = np.zeros((hkv, g, n), dtype=np.float64)
    for qs, qc, q_scale in q_tiles:
        nq = qc.shape[-2]
        qe = qs + nq
        if causal_offset is None:
            j_lim = nseg
        else:
            j_lim = int(np.searchsorted(starts, qe - 1 + causal_offset, side="right"))
        if j_lim == 0:
            lse[:, :, qs:qe] = -np.inf
            continue
        seg_lens = lens[:j_lim]
        kmax = int(ends[j_lim - 1])
        tile_runs = [(j0, min(j1, j_lim), c0, ln) for j0, j1, c0, ln in runs if j0 < j_lim]

        gemm = int_matmul(qc, kT[..., :kmax])
        qk_scale = np.repeat(q_scale * k_scales[..., :j_lim], seg_lens, axis=-1)
        s_row = (qk_scale * gemm) * scale
        if causal_offset is not None:
            s_row = s_row + causal_mask_block(qs, nq, 0, kmax, causal_offset)
        m_new = np.maximum.accumulate(_segment_max(s_row, tile_runs), axis=-1)
        m_prev = np.concatenate(
            [np.full((hkv, g, nq, 1), -np.inf), m_new[..., :-1]], axis=-1
        )
        with np.errstate(invalid="ignore"):
            corr_all = exp(m_prev - m_new)
        corr_all = np.where(np.isfinite(m_prev), corr_all, 0.0)
        p_row = exp(s_row - np.repeat(m_new, seg_lens, axis=-1))

        # P quantizes per (tile, segment): the absmax spans the tile's rows.
        p_absmax = _segment_max(np.abs(p_row), tile_runs).max(axis=2)
        p_scale = np.maximum(p_absmax, 1e-12) / float(mc)  # (hkv, g, j_lim)
        pc = np.clip(
            np.rint(p_row / np.repeat(p_scale[:, :, None, :], seg_lens, axis=-1)), -mc, mc
        ).astype(np.int8)
        if vf is None:
            vf = v_all.astype(np.float64)
        pcf = pc.astype(np.float64)
        pv_segs = []
        for j0, j1, c0, ln in tile_runs:
            cnt = j1 - j0
            c1 = c0 + cnt * ln
            block = (
                pcf[..., c0:c1].reshape(hkv, g, nq, cnt, ln).transpose(0, 1, 3, 2, 4)
                @ vf[:, None, c0:c1, :].reshape(hkv, 1, cnt, ln, d)
            )  # (hkv, g, cnt, nq, d)
            pv_segs.extend(block[:, :, i] for i in range(cnt))

        l = np.zeros((hkv, g, nq))
        acc = np.zeros((hkv, g, nq, d))
        for j in range(j_lim):
            corr = corr_all[..., j]
            np.multiply(l, corr, out=l)
            np.add(l, p_row[..., starts[j] : ends[j]].sum(axis=-1), out=l)
            pv = (p_scale[..., j][..., None, None] * v_scales[..., j : j + 1]) * pv_segs[j]
            np.multiply(acc, corr[..., None], out=acc)
            np.add(acc, pv, out=acc)
        safe_l = np.where(l > 0, l, 1.0)
        out[:, :, qs:qe, :] = acc / safe_l[..., None]
        lse[:, :, qs:qe] = np.where(l > 0, m_new[..., -1] + np.log(safe_l), -np.inf)
    return out, lse


def _dequantize(codes: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Float view ``codes * scale`` of a span's INT8 codes."""
    return codes.astype(np.float64) * np.reshape(scale, (codes.shape[0], 1, 1))


def _attend_loop(
    q: np.ndarray,
    block_q: int,
    spans: Sequence[Span],
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    config: TurboConfig,
    causal_offset: Optional[int] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    floats: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    fp16_spans: Collection[int] = (),
) -> Tuple[np.ndarray, np.ndarray]:
    """Loop twin of :func:`_attend_tiles`: the same recursion and result,
    one (query tile, segment) pair at a time.

    It is both kernels' guard, FP16-MatMul and int32 fallback path, and
    takes the core's arguments (``config`` in place of ``mc``) plus the
    guard's and the FP16 path's.  A pair's two MatMuls are integer GEMMs, guarded by the accumulator
    headroom check under ``guard``, unless ``quantize_matmuls`` is off,
    the guard flagged its query tile, or its segment is in
    ``fp16_spans``; then they run in FP16 over ``floats[j]`` (prefill's
    sanitized float K/V tiles) or, without ``floats``, over the
    dequantized codes.  The guard screens inputs in loop order where they
    can still be repaired: with ``floats`` each query tile (the K/V tiles
    were screened when quantized), without them each stored segment's
    scales (the codes are integers and cannot be non-finite).
    """
    hkv, g, n, d = q.shape
    mc = config.int8_max_code
    kernel = "decode" if floats is None else "prefill"
    out = np.zeros((hkv, g, n, d), dtype=np.float64)
    lse = np.zeros((hkv, g, n), dtype=np.float64)
    for t, qs in enumerate(range(0, n, block_q)):
        qe = min(qs + block_q, n)
        q_tile = q[:, :, qs:qe, :]
        fp16_tile = not config.quantize_matmuls
        if guard is not None and floats is not None:
            q_tile, bad_q = check_finite_tile(q_tile, f"prefill q tile {t}", guard, report)
            if bad_q:
                report.fallback_tiles += 1
                fp16_tile = True
        if not fp16_tile:
            qc, q_scale = quantize_tile(q_tile, mc)
        m = np.full((hkv, g, qe - qs), -np.inf)
        l = np.zeros((hkv, g, qe - qs))
        acc = np.zeros((hkv, g, qe - qs, d))
        ke = 0
        for j, (k_codes, v_codes, k_scale, v_scale) in enumerate(spans):
            ks, ke = ke, ke + k_codes.shape[-2]
            if causal_offset is not None and ks > qe - 1 + causal_offset:
                break
            where = f"span {j}" if floats is None else f"q{t} k{j}"
            if guard is not None and floats is None:
                k_scale = check_scale(k_scale, f"decode span {j} k scale", guard, report)
                v_scale = check_scale(v_scale, f"decode span {j} v scale", guard, report)
            fp16 = fp16_tile or j in fp16_spans
            if fp16:
                if floats is None:
                    k_f, v_f = _dequantize(k_codes, k_scale), _dequantize(v_codes, v_scale)
                else:
                    k_f, v_f = floats[j]
                s_tile = fp16_matmul(q_tile, np.swapaxes(k_f, -1, -2)[:, None, :, :]) * scale
            else:
                kT = np.swapaxes(k_codes, -1, -2)[:, None, :, :]
                gemm = int_matmul(qc, kT) if guard is None else guarded_int_matmul(
                    qc, kT, f"{kernel} qk {where}", guard, report
                )
                s_tile = (q_scale * np.reshape(k_scale, (hkv, 1, 1, 1)) * gemm) * scale
            if causal_offset is not None:
                s_tile = s_tile + causal_mask_block(qs, qe - qs, ks, ke - ks, causal_offset)
            m_new = np.maximum(m, s_tile.max(axis=-1))
            with np.errstate(invalid="ignore"):
                corr = exp(m - m_new)
            corr = np.where(np.isfinite(m), corr, 0.0)
            p = exp(s_tile - m_new[..., None])
            l = corr * l + p.sum(axis=-1)
            if fp16:
                pv = fp16_matmul(p, v_f[:, None, :, :])
            else:
                pc, p_scale = quantize_tile(p, mc)
                vc = v_codes[:, None, :, :]
                gemm = int_matmul(pc, vc) if guard is None else guarded_int_matmul(
                    pc, vc, f"{kernel} pv {where}", guard, report
                )
                pv = p_scale * np.reshape(v_scale, (hkv, 1, 1, 1)) * gemm
            acc = corr[..., None] * acc + pv
            m = m_new
        safe_l = np.where(l > 0, l, 1.0)
        out[:, :, qs:qe, :] = acc / safe_l[..., None]
        lse[:, :, qs:qe] = np.where(l > 0, m + np.log(safe_l), -np.inf)
    return out, lse


def _attend(
    q: np.ndarray,
    block_q: int,
    spans: Sequence[Span],
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    config: TurboConfig,
    causal_offset: Optional[int] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    floats: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    fp16_spans: Collection[int] = (),
) -> Tuple[np.ndarray, np.ndarray]:
    """Attention for both kernels: the flattened core
    :func:`_attend_tiles` when no guard runs, both MatMuls are INT8 and
    the core's int32 bound holds, else :func:`_attend_loop` (which takes
    the same arguments).  Returns ``(out (hkv, g, n, d), lse (hkv, g,
    n))``, normalized; decode's one-row ``(out, lse)`` partials are the
    mergeable split-K contract."""
    if guard is None and config.quantize_matmuls:
        flat = _attend_tiles(q, block_q, spans, exp, scale, config.int8_max_code, causal_offset)
        if flat is not None:
            return flat
    return _attend_loop(
        q, block_q, spans, exp, scale, config, causal_offset, guard, report, floats, fp16_spans
    )


def _gather_spans(
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    decoded: Optional[List[Span]] = None,
) -> List[Span]:
    """The spans a decode step attends over: every cache block
    decompressed to INT8, then the buffer's codes.

    ``decoded`` holds the blocks earlier steps already decompressed and
    is extended in place: blocks are immutable once appended (see
    :meth:`~repro.core.kvcache.QuantizedKVCache.append_block`), so only
    new ones are decompressed.
    """
    if decoded is None:
        decoded = []
    for block in cache.blocks[len(decoded) :]:
        decoded.append(
            (
                pq_decompress_to_int8(block.k),
                pq_decompress_to_int8(block.v),
                block.k.float_scale,
                block.v.float_scale,
            )
        )
    spans = list(decoded)
    buf_k, buf_v = buffer.codes()
    if buf_k.shape[-2] > 0:
        spans.append((buf_k, buf_v, buffer.k_scale, buffer.v_scale))
    return spans


def _stage_token(
    k_t: np.ndarray,
    v_t: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    escalator: Optional[PrecisionEscalator] = None,
    report: Optional[GuardReport] = None,
) -> None:
    """Stage one token's K/V into the buffer, first flushing a full buffer
    into a cache block.

    With an escalator, the flushed block's saturation stats update the
    per-head bit assignments *before* the block is compressed — the block
    that triggered escalation is already stored at the wider width — and
    clamp-hot heads regrow the frozen scale at this (empty-buffer)
    boundary.
    """
    if buffer.is_full:
        k_codes, v_codes, k_sc, v_sc = buffer.drain()
        decision = None
        if escalator is not None:
            decision = escalator.observe_flush(
                k_codes, v_codes, k_sc, v_sc, buffer.last_clamp_fraction, report
            )
            if decision.changed:
                cache.set_head_bits(decision.head_bits)
        cache.append_block(k_codes, v_codes, k_sc, v_sc)
        if decision is not None and decision.clamp_hot.any():
            grew = buffer.grow_scale(decision.clamp_hot)
            if grew and report is not None:
                report.scale_regrows += grew
                report.record(f"scale_regrow:{grew} heads")
    buffer.append(k_t, v_t)


def _query_groups(hq: int, cache: QuantizedKVCache) -> Tuple[int, int]:
    hkv = cache.n_heads
    if hq % hkv != 0:
        raise ValueError(f"q_heads {hq} not a multiple of kv_heads {hkv}")
    return hkv, hq // hkv


def _reference_step_from_spans(
    spans: Sequence[Span],
    q: np.ndarray,
    scale: float,
) -> np.ndarray:
    """FP16-reference decode: dequantize every span and run exact softmax
    attention — the fallback path for a guard-flagged step.

    The cache stores only codes + scales, so ``codes * scale`` *is* the
    reference-precision view of the history; what this path removes is the
    integer score/output arithmetic and SAS for the poisoned step.
    """
    k_f = np.concatenate([_dequantize(c, s) for c, _, s, _ in spans], axis=-2)
    v_f = np.concatenate([_dequantize(c, s) for _, c, _, s in spans], axis=-2)
    s = (q @ np.swapaxes(k_f, -1, -2)[:, None, :, :]) * scale
    m = s.max(axis=-1, keepdims=True)
    p = np.exp(s - m)
    p = p / p.sum(axis=-1, keepdims=True)
    return p @ v_f[:, None, :, :]


def turbo_decode_step(
    q_t: np.ndarray,
    k_t: np.ndarray,
    v_t: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    scale: Optional[float] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    escalator: Optional[PrecisionEscalator] = None,
) -> np.ndarray:
    """One decode step: the one-token case of :func:`turbo_decode_steps`.

    Parameters
    ----------
    q_t:
        Query for the new token, shape ``(q_heads, head_dim)``.
    k_t, v_t:
        The new token's key/value, shape ``(kv_heads, head_dim)``; staged
        into the buffer before attention so the token attends to itself.
    cache, buffer:
        State produced by :func:`repro.core.prefill.turbo_prefill` (and
        mutated by previous decode steps).
    config:
        Kernel hyper-parameters.
    scale:
        Score scale, default ``1/sqrt(head_dim)``.
    guard:
        Optional numerics guard: step inputs are screened for NaN/Inf,
        span scales for degeneracy, and the integer GEMMs get the
        recoverable overflow guard.  Under the ``fallback`` policy a
        poisoned step reruns through the FP16 reference path over the
        dequantized history.
    report:
        Counter sink (created automatically when ``guard`` is given).
    escalator:
        Optional adaptive-precision escalator consulted at every buffer
        flush (see :mod:`repro.guard.escalation`).

    Returns
    -------
    Attention output for the token, shape ``(q_heads, head_dim)``.
    """
    return turbo_decode_steps(
        np.asarray(q_t, dtype=np.float64)[None],
        np.asarray(k_t, dtype=np.float64)[None],
        np.asarray(v_t, dtype=np.float64)[None],
        cache, buffer, config,
        scale=scale, guard=guard, report=report, escalator=escalator,
    )[0]


def turbo_decode_steps(
    qs: np.ndarray,
    ks: np.ndarray,
    vs: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    scale: Optional[float] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    escalator: Optional[PrecisionEscalator] = None,
) -> np.ndarray:
    """Decode a run of tokens, one step per token in order.

    ``qs``/``ks``/``vs`` have shapes ``(steps, q_heads, head_dim)`` and
    ``(steps, kv_heads, head_dim)``; the result is ``(steps, q_heads,
    head_dim)``.  Each step screens its inputs under the guard, stages the
    token (flushing a full buffer through the escalator), then attends
    over the cache blocks plus the buffer: through the FP16 reference
    path when the guard flagged the step, otherwise through
    :func:`_attend` (the flattened INT8 core, or its loop twin under a
    guard, the FP16-MatMul ablation or a failed int32 bound).  Cache blocks are decompressed once, when they first
    appear — blocks are immutable after
    :meth:`~repro.core.kvcache.QuantizedKVCache.append_block`, so the INT8
    view never changes — and the SAS callable is resolved once per run.
    Row ``t`` equals what :func:`turbo_decode_step` returns for token
    ``t``, since that is this loop run for one token.  See
    :func:`turbo_decode_step` for the parameters.
    """
    qs = np.asarray(qs, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    steps = qs.shape[0]
    if ks.shape[0] != steps or vs.shape[0] != steps:
        raise ValueError("qs/ks/vs must carry the same number of tokens")
    if steps == 0:
        return np.zeros(qs.shape, dtype=np.float64)
    _, hq, d = qs.shape
    hkv, g = _query_groups(hq, cache)
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    if guard is not None and report is None:
        report = GuardReport()
    exp = _exp_fn(config)
    decoded: List[Span] = []
    out = np.empty((steps, hq, d), dtype=np.float64)
    for t in range(steps):
        q_t, k_t, v_t = qs[t], ks[t], vs[t]
        fallback = False
        if guard is not None:
            q_t, fb_q = check_finite_tile(q_t, "decode q_t", guard, report)
            k_t, fb_k = check_finite_tile(k_t, "decode k_t", guard, report)
            v_t, fb_v = check_finite_tile(v_t, "decode v_t", guard, report)
            fallback = fb_q or fb_k or fb_v
        _stage_token(k_t, v_t, cache, buffer, escalator, report)
        spans = _gather_spans(cache, buffer, decoded)
        q = q_t.reshape(hkv, g, 1, d)
        if fallback:
            report.fallback_steps += 1
            report.record("fallback_step:decode")
            step_out = _reference_step_from_spans(spans, q, scale)
        else:
            step_out, _lse = _attend(q, 1, spans, exp, scale, config, guard=guard, report=report)
        out[t] = step_out.reshape(hq, d)
    return out


def turbo_decode_step_split_k(
    q_t: np.ndarray,
    k_t: np.ndarray,
    v_t: np.ndarray,
    cache: QuantizedKVCache,
    buffer: DecodeBuffer,
    config: TurboConfig,
    n_splits: int = 4,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Split-K decode: the cache's spans are partitioned across
    ``n_splits`` independent workers whose partials merge exactly.

    Identical output (up to float addition order) to
    :func:`turbo_decode_step`; exists to demonstrate — and test — that the
    quantized path composes with FlashDecoding-style scheduling.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    q_t = np.asarray(q_t, dtype=np.float64)
    hq, d = q_t.shape
    hkv, g = _query_groups(hq, cache)
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    _stage_token(k_t, v_t, cache, buffer)
    exp = _exp_fn(config)
    spans = _gather_spans(cache, buffer)
    q = q_t.reshape(hkv, g, 1, d)
    n_splits = min(n_splits, len(spans))
    bounds = np.linspace(0, len(spans), n_splits + 1, dtype=int)
    outs, lses = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        out, lse = _attend(q, 1, spans[lo:hi], exp, scale, config)
        outs.append(out)
        lses.append(lse)
    merged, _ = merge_partials(outs, lses)
    return merged.reshape(hq, d)

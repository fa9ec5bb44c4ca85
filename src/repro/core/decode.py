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
selector, :func:`_attend`, over one key format, :class:`_KeyRow`.  It runs
the flattened core, :func:`_attend_tiles`, or else its loop twin,
:func:`_attend_loop`, which is both kernels' guard, FP16-MatMul ablation
and int32 fallback path; a guard-flagged decode step runs the FP16
reference step, :func:`_reference_step`, over the same row.  Prefill
writes its tiles into a row once; decode keeps one resident row per run
(:class:`_DecodeRow`).  The history a decode step attends over changes
only at a buffer flush, so decode calls the selector once per buffer
interval, with the interval's query rows together: each row its own
quantization tile, masked to the buffer tokens its step had staged.  The
core runs its elementwise chain over cache-sized slabs of heads.

:func:`turbo_decode_step_split_k` is the FlashDecoding-composed variant:
the row's segments are partitioned into splits, each split runs the same
integer inner loop independently over a view of its range, and the
partial ``(output, logsumexp)`` pairs merge exactly (see
:mod:`repro.attention.split_k`) — demonstrating the paper's claim that
TurboAttention slots into existing attention schedulers.
"""

from __future__ import annotations

from typing import Callable, Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.attention.masks import causal_mask_block
from repro.attention.reference import reference_attention
from repro.attention.split_k import split_k_chunks
from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.kvcache import QuantizedKVCache
from repro.fp.formats import fp16_matmul
from repro.guard.escalation import PrecisionEscalator
from repro.guard.numerics import check_finite_tile, check_scale, guarded_int_matmul
from repro.guard.report import GuardConfig, GuardReport
from repro.quant.integer_gemm import code_magnitude, exact_float_dtype, int_matmul
from repro.quant.progressive import pq_decompress_to_int8
from repro.sas.softmax import shared_sas

__all__ = [
    "quantize_tile",
    "turbo_decode_step",
    "turbo_decode_steps",
    "turbo_decode_step_split_k",
]

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


def _segment_reduce(
    op: np.ufunc, x: np.ndarray, runs: Sequence[Tuple[int, int, int, int]]
) -> np.ndarray:
    """Per-segment ``op.reduce`` over the last axis of ``x``, one column per
    segment; each run of equal-length segments reshapes to a dense axis, so
    a segment's sum is the same pairwise sum as over its own slice."""
    parts = [
        op.reduce(
            x[..., c0 : c0 + (j1 - j0) * length].reshape(x.shape[:-1] + (j1 - j0, length)),
            axis=-1,
        )
        for j0, j1, c0, length in runs
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


class _KeyRow:
    """The keys of one attention call, laid out for :func:`_attend_tiles`.

    ``k`` holds the K codes keys-last, shape ``(hkv, 1, d, capacity)``:
    its first ``n_keys`` columns are the QK GEMM's right operand as they
    stand.  ``v`` holds the V codes as float32, which represents every
    INT8 code exactly, shape ``(hkv, capacity, d)``.  Segment ``j`` (a
    prefill tile, a cache block or the decode buffer) covers the
    ``lens[j]`` columns after the segments before it, with one scalar
    scale per KV head in ``k_scales[..., j]`` and ``v_scales[..., j]``
    and its own largest code magnitudes; ``k_mag``/``v_mag`` are the
    largest over the row.  A row changes only at its end: :meth:`append`
    adds a segment, :meth:`extend` adds columns to the last one, and
    :meth:`pop` drops the last one so that the next write takes its
    columns.  :meth:`view` reads a range of segments as a row of its own.
    """

    def __init__(self, hkv: int, d: int, capacity: int, segments: int):
        self.k = np.empty((hkv, 1, d, capacity), dtype=np.int8)
        self.v = np.empty((hkv, capacity, d), dtype=np.float32)
        self.k_scales = np.empty((hkv, 1, 1, segments))
        self.v_scales = np.empty((hkv, 1, 1, segments))
        self.lens: List[int] = []
        self.n_keys = 0
        self._mags: List[Tuple[int, int]] = []  # per segment: largest |K|, |V| code

    @property
    def k_mag(self) -> int:
        return max((k for k, _ in self._mags), default=0)

    @property
    def v_mag(self) -> int:
        return max((v for _, v in self._mags), default=0)

    def _write(
        self, k_codes: np.ndarray, v_codes: np.ndarray, k_mag: int, v_mag: int
    ) -> Tuple[int, int]:
        c0 = self.n_keys
        self.n_keys += k_codes.shape[-2]
        self.k[:, 0, :, c0 : self.n_keys] = np.swapaxes(k_codes, -1, -2)
        self.v[:, c0 : self.n_keys] = v_codes
        return max(k_mag, code_magnitude(k_codes)), max(v_mag, code_magnitude(v_codes))

    def append(
        self, k_codes: np.ndarray, v_codes: np.ndarray, k_scale: np.ndarray, v_scale: np.ndarray
    ) -> None:
        """Add a segment after the last one."""
        j = len(self.lens)
        self.k_scales[..., j] = np.reshape(k_scale, self.k_scales.shape[:-1])
        self.v_scales[..., j] = np.reshape(v_scale, self.v_scales.shape[:-1])
        self._mags.append(self._write(k_codes, v_codes, 0, 0))
        self.lens.append(k_codes.shape[-2])

    def extend(self, k_codes: np.ndarray, v_codes: np.ndarray) -> None:
        """Add columns to the last segment, under its scales."""
        self._mags[-1] = self._write(k_codes, v_codes, *self._mags[-1])
        self.lens[-1] += k_codes.shape[-2]

    def pop(self) -> None:
        """Drop the last segment."""
        self.n_keys -= self.lens.pop()
        self._mags.pop()

    def view(self, lo: int, hi: int) -> "_KeyRow":
        """Segments ``lo`` to ``hi - 1`` as a row over views of this row's
        arrays (a split-K chunk), with their own code magnitudes."""
        c0, c1 = sum(self.lens[:lo]), sum(self.lens[:hi])
        part = _KeyRow.__new__(_KeyRow)
        part.k, part.v = self.k[..., c0:c1], self.v[:, c0:c1]
        part.k_scales, part.v_scales = self.k_scales[..., lo:hi], self.v_scales[..., lo:hi]
        part.lens, part.n_keys, part._mags = self.lens[lo:hi], c1 - c0, self._mags[lo:hi]
        return part


class _DecodeRow(_KeyRow):
    """A decode run's resident key row: every cache block decompressed to
    INT8, then the buffer's staged tokens.

    :func:`turbo_decode_steps` builds one per call, with room for the
    call's tokens, and :meth:`sync` writes what each step added: a staged
    token once, and a flush's block over the columns of the buffer tokens
    it holds (blocks are immutable after
    :meth:`~repro.core.kvcache.QuantizedKVCache.append_block`).
    """

    def __init__(self, cache: QuantizedKVCache, buffer: DecodeBuffer, steps: int):
        # Each flush adds a segment; staging ``steps`` tokens onto the
        # buffer's ``len(buffer)`` fills it at most this many times.
        flushes = (len(buffer) + steps) // buffer.capacity
        super().__init__(
            cache.n_heads,
            cache.head_dim,
            cache.seq_len + len(buffer) + steps,
            len(cache.blocks) + flushes + 1,
        )
        self._blocks = 0  # cache blocks written
        self._staged = 0  # buffer tokens written since the last flush
        self.sync(cache, buffer)

    def sync(self, cache: QuantizedKVCache, buffer: DecodeBuffer) -> None:
        """Write the cache blocks and buffer tokens added since the last call."""
        if len(cache.blocks) > self._blocks:
            if self._staged:
                self.pop()  # the flushed tokens: the new block takes their columns
            for block in cache.blocks[self._blocks :]:
                self.append(
                    pq_decompress_to_int8(block.k),
                    pq_decompress_to_int8(block.v),
                    block.k.float_scale,
                    block.v.float_scale,
                )
            self._blocks, self._staged = len(cache.blocks), 0
        if len(buffer) > self._staged:
            buf_k, buf_v = buffer.codes()
            if self._staged:
                self.extend(buf_k[:, self._staged :], buf_v[:, self._staged :])
            else:
                self.append(buf_k, buf_v, buffer.k_scale, buffer.v_scale)
            self._staged = len(buffer)


#: Score elements per slab of :func:`_attend_tiles`' elementwise chain.
#: A slab's float64 temporaries (scores, probabilities, P codes) then stay
#: in a core's L2 cache, which a whole prefill tile's (10-20 MB each)
#: overran.  Of 2**14 to 2**20 elements, measured on prefill and decode,
#: 2**16 was fastest.
_SLAB = 1 << 16


def _slabs(hkv: int, g: int, per_head: int) -> List[Tuple[slice, slice]]:
    """(KV heads, query heads) slices of at most ``_SLAB`` score elements
    of ``per_head`` each (at least one pair): whole KV heads when one
    fits, else blocks of one KV head's query group."""
    gb = min(g, max(1, _SLAB // per_head))
    hb = max(1, _SLAB // (g * per_head)) if gb == g else 1
    return [
        (slice(h0, h0 + hb), slice(g0, g0 + gb))
        for h0 in range(0, hkv, hb)
        for g0 in range(0, g, gb)
    ]


def _attend_tiles(
    q: np.ndarray,
    block_q: int,
    row: _KeyRow,
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    mc: int,
    causal_offset: Optional[int] = None,
    tail: Optional[Sequence[int]] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Flattened INT8 x SAS online-softmax attention: the inner loop of
    Algorithms 1 and 2 over whole key rows.

    ``q`` has shape ``(hkv, g, n, d)``; ``row`` holds the K/V code
    segments in key order, with one scalar scale per segment and KV head
    (see :class:`_KeyRow`: prefill's tiles, decode's resident row or a
    split-K range of it).  Without ``tail``, ``q`` is quantized in tiles
    of ``block_q`` rows, and each tile attends over a prefix of the
    segments: all of them, or with ``causal_offset`` (``n_keys - n`` of a
    causal prefill) those that start at or before its last row, under the
    causal additive mask.  With ``tail``, the ``n`` rows are decode steps
    of one buffer interval: one tile whose rows are each quantized on
    their own (Q per row, P per row and segment), and every row sees
    every segment but only the first ``tail[r]`` keys of the last one
    (the buffer), the later keys set to ``-inf``.

    Per tile that is one integer QK GEMM; the rest of the chain runs over
    slabs of (KV head, query head) pairs with at most ``_SLAB`` score
    elements (see :func:`_slabs`), each keeping all of the tile's rows:
    score scaling and the mask, two ``exp`` calls (every running-max
    correction and the whole probability row), one segmented P
    quantization, one batched PV GEMM per run of equal-length segments,
    which stacks the slab's query rows so that each GEMM multiplies a (KV
    head, segment) pair's V codes once, and the ``acc`` fold.  The ``l``
    fold and the normalization run once per tile.  Unless the PV bound
    passes 2**24, nothing here copies, scans or casts the whole row
    outside those GEMMs: the row keeps its code magnitudes and holds V as
    float32.

    Bit-identical to its loop twin :func:`_attend_loop` (and to the
    oracles in ``tests/_reference_kernels.py``): integer GEMM columns are
    independent, so slicing one concatenated product (or one slab of it)
    equals per-segment products, and a hidden key's P code is 0, which
    adds nothing to an exact integer PV product; ``max`` returns one of
    its inputs under any grouping, so segmented maxes plus
    ``np.maximum.accumulate`` reproduce the running-max trajectory; the
    exponential, the mask and the quantizer are element-wise; and the
    ``l``/``acc`` folds keep the per-segment recursion, whose float order
    matters (each segment's probability sum is the same pairwise ``.sum``
    over a slice of the same length, for a decode row's last segment its
    ``tail[r]`` visible keys).  The PV products are exact integers in the
    float type :func:`~repro.quant.integer_gemm.exact_float_dtype` picks
    for their bound, as :func:`~repro.quant.integer_gemm.int_matmul` does
    for QK: float32, where the row's V already is, or V widened to
    float64 once per call.  When the code magnitudes cannot rule out int32
    overflow this returns ``None`` and :func:`_attend` runs the loop twin,
    whose integer GEMMs check overflow one (tile, segment) pair at a time.

    Returns ``(out (hkv, g, n, d), lse (hkv, g, n))``.
    """
    hkv, g, n, d = q.shape
    if tail is None:
        q_tiles = [
            (qs, *quantize_tile(q[:, :, qs : qs + block_q, :], mc))
            for qs in range(0, n, block_q)
        ]
    else:
        qc, q_scale = quantize_tile(q[..., None, :], mc)
        q_tiles = [(0, qc[..., 0, :], q_scale[..., 0])]
    lens = row.lens
    q_mag = max((code_magnitude(qc) for _, qc, _ in q_tiles), default=0)
    pv_bound = mc * row.v_mag * max(lens)
    if q_mag * row.k_mag * d > _INT32_MAX or pv_bound > _INT32_MAX:
        return None
    pv_dtype = exact_float_dtype(pv_bound)
    vf = row.v if pv_dtype is np.float32 else row.v[:, : row.n_keys].astype(pv_dtype)

    nseg = len(lens)
    ends = np.cumsum(lens)
    starts = ends - lens
    k_scales = row.k_scales[..., :nseg]
    v_scales = row.v_scales[..., :nseg]
    # Maximal runs of equal-length segments, (first, stop, column, length):
    # cache blocks share one size, so a history is one or a few runs.
    breaks = [0] + [j for j in range(1, nseg) if lens[j] != lens[j - 1]] + [nseg]
    runs = [(j0, j1, int(starts[j0]), lens[j0]) for j0, j1 in zip(breaks, breaks[1:])]
    if tail is not None:
        hidden = np.arange(lens[-1]) >= np.asarray(tail)[:, None]

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
        # The causal mask can hide only the columns past the tile's first row.
        mask_from = kmax if causal_offset is None else min(max(qs + causal_offset + 1, 0), kmax)
        if mask_from < kmax:
            mask = causal_mask_block(qs, nq, mask_from, kmax - mask_from, causal_offset)
        # Per (row, segment): rescale factors and probability sums, folded
        # into ``l`` once the slabs are done; each row's final running max.
        corr_t = np.empty((hkv, g, nq, j_lim))
        p_sums = np.empty((hkv, g, nq, j_lim))
        m_last = np.empty((hkv, g, nq))
        if tail is not None:
            p_tail = np.empty((hkv, g, nq, lens[-1]))

        gemm = int_matmul(qc, row.k[..., :kmax])
        for hs, gs in _slabs(hkv, g, nq * kmax):
            qk_scale = np.repeat(q_scale[hs, gs] * k_scales[hs, ..., :j_lim], seg_lens, axis=-1)
            s = qk_scale * gemm[hs, gs]
            s *= scale
            if mask_from < kmax:
                s[..., mask_from:] += mask
            if tail is not None:
                np.copyto(s[..., starts[-1] :], -np.inf, where=hidden)
            sh, sg = s.shape[:2]
            m_new = np.maximum.accumulate(_segment_reduce(np.maximum, s, tile_runs), axis=-1)
            m_prev = np.concatenate(
                [np.full((sh, sg, nq, 1), -np.inf), m_new[..., :-1]], axis=-1
            )
            with np.errstate(invalid="ignore"):
                corr_all = exp(m_prev - m_new)
            corr_t[hs, gs] = np.where(np.isfinite(m_prev), corr_all, 0.0)
            m_last[hs, gs] = m_new[..., -1]
            s -= np.repeat(m_new, seg_lens, axis=-1)
            p = exp(s)
            p_sums[hs, gs] = _segment_reduce(np.add, p, tile_runs)
            if tail is not None:
                p_tail[hs, gs] = p[..., starts[-1] :]

            # P quantizes per (tile, segment): prefill's absmax spans the
            # tile's rows, a decode row is its own tile.  P is never
            # negative, and its codes are integers in [0, mc], exact in
            # either float type.
            p_absmax = _segment_reduce(np.maximum, p, tile_runs)
            if tail is None:
                p_absmax = p_absmax.max(axis=2, keepdims=True)
            p_scale = np.maximum(p_absmax, 1e-12) / float(mc)
            np.divide(p, np.repeat(p_scale, seg_lens, axis=-1), out=s)
            np.rint(s, out=s)
            pcf = np.clip(s, -mc, mc, out=s).astype(pv_dtype)
            pv_scale = p_scale * v_scales[hs, ..., :j_lim]
            acc = np.zeros((sh, sg, nq, d))
            for j0, j1, c0, ln in tile_runs:
                cnt = j1 - j0
                c1 = c0 + cnt * ln
                # One GEMM per (KV head, segment) over the slab's query rows.
                pv = (
                    pcf[..., c0:c1].reshape(sh, sg * nq, cnt, ln).transpose(0, 2, 1, 3)
                    @ vf[hs, c0:c1, :].reshape(sh, cnt, ln, d)
                ).reshape(sh, cnt, sg, nq, d)
                for j in range(j0, j1):
                    np.multiply(acc, corr_t[hs, gs, :, j, None], out=acc)
                    np.add(acc, pv_scale[..., j, None] * pv[:, j - j0], out=acc)
            out[hs, gs, qs:qe, :] = acc

        if tail is not None:
            # A decode row sums only the buffer keys its step had staged.
            for r, t in enumerate(tail):
                p_sums[:, :, r, -1] = p_tail[:, :, r, :t].sum(axis=-1)
        l = np.zeros((hkv, g, nq))
        for j in range(j_lim):
            np.multiply(l, corr_t[..., j], out=l)
            np.add(l, p_sums[..., j], out=l)
        safe_l = np.where(l > 0, l, 1.0)
        out[:, :, qs:qe, :] /= safe_l[..., None]
        lse[:, :, qs:qe] = np.where(l > 0, m_last + np.log(safe_l), -np.inf)
    return out, lse


def _dequantize(codes: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``codes * scale`` as a C-ordered ``(hkv, keys, d)`` float64 array.

    The row keeps K keys-last, but BLAS picks its float kernel by operand
    layout, so the FP16 paths copy K into this layout: over it they round
    as they do over codes decompressed block by block."""
    return codes.astype(np.float64, order="C") * scale


def _attend_loop(
    q: np.ndarray,
    block_q: int,
    row: _KeyRow,
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    config: TurboConfig,
    causal_offset: Optional[int] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    floats: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    fp16_segments: Collection[int] = (),
    tail: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Loop twin of :func:`_attend_tiles`: the same recursion and result,
    one (query tile, segment) pair at a time.

    It is both kernels' guard, FP16-MatMul and int32 fallback path, and
    takes the core's arguments (``config`` in place of ``mc``) plus the
    guard's and the FP16 path's.  It walks ``row.lens`` and reads each
    segment's codes and scales in place; with ``tail`` (decode rows,
    ``block_q`` 1) tile ``t`` reads ``tail[t]`` keys of the last segment,
    as its step did.  A pair's two MatMuls are integer GEMMs, guarded by
    the accumulator headroom check under ``guard``, unless
    ``quantize_matmuls`` is off, the guard flagged its query tile, or its
    segment is in ``fp16_segments``; then they run in FP16 over
    ``floats[j]`` (prefill's sanitized float K/V tiles) or, without
    ``floats``, over the dequantized codes.  The guard screens
    inputs in loop order where they can still be repaired: with
    ``floats`` each query tile (the K/V tiles were screened when
    quantized), without them each stored segment's scales (the codes are
    integers and cannot be non-finite).
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
        for j, n_j in enumerate(row.lens):
            if tail is not None and j == len(row.lens) - 1:
                n_j = tail[t]
            ks, ke = ke, ke + n_j
            if causal_offset is not None and ks > qe - 1 + causal_offset:
                break
            k_scale, v_scale = row.k_scales[..., j], row.v_scales[..., j]
            where = f"span {j}" if floats is None else f"q{t} k{j}"
            if guard is not None and floats is None:
                k_scale = check_scale(k_scale, f"decode span {j} k scale", guard, report)
                v_scale = check_scale(v_scale, f"decode span {j} v scale", guard, report)
            fp16 = fp16_tile or j in fp16_segments
            if fp16:
                if floats is None:
                    k_f = _dequantize(np.swapaxes(row.k[:, 0, :, ks:ke], -1, -2), k_scale)
                    v_f = _dequantize(row.v[:, ks:ke], v_scale)
                else:
                    k_f, v_f = floats[j]
                s_tile = fp16_matmul(q_tile, np.swapaxes(k_f, -1, -2)[:, None, :, :]) * scale
            else:
                kT = row.k[..., ks:ke]
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
                vc = row.v[:, None, ks:ke].astype(np.int8)
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
    row: _KeyRow,
    exp: Callable[[np.ndarray], np.ndarray],
    scale: float,
    config: TurboConfig,
    causal_offset: Optional[int] = None,
    guard: Optional[GuardConfig] = None,
    report: Optional[GuardReport] = None,
    floats: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    fp16_segments: Collection[int] = (),
    tail: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Attention for both kernels over a :class:`_KeyRow`: prefill's
    tiles, the decode rows of one buffer interval over the resident row
    (``block_q`` 1 and ``tail``, see :func:`_attend_tiles`) or a
    split-K range of it.

    The flattened core :func:`_attend_tiles` runs when no guard runs, both
    MatMuls are INT8 and the core's int32 bound holds; else
    :func:`_attend_loop`, which takes the same arguments.  Returns
    ``(out (hkv, g, n, d), lse (hkv, g, n))``, normalized; decode's
    one-row ``(out, lse)`` partials are the mergeable split-K contract."""
    if guard is None and config.quantize_matmuls:
        flat = _attend_tiles(
            q, block_q, row, exp, scale, config.int8_max_code, causal_offset, tail
        )
        if flat is not None:
            return flat
    return _attend_loop(
        q, block_q, row, exp, scale, config, causal_offset, guard, report, floats,
        fp16_segments, tail,
    )


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


def _reference_step(row: _KeyRow, q: np.ndarray, scale: float) -> np.ndarray:
    """FP16-reference decode: exact softmax attention
    (:func:`~repro.attention.reference.reference_attention`) over the
    dequantized row — the fallback path for a guard-flagged step.

    The cache stores only codes + scales, so ``codes * scale`` *is* the
    reference-precision view of the history; what this path removes is the
    integer score/output arithmetic and SAS for the poisoned step.
    """
    hkv, n = row.k.shape[0], row.n_keys

    def per_key(scales: np.ndarray) -> np.ndarray:  # each segment's, over its keys
        return np.repeat(scales[..., : len(row.lens)], row.lens, axis=-1).reshape(hkv, n, 1)

    k = _dequantize(np.swapaxes(row.k[:, 0, :, :n], -1, -2), per_key(row.k_scales))
    v = _dequantize(row.v[:, :n], per_key(row.v_scales))
    return reference_attention(q, k[:, None], v[:, None], scale=scale)


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

    It builds the resident key row and makes one core call for its one
    token, so a loop of these pays per token what one bulk call pays per
    buffer interval.

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
    """Decode a run of tokens in order, one buffer interval per core call.

    ``qs``/``ks``/``vs`` have shapes ``(steps, q_heads, head_dim)`` and
    ``(steps, kv_heads, head_dim)``; the result is ``(steps, q_heads,
    head_dim)``.  Each step screens its inputs under the guard and stages
    its token (flushing a full buffer through the escalator); it attends
    over the cache blocks plus the buffer as staged at that step: through
    the FP16 reference path when the guard flagged the step, otherwise
    through :func:`_attend` (the flattened INT8 core, or its loop twin
    under a guard, the FP16-MatMul ablation or a failed int32 bound).

    The attended history changes only at a flush, so the steps run by
    buffer intervals: an interval is the run of steps up to the next
    flush (a flush starts the next one; under a guard it is one step, so
    screening, the fallback step and the guard's events stay per step).
    An interval stages its tokens, brings the resident key row
    (:class:`_DecodeRow`) up to date once, then makes one :func:`_attend`
    call for all its queries, with ``tail`` giving each query the buffer
    tokens staged by its own step.  Each cache block is decompressed to
    INT8 and written into the row once, when it first appears, and each
    staged token once.  So the core makes one ``int_matmul`` call per
    interval, and the SAS callable is resolved once per run.  Row ``t``
    equals what :func:`turbo_decode_step` returns for token ``t``, since
    that is this loop run for one token.  See :func:`turbo_decode_step`
    for the parameters.
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
    row = _DecodeRow(cache, buffer, steps)
    out = np.empty((steps, hq, d), dtype=np.float64)
    t0 = 0
    while t0 < steps:
        # An interval runs until the buffer is full, since a full buffer
        # flushes when the next step stages; under a guard it is one step.
        room = 1 if guard is not None else buffer.capacity - len(buffer) % buffer.capacity
        t1 = min(steps, t0 + room)
        queries, tail = [], []
        fallback = False
        for t in range(t0, t1):
            q_t, k_t, v_t = qs[t], ks[t], vs[t]
            if guard is not None:
                q_t, fb_q = check_finite_tile(q_t, "decode q_t", guard, report)
                k_t, fb_k = check_finite_tile(k_t, "decode k_t", guard, report)
                v_t, fb_v = check_finite_tile(v_t, "decode v_t", guard, report)
                fallback = fb_q or fb_k or fb_v
            _stage_token(k_t, v_t, cache, buffer, escalator, report)
            queries.append(q_t)
            tail.append(len(buffer))
        row.sync(cache, buffer)
        q = np.stack(queries, axis=1).reshape(hkv, g, t1 - t0, d)
        if fallback:
            report.fallback_steps += 1
            report.record("fallback_step:decode")
            interval_out = _reference_step(row, q, scale)
        else:
            interval_out, _lse = _attend(
                q, 1, row, exp, scale, config, guard=guard, report=report, tail=tail
            )
        out[t0:t1] = np.moveaxis(interval_out.reshape(hq, t1 - t0, d), 1, 0)
        t0 = t1
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
    """Split-K decode: the segments of one decode row (the cache blocks,
    then the buffer) are partitioned across ``n_splits`` independent
    workers, each reading its range as a view of the row, whose partials
    merge exactly.

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
    row = _DecodeRow(cache, buffer, 0)
    q = q_t.reshape(hkv, g, 1, d)
    segments = len(row.lens)
    merged, _ = split_k_chunks(
        lambda lo, hi: _attend(q, 1, row.view(lo, hi), exp, scale, config),
        segments,
        min(n_splits, segments),
    )
    return merged.reshape(hq, d)

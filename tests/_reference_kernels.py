"""Loop-oracle reference kernels for the bit-exactness property tests.

The production kernels batch their tile/span iteration (concatenated
integer GEMMs, precomputed running-max trajectories, BLAS-backed integer
matmul).  These oracles keep the naive shape — one tile or span per
Python-loop iteration, integer matmul in an int64 accumulator — so the
tests can assert the vectorized rewrites changed *nothing*, bit for bit.
The same holds for the miniature serialized KV payload: one draw and one
``append_block`` per block.

They intentionally share the primitive helpers (``quantize_tile``, the
SAS/exp factory, the causal mask) with the production code: those are
elementwise and not under test; the *iteration structure* and the matmul
engine are.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attention.masks import causal_mask_block
from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.decode import _KeyRow
from repro.core.kvcache import QuantizedKVCache
from repro.core.prefill import _exp_fn, quantize_tile
from repro.core.serialization import state_digest, state_to_arrays
from repro.core.turbo import TurboKVState
from repro.quant.progressive import pq_decompress_to_int8
from repro.sas.lut import ExpLUT
from repro.sas.poly import poly_eval

__all__ = [
    "ODD_PAYLOAD_GEOMETRY",
    "assert_same_payload",
    "gather_spans",
    "key_row",
    "naive_int_matmul",
    "reference_decode_attend",
    "reference_miniature_payload",
    "reference_prefill_attention",
    "reference_sas_exp",
]


def naive_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul in an int64 accumulator — overflow-proof oracle."""
    return (a.astype(np.int64) @ b.astype(np.int64)).astype(np.int32)


def reference_sas_exp(
    x: np.ndarray,
    lut: ExpLUT,
    coeffs: Sequence[float],
    threshold: int,
    emulate_fp16: bool,
) -> np.ndarray:
    """SAS's exponential as one whole-array pass: a frozen copy of the
    ``repro.sas.softmax.sas_exp`` formula, which the production function
    may evaluate in pieces but must match byte for byte."""
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x)
    active = finite & (x >= threshold)
    y = np.where(active, -np.minimum(x, 0.0), 0.0)
    y_int = np.floor(y)
    y_dec = y - y_int
    out = lut.lookup(y_int.astype(np.int64)) * poly_eval(
        y_dec, coeffs, emulate_fp16=emulate_fp16
    )
    return np.where(active, out, 0.0)


def reference_prefill_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    config: TurboConfig,
    causal: bool = True,
    scale: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-tile online-softmax prefill loop (Algorithm 1), no batching.

    Returns ``(output (hq, n, d), lse (hq, n))`` for the integer compute
    path (``config.quantize_matmuls`` must be on).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hq, n, d = q.shape
    hkv, nk, _ = k.shape
    g = hq // hkv
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    offset = nk - n
    exp = _exp_fn(config)
    mc = config.int8_max_code
    qg = q.reshape(hkv, g, n, d)
    bq, bk = config.block_q, config.block_k

    bounds = [(s, min(s + bk, nk)) for s in range(0, nk, bk)]
    k_tiles = [quantize_tile(k[:, ks:ke, :], mc) for ks, ke in bounds]
    v_tiles = [quantize_tile(v[:, ks:ke, :], mc) for ks, ke in bounds]

    out = np.zeros((hkv, g, n, d), dtype=np.float64)
    lse = np.zeros((hkv, g, n), dtype=np.float64)
    for qs in range(0, n, bq):
        qe = min(qs + bq, n)
        qc, qsc = quantize_tile(qg[:, :, qs:qe, :], mc)
        m = np.full((hkv, g, qe - qs), -np.inf)
        l = np.zeros((hkv, g, qe - qs))
        acc = np.zeros((hkv, g, qe - qs, d))
        for j, (ks, ke) in enumerate(bounds):
            if causal and ks > qe - 1 + offset:
                break
            kc, ksc = k_tiles[j]
            vc, vsc = v_tiles[j]
            s_tile = (
                qsc
                * ksc[:, None, :, :]
                * naive_int_matmul(qc, np.swapaxes(kc, -1, -2)[:, None, :, :])
            ) * scale
            if causal:
                s_tile = s_tile + causal_mask_block(qs, qe - qs, ks, ke - ks, offset)
            m_new = np.maximum(m, s_tile.max(axis=-1))
            with np.errstate(invalid="ignore"):
                corr = exp(m - m_new)
            corr = np.where(np.isfinite(m), corr, 0.0)
            p = exp(s_tile - m_new[..., None])
            l = corr * l + p.sum(axis=-1)
            pc, psc = quantize_tile(p, mc)
            pv = psc * vsc[:, None, :, :] * naive_int_matmul(pc, vc[:, None, :, :])
            acc = corr[..., None] * acc + pv
            m = m_new
        safe_l = np.where(l > 0, l, 1.0)
        out[:, :, qs:qe, :] = acc / safe_l[..., None]
        lse[:, :, qs:qe] = np.where(l > 0, m + np.log(safe_l), -np.inf)
    return out.reshape(hq, n, d), lse.reshape(hq, n)


def reference_decode_attend(
    spans: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    q: np.ndarray,
    hkv: int,
    config: TurboConfig,
    scale: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-span decode loop (Algorithm 2), no batching.

    ``spans`` are ``(k_codes, v_codes, k_scale, v_scale)`` tuples as the
    decode kernel gathers them from the cache and buffer.  Returns
    ``(output (hq, d), lse (hq,))``.
    """
    q = np.asarray(q, dtype=np.float64)
    hq, d = q.shape
    g = hq // hkv
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    exp = _exp_fn(config)
    mc = config.int8_max_code
    qc, q_scale = quantize_tile(q.reshape(hkv, g, 1, d), mc)

    m = np.full((hkv, g, 1), -np.inf)
    l = np.zeros((hkv, g, 1))
    acc = np.zeros((hkv, g, 1, d))
    for k_codes, v_codes, k_scale, v_scale in spans:
        s_tile = (
            q_scale
            * np.reshape(k_scale, (hkv, 1, 1, 1))
            * naive_int_matmul(qc, np.swapaxes(k_codes, -1, -2)[:, None, :, :])
        ) * scale
        m_new = np.maximum(m, s_tile.max(axis=-1))
        with np.errstate(invalid="ignore"):
            corr = exp(m - m_new)
        corr = np.where(np.isfinite(m), corr, 0.0)
        p = exp(s_tile - m_new[..., None])
        l = corr * l + p.sum(axis=-1)
        p_absmax = np.maximum(np.abs(p).max(axis=(-2, -1), keepdims=True), 1e-12)
        p_scale = p_absmax / float(mc)
        pc = np.clip(np.rint(p / p_scale), -mc, mc).astype(np.int8)
        pv = (
            p_scale
            * np.reshape(v_scale, (hkv, 1, 1, 1))
            * naive_int_matmul(pc, v_codes[:, None, :, :])
        )
        acc = corr[..., None] * acc + pv
        m = m_new
    safe_l = np.where(l > 0, l, 1.0)
    out = acc / safe_l[..., None]
    lse = np.where(l > 0, m + np.log(safe_l), -np.inf)
    return out.reshape(hq, d), lse.reshape(hq)


def gather_spans(
    cache: QuantizedKVCache, buffer: DecodeBuffer
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The ``(k_codes, v_codes, k_scale, v_scale)`` spans a decode step
    attends over, gathered afresh: every cache block decompressed to INT8,
    then the buffer's codes when it holds any.  The oracle of the decode
    kernel's resident key row."""
    spans = [
        (
            pq_decompress_to_int8(block.k),
            pq_decompress_to_int8(block.v),
            block.k.float_scale,
            block.v.float_scale,
        )
        for block in cache.blocks
    ]
    buf_k, buf_v = buffer.codes()
    if buf_k.shape[-2] > 0:
        spans.append((buf_k, buf_v, buffer.k_scale, buffer.v_scale))
    return spans


def key_row(
    spans: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
) -> _KeyRow:
    """A fresh key row holding ``spans`` in key order, one segment each."""
    hkv, _, d = spans[0][0].shape
    row = _KeyRow(hkv, d, sum(span[0].shape[-2] for span in spans), len(spans))
    for span in spans:
        row.append(*span)
    return row


#: A payload geometry where no dimension is a power of two or equal to
#: another, next to the configs' defaults (8 blocks x 16 x 2 x 8).
ODD_PAYLOAD_GEOMETRY = dict(
    payload_blocks=3, payload_block_tokens=5, payload_heads=3, payload_head_dim=7
)


def reference_miniature_payload(
    key: Sequence[int], bits: int, geometry
) -> Dict[str, np.ndarray]:
    """Per-block loop build of the miniature serialized KV payload.

    One K draw, then one V draw, then one ``append_block`` per block —
    the loop :func:`repro.migrate.miniature_payload` vectorizes.
    ``geometry`` carries the ``payload_*`` fields of a
    :class:`~repro.migrate.MigrationConfig` or
    :class:`~repro.recover.RecoverConfig`.
    """
    rng = np.random.default_rng(key)
    heads, dim = geometry.payload_heads, geometry.payload_head_dim
    head_bits = np.full(heads, bits, dtype=np.int32)
    cache = QuantizedKVCache(
        heads, dim, head_bits=head_bits, block_size=geometry.payload_block_tokens
    )
    scale = np.ones((heads, 1, 1))
    for _ in range(geometry.payload_blocks):
        k = rng.integers(-100, 101, size=(heads, geometry.payload_block_tokens, dim))
        v = rng.integers(-100, 101, size=(heads, geometry.payload_block_tokens, dim))
        cache.append_block(
            k.astype(np.int8), v.astype(np.int8), k_scale=scale, v_scale=scale
        )
    buffer = DecodeBuffer(
        heads, dim, capacity=geometry.payload_block_tokens, k_scale=scale, v_scale=scale
    )
    state = TurboKVState(cache=cache, buffer=buffer, head_bits=head_bits)
    return state_to_arrays(state, checksums=True)


def assert_same_payload(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> None:
    """Two serialized payloads hold the same keys and, per key, the same
    dtype, shape and bytes — and hence the same ``state_digest``."""
    assert sorted(got) == sorted(want)
    for key in want:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key
    assert state_digest(got) == state_digest(want)

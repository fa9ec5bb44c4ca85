"""Loop-oracle reference kernels for the bit-exactness property tests.

The production kernels batch their tile/span iteration (concatenated
integer GEMMs, precomputed running-max trajectories, BLAS-backed integer
matmul).  These oracles keep the naive shape — one tile or span per
Python-loop iteration, integer matmul in an int64 accumulator — so the
tests can assert the vectorized rewrites changed *nothing*, bit for bit.
The same holds for the miniature serialized KV payload: one draw and one
``append_block`` per block; and for loading a serialized KV state: a
strict walk and a separate salvage walk, which a handoff receive or a
snapshot verify runs one after the other.

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
from repro.core.kvcache import CacheBlock, QuantizedKVCache
from repro.core.prefill import _exp_fn, quantize_tile
from repro.core.serialization import (
    SCHEMA_VERSION,
    SalvageResult,
    state_digest,
    state_to_arrays,
)
from repro.core.turbo import TurboKVState
from repro.guard.checksum import array_crc32, checksum_key
from repro.guard.errors import (
    CacheCorruptionError,
    ChecksumMismatchError,
    CorruptValueError,
    GeometryError,
    SchemaError,
)
from repro.migrate import HandoffOutcome
from repro.quant.packing import packed_nbytes, unpack_codes
from repro.quant.progressive import ProgressiveBlock, legal_bits, pq_decompress_to_int8
from repro.recover import corrupt_snapshot_payload, snapshot_payload
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
    "reference_receive_payload",
    "reference_salvage_state",
    "reference_sas_exp",
    "reference_state_from_arrays",
    "reference_verify_snapshot",
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


# --------------------------------------------------------------------------
# Loading a serialized KV state: two walks over the same arrays
# --------------------------------------------------------------------------


def _ref_schema_version(arrays: Dict[str, np.ndarray]) -> int:
    if "meta.schema" not in arrays:
        if "meta.n_heads" not in arrays:
            raise SchemaError("not a serialized KV state (no meta arrays)")
        return 1
    version = int(arrays["meta.schema"])
    if not 1 <= version <= SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version}", key="meta.schema")
    return version


def _ref_checked(arrays: Dict[str, np.ndarray], key: str, verify: bool) -> np.ndarray:
    if key not in arrays:
        raise SchemaError(f"missing array {key!r} (truncated state?)", key=key)
    arr = arrays[key]
    if verify:
        crc_key = checksum_key(key)
        if crc_key not in arrays:
            raise SchemaError(f"missing checksum for {key!r}", key=key)
        expected = int(arrays[crc_key])
        actual = array_crc32(arr)
        if actual != expected:
            raise ChecksumMismatchError(key, expected, actual)
    return arr


def _ref_as_int(arrays: Dict[str, np.ndarray], key: str, verify: bool) -> int:
    arr = _ref_checked(arrays, key, verify)
    if np.asarray(arr).size != 1:
        raise GeometryError(f"{key!r} must be a scalar", key=key)
    return int(arr)


def _ref_meta(arrays: Dict[str, np.ndarray], verify: bool):
    n_heads = _ref_as_int(arrays, "meta.n_heads", verify)
    head_dim = _ref_as_int(arrays, "meta.head_dim", verify)
    block_size = _ref_as_int(arrays, "meta.block_size", verify)
    n_blocks = _ref_as_int(arrays, "meta.n_blocks", verify)
    if n_heads <= 0 or head_dim <= 0 or block_size <= 0 or n_blocks < 0:
        raise GeometryError(
            f"non-positive geometry: heads={n_heads} dim={head_dim} "
            f"block_size={block_size} n_blocks={n_blocks}"
        )
    head_bits = _ref_checked(arrays, "meta.head_bits", verify).astype(np.int32)
    if head_bits.shape != (n_heads,):
        raise GeometryError(
            f"meta.head_bits shape {head_bits.shape} != ({n_heads},)",
            key="meta.head_bits",
        )
    if not legal_bits(head_bits):
        raise CorruptValueError(
            f"illegal head bit-widths {np.unique(head_bits)}", key="meta.head_bits"
        )
    return n_heads, head_dim, block_size, n_blocks, head_bits


def _ref_unpack_block(prefix: str, arrays: Dict[str, np.ndarray]) -> ProgressiveBlock:
    bits_arr = arrays[f"{prefix}.bits"].astype(np.int32)
    shape = tuple(int(x) for x in arrays[f"{prefix}.shape"])
    codes = np.empty(shape, dtype=np.uint8)
    for h in range(shape[0]):
        width = int(bits_arr.reshape(-1)[h])
        length = int(arrays[f"{prefix}.len{h}"])
        codes[h] = unpack_codes(arrays[f"{prefix}.codes{h}"], width, length).reshape(
            shape[1:]
        )
    return ProgressiveBlock(
        codes=codes,
        s_int=arrays[f"{prefix}.s_int"].astype(np.int16),
        z_int=arrays[f"{prefix}.z_int"].astype(np.int16),
        bits=bits_arr,
        float_scale=arrays[f"{prefix}.float_scale"].astype(np.float64),
    )


def _ref_block(arrays, i, n_heads, head_dim, block_size, verify) -> CacheBlock:
    length = _ref_as_int(arrays, f"block{i}.length", verify)
    if not 0 < length <= block_size:
        raise GeometryError(
            f"block{i} length {length} outside (0, block_size={block_size}]",
            key=f"block{i}.length",
        )
    halves = {}
    for part in ("k", "v"):
        prefix = f"block{i}.{part}"
        shape_arr = _ref_checked(arrays, f"{prefix}.shape", verify)
        if shape_arr.size != 3:
            raise GeometryError(f"{prefix}.shape must have 3 dims", key=f"{prefix}.shape")
        shape = tuple(int(x) for x in shape_arr)
        if shape[0] != n_heads or shape[2] != head_dim or shape[1] != length:
            raise GeometryError(
                f"{prefix} shape {shape} inconsistent with "
                f"(heads={n_heads}, length={length}, dim={head_dim})",
                key=f"{prefix}.shape",
            )
        bits = _ref_checked(arrays, f"{prefix}.bits", verify).astype(np.int32)
        if bits.reshape(-1).shape[0] != n_heads:
            raise GeometryError(
                f"{prefix}.bits has {bits.reshape(-1).shape[0]} entries for "
                f"{n_heads} heads",
                key=f"{prefix}.bits",
            )
        if not legal_bits(bits):
            raise CorruptValueError(
                f"{prefix}.bits contains illegal widths {np.unique(bits)}",
                key=f"{prefix}.bits",
            )
        s_int = _ref_checked(arrays, f"{prefix}.s_int", verify)
        if s_int.size and int(np.min(s_int)) < 1:
            raise CorruptValueError(
                f"{prefix}.s_int has entries < 1 (zeroed integer scale)",
                key=f"{prefix}.s_int",
            )
        _ref_checked(arrays, f"{prefix}.z_int", verify)
        float_scale = _ref_checked(arrays, f"{prefix}.float_scale", verify)
        fs = np.asarray(float_scale, dtype=np.float64)
        if not np.all(np.isfinite(fs)) or np.any(fs <= 0):
            raise CorruptValueError(
                f"{prefix}.float_scale non-finite or non-positive",
                key=f"{prefix}.float_scale",
            )
        for h in range(n_heads):
            width = int(bits.reshape(-1)[h])
            declared = _ref_as_int(arrays, f"{prefix}.len{h}", verify)
            if declared != length * head_dim:
                raise GeometryError(
                    f"{prefix}.len{h} = {declared}, expected {length * head_dim}",
                    key=f"{prefix}.len{h}",
                )
            payload = _ref_checked(arrays, f"{prefix}.codes{h}", verify)
            need = packed_nbytes(declared, width)
            if payload.size < need:
                raise GeometryError(
                    f"{prefix}.codes{h} holds {payload.size} bytes, "
                    f"needs {need} for {declared} {width}-bit codes",
                    key=f"{prefix}.codes{h}",
                )
        halves[part] = _ref_unpack_block(prefix, arrays)
    return CacheBlock(k=halves["k"], v=halves["v"], length=length)


def _ref_buffer(arrays, n_heads, head_dim, verify) -> DecodeBuffer:
    capacity = _ref_as_int(arrays, "buffer.capacity", verify)
    clamp_code = _ref_as_int(arrays, "buffer.clamp_code", verify)
    if capacity <= 0:
        raise GeometryError(f"buffer capacity {capacity} must be positive",
                            key="buffer.capacity")
    if not 1 <= clamp_code <= 127:
        raise CorruptValueError(f"buffer clamp_code {clamp_code} outside [1, 127]",
                                key="buffer.clamp_code")
    k_codes = _ref_checked(arrays, "buffer.k_codes", verify)
    v_codes = _ref_checked(arrays, "buffer.v_codes", verify)
    if k_codes.shape != v_codes.shape:
        raise GeometryError(
            f"buffer code shapes differ: {k_codes.shape} vs {v_codes.shape}",
            key="buffer.k_codes",
        )
    if k_codes.ndim != 3 or k_codes.shape[0] != n_heads or k_codes.shape[2] != head_dim:
        raise GeometryError(
            f"buffer codes shape {k_codes.shape} inconsistent with "
            f"(heads={n_heads}, dim={head_dim})",
            key="buffer.k_codes",
        )
    n_staged = k_codes.shape[1]
    if n_staged > capacity:
        raise GeometryError(
            f"buffer holds {n_staged} staged tokens but capacity is {capacity}",
            key="buffer.k_codes",
        )
    scales = {}
    for name in ("buffer.k_scale", "buffer.v_scale"):
        sc = np.asarray(_ref_checked(arrays, name, verify), dtype=np.float64)
        if sc.size != n_heads:
            raise GeometryError(
                f"{name} has {sc.size} entries for {n_heads} heads", key=name
            )
        if not np.all(np.isfinite(sc)) or np.any(sc <= 0):
            raise CorruptValueError(f"{name} non-finite or non-positive", key=name)
        scales[name] = sc
    buffer = DecodeBuffer(
        n_heads, head_dim, capacity=capacity,
        k_scale=scales["buffer.k_scale"], v_scale=scales["buffer.v_scale"],
        clamp_code=clamp_code,
    )
    if n_staged:
        buffer.restore(k_codes, v_codes)
    return buffer


def reference_state_from_arrays(arrays: Dict[str, np.ndarray]) -> TurboKVState:
    """The strict load as its own walk: meta, every block, the buffer,
    then (schema v2) the declared ``meta.seq_len``; raises the first
    typed error met."""
    version = _ref_schema_version(arrays)
    verify = version >= 2
    n_heads, head_dim, block_size, n_blocks, head_bits = _ref_meta(arrays, verify)
    cache = QuantizedKVCache(n_heads, head_dim, head_bits=head_bits, block_size=block_size)
    for i in range(n_blocks):
        cache.blocks.append(_ref_block(arrays, i, n_heads, head_dim, block_size, verify))
    buffer = _ref_buffer(arrays, n_heads, head_dim, verify)
    state = TurboKVState(cache=cache, buffer=buffer, head_bits=head_bits)
    if verify:
        declared = _ref_as_int(arrays, "meta.seq_len", verify)
        if declared != state.seq_len:
            raise GeometryError(
                f"declared seq_len {declared} != reconstructed {state.seq_len}",
                key="meta.seq_len",
            )
    return state


def reference_salvage_state(arrays: Dict[str, np.ndarray]) -> SalvageResult:
    """The salvage load as a second walk over the same arrays: every
    declared block length up front, then the blocks up to the first
    failure, then the buffer."""
    version = _ref_schema_version(arrays)
    verify = version >= 2
    n_heads, head_dim, block_size, n_blocks, head_bits = _ref_meta(arrays, verify)
    errors: List[CacheCorruptionError] = []
    cache = QuantizedKVCache(n_heads, head_dim, head_bits=head_bits, block_size=block_size)
    dropped: List[int] = []
    declared_lengths: List[Optional[int]] = []
    for i in range(n_blocks):
        try:
            declared_lengths.append(_ref_as_int(arrays, f"block{i}.length", False))
        except CacheCorruptionError:
            declared_lengths.append(None)
    first_bad: Optional[int] = None
    for i in range(n_blocks):
        try:
            block = _ref_block(arrays, i, n_heads, head_dim, block_size, verify)
        except CacheCorruptionError as err:
            errors.append(err)
            first_bad = i
            break
        cache.blocks.append(block)
    if first_bad is not None:
        dropped = list(range(first_bad, n_blocks))
    buffer_dropped = False
    try:
        buffer = _ref_buffer(arrays, n_heads, head_dim, verify)
    except CacheCorruptionError as err:
        errors.append(err)
        buffer_dropped = True
        capacity = block_size
        try:
            capacity = max(1, _ref_as_int(arrays, "buffer.capacity", False))
        except CacheCorruptionError:
            pass
        buffer = DecodeBuffer(
            n_heads, head_dim, capacity=capacity,
            k_scale=np.ones((n_heads, 1, 1)), v_scale=np.ones((n_heads, 1, 1)),
        )
    if first_bad is not None and len(buffer):
        buffer_dropped = True
        buffer = DecodeBuffer(
            n_heads, head_dim, capacity=buffer.capacity,
            k_scale=buffer.k_scale, v_scale=buffer.v_scale,
            clamp_code=buffer.clamp_code,
        )
    state = TurboKVState(cache=cache, buffer=buffer, head_bits=head_bits)
    kept = state.cache.seq_len
    total: Optional[int] = None
    try:
        total = _ref_as_int(arrays, "meta.seq_len", False) if version >= 2 else None
    except CacheCorruptionError:
        total = None
    if total is None:
        total = sum(x for x in declared_lengths if x is not None)
        if "buffer.k_codes" in arrays and not buffer_dropped:
            total += len(buffer)
        elif "buffer.k_codes" in arrays:
            kb = arrays["buffer.k_codes"]
            total += kb.shape[1] if getattr(kb, "ndim", 0) == 3 else 0
    recompute: List[Tuple[int, int]] = []
    end_valid = kept + (len(buffer) if not buffer_dropped and first_bad is None else 0)
    if first_bad is not None or buffer_dropped:
        if total > end_valid:
            recompute.append((end_valid, total))
    return SalvageResult(
        state=state,
        dropped_blocks=dropped,
        buffer_dropped=buffer_dropped,
        recompute_ranges=recompute,
        errors=errors,
    )


def reference_receive_payload(
    arrays: Dict[str, np.ndarray], prompt_len: int, config
) -> HandoffOutcome:
    """A handoff receive as the strict walk, then on damage the salvage
    walk over the same arrays."""
    total = config.payload_blocks * config.payload_block_tokens
    try:
        reference_state_from_arrays(arrays)
    except CacheCorruptionError:
        if not config.salvage:
            return HandoffOutcome(
                valid_tokens=0, recompute_range=(0, prompt_len), salvaged=False
            )
        kept = reference_salvage_state(arrays).state.cache.seq_len
        valid = prompt_len * kept // total
        return HandoffOutcome(
            valid_tokens=valid, recompute_range=(valid, prompt_len), salvaged=True
        )
    return HandoffOutcome(
        valid_tokens=prompt_len, recompute_range=(prompt_len, prompt_len), salvaged=False
    )


def reference_verify_snapshot(snapshot, config) -> Tuple[int, int]:
    """A snapshot verify as the strict walk, then on damage the salvage
    walk over the same arrays."""
    total = config.payload_blocks * config.payload_block_tokens
    if not snapshot.corrupt:
        return total, total
    if not config.salvage:
        return 0, total
    arrays = snapshot_payload(snapshot.replica_id, snapshot.epoch, config)
    damaged, _event = corrupt_snapshot_payload(
        arrays, snapshot.replica_id, snapshot.epoch, config
    )
    try:
        reference_state_from_arrays(damaged)
        return total, total
    except CacheCorruptionError:
        pass
    try:
        result = reference_salvage_state(damaged)
    except CacheCorruptionError:
        return 0, total
    return int(result.state.cache.seq_len), total

"""Corruption-safe KV-state serialization.

Serving systems persist compressed caches (prefix caching, request
migration, host offload).  This module round-trips a
:class:`repro.core.turbo.TurboKVState` through a flat dict of NumPy arrays
— INT4/2 codes *actually packed* via :mod:`repro.quant.packing` and
integer scales/zeros as int16 — so the on-disk footprint matches the
library's storage accounting, and ``np.savez`` works directly.

Round-trip is exact: codes, scales, buffer contents, and head-bit
assignments are all preserved bit-for-bit (tested).

Persistence is guarded (schema v2):

* a ``meta.schema`` version tag rejects files from the future;
* every array carries a CRC32 (dtype + shape + payload, see
  :mod:`repro.guard.checksum`) verified on load — a flipped bit inside a
  packed code payload is otherwise *valid data* and undetectable;
* geometry and value validation (head counts, staged tokens vs buffer
  capacity, block lengths vs ``block_size``, packed payload sizes,
  positive finite scales, ``s_int >= 1``, legal bit-widths) rejects
  states that would deserialize into garbage;
* failures raise typed :class:`repro.guard.errors.CacheCorruptionError`
  subclasses, and :func:`salvage_state` recovers the longest valid prefix
  instead, reporting exactly which token ranges must be recomputed.

Both answers come from one validated walk, :func:`walk_state`, so a
reader that needs both makes one pass.

Legacy (schema-less) dicts written before v2 still load: they carry no
checksums to verify, but get full geometry/value validation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.buffer import DecodeBuffer
from repro.core.kvcache import CacheBlock, QuantizedKVCache
from repro.core.turbo import TurboKVState
from repro.guard.checksum import array_crc32, checksum_key, is_checksum_key
from repro.guard.errors import (
    CacheCorruptionError,
    ChecksumMismatchError,
    CorruptValueError,
    GeometryError,
    SchemaError,
)
from repro.quant.packing import pack_codes, packed_nbytes, unpack_codes
from repro.quant.progressive import ProgressiveBlock, legal_bits

__all__ = [
    "SCHEMA_VERSION",
    "SalvageResult",
    "state_to_arrays",
    "state_from_arrays",
    "salvage_state",
    "walk_state",
    "save_state",
    "load_state",
    "state_digest",
]

#: Current on-disk schema.  v1 (implicit, tagless) lacked checksums and
#: the ``meta.seq_len`` recovery hint.
SCHEMA_VERSION = 2


def _pack_block(prefix: str, block: ProgressiveBlock, out: Dict[str, np.ndarray]) -> None:
    bits_arr = np.asarray(block.bits, dtype=np.int8)
    if bits_arr.ndim == 0:
        bits_arr = np.full((block.codes.shape[0], 1, 1), int(bits_arr), dtype=np.int8)
    out[f"{prefix}.bits"] = bits_arr
    out[f"{prefix}.shape"] = np.asarray(block.codes.shape, dtype=np.int64)
    out[f"{prefix}.s_int"] = block.s_int.astype(np.int16)
    out[f"{prefix}.z_int"] = block.z_int.astype(np.int16)
    # Stored float64 for an exact round-trip; the storage *accounting*
    # charges these at FP16 (ProgressiveBlock.storage_bits), matching what
    # a deployment would persist.
    out[f"{prefix}.float_scale"] = np.asarray(block.float_scale, dtype=np.float64)
    # Pack per head (heads may differ in width under mixed precision).
    for h in range(block.codes.shape[0]):
        width = int(bits_arr.reshape(-1)[h])
        packed, length = pack_codes(block.codes[h].reshape(-1), width)
        out[f"{prefix}.codes{h}"] = packed
        out[f"{prefix}.len{h}"] = np.asarray(length, dtype=np.int64)


def state_to_arrays(state: TurboKVState, checksums: bool = True) -> Dict[str, np.ndarray]:
    """Flatten a KV state into named arrays (``np.savez``-compatible).

    With ``checksums`` (the default) every payload array gets a companion
    ``crc.<key>`` uint32 entry verified by :func:`state_from_arrays`.
    """
    cache = state.cache
    out: Dict[str, np.ndarray] = {
        "meta.schema": np.asarray(SCHEMA_VERSION, dtype=np.int64),
        "meta.n_heads": np.asarray(cache.n_heads, dtype=np.int64),
        "meta.head_dim": np.asarray(cache.head_dim, dtype=np.int64),
        "meta.block_size": np.asarray(cache.block_size, dtype=np.int64),
        "meta.head_bits": cache.head_bits.astype(np.int8),
        "meta.n_blocks": np.asarray(len(cache.blocks), dtype=np.int64),
        "meta.seq_len": np.asarray(state.seq_len, dtype=np.int64),
    }
    for i, block in enumerate(cache.blocks):
        out[f"block{i}.length"] = np.asarray(block.length, dtype=np.int64)
        _pack_block(f"block{i}.k", block.k, out)
        _pack_block(f"block{i}.v", block.v, out)
    buf = state.buffer
    k_codes, v_codes = buf.codes()
    out["buffer.capacity"] = np.asarray(buf.capacity, dtype=np.int64)
    out["buffer.clamp_code"] = np.asarray(buf.clamp_code, dtype=np.int64)
    out["buffer.k_codes"] = k_codes.astype(np.int8)
    out["buffer.v_codes"] = v_codes.astype(np.int8)
    out["buffer.k_scale"] = buf.k_scale.astype(np.float64)
    out["buffer.v_scale"] = buf.v_scale.astype(np.float64)
    if checksums:
        for key in list(out):
            out[checksum_key(key)] = np.asarray(array_crc32(out[key]), dtype=np.uint32)
    return out


# --------------------------------------------------------------------------
# Validated loading
# --------------------------------------------------------------------------

def _schema_version(arrays: Dict[str, np.ndarray]) -> int:
    if "meta.schema" not in arrays:
        if "meta.n_heads" not in arrays:
            raise SchemaError("not a serialized KV state (no meta arrays)")
        return 1  # legacy, tagless
    version = int(arrays["meta.schema"])
    if not 1 <= version <= SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version}", key="meta.schema")
    return version


def _checked(arrays: Dict[str, np.ndarray], key: str, verify: bool) -> np.ndarray:
    """Fetch ``key``, verifying its CRC when the schema carries one."""
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


def _as_int(arrays: Dict[str, np.ndarray], key: str, verify: bool) -> int:
    arr = _checked(arrays, key, verify)
    if np.asarray(arr).size != 1:
        raise GeometryError(f"{key!r} must be a scalar", key=key)
    return int(arr)


def _validate_meta(arrays: Dict[str, np.ndarray], verify: bool) -> Tuple[int, int, int, int, np.ndarray]:
    n_heads = _as_int(arrays, "meta.n_heads", verify)
    head_dim = _as_int(arrays, "meta.head_dim", verify)
    block_size = _as_int(arrays, "meta.block_size", verify)
    n_blocks = _as_int(arrays, "meta.n_blocks", verify)
    if n_heads <= 0 or head_dim <= 0 or block_size <= 0 or n_blocks < 0:
        raise GeometryError(
            f"non-positive geometry: heads={n_heads} dim={head_dim} "
            f"block_size={block_size} n_blocks={n_blocks}"
        )
    head_bits = _checked(arrays, "meta.head_bits", verify).astype(np.int32)
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


def _load_block(
    arrays: Dict[str, np.ndarray],
    i: int,
    n_heads: int,
    head_dim: int,
    block_size: int,
    verify: bool,
) -> CacheBlock:
    """Validate and unpack one cache block; raises typed errors."""
    length = _as_int(arrays, f"block{i}.length", verify)
    if not 0 < length <= block_size:
        raise GeometryError(
            f"block{i} length {length} outside (0, block_size={block_size}]",
            key=f"block{i}.length",
        )
    halves = {}
    for part in ("k", "v"):
        prefix = f"block{i}.{part}"
        shape_arr = _checked(arrays, f"{prefix}.shape", verify)
        if shape_arr.size != 3:
            raise GeometryError(f"{prefix}.shape must have 3 dims", key=f"{prefix}.shape")
        shape = tuple(int(x) for x in shape_arr)
        if shape[0] != n_heads or shape[2] != head_dim or shape[1] != length:
            raise GeometryError(
                f"{prefix} shape {shape} inconsistent with "
                f"(heads={n_heads}, length={length}, dim={head_dim})",
                key=f"{prefix}.shape",
            )
        bits = _checked(arrays, f"{prefix}.bits", verify).astype(np.int32)
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
        s_int = _checked(arrays, f"{prefix}.s_int", verify)
        if s_int.size and int(np.min(s_int)) < 1:
            raise CorruptValueError(
                f"{prefix}.s_int has entries < 1 (zeroed integer scale)",
                key=f"{prefix}.s_int",
            )
        z_int = _checked(arrays, f"{prefix}.z_int", verify)
        float_scale = _checked(arrays, f"{prefix}.float_scale", verify)
        fs = np.asarray(float_scale, dtype=np.float64)
        if not np.all(np.isfinite(fs)) or np.any(fs <= 0):
            raise CorruptValueError(
                f"{prefix}.float_scale non-finite or non-positive",
                key=f"{prefix}.float_scale",
            )
        codes = np.empty(shape, dtype=np.uint8)
        for h in range(n_heads):
            width = int(bits.reshape(-1)[h])
            declared = _as_int(arrays, f"{prefix}.len{h}", verify)
            if declared != length * head_dim:
                raise GeometryError(
                    f"{prefix}.len{h} = {declared}, expected {length * head_dim}",
                    key=f"{prefix}.len{h}",
                )
            payload = _checked(arrays, f"{prefix}.codes{h}", verify)
            need = packed_nbytes(declared, width)
            if payload.size < need:
                raise GeometryError(
                    f"{prefix}.codes{h} holds {payload.size} bytes, "
                    f"needs {need} for {declared} {width}-bit codes",
                    key=f"{prefix}.codes{h}",
                )
            codes[h] = unpack_codes(payload, width, declared).reshape(shape[1:])
        halves[part] = ProgressiveBlock(
            codes=codes,
            s_int=s_int.astype(np.int16),
            z_int=z_int.astype(np.int16),
            bits=bits,
            float_scale=float_scale.astype(np.float64),
        )
    return CacheBlock(k=halves["k"], v=halves["v"], length=length)


def _load_buffer(
    arrays: Dict[str, np.ndarray],
    n_heads: int,
    head_dim: int,
    verify: bool,
) -> DecodeBuffer:
    """Validate and rebuild the decode buffer; raises typed errors."""
    capacity = _as_int(arrays, "buffer.capacity", verify)
    clamp_code = _as_int(arrays, "buffer.clamp_code", verify)
    if capacity <= 0:
        raise GeometryError(f"buffer capacity {capacity} must be positive",
                            key="buffer.capacity")
    if not 1 <= clamp_code <= 127:
        raise CorruptValueError(f"buffer clamp_code {clamp_code} outside [1, 127]",
                                key="buffer.clamp_code")
    k_codes = _checked(arrays, "buffer.k_codes", verify)
    v_codes = _checked(arrays, "buffer.v_codes", verify)
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
        # A cache saved with a larger buffer than the restoring config
        # previously crashed with a raw broadcast error here.
        raise GeometryError(
            f"buffer holds {n_staged} staged tokens but capacity is {capacity}",
            key="buffer.k_codes",
        )
    scales = {}
    for name in ("buffer.k_scale", "buffer.v_scale"):
        sc = np.asarray(_checked(arrays, name, verify), dtype=np.float64)
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


def _declared_total(arrays: Dict[str, np.ndarray], version: int, n_blocks: int) -> int:
    """Tokens a damaged state declared: v2's ``meta.seq_len``, else (legacy)
    the declared block lengths plus the staged buffer tokens."""
    if version >= 2:
        try:
            return _as_int(arrays, "meta.seq_len", False)
        except CacheCorruptionError:
            pass
    total = 0
    for i in range(n_blocks):
        try:
            total += _as_int(arrays, f"block{i}.length", False)
        except CacheCorruptionError:
            pass
    staged = arrays.get("buffer.k_codes")
    return total + (staged.shape[1] if getattr(staged, "ndim", 0) == 3 else 0)


# --------------------------------------------------------------------------
# The walk: strict loading and salvage are two views of one pass
# --------------------------------------------------------------------------

@dataclass
class SalvageResult:
    """Outcome of :func:`salvage_state`.

    The recovered ``state`` holds the longest *valid prefix* of the
    persisted sequence: blocks after the first corrupt one are dropped
    even if individually intact, because cache blocks are positional —
    keeping a later block would silently shift every token after the gap.
    """

    state: TurboKVState
    #: Block indices that failed validation (first one) or were dropped
    #: as a consequence (the rest).
    dropped_blocks: List[int] = field(default_factory=list)
    #: Whether the staged decode buffer had to be dropped.
    buffer_dropped: bool = False
    #: Token ranges ``[start, end)`` of the original sequence that must be
    #: recomputed (re-prefilled / re-appended) by the caller.
    recompute_ranges: List[Tuple[int, int]] = field(default_factory=list)
    #: The typed errors encountered, in walk order.
    errors: List[CacheCorruptionError] = field(default_factory=list)

    @property
    def intact(self) -> bool:
        return not self.dropped_blocks and not self.buffer_dropped

    @property
    def recovered_tokens(self) -> int:
        return self.state.seq_len

    def summary(self) -> str:
        if self.intact:
            return f"salvage: state intact ({self.recovered_tokens} tokens)"
        lost = ", ".join(f"[{s}, {e})" for s, e in self.recompute_ranges) or "none"
        return (
            f"salvage: kept {self.recovered_tokens} tokens, dropped "
            f"{len(self.dropped_blocks)} block(s)"
            f"{' + buffer' if self.buffer_dropped else ''}; recompute {lost}"
        )


def walk_state(
    arrays: Dict[str, np.ndarray],
) -> Tuple[SalvageResult, Optional[CacheCorruptionError]]:
    """The one validated pass over a serialized state.

    Validates the metadata (an error there raises: nothing can be
    salvaged without geometry), then the blocks in order up to the first
    failure, then the buffer, recording each typed error.  Returns the
    salvage of what survived and the error strict loading raises: the
    first one recorded, else a mismatched v2 ``meta.seq_len``, else None.
    """
    version = _schema_version(arrays)
    verify = version >= 2
    n_heads, head_dim, block_size, n_blocks, head_bits = _validate_meta(arrays, verify)
    cache = QuantizedKVCache(
        n_heads, head_dim, head_bits=head_bits, block_size=block_size
    )
    errors: List[CacheCorruptionError] = []
    for i in range(n_blocks):
        try:
            block = _load_block(arrays, i, n_heads, head_dim, block_size, verify)
        except CacheCorruptionError as err:
            errors.append(err)
            break
        cache.blocks.append(block)
    dropped = list(range(len(cache.blocks), n_blocks))

    buffer_dropped = False
    try:
        buffer = _load_buffer(arrays, n_heads, head_dim, verify)
    except CacheCorruptionError as err:
        errors.append(err)
        buffer_dropped = True
        capacity = block_size
        try:
            capacity = max(1, _as_int(arrays, "buffer.capacity", False))
        except CacheCorruptionError:
            pass
        buffer = DecodeBuffer(
            n_heads, head_dim, capacity=capacity,
            k_scale=np.ones((n_heads, 1, 1)), v_scale=np.ones((n_heads, 1, 1)),
        )
    if dropped and len(buffer):
        # Staged buffer tokens sit *after* the dropped blocks in sequence
        # order; keeping them would leave a gap.  Drop them (the frozen
        # scales stay — they are still the right scales for re-appends).
        buffer_dropped = True
        buffer = DecodeBuffer(
            n_heads, head_dim, capacity=buffer.capacity,
            k_scale=buffer.k_scale, v_scale=buffer.v_scale,
            clamp_code=buffer.clamp_code,
        )
    state = TurboKVState(cache=cache, buffer=buffer, head_bits=head_bits)

    strict_error = errors[0] if errors else None
    if verify and not errors:
        try:
            declared = _as_int(arrays, "meta.seq_len", True)
            if declared != state.seq_len:
                raise GeometryError(
                    f"declared seq_len {declared} != reconstructed {state.seq_len}",
                    key="meta.seq_len",
                )
        except CacheCorruptionError as err:
            strict_error = err

    # Token accounting: [0, kept) survives; everything after the first
    # corruption must be recomputed.
    kept = cache.seq_len
    total = _declared_total(arrays, version, n_blocks) if dropped or buffer_dropped else 0
    result = SalvageResult(
        state=state,
        dropped_blocks=dropped,
        buffer_dropped=buffer_dropped,
        recompute_ranges=[(kept, total)] if total > kept else [],
        errors=errors,
    )
    return result, strict_error


def state_from_arrays(arrays: Dict[str, np.ndarray]) -> TurboKVState:
    """Inverse of :func:`state_to_arrays`, with full validation.

    Raises a typed :class:`CacheCorruptionError` subclass on the first
    problem found; use :func:`salvage_state` to recover what's intact
    instead.
    """
    result, error = walk_state(arrays)
    if error is not None:
        raise error
    return result.state


def salvage_state(arrays: Dict[str, np.ndarray]) -> SalvageResult:
    """Best-effort recovery of a corrupted serialized state.

    Metadata must be intact (there is nothing to salvage without
    geometry) — a corrupt meta raises.  Blocks are validated in order;
    the first failure truncates the cache there.  A corrupt buffer is
    replaced by an empty one.  Every dropped token lands in
    ``recompute_ranges`` so the caller knows exactly what to regenerate —
    corruption is never silently decoded into garbage.
    """
    return walk_state(arrays)[0]


def state_digest(arrays: Dict[str, np.ndarray]) -> str:
    """Stable blake2b digest of a serialized state dict.

    Key-order independent (keys are walked sorted) and covers the dtype
    name, shape and payload bytes of every array, so equal persisted
    bytes digest equal and any change to an array's dtype, shape or bytes
    changes the digest.  One collision is known: ``np.ascontiguousarray``
    promotes a 0-d array to shape ``(1,)``, so a scalar and a one-element
    1-D array of the same dtype and value digest equal.  Fixing that
    would move the literal payload digests the tests pin, so it is
    documented, not fixed.

    No load path checks this digest, and no snapshot or trace label uses
    it (:attr:`~repro.recover.EngineSnapshot.digest` hashes the payload's
    key instead).  It pins payload bytes in tests; the per-array CRCs are
    what detect corruption.
    """
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[key]))
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


def save_state(path, state: TurboKVState, checksums: bool = True) -> None:
    """Persist a state to ``path`` (npz)."""
    arrays = state_to_arrays(state, checksums=checksums)
    # npz keys cannot contain '/', dots are fine.
    np.savez(path, **arrays)


def load_state(path, salvage: bool = False):
    """Load a state persisted by :func:`save_state`.

    With ``salvage=False`` (default) returns a :class:`TurboKVState`,
    raising a typed :class:`CacheCorruptionError` on any damage.  With
    ``salvage=True`` returns a :class:`SalvageResult` recovering the
    longest valid prefix.
    """
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    if salvage:
        return salvage_state(arrays)
    return state_from_arrays(arrays)

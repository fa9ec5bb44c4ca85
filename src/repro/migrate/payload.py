"""The handoff codec: serialize, corrupt, and receive migrated KV state.

A real deployment ships the request's full quantized cache; simulating
that byte-for-byte would dominate runtime without changing *behavior*.
Instead each handoff that needs inspection (a corrupt roll, or a test)
builds a miniature-but-faithful :class:`~repro.core.turbo.TurboKVState`
— real quantized blocks, real CRC32 checksums, the real v2 schema — and
the request's prompt maps proportionally onto the miniature blocks.
The corruption/salvage path is therefore *exactly* the production code
path of :mod:`repro.core.serialization`, not a coin flip: a corrupted
payload is detected by the per-array checksum, salvaged to its longest
valid block prefix, and the kept fraction scales back up to an exact
token range the decode replica must re-prefill.

All randomness is keyed ``[seed, request_id, attempt]`` so payloads are
deterministic per attempt and never perturb any other RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple, Union

import numpy as np

from repro.core.buffer import DecodeBuffer
from repro.core.kvcache import QuantizedKVCache
from repro.core.serialization import (
    CacheCorruptionError,
    salvage_state,
    state_from_arrays,
    state_to_arrays,
)
from repro.core.turbo import TurboKVState
from repro.migrate.config import MigrationConfig
from repro.quant.progressive import LEGAL_BITS

if TYPE_CHECKING:
    from repro.recover.config import RecoverConfig

__all__ = [
    "HandoffOutcome",
    "build_payload",
    "corrupt_payload",
    "miniature_payload",
    "receive_payload",
]


def _storage_bits(kv_bits: float) -> int:
    """Snap an effective KV rate to the storage ladder the codec packs at.

    Effective rates carry scale/zero overhead (turbo4 = 4.3 means 4-bit
    codes + amortized metadata), so the payload packs at the *code* width:
    the largest ladder rung not above the effective rate, and 8 for FP16.
    """
    eligible = [b for b in LEGAL_BITS if b <= kv_bits]
    return eligible[-1] if eligible else LEGAL_BITS[0]


@dataclass(frozen=True)
class HandoffOutcome:
    """What the decode replica recovered from one arrived payload."""

    #: Prompt tokens whose KV survived verification (resume point).
    valid_tokens: int
    #: Exact ``[start, end)`` prompt range the destination must re-prefill
    #: (empty — ``start == end`` — when the payload verified intact).
    recompute_range: Tuple[int, int]
    #: Whether salvage ran (a checksum failed somewhere).
    salvaged: bool

    @property
    def intact(self) -> bool:
        return self.recompute_range[0] >= self.recompute_range[1]

    @property
    def recompute_tokens(self) -> int:
        start, end = self.recompute_range
        return max(0, end - start)


def miniature_payload(
    key: Sequence[int],
    bits: int,
    geometry: Union[MigrationConfig, RecoverConfig],
) -> Dict[str, np.ndarray]:
    """Serialize a miniature faithful KV state drawn from the stream ``key``.

    ``geometry.payload_blocks`` blocks of ``payload_block_tokens`` tokens x
    ``payload_heads`` heads x ``payload_head_dim`` dims of random INT8
    codes, stored at ``bits`` per code with unit scales, plus an empty
    decode buffer, through the checksummed schema.  This is the payload of
    both a handoff (:func:`build_payload`) and a snapshot epoch
    (:func:`repro.recover.snapshot_payload`), which differ only in key,
    width and geometry.

    One ``integers`` call of shape ``(blocks, 2, heads, tokens, dim)``
    draws every code: row-major order walks block 0's K, block 0's V,
    block 1's K, ..., which is exactly the stream the generator yields
    one ``(heads, tokens, dim)`` draw at a time, K before V.  One
    :meth:`~repro.core.kvcache.QuantizedKVCache.append_blocks` then
    compresses all blocks, so the arrays — and hence every checksum and
    :func:`~repro.core.serialization.state_digest` — are byte-identical
    to the per-block build.
    """
    blocks, tokens = geometry.payload_blocks, geometry.payload_block_tokens
    heads, dim = geometry.payload_heads, geometry.payload_head_dim
    rng = np.random.default_rng(key)
    kv = rng.integers(-100, 101, size=(blocks, 2, heads, tokens, dim)).astype(np.int8)
    head_bits = np.full(heads, bits, dtype=np.int32)
    cache = QuantizedKVCache(heads, dim, head_bits=head_bits, block_size=tokens)
    block_scales = np.ones((blocks, heads, 1, 1))
    cache.append_blocks(kv[:, 0], kv[:, 1], k_scale=block_scales, v_scale=block_scales)
    scale = np.ones((heads, 1, 1))
    buffer = DecodeBuffer(heads, dim, capacity=tokens, k_scale=scale, v_scale=scale)
    state = TurboKVState(cache=cache, buffer=buffer, head_bits=head_bits)
    return state_to_arrays(state, checksums=True)


def build_payload(
    request_id: int,
    attempt: int,
    seed: int,
    kv_bits: float,
    config: MigrationConfig,
) -> Dict[str, np.ndarray]:
    """Serialize a miniature faithful KV state for one handoff attempt,
    keyed ``[seed, request_id, attempt]`` and packed at the storage width
    of ``kv_bits``."""
    return miniature_payload(
        [seed, request_id, attempt], _storage_bits(kv_bits), config
    )


def corrupt_payload(
    arrays: Dict[str, np.ndarray],
    request_id: int,
    attempt: int,
    seed: int,
    config: MigrationConfig,
) -> Dict[str, np.ndarray]:
    """Flip one byte of a packed code array in-place (transfer bit-rot).

    The victim block is drawn from ``[1, payload_blocks)`` — block 0 is
    spared so salvage always keeps a non-empty prefix and the recompute
    range is *strictly* smaller than a full re-prefill, which is the
    property the harness demonstrates.  The flip lands in the packed
    payload, so the per-array CRC32 catches it on receive.
    """
    rng = np.random.default_rng([seed, request_id, attempt, 104729])
    victim = int(rng.integers(1, config.payload_blocks))
    key = f"block{victim}.k.codes0"
    packed = np.array(arrays[key], copy=True)
    pos = int(rng.integers(0, packed.size))
    flat = packed.reshape(-1)
    flat[pos] = np.uint8(int(flat[pos]) ^ 0x40)
    out = dict(arrays)
    out[key] = packed
    return out


def receive_payload(
    arrays: Dict[str, np.ndarray],
    prompt_len: int,
    config: MigrationConfig,
) -> HandoffOutcome:
    """Verify an arrived payload and map the outcome onto prompt tokens.

    Intact payloads resume decode at ``prompt_len`` (nothing to redo).
    Corrupt payloads either salvage — the miniature kept-token fraction
    scales onto the prompt, rounding *down* so the resume point never
    claims unverified tokens — or, with salvage disabled, degrade to a
    full re-prefill on the destination.
    """
    total = config.payload_blocks * config.payload_block_tokens
    try:
        state_from_arrays(arrays)
    except CacheCorruptionError:
        if not config.salvage:
            return HandoffOutcome(
                valid_tokens=0, recompute_range=(0, prompt_len), salvaged=False
            )
        result = salvage_state(arrays)
        kept = result.state.cache.seq_len
        valid = prompt_len * kept // total
        return HandoffOutcome(
            valid_tokens=valid, recompute_range=(valid, prompt_len), salvaged=True
        )
    return HandoffOutcome(
        valid_tokens=prompt_len, recompute_range=(prompt_len, prompt_len), salvaged=False
    )

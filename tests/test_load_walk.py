"""Loading a serialized KV state: every reader against the two-walk oracle.

``state_from_arrays``, ``salvage_state``, a handoff receive and a
snapshot verify must behave exactly as the frozen copies in
``tests/_reference_kernels.py``, where strict loading and salvage are two
separate walks over the same arrays and the payload readers run one and
then the other.  Exactly means: the same exception type, key and message
or the same loaded state; every ``SalvageResult`` field; every
``HandoffOutcome``; every ``(kept, total)`` verify tuple.
"""

import numpy as np
import pytest

from repro.core import TurboAttention, TurboConfig
from repro.core.serialization import (
    salvage_state,
    state_digest,
    state_from_arrays,
    state_to_arrays,
)
from repro.guard import (
    CORRUPTION_KINDS,
    CacheCorruptionError,
    ChaosInjector,
    array_crc32,
    checksum_key,
    is_checksum_key,
)
from repro.migrate import MigrationConfig, build_payload, corrupt_payload, receive_payload
from repro.recover import EngineSnapshot, RecoverConfig, verify_snapshot
from tests._reference_kernels import (
    reference_receive_payload,
    reference_salvage_state,
    reference_state_from_arrays,
    reference_verify_snapshot,
)

SEEDS = range(12)


def _prefill_arrays():
    """Two full cache blocks plus 24 staged buffer tokens (88 tokens)."""
    rng = np.random.default_rng(5)
    h, n, d = 4, 88, 32
    q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
    turbo = TurboAttention(TurboConfig(block_q=32, block_k=32, buffer_size=32))
    _, state = turbo.prefill(q, k, v)
    return state_to_arrays(state)


ARRAYS = _prefill_arrays()
#: The same state as a schema-v1 dict: no tag, no checksums, no seq_len.
LEGACY = {
    k: v for k, v in ARRAYS.items()
    if not is_checksum_key(k) and k not in ("meta.schema", "meta.seq_len")
}


def _error(err):
    return type(err), err.key, str(err)


def _state_fields(state):
    """The loaded state: its digest plus the dtype and shape of every
    array the load cast or copied."""
    parts = [state_digest(state_to_arrays(state))]
    for block in state.cache.blocks:
        for half in (block.k, block.v):
            for arr in (half.codes, half.s_int, half.z_int, half.bits, half.float_scale):
                parts.append((arr.dtype.str, arr.shape))
    buf_k, buf_v = state.buffer.codes()
    for arr in (buf_k, buf_v, state.buffer.k_scale, state.buffer.v_scale):
        parts.append((arr.dtype.str, arr.shape))
    parts.append((state.head_bits.dtype.str, state.head_bits.shape))
    return parts


def _strict(load, arrays):
    try:
        state = load(arrays)
    except CacheCorruptionError as err:
        return "raise", _error(err)
    return "state", _state_fields(state)


def _salvage(load, arrays):
    try:
        res = load(arrays)
    except CacheCorruptionError as err:
        return "raise", _error(err)
    return "result", (
        _state_fields(res.state),
        res.dropped_blocks,
        res.buffer_dropped,
        res.recompute_ranges,
        [_error(e) for e in res.errors],
        res.intact,
        res.recovered_tokens,
        res.summary(),
    )


def assert_walks_agree(arrays):
    assert _strict(state_from_arrays, arrays) == _strict(
        reference_state_from_arrays, arrays
    )
    assert _salvage(salvage_state, arrays) == _salvage(reference_salvage_state, arrays)


def _restamp(arrays, key, value):
    out = dict(arrays)
    out[key] = value
    if checksum_key(key) in out:
        out[checksum_key(key)] = np.asarray(array_crc32(value), dtype=np.uint32)
    return out


class TestLoadWalk:
    @pytest.mark.parametrize("stealth", [False, True])
    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("base", ["v2", "legacy"])
    def test_chaos_grid(self, base, kind, stealth):
        arrays = ARRAYS if base == "v2" else LEGACY
        for seed in SEEDS:
            damaged, _ = ChaosInjector(seed=seed).corrupt(arrays, kind, stealth=stealth)
            assert_walks_agree(damaged)

    @pytest.mark.parametrize("base", ["v2", "legacy"])
    def test_intact(self, base):
        assert_walks_agree(ARRAYS if base == "v2" else LEGACY)

    def test_double_damage_reports_the_first_error(self):
        # Two injections: where one lands in a block and the other in the
        # buffer, salvage records two errors and strict raises the block's.
        firsts = set()
        for seed in SEEDS:
            for k1 in CORRUPTION_KINDS:
                for k2 in ("scale_zero", "nan_poison", "truncate"):
                    once, _ = ChaosInjector(seed=seed).corrupt(ARRAYS, k1)
                    twice, _ = ChaosInjector(seed=seed + 100).corrupt(once, k2)
                    assert_walks_agree(twice)
                    res = reference_salvage_state(twice)
                    if len(res.errors) == 2:
                        firsts.add(res.errors[0].key)
        assert firsts, "no double damage hit a block and the buffer"
        block_zero = dict(ARRAYS)
        block_zero["block1.v.float_scale"] = np.zeros_like(ARRAYS["block1.v.float_scale"])
        block_zero["buffer.k_scale"] = np.full_like(ARRAYS["buffer.k_scale"], np.nan)
        assert_walks_agree(block_zero)
        assert len(reference_salvage_state(block_zero).errors) == 2

    def test_declared_seq_len(self):
        bad_crc = dict(ARRAYS)
        bad_crc[checksum_key("meta.seq_len")] = np.asarray(
            int(ARRAYS[checksum_key("meta.seq_len")]) ^ 1, dtype=np.uint32
        )
        cases = [
            bad_crc,
            _restamp(ARRAYS, "meta.seq_len", np.asarray(10**6, dtype=np.int64)),
            _restamp(ARRAYS, "meta.seq_len", np.asarray([88, 88], dtype=np.int64)),
            {k: v for k, v in ARRAYS.items() if k != "meta.seq_len"},
        ]
        for arrays in cases:
            assert_walks_agree(arrays)
            with pytest.raises(CacheCorruptionError):
                reference_state_from_arrays(arrays)

    def test_metadata_and_layout_damage(self):
        cases = [
            {"foo": np.zeros(3)},
            {k: v for k, v in ARRAYS.items() if k != "meta.n_heads"},
            _restamp(ARRAYS, "meta.schema", np.asarray(3, dtype=np.int64)),
            _restamp(ARRAYS, "meta.head_bits", np.full(4, 7, dtype=np.int8)),
            _restamp(ARRAYS, "meta.n_blocks", np.asarray(5, dtype=np.int64)),
            _restamp(ARRAYS, "block0.length", np.asarray(10**6, dtype=np.int64)),
            _restamp(ARRAYS, "block1.length", np.asarray(-3, dtype=np.int64)),
            _restamp(ARRAYS, "block1.k.len2", np.asarray(7, dtype=np.int64)),
            _restamp(ARRAYS, "buffer.capacity", np.asarray(8, dtype=np.int64)),
            _restamp(ARRAYS, "buffer.clamp_code", np.asarray(0, dtype=np.int64)),
            {k: v for k, v in ARRAYS.items() if k != "block1.length"},
            {k: v for k, v in LEGACY.items() if k != "block0.length"},
            _restamp(LEGACY, "block1.length", np.asarray(40, dtype=np.int64)),
            _restamp(LEGACY, "meta.n_blocks", np.asarray(3, dtype=np.int64)),
        ]
        for arrays in cases:
            assert_walks_agree(arrays)


HANDOFF_KEYS = [(request, attempt) for request in range(8) for attempt in range(4)]


class TestPayloadReaders:
    @pytest.mark.parametrize("salvage", [True, False])
    @pytest.mark.parametrize("kv_bits", [2.3, 4.3, 16.0])
    def test_handoffs(self, kv_bits, salvage):
        cfg = MigrationConfig(salvage=salvage)
        for request, attempt in HANDOFF_KEYS:
            arrays = build_payload(request, attempt, 42, kv_bits, cfg)
            bad = corrupt_payload(arrays, request, attempt, 42, cfg)
            assert_walks_agree(bad)
            for payload in (arrays, bad):
                for prompt_len in (1, 1000, 4097):
                    assert receive_payload(payload, prompt_len, cfg) == (
                        reference_receive_payload(payload, prompt_len, cfg)
                    )

    @pytest.mark.parametrize("salvage", [True, False])
    def test_snapshot_epochs(self, salvage):
        cfg = RecoverConfig(seed=11, corrupt_rate=1.0, salvage=salvage)
        kept = []
        for replica in (0, 1):
            for epoch in range(64):
                for corrupt in (True, False):
                    snap = EngineSnapshot(
                        replica_id=replica, epoch=epoch, time=0.0, requests=(),
                        corrupt=corrupt, nbytes=0.0,
                    )
                    got = verify_snapshot(snap, cfg)
                    assert got == reference_verify_snapshot(snap, cfg)
                    kept.append(got[0])
        if salvage:
            # The grid reaches every rung: intact, partial prefix, nothing.
            assert 0 in kept and cfg.payload_tokens in kept
            assert any(0 < k < cfg.payload_tokens for k in kept)

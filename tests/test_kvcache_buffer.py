"""Tests for the quantized KV cache and the enhanced decode buffer."""

import numpy as np
import pytest

from repro.core.buffer import DecodeBuffer
from repro.core.kvcache import QuantizedKVCache
from repro.core.serialization import state_digest, state_to_arrays
from repro.core.turbo import TurboKVState
from repro.quant.progressive import pq_compress
from repro.quant.schemes import quantize_symmetric


def _tile(rng, h=2, n=64, d=16):
    x = rng.standard_normal((h, n, d))
    codes, scale = quantize_symmetric(x, bits=8, axis=(-2, -1), max_code=119)
    return codes, scale


class TestQuantizedKVCache:
    def _cache(self, h=2, d=16, bits=4, block=64):
        return QuantizedKVCache(h, d, head_bits=np.full(h, bits), block_size=block)

    def test_append_and_seq_len(self, rng):
        cache = self._cache()
        kc, ks = _tile(rng)
        vc, vs = _tile(rng)
        cache.append_block(kc, vc, ks, vs)
        assert cache.seq_len == 64 and len(cache) == 1
        cache.append_block(kc, vc, ks, vs)
        assert cache.seq_len == 128

    def test_partial_block(self, rng):
        cache = self._cache()
        kc, ks = _tile(rng, n=10)
        vc, vs = _tile(rng, n=10)
        cache.append_block(kc, vc, ks, vs)
        assert cache.seq_len == 10

    def test_oversized_block_raises(self, rng):
        cache = self._cache(block=32)
        kc, ks = _tile(rng, n=64)
        with pytest.raises(ValueError):
            cache.append_block(kc, kc, ks, ks)

    def test_shape_mismatch_raises(self, rng):
        cache = self._cache()
        kc, ks = _tile(rng, h=3)
        with pytest.raises(ValueError):
            cache.append_block(kc, kc, ks, ks)

    def test_head_bits_validation(self):
        with pytest.raises(ValueError):
            QuantizedKVCache(4, 16, head_bits=np.array([4, 4]), block_size=64)

    def test_iter_decompressed_roundtrip(self, rng):
        cache = self._cache(bits=8)  # 8-bit stage 2 on small ranges -> exact-ish
        kc, ks = _tile(rng)
        vc, vs = _tile(rng)
        cache.append_block(kc, vc, ks, vs)
        k8, v8, kscale, vscale, length = next(cache.iter_decompressed())
        assert length == 64
        # INT8 stage-2 reconstruction error is bounded by one s_int step.
        assert np.abs(k8.astype(int) - kc.astype(int)).max() <= cache.blocks[0].k.s_int.max() + 1
        np.testing.assert_allclose(kscale, ks)

    def test_storage_and_compression(self, rng):
        cache = self._cache(bits=4)
        for _ in range(4):
            kc, ks = _tile(rng)
            vc, vs = _tile(rng)
            cache.append_block(kc, vc, ks, vs)
        assert 3.0 < cache.compression_ratio(16) < 4.0
        assert 4.0 < cache.effective_bits_per_value() < 5.5

    def test_mixed_bits_compression_better(self, rng):
        uniform = self._cache(bits=4)
        mixed = QuantizedKVCache(2, 16, head_bits=np.array([2, 4]), block_size=64)
        kc, ks = _tile(rng)
        vc, vs = _tile(rng)
        uniform.append_block(kc, vc, ks, vs)
        mixed.append_block(kc, vc, ks, vs)
        assert mixed.storage_bits < uniform.storage_bits

    def test_empty_cache(self):
        cache = self._cache()
        assert cache.seq_len == 0
        assert cache.storage_bits == 0
        assert cache.compression_ratio() == 1.0

    def test_set_head_bits_affects_future_blocks_only(self, rng):
        cache = self._cache(bits=2)
        kc, ks = _tile(rng)
        vc, vs = _tile(rng)
        cache.append_block(kc, vc, ks, vs)
        cache.set_head_bits(np.full(2, 8, dtype=np.int32))
        cache.append_block(kc, vc, ks, vs)
        assert cache.blocks[0].k.bits.max() == 2  # existing block untouched
        assert cache.blocks[1].k.bits.min() == 8
        assert cache.blocks[1].storage_bits > cache.blocks[0].storage_bits

    def test_set_head_bits_validation(self):
        cache = self._cache()
        with pytest.raises(ValueError):
            cache.set_head_bits(np.array([4, 4, 4]))  # wrong head count
        with pytest.raises(ValueError):
            cache.set_head_bits(np.array([4, 7]))  # illegal width

    def test_mixed_width_blocks_serialize(self, rng):
        """Escalation mid-stream leaves blocks of different widths in one
        cache; the serializer must round-trip them bit-for-bit."""
        from repro.core import TurboAttention, TurboConfig
        from repro.core.serialization import state_from_arrays, state_to_arrays
        from repro.guard import EscalationConfig, GuardConfig

        cfg = TurboConfig(block_q=16, block_k=16, buffer_size=8, kv_bits=4)
        guard = GuardConfig(
            escalation=EscalationConfig(quality_bits=8, patience=1)
        )
        turbo = TurboAttention(cfg, guard=guard)
        h, d = 2, 16
        _, st = turbo.prefill(*(rng.standard_normal((h, 16, d)) for _ in range(3)))
        for _ in range(24):
            turbo.decode_step(
                rng.standard_normal((h, d)), rng.standard_normal((h, d)),
                25.0 + rng.standard_normal((h, d)), st,
            )
        widths = {int(b.k.bits.max()) for b in st.cache.blocks}
        assert len(widths) > 1  # genuinely mixed-width cache
        restored = state_from_arrays(state_to_arrays(st))
        assert restored.seq_len == st.seq_len
        for a, b in zip(st.cache.blocks, restored.cache.blocks):
            np.testing.assert_array_equal(a.k.bits, b.k.bits)
            np.testing.assert_array_equal(a.k.codes, b.k.codes)
            np.testing.assert_array_equal(a.v.codes, b.v.codes)


class TestAppendBlocks:
    """One stacked compression equals one compression per block."""

    def _caches(self, rng, head_bits, n, length=16, d=8):
        head_bits = np.asarray(head_bits, dtype=np.int32)
        h = head_bits.size
        k = rng.integers(-119, 120, size=(n, h, length, d)).astype(np.int8)
        v = rng.integers(-119, 120, size=(n, h, length, d)).astype(np.int8)
        ks = rng.uniform(0.01, 2.0, size=(n, h, 1, 1))  # per-block scales
        vs = rng.uniform(0.01, 2.0, size=(n, h, 1, 1))
        stacked = QuantizedKVCache(h, d, head_bits=head_bits, block_size=16)
        looped = QuantizedKVCache(h, d, head_bits=head_bits, block_size=16)
        returned = stacked.append_blocks(k, v, ks, vs)
        assert returned == stacked.blocks[-n:]
        for i in range(n):
            looped.append_block(k[i], v[i], ks[i], vs[i])
        bits = head_bits.reshape(-1, 1, 1)
        direct = [
            (pq_compress(k[i], bits=bits, float_scale=ks[i]),
             pq_compress(v[i], bits=bits, float_scale=vs[i]))
            for i in range(n)
        ]
        return stacked, looped, direct

    @staticmethod
    def _assert_same(a, b):
        for field in ("codes", "s_int", "z_int", "float_scale"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert x.tobytes() == y.tobytes(), field
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.storage_bits == b.storage_bits

    @staticmethod
    def _digest(cache):
        h = cache.n_heads
        one = np.ones((h, 1, 1))
        buffer = DecodeBuffer(h, cache.head_dim, capacity=4, k_scale=one, v_scale=one)
        state = TurboKVState(cache=cache, buffer=buffer, head_bits=cache.head_bits)
        return state_digest(state_to_arrays(state))

    @pytest.mark.parametrize("head_bits", [[4, 4], [2, 8, 3], [8], [2, 3, 4, 8]])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_equals_loop_of_append_block(self, rng, head_bits, n):
        stacked, looped, direct = self._caches(rng, head_bits, n)
        assert len(stacked) == len(looped) == n
        for a, b, (dk, dv) in zip(stacked.blocks, looped.blocks, direct):
            assert a.length == b.length == 16
            self._assert_same(a.k, b.k)
            self._assert_same(a.v, b.v)
            self._assert_same(a.k, dk)
            self._assert_same(a.v, dv)
            assert a.storage_bits == b.storage_bits
        assert stacked.storage_bits == looped.storage_bits
        assert self._digest(stacked) == self._digest(looped)

    def test_validation(self, rng):
        cache = QuantizedKVCache(2, 8, head_bits=np.full(2, 4), block_size=16)
        codes = np.zeros((3, 2, 16, 8), dtype=np.int8)
        scales = np.ones((3, 2, 1, 1))
        with pytest.raises(ValueError):
            cache.append_blocks(codes, codes[:2], scales, scales)  # K/V mismatch
        with pytest.raises(ValueError):
            cache.append_blocks(codes, codes, scales[0], scales[0])  # no block axis
        with pytest.raises(ValueError):
            cache.append_blocks(np.zeros((3, 2, 32, 8)), np.zeros((3, 2, 32, 8)),
                                scales, scales)  # longer than block_size
        assert len(cache) == 0


class TestDecodeBuffer:
    def _buffer(self, h=2, d=16, cap=8):
        return DecodeBuffer(
            h, d, capacity=cap,
            k_scale=np.full((h, 1, 1), 0.05),
            v_scale=np.full((h, 1, 1), 0.05),
        )

    def test_append_and_len(self, rng):
        buf = self._buffer()
        for i in range(5):
            buf.append(rng.standard_normal((2, 16)), rng.standard_normal((2, 16)))
            assert len(buf) == i + 1

    def test_full_raises(self, rng):
        buf = self._buffer(cap=2)
        for _ in range(2):
            buf.append(rng.standard_normal((2, 16)), rng.standard_normal((2, 16)))
        assert buf.is_full
        with pytest.raises(RuntimeError):
            buf.append(rng.standard_normal((2, 16)), rng.standard_normal((2, 16)))

    def test_quantization_uses_frozen_scale(self):
        buf = self._buffer()
        k = np.full((2, 16), 0.5)  # 0.5 / 0.05 = code 10
        buf.append(k, k)
        k_codes, _ = buf.codes()
        assert np.all(k_codes == 10)

    def test_outlier_clamping(self):
        buf = self._buffer()
        k = np.full((2, 16), 100.0)  # would be code 2000 -> clamped to 119
        buf.append(k, np.zeros((2, 16)))
        k_codes, _ = buf.codes()
        assert np.all(k_codes == 119)
        assert buf.clamped_total == 2 * 16

    def test_drain_clears(self, rng):
        buf = self._buffer()
        for _ in range(3):
            buf.append(rng.standard_normal((2, 16)), rng.standard_normal((2, 16)))
        k_codes, v_codes, k_scale, v_scale = buf.drain()
        assert k_codes.shape == (2, 3, 16)
        assert len(buf) == 0
        np.testing.assert_allclose(k_scale, 0.05)

    def test_drain_returns_copy(self, rng):
        buf = self._buffer()
        buf.append(np.ones((2, 16)), np.ones((2, 16)))
        k_codes, *_ = buf.drain()
        buf.append(np.full((2, 16), -1.0), np.ones((2, 16)))
        assert np.all(k_codes == 20)  # unchanged by later appends

    def test_extend(self, rng):
        buf = self._buffer()
        buf.extend(rng.standard_normal((2, 4, 16)), rng.standard_normal((2, 4, 16)))
        assert len(buf) == 4

    def test_storage_bits(self, rng):
        buf = self._buffer()
        buf.append(np.ones((2, 16)), np.ones((2, 16)))
        # 2 tensors * 1 token * 2 heads * 16 dims * 8 bits + 2 scales * 2 heads * 16.
        assert buf.storage_bits == 2 * 2 * 16 * 8 + 2 * 2 * 16

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DecodeBuffer(1, 4, capacity=0, k_scale=np.ones((1, 1, 1)), v_scale=np.ones((1, 1, 1)))


class TestSaturationAccounting:
    """Per-head clamp accounting feeding the adaptive-precision escalator."""

    def _buffer(self, h=2, d=16, cap=8):
        return DecodeBuffer(
            h, d, capacity=cap,
            k_scale=np.full((h, 1, 1), 0.05),
            v_scale=np.full((h, 1, 1), 0.05),
        )

    def test_clamped_total_exact_under_known_outliers(self):
        buf = self._buffer()
        k = np.zeros((2, 16))
        k[0, :3] = 100.0  # 3 outliers, head 0, K side only
        buf.append(k, np.zeros((2, 16)))
        assert buf.clamped_total == 3
        v = np.zeros((2, 16))
        v[1, :5] = -100.0  # 5 outliers, head 1, V side
        buf.append(np.zeros((2, 16)), v)
        assert buf.clamped_total == 8

    def test_clamped_total_monotone(self, rng):
        buf = self._buffer(cap=64)
        seen = 0
        for _ in range(20):
            hot = rng.standard_normal((2, 16)) * rng.choice([0.01, 50.0])
            buf.append(hot, hot)
            assert buf.clamped_total >= seen
            seen = buf.clamped_total
        # Drain publishes window stats but never rewinds the lifetime count.
        buf.drain()
        assert buf.clamped_total == seen

    def test_window_clamp_fraction_per_head(self):
        buf = self._buffer()
        k = np.zeros((2, 16))
        k[0, :] = 100.0  # head 0: all 16 K elements clamp (of 32 staged)
        buf.append(k, np.zeros((2, 16)))
        frac = buf.window_clamp_fraction()
        assert frac[0] == pytest.approx(0.5)
        assert frac[1] == 0.0
        assert buf.window_clamp_fraction().shape == (2,)

    def test_drain_publishes_and_resets_window(self):
        buf = self._buffer()
        k = np.full((2, 16), 100.0)
        buf.append(k, np.zeros((2, 16)))
        buf.drain()
        assert buf.last_clamp_fraction[0] == pytest.approx(0.5)
        assert buf.last_k_absmax[0] == pytest.approx(100.0)
        assert buf.window_clamp_fraction().max() == 0.0  # fresh window
        buf.append(np.zeros((2, 16)), np.zeros((2, 16)))
        buf.drain()
        assert buf.last_clamp_fraction.max() == 0.0  # republished, not sticky

    def test_empty_window_fraction_is_zero(self):
        buf = self._buffer()
        assert buf.window_clamp_fraction().max() == 0.0

    def test_grow_scale_stops_clamping(self):
        buf = self._buffer()
        k = np.full((2, 16), 100.0)
        buf.append(k, np.zeros((2, 16)))
        buf.drain()
        grew = buf.grow_scale(np.array([True, True]))
        assert grew == 2
        buf.append(k, np.zeros((2, 16)))
        assert buf.window_clamp_fraction().max() == 0.0  # no longer clamps
        codes, _ = buf.codes()
        assert codes[:, -1, :].max() == buf.clamp_code  # maps to full range

    def test_grow_scale_only_selected_heads(self):
        buf = self._buffer()
        k = np.full((2, 16), 100.0)
        buf.append(k, np.zeros((2, 16)))
        buf.drain()
        assert buf.grow_scale(np.array([True, False])) == 1
        assert buf.k_scale[0, 0, 0] > buf.k_scale[1, 0, 0]

    def test_grow_scale_never_shrinks(self):
        buf = self._buffer()
        buf.append(np.full((2, 16), 0.001), np.zeros((2, 16)))  # tiny absmax
        buf.drain()
        before = buf.k_scale.copy()
        assert buf.grow_scale(np.array([True, True])) == 0
        np.testing.assert_array_equal(buf.k_scale, before)

    def test_grow_scale_requires_empty_buffer(self):
        buf = self._buffer()
        buf.append(np.full((2, 16), 100.0), np.zeros((2, 16)))
        with pytest.raises(RuntimeError, match="empty"):
            buf.grow_scale(np.array([True, True]))


class TestVectorizedExtend:
    """Bulk extend must be element-for-element equivalent to the historical
    per-token append loop (the satellite perf change)."""

    def _pair(self, h=2, d=16, cap=32):
        mk = lambda: DecodeBuffer(
            h, d, capacity=cap,
            k_scale=np.full((h, 1, 1), 0.05),
            v_scale=np.full((h, 1, 1), 0.05),
        )
        return mk(), mk()

    def test_extend_equals_append_loop(self, rng):
        bulk, loop = self._pair()
        k = rng.standard_normal((2, 10, 16)) * 3.0  # some values clamp
        v = rng.standard_normal((2, 10, 16)) * 3.0
        bulk.extend(k, v)
        for t in range(10):
            loop.append(k[:, t, :], v[:, t, :])
        np.testing.assert_array_equal(bulk.codes()[0], loop.codes()[0])
        np.testing.assert_array_equal(bulk.codes()[1], loop.codes()[1])
        assert bulk.clamped_total == loop.clamped_total
        np.testing.assert_allclose(
            bulk.window_clamp_fraction(), loop.window_clamp_fraction()
        )
        np.testing.assert_allclose(bulk.last_k_absmax, loop.last_k_absmax)

    def test_extend_zero_tokens_noop(self):
        buf, _ = self._pair()
        buf.extend(np.zeros((2, 0, 16)), np.zeros((2, 0, 16)))
        assert len(buf) == 0

    def test_extend_overfill_fills_then_raises(self, rng):
        buf, _ = self._pair(cap=4)
        k = rng.standard_normal((2, 6, 16))
        with pytest.raises(RuntimeError, match="full"):
            buf.extend(k, k)
        assert len(buf) == 4  # filled to capacity before raising
        np.testing.assert_array_equal(
            buf.codes()[0],
            np.clip(np.rint(k[:, :4, :] / 0.05), -119, 119).astype(np.int8),
        )

    def test_extend_shape_mismatch(self, rng):
        buf, _ = self._pair()
        with pytest.raises(ValueError):
            buf.extend(rng.standard_normal((2, 3, 16)), rng.standard_normal((2, 4, 16)))

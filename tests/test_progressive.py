"""Tests for progressive quantization (INT8 -> INT4/2, integer scales)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.progressive import (
    LEGAL_BITS,
    ProgressiveConfig,
    legal_bits,
    pq_compress,
    pq_decompress_to_int8,
    pq_dequantize,
)
from repro.quant.schemes import quantize_symmetric

int8_blocks = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 8), st.integers(2, 32), st.integers(2, 16)),
    elements=st.integers(-119, 119),
)


def _random_codes(rng, shape=(2, 64, 32)):
    return rng.integers(-119, 120, size=shape).astype(np.int8)


class TestCompress:
    def test_codes_in_range(self, rng):
        q1 = _random_codes(rng)
        for bits in (2, 4):
            block = pq_compress(q1, bits=bits, float_scale=np.ones((2, 1, 1)))
            assert block.codes.min() >= 0
            assert block.codes.max() <= 2**bits - 1

    def test_integer_metadata_int8_representable(self, rng):
        q1 = _random_codes(rng)
        block = pq_compress(q1, bits=2, float_scale=np.ones((2, 1, 1)))
        assert np.all(np.abs(block.s_int) <= 127)
        assert np.all(np.abs(block.z_int) <= 127)

    def test_reconstruction_error_bound(self, rng):
        """|q1_hat - q1| <= s_int per element (one stage-2 step)."""
        q1 = _random_codes(rng)
        for bits in (2, 3, 4):
            block = pq_compress(q1, bits=bits, float_scale=np.ones((2, 1, 1)))
            q1_hat = pq_decompress_to_int8(block).astype(np.int32)
            err = np.abs(q1_hat - q1.astype(np.int32))
            assert np.all(err <= block.s_int.astype(np.int32) + 1)

    def test_error_monotone_in_bits(self, rng):
        q1 = _random_codes(rng)
        errs = {}
        for bits in (2, 4, 8):
            block = pq_compress(q1, bits=bits, float_scale=np.ones((2, 1, 1)))
            errs[bits] = np.abs(
                pq_decompress_to_int8(block).astype(np.int32) - q1.astype(np.int32)
            ).mean()
        assert errs[8] <= errs[4] <= errs[2]

    def test_int8_stage2_lossless_for_small_ranges(self, rng):
        # A channel spanning <= 2^bits - 1 int8 levels gets s_int = 1,
        # which is exact integer arithmetic.
        q1 = rng.integers(-7, 8, size=(1, 32, 4)).astype(np.int8)
        block = pq_compress(q1, bits=4, float_scale=np.ones((1, 1, 1)))
        np.testing.assert_array_equal(pq_decompress_to_int8(block), q1)

    def test_per_head_bits(self, rng):
        q1 = _random_codes(rng, shape=(4, 64, 16))
        bits = np.array([2, 4, 2, 4]).reshape(-1, 1, 1)
        block = pq_compress(q1, bits=bits, float_scale=np.ones((4, 1, 1)))
        hi = (2**bits - 1).reshape(-1)
        for h in range(4):
            assert block.codes[h].max() <= hi[h]
        # 4-bit heads must reconstruct more accurately than 2-bit heads.
        q1_hat = pq_decompress_to_int8(block).astype(np.int32)
        err = np.abs(q1_hat - q1.astype(np.int32)).mean(axis=(1, 2))
        assert err[1] < err[0] and err[3] < err[2]

    def test_invalid_bits_raise(self, rng):
        with pytest.raises(ValueError):
            pq_compress(_random_codes(rng), bits=5, float_scale=1.0)

    @pytest.mark.parametrize("bad", [1, 5, 4.5, float("nan")])
    def test_rejects_every_width_isin_rejected(self, rng, bad):
        codes = _random_codes(rng)
        with pytest.raises(ValueError):
            pq_compress(codes, bits=bad, float_scale=1.0)
        per_head = np.array([4, bad]).reshape(-1, 1, 1)
        with pytest.raises(ValueError):
            pq_compress(codes, bits=per_head, float_scale=1.0)

    def test_accepts_integral_float_width(self, rng):
        codes = _random_codes(rng)
        for bits in (4.0, np.array([4.0, 2.0]).reshape(-1, 1, 1)):
            block = pq_compress(codes, bits=bits, float_scale=1.0)
            assert block.codes.max() <= 15

    def test_legal_bits_agrees_with_isin(self):
        values = [2, 3, 4, 8, 4.0, np.float32(8.0), 0, 1, 5, 16, -4, 4.5,
                  float("nan"), float("inf"), True]
        for x in values:
            assert legal_bits(x) == bool(np.isin(x, LEGAL_BITS)), x
        for arr in (np.array([2, 4, 8], np.int8), np.array([2, 7]),
                    np.array([[4.0], [2.0]]), np.array([], dtype=np.int32)):
            assert legal_bits(arr) == bool(np.all(np.isin(arr, LEGAL_BITS))), arr

    @given(int8_blocks, st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_decompress_never_overflows_int8(self, q1, bits):
        block = pq_compress(q1, bits=bits, float_scale=1.0)
        out = pq_decompress_to_int8(block)
        assert out.dtype == np.int8
        assert np.all(out >= -127) and np.all(out <= 127)


class TestDequantize:
    def test_full_pipeline_error(self, rng):
        """Float -> INT8 -> INT4 -> float error stays proportional to the
        stage scales."""
        x = rng.standard_normal((2, 64, 32))
        codes, scale = quantize_symmetric(x, bits=8, axis=(-2, -1), max_code=119)
        block = pq_compress(codes, bits=4, float_scale=scale)
        x_hat = pq_dequantize(block)
        # Worst case: stage-1 half step + stage-2 one integer step.
        bound = scale * (0.5 + block.s_int.max() + 1)
        assert np.max(np.abs(x - x_hat)) <= np.max(bound)

    def test_scale_override(self, rng):
        q1 = _random_codes(rng, shape=(1, 8, 4))
        block = pq_compress(q1, bits=8, float_scale=np.full((1, 1, 1), 2.0))
        a = pq_dequantize(block)
        b = pq_dequantize(block, float_scale=np.full((1, 1, 1), 4.0))
        np.testing.assert_allclose(b, 2.0 * a)


class TestStorageAccounting:
    def test_scalar_bits(self, rng):
        q1 = _random_codes(rng, shape=(2, 64, 32))
        block = pq_compress(q1, bits=4, float_scale=np.ones((2, 1, 1)))
        n = 2 * 64 * 32
        meta = 2 * 2 * 32 * 8  # s_int + z_int per (head, channel), int8
        tile = 2 * 16  # fp16 per head
        assert block.storage_bits == n * 4 + meta + tile

    def test_per_head_bits_accounting(self, rng):
        q1 = _random_codes(rng, shape=(2, 64, 32))
        bits = np.array([2, 4]).reshape(-1, 1, 1)
        block = pq_compress(q1, bits=bits, float_scale=np.ones((2, 1, 1)))
        n_head = 64 * 32
        expected_codes = n_head * 2 + n_head * 4
        assert block.storage_bits - expected_codes == 2 * 2 * 32 * 8 + 2 * 16

    def test_effective_bits(self, rng):
        q1 = _random_codes(rng, shape=(1, 64, 64))
        block = pq_compress(q1, bits=4, float_scale=np.ones((1, 1, 1)))
        eff = block.effective_bits_per_value()
        assert 4.0 < eff < 4.5  # metadata adds fraction of a bit


class TestProgressiveConfig:
    def test_valid(self):
        assert ProgressiveConfig(bits=2).bits == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            ProgressiveConfig(bits=7)

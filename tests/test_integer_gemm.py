"""Tests for the integer GEMM and its scale algebra (Eq. 5/6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.integer_gemm import (
    int32_headroom_ok,
    int_matmul,
    scaled_int_matmul,
)
from repro.quant.schemes import (
    dequantize_asymmetric,
    dequantize_symmetric,
    quantize_asymmetric,
    quantize_symmetric,
)


class TestIntMatmul:
    def test_exact(self, rng):
        a = rng.integers(-127, 128, size=(8, 16)).astype(np.int8)
        b = rng.integers(-127, 128, size=(16, 4)).astype(np.int8)
        out = int_matmul(a, b)
        np.testing.assert_array_equal(out, a.astype(np.int64) @ b.astype(np.int64))
        assert out.dtype == np.int32

    def test_batched(self, rng):
        a = rng.integers(-10, 10, size=(3, 8, 16)).astype(np.int8)
        b = rng.integers(-10, 10, size=(3, 16, 4)).astype(np.int8)
        out = int_matmul(a, b)
        assert out.shape == (3, 8, 4)

    def test_broadcast(self, rng):
        a = rng.integers(-10, 10, size=(2, 5, 8, 16)).astype(np.int8)
        b = rng.integers(-10, 10, size=(2, 1, 16, 4)).astype(np.int8)
        out = int_matmul(a, b)
        assert out.shape == (2, 5, 8, 4)

    def test_rejects_floats(self, rng):
        with pytest.raises(TypeError):
            int_matmul(rng.standard_normal((4, 4)), np.ones((4, 4), dtype=np.int8))

    def test_overflow_guard(self):
        a = np.full((1, 200_000), 127, dtype=np.int32)
        b = np.full((200_000, 1), 127, dtype=np.int32)
        with pytest.raises(OverflowError):
            int_matmul(a, b)

    @pytest.mark.parametrize(
        "dtype,k,exact",
        [(np.int8, 200_000, 3_276_800_000), (np.int16, 4, 4_294_967_296)],
    )
    def test_overflow_guard_sees_most_negative_code(self, dtype, k, exact):
        # abs() of the most negative code is itself in its own dtype, so a
        # bound taken through np.abs would read these operands as harmless.
        low = np.iinfo(dtype).min
        a = np.full((1, k), low, dtype=dtype)
        b = np.full((k, 1), low, dtype=dtype)
        assert not int32_headroom_ok(a, b)
        with pytest.raises(OverflowError):
            int_matmul(a, b)
        assert int_matmul(a, b, on_overflow="chunk")[0, 0] == exact

    @given(
        hnp.arrays(np.int64, (4, 8), elements=st.integers(-127, 127)),
        hnp.arrays(np.int64, (8, 3), elements=st.integers(-127, 127)),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_ints(self, a, b):
        out = int_matmul(a, b)
        expected = np.array(
            [[sum(int(a[i, k]) * int(b[k, j]) for k in range(8)) for j in range(3)] for i in range(4)]
        )
        np.testing.assert_array_equal(out, expected)


class TestScaledIntMatmul:
    def test_symmetric_equals_dequantized_float(self, rng):
        """Eq. 6: the integer path with scalar scales is bit-exact to the
        float product of the dequantized operands."""
        a = rng.standard_normal((8, 32))
        b = rng.standard_normal((32, 8))
        ac, asc = quantize_symmetric(a, bits=8)
        bc, bsc = quantize_symmetric(b, bits=8)
        out = scaled_int_matmul(ac, asc, bc, bsc)
        expected = dequantize_symmetric(ac, asc) @ dequantize_symmetric(bc, bsc)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_symmetric_close_to_true_product(self, rng):
        a = rng.standard_normal((8, 64))
        b = rng.standard_normal((64, 8))
        ac, asc = quantize_symmetric(a, bits=8)
        bc, bsc = quantize_symmetric(b, bits=8)
        out = scaled_int_matmul(ac, asc, bc, bsc)
        rel = np.linalg.norm(out - a @ b) / np.linalg.norm(a @ b)
        assert rel < 0.02

    def test_per_row_and_column_scales(self, rng):
        a = rng.standard_normal((8, 32)) * rng.uniform(0.5, 5, size=(8, 1))
        b = rng.standard_normal((32, 6)) * rng.uniform(0.5, 5, size=(1, 6))
        ac, asc = quantize_symmetric(a, bits=8, axis=-1)  # (8, 1)
        bc, bsc = quantize_symmetric(b, bits=8, axis=-2)  # (1, 6)
        out = scaled_int_matmul(ac, asc, bc, bsc)
        expected = dequantize_symmetric(ac, asc) @ dequantize_symmetric(bc, bsc)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_asymmetric_b_term(self, rng):
        """Eq. 5 with a zero-point on B reproduces the dequantized product."""
        a = rng.standard_normal((4, 16))
        b = rng.standard_normal((16, 4)) + 2.0
        ac, asc = quantize_symmetric(a, bits=8)
        bc, bsc, bz = quantize_asymmetric(b, bits=8)
        out = scaled_int_matmul(ac, asc, bc.astype(np.int32), bsc, b_zero=bz)
        expected = dequantize_symmetric(ac, asc) @ dequantize_asymmetric(bc, bsc, bz)
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_asymmetric_both_terms(self, rng):
        a = rng.standard_normal((4, 16)) - 1.5
        b = rng.standard_normal((16, 4)) + 2.0
        ac, asc, az = quantize_asymmetric(a, bits=8)
        bc, bsc, bz = quantize_asymmetric(b, bits=8)
        out = scaled_int_matmul(
            ac.astype(np.int32), asc, bc.astype(np.int32), bsc, a_zero=az, b_zero=bz
        )
        expected = dequantize_asymmetric(ac, asc, az) @ dequantize_asymmetric(bc, bsc, bz)
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_symmetric_has_no_correction_terms(self, rng):
        """With z = 0 the asymmetric formula degenerates to Eq. 6."""
        a = rng.standard_normal((4, 16))
        b = rng.standard_normal((16, 4))
        ac, asc = quantize_symmetric(a, bits=8)
        bc, bsc = quantize_symmetric(b, bits=8)
        plain = scaled_int_matmul(ac, asc, bc, bsc)
        with_zeros = scaled_int_matmul(
            ac, asc, bc, bsc, a_zero=np.zeros(1), b_zero=np.zeros(1)
        )
        np.testing.assert_allclose(plain, with_zeros, rtol=1e-12)

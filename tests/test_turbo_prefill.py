"""Tests for the TurboAttention prefill kernel (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attention.masks import causal_mask
from repro.attention.reference import reference_attention
from repro.core.config import TurboConfig
from repro.core.prefill import quantize_tile, turbo_prefill
from repro.quant.progressive import pq_decompress_to_int8


def _bits(h, b=4):
    return np.full(h, b, dtype=np.int32)


class TestQuantizeTile:
    def test_scale_per_leading_index(self, rng):
        x = rng.standard_normal((3, 2, 8, 4))
        codes, scale = quantize_tile(x, 119)
        assert scale.shape == (3, 2, 1, 1)
        assert np.abs(codes).max() <= 119

    def test_reused_scale(self, rng):
        x = rng.standard_normal((1, 8, 4))
        _, scale = quantize_tile(x, 119)
        codes2, _ = quantize_tile(x * 100, 119, scale=scale)
        assert np.abs(codes2).max() == 119  # clamped


class TestPrefillAccuracy:
    def test_close_to_reference(self, qkv):
        q, k, v = qkv
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32, kv_bits=4)
        res = turbo_prefill(q, k, v, cfg, _bits(4), causal=False)
        expected = reference_attention(q, k, v)
        rel = np.linalg.norm(res.output - expected) / np.linalg.norm(expected)
        assert rel < 0.05

    def test_causal_close_to_reference(self, qkv):
        q, k, v = qkv
        n = q.shape[1]
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(4), causal=True)
        expected = reference_attention(q, k, v, mask=causal_mask(n, n))
        rel = np.linalg.norm(res.output - expected) / np.linalg.norm(expected)
        assert rel < 0.05

    def test_exact_mode_matches_flash(self, qkv):
        """With SAS and quantized MatMuls disabled the kernel degenerates
        to (fp16) flash attention."""
        q, k, v = qkv
        cfg = TurboConfig(use_sas=False, quantize_matmuls=False)
        res = turbo_prefill(q, k, v, cfg, _bits(4, 8), causal=False)
        expected = reference_attention(q, k, v)
        rel = np.linalg.norm(res.output - expected) / np.linalg.norm(expected)
        assert rel < 5e-3

    def test_lse_close(self, qkv):
        q, k, v = qkv
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(4), causal=False)
        _, lse = reference_attention(q, k, v, return_lse=True)
        assert np.max(np.abs(res.lse - lse)) < 0.05

    @pytest.mark.parametrize("bq,bk", [(16, 16), (16, 48), (48, 16), (96, 96), (128, 64)])
    def test_block_size_robustness(self, qkv, bq, bk):
        q, k, v = qkv
        n = q.shape[1]
        cfg = TurboConfig(block_q=bq, block_k=bk, buffer_size=bk)
        res = turbo_prefill(q, k, v, cfg, _bits(4), causal=True)
        expected = reference_attention(q, k, v, mask=causal_mask(n, n))
        rel = np.linalg.norm(res.output - expected) / np.linalg.norm(expected)
        assert rel < 0.05

    def test_error_monotone_in_bits(self, qkv):
        q, k, v = qkv
        errs = {}
        for bits in (2, 4, 8):
            cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
            res = turbo_prefill(q, k, v, cfg, _bits(4, bits), causal=False)
            # Storage bits only affect the cache, not the prefill output;
            # measure decode-path reconstruction via the cache instead.
            k_hat_blocks = [
                pq_decompress_to_int8(block.k).astype(np.float64) * block.k.float_scale
                for block in res.cache.blocks
            ]
            k_hat = np.concatenate(k_hat_blocks, axis=1)
            errs[bits] = np.linalg.norm(k_hat - k[:, : k_hat.shape[1], :])
        assert errs[8] <= errs[4] <= errs[2]

    def test_gqa_grouping(self, rng):
        hq, hkv, n, d = 8, 2, 64, 16
        q = rng.standard_normal((hq, n, d))
        k = rng.standard_normal((hkv, n, d))
        v = rng.standard_normal((hkv, n, d))
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(hkv), causal=False)
        expected = reference_attention(
            q, np.repeat(k, 4, axis=0), np.repeat(v, 4, axis=0)
        )
        rel = np.linalg.norm(res.output - expected) / np.linalg.norm(expected)
        assert rel < 0.05
        assert res.cache.n_heads == hkv  # cache stores only KV heads

    def test_gqa_head_mismatch_raises(self, rng):
        q = rng.standard_normal((6, 32, 8))
        k = rng.standard_normal((4, 32, 8))
        with pytest.raises(ValueError):
            turbo_prefill(q, k, k, TurboConfig(), _bits(4))


class TestPrefillStorage:
    def test_full_blocks_cached_tail_buffered(self, rng):
        h, n, d = 2, 100, 16
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(h), causal=True)
        assert res.cache.seq_len == 96  # 3 full blocks
        assert len(res.buffer) == 4  # ragged tail
        assert res.cache.seq_len + len(res.buffer) == n

    def test_exact_multiple_no_tail(self, rng):
        h, n, d = 2, 96, 16
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(h), causal=True)
        assert res.cache.seq_len == 96 and len(res.buffer) == 0

    def test_universal_scale_from_prefill_max(self, rng):
        h, n, d = 2, 64, 16
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(h), causal=True)
        expected = np.abs(k).max(axis=(-2, -1), keepdims=True) / 119
        np.testing.assert_allclose(res.buffer.k_scale, expected)

    def test_mixed_head_bits_respected(self, rng):
        h, n, d = 4, 64, 16
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        bits = np.array([2, 4, 2, 4], dtype=np.int32)
        res = turbo_prefill(q, k, v, TurboConfig(), bits, causal=True)
        blk = res.cache.blocks[0]
        assert blk.k.codes[0].max() <= 3 and blk.k.codes[1].max() <= 15

    @given(st.integers(10, 150))
    @settings(max_examples=15, deadline=None)
    def test_token_conservation_property(self, n):
        rng = np.random.default_rng(n)
        q, k, v = (rng.standard_normal((2, n, 8)) for _ in range(3))
        cfg = TurboConfig(block_q=32, block_k=32, buffer_size=32)
        res = turbo_prefill(q, k, v, cfg, _bits(2), causal=True)
        assert res.cache.seq_len + len(res.buffer) == n
        assert res.cache.seq_len % 32 == 0

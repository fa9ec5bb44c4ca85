"""Tests for the TurboAttention decode kernel (Algorithm 2) and the API."""

import numpy as np
import pytest

from repro.attention.reference import reference_attention
from repro.core import TurboAttention, TurboConfig
from repro.core import decode as core_decode
from repro.core import prefill as core_prefill


@pytest.fixture
def prefilled(rng):
    h, n, d = 4, 96, 32
    q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
    turbo = TurboAttention(TurboConfig(block_q=32, block_k=32, buffer_size=32))
    out, state = turbo.prefill(q, k, v, causal=True)
    return turbo, state, (q, k, v)


class TestDecodeAccuracy:
    def test_single_step_close_to_reference(self, prefilled, rng):
        turbo, state, (q, k, v) = prefilled
        h, d = q.shape[0], q.shape[2]
        q1, k1, v1 = (rng.standard_normal((h, d)) for _ in range(3))
        out = turbo.decode_step(q1, k1, v1, state)
        k_full = np.concatenate([k, k1[:, None, :]], axis=1)
        v_full = np.concatenate([v, v1[:, None, :]], axis=1)
        expected = reference_attention(q1[:, None, :], k_full, v_full)[:, 0, :]
        rel = np.linalg.norm(out - expected) / np.linalg.norm(expected)
        assert rel < 0.20  # 4-bit cache reads dominate the error

    def test_multi_step_stays_bounded(self, prefilled, rng):
        turbo, state, (q, k, v) = prefilled
        h, d = q.shape[0], q.shape[2]
        k_full, v_full = k, v
        rels = []
        for _ in range(40):
            q1, k1, v1 = (rng.standard_normal((h, d)) for _ in range(3))
            out = turbo.decode_step(q1, k1, v1, state)
            k_full = np.concatenate([k_full, k1[:, None, :]], axis=1)
            v_full = np.concatenate([v_full, v1[:, None, :]], axis=1)
            expected = reference_attention(q1[:, None, :], k_full, v_full)[:, 0, :]
            rels.append(np.linalg.norm(out - expected) / np.linalg.norm(expected))
        assert np.mean(rels) < 0.20
        assert np.max(rels) < 0.45

    def test_seq_len_tracks_tokens(self, prefilled, rng):
        turbo, state, (q, _, _) = prefilled
        h, d = q.shape[0], q.shape[2]
        start = state.seq_len
        for i in range(10):
            turbo.decode_step(
                rng.standard_normal((h, d)),
                rng.standard_normal((h, d)),
                rng.standard_normal((h, d)),
                state,
            )
            assert state.seq_len == start + i + 1

    def test_buffer_flushes_into_cache(self, prefilled, rng):
        turbo, state, (q, _, _) = prefilled
        h, d = q.shape[0], q.shape[2]
        blocks_before = len(state.cache)
        # Fill the 32-slot buffer past capacity: a flush must occur.
        for _ in range(40):
            turbo.decode_step(
                rng.standard_normal((h, d)),
                rng.standard_normal((h, d)),
                rng.standard_normal((h, d)),
                state,
            )
        assert len(state.cache) > blocks_before
        # No tokens lost across the flush boundary.
        assert state.seq_len == 96 + 40

    def test_flushed_blocks_never_recompressed(self, prefilled, rng):
        turbo, state, (q, _, _) = prefilled
        h, d = q.shape[0], q.shape[2]
        snapshot = [blk.k.codes.copy() for blk in state.cache.blocks]
        for _ in range(40):
            turbo.decode_step(
                rng.standard_normal((h, d)) * 50,  # outliers to tempt a rescale
                rng.standard_normal((h, d)) * 50,
                rng.standard_normal((h, d)) * 50,
                state,
            )
        for before, blk in zip(snapshot, state.cache.blocks):
            np.testing.assert_array_equal(before, blk.k.codes)

    def test_outliers_clamped_not_rescaled(self, prefilled, rng):
        turbo, state, (q, _, _) = prefilled
        h, d = q.shape[0], q.shape[2]
        scale_before = state.buffer.k_scale.copy()
        turbo.decode_step(
            rng.standard_normal((h, d)),
            rng.standard_normal((h, d)) * 100,
            rng.standard_normal((h, d)),
            state,
        )
        np.testing.assert_array_equal(scale_before, state.buffer.k_scale)
        assert state.buffer.clamped_total > 0

    def test_gqa_decode(self, rng):
        hq, hkv, n, d = 8, 2, 64, 16
        q = rng.standard_normal((hq, n, d))
        k = rng.standard_normal((hkv, n, d))
        v = rng.standard_normal((hkv, n, d))
        turbo = TurboAttention(TurboConfig(block_q=32, block_k=32, buffer_size=32))
        _, state = turbo.prefill(q, k, v, causal=True)
        q1 = rng.standard_normal((hq, d))
        k1 = rng.standard_normal((hkv, d))
        v1 = rng.standard_normal((hkv, d))
        out = turbo.decode_step(q1, k1, v1, state)
        k_full = np.repeat(np.concatenate([k, k1[:, None, :]], axis=1), 4, axis=0)
        v_full = np.repeat(np.concatenate([v, v1[:, None, :]], axis=1), 4, axis=0)
        expected = reference_attention(q1[:, None, :], k_full, v_full)[:, 0, :]
        rel = np.linalg.norm(out - expected) / np.linalg.norm(expected)
        assert rel < 0.20

    def test_exact_mode_runs_no_integer_matmul(self, rng, monkeypatch):
        """With SAS and both INT8 MatMuls off, decode is FP16 attention
        over the dequantized cache, as prefill is over its float tiles:
        no integer GEMM runs in either kernel."""
        calls = []
        for module in (core_prefill, core_decode):
            original = module.int_matmul
            monkeypatch.setattr(
                module, "int_matmul", lambda a, b, f=original: calls.append(1) or f(a, b)
            )
        h, n, d = 4, 96, 32
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        cfg = TurboConfig(
            block_q=32, block_k=32, buffer_size=32, kv_bits=8,
            use_sas=False, quantize_matmuls=False,
        )
        turbo = TurboAttention(cfg)
        _, state = turbo.prefill(q, k, v, causal=True)
        for _ in range(40):  # through a buffer flush
            q1, k1, v1 = (rng.standard_normal((h, d)) for _ in range(3))
            out = turbo.decode_step(q1, k1, v1, state)
            spans = core_decode._gather_spans(state.cache, state.buffer)
            expected = core_decode._reference_step_from_spans(
                spans, q1.reshape(h, 1, 1, d), 1.0 / np.sqrt(d)
            ).reshape(h, d)
            rel = np.linalg.norm(out - expected) / np.linalg.norm(expected)
            assert rel < 5e-3
        assert calls == []


class TestStateAccounting:
    def test_compression_ratio_reasonable(self, prefilled):
        _, state, _ = prefilled
        assert 2.5 < state.compression_ratio(16) < 6.0

    def test_mixed_precision_compresses_more(self, rng):
        h, n, d = 4, 128, 32
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        uniform = TurboAttention(TurboConfig(kv_bits=4))
        mixed = TurboAttention(TurboConfig(mixed_precision=True))
        _, s_uniform = uniform.prefill(q, k, v)
        _, s_mixed = mixed.prefill(q, k, v)
        assert s_mixed.storage_bits < s_uniform.storage_bits

    def test_effective_bits_near_nominal(self, prefilled):
        _, state, _ = prefilled
        # 4-bit codes + metadata + INT8 buffer tail.
        assert 4.0 < state.effective_bits_per_value() < 6.0

    def test_choose_head_bits_uniform(self, rng):
        turbo = TurboAttention(TurboConfig(kv_bits=4))
        k = rng.standard_normal((4, 32, 8))
        np.testing.assert_array_equal(turbo.choose_head_bits(k, k), [4, 4, 4, 4])

    def test_choose_head_bits_mixed_count(self, rng):
        turbo = TurboAttention(TurboConfig(mixed_precision=True, two_bit_fraction=0.5))
        k = rng.standard_normal((4, 32, 8))
        bits = turbo.choose_head_bits(k, k)
        assert (bits == 2).sum() == 2 and (bits == 4).sum() == 2


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_q": 0},
            {"buffer_size": -1},
            {"kv_bits": 5},
            {"two_bit_fraction": 1.5},
            {"head_selection": "magic"},
            {"int8_max_code": 0},
            # The buffer stores int8 codes: a wider clamp would wrap.
            {"clamp_code": 0},
            {"clamp_code": 128},
            # A flush of 64 buffered tokens cannot fit a 56-token block.
            {"block_q": 48, "block_k": 56, "buffer_size": 64},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            TurboConfig(**kwargs)

    def test_average_kv_bits(self):
        assert TurboConfig(kv_bits=4).average_kv_bits() == 4.0
        assert TurboConfig(mixed_precision=True, two_bit_fraction=0.5).average_kv_bits() == 3.0

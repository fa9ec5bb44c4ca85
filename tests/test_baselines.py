"""Tests for the FP16 / KIVI / GEAR baseline backends."""

import numpy as np
import pytest

from repro.attention.masks import causal_mask
from repro.attention.reference import reference_attention
from repro.baselines import (
    FP8Attention,
    FP16Attention,
    GEARAttention,
    GEARConfig,
    KIVIAttention,
    KIVIConfig,
)
from repro.baselines.gear import low_rank_factors


@pytest.fixture
def small_qkv(rng):
    h, n, d = 2, 80, 16
    return tuple(rng.standard_normal((h, n, d)) for _ in range(3))


_GQA_BACKENDS = {
    "fp16": FP16Attention,
    "kivi": lambda: KIVIAttention(KIVIConfig(bits=2, group_size=16, residual=16)),
    "gear": lambda: GEARAttention(GEARConfig(bits=4, group_size=16, residual=16, rank=2)),
    "fp8": lambda: FP8Attention(tile=16),
}


class TestGroupedQuery:
    @pytest.mark.parametrize("name", sorted(_GQA_BACKENDS))
    def test_kv_heads_serve_their_query_group(self, name, rng):
        # Query heads 2i and 2i + 1 read KV head i: the outputs equal, byte
        # for byte, those of the same backend given each KV head twice.
        hq, hkv, n, d = 4, 2, 40, 16
        q = rng.standard_normal((hq, n, d))
        k, v = rng.standard_normal((2, hkv, n, d))
        grouped, repeated = _GQA_BACKENDS[name](), _GQA_BACKENDS[name]()
        out_g, state_g = grouped.prefill(q, k, v)
        out_r, state_r = repeated.prefill(q, np.repeat(k, 2, axis=0), np.repeat(v, 2, axis=0))
        assert np.array_equal(out_g, out_r)
        for _ in range(24):  # past a group flush
            q_t = rng.standard_normal((hq, d))
            k_t, v_t = rng.standard_normal((2, hkv, d))
            a = grouped.decode_step(q_t, k_t, v_t, state_g)
            b = repeated.decode_step(
                q_t, np.repeat(k_t, 2, axis=0), np.repeat(v_t, 2, axis=0), state_r
            )
            assert np.array_equal(a, b)

    def test_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            FP16Attention().prefill(
                rng.standard_normal((4, 8, 2)), *rng.standard_normal((2, 3, 8, 2))
            )


class TestFP16Attention:
    def test_prefill_exact(self, small_qkv):
        q, k, v = small_qkv
        n = q.shape[1]
        out, state = FP16Attention().prefill(q, k, v, causal=True)
        expected = reference_attention(q, k, v, mask=causal_mask(n, n))
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 5e-3
        assert state.seq_len == n

    def test_decode_appends(self, small_qkv, rng):
        q, k, v = small_qkv
        backend = FP16Attention()
        _, state = backend.prefill(q, k, v)
        out = backend.decode_step(
            rng.standard_normal((2, 16)), rng.standard_normal((2, 16)),
            rng.standard_normal((2, 16)), state,
        )
        assert out.shape == (2, 16)
        assert state.seq_len == 81

    def test_storage_is_16_bits(self, small_qkv):
        q, k, v = small_qkv
        _, state = FP16Attention().prefill(q, k, v)
        assert state.effective_bits_per_value() == 16.0
        assert state.compression_ratio() == 1.0


class TestKIVI:
    def test_prefill_exact_compute(self, small_qkv):
        """KIVI quantizes for storage; prefill compute is exact."""
        q, k, v = small_qkv
        n = q.shape[1]
        out, _ = KIVIAttention(KIVIConfig(group_size=32, residual=32)).prefill(
            q, k, v, causal=True
        )
        expected = reference_attention(q, k, v, mask=causal_mask(n, n))
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 5e-3

    def test_residual_window_recent_tokens_exact(self, small_qkv):
        q, k, v = small_qkv
        _, state = KIVIAttention(KIVIConfig(group_size=32, residual=32)).prefill(q, k, v)
        # 80 tokens, groups of 32: 64 quantized, 16 in the FP16 residual.
        assert state.k_resid.shape[1] == 16
        k_deq, _ = state.dequantized()
        np.testing.assert_allclose(k_deq[:, 64:, :], k[:, 64:, :], atol=2e-3)

    def test_quantized_part_lossy_but_bounded(self, small_qkv):
        q, k, v = small_qkv
        cfg = KIVIConfig(bits=4, group_size=32, residual=32)
        _, state = KIVIAttention(cfg).prefill(q, k, v)
        k_deq, v_deq = state.dequantized()
        rel = np.linalg.norm(k_deq[:, :64] - k[:, :64]) / np.linalg.norm(k[:, :64])
        assert 0.0 < rel < 0.12

    def test_decode_flushes_groups(self, small_qkv, rng):
        q, k, v = small_qkv
        backend = KIVIAttention(KIVIConfig(group_size=32, residual=32))
        _, state = backend.prefill(q, k, v)
        groups_before = len(state.k_groups)
        for _ in range(40):
            backend.decode_step(
                rng.standard_normal((2, 16)), rng.standard_normal((2, 16)),
                rng.standard_normal((2, 16)), state,
            )
        assert len(state.k_groups) > groups_before
        assert state.seq_len == 120

    def test_storage_between_bits_and_fp16(self, small_qkv):
        q, k, v = small_qkv
        _, state = KIVIAttention(KIVIConfig(bits=4, group_size=32, residual=32)).prefill(q, k, v)
        eff = state.effective_bits_per_value()
        assert 4.0 < eff < 16.0

    def test_bits_sweep_monotone_error(self, small_qkv):
        q, k, v = small_qkv
        errs = {}
        for bits in (2, 4, 8):
            cfg = KIVIConfig(bits=bits, group_size=32, residual=32)
            _, state = KIVIAttention(cfg).prefill(q, k, v)
            k_deq, _ = state.dequantized()
            errs[bits] = np.linalg.norm(k_deq - k)
        assert errs[8] <= errs[4] <= errs[2]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            KIVIConfig(bits=5)
        with pytest.raises(ValueError):
            KIVIConfig(group_size=0)


class TestGEAR:
    def test_low_rank_factors_shapes(self, rng):
        err = rng.standard_normal((3, 32, 16))
        a, b = low_rank_factors(err, rank=4)
        assert a.shape == (3, 32, 4) and b.shape == (3, 4, 16)

    def test_low_rank_is_best_approximation(self, rng):
        err = rng.standard_normal((1, 16, 8))
        a, b = low_rank_factors(err, rank=8)  # full rank -> near exact
        np.testing.assert_allclose(a @ b, err, atol=2e-2)  # fp16 factors

    def test_gear_beats_plain_quant(self, small_qkv):
        """Low-rank compensation must reduce reconstruction error vs KIVI
        at the same bit-width."""
        q, k, v = small_qkv
        kivi = KIVIAttention(KIVIConfig(bits=2, group_size=32, residual=32))
        gear = GEARAttention(GEARConfig(bits=2, group_size=32, residual=32, rank=4))
        _, ks = kivi.prefill(q, k, v)
        _, gs = gear.prefill(q, k, v)
        k_kivi, _ = ks.dequantized()
        k_gear, _ = gs.dequantized()
        assert np.linalg.norm(k_gear - k) < np.linalg.norm(k_kivi - k)

    def test_gear_storage_exceeds_kivi(self, small_qkv):
        q, k, v = small_qkv
        _, ks = KIVIAttention(KIVIConfig(bits=4, group_size=32, residual=32)).prefill(q, k, v)
        _, gs = GEARAttention(GEARConfig(bits=4, group_size=32, residual=32)).prefill(q, k, v)
        assert gs.storage_bits > ks.storage_bits

    def test_decode_runs(self, small_qkv, rng):
        q, k, v = small_qkv
        backend = GEARAttention(GEARConfig(group_size=32, residual=32))
        _, state = backend.prefill(q, k, v)
        out = backend.decode_step(
            rng.standard_normal((2, 16)), rng.standard_normal((2, 16)),
            rng.standard_normal((2, 16)), state,
        )
        assert out.shape == (2, 16)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            GEARConfig(rank=0)


@pytest.mark.parametrize("config", [KIVIConfig, GEARConfig])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"bits": 5},
        {"group_size": 0},
        {"group_size": -16},
        {"residual": 0},
        {"residual": -3},
    ],
)
def test_invalid_window_configs_raise_at_construction(config, kwargs):
    with pytest.raises(ValueError):
        config(**kwargs)

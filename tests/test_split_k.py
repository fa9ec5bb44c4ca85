"""Tests for split-K decode and the exact partial merge."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attention.reference import reference_attention
from repro.attention.split_k import merge_partials, split_k_decode
from repro.core import TurboAttention, TurboConfig
from repro.core import decode as core_decode
from repro.core.decode import turbo_decode_step_split_k

from tests._reference_kernels import gather_spans, key_row


class TestMergePartials:
    def test_two_way_merge_exact(self, rng):
        q = rng.standard_normal((2, 1, 16))
        k = rng.standard_normal((2, 64, 16))
        v = rng.standard_normal((2, 64, 16))
        o1, l1 = reference_attention(q, k[:, :40], v[:, :40], return_lse=True)
        o2, l2 = reference_attention(q, k[:, 40:], v[:, 40:], return_lse=True)
        merged, lse = merge_partials([o1, o2], [l1, l2])
        full, full_lse = reference_attention(q, k, v, return_lse=True)
        np.testing.assert_allclose(merged, full, atol=1e-12)
        np.testing.assert_allclose(lse, full_lse, atol=1e-12)

    def test_empty_partial_ignored(self, rng):
        q = rng.standard_normal((1, 1, 8))
        k = rng.standard_normal((1, 16, 8))
        v = rng.standard_normal((1, 16, 8))
        out, lse = reference_attention(q, k, v, return_lse=True)
        # A fully-masked partial (lse = -inf, zero output) contributes 0.
        dead = np.zeros_like(out)
        dead_lse = np.full_like(lse, -np.inf)
        merged, _ = merge_partials([out, dead], [lse, dead_lse])
        np.testing.assert_allclose(merged, out, atol=1e-12)

    def test_single_partial_identity(self, rng):
        out = rng.standard_normal((2, 1, 8))
        lse = rng.standard_normal((2, 1))
        merged, merged_lse = merge_partials([out], [lse])
        np.testing.assert_allclose(merged, out)
        np.testing.assert_allclose(merged_lse, lse)

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            merge_partials([np.zeros((1, 4))], [])

    def test_merge_is_permutation_invariant(self, rng):
        q = rng.standard_normal((1, 1, 8))
        k = rng.standard_normal((1, 30, 8))
        v = rng.standard_normal((1, 30, 8))
        parts = [
            reference_attention(q, k[:, lo:hi], v[:, lo:hi], return_lse=True)
            for lo, hi in ((0, 10), (10, 20), (20, 30))
        ]
        a, _ = merge_partials([p[0] for p in parts], [p[1] for p in parts])
        rev = parts[::-1]
        b, _ = merge_partials([p[0] for p in rev], [p[1] for p in rev])
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSplitKDecode:
    @given(st.integers(1, 9), st.integers(2, 120))
    @settings(max_examples=30, deadline=None)
    def test_any_split_exact(self, n_splits, n):
        rng = np.random.default_rng(n_splits * 1000 + n)
        q = rng.standard_normal((2, 1, 8))
        k = rng.standard_normal((2, n, 8))
        v = rng.standard_normal((2, n, 8))
        out = split_k_decode(q, k, v, n_splits=n_splits)
        np.testing.assert_allclose(out, reference_attention(q, k, v), atol=1e-12)

    def test_invalid_splits(self, rng):
        q = rng.standard_normal((1, 1, 8))
        k = rng.standard_normal((1, 8, 8))
        with pytest.raises(ValueError):
            split_k_decode(q, k, k, n_splits=0)


class TestTurboSplitK:
    @pytest.fixture
    def prefilled(self, rng):
        h, n, d = 4, 200, 32
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        turbo = TurboAttention(TurboConfig(block_q=32, block_k=32, buffer_size=32))
        _, state = turbo.prefill(q, k, v)
        return turbo, state

    def test_matches_unsplit_without_sas(self, rng):
        h, n, d = 2, 128, 16
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        cfg = TurboConfig(block_k=32, buffer_size=32, use_sas=False)
        turbo = TurboAttention(cfg)
        _, s1 = turbo.prefill(q, k, v)
        _, s2 = turbo.prefill(q, k, v)
        q1, k1, v1 = (rng.standard_normal((h, d)) for _ in range(3))
        a = turbo.decode_step(q1, k1, v1, s1)
        b = turbo_decode_step_split_k(q1, k1, v1, s2.cache, s2.buffer, cfg, n_splits=3)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_close_to_unsplit_with_sas(self, prefilled, rng):
        """SAS's per-span rescale decay differs between schedules; the
        results agree to within the SAS approximation error."""
        turbo, state = prefilled
        state2 = copy.deepcopy(state)
        q1, k1, v1 = (rng.standard_normal((4, 32)) for _ in range(3))
        a = turbo.decode_step(q1, k1, v1, state)
        b = turbo_decode_step_split_k(
            q1, k1, v1, state2.cache, state2.buffer, turbo.config, n_splits=4
        )
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 5e-3

    def test_splits_exceeding_spans_ok(self, prefilled, rng):
        turbo, state = prefilled
        q1, k1, v1 = (rng.standard_normal((4, 32)) for _ in range(3))
        out = turbo_decode_step_split_k(
            q1, k1, v1, state.cache, state.buffer, turbo.config, n_splits=100
        )
        assert out.shape == (4, 32)

    def test_invalid_splits(self, prefilled, rng):
        turbo, state = prefilled
        q1 = rng.standard_normal((4, 32))
        with pytest.raises(ValueError):
            turbo_decode_step_split_k(
                q1, q1, q1, state.cache, state.buffer, turbo.config, n_splits=0
            )

    def test_state_advances_identically(self, prefilled, rng):
        turbo, state = prefilled
        state2 = copy.deepcopy(state)
        q1, k1, v1 = (rng.standard_normal((4, 32)) for _ in range(3))
        turbo.decode_step(q1, k1, v1, state)
        turbo_decode_step_split_k(
            q1, k1, v1, state2.cache, state2.buffer, turbo.config, n_splits=2
        )
        assert state.seq_len == state2.seq_len
        assert len(state.buffer) == len(state2.buffer)

    @pytest.mark.parametrize("quantize_matmuls", [True, False], ids=["int8-core", "fp16-loop"])
    def test_every_segment_range_reads_as_a_fresh_row(self, quantize_matmuls):
        # A split-K chunk reads its range of the decode row in place.  For
        # every segment range [lo, hi) of a row holding blocks of two
        # lengths and a buffer, attention over the range's view equals,
        # byte for byte, attention over a fresh row of the same gathered
        # spans; the view's code magnitudes (and hence its int32 bound)
        # are the range's own.
        rng = np.random.default_rng(61)
        hq, hkv, d = 4, 2, 16
        config = TurboConfig(
            block_q=16, block_k=16, buffer_size=12, quantize_matmuls=quantize_matmuls
        )
        turbo = TurboAttention(config)
        q, k, v = rng.standard_normal((hq, 100, d)), *rng.standard_normal((2, hkv, 100, d))
        # K outliers in one block set the buffer's frozen scale, so the
        # codes staged after the prompt stay far below the blocks' codes.
        k[:, 40:48] *= 30.0
        _, state = turbo.prefill(q, k, v)
        for _ in range(11):  # the buffer flushes a 12-token block, then holds 3
            q1 = rng.standard_normal((hq, d))
            k1, v1 = rng.standard_normal((2, hkv, d))
            turbo.decode_step(q1, k1, v1, state)
        row = core_decode._DecodeRow(state.cache, state.buffer, 0)
        spans = gather_spans(state.cache, state.buffer)
        assert [span[0].shape[-2] for span in spans] == [16] * 6 + [12, 3]
        q_t = rng.standard_normal((hkv, hq // hkv, 1, d))
        exp, scale = core_decode._exp_fn(config), 1.0 / np.sqrt(d)
        for lo in range(len(spans)):
            for hi in range(lo + 1, len(spans) + 1):
                view, fresh = row.view(lo, hi), key_row(spans[lo:hi])
                assert (view.k_mag, view.v_mag) == (fresh.k_mag, fresh.v_mag)
                got = core_decode._attend(q_t, 1, view, exp, scale, config)
                want = core_decode._attend(q_t, 1, fresh, exp, scale, config)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

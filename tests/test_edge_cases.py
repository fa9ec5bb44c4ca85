"""Edge-case coverage across modules: empty states, NaN policies,
capacity edges, and parameter variants not exercised elsewhere."""

import numpy as np
import pytest

from repro.core import TurboAttention, TurboConfig
from repro.core.buffer import DecodeBuffer
from repro.core.kvcache import QuantizedKVCache
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry, linear_counts
from repro.serving.metrics import summarize
from repro.serving.request import Request, RequestRecord, RequestStatus
from repro.tasks.recall import RecallTask

from tests._reference_kernels import gather_spans


class TestEmptyStates:
    def test_empty_cache_iteration(self):
        cache = QuantizedKVCache(2, 8, head_bits=np.array([4, 4]), block_size=16)
        buffer = DecodeBuffer(
            2, 8, capacity=16, k_scale=np.ones((2, 1, 1)), v_scale=np.ones((2, 1, 1))
        )
        assert list(gather_spans(cache, buffer)) == []

    def test_buffer_extend_respects_capacity(self, rng):
        buf = DecodeBuffer(
            1, 4, capacity=3,
            k_scale=np.ones((1, 1, 1)), v_scale=np.ones((1, 1, 1)),
        )
        with pytest.raises(RuntimeError):
            buf.extend(rng.standard_normal((1, 5, 4)), rng.standard_normal((1, 5, 4)))
        assert len(buf) == 3  # filled up to capacity before raising

    def test_metrics_with_no_finished_requests(self):
        rec = RequestRecord(Request(0, 0.0, 10, 5))
        m = summarize([rec], makespan=1.0)
        assert m.completed == 0
        assert m.throughput_tokens_per_s == 0.0
        assert np.isnan(m.mean_ttft)

    def test_metrics_zero_makespan(self):
        m = summarize([], makespan=0.0)
        assert m.throughput_tokens_per_s == 0.0


class TestDegenerateAttention:
    def test_single_token_prefill(self, rng):
        q, k, v = (rng.standard_normal((2, 1, 8)) for _ in range(3))
        turbo = TurboAttention(TurboConfig(block_q=16, block_k=16, buffer_size=16))
        out, state = turbo.prefill(q, k, v, causal=True)
        assert out.shape == (2, 1, 8)
        assert state.seq_len == 1
        # Single token with itself: softmax weight 1 -> output ~= value.
        rel = np.linalg.norm(out[:, 0] - v[:, 0]) / np.linalg.norm(v)
        assert rel < 0.1

    def test_constant_inputs_no_nans(self):
        q = np.ones((2, 32, 8))
        k = np.ones((2, 32, 8))
        v = np.ones((2, 32, 8))
        turbo = TurboAttention(TurboConfig(block_q=16, block_k=16, buffer_size=16))
        out, _ = turbo.prefill(q, k, v, causal=True)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 1.0, atol=0.05)

    def test_tiny_head_dim(self, rng):
        q, k, v = (rng.standard_normal((1, 40, 2)) for _ in range(3))
        turbo = TurboAttention(TurboConfig(block_q=16, block_k=16, buffer_size=16))
        out, _ = turbo.prefill(q, k, v, causal=True)
        assert np.all(np.isfinite(out))

    def test_zero_variance_head(self, rng):
        """One head entirely zero must not poison scales or output."""
        q, k, v = (rng.standard_normal((2, 32, 8)) for _ in range(3))
        k[1] = 0.0
        v[1] = 0.0
        turbo = TurboAttention(TurboConfig(block_q=16, block_k=16, buffer_size=16))
        out, state = turbo.prefill(q, k, v, causal=True)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], 0.0, atol=1e-9)


class TestModelGeometryVariants:
    def test_quantized_weight_bits(self):
        m16 = ModelGeometry.phi3_medium()
        m4 = ModelGeometry(
            n_layers=m16.n_layers, n_heads=m16.n_heads, n_kv_heads=m16.n_kv_heads,
            head_dim=m16.head_dim, d_ff=m16.d_ff, vocab_size=m16.vocab_size,
            weight_bits=4.0,
        )
        assert m4.weight_bytes == pytest.approx(m16.weight_bytes / 4)
        # Decode weight reads shrink proportionally.
        c16 = linear_counts(m16, 1, 1)
        c4 = linear_counts(m4, 1, 1)
        assert c4.bytes_read < c16.bytes_read

    def test_linear_counts_kernel_launches(self):
        m = ModelGeometry.phi3_medium()
        assert linear_counts(m, 1, 1).kernel_launches == 6 * m.n_layers + 1


class TestTaskEdges:
    def test_pairs_equal_prefill_len(self):
        # Degenerate but legal: every prompt position is a pair.
        t = RecallTask(name="dense", prefill_len=32, n_pairs=32, n_hops=4)
        assert t.n_pairs == 32

    def test_request_status_enum_complete(self):
        assert {s.value for s in RequestStatus} == {
            "waiting", "prefilling", "running", "finished", "failed",
            "rejected", "shed", "migrating",
        }


class TestMethodSpecs:
    def test_all_methods_have_positive_bits(self):
        for spec in METHODS.values():
            assert spec.kv_bits > 0
            assert spec.cache_workspace_factor >= 1.0

    def test_turbo_methods_compress(self):
        for name, spec in METHODS.items():
            if name.startswith("turbo"):
                assert spec.kv_bits < 8

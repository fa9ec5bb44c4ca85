"""Tests for e2e latency, memory, throughput, and the kernel simulator."""

import pytest

from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry, linear_counts, phase_breakdown
from repro.perf.tp import tp_step_latency
from repro.perf.gpu import A100_80GB
from repro.perf.kernelsim import simulate_attention_kernel
from repro.perf.memory import MemoryModel, paper_memory_model
from repro.perf.throughput import generation_throughput, max_throughput


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


@pytest.fixture(scope="module")
def mem(model):
    return paper_memory_model(model)


class TestModelGeometry:
    def test_phi3_medium_shape(self, model):
        assert model.d_model == 5120
        assert model.n_kv_heads == 10
        # ~14B linear parameters (Phi3-medium is a 14B model).
        assert 12e9 < model.linear_params < 16e9

    def test_weight_bytes_fp16(self, model):
        assert model.weight_bytes == model.linear_params * 2

    def test_attention_geometry_passthrough(self, model):
        g = model.attention_geometry(4, 1, 1024)
        assert g.n_heads == 40 and g.kv_len == 1024


class TestLinearCounts:
    def test_flops_scale_with_tokens(self, model):
        c1 = linear_counts(model, 1, 128)
        c2 = linear_counts(model, 1, 256)
        assert c2.fp16_tc == pytest.approx(2 * c1.fp16_tc)

    def test_decode_is_weight_bound(self, model):
        """At batch 1 the weight read dominates decode linear latency."""
        c = linear_counts(model, 1, 1)
        assert A100_80GB.memory_time(c) > A100_80GB.tensor_time(c)


class TestE2E:
    def test_prefill_dominated_by_compute_at_long_ctx(self, model):
        lat = tp_step_latency(METHODS["fp16"], model, 1, 32768, 32768, prefill=True)
        assert lat > 1.0  # seconds of GEMM work

    def test_turbo_e2e_faster(self, model):
        base = tp_step_latency(METHODS["fp16"], model, 4, 1, 8192, prefill=False)
        turbo = tp_step_latency(METHODS["turbo_mixed"], model, 4, 1, 8192, prefill=False)
        assert turbo < base

    def test_phase_breakdown_sums(self, model):
        parts = phase_breakdown(METHODS["fp16"], model, 4, 4096, 256)
        assert parts["total"] == pytest.approx(parts["linear"] + parts["attention"])

    def test_attention_share_grows_with_context(self, model):
        shares = []
        for n in (1024, 16384, 65536):
            p = phase_breakdown(METHODS["fp16"], model, 8, n, n // 8)
            shares.append(p["attention"] / p["total"])
        assert shares[0] < shares[1] < shares[2]
        assert shares[2] > 0.6  # Figure 1a: ~80% at >80k


class TestMemoryModel:
    def test_fp16_ooms_past_4k_at_batch4(self, model, mem):
        """Figure 6's OOM boundary."""
        assert mem.fits(METHODS["fp16"], 4, 4096)
        assert not mem.fits(METHODS["fp16"], 4, 8192)

    def test_turbo_reaches_32k(self, model, mem):
        assert mem.fits(METHODS["turbo_mixed"], 4, 32768)

    def test_max_batch_ordering(self, model, mem):
        b_fp16 = mem.max_batch(METHODS["fp16"], 1149)
        b_kivi = mem.max_batch(METHODS["kivi4"], 1149)
        b_turbo = mem.max_batch(METHODS["turbo_mixed"], 1149)
        assert b_fp16 < b_kivi < b_turbo

    def test_max_context_monotone_in_batch(self, model, mem):
        assert mem.max_context(METHODS["fp16"], 1) > mem.max_context(METHODS["fp16"], 8)

    def test_kv_bytes_linear_in_context(self, model, mem):
        a = mem.kv_bytes(METHODS["fp16"], 1, 1000)
        b = mem.kv_bytes(METHODS["fp16"], 1, 2000)
        assert b == pytest.approx(2 * a)

    def test_ideal_model_fits_more(self, model):
        ideal = MemoryModel(model)
        paper = paper_memory_model(model)
        assert ideal.max_batch(METHODS["fp16"], 1149) > paper.max_batch(
            METHODS["fp16"], 1149
        )


class TestThroughput:
    def test_oom_point(self, model, mem):
        p = generation_throughput(METHODS["fp16"], model, 4096, 1024, 125, memory=mem)
        assert p.oom and p.tokens_per_second == 0.0

    def test_throughput_grows_with_batch(self, model, mem):
        p1 = generation_throughput(METHODS["turbo4"], model, 1, 1024, 125, memory=mem)
        p8 = generation_throughput(METHODS["turbo4"], model, 8, 1024, 125, memory=mem)
        assert p8.tokens_per_second > p1.tokens_per_second

    def test_max_throughput_ordering(self, model, mem):
        """Figure 7a: turbo > kivi/gear > fp16 at max batch."""
        best = {
            name: max_throughput(METHODS[name], model, 1024, 125, memory=mem)
            for name in ("fp16", "kivi4", "gear4", "turbo_mixed")
        }
        assert best["turbo_mixed"].tokens_per_second > best["kivi4"].tokens_per_second
        assert best["kivi4"].tokens_per_second > best["fp16"].tokens_per_second
        ratio = best["turbo_mixed"].tokens_per_second / best["fp16"].tokens_per_second
        assert 1.5 < ratio < 3.0  # paper: 2.37x

    def test_max_throughput_uses_larger_batch_for_compressed(self, model, mem):
        fp16 = max_throughput(METHODS["fp16"], model, 1024, 125, memory=mem)
        turbo = max_throughput(METHODS["turbo_mixed"], model, 1024, 125, memory=mem)
        assert turbo.batch > 3 * fp16.batch


class TestKernelSim:
    def test_phase_shares_sum_to_one(self, model):
        t = simulate_attention_kernel(
            METHODS["fp16"], model.attention_geometry(4, 1, 8192), prefill=False
        )
        total = t.pop("total")
        assert sum(t.values()) == pytest.approx(total)

    def test_fp16_decode_memory_bound(self, model):
        t = simulate_attention_kernel(
            METHODS["fp16"], model.attention_geometry(4, 1, 8192), prefill=False
        )
        assert t["load_kv"] / t["total"] > 0.7

    def test_fp16_prefill_softmax_significant(self, model):
        """§4: softmax costs >30% of *compute* in stock flash prefill; we
        assert it is a significant share (>10%) of the non-overlapped
        simulator total."""
        t = simulate_attention_kernel(
            METHODS["fp16"], model.attention_geometry(4, 8192, 8192), prefill=True
        )
        assert t["softmax"] / t["total"] > 0.10

    def test_turbo_softmax_cheaper_than_fp16(self, model):
        g = model.attention_geometry(4, 8192, 8192)
        base = simulate_attention_kernel(METHODS["fp16"], g, prefill=True)
        turbo = simulate_attention_kernel(METHODS["turbo4"], g, prefill=True)
        assert turbo["softmax"] < base["softmax"]

    def test_kivi_has_dequant_phase(self, model):
        g = model.attention_geometry(4, 1, 8192)
        t = simulate_attention_kernel(METHODS["kivi4"], g, prefill=False)
        assert t["dequant"] > 0
        base = simulate_attention_kernel(METHODS["fp16"], g, prefill=False)
        assert base["dequant"] == 0.0

    def test_turbo_total_below_fp16_decode(self, model):
        g = model.attention_geometry(4, 1, 8192)
        base = simulate_attention_kernel(METHODS["fp16"], g, prefill=False)
        turbo = simulate_attention_kernel(METHODS["turbo_mixed"], g, prefill=False)
        assert turbo["total"] < base["total"]

    def test_kivi_total_above_fp16_decode(self, model):
        g = model.attention_geometry(4, 1, 8192)
        base = simulate_attention_kernel(METHODS["fp16"], g, prefill=False)
        kivi = simulate_attention_kernel(METHODS["kivi4"], g, prefill=False)
        assert kivi["total"] > base["total"]

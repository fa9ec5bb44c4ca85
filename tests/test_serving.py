"""Tests for the continuous-batching serving simulator."""

import numpy as np
import pytest

from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.serving import (
    EngineConfig,
    PagedKVAllocator,
    Request,
    ServingEngine,
    poisson_workload,
)
from repro.serving.columns import RequestColumns, RunningBatch
from repro.serving.request import RequestRecord, RequestStatus
from repro.serving.workload import closed_batch_workload


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=0.0, prompt_len=0, gen_len=5)

    def test_record_lifecycle(self):
        rec = RequestRecord(Request(0, 0.0, 100, 10))
        assert rec.status is RequestStatus.WAITING
        rec.generated = 4
        assert rec.context_len == 104 and not rec.done
        rec.generated = 10
        assert rec.done

    def test_ttft_tpot(self):
        rec = RequestRecord(Request(0, 1.0, 100, 11))
        rec.first_token_at = 3.0
        rec.finished_at = 8.0
        assert rec.ttft == 2.0
        assert rec.tpot == pytest.approx(0.5)

    def test_requeue_resets(self):
        rec = RequestRecord(Request(0, 0.0, 100, 10))
        rec.status = RequestStatus.RUNNING
        rec.generated = 5
        rec.reset_for_requeue()
        assert rec.status is RequestStatus.WAITING
        assert rec.generated == 0 and rec.preemptions == 1


class TestAllocator:
    def _alloc(self, model, budget_gb=10.0, **kw):
        return PagedKVAllocator(
            model, METHODS["fp16"], budget_bytes=budget_gb * 1e9, **kw
        )

    def test_blocks_for(self, model):
        a = self._alloc(model, block_tokens=64)
        assert a.blocks_for(1) == 1
        assert a.blocks_for(64) == 1
        assert a.blocks_for(65) == 2

    def test_grow_and_release(self, model):
        a = self._alloc(model)
        assert a.grow(1, 100)
        used = a.used_blocks
        assert used == a.blocks_for(100)
        assert a.grow(1, 120)  # same allocation grows
        a.release(1)
        assert a.used_blocks == 0

    def test_oom_returns_false(self, model):
        a = PagedKVAllocator(model, METHODS["fp16"], budget_bytes=1e7)
        assert not a.grow(1, 10_000_000)

    def test_compressed_method_fits_more(self, model):
        budget = 10e9
        fp16 = PagedKVAllocator(model, METHODS["fp16"], budget)
        turbo = PagedKVAllocator(model, METHODS["turbo_mixed"], budget)
        assert turbo.total_blocks > 3 * fp16.total_blocks

    def test_fragmentation_accounting(self, model):
        a = self._alloc(model, block_tokens=64)
        a.grow(1, 65)  # 2 blocks, 63 slots wasted
        assert a.internal_fragmentation == pytest.approx(63 / 128)

    def test_ideal_vs_paper_harness(self, model):
        ideal = PagedKVAllocator(model, METHODS["fp16"], 10e9, paper_harness=False)
        paper = PagedKVAllocator(model, METHODS["fp16"], 10e9, paper_harness=True)
        assert ideal.total_blocks > paper.total_blocks

    def test_invalid_budget(self, model):
        with pytest.raises(ValueError):
            PagedKVAllocator(model, METHODS["fp16"], budget_bytes=0)


class TestWorkloads:
    def test_poisson_sorted_arrivals(self):
        reqs = poisson_workload(50, arrival_rate=3.0)
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
        assert all(r.prompt_len >= 512 for r in reqs)

    def test_poisson_reproducible(self):
        a = poisson_workload(10, 2.0, rng=np.random.default_rng(5))
        b = poisson_workload(10, 2.0, rng=np.random.default_rng(5))
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]

    def test_closed_batch(self):
        reqs = closed_batch_workload(8, prompt_len=100, gen_len=10)
        assert len(reqs) == 8
        assert all(r.arrival_time == 0.0 for r in reqs)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_workload(0, 1.0)
        with pytest.raises(ValueError):
            poisson_workload(5, 0.0)


class TestEngine:
    def test_all_requests_complete(self, model):
        reqs = poisson_workload(20, arrival_rate=2.0, rng=np.random.default_rng(0))
        metrics = ServingEngine(model, METHODS["turbo_mixed"]).run(reqs)
        assert metrics.completed == 20
        assert metrics.output_tokens == sum(r.gen_len for r in reqs)
        assert metrics.throughput_tokens_per_s > 0

    def test_ttft_positive_and_ordered(self, model):
        reqs = poisson_workload(20, arrival_rate=2.0, rng=np.random.default_rng(0))
        metrics = ServingEngine(model, METHODS["turbo_mixed"]).run(reqs)
        assert 0 < metrics.mean_ttft <= metrics.p95_ttft

    def test_fp16_preempts_under_pressure(self, model):
        """The calibrated FP16 footprint forces queueing/preemption at
        loads the compressed cache absorbs."""
        reqs = poisson_workload(40, arrival_rate=6.0, rng=np.random.default_rng(3))
        fp16 = ServingEngine(model, METHODS["fp16"]).run(reqs)
        turbo = ServingEngine(model, METHODS["turbo_mixed"]).run(reqs)
        assert fp16.completed == turbo.completed == 40
        assert turbo.throughput_tokens_per_s > 1.3 * fp16.throughput_tokens_per_s
        assert turbo.p95_ttft < fp16.p95_ttft
        assert turbo.preemptions <= fp16.preemptions

    def test_closed_batch_matches_fig7a_direction(self, model):
        reqs = closed_batch_workload(96)
        fp16 = ServingEngine(model, METHODS["fp16"]).run(reqs)
        turbo = ServingEngine(model, METHODS["turbo_mixed"]).run(reqs)
        ratio = turbo.throughput_tokens_per_s / fp16.throughput_tokens_per_s
        assert 1.4 < ratio < 3.0

    def test_max_batch_respected(self, model):
        cfg = EngineConfig(max_batch=2)
        reqs = closed_batch_workload(6, prompt_len=128, gen_len=8)
        metrics = ServingEngine(model, METHODS["turbo_mixed"], cfg).run(reqs)
        assert metrics.completed == 6
        # With batch <= 2 the makespan is at least 3 sequential waves.
        assert metrics.makespan > 0

    def test_empty_idle_gap_jumps_clock(self, model):
        reqs = [
            Request(0, arrival_time=0.0, prompt_len=64, gen_len=2),
            Request(1, arrival_time=100.0, prompt_len=64, gen_len=2),
        ]
        metrics = ServingEngine(model, METHODS["turbo_mixed"]).run(reqs)
        assert metrics.completed == 2
        assert metrics.makespan > 100.0

    def test_deterministic(self, model):
        reqs = poisson_workload(15, arrival_rate=3.0, rng=np.random.default_rng(9))
        a = ServingEngine(model, METHODS["kivi4"]).run(reqs)
        b = ServingEngine(model, METHODS["kivi4"]).run(reqs)
        assert a.as_dict() == b.as_dict()


class TestCancelEvictAccounting:
    """cancel/evict_unfinished charge processed tokens to the engine's
    cancelled-waste counters for every live state — MIGRATING included."""

    def _migrating_engine(self, model):
        engine = ServingEngine(
            model, METHODS["turbo_mixed"], EngineConfig(prefill_only=True)
        )
        engine.submit(Request(0, 0.0, 512, 32))
        while not engine.migrating:
            engine.step()
        return engine

    def test_cancel_charges_migrating_prefill(self, model):
        engine = self._migrating_engine(model)
        rec = engine.records[0]
        assert rec.status is RequestStatus.MIGRATING and rec.prefilled == 512
        assert engine.cancel(0) is rec
        assert engine.cancelled_wasted_prefill_tokens == 512
        assert not engine.migrating and not engine.records

    def test_evict_charges_migrating_prefill(self, model):
        engine = self._migrating_engine(model)
        evicted = engine.evict_unfinished()
        assert [rec.request.request_id for rec in evicted] == [0]
        assert engine.cancelled_wasted_prefill_tokens == 512
        assert not engine.migrating and not engine.records

    def test_evict_charges_running_and_queued(self, model):
        engine = ServingEngine(model, METHODS["turbo_mixed"], EngineConfig())
        engine.submit(Request(0, 0.0, 512, 32))
        engine.submit(Request(1, 0.0, 512, 32))
        while engine.records[0].generated < 3:
            engine.step()
        processed = sum(
            rec.prefilled + rec.generated for rec in engine.records.values()
        )
        engine.evict_unfinished()
        assert (
            engine.cancelled_wasted_prefill_tokens
            + engine.cancelled_wasted_decode_tokens
            == processed
        )


class TestPreemption:
    """OOM-driven preemption: victim selection, requeue-at-front, and
    self-preemption when no other victim exists.

    Uses a tiny geometry so the block arithmetic is exact: 16 bytes/token
    at FP16 (ideal accounting), 4-token blocks = 64 bytes/block.
    """

    @pytest.fixture()
    def tiny(self):
        return ModelGeometry(
            n_layers=1, n_heads=1, n_kv_heads=1, head_dim=4,
            d_ff=16, vocab_size=32,
        )

    def _config(self, blocks, **kw):
        return EngineConfig(
            kv_budget_bytes=blocks * 64.0,
            block_tokens=4,
            paper_harness_memory=False,
            **kw,
        )

    def test_victim_is_most_recent_admission(self, tiny):
        """When an older request's growth OOMs, the youngest running
        request is the victim — not the one that needed the block."""
        reqs = [
            Request(0, 0.0, prompt_len=16, gen_len=16),  # grows to 8 blocks
            Request(1, 0.0, prompt_len=15, gen_len=8),
        ]
        # 8 blocks: both prompts admit (4+4); r0's first generated token
        # needs a 5th block with none free -> OOM -> r1 (youngest) evicted.
        engine = ServingEngine(tiny, METHODS["fp16"], self._config(blocks=8))
        metrics = engine.run(reqs)
        assert metrics.completed == 2
        assert metrics.preemptions >= 1
        assert engine.records[1].preemptions >= 1
        assert engine.records[0].preemptions == 0

    def test_victim_requeues_at_front(self, tiny):
        """A preempted request re-enters service before queued newcomers."""
        reqs = [
            Request(0, 0.0, prompt_len=16, gen_len=16),
            Request(1, 0.0, prompt_len=15, gen_len=8),
            Request(2, 0.0, prompt_len=17, gen_len=1),  # 5 blocks, queued
        ]
        engine = ServingEngine(
            tiny, METHODS["fp16"], self._config(blocks=8, max_batch=2)
        )
        metrics = engine.run(reqs)
        assert metrics.completed == 3
        assert engine.records[1].preemptions >= 1
        # r1's re-admission beat r2's first admission despite r2 waiting
        # (FCFS alone would have started r2, which fits first, earlier).
        assert engine.records[1].admitted_at < engine.records[2].admitted_at

    def test_self_preemption_when_no_other_victim(self, tiny):
        """A lone request that outgrows the device preempts itself; with a
        static budget that recurs forever and trips the livelock guard."""
        reqs = [Request(0, 0.0, prompt_len=16, gen_len=16)]  # needs 8 blocks
        engine = ServingEngine(
            tiny, METHODS["fp16"], self._config(blocks=6, max_iterations=500)
        )
        with pytest.raises(RuntimeError, match="iteration limit"):
            engine.run(reqs)
        assert engine.records[0].preemptions >= 1
        assert engine.records[0].status is not RequestStatus.FINISHED

    def test_younger_request_never_preempts_an_older_one(self, tiny):
        """When the youngest request's growth OOMs, it preempts itself:
        a request may only preempt requests admitted after it."""
        reqs = [
            Request(0, 0.0, prompt_len=13, gen_len=8),
            Request(1, 0.0, prompt_len=15, gen_len=8),
        ]
        # 8 blocks: both prompts admit (4+4); r1's first generated token
        # needs a 5th block with none free -> OOM -> r1 preempts itself.
        engine = ServingEngine(tiny, METHODS["fp16"], self._config(blocks=8))
        metrics = engine.run(reqs)
        assert metrics.completed == 2
        assert engine.records[0].preemptions == 0
        assert engine.records[1].preemptions >= 1

    def test_two_requests_that_cannot_fit_together_finish(self, tiny):
        """Two requests whose peaks exceed the device together must not
        evict each other forever: the older one runs to completion."""
        reqs = [
            Request(0, 0.0, prompt_len=13, gen_len=16),  # peaks at 8 blocks
            Request(1, 0.0, prompt_len=15, gen_len=16),  # peaks at 8 blocks
        ]
        engine = ServingEngine(
            tiny, METHODS["fp16"], self._config(blocks=10, max_iterations=5000)
        )
        metrics = engine.run(reqs)
        assert metrics.completed == 2
        assert engine.records[0].preemptions == 0
        assert engine.records[1].preemptions >= 1

    def test_preempted_request_restarts_cleanly(self, tiny):
        """Recompute semantics: a preempted request re-prefills from
        scratch and still produces its full generation."""
        reqs = [
            Request(0, 0.0, prompt_len=16, gen_len=16),
            Request(1, 0.0, prompt_len=15, gen_len=8),
        ]
        engine = ServingEngine(tiny, METHODS["fp16"], self._config(blocks=8))
        metrics = engine.run(reqs)
        rec = engine.records[1]
        assert rec.preemptions >= 1
        assert rec.status is RequestStatus.FINISHED
        assert rec.generated == 8 and rec.prefilled == 15
        assert metrics.output_tokens == 24


@pytest.mark.usefixtures("running_slots_checked")
class TestPreemptionKeepsRunningSlots(TestPreemption):
    """``TestPreemption``'s tight budgets again, with the running batch's
    slot arrays checked against a fresh gather after every engine step."""


class TestRunningBatch:
    def test_reads_like_a_list(self, model):
        columns = RequestColumns()
        allocator = PagedKVAllocator(model, METHODS["turbo4"], budget_bytes=2**34)
        records = {}
        for rid in (5, 3, 9, 1):
            records[rid] = RequestRecord(Request(rid, 0.0, 16, 4))
            columns.bind(records[rid])
        for rid in (1, 9, 3, 5):  # allocator slots in another order
            allocator.grow(rid, 16)
        batch, mirror = RunningBatch(records, allocator), []
        for op, rid in (
            ("append", 5), ("append", 3), ("append", 9), ("remove", 3),
            ("append", 1), ("append", 3), ("remove", 5),
        ):
            held = batch.slots()
            before = [a.copy() for a in held]
            getattr(batch, op)(rid)
            getattr(mirror, op)(rid)
            # Arrays handed out earlier are snapshots, never modified.
            assert all(np.array_equal(a, b) for a, b in zip(held, before))
            assert len(batch) == len(mirror) and bool(batch) == bool(mirror)
            assert list(batch) == mirror and batch.ids == mirror
            assert list(reversed(batch)) == mirror[::-1]
            assert [r in batch for r in (1, 3, 5, 9, 7)] == [
                r in mirror for r in (1, 3, 5, 9, 7)
            ]
            col_slots, alloc_slots = batch.slots()
            assert col_slots.dtype == alloc_slots.dtype == np.int64
            assert col_slots.tolist() == [records[r]._slot for r in mirror]
            assert alloc_slots.tolist() == [allocator.slot_of(r) for r in mirror]
            # Rebuilt only after a mutation.
            assert batch.slots() is batch.slots()
        batch.clear()
        assert len(batch) == 0 and not batch and list(batch) == []
        assert [a.size for a in batch.slots()] == [0, 0]


class TestChunkedPrefill:
    def _workload(self):
        return poisson_workload(
            30, arrival_rate=5.0, prompt_range=(2048, 6144),
            gen_range=(64, 192), rng=np.random.default_rng(4),
        )

    def test_all_complete_with_chunking(self, model):
        cfg = EngineConfig(prefill_chunk=512)
        metrics = ServingEngine(model, METHODS["turbo_mixed"], cfg).run(self._workload())
        assert metrics.completed == 30

    def test_chunking_cuts_decode_stalls(self, model):
        """Interleaving prefill chunks with decode lowers the p95 time per
        output token (no head-of-line blocking behind long prompts)."""
        reqs = self._workload()
        plain = ServingEngine(
            model, METHODS["turbo_mixed"], EngineConfig(prefill_chunk=None)
        ).run(reqs)
        chunked = ServingEngine(
            model, METHODS["turbo_mixed"], EngineConfig(prefill_chunk=512)
        ).run(reqs)
        assert chunked.p95_tpot < plain.p95_tpot
        # Throughput cost of chunking stays modest.
        assert chunked.throughput_tokens_per_s > 0.7 * plain.throughput_tokens_per_s

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_below_one_is_rejected(self, chunk):
        with pytest.raises(ValueError, match="prefill_chunk"):
            EngineConfig(prefill_chunk=chunk)

    def test_tiny_chunks_still_terminate(self, model):
        cfg = EngineConfig(prefill_chunk=64)
        reqs = poisson_workload(5, arrival_rate=3.0, rng=np.random.default_rng(1))
        metrics = ServingEngine(model, METHODS["turbo_mixed"], cfg).run(reqs)
        assert metrics.completed == 5

    def test_prefilling_request_defers_first_token(self, model):
        """Under chunking, TTFT reflects the chunk pipeline: a single huge
        prompt takes several iterations before its first token."""
        from repro.serving.request import Request

        reqs = [Request(0, 0.0, prompt_len=4096, gen_len=4)]
        plain = ServingEngine(
            model, METHODS["turbo_mixed"], EngineConfig(prefill_chunk=None)
        ).run(reqs)
        chunked = ServingEngine(
            model, METHODS["turbo_mixed"], EngineConfig(prefill_chunk=256)
        ).run(reqs)
        assert plain.completed == chunked.completed == 1
        # Same order of magnitude; chunking never loses tokens.
        assert chunked.output_tokens == plain.output_tokens


class TestServingMetricsPercentiles:
    """Percentile and counter extensions added with the overload stack."""

    def _run(self, model, slo=None):
        from repro.serving.metrics import SLO

        cfg = EngineConfig(slo=slo) if slo else EngineConfig()
        engine = ServingEngine(model, METHODS["turbo4"], cfg)
        wl = poisson_workload(40, arrival_rate=8.0, rng=np.random.default_rng(6))
        return engine.run(wl)

    def test_latency_percentiles_are_ordered(self, model):
        m = self._run(model)
        assert m.p50_ttft <= m.p95_ttft <= m.p99_ttft
        assert m.p50_tpot <= m.p95_tpot <= m.p99_tpot
        assert m.p50_queue_delay <= m.p95_queue_delay <= m.p99_queue_delay
        assert m.p50_queue_delay >= 0.0

    def test_as_dict_exposes_overload_counters(self, model):
        d = self._run(model).as_dict()
        for key in (
            "rejected", "shed", "failed", "brownout_tokens", "mean_kv_bits",
            "p50_ttft_s", "p99_ttft_s", "p50_queue_delay_s",
            "p99_queue_delay_s", "goodput_rps", "slo_attainment",
        ):
            assert key in d
        assert d["rejected"] == 0 and d["shed"] == 0
        # Without an SLO the goodput fields are None, not NaN, so the
        # dict is JSON-clean and comparable with ``==``.
        assert d["goodput_rps"] is None and d["slo_attainment"] is None

    def test_goodput_with_slo(self, model):
        from repro.serving.metrics import SLO

        m = self._run(model, slo=SLO(ttft_s=1e6, tpot_s=1e6))
        assert m.slo_attainment == 1.0  # infinitely loose deadline
        assert m.goodput_rps == pytest.approx(m.completed / m.makespan)

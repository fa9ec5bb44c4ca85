"""One cost model, evaluated on scalars or arrays.

``decode_step_latency_batch`` is ``tp_step_latency`` called with an array
``kv_len``; nothing re-derives the formulas.  These tests pin what the
serving engine's decode pricing relies on: every lane of the array call
is bit-identical to the scalar call, every lane of an engine's decode
price tables is the scalar call's float, decode is priced only through
those tables, and a bulk-advanced engine is indistinguishable from one
that takes every step on its own.  Within a step, growing the decode
batch with one allocator commit ends in the same state as the scalar
per-request loop.
"""

from collections import Counter

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.overload import BrownoutConfig
from repro.perf.attention_costs import METHODS, AttentionGeometry
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, H100_80GB
from repro.perf.tp import decode_step_latency_batch, tp_step_latency
from repro.prefix import PrefixCacheConfig
from repro.serving import (
    EngineConfig,
    PagedKVAllocator,
    ServingEngine,
    poisson_workload,
    zipf_shared_workload,
)
from repro.sim import ListTraceSink, trace_digest

MODELS = {
    "phi3_medium": ModelGeometry.phi3_medium(),
    "7b": ModelGeometry(
        n_layers=32, n_heads=32, n_kv_heads=8, head_dim=128, d_ff=11008, vocab_size=32000
    ),
}
#: Short and long contexts, powers of two and their neighbours.
KV_LENS = np.unique(
    np.concatenate(
        [np.arange(1, 9), [127, 128, 129, 1000, 4095, 4096, 4097, 32768, 131071]]
    )
).astype(np.int64)


class TestArrayLanesMatchScalarCalls:
    @pytest.mark.parametrize("gpu", [A100_80GB, H100_80GB], ids=lambda g: g.name)
    @pytest.mark.parametrize("tp", [1, 2, 4, 8])
    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("model", list(MODELS))
    def test_bitwise(self, model, method, tp, gpu):
        geom, spec = MODELS[model], METHODS[method]
        for batch in (1, 3, 16, 64):
            lanes = decode_step_latency_batch(spec, geom, batch, KV_LENS, tp=tp, gpu=gpu)
            scalars = [
                tp_step_latency(spec, geom, batch, 1, int(kv), prefill=False, tp=tp, gpu=gpu)
                for kv in KV_LENS
            ]
            assert lanes.dtype == np.float64
            assert lanes.tolist() == scalars

    def test_scalar_call_returns_python_float(self):
        lat = tp_step_latency(METHODS["turbo4"], MODELS["7b"], 4, 1, 1000, prefill=False)
        assert type(lat) is float

    def test_array_prefill_matches_scalar(self):
        # The array path is not decode-only: causal prefill shapes too.
        spec, geom = METHODS["gear4"], MODELS["phi3_medium"]
        kv = np.array([512, 1024, 2048], dtype=np.int64)
        lanes = tp_step_latency(spec, geom, 1, 512, kv, prefill=True, tp=2)
        assert lanes.tolist() == [
            tp_step_latency(spec, geom, 1, 512, int(k), prefill=True, tp=2) for k in kv
        ]


class TestArrayGeometryValidation:
    def test_zero_entry_raises(self):
        with pytest.raises(ValueError, match="positive"):
            AttentionGeometry(
                batch=1, n_heads=8, n_kv_heads=2, head_dim=64, q_len=1,
                kv_len=np.array([3, 0, 5], dtype=np.int64),
            )

    def test_batch_call_rejects_zero_context(self):
        with pytest.raises(ValueError, match="positive"):
            decode_step_latency_batch(METHODS["fp16"], MODELS["7b"], 2, [4, 0, 9])

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=np.int64)], ids=["list", "array"])
    def test_batch_call_prices_empty_input(self, empty):
        lanes = decode_step_latency_batch(METHODS["fp16"], MODELS["7b"], 2, empty)
        assert lanes.dtype == np.float64 and lanes.shape == (0,)

    @pytest.mark.parametrize("kv_lens", [[1.5, 2.5], [4.0, np.nan], np.array([7.25])])
    def test_batch_call_rejects_non_integral_context(self, kv_lens):
        with pytest.raises(ValueError, match="integral"):
            decode_step_latency_batch(METHODS["fp16"], MODELS["7b"], 2, kv_lens)

    def test_batch_call_accepts_integral_floats(self):
        spec, geom = METHODS["turbo4"], MODELS["7b"]
        lanes = decode_step_latency_batch(spec, geom, 2, [3.0, 64.0])
        assert lanes.tolist() == decode_step_latency_batch(spec, geom, 2, [3, 64]).tolist()

    def test_negative_scalar_still_raises(self):
        with pytest.raises(ValueError, match="positive"):
            AttentionGeometry(batch=1, n_heads=8, n_kv_heads=2, head_dim=64, q_len=1, kv_len=-1)


#: The mean width of a brownout batch at 2.3, 3.3 and 4.3 bits, folded
#: left to right as ``ServingEngine.step`` folds it.
BROWNOUT_WIDTH = float(np.add.accumulate(np.array([2.3, 3.3, 4.3]))[-1]) / 3


class TestDecodePriceTable:
    """Every lane of ``ServingEngine``'s decode price tables is the scalar
    cost model's float.  ``step`` and ``decode_steps`` both read the
    tables, so ``TestBulkDecodeMatchesScalarSteps`` alone would compare
    them with themselves."""

    #: Per width: ``(kv_lo, kv_hi)`` lookups in order, each with the
    #: window ``[base, end)`` it leaves.  The method's width opens a
    #: window mid-range, extends it right across 128, then left down to
    #: context 1; the brownout width starts one at context 1 and extends
    #: it across 64.
    LOOKUPS = {
        "method": (((70, 70), (64, 128)), ((120, 140), (64, 192)), ((5, 9), (1, 192))),
        "brownout": (((1, 1), (1, 64)), ((60, 70), (1, 128))),
    }

    @pytest.mark.parametrize("gpu", [A100_80GB, H100_80GB], ids=lambda g: g.name)
    @pytest.mark.parametrize("tp", [1, 2, 4])
    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("model", list(MODELS))
    def test_lanes_equal_scalar_calls(self, model, method, tp, gpu):
        geom, spec = MODELS[model], METHODS[method]
        engine = ServingEngine(geom, spec, EngineConfig(tp=tp), gpu=gpu)
        widths = {"method": spec.kv_bits, "brownout": BROWNOUT_WIDTH}
        for batch in (1, 7, 64):
            for label, lookups in self.LOOKUPS.items():
                width = widths[label]
                scalar = {
                    kv: tp_step_latency(
                        spec.with_bits(width), geom, batch, 1, kv,
                        prefill=False, tp=tp, gpu=gpu,
                    )
                    for kv in range(1, lookups[-1][1][1])
                }
                for (kv_lo, kv_hi), window in lookups:
                    base, prices = engine._decode_prices(width, batch, kv_lo, kv_hi)
                    assert (base, base + len(prices)) == window
                    assert prices.dtype == np.float64
                    assert [prices[kv - base] for kv in range(kv_lo, kv_hi + 1)] == [
                        scalar[kv] for kv in range(kv_lo, kv_hi + 1)
                    ]
                assert prices.tolist() == [scalar[kv] for kv in range(*window)]
            # An unassigned width prices at the method's own.
            assert engine._decode_prices(None, batch, 100, 100)[1] is (
                engine._decode_prices(spec.kv_bits, batch, 100, 100)[1]
            )


class TestDecodePricing:
    def test_decode_is_priced_once_per_lane_and_only_by_the_tables(self, monkeypatch):
        """One replica's share of ``chat_fleet``: the scalar cost model
        prices prefill only, and no (width, batch, context) decode lane
        is priced twice."""
        prefill_flags = []
        lanes = Counter()
        real_scalar = engine_module.tp_step_latency
        real_batch = engine_module.decode_step_latency_batch

        def scalar(*args, prefill, **kwargs):
            prefill_flags.append(prefill)
            return real_scalar(*args, prefill=prefill, **kwargs)

        def batch_call(method, model, batch, kv_lens, **kwargs):
            lanes.update((method.kv_bits, batch, int(kv)) for kv in kv_lens)
            return real_batch(method, model, batch, kv_lens, **kwargs)

        monkeypatch.setattr(engine_module, "tp_step_latency", scalar)
        monkeypatch.setattr(engine_module, "decode_step_latency_batch", batch_call)
        requests = poisson_workload(
            1000, 11.0, (512, 1536), (64, 256), rng=np.random.default_rng(0),
            n_sessions=64,
        )
        engine = ServingEngine(MODELS["7b"], METHODS["turbo_mixed"])
        metrics = engine.run(requests)

        assert metrics.completed == 1000
        assert prefill_flags and all(prefill_flags)
        assert lanes and max(lanes.values()) == 1


def _engine_run(method, tp):
    """Seeded closed-loop run in the long-decode regime bulk decode targets.

    Returns ``(engine, metrics, trace records, bulk steps taken)``.
    """
    requests = poisson_workload(
        24, arrival_rate=2.0, prompt_range=(128, 1024), gen_range=(96, 320),
        rng=np.random.default_rng(31), n_sessions=8,
    )
    sink = ListTraceSink()
    engine = ServingEngine(MODELS["7b"], METHODS[method], EngineConfig(tp=tp), trace=sink)
    bulk = []
    real = engine.decode_steps

    def counting(t_limit=None):
        k = real(t_limit)
        bulk.append(k)
        return k

    engine.decode_steps = counting
    metrics = engine.run(requests)
    return engine, metrics, sink.records, sum(bulk)


class TestBulkDecodeMatchesScalarSteps:
    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("method", ["fp16", "turbo4", "gear4"])
    def test_records_clock_and_trace_identical(self, method, tp, monkeypatch):
        bulk_engine, bulk_metrics, bulk_trace, bulk_steps = _engine_run(method, tp)
        # Without the bulk path every iteration is a scalar ``step``.
        monkeypatch.setattr(ServingEngine, "decode_steps", lambda self, t_limit=None: 0)
        loop_engine, loop_metrics, loop_trace, loop_steps = _engine_run(method, tp)

        assert bulk_steps > 0, "workload never took the bulk path"
        assert loop_steps == 0
        assert bulk_engine.clock == loop_engine.clock
        assert bulk_engine.iterations == loop_engine.iterations
        assert bulk_engine.records == loop_engine.records
        assert bulk_metrics == loop_metrics
        assert trace_digest(bulk_trace) == trace_digest(loop_trace)


PHI3 = ModelGeometry.phi3_medium()
#: Bytes of one turbo4 Phi3-medium cache block (64 tokens), to size
#: budgets in blocks.
BLOCK_BYTES = (
    PagedKVAllocator(PHI3, METHODS["turbo4"], budget_bytes=2**40).bytes_per_token * 64
)
POOL = PrefixCacheConfig()

#: ``id -> (EngineConfig kwargs, zipf_shared_workload kwargs)``.  Tight
#: budgets make commits fail, so the scalar loop evicts warm cache and
#: preempts; ``pool-tight`` livelocked under the old preemption rule.
COMMIT_CASES = {
    "pool-replays": (
        dict(prefix=POOL), dict(n=100, seed=7, suffix=(0, 0), gen=(1, 8))
    ),
    "pool-mixed": (dict(prefix=POOL), dict(n=100, seed=7)),
    "pool-tight": (
        dict(prefix=POOL, kv_budget_bytes=32 * BLOCK_BYTES),
        dict(n=30, seed=3, suffix=(0, 128), gen=(64, 256), tenants=20),
    ),
    "private-tight": (
        dict(kv_budget_bytes=60 * BLOCK_BYTES), dict(n=100, seed=7, suffix=(0, 0))
    ),
    "pool-brownout": (
        dict(
            prefix=POOL, kv_budget_bytes=150 * BLOCK_BYTES,
            brownout=BrownoutConfig(delay_scale_s=0.5, cooldown_s=0.5),
        ),
        dict(n=100, seed=7, suffix=(0, 0)),
    ),
    "pool-chunked": (
        dict(prefix=POOL, kv_budget_bytes=150 * BLOCK_BYTES, prefill_chunk=128),
        dict(n=100, seed=7, suffix=(0, 0)),
    ),
    "pool-tp2": (
        dict(prefix=POOL, kv_budget_bytes=2 * 60 * BLOCK_BYTES, tp=2),
        dict(n=100, seed=7, suffix=(0, 0)),
    ),
    "prefill-only-local": (
        dict(prefix=POOL, kv_budget_bytes=60 * BLOCK_BYTES, prefill_only=True),
        dict(n=60, seed=2, suffix=(0, 32), gen=(1, 48), tenants=20),
    ),
}


def _zipf(n, seed, suffix=(0, 96), gen=(1, 64), tenants=30):
    return zipf_shared_workload(
        n, arrival_rate=30.0, n_tenants=tenants, zipf_s=1.5,
        suffix_len_range=suffix, gen_range=gen, rng=np.random.default_rng(seed),
    )


def _drive_prefill_only(engine, requests):
    """Open-loop prefill-pool run: odd request ids fall back to local
    decode on this engine, even ones migrate out."""
    engine.start()
    for request in requests:
        engine.submit(request)
    while engine.busy:
        engine.step()
        for rec in engine.take_handoffs():
            rid = rec.request.request_id
            if rid % 2:
                engine.resume_local_decode(rid)
            else:
                engine.release_migrated(rid)
    return engine.summarize()


def _commit_run(case):
    config_kw, workload_kw = COMMIT_CASES[case]
    sink = ListTraceSink()
    engine = ServingEngine(
        PHI3, METHODS["turbo4"], EngineConfig(max_iterations=50_000, **config_kw),
        trace=sink,
    )
    requests = _zipf(**workload_kw)
    if engine.config.prefill_only:
        metrics = _drive_prefill_only(engine, requests)
    else:
        metrics = engine.run(requests)
    return engine, metrics, trace_digest(sink.records)


class TestBatchedCommitMatchesScalarLoop:
    """The batched ``decode_commit`` path of ``ServingEngine.step`` —
    prefix pools, copy-on-write and prefill pools included — leaves
    exactly the state of the scalar per-request loop it replaces.  The
    reference run patches ``decode_commit`` to refuse, which by its
    contract mutates nothing and hands every step to the scalar loop."""

    @pytest.mark.parametrize("case", list(COMMIT_CASES))
    def test_identical_to_forced_scalar_loop(self, case, monkeypatch):
        real = PagedKVAllocator.decode_commit
        commits = []

        def counting(self, *args):
            ok = real(self, *args)
            commits.append(ok)
            return ok

        monkeypatch.setattr(PagedKVAllocator, "decode_commit", counting)
        batched, batched_metrics, batched_digest = _commit_run(case)
        monkeypatch.setattr(
            PagedKVAllocator, "decode_commit", lambda self, *args: False
        )
        scalar, scalar_metrics, scalar_digest = _commit_run(case)

        assert any(commits), "no step took the batched commit"
        assert batched.clock == scalar.clock
        assert batched.iterations == scalar.iterations
        assert batched.records == scalar.records
        assert batched_metrics == scalar_metrics
        assert batched_digest == scalar_digest
        assert batched.allocator.free_blocks == scalar.allocator.free_blocks
        assert batched.allocator.shared_blocks == scalar.allocator.shared_blocks
        assert batched.allocator._allocs == scalar.allocator._allocs
        pool, ref = batched.prefix_pool, scalar.prefix_pool
        if pool is not None:
            assert pool.refcount_snapshot() == ref.refcount_snapshot()
            for counter in ("cow_copies", "evicted_blocks", "hits_tokens"):
                assert getattr(pool, counter) == getattr(ref, counter)
            assert pool.check_invariants() == []

        if case == "pool-replays":
            # Every step committed in batch, so every copy-on-write ran
            # inside a commit — single-token replays included, which
            # copy their tail and finish in the same step.
            assert all(commits)
            assert any(
                r.request.gen_len == 1 and r.cow_copies == 1
                for r in batched.records.values()
            )
        if case.endswith("-tight"):
            assert not all(commits), "the tight budget never failed a commit"
            assert batched_metrics.preemptions > 0
            if pool is not None:
                assert pool.evicted_blocks > 0
        if case == "pool-brownout":
            assert any(
                r.kv_bits is not None and r.kv_bits < METHODS["turbo4"].kv_bits
                for r in batched.records.values()
            ), "brownout never narrowed an admission"
        if case == "prefill-only-local":
            assert any(r.local_decode for r in batched.records.values())


def _drive_local_fallbacks(engine, requests):
    """Prefill-pool run where every handoff falls back to local decode,
    advancing in bulk wherever ``decode_steps`` takes a stretch."""
    engine.start()
    for request in requests:
        engine.submit(request)
    while engine.busy:
        if engine.decode_steps() == 0:
            engine.step()
        for rec in engine.take_handoffs():
            engine.resume_local_decode(rec.request.request_id)
    return engine.summarize()


def _bulk_case_run(case):
    requests = poisson_workload(
        40, arrival_rate=4.0, prompt_range=(128, 1024), gen_range=(96, 320),
        rng=np.random.default_rng(31), n_sessions=8,
    )
    config = {
        "shed-high-water": EngineConfig(
            shed_high_water=0.8, kv_budget_bytes=100 * BLOCK_BYTES
        ),
        "prefill-only-local": EngineConfig(prefill_only=True),
    }[case]
    sink = ListTraceSink()
    engine = ServingEngine(PHI3, METHODS["turbo4"], config, trace=sink)
    bulk = []
    real = engine.decode_steps

    def counting(t_limit=None):
        k = real(t_limit)
        bulk.append(k)
        return k

    engine.decode_steps = counting
    if config.prefill_only:
        metrics = _drive_local_fallbacks(engine, requests)
    else:
        metrics = engine.run(requests)
    return engine, metrics, trace_digest(sink.records), sum(bulk)


class TestBulkDecodeUnderSheddingAndPrefillPools:
    """High-water shedding and a prefill-only engine leave a decode
    stretch to ``decode_steps``: with nothing queued there is nothing to
    shed, and a prefill pool's running batch holds only local-decode
    fallbacks between steps.  Each bulk run ends exactly where advancing
    one ``step`` at a time does."""

    @pytest.mark.parametrize("case", ["shed-high-water", "prefill-only-local"])
    def test_identical_to_per_step_advancing(self, case, monkeypatch):
        bulk, bulk_metrics, bulk_digest, bulk_steps = _bulk_case_run(case)
        monkeypatch.setattr(ServingEngine, "decode_steps", lambda self, t_limit=None: 0)
        loop, loop_metrics, loop_digest, loop_steps = _bulk_case_run(case)

        assert bulk_steps > 0, "no bulk stretch was taken"
        assert loop_steps == 0
        assert bulk.clock == loop.clock
        assert bulk.iterations == loop.iterations
        assert bulk.records == loop.records
        assert bulk_metrics == loop_metrics
        assert bulk_digest == loop_digest
        assert bulk.allocator.free_blocks == loop.allocator.free_blocks
        assert bulk.allocator._allocs == loop.allocator._allocs
        if case == "shed-high-water":
            assert bulk.high_water_sheds == loop.high_water_sheds > 0
        else:
            assert all(r.local_decode for r in bulk.records.values())

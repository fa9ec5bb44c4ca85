"""One cost model, evaluated on scalars or arrays.

``decode_step_latency_batch`` is ``tp_step_latency`` called with an array
``kv_len``; nothing re-derives the formulas.  These tests pin what the
serving engine's decode pricing relies on: every lane of the array call
is bit-identical to the scalar call, every lane of an engine's decode
price tables is the scalar call's float, decode is priced only through
those tables, and a bulk-advanced engine (chunked prefill, prefix pools
and stretches continued across cuts included) is indistinguishable from
one that takes every step on its own.  Within a step, growing the decode
batch with one allocator commit ends in the same state as the scalar
per-request loop.
"""

from collections import Counter, deque

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.overload import BrownoutConfig
from repro.perf.attention_costs import METHODS, AttentionGeometry
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, H100_80GB
from repro.perf.tp import decode_step_latency_batch, tp_step_latency
from repro.prefix import PrefixCacheConfig, PrefixPool
from repro.serving import (
    EngineConfig,
    PagedKVAllocator,
    Request,
    ServingEngine,
    poisson_workload,
    zipf_shared_workload,
)
from repro.serving.request import RequestRecord, RequestStatus
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


def _advance(engine, t_limit):
    """Advance as a fleet driver does up to ``t_limit`` (None: until
    idle): a bulk stretch wherever ``decode_steps`` takes one, else one
    ``step``."""
    while engine.busy and (t_limit is None or engine.clock < t_limit):
        if engine.decode_steps(t_limit) == 0:
            engine.step()


#: Spacing of the close ``t_limit`` cuts: about one step's price here,
#: so most cuts fall inside a stretch and the next call continues it.
CUT_S = 0.03


def _drive_cuts(engine, requests, restored=(), change=None, cut_s=CUT_S):
    """Open-loop run cut every ``cut_s`` seconds of engine time, as fleet
    events cut an engine's stretches (None: only at arrivals).

    Warm-restores ``restored`` first, submits each request at the first
    cut at or after its arrival, and calls ``change(engine, cut, held)``
    at each cut, where ``held`` lists the prefill pool's handoffs, kept
    pinned until ``change`` resumes them as local decodes.  Returns the
    ``(clock, iterations, free blocks, shared blocks)`` at each cut."""
    engine.start()
    for record in restored:
        assert engine.restore_record(record)
    pending, held, cuts = deque(requests), [], []
    while pending or held or engine.busy:
        while pending and pending[0].arrival_time <= engine.clock:
            engine.submit(pending.popleft())
        if cut_s is not None:
            limit = engine.clock + cut_s
        else:
            limit = pending[0].arrival_time if pending else None
        _advance(engine, limit)
        held += [rec.request.request_id for rec in engine.take_handoffs()]
        if limit is not None and (pending or held):
            engine.advance_to(limit)  # idle until the next event
        if change is not None:
            change(engine, len(cuts) + 1, held)
        alloc = engine.allocator
        cuts.append(
            (engine.clock, engine.iterations, alloc.free_blocks, alloc.shared_blocks)
        )
    return cuts


def _drive_local_fallbacks(engine, requests, restored=()):
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
    return []


def _drive_closed_loop(engine, requests, restored=()):
    engine.run(requests)
    return []


def _poisson(prompt_range):
    return poisson_workload(
        40, arrival_rate=4.0, prompt_range=prompt_range, gen_range=(96, 320),
        rng=np.random.default_rng(31), n_sessions=8,
    )


def _restored_mid_prefill():
    """Warm-restarted requests caught mid-prefill: 1,000 of 3,000 prompt
    tokens in (not a multiple of the 256-token chunk, so the last chunk
    is short), and 512 of 2,560 (whole chunks to go)."""
    restored = []
    for rid, prompt_len, prefilled in ((1000, 3000, 1000), (1001, 2560, 512)):
        record = RequestRecord(Request(rid, 0.0, prompt_len=prompt_len, gen_len=200))
        record.prefilled = prefilled
        restored.append(record)
    return restored


def _cold_prefix_then_long_prompt():
    """A one-token request leaves its 16-block prefix cached and cold;
    a later 1,600-token prompt then fills a 40-block budget, past the
    pool's 0.9 eviction mark, and prefills with no decoder beside it."""
    return [
        Request(
            0, 0.0, prompt_len=1024, gen_len=1, prefix_id=1, shared_prefix_len=1024
        ),
        Request(1, 1.0, prompt_len=1600, gen_len=4),
    ]


#: ``id -> () -> (EngineConfig, requests, restored records, driver)``;
#: a driver returns the engine's state at each cut (none for uncut ones).
BULK_CASES = {
    "shed-high-water": lambda: (
        EngineConfig(shed_high_water=0.8, kv_budget_bytes=100 * BLOCK_BYTES),
        _poisson((128, 1024)), [], _drive_closed_loop,
    ),
    "prefill-only-local": lambda: (
        EngineConfig(prefill_only=True), _poisson((128, 1024)), [],
        _drive_local_fallbacks,
    ),
    "prefill-only-chunked": lambda: (
        EngineConfig(prefill_only=True, prefill_chunk=256),
        _poisson((2048, 6144)), [], _drive_local_fallbacks,
    ),
    "unified-chunked": lambda: (
        EngineConfig(prefill_chunk=256), _poisson((512, 4096)),
        _restored_mid_prefill(), _drive_cuts,
    ),
    "pool-room": lambda: (
        EngineConfig(prefix=POOL), _zipf(60, 7, gen=(64, 256)), [], _drive_cuts,
    ),
    "pool-tight": lambda: (
        EngineConfig(prefix=POOL, kv_budget_bytes=150 * BLOCK_BYTES),
        _zipf(100, 7, gen=(16, 128)), [], _drive_cuts,
    ),
    "pool-chunked-head": lambda: (
        EngineConfig(prefix=POOL, kv_budget_bytes=40 * BLOCK_BYTES, prefill_chunk=128),
        _cold_prefix_then_long_prompt(), [], _drive_cuts,
    ),
}


def _bulk_case_run(case):
    """Run one case; returns ``(engine, metrics, trace digest, state at
    each cut, stretches)``, where each bulk call that advanced appends
    ``(ids of the PREFILLING members, number of RUNNING members)`` as
    they stood before it."""
    config, requests, restored, drive = BULK_CASES[case]()
    sink = ListTraceSink()
    engine = ServingEngine(PHI3, METHODS["turbo4"], config, trace=sink)
    stretches = []
    real = engine.decode_steps

    def counting(t_limit=None):
        status = {rid: engine.records[rid].status for rid in engine.running}
        k = real(t_limit)
        if k:
            stretches.append((
                [r for r, s in status.items() if s is RequestStatus.PREFILLING],
                sum(s is RequestStatus.RUNNING for s in status.values()),
            ))
        return k

    engine.decode_steps = counting
    cuts = drive(engine, requests, restored)
    return engine, engine.summarize(), trace_digest(sink.records), cuts, stretches


def _assert_same_end(a, b):
    """Two ``(engine, metrics, trace digest, cuts, ...)`` runs ended, and
    passed every cut, in the same state."""
    engine, metrics, digest, cuts = a[:4]
    ref, ref_metrics, ref_digest, ref_cuts = b[:4]
    assert cuts == ref_cuts, "a cut found a different clock or allocator"
    assert engine.clock == ref.clock
    assert engine.iterations == ref.iterations
    assert engine.peak_running == ref.peak_running
    assert engine.records == ref.records
    assert metrics == ref_metrics
    assert digest == ref_digest
    assert engine.allocator.free_blocks == ref.allocator.free_blocks
    assert engine.allocator.shared_blocks == ref.allocator.shared_blocks
    assert engine.allocator._allocs == ref.allocator._allocs
    pool, ref_pool = engine.prefix_pool, ref.prefix_pool
    if pool is not None:
        assert pool.check_invariants() == ref_pool.check_invariants() == []
        assert pool.resident_blocks == ref_pool.resident_blocks
        assert pool.refcount_snapshot() == ref_pool.refcount_snapshot()
        for counter in ("cow_copies", "evicted_blocks", "hits_tokens"):
            assert getattr(pool, counter) == getattr(ref_pool, counter)


class TestBulkDecodeUnderSheddingAndPrefillPools:
    """High-water shedding, prefill pools, chunked prefill and prefix
    pools leave stretches to ``decode_steps``: with nothing queued there
    is nothing to shed, a prefill pool's running batch holds only
    local-decode fallbacks between steps, a prefilling head gains one
    chunk per step while decoders decode beside it, and a pool with
    headroom and no shared decode tail does nothing.  Each bulk run ends,
    and passes every cut, exactly where advancing one ``step`` at a time
    does."""

    @pytest.mark.parametrize("case", list(BULK_CASES))
    def test_identical_to_per_step_advancing(self, case, monkeypatch):
        real_sweep = PrefixPool.evict_under_pressure
        swept = []

        def sweep(pool):
            swept.append(real_sweep(pool))
            return swept[-1]

        monkeypatch.setattr(PrefixPool, "evict_under_pressure", sweep)
        bulk = _bulk_case_run(case)
        bulk_swept, swept[:] = sum(swept), []
        monkeypatch.setattr(ServingEngine, "decode_steps", lambda self, t_limit=None: 0)
        loop = _bulk_case_run(case)

        engine, stretches = bulk[0], bulk[4]
        assert stretches, "no bulk stretch was taken"
        assert loop[4] == []
        _assert_same_end(bulk, loop)
        assert bulk_swept == sum(swept)
        if case == "shed-high-water":
            assert engine.high_water_sheds == loop[0].high_water_sheds > 0
        if case.startswith("prefill-only"):
            assert all(r.local_decode for r in engine.records.values())
        if case.endswith("-chunked"):
            assert any(head and n_dec for head, n_dec in stretches), (
                "no chunk stretch decoded beside a prefilling head"
            )
        if case == "unified-chunked":
            for rid in (1000, 1001):
                assert any(rid in head for head, _n_dec in stretches)
                record = engine.records[rid]
                assert record.prefilled == record.request.prompt_len
        if case in ("pool-tight", "pool-chunked-head"):
            assert bulk_swept > 0, "the eviction sweep never evicted"
        if case == "pool-chunked-head":
            assert any(head and not n_dec for head, n_dec in stretches)


class TestStretchGrowthHeadroom:
    """A prefix-pooled engine's stretch grows its decoders only while
    allocator utilization, ``used_blocks / total_blocks``, ends at or
    under ``evict_pressure``: each growth either lands exactly as
    ``bulk_grow`` would or leaves the allocator untouched."""

    @pytest.mark.parametrize("blocks", [7, 10, 33])
    @pytest.mark.parametrize("pressure", [0.5, 0.9, 1.0])
    def test_growth_stops_at_the_eviction_mark(self, blocks, pressure):
        config = EngineConfig(
            prefix=PrefixCacheConfig(evict_pressure=pressure),
            kv_budget_bytes=blocks * BLOCK_BYTES,
        )
        engine = ServingEngine(PHI3, METHODS["turbo4"], config)
        alloc = engine.allocator
        assert alloc.total_blocks == blocks
        assert alloc.grow(0, 1)
        slot = np.array([alloc.slot_of(0)])
        grown = refused = 0
        for tokens in range(1, 64 * blocks + 65, 16):
            need = alloc.blocks_needed(0, tokens)
            fits = (alloc.used_blocks + need) / blocks <= pressure
            free, allocs = alloc.free_blocks, alloc._allocs
            assert engine._grow_stretch(slot, np.array([tokens])) is fits
            if fits:
                assert alloc.free_blocks == free - need
                assert alloc._allocs[0].tokens == tokens
                grown += need > 0
            else:
                assert (alloc.free_blocks, alloc._allocs) == (free, allocs)
                refused += 1
        assert grown and refused
        # Filled past the mark, a stretch with nothing to grow refuses too.
        assert alloc.grow(1, 64 * alloc.free_blocks)
        empty = np.empty(0, dtype=np.int64)
        assert engine._grow_stretch(empty, empty) is (pressure == 1.0)


class TestResumedStretch:
    """A stretch that a ``t_limit`` cut short is continued by the next
    ``decode_steps`` call from its priced clock trajectory.  Cut at many
    close limits, with the batch's membership, ``time_scale`` or state
    changed between the pieces, an engine ends, and passes every cut,
    exactly as one advanced a ``step`` at a time does."""

    @staticmethod
    def _change(variant, seen):
        """``variant``'s change at a cut, between two pieces of a stretch.
        ``seen`` counts the cuts that left a stretch kept, and the changes
        made while one was."""

        def change(engine, cut, held):
            kept = engine._stretch is not None
            seen["kept"] += kept
            if variant == "stall":
                # A stall, then its end four cuts later: two time_scale
                # changes.
                if cut % 4:
                    return
                engine.time_scale = 2.5 if cut % 8 else 1.0
            elif cut % 5:
                return
            elif variant == "cancel" and len(engine.running) > 1:
                engine.cancel(engine.running.ids[-1])
            elif variant == "resume-local" and held:
                for rid in held:
                    engine.resume_local_decode(rid)
                held.clear()
            elif variant == "submit" and cut < 100:
                engine.submit(
                    Request(100 + cut, engine.clock, prompt_len=700, gen_len=40)
                )
            elif variant == "step" and engine.busy:
                engine.step()
            else:
                return
            seen["changed"] += kept

        return change

    def _run(self, variant, cut_s):
        config = EngineConfig(prefill_chunk=256, prefill_only=variant == "resume-local")
        sink = ListTraceSink()
        engine = ServingEngine(PHI3, METHODS["turbo4"], config, trace=sink)
        # Everything arrives at once: short prompts decode while long
        # ones prefill chunk by chunk behind them.
        requests = [
            Request(r.request_id, 0.0, r.prompt_len, r.gen_len)
            for r in poisson_workload(
                8, arrival_rate=1.0, prompt_range=(512, 3072),
                gen_range=(64, 256), rng=np.random.default_rng(5),
            )
        ]
        seen = Counter()
        cuts = _drive_cuts(
            engine, requests, change=self._change(variant, seen), cut_s=cut_s
        )
        return engine, engine.summarize(), trace_digest(sink.records), cuts, seen

    @pytest.mark.parametrize(
        "variant", ["none", "stall", "cancel", "resume-local", "submit", "step"]
    )
    def test_cut_stretches_end_as_per_step_advancing(self, variant, monkeypatch):
        pieces = self._run(variant, CUT_S)
        if variant == "none":
            uncut = self._run(variant, None)
            assert len(uncut[3]) == 1
            _assert_same_end(pieces[:3] + uncut[3:], uncut)
        monkeypatch.setattr(ServingEngine, "decode_steps", lambda self, t_limit=None: 0)
        loop = self._run(variant, CUT_S)

        _assert_same_end(pieces, loop)
        seen = pieces[4]
        assert len(pieces[3]) > 50
        assert seen["kept"] > 0, "no cut left a stretch to continue"
        if variant != "none":
            assert seen["changed"] > 0, "no change found a cut stretch kept"

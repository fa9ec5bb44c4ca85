"""Prefix KV cache: content addressing, refcounts, COW, tenancy.

Block conservation is the load-bearing property: every allocator block
the pool takes is returned exactly once (release, cancel, or eviction),
refcounts are never negative, and a copy-on-write divergence never
mutates bytes other sharers read.  The tests drive the pool directly,
then through the engine, then through the full cluster stack with
admission, brownout, and fault injection layered on.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, FaultConfig
from repro.overload import AdmissionConfig, BrownoutConfig
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.prefix import (
    PrefixCacheConfig,
    PrefixPool,
    TenantConfig,
    TenantLedger,
    prefix_block_keys,
)
from repro.quant.schemes import dequantize_symmetric, quantize_symmetric
from repro.serving import (
    PagedKVAllocator,
    Request,
    RequestRecord,
    ServingEngine,
    zipf_shared_workload,
)
from repro.serving.engine import EngineConfig
from repro.serving.metrics import SLO


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


METHOD = METHODS["turbo4"]
BT = 64  # block_tokens everywhere in this file


def make_allocator(model, total_blocks=64, block_tokens=BT):
    probe = PagedKVAllocator(model, METHOD, budget_bytes=2**40,
                             block_tokens=block_tokens)
    budget = probe.bytes_per_token * block_tokens * total_blocks * (1 + 1e-9)
    alloc = PagedKVAllocator(model, METHOD, budget_bytes=budget,
                             block_tokens=block_tokens)
    assert alloc.total_blocks == total_blocks
    return alloc


def record(rid, prompt_len, shared_len, prefix_id=1, kv_bits=None,
           priority=0, tenant=0):
    rec = RequestRecord(
        request=Request(
            request_id=rid, arrival_time=0.0, prompt_len=prompt_len,
            gen_len=16, prefix_id=prefix_id, shared_prefix_len=shared_len,
            priority=priority, tenant_id=tenant,
        )
    )
    rec.kv_bits = kv_bits if kv_bits is not None else METHOD.kv_bits
    return rec


class TestBlockKeys:
    def test_deterministic_and_chained(self):
        a = prefix_block_keys(7, 4, BT)
        assert a == prefix_block_keys(7, 4, BT)
        # A longer chain extends the shorter one (hash-chain property).
        assert prefix_block_keys(7, 6, BT)[:4] == a
        # Another stream shares no keys anywhere in the chain.
        assert not set(prefix_block_keys(8, 4, BT)) & set(a)

    def test_tail_key_commits_to_length(self):
        full = prefix_block_keys(3, 2, BT)
        with_tail = prefix_block_keys(3, 2, BT, tail_tokens=10)
        assert with_tail[:2] == full
        assert with_tail[2] != full[1]
        assert with_tail[2] != prefix_block_keys(3, 2, BT, tail_tokens=11)[2]

    def test_block_tokens_changes_every_key(self):
        assert not set(prefix_block_keys(3, 3, 64)) & set(prefix_block_keys(3, 3, 32))

    def test_validation(self):
        with pytest.raises(ValueError):
            prefix_block_keys(1, -1, BT)
        with pytest.raises(ValueError):
            prefix_block_keys(1, 1, BT, tail_tokens=BT)


class TestPoolSharing:
    def test_insert_then_hit(self, model):
        pool = PrefixPool(make_allocator(model))
        a = pool.acquire(record(1, 300, 256), now=0.0)
        assert a.shared_tokens == 256 and a.hit_tokens == 0
        assert a.inserted_blocks == 4 and pool.resident_blocks == 4
        b = pool.acquire(record(2, 400, 256), now=1.0)
        assert b.hit_tokens == 256 and b.inserted_blocks == 0
        assert pool.resident_blocks == 4  # shared, not duplicated
        assert pool.allocator.shared_blocks == 4
        assert pool.check_invariants() == []

    def test_probe_is_readonly(self, model):
        pool = PrefixPool(make_allocator(model))
        assert pool.probe(record(1, 300, 256)) == 0
        pool.acquire(record(1, 300, 256), now=0.0)
        before = {k: b.last_used for k, b in pool._blocks.items()}
        assert pool.probe(record(2, 300, 256)) == 256
        assert {k: b.last_used for k, b in pool._blocks.items()} == before
        assert 2 not in pool._held

    def test_double_acquire_raises(self, model):
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 300, 256), now=0.0)
        with pytest.raises(ValueError):
            pool.acquire(record(1, 300, 256), now=1.0)

    def test_no_prefix_is_a_noop(self, model):
        pool = PrefixPool(make_allocator(model))
        rec = RequestRecord(
            request=Request(request_id=1, arrival_time=0.0, prompt_len=100,
                            gen_len=8)
        )
        assert pool.acquire(rec, now=0.0).shared_tokens == 0
        assert pool.resident_blocks == 0

    def test_release_keeps_blocks_warm(self, model):
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 300, 256), now=0.0)
        pool.release(1)
        assert pool.resident_blocks == 4 and pool.referenced_blocks == 0
        # A later request still hits the warm cache.
        assert pool.acquire(record(2, 300, 256), now=5.0).hit_tokens == 256
        pool.release(99)  # unknown rid: no-op
        assert pool.check_invariants() == []

    def test_kv_bits_width_is_sticky_max(self, model):
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 256, 256, kv_bits=2.3), now=0.0)
        key = pool.held_keys(1)[0]
        assert pool._blocks[key].kv_bits == 2.3
        # Wider joiner re-prefills (upgrade, a miss) and widens the block.
        up = pool.acquire(record(2, 256, 256, kv_bits=4.3), now=1.0)
        assert up.hit_tokens == 0 and up.upgraded_blocks == 4
        assert pool._blocks[key].kv_bits == 4.3
        # A narrower reader now hits for free; width never narrows.
        down = pool.acquire(record(3, 256, 256, kv_bits=2.3), now=2.0)
        assert down.hit_tokens == 256
        assert pool._blocks[key].kv_bits == 4.3


class TestTailAndCOW:
    def test_tail_shared_only_on_exact_prompt(self, model):
        pool = PrefixPool(make_allocator(model))
        # Prompt extends past the shared prefix: the partial block would
        # diverge inside, so only whole blocks are shared.
        a = pool.acquire(record(1, 300, 290), now=0.0)
        assert a.shared_tokens == 256 and a.tail_tokens == 0
        pool.release(1)
        # Prompt == shared prefix: the 34-token tail block is shared too.
        b = pool.acquire(record(2, 290, 290), now=1.0)
        assert b.shared_tokens == 290 and b.tail_tokens == 34

    def test_cow_tail_drops_only_the_tail(self, model):
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 290, 290), now=0.0)
        held = pool.held_keys(1)
        assert len(held) == 5
        pool.cow_tail(1)
        assert pool.held_keys(1) == held[:-1]
        assert pool._blocks[held[-1]].refcount == 0  # warm, unreferenced
        assert pool.cow_copies == 1
        assert pool.cow_tail(1) is None  # idempotent: tail already private
        assert pool.check_invariants() == []

    def test_invariants_flag_a_stale_tail_key(self, model):
        """A tail key left behind after copy-on-write (the block is still
        warm, but no longer the request's last held block) is one named
        problem."""
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 290, 290), now=0.0)
        tail_key = pool.held_keys(1)[-1]
        pool.cow_tail(1)
        assert pool.check_invariants() == []
        pool._tail_key[1] = tail_key
        assert pool.check_invariants() == [
            f"request 1 has stale tail key {tail_key}"
        ]

    def test_cow_preserves_bit_exact_payload(self, model):
        """A sharer's divergence never mutates bytes others read: the
        dequantized stream a second sharer decodes is identical before
        and after the first sharer's copy-on-write."""
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 290, 290), now=0.0)
        pool.acquire(record(2, 290, 290), now=0.0)
        tail_key = pool.held_keys(1)[-1]
        rng = np.random.default_rng(0)
        codes, scale = quantize_symmetric(rng.normal(size=(34, 8)), bits=4)
        pool.attach_payload(tail_key, codes)
        reference = dequantize_symmetric(codes, scale).copy()
        # Request 1 diverges: it gets a private copy and scribbles on it.
        private = pool.cow_tail(1)
        private[:] = -private
        # Request 2 still decodes the original bytes, bit for bit.
        assert np.array_equal(
            dequantize_symmetric(pool.payload(tail_key), scale), reference
        )

    def test_cow_all_returns_private_token_count(self, model):
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 290, 290), now=0.0)
        pool.acquire(record(2, 290, 290), now=0.0)
        assert pool.cow_all(1) == 290
        assert pool.held_keys(1) == ()
        assert pool.cow_copies == 5
        # The other sharer is untouched.
        assert len(pool.held_keys(2)) == 5
        assert pool.check_invariants() == []
        assert pool.cow_all(1) == 0  # nothing left to copy


class TestEviction:
    def test_referenced_blocks_are_never_victims(self, model):
        pool = PrefixPool(make_allocator(model, total_blocks=8))
        pool.acquire(record(1, 256, 256), now=0.0)
        assert pool.evict_to_free(pool.allocator.total_blocks) == 0
        assert pool.resident_blocks == 4

    def test_lru_priority_order(self, model):
        pool = PrefixPool(make_allocator(model))
        pool.acquire(record(1, 128, 128, prefix_id=1, priority=0), now=0.0)
        pool.acquire(record(2, 128, 128, prefix_id=2, priority=5), now=1.0)
        pool.acquire(record(3, 128, 128, prefix_id=3, priority=0), now=2.0)
        for rid in (1, 2, 3):
            pool.release(rid)
        low1 = set(prefix_block_keys(1, 2, BT))
        high = set(prefix_block_keys(2, 2, BT))
        pool.evict_to_free(pool.allocator.free_blocks + 2)
        # Victims: lowest priority first, oldest last_used first.
        assert not low1 & set(pool._blocks)
        assert high <= set(pool._blocks)
        pool.evict_to_free(pool.allocator.free_blocks + 2)
        assert not set(prefix_block_keys(3, 2, BT)) & set(pool._blocks)
        assert high <= set(pool._blocks)  # high priority evicted last

    def test_pool_fraction_cap(self, model):
        pool = PrefixPool(
            make_allocator(model, total_blocks=16),
            PrefixCacheConfig(max_pool_fraction=0.25),
        )
        a = pool.acquire(record(1, 1024, 1024), now=0.0)
        # Cap = 4 blocks; the rest of the prefix stays private.
        assert pool.resident_blocks == 4
        assert a.shared_tokens == 4 * BT

    def test_evict_under_pressure_restores_utilization(self, model):
        alloc = make_allocator(model, total_blocks=16)
        pool = PrefixPool(alloc, PrefixCacheConfig(evict_pressure=0.5))
        pool.acquire(record(1, 12 * BT, 12 * BT), now=0.0)
        pool.release(1)
        assert alloc.utilization > 0.5
        evicted = pool.evict_under_pressure()
        assert evicted > 0
        assert alloc.utilization <= 0.5
        assert alloc.free_blocks + alloc.shared_blocks == alloc.total_blocks

    def test_full_lifecycle_conserves_blocks(self, model):
        alloc = make_allocator(model, total_blocks=32)
        pool = PrefixPool(alloc)
        for rid in range(6):
            pool.acquire(record(rid, 256, 256, prefix_id=rid % 3), now=float(rid))
        for rid in range(6):
            pool.release(rid)
        assert pool.check_invariants() == []
        pool.evict_to_free(alloc.total_blocks)
        assert pool.resident_blocks == 0
        assert alloc.free_blocks == alloc.total_blocks
        assert alloc.shared_blocks == 0


class TestTenantLedger:
    def test_bucket_refills_and_spends(self):
        ledger = TenantLedger(
            [TenantConfig(tenant_id=1, rate_tokens_per_s=100.0,
                          burst_tokens=200.0)]
        )
        assert ledger.has_budget(1, 200.0, now=0.0)
        ledger.spend(1, 200.0)
        assert not ledger.has_budget(1, 50.0, now=0.0)
        # has_budget never spends: asking twice changes nothing.
        assert ledger.has_budget(1, 50.0, now=0.5) == ledger.has_budget(
            1, 50.0, now=0.5
        )
        assert ledger.has_budget(1, 50.0, now=0.5)  # refilled 50 tokens
        assert not ledger.has_budget(1, 60.0, now=0.5)

    def test_unknown_tenant_uses_default_contract(self):
        ledger = TenantLedger(
            default=TenantConfig(tenant_id=0, rate_tokens_per_s=10.0,
                                 burst_tokens=10.0, weight=3.0)
        )
        assert not ledger.has_budget(42, 11.0, now=0.0)
        assert ledger.seen_tenants()[42]["weight"] == 3.0
        # No default at all: unlimited.
        assert TenantLedger().has_budget(42, 1e9, now=0.0)

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError):
            TenantLedger([TenantConfig(tenant_id=1), TenantConfig(tenant_id=1)])

    def test_fair_share_respects_weights_and_floor(self):
        ledger = TenantLedger(
            [
                TenantConfig(tenant_id=1, weight=1.0, burst_tokens=100.0),
                TenantConfig(tenant_id=2, weight=3.0, burst_tokens=100.0),
            ]
        )
        ledger.has_budget(2, 0.0, now=0.0)  # tenant 2 is "seen"
        # Below its own burst a tenant is never over share (the absolute
        # floor that keeps thousands-of-tenants entitlement sane).
        ledger.spend(1, 90.0)
        assert not ledger.over_fair_share(1, slack=1.0)
        ledger.spend(1, 910.0)
        ledger.spend(2, 100.0)
        # Tenant 1: share ~0.91 vs entitlement 0.25.
        assert ledger.over_fair_share(1, slack=2.0)
        # Tenant 2: share ~0.09 under a 0.75 entitlement.
        assert not ledger.over_fair_share(2, slack=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TenantConfig(tenant_id=1, rate_tokens_per_s=0.0)
        with pytest.raises(ValueError):
            TenantConfig(tenant_id=1, burst_tokens=0.0)
        with pytest.raises(ValueError):
            TenantConfig(tenant_id=1, weight=0.0)


class TestTenantAdmission:
    def _engine(self, model, admission):
        return ServingEngine(
            model, METHOD, EngineConfig(slo=SLO(), admission=admission)
        )

    def test_tenant_rate_defers_that_tenant_only(self, model):
        engine = self._engine(
            model,
            AdmissionConfig(
                tenants=(
                    TenantConfig(tenant_id=1, rate_tokens_per_s=10.0,
                                 burst_tokens=600.0),
                ),
                max_queue_depth=None,
            ),
        )
        hog = Request(request_id=1, arrival_time=0.0, prompt_len=512,
                      gen_len=64, tenant_id=1)
        verdict = engine.submit(hog)
        assert verdict.value == "accept"
        second = Request(request_id=2, arrival_time=0.0, prompt_len=512,
                         gen_len=64, tenant_id=1)
        assert engine.submit(second).value == "defer"
        other = Request(request_id=3, arrival_time=0.0, prompt_len=512,
                        gen_len=64, tenant_id=2)
        assert engine.submit(other).value == "accept"

    def test_fair_share_gates_only_under_pressure(self, model):
        cfg = AdmissionConfig(
            default_tenant=TenantConfig(tenant_id=0, burst_tokens=100.0),
            fair_share_slack=1.0,
            fair_share_pressure=10.0,  # pressure mark never reached here
            max_queue_depth=None,
        )
        engine = self._engine(model, cfg)
        for rid in range(4):
            req = Request(request_id=rid, arrival_time=0.0, prompt_len=512,
                          gen_len=64, tenant_id=1)
            assert engine.submit(req).value == "accept"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(fair_share_slack=0.5)
        with pytest.raises(ValueError):
            AdmissionConfig(fair_share_pressure=-1.0)


class TestEngineIntegration:
    def _workload(self, n=120, seed=5, **kw):
        kw.setdefault("n_tenants", 40)
        kw.setdefault("zipf_s", 1.5)
        return zipf_shared_workload(
            n, arrival_rate=15.0, rng=np.random.default_rng(seed), **kw
        )

    def test_sharing_skips_prefill_and_conserves(self, model):
        engine = ServingEngine(
            model, METHOD, EngineConfig(prefix=PrefixCacheConfig())
        )
        metrics = engine.run(self._workload())
        assert metrics.completed == metrics.total
        assert metrics.prefix_hit_ratio > 0.3
        assert metrics.prefill_tokens_saved > 0
        assert metrics.shared_blocks > 0
        assert engine.prefix_pool.check_invariants() == []
        # All private blocks returned; only warm cache remains resident.
        alloc = engine.allocator
        assert alloc.free_blocks + alloc.shared_blocks == alloc.total_blocks

    def test_exact_replays_exercise_cow(self, model):
        engine = ServingEngine(
            model, METHOD, EngineConfig(prefix=PrefixCacheConfig())
        )
        metrics = engine.run(
            self._workload(suffix_len_range=(0, 0))  # prompts == prefixes
        )
        assert metrics.cow_copies > 0
        assert engine.prefix_pool.check_invariants() == []

    def test_pool_off_is_identical_to_seed_behaviour(self, model):
        """Prefix fields on requests are inert without a pool."""
        wl = self._workload()
        base = ServingEngine(model, METHOD, EngineConfig()).run(wl)
        assert base.prefix_hit_ratio != base.prefix_hit_ratio  # NaN
        assert base.shared_blocks == 0 and base.cow_copies == 0

    def test_ttft_win_at_equal_budget(self, model):
        wl = self._workload(n=200, seed=9)
        open_m = ServingEngine(model, METHOD, EngineConfig()).run(wl)
        pooled = ServingEngine(
            model, METHOD, EngineConfig(prefix=PrefixCacheConfig())
        ).run(wl)
        assert pooled.p50_ttft < open_m.p50_ttft

    def test_prefix_warmth_probe(self, model):
        engine = ServingEngine(
            model, METHOD, EngineConfig(prefix=PrefixCacheConfig())
        )
        engine.start()
        req = Request(request_id=900, arrival_time=0.0, prompt_len=256,
                      gen_len=8, prefix_id=77, shared_prefix_len=256)
        assert engine.prefix_warmth(req) == 0
        engine.run(
            [Request(request_id=i, arrival_time=0.0, prompt_len=256, gen_len=8,
                     prefix_id=77, shared_prefix_len=256) for i in range(3)]
        )
        assert engine.prefix_warmth(req) == 256
        # No pool: warmth is always zero.
        assert ServingEngine(model, METHOD, EngineConfig()).prefix_warmth(req) == 0


class TestClusterConservation:
    def test_blocks_conserved_under_admission_brownout_faults(self, model):
        """The acceptance matrix: prefix sharing composed with admission
        gates, precision brownout, and fault injection still returns
        every block exactly once and terminates every request."""
        wl = zipf_shared_workload(
            90, arrival_rate=12.0, n_tenants=30, zipf_s=1.5,
            rng=np.random.default_rng(3),
        )
        cfg = ClusterConfig(
            n_replicas=2,
            policy="affinity",
            engine=EngineConfig(
                slo=SLO(),
                prefix=PrefixCacheConfig(),
                deadline_shed=True,
                admission=AdmissionConfig(
                    max_queue_depth=None,
                    default_tenant=TenantConfig(
                        tenant_id=0, rate_tokens_per_s=3_000.0,
                        burst_tokens=30_000.0,
                    ),
                ),
                brownout=BrownoutConfig(),
            ),
            faults=FaultConfig(
                seed=4, crash_rate=0.02, stall_rate=0.02,
                crash_downtime_s=6.0, stall_duration_s=4.0,
                stall_slowdown=3.0, request_timeout_s=60.0, max_retries=3,
            ),
        )
        sim = ClusterSimulator(model, METHOD, cfg)
        metrics = sim.run(wl)
        assert (
            metrics.completed + metrics.failed + metrics.rejected + metrics.shed
            == metrics.total
        )
        for replica in sim.replicas:
            pool = replica.engine.prefix_pool
            assert pool is not None
            assert pool.check_invariants() == []
            alloc = replica.engine.allocator
            private = sum(a.blocks for a in alloc._allocs.values())
            assert (
                alloc.free_blocks + alloc.shared_blocks + private
                == alloc.total_blocks
            )

    def test_affinity_router_prefers_measured_warmth(self, model):
        wl = zipf_shared_workload(
            80, arrival_rate=10.0, n_tenants=12, zipf_s=1.6,
            rng=np.random.default_rng(8),
        )
        results = {}
        for policy in ("round_robin", "affinity"):
            sim = ClusterSimulator(
                model, METHOD,
                ClusterConfig(
                    n_replicas=3, policy=policy,
                    engine=EngineConfig(prefix=PrefixCacheConfig()),
                ),
            )
            results[policy] = sim.run(wl)
        assert (
            results["affinity"].prefix_hit_ratio
            >= results["round_robin"].prefix_hit_ratio
        )

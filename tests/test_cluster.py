"""Tests for the cluster subsystem: TP costs, routing, scaling, SLOs."""

import numpy as np
import pytest

from repro.cluster import (
    SLO,
    AutoscalerConfig,
    Autoscaler,
    ClusterConfig,
    ClusterSimulator,
    FaultConfig,
    FaultInjector,
    ROUTER_POLICIES,
    Replica,
    make_router,
)
from repro.overload import AdmissionConfig, BreakerConfig
from repro.perf.attention_costs import METHODS, attention_counts
from repro.perf.e2e import ModelGeometry, linear_counts
from repro.perf.gpu import A100_80GB
from repro.perf.tp import (
    allreduce_bytes_per_layer,
    replica_kv_budget,
    shard_counts,
    tp_step_latency,
)
from repro.perf.counts import OpCounts
from repro.serving import EngineConfig, Request, poisson_workload
from repro.serving.request import RequestStatus


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


def bursty_workload(n=60, rate=6.0, seed=12):
    return poisson_workload(
        n, arrival_rate=rate, prompt_range=(256, 6144), gen_range=(64, 320),
        rng=np.random.default_rng(seed), n_sessions=24,
    )


class TestTensorParallelCosts:
    def test_allreduce_zero_for_one_rank(self):
        assert A100_80GB.allreduce_time(1e6, 1) == 0.0

    def test_allreduce_grows_with_ranks_at_fixed_bytes(self):
        times = [A100_80GB.allreduce_time(1e6, r) for r in (2, 4, 8)]
        assert times[0] < times[1] < times[2]  # latency term dominates growth

    def test_shard_counts_preserves_launch_overhead(self):
        c = OpCounts(fp16_tc=1e12, bytes_read=1e9, kernel_launches=10)
        s = shard_counts(c, 4)
        assert s.fp16_tc == pytest.approx(2.5e11)
        assert s.bytes_read == pytest.approx(2.5e8)
        assert s.kernel_launches == 10

    def test_tp1_matches_e2e(self, model):
        # tp=1 is the unsharded step: attention then linear, no collectives.
        method = METHODS["turbo_mixed"]
        for prefill, (b, q, kv) in ((False, (8, 1, 4096)), (True, (1, 2048, 2048))):
            attn = attention_counts(
                method, model.attention_geometry(b, q, kv), prefill
            ) * model.n_layers
            assert tp_step_latency(method, model, b, q, kv, prefill, tp=1) == (
                A100_80GB.latency(attn) + A100_80GB.latency(linear_counts(model, b, q))
            )

    def test_latency_decreases_then_saturates(self, model):
        lats = [
            tp_step_latency(METHODS["fp16"], model, 8, 1, 8192, False, tp=tp)
            for tp in (1, 2, 4, 8)
        ]
        # Monotone decrease...
        assert lats[0] > lats[1] > lats[2] >= lats[3]
        # ...but sublinear: 8 GPUs buy nowhere near 8x.
        assert lats[3] > lats[0] / 8 * 2
        # And the marginal gain shrinks (saturation).
        assert (lats[2] - lats[3]) < (lats[0] - lats[1]) / 2

    def test_allreduce_bytes_scale_with_tokens(self, model):
        assert allreduce_bytes_per_layer(model, 2, 64) == pytest.approx(
            4 * allreduce_bytes_per_layer(model, 1, 32)
        )

    def test_replica_kv_budget_pools_hbm(self, model):
        b1 = replica_kv_budget(model, tp=1)
        b4 = replica_kv_budget(model, tp=4)
        # Pooling 4 HBMs more than quadruples KV space: the weight shard
        # per rank shrinks.
        assert b4 > 4 * b1

    def test_invalid_tp_rejected(self, model):
        with pytest.raises(ValueError):
            tp_step_latency(METHODS["fp16"], model, 1, 1, 128, False, tp=0)
        with pytest.raises(ValueError):
            replica_kv_budget(model, tp=0)

    def test_tp_replica_serves_faster(self, model):
        """A tp=4 replica finishes the same closed workload sooner."""
        from repro.serving import ServingEngine
        from repro.serving.workload import closed_batch_workload

        reqs = closed_batch_workload(16, prompt_len=1024, gen_len=64)
        one = ServingEngine(model, METHODS["turbo_mixed"], EngineConfig(tp=1)).run(reqs)
        four = ServingEngine(model, METHODS["turbo_mixed"], EngineConfig(tp=4)).run(reqs)
        assert four.completed == one.completed == 16
        assert four.makespan < one.makespan


class TestRouters:
    def _replicas(self, model, n=3, method="turbo_mixed"):
        return [
            Replica(i, model, METHODS[method], EngineConfig()) for i in range(n)
        ]

    def _req(self, rid, session=0):
        return Request(rid, 0.0, prompt_len=512, gen_len=32, session_id=session)

    def test_registry_complete(self):
        assert set(ROUTER_POLICIES) == {
            "round_robin", "least_tokens", "least_kv", "affinity"
        }
        for name in ROUTER_POLICIES:
            assert make_router(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_router("random")

    def test_round_robin_cycles(self, model):
        replicas = self._replicas(model)
        router = make_router("round_robin")
        chosen = [router.choose(self._req(i), replicas).replica_id for i in range(6)]
        assert chosen == [0, 1, 2, 0, 1, 2]

    def test_least_tokens_picks_idle_replica(self, model):
        replicas = self._replicas(model)
        replicas[0].submit(self._req(100))
        replicas[1].submit(self._req(101))
        router = make_router("least_tokens")
        assert router.choose(self._req(0), replicas).replica_id == 2

    def test_least_kv_picks_lowest_pressure(self, model):
        replicas = self._replicas(model)
        replicas[2].submit(self._req(100))
        replicas[2].step()  # admit: resident KV, not just queued demand
        replicas[0].submit(self._req(101))
        router = make_router("least_kv")
        assert router.choose(self._req(0), replicas).replica_id == 1

    def test_affinity_pins_sessions(self, model):
        replicas = self._replicas(model)
        router = make_router("affinity")
        a = [router.choose(self._req(i, session=5), replicas).replica_id
             for i in range(4)]
        assert len(set(a)) == 1  # one session -> one replica
        assert router.choose(self._req(9, session=6), replicas).replica_id != a[0]

    def test_affinity_spills_when_home_overloaded(self, model):
        replicas = self._replicas(model)
        router = make_router("affinity")
        home = router.choose(self._req(0, session=5), replicas)
        for i in range(20):  # flood the home queue past the spill threshold
            home.submit(self._req(100 + i))
        spilled = router.choose(self._req(1, session=5), replicas)
        assert spilled.replica_id != home.replica_id

    def test_empty_replica_set_rejected(self, model):
        with pytest.raises(ValueError):
            make_router("round_robin").choose(self._req(0), [])


class TestAutoscaler:
    def test_scales_up_on_queue_pressure(self, model):
        scaler = Autoscaler(AutoscalerConfig(scale_up_queue=2.0))
        replicas = [Replica(0, model, METHODS["turbo_mixed"], EngineConfig())]
        for i in range(5):
            replicas[0].submit(Request(i, 0.0, 512, 32))
        assert scaler.decide(0.0, replicas) == "up"

    def test_scales_down_when_idle(self, model):
        scaler = Autoscaler(AutoscalerConfig(min_replicas=1))
        replicas = [
            Replica(i, model, METHODS["turbo_mixed"], EngineConfig())
            for i in range(2)
        ]
        assert scaler.decide(100.0, replicas) == "down"

    def test_respects_min_and_max(self, model):
        cfg = AutoscalerConfig(min_replicas=1, max_replicas=1, scale_up_queue=0.5)
        scaler = Autoscaler(cfg)
        replicas = [Replica(0, model, METHODS["turbo_mixed"], EngineConfig())]
        for i in range(5):
            replicas[0].submit(Request(i, 0.0, 512, 32))
        assert scaler.decide(0.0, replicas) is None  # at max already
        assert scaler.decide(50.0, [replicas[0]]) is None  # busy, at min

    def test_cooldown_blocks_consecutive_actions(self, model):
        scaler = Autoscaler(AutoscalerConfig(scale_up_queue=1.0, cooldown_s=30.0))
        replicas = [Replica(0, model, METHODS["turbo_mixed"], EngineConfig())]
        for i in range(5):
            replicas[0].submit(Request(i, 0.0, 512, 32))
        assert scaler.decide(0.0, replicas) == "up"
        assert scaler.decide(10.0, replicas) is None  # inside cooldown
        assert scaler.decide(31.0, replicas) == "up"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_queue=1.0, scale_down_queue=2.0)

    def test_cluster_scales_up_and_down(self, model):
        """End-to-end: a burst adds replicas, the lull drains one."""
        burst = [Request(i, 0.01 * i, 1024, 96) for i in range(40)]
        tail = [Request(100 + i, 200.0 + 5.0 * i, 256, 16) for i in range(8)]
        config = ClusterConfig(
            n_replicas=1,
            policy="least_tokens",
            autoscaler=AutoscalerConfig(
                min_replicas=1, max_replicas=4,
                scale_up_queue=4.0, scale_down_queue=0.25, cooldown_s=5.0,
            ),
        )
        m = ClusterSimulator(model, METHODS["fp16"], config).run(burst + tail)
        assert m.completed == m.total == 48
        actions = [e.action for e in m.scale_events]
        assert "up" in actions and "down" in actions
        assert m.peak_replicas > 1
        assert m.final_replicas < m.peak_replicas


class TestClusterSimulator:
    def test_conservation_every_request_finishes_once(self, model):
        """No request is lost, duplicated, or left unfinished."""
        wl = bursty_workload(n=50)
        for policy in ROUTER_POLICIES:
            sim = ClusterSimulator(
                model, METHODS["turbo_mixed"],
                ClusterConfig(n_replicas=3, policy=policy),
            )
            metrics = sim.run(wl)
            seen = {}
            for replica in sim.replicas:
                for rid, rec in replica.records.items():
                    assert rid not in seen, f"request {rid} on two replicas"
                    seen[rid] = rec
            assert set(seen) == {r.request_id for r in wl}
            assert all(
                rec.status is RequestStatus.FINISHED for rec in seen.values()
            )
            assert metrics.completed == metrics.total == len(wl)

    def test_deterministic(self, model):
        wl = bursty_workload(n=30)
        cfg = ClusterConfig(n_replicas=3, policy="least_kv")
        a = ClusterSimulator(model, METHODS["kivi4"], cfg).run(wl)
        b = ClusterSimulator(model, METHODS["kivi4"], cfg).run(wl)
        assert a.as_dict() == b.as_dict()

    def test_more_replicas_cut_tail_latency(self, model):
        wl = bursty_workload(n=40)
        one = ClusterSimulator(
            model, METHODS["fp16"], ClusterConfig(n_replicas=1)
        ).run(wl)
        four = ClusterSimulator(
            model, METHODS["fp16"], ClusterConfig(n_replicas=4)
        ).run(wl)
        assert four.p99_ttft < one.p99_ttft
        assert four.goodput_rps >= one.goodput_rps

    def test_kv_aware_routing_beats_round_robin_tail(self, model):
        """The harness acceptance claim, pinned on the bursty workload."""
        wl = bursty_workload(n=60)
        by_policy = {}
        for policy in ("round_robin", "least_kv"):
            by_policy[policy] = ClusterSimulator(
                model, METHODS["fp16"], ClusterConfig(n_replicas=3, policy=policy)
            ).run(wl)
        assert (
            by_policy["least_kv"].p99_ttft <= by_policy["round_robin"].p99_ttft
        )

    def test_turbo_admits_more_concurrency_than_fp16(self, model):
        """Equal HBM budget: compression -> higher admitted batch."""
        wl = bursty_workload(n=60)
        peaks = {}
        for method in ("fp16", "turbo_mixed"):
            m = ClusterSimulator(
                model, METHODS[method], ClusterConfig(n_replicas=3)
            ).run(wl)
            peaks[method] = max(s.peak_running for s in m.replicas)
        assert peaks["turbo_mixed"] > 2 * peaks["fp16"]

    def test_slo_accounting(self, model):
        wl = poisson_workload(20, arrival_rate=2.0, rng=np.random.default_rng(3))
        strict = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, slo=SLO(ttft_s=1e-6, tpot_s=1e-6)),
        ).run(wl)
        loose = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, slo=SLO(ttft_s=1e6, tpot_s=1e6)),
        ).run(wl)
        assert strict.completed == loose.completed == 20
        assert strict.slo_attainment == 0.0 and strict.goodput_rps == 0.0
        assert loose.slo_attainment == 1.0
        assert loose.goodput_rps == pytest.approx(20 / loose.makespan)

    def test_makespan_covers_all_replicas(self, model):
        wl = bursty_workload(n=30)
        sim = ClusterSimulator(
            model, METHODS["turbo_mixed"], ClusterConfig(n_replicas=3)
        )
        m = sim.run(wl)
        assert m.makespan == pytest.approx(
            max(r.clock for r in sim.replicas if r.records)
        )

    def test_invalid_config_rejected(self, model):
        with pytest.raises(ValueError):
            ClusterConfig(n_replicas=0)
        with pytest.raises(ValueError):
            SLO(ttft_s=0.0)

    def test_draining_replica_rejects_submissions(self, model):
        replica = Replica(0, model, METHODS["turbo_mixed"], EngineConfig())
        replica.draining = True
        with pytest.raises(RuntimeError):
            replica.submit(Request(0, 0.0, 128, 8))


FAULTS = FaultConfig(
    seed=3, crash_rate=0.05, stall_rate=0.05,
    crash_downtime_s=8.0, stall_duration_s=6.0, stall_slowdown=4.0,
    request_timeout_s=45.0, max_retries=3, horizon_pad_s=15.0,
)


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(FAULTS).schedule(120.0)
        b = FaultInjector(FAULTS).schedule(120.0)
        assert a == b and len(a) > 0

    def test_different_seeds_differ(self):
        from dataclasses import replace as dreplace

        a = FaultInjector(FAULTS).schedule(120.0)
        b = FaultInjector(dreplace(FAULTS, seed=FAULTS.seed + 1)).schedule(120.0)
        assert a != b

    def test_kinds_have_independent_streams(self):
        """Silencing one fault kind leaves the other kind's timeline intact."""
        from dataclasses import replace as dreplace

        both = FaultInjector(FAULTS).schedule(120.0)
        only_crash = FaultInjector(dreplace(FAULTS, stall_rate=0.0)).schedule(120.0)
        assert only_crash == [e for e in both if e.kind == "crash"]

    def test_schedule_respects_horizon_and_order(self):
        events = FaultInjector(FAULTS).schedule(80.0)
        assert all(0.0 < e.time < 80.0 for e in events)
        assert [e.time for e in events] == sorted(e.time for e in events)
        assert {e.kind for e in events} <= {"crash", "stall"}

    def test_zero_rates_mean_no_faults(self):
        assert FaultInjector(FaultConfig(seed=1)).schedule(1e4) == []

    def test_backoff_is_capped_exponential(self):
        cfg = FaultConfig(backoff_base_s=0.5, backoff_cap_s=4.0)
        assert [cfg.backoff(k) for k in (1, 2, 3, 4, 5)] == [
            0.5, 1.0, 2.0, 4.0, 4.0
        ]
        with pytest.raises(ValueError):
            cfg.backoff(0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_rate=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(stall_slowdown=0.5)
        with pytest.raises(ValueError):
            FaultConfig(request_timeout_s=0.0)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=-1)
        with pytest.raises(ValueError):
            FaultConfig(backoff_base_s=2.0, backoff_cap_s=1.0)
        with pytest.raises(ValueError):
            FaultConfig(crash_downtime_s=0.0)


class TestReplicaFaults:
    def _replica(self, model):
        return Replica(0, model, METHODS["turbo_mixed"], EngineConfig())

    def test_crash_evicts_everything(self, model):
        replica = self._replica(model)
        for i in range(4):
            replica.submit(Request(i, 0.0, 512, 32))
        replica.step()  # admit some into the running batch
        evicted = replica.crash(down_until=10.0)
        assert {rec.request.request_id for rec in evicted} == {0, 1, 2, 3}
        assert replica.crashed and not replica.dispatchable
        assert not replica.busy and not replica.records
        with pytest.raises(RuntimeError):
            replica.submit(Request(9, 0.0, 128, 8))
        with pytest.raises(RuntimeError):
            replica.crash(down_until=20.0)  # already down

    def test_recover_restores_service_at_now(self, model):
        replica = self._replica(model)
        replica.crash(down_until=10.0)
        replica.recover(10.0)
        assert replica.dispatchable and replica.clock == 10.0
        replica.submit(Request(0, 10.0, 128, 8))
        while replica.busy:
            replica.step()
        assert replica.records[0].status is RequestStatus.FINISHED

    def test_stall_slows_steps_until_cleared(self, model):
        def makespan(stalled):
            replica = self._replica(model)
            if stalled:
                replica.stall(4.0)
            replica.submit(Request(0, 0.0, 1024, 32))
            while replica.busy:
                replica.step()
            return replica.clock

        slow, fast = makespan(True), makespan(False)
        assert slow == pytest.approx(4.0 * fast)

        replica = self._replica(model)
        replica.stall(4.0)
        replica.clear_stall()
        replica.submit(Request(0, 0.0, 1024, 32))
        while replica.busy:
            replica.step()
        assert replica.clock == pytest.approx(fast)

    def test_stalls_do_not_stack_downwards(self, model):
        """A second, milder stall never speeds up an already-stalled replica."""
        replica = self._replica(model)
        replica.stall(4.0)
        replica.stall(2.0)
        assert replica.engine.time_scale == 4.0

    def test_cancel_returns_record_and_frees_kv(self, model):
        replica = self._replica(model)
        replica.submit(Request(0, 0.0, 512, 32))
        replica.step()
        rec = replica.cancel(0)
        assert rec is not None and rec.request.request_id == 0
        assert not replica.busy and not replica.records
        assert replica.cancel(0) is None  # unknown rid now


class TestClusterFaults:
    def test_conservation_matrix(self, model):
        """Every policy x autoscaler x fault schedule terminates every
        request exactly once — completed on one replica or failed."""
        wl = bursty_workload(n=30)
        scaler = AutoscalerConfig(min_replicas=2, max_replicas=4)
        for policy in ROUTER_POLICIES:
            for autoscaler in (None, scaler):
                for faults in (None, FAULTS):
                    sim = ClusterSimulator(
                        model, METHODS["turbo_mixed"],
                        ClusterConfig(
                            n_replicas=2, policy=policy,
                            autoscaler=autoscaler, faults=faults,
                        ),
                    )
                    m = sim.run(wl)
                    label = f"{policy}/scale={bool(autoscaler)}/faults={bool(faults)}"
                    seen = dict(sim.failed)
                    for replica in sim.replicas:
                        for rid, rec in replica.records.items():
                            assert rid not in seen, f"{label}: rid {rid} twice"
                            seen[rid] = rec
                    assert set(seen) == {r.request_id for r in wl}, label
                    for rec in seen.values():
                        assert rec.status in (
                            RequestStatus.FINISHED, RequestStatus.FAILED
                        ), label
                    assert m.completed + m.failed == m.total == len(wl), label
                    if faults is None:
                        assert m.failed == 0 and m.retries == 0, label
                        assert m.crashes == m.stalls == m.timeouts == 0, label

    def test_crashes_cost_retries_and_reprefill(self, model):
        m = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, policy="least_kv", faults=FAULTS),
        ).run(bursty_workload(n=40))
        assert m.crashes > 0
        assert m.retries > 0
        assert m.wasted_prefill_tokens > 0
        assert m.downtime_s == pytest.approx(m.crashes * FAULTS.crash_downtime_s)
        assert 0.0 < m.availability < 1.0

    def test_healthy_run_reports_full_availability(self, model):
        m = ClusterSimulator(
            model, METHODS["turbo_mixed"], ClusterConfig(n_replicas=2)
        ).run(bursty_workload(n=20))
        assert m.availability == 1.0 and m.failed_rate == 0.0

    def test_exhausted_retry_budget_fails_requests(self, model):
        """A zero-retry budget under heavy crashes converts evictions into
        FAILED requests instead of crashing or hanging the run."""
        harsh = FaultConfig(
            seed=5, crash_rate=0.2, crash_downtime_s=20.0,
            request_timeout_s=5.0, max_retries=0, horizon_pad_s=30.0,
        )
        sim = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, policy="least_kv", faults=harsh),
        )
        m = sim.run(bursty_workload(n=30))
        assert m.failed > 0
        assert m.completed + m.failed == m.total == 30
        for rec in sim.failed.values():
            assert rec.status is RequestStatus.FAILED
            assert rec.retries > harsh.max_retries
            assert rec.failed_at is not None

    def test_timeouts_pull_back_stuck_requests(self, model):
        """A tight TTFT deadline fires timeouts; a loose one never does."""
        from dataclasses import replace as dreplace

        wl = bursty_workload(n=30)
        tight = dreplace(FAULTS, request_timeout_s=4.0, max_retries=8)
        loose = dreplace(FAULTS, request_timeout_s=1e6)

        def run(faults):
            return ClusterSimulator(
                model, METHODS["fp16"],
                ClusterConfig(n_replicas=2, policy="least_kv", faults=faults),
            ).run(wl)

        assert run(tight).timeouts > 0
        assert run(loose).timeouts == 0

    def test_autoscaler_replaces_crashed_replicas(self, model):
        """A fleet crashed below its floor is topped back up immediately,
        cooldown notwithstanding."""
        scaler = Autoscaler(AutoscalerConfig(min_replicas=2, cooldown_s=1e9))
        replicas = [
            Replica(i, model, METHODS["turbo_mixed"], EngineConfig())
            for i in range(2)
        ]
        assert scaler.decide(0.0, replicas) is None  # healthy: no action
        assert scaler.decide(1.0, replicas[:1]) == "up"  # below floor
        assert scaler.decide(2.0, replicas[:1]) == "up"  # still, despite cooldown

    def test_cluster_heals_through_autoscaler(self, model):
        cfg = ClusterConfig(
            n_replicas=2, policy="least_kv",
            autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=5),
            faults=FAULTS,
        )
        sim = ClusterSimulator(model, METHODS["turbo_mixed"], cfg)
        m = sim.run(bursty_workload(n=40))
        assert m.crashes > 0
        assert any(e.action == "up" for e in m.scale_events)
        assert m.completed + m.failed == m.total

    def test_fault_metrics_round_trip_as_dict(self, model):
        m = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, faults=FAULTS),
        ).run(bursty_workload(n=20))
        d = m.as_dict()
        for key in (
            "failed", "failed_rate", "retries", "wasted_prefill_tokens",
            "wasted_decode_tokens", "crashes", "stalls", "timeouts",
            "downtime_s", "availability",
        ):
            assert key in d
        assert d["failed"] + d["completed"] == d["total"]


class TestClusterOverload:
    """Cluster-level admission control and circuit breakers."""

    ADMISSION = AdmissionConfig(
        rate_tokens_per_s=2_000.0, burst_tokens=8_000.0,
        max_queue_depth=6, max_defers=2,
    )

    def test_conservation_matrix_with_admission(self, model):
        """Every policy x faults x admission cell terminates every request
        exactly once: completed + failed + rejected + shed == submitted."""
        wl = bursty_workload(n=30, rate=12.0)
        for policy in ROUTER_POLICIES:
            for faults in (None, FAULTS):
                for admission in (None, self.ADMISSION):
                    sim = ClusterSimulator(
                        model, METHODS["turbo_mixed"],
                        ClusterConfig(
                            n_replicas=2, policy=policy,
                            faults=faults, admission=admission,
                        ),
                    )
                    m = sim.run(wl)
                    label = (
                        f"{policy}/faults={bool(faults)}"
                        f"/admission={bool(admission)}"
                    )
                    seen = dict(sim.failed)
                    seen.update(sim.rejected)
                    for replica in sim.replicas:
                        for rid, rec in replica.records.items():
                            assert rid not in seen, f"{label}: rid {rid} twice"
                            seen[rid] = rec
                    assert set(seen) == {r.request_id for r in wl}, label
                    terminal = (
                        RequestStatus.FINISHED, RequestStatus.FAILED,
                        RequestStatus.REJECTED, RequestStatus.SHED,
                    )
                    for rec in seen.values():
                        assert rec.status in terminal, label
                    assert (
                        m.completed + m.failed + m.rejected + m.shed
                        == m.total == len(wl)
                    ), label
                    if admission is None:
                        assert m.rejected == 0 and m.shed == 0, label

    def test_admission_rejects_under_pressure_and_is_deterministic(self, model):
        wl = bursty_workload(n=40, rate=20.0)
        cfg = ClusterConfig(
            n_replicas=2, policy="least_kv", admission=self.ADMISSION,
        )
        a = ClusterSimulator(model, METHODS["turbo_mixed"], cfg).run(wl)
        b = ClusterSimulator(model, METHODS["turbo_mixed"], cfg).run(wl)
        assert a.rejected > 0
        assert a.as_dict() == b.as_dict()
        for rec in ClusterSimulator(model, METHODS["turbo_mixed"], cfg).rejected.values():
            assert rec.outcome_reason is not None

    def test_rejected_records_carry_reasons(self, model):
        wl = bursty_workload(n=40, rate=20.0)
        sim = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, admission=self.ADMISSION),
        )
        m = sim.run(wl)
        assert m.rejected == len(sim.rejected) > 0
        for rec in sim.rejected.values():
            assert rec.status is RequestStatus.REJECTED
            assert rec.rejected_at is not None
            assert rec.outcome_reason is not None

    def test_breaker_trips_on_timeout_storm(self, model):
        from dataclasses import replace as dreplace

        wl = bursty_workload(n=30)
        tight = dreplace(FAULTS, request_timeout_s=4.0, max_retries=8)
        sim = ClusterSimulator(
            model, METHODS["fp16"],
            ClusterConfig(
                n_replicas=2, policy="least_kv", faults=tight,
                breaker=BreakerConfig(failure_threshold=2, open_duration_s=10.0),
            ),
        )
        m = sim.run(wl)
        assert m.timeouts > 0
        assert m.breaker_trips > 0
        assert sum(b.trips for b in sim.breakers.values()) == m.breaker_trips
        assert m.completed + m.failed + m.rejected + m.shed == m.total == 30

    def test_breaker_does_not_change_healthy_run(self, model):
        wl = bursty_workload(n=25)
        plain = ClusterSimulator(
            model, METHODS["turbo_mixed"], ClusterConfig(n_replicas=2)
        ).run(wl)
        guarded = ClusterSimulator(
            model, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=2, breaker=BreakerConfig()),
        ).run(wl)
        assert guarded.breaker_trips == 0
        assert guarded.as_dict() == plain.as_dict()

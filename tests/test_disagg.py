"""Tests for the disaggregated prefill/decode cluster mode.

The invariants under test are the robustness core of KV migration:
conservation (every request terminates exactly once in exactly one
bucket) across every migration-fault x retry-budget x admission cell,
byte-identical reruns, salvage recovery that resumes from a valid prefix
instead of a full re-prefill, local-decode fallback when the retry
budget runs dry, and independent per-pool autoscaling.
"""

import numpy as np
import pytest

from repro.cluster import (
    AutoscalerConfig,
    Autoscaler,
    ClusterConfig,
    ClusterSimulator,
    DisaggConfig,
    FaultConfig,
)
from repro.migrate import MigrationConfig
from repro.overload import AdmissionConfig
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.serving import EngineConfig, Request, poisson_workload
from repro.serving.request import RequestStatus
from repro.sim import ListTraceSink, diff_traces, format_diff, trace_digest


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


def _workload(n=16, rate=4.0, seed=9):
    return poisson_workload(
        n, arrival_rate=rate, prompt_range=(256, 2048), gen_range=(32, 128),
        rng=np.random.default_rng(seed),
    )


def _faults(**overrides):
    base = dict(
        seed=13, crash_rate=0.0, stall_rate=0.0, request_timeout_s=120.0,
        max_retries=3, horizon_pad_s=10.0,
    )
    base.update(overrides)
    return FaultConfig(**base)


def _sim(model, config, trace=None):
    return ClusterSimulator(model, METHODS["turbo4"], config, trace=trace)


def _assert_conserved(sim, metrics, workload, label=""):
    assert (
        metrics.completed + metrics.failed + metrics.rejected + metrics.shed
        == metrics.total == len(workload)
    ), label
    seen = dict(sim.failed)
    seen.update(sim.rejected)
    for replica in sim.replicas:
        for rid, rec in replica.records.items():
            assert rid not in seen, f"{label}: rid {rid} terminated twice"
            seen[rid] = rec
    assert set(seen) == {r.request_id for r in workload}, label
    for rec in seen.values():
        assert rec.status in (
            RequestStatus.FINISHED, RequestStatus.FAILED,
            RequestStatus.REJECTED, RequestStatus.SHED,
        ), label


class TestDisaggConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DisaggConfig(n_prefill=0)
        with pytest.raises(ValueError):
            DisaggConfig(n_decode=0)

    def test_fleet_is_prefill_plus_decode(self, model):
        sim = _sim(model, ClusterConfig(
            disagg=DisaggConfig(n_prefill=2, n_decode=3),
        ))
        assert [r.role for r in sim.replicas] == (
            ["prefill"] * 2 + ["decode"] * 3
        )

    def test_fault_config_migration_validation(self):
        with pytest.raises(ValueError):
            _faults(migration_drop_rate=0.7, migration_corrupt_rate=0.7)
        with pytest.raises(ValueError):
            _faults(migration_drop_rate=-0.1)
        with pytest.raises(ValueError):
            _faults(max_migration_retries=-1)


class TestConservationMatrix:
    #: migration-fault schedule x retry budget x admission control.
    SCHEDULES = {
        "clean": None,
        "drops": dict(migration_drop_rate=0.5),
        "corrupt": dict(migration_corrupt_rate=0.5),
        "mixed": dict(
            migration_drop_rate=0.25, migration_corrupt_rate=0.25,
            link_stall_rate=0.05, crash_rate=0.02, stall_rate=0.02,
            request_timeout_s=45.0,
        ),
    }

    def test_conservation_matrix(self, model):
        wl = _workload()
        for sched_name, overrides in self.SCHEDULES.items():
            for budget in (0, 2):
                for admission in (None, AdmissionConfig(max_queue_depth=4)):
                    faults = (
                        None if overrides is None
                        else _faults(max_migration_retries=budget, **overrides)
                    )
                    config = ClusterConfig(
                        policy="least_kv", faults=faults, admission=admission,
                        disagg=DisaggConfig(n_prefill=1, n_decode=1),
                    )
                    label = f"{sched_name}/budget={budget}/adm={bool(admission)}"
                    sim = _sim(model, config)
                    metrics = sim.run(wl)
                    _assert_conserved(sim, metrics, wl, label)

    def test_runs_are_byte_identical(self, model):
        """The same seeded cell twice produces the same trace bytes."""
        wl = _workload()
        config = ClusterConfig(
            policy="least_kv",
            faults=_faults(
                migration_drop_rate=0.25, migration_corrupt_rate=0.25,
                link_stall_rate=0.05, crash_rate=0.02,
            ),
            disagg=DisaggConfig(n_prefill=1, n_decode=2),
        )
        sinks = []
        for _ in range(2):
            sink = ListTraceSink()
            _sim(model, config, trace=sink).run(wl)
            sinks.append(sink)
        diff = diff_traces(sinks[0].records, sinks[1].records)
        assert diff is None, format_diff(diff, "run1", "run2")
        assert trace_digest(sinks[0].records) == trace_digest(sinks[1].records)


class TestMigrationOutcomes:
    def test_clean_run_migrates_every_request(self, model):
        wl = _workload()
        sim = _sim(model, ClusterConfig(
            disagg=DisaggConfig(n_prefill=1, n_decode=1),
        ))
        m = sim.run(wl)
        assert m.completed == len(wl)
        assert m.migrations == len(wl)
        assert m.migration_retries == 0
        assert m.migrated_bytes > 0
        assert m.local_decode_fallbacks == 0
        # Handoff latency is recorded for every migrated request.
        assert m.p99_handoff_latency > 0
        # Every request decoded on the decode replica.
        decode = sim.replicas[1]
        assert sum(1 for r in decode.records.values()
                   if r.finished_at is not None) == len(wl)

    def test_wire_bytes_scale_with_kv_width(self, model):
        """A turbo4 fleet ships kv_bits/16 of the fp16 fleet's bytes."""
        wl = _workload(n=8)
        config = ClusterConfig(disagg=DisaggConfig(n_prefill=1, n_decode=1))
        shipped = {}
        for name in ("fp16", "turbo4"):
            m = ClusterSimulator(model, METHODS[name], config).run(wl)
            shipped[name] = m.migrated_bytes
        ratio = shipped["turbo4"] / shipped["fp16"]
        assert ratio == pytest.approx(METHODS["turbo4"].kv_bits / 16.0)

    def test_corrupted_handoff_salvages_a_prefix(self, model):
        """Seeded corruption: the decode replica resumes from the longest
        valid prefix, recomputing strictly less than a full re-prefill."""
        wl = _workload()
        sim = _sim(model, ClusterConfig(
            faults=_faults(migration_corrupt_rate=1.0),
            disagg=DisaggConfig(n_prefill=1, n_decode=1),
        ))
        m = sim.run(wl)
        assert m.completed == len(wl)
        assert m.migration_corruptions >= len(wl)
        full = sum(r.prompt_len for r in wl)
        assert 0 < m.salvage_recomputed_tokens < full
        recs = sim.replicas[1].records
        assert len(recs) == len(wl)
        for rec in recs.values():
            assert 0 < rec.salvage_recomputed_tokens < rec.request.prompt_len

    def test_no_salvage_recomputes_full_prompts(self, model):
        wl = _workload()
        sim = _sim(model, ClusterConfig(
            faults=_faults(migration_corrupt_rate=1.0),
            disagg=DisaggConfig(
                n_prefill=1, n_decode=1,
                migration=MigrationConfig(salvage=False),
            ),
        ))
        m = sim.run(wl)
        assert m.completed == len(wl)
        # Every (single-corruption) request re-prefilled from scratch.
        assert m.salvage_recomputed_tokens == sum(r.prompt_len for r in wl)

    def test_budget_exhaustion_falls_back_to_local_decode(self, model):
        """Every transfer drops; after the retry budget the request
        decodes on its prefill replica — degraded, never lost."""
        wl = _workload()
        sim = _sim(model, ClusterConfig(
            faults=_faults(migration_drop_rate=1.0, max_migration_retries=2),
            disagg=DisaggConfig(n_prefill=1, n_decode=1),
        ))
        m = sim.run(wl)
        assert m.completed == len(wl)
        assert m.migrations == 0
        assert m.local_decode_fallbacks == len(wl)
        # 1 initial send + 2 retried sends per request, all dropped.
        assert m.migration_drops == 3 * len(wl)
        assert m.migration_retries == 3 * len(wl)
        # Everything finished on the *prefill* replica.
        prefill = sim.replicas[0]
        assert sum(1 for r in prefill.records.values()
                   if r.finished_at is not None) == len(wl)

    def test_zero_budget_falls_back_after_first_drop(self, model):
        wl = _workload(n=6)
        sim = _sim(model, ClusterConfig(
            faults=_faults(migration_drop_rate=1.0, max_migration_retries=0),
            disagg=DisaggConfig(n_prefill=1, n_decode=1),
        ))
        m = sim.run(wl)
        assert m.completed == len(wl)
        assert m.migration_drops == len(wl)
        assert m.local_decode_fallbacks == len(wl)

    def test_local_decode_beside_a_handoff_in_one_step(self, model):
        """Regression: a prefill replica's step decodes a local-decode
        fallback while handing another request off.  The handoff shrinks
        ``running``; the decode batch must be the ids chosen before that
        (this run used to raise IndexError in ``ServingEngine.step``)."""
        wl = poisson_workload(
            200, 1.5, (2048, 6144), (128, 512), rng=np.random.default_rng(21)
        )
        sim = _sim(model, ClusterConfig(
            policy="least_kv", engine=EngineConfig(prefill_chunk=256),
            faults=FaultConfig(seed=7, migration_drop_rate=0.12),
            disagg=DisaggConfig(2, 2),
        ))
        m = sim.run(wl)
        _assert_conserved(sim, m, wl)
        assert m.completed == len(wl)
        assert m.local_decode_fallbacks >= 1

    def test_rejected_handoff_charges_record_waste(self, model):
        """A terminal REJECT at the decode pool must not vanish the
        source's real prefill work from the record's waste counters."""
        from repro.overload.admission import AdmissionVerdict

        sim = _sim(model, ClusterConfig(
            disagg=DisaggConfig(n_prefill=1, n_decode=1),
        ))
        source = sim.replicas[0]
        source.submit(Request(0, 0.0, 512, 16))
        while not source.engine.migrating:
            source.step()
        record = source.engine.migrating[0]
        assert record.prefilled == 512

        class RejectingTarget:
            replica_id = 1
            dispatchable = True

            def submit_record(self, rec):
                rec.status = RequestStatus.REJECTED
                return AdmissionVerdict.REJECT

        ev = sim.kernel.schedule(
            1.0, "migrate_arrive",
            (record, source, RejectingTarget(), False), label="r0",
        )
        sim._inflight[0] = ev
        assert sim.kernel.pop() is ev
        sim._on_migrate_arrive(ev)
        assert record.wasted_prefill_tokens == 512
        assert 0 not in source.engine.migrating  # source KV released


class TestPoolAutoscaling:
    def test_pools_scale_independently(self, model):
        """A prefill-heavy burst scales the prefill pool without the
        decode pool's scaler firing on the same signal."""
        wl = poisson_workload(
            40, arrival_rate=20.0, prompt_range=(2048, 6144),
            gen_range=(16, 32), rng=np.random.default_rng(4),
        )
        scaler = AutoscalerConfig(
            min_replicas=1, max_replicas=4, scale_up_queue=2.0, cooldown_s=1.0,
        )
        sim = _sim(model, ClusterConfig(
            disagg=DisaggConfig(
                n_prefill=1, n_decode=1,
                prefill_autoscaler=scaler, decode_autoscaler=scaler,
            ),
        ))
        m = sim.run(wl)
        assert m.completed == len(wl)
        pools = {e.pool for e in sim.scale_events}
        assert "prefill" in pools
        ups = [e for e in sim.scale_events if e.action == "up"]
        assert ups and all(e.pool in ("prefill", "decode") for e in ups)
        assert len([r for r in sim.replicas if r.role == "prefill"]) > 1

    def test_scale_events_carry_no_pool_in_unified_mode(self, model):
        wl = poisson_workload(
            30, arrival_rate=20.0, prompt_range=(2048, 6144),
            gen_range=(16, 32), rng=np.random.default_rng(4),
        )
        sim = _sim(model, ClusterConfig(
            n_replicas=1,
            autoscaler=AutoscalerConfig(
                min_replicas=1, max_replicas=4, scale_up_queue=2.0,
                cooldown_s=1.0,
            ),
        ))
        sim.run(wl)
        assert sim.scale_events
        assert all(e.pool == "" for e in sim.scale_events)


class TestWarmBlockVeto:
    class _FakeReplica:
        def __init__(self, replica_id, outstanding_tokens, warm_blocks):
            self.replica_id = replica_id
            self.outstanding_tokens = outstanding_tokens
            self.warm_blocks = warm_blocks

    def test_veto_protects_warm_replicas(self):
        scaler = Autoscaler(AutoscalerConfig(warm_block_veto=8))
        cold = self._FakeReplica(0, outstanding_tokens=500, warm_blocks=2)
        warm = self._FakeReplica(1, outstanding_tokens=10, warm_blocks=32)
        # Without the veto the near-idle warm replica would be drained;
        # with it the busier cold replica is picked instead.
        assert scaler.pick_victim([cold, warm]) is cold
        assert Autoscaler(AutoscalerConfig()).pick_victim([cold, warm]) is warm

    def test_all_warm_means_no_victim(self):
        scaler = Autoscaler(AutoscalerConfig(warm_block_veto=1))
        replicas = [self._FakeReplica(i, 100, warm_blocks=4) for i in range(3)]
        assert scaler.pick_victim(replicas) is None

    def test_veto_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(warm_block_veto=0)


class TestUnifiedModeUnchanged:
    def test_unified_run_reports_no_migration_activity(self, model):
        wl = _workload(n=10)
        m = _sim(model, ClusterConfig(n_replicas=2, policy="least_kv")).run(wl)
        assert m.completed == len(wl)
        assert m.migrations == 0
        assert m.migrated_bytes == 0.0
        assert m.local_decode_fallbacks == 0
        d = m.as_dict()
        assert d["p50_handoff_latency_s"] is None
        assert d["p99_handoff_latency_s"] is None

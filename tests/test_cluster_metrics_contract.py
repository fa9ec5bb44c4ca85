"""The ``ClusterMetrics`` contract: one summarizer, same numbers.

``summarize_cluster`` is :func:`repro.serving.metrics.summarize` over
every record in the fleet plus fleet-only fields.  The key list and the
values below were produced by the earlier, separately written cluster
summarizer on the same seeded run; the shared summarizer must keep every
key and reproduce every value.  ``fairness_jain`` may move by one ulp:
the shared summarizer folds tenants in sorted order.
"""

import math

import numpy as np
import pytest

from repro.cluster import SLO, ClusterConfig, ClusterSimulator, DisaggConfig, FaultConfig
from repro.cluster.metrics import ClusterMetrics
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.prefix import PrefixCacheConfig
from repro.recover import RecoverConfig
from repro.serving import zipf_shared_workload
from repro.serving.engine import EngineConfig
from repro.serving.metrics import ServingMetrics, summarize

#: ``ClusterMetrics.as_dict()`` keys of the separately written summarizer.
PARENT_KEYS = (
    "completed", "total", "makespan_s", "throughput_tok_s", "goodput_rps",
    "slo_attainment", "p50_ttft_s", "p95_ttft_s", "p99_ttft_s", "p50_tpot_s",
    "p95_tpot_s", "p99_tpot_s", "preemptions", "peak_replicas", "final_replicas",
    "scale_ups", "scale_downs", "failed", "failed_rate", "retries",
    "wasted_prefill_tokens", "wasted_decode_tokens", "crashes", "stalls", "timeouts",
    "downtime_s", "availability", "rejected", "shed", "brownout_tokens",
    "breaker_trips", "p50_queue_delay_s", "p95_queue_delay_s", "p99_queue_delay_s",
    "prefix_hit_ratio", "prefill_tokens_saved", "shared_blocks", "cow_copies",
    "fairness_jain", "migrations", "migrated_bytes", "migration_retries",
    "salvage_recomputed_tokens", "local_decode_fallbacks", "p50_handoff_latency_s",
    "p99_handoff_latency_s", "migration_drops", "migration_corruptions", "link_stalls",
    "warm_restarts", "cold_restores", "snapshots_taken", "snapshot_corruptions",
    "snapshot_salvages", "snapshot_bytes", "recovered_requests", "recoveries",
    "restored_prefill_tokens", "restored_decode_tokens", "drains", "rolling_restarts",
)

#: Its values on :func:`_faulted_run`.
PARENT_VALUES = {
    "completed": 80,
    "total": 80,
    "makespan_s": 46.0,
    "throughput_tok_s": 285.95652173913044,
    "goodput_rps": 1.5217391304347827,
    "slo_attainment": 0.875,
    "p50_ttft_s": 0.09789684367743012,
    "p95_ttft_s": 0.5728945800188677,
    "p99_ttft_s": 0.6452233520165978,
    "p50_tpot_s": 0.019139980448637555,
    "p95_tpot_s": 0.0334384283084737,
    "p99_tpot_s": 0.03712761073482576,
    "preemptions": 0,
    "peak_replicas": 4,
    "final_replicas": 4,
    "scale_ups": 0,
    "scale_downs": 0,
    "failed": 0,
    "failed_rate": 0.0,
    "retries": 0,
    "wasted_prefill_tokens": 0,
    "wasted_decode_tokens": 408,
    "crashes": 4,
    "stalls": 1,
    "timeouts": 0,
    "downtime_s": 8.0,
    "availability": 0.9565217391304348,
    "rejected": 0,
    "shed": 0,
    "brownout_tokens": 0,
    "breaker_trips": 0,
    "p50_queue_delay_s": 0.07914267767174132,
    "p95_queue_delay_s": 4.382302834863621,
    "p99_queue_delay_s": 5.724984300370637,
    "prefix_hit_ratio": 0.46242616214365206,
    "prefill_tokens_saved": 54016,
    "shared_blocks": 570,
    "cow_copies": 0,
    "fairness_jain": 0.8799671817947489,
    "migrations": 80,
    "migrated_bytes": 3579911680.0,
    "migration_retries": 10,
    "salvage_recomputed_tokens": 1865,
    "local_decode_fallbacks": 0,
    "p50_handoff_latency_s": 0.00020613724444462633,
    "p99_handoff_latency_s": 0.5005088513422221,
    "migration_drops": 9,
    "migration_corruptions": 9,
    "link_stalls": 1,
    "warm_restarts": 4,
    "cold_restores": 0,
    "snapshots_taken": 88,
    "snapshot_corruptions": 3,
    "snapshot_salvages": 3,
    "snapshot_bytes": 5790042880.0,
    "recovered_requests": 12,
    "recoveries": 12,
    "restored_prefill_tokens": 8481,
    "restored_decode_tokens": 1022,
    "drains": 0,
    "rolling_restarts": 0,
}


def _faulted_run():
    """Crashes, stalls, link faults, prefix pools, a 2P+2D split and
    checkpointed warm restart on one seeded Zipf workload."""
    requests = zipf_shared_workload(
        80, 6.0, n_tenants=12, zipf_s=1.1, rng=np.random.default_rng(5)
    )
    config = ClusterConfig(
        policy="least_kv",
        slo=SLO(ttft_s=0.3, tpot_s=0.05),
        engine=EngineConfig(prefix=PrefixCacheConfig()),
        faults=FaultConfig(
            seed=6, crash_rate=0.08, crash_downtime_s=2.0, stall_rate=0.03,
            migration_drop_rate=0.1, migration_corrupt_rate=0.1, link_stall_rate=0.05,
        ),
        disagg=DisaggConfig(n_prefill=2, n_decode=2),
        recover=RecoverConfig(snapshot_interval_s=2.0, corrupt_rate=0.3, seed=1),
    )
    sim = ClusterSimulator(ModelGeometry.phi3_medium(), METHODS["turbo4"], config)
    return sim, sim.run(requests)


@pytest.fixture(scope="module")
def faulted():
    return _faulted_run()


class TestClusterMetricsContract:
    def test_parent_keys_survive(self, faulted):
        _sim, m = faulted
        assert set(PARENT_KEYS) <= set(m.as_dict())

    def test_parent_values_reproduce(self, faulted):
        _sim, m = faulted
        d = m.as_dict()
        for key in PARENT_KEYS:
            if key == "fairness_jain":
                continue
            assert d[key] == PARENT_VALUES[key], key
            assert type(d[key]) is type(PARENT_VALUES[key]), key
        # Tenant attainments are folded in sorted order now: at most 1 ulp.
        old = PARENT_VALUES["fairness_jain"]
        assert abs(d["fairness_jain"] - old) <= math.ulp(old)

    def test_shared_fields_are_summarize_over_all_records(self, faulted):
        sim, m = faulted
        assert isinstance(m, ServingMetrics)
        records = [r for rep in sim.replicas for r in rep.records.values()]
        records += list(sim.failed.values()) + list(sim.rejected.values())
        base = summarize(
            records, m.makespan, sim.config.slo, sim.method.kv_bits,
            shared_blocks=m.shared_blocks,
        )
        assert ServingMetrics(**{
            name: getattr(m, name) for name in ServingMetrics.__dataclass_fields__
        }) == base

    def test_fleet_fields_default(self):
        m = ClusterMetrics(
            completed=0, total=0, makespan=0.0, output_tokens=0,
            throughput_tokens_per_s=0.0, mean_ttft=0.0, p50_ttft=0.0, p95_ttft=0.0,
            p99_ttft=0.0, mean_tpot=0.0, p50_tpot=0.0, p95_tpot=0.0, p99_tpot=0.0,
            p50_queue_delay=0.0, p95_queue_delay=0.0, p99_queue_delay=0.0,
            preemptions=0,
        )
        assert m.peak_replicas == m.final_replicas == 0
        assert m.availability == 1.0 and m.failed_rate == 0.0

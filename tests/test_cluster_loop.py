"""The cluster event loop: its handler table and its behaviour across
feature combinations.

The golden fixtures (``tests/test_trace_replay.py``) pin one engine run,
one plain faulted cluster and one faulted disaggregated fleet.  The rest
of the cluster loop — per-pool autoscaling, circuit breakers, cluster
admission, checkpoints with warm restart, graceful drains and rolling
restarts, prefix pools with affinity routing — is pinned here: each case
runs a small seeded fleet into a :class:`repro.sim.ListTraceSink` and
compares the blake2b digest of its trace, and of its metrics dict, to
literal values.  Any change to event order, time arithmetic or
accounting in any branch of :class:`repro.cluster.ClusterSimulator`
moves a digest and names the case it broke.

After an intentional semantics change, print the new values with::

    PYTHONPATH=src python tests/test_cluster_loop.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSimulator,
    DisaggConfig,
    FaultConfig,
)
from repro.cluster.simulator import CLUSTER_EVENT_ORDER
from repro.overload.admission import AdmissionConfig
from repro.overload.breaker import BreakerConfig
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.prefix import PrefixCacheConfig
from repro.recover import FleetOp, RecoverConfig
from repro.serving import EngineConfig, poisson_workload
from repro.serving.workload import zipf_shared_workload
from repro.sim import ListTraceSink, trace_digest

#: Kinds the cluster schedules; order classes of 10 and up are marks.
SCHEDULED = {kind for kind, order in CLUSTER_EVENT_ORDER.items() if order < 10}

#: Crashes, stalls and TTFT timeouts tight enough that breakers trip.
FLAKY = FaultConfig(
    seed=11, crash_rate=0.15, stall_rate=0.1, crash_downtime_s=2.0,
    stall_duration_s=3.0, stall_slowdown=4.0, request_timeout_s=1.5,
    max_retries=4, horizon_pad_s=5.0,
)

#: ``FLAKY`` plus every migration fault: drops, corruption, link stalls.
FLAKY_LINK = FaultConfig(
    seed=11, crash_rate=0.15, stall_rate=0.1, crash_downtime_s=2.0,
    stall_duration_s=3.0, stall_slowdown=4.0, request_timeout_s=4.0,
    max_retries=4, migration_drop_rate=0.3, migration_corrupt_rate=0.2,
    max_migration_retries=1, link_stall_rate=0.1, link_stall_duration_s=3.0,
    horizon_pad_s=5.0,
)

SCALER = AutoscalerConfig(
    min_replicas=1, max_replicas=3, scale_up_queue=2.0,
    scale_down_queue=0.5, cooldown_s=1.0,
)

SNAPSHOTS = RecoverConfig(snapshot_interval_s=1.0, corrupt_rate=0.3, seed=2)


def _poisson(n, rate, seed):
    return poisson_workload(
        n, arrival_rate=rate, prompt_range=(1024, 4096), gen_range=(32, 128),
        rng=np.random.default_rng(seed),
    )


def _case_unified_autoscale_breaker():
    config = ClusterConfig(
        n_replicas=1, policy="least_tokens", autoscaler=SCALER, faults=FLAKY,
        breaker=BreakerConfig(failure_threshold=1, open_duration_s=2.0),
        admission=AdmissionConfig(max_queue_depth=6, defer_retry_s=0.5),
    )
    return config, _poisson(40, 10.0, 1)


def _case_unified_recover_ops():
    config = ClusterConfig(
        n_replicas=3, policy="least_kv", faults=FLAKY, recover=SNAPSHOTS,
        engine=EngineConfig(prefill_chunk=512),
        ops=(
            FleetOp(time=1.0, kind="drain", replica_id=1),
            FleetOp(time=2.5, kind="rolling_restart", poll_s=0.25),
        ),
    )
    return config, _poisson(40, 8.0, 2)


def _case_unified_prefix_affinity():
    config = ClusterConfig(
        n_replicas=2, policy="affinity", faults=FLAKY,
        engine=EngineConfig(prefix=PrefixCacheConfig()),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, scale_up_queue=2.0,
            scale_down_queue=0.5, cooldown_s=1.0, warm_block_veto=4,
        ),
    )
    workload = zipf_shared_workload(
        50, arrival_rate=10.0, n_tenants=8, prefix_len_range=(512, 2048),
        gen_range=(32, 96), rng=np.random.default_rng(3),
    )
    return config, workload


def _case_disagg_pool_autoscale():
    config = ClusterConfig(
        faults=FLAKY_LINK,
        breaker=BreakerConfig(failure_threshold=1, open_duration_s=2.0),
        disagg=DisaggConfig(
            n_prefill=1, n_decode=1,
            prefill_autoscaler=SCALER, decode_autoscaler=SCALER,
        ),
    )
    return config, _poisson(40, 10.0, 4)


def _case_disagg_recover_ops():
    config = ClusterConfig(
        faults=FLAKY_LINK, recover=SNAPSHOTS,
        engine=EngineConfig(prefill_chunk=512),
        admission=AdmissionConfig(max_queue_depth=8, defer_retry_s=0.5),
        disagg=DisaggConfig(n_prefill=2, n_decode=2),
        ops=(
            FleetOp(time=1.5, kind="drain", replica_id=2),
            FleetOp(time=3.0, kind="rolling_restart", poll_s=0.25),
        ),
    )
    return config, _poisson(40, 8.0, 5)


CASES = {
    "unified_autoscale_breaker": _case_unified_autoscale_breaker,
    "unified_recover_ops": _case_unified_recover_ops,
    "unified_prefix_affinity": _case_unified_prefix_affinity,
    "disagg_pool_autoscale": _case_disagg_pool_autoscale,
    "disagg_recover_ops": _case_disagg_recover_ops,
}

#: ``(trace digest, metrics digest)`` per case.
DIGESTS = {
    "disagg_pool_autoscale": ("4c3e155ab0d455940725ce80d7f52e21", "4ecdac8da13d8d4c817216a76b3bdc6a"),
    "disagg_recover_ops": ("ed1883ec6b6e2eabbc904d3501281ac1", "7f0bb3e053686f2da404acc64f703f84"),
    "unified_autoscale_breaker": ("fabe49edab53594d510bb4e023b4cec1", "1e3af8db3267321897c9b8d6f703277f"),
    "unified_prefix_affinity": ("02a233bceb3ac43339e81e38aa256476", "998883ac615626368da0e7fa59713fb7"),
    "unified_recover_ops": ("e0e0a8b8162d5b1ed946c82f0495cf71", "d025388a980880ccb18112904f65a6ca"),
}

#: Trace kinds each case must contain, so no pin is vacuous.
EXERCISES = {
    "unified_autoscale_breaker": {"scale_up", "scale_down", "breaker_trip", "redispatch"},
    "unified_recover_ops": {"snapshot_salvage", "warm_restore", "wal_replay", "drain_done", "rejoin"},
    "unified_prefix_affinity": {"scale_up", "scale_down", "fault"},
    "disagg_pool_autoscale": {"scale_up", "breaker_trip", "migrate_corrupt", "migrate_reroute", "local_fallback"},
    "disagg_recover_ops": {"warm_restore", "snapshot_salvage", "requeue", "drain_done", "migrate_drop", "local_fallback"},
}


def run_case(name):
    config, workload = CASES[name]()
    sink = ListTraceSink()
    sim = ClusterSimulator(
        ModelGeometry.phi3_medium(), METHODS["turbo4"], config, trace=sink
    )
    metrics = sim.run(workload)
    blob = json.dumps(metrics.as_dict(), sort_keys=True, default=repr)
    return sink.records, metrics, hashlib.blake2b(
        blob.encode(), digest_size=16
    ).hexdigest()


def test_every_scheduled_kind_has_a_handler_and_no_mark_does():
    assert set(ClusterSimulator._HANDLERS) == SCHEDULED


@pytest.mark.parametrize("config", [ClusterConfig(), ClusterConfig(disagg=DisaggConfig())],
                         ids=["unified", "disagg"])
def test_a_finished_simulator_is_freed_without_the_cycle_collector(config):
    sim = ClusterSimulator(ModelGeometry.phi3_medium(), METHODS["turbo4"], config)
    sim.run(_poisson(6, 5.0, 0))
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_digests_are_pinned(name):
    records, metrics, metrics_digest = run_case(name)
    assert metrics.completed + metrics.failed + metrics.rejected + metrics.shed == metrics.total
    kinds = {r["ev"] for r in records}
    assert EXERCISES[name] <= kinds, f"{name} no longer exercises {EXERCISES[name] - kinds}"
    scheduled = {
        r["ev"] for r in records if r["clock"] == "cluster" and r["action"] == "schedule"
    }
    assert scheduled <= SCHEDULED
    assert (trace_digest(records), metrics_digest) == DIGESTS[name]


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    for name in sorted(CASES):
        records, metrics, metrics_digest = run_case(name)
        kinds = {r["ev"] for r in records}
        print(f"    {name!r}: ({trace_digest(records)!r}, {metrics_digest!r}),"
              f"  # {len(records)} records, missing {sorted(EXERCISES[name] - kinds)}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()

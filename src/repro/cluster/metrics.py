"""Cluster-level SLOs and summary metrics.

The single-engine :class:`repro.serving.metrics.ServingMetrics` reports
throughput and latency moments; a fleet operator additionally cares about
**goodput** — how many requests per second finish *within their service
level objective* — and tail attainment.  Following the SLO framing of
serving systems like DistServe/AlpaServe, a request counts toward goodput
only if both deadlines hold:

* **TTFT** (time to first token) ≤ ``slo.ttft_s`` — responsiveness;
* **TPOT** (mean time per output token) ≤ ``slo.tpot_s`` — streaming rate.

Everything here is pure aggregation over the per-request
:class:`~repro.serving.request.RequestRecord` objects collected from all
replicas, so conservation properties ("every request finishes exactly
once") are checkable by tests from the same data the operator sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# SLO moved to repro.serving.metrics in the overload PR (the engine needs
# deadlines for deadline-aware shedding); re-exported here unchanged.
from repro.serving.metrics import SLO, ServingMetrics, summarize
from repro.serving.request import RequestRecord

__all__ = [
    "SLO",
    "ReplicaStats",
    "ScaleEvent",
    "FaultCounters",
    "ClusterMetrics",
    "summarize_cluster",
]


@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica share of the run."""

    replica_id: int
    completed: int
    peak_running: int
    preemptions: int
    kv_utilization: float
    drained: bool


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action."""

    time: float
    action: str  # "up" | "down"
    n_active: int  # active replicas after the action
    #: Which pool scaled: "" for unified fleets, "prefill"/"decode" when
    #: the disaggregated pools autoscale independently.
    pool: str = ""


@dataclass
class FaultCounters:
    """Running tally of injected faults and their recovery work.

    Mutable: the simulator increments it during the run and freezes the
    values into :class:`ClusterMetrics` at summary time.
    """

    crashes: int = 0
    stalls: int = 0
    timeouts: int = 0
    #: Re-dispatches actually issued (a failed request's last eviction
    #: consumes a retry but produces no dispatch).
    redispatches: int = 0
    #: Total scheduled replica downtime (crash durations).
    downtime_s: float = 0.0
    # -- migration-link faults (disaggregated mode) --------------------------
    #: KV transfers dropped in flight (each consumes migration budget).
    migration_drops: int = 0
    #: KV transfers that arrived with corrupted payload bytes.
    migration_corruptions: int = 0
    #: Link-congestion stall events on the inter-pool link.
    link_stalls: int = 0
    # -- checkpointing / warm restart (repro.recover) ------------------------
    #: Crashed replicas that came back through the snapshot+WAL path,
    #: and the ones that degraded all the way to a cold start.
    warm_restarts: int = 0
    cold_restores: int = 0
    snapshots_taken: int = 0
    #: Snapshot epochs found corrupted at restore time, and how many of
    #: those salvage recovered a usable prefix from.
    snapshot_corruptions: int = 0
    snapshot_salvages: int = 0
    #: Bytes persisting every snapshot cost at the admitted KV widths —
    #: the compression headline: turbo4 checkpoints ~4x cheaper than FP16.
    snapshot_bytes: float = 0.0
    #: Requests re-entered through restore on a warm restart, and the
    #: checkpointed tokens they resumed with instead of recomputing.
    recovered_requests: int = 0
    restored_prefill_tokens: int = 0
    restored_decode_tokens: int = 0
    #: Operator-initiated fleet ops completed (see repro.recover.ops).
    drains: int = 0
    rolling_restarts: int = 0


#: The :class:`FaultCounters` tallies a :class:`ClusterMetrics` carries.
_COUNTER_FIELDS = (
    "crashes", "stalls", "timeouts", "downtime_s",
    "migration_drops", "migration_corruptions", "link_stalls",
    "warm_restarts", "cold_restores", "snapshots_taken",
    "snapshot_corruptions", "snapshot_salvages", "snapshot_bytes",
    "recovered_requests", "restored_prefill_tokens", "restored_decode_tokens",
    "drains", "rolling_restarts",
)


@dataclass(frozen=True)
class ClusterMetrics(ServingMetrics):
    """What a fleet operator reads off a cluster run: the serving summary
    of every request record in the fleet, plus fleet-only state."""

    peak_replicas: int = 0
    final_replicas: int = 0
    #: Circuit-breaker trips summed over all replicas.
    breaker_trips: int = 0
    #: Fault-recovery re-dispatches and warm recoveries summed over all
    #: requests.
    retries: int = 0
    recoveries: int = 0
    # -- FaultCounters tallies (see there) -----------------------------------
    crashes: int = 0
    stalls: int = 0
    timeouts: int = 0
    #: Total scheduled replica downtime (seconds of replica-time lost).
    downtime_s: float = 0.0
    migration_drops: int = 0
    migration_corruptions: int = 0
    link_stalls: int = 0
    # -- checkpointing / warm restart (repro.recover; zero when off) ---------
    warm_restarts: int = 0
    cold_restores: int = 0
    snapshots_taken: int = 0
    snapshot_corruptions: int = 0
    snapshot_salvages: int = 0
    snapshot_bytes: float = 0.0
    recovered_requests: int = 0
    restored_prefill_tokens: int = 0
    restored_decode_tokens: int = 0
    drains: int = 0
    rolling_restarts: int = 0
    replicas: Tuple[ReplicaStats, ...] = field(default=())
    scale_events: Tuple[ScaleEvent, ...] = field(default=())

    @property
    def failed_rate(self) -> float:
        """Fraction of submitted requests that terminally failed."""
        return self.failed / self.total if self.total else 0.0

    @property
    def availability(self) -> float:
        """Fraction of fleet time not lost to crash downtime.

        Approximated against the run's makespan and final fleet size; a
        coarse operator signal, not a per-replica uptime integral.  The
        simulator clips each crash's downtime window to the makespan
        (:func:`repro.cluster.faults.downtime_within`) before it lands
        in ``downtime_s``, so scheduled downtime extending past the end
        of the run never deflates this number; the clamp here then only
        guards the ratio itself, pinning availability to [0, 1] under
        any schedule.
        """
        capacity = self.makespan * max(self.final_replicas, 1)
        if capacity <= 0:
            return 1.0
        return min(1.0, max(0.0, 1.0 - self.downtime_s / capacity))

    def _raw_dict(self) -> dict:
        d = super()._raw_dict()
        d.update(
            {
                "peak_replicas": self.peak_replicas,
                "final_replicas": self.final_replicas,
                "scale_ups": sum(1 for e in self.scale_events if e.action == "up"),
                "scale_downs": sum(1 for e in self.scale_events if e.action == "down"),
                "failed_rate": self.failed_rate,
                "availability": self.availability,
                "breaker_trips": self.breaker_trips,
                "retries": self.retries,
                "recoveries": self.recoveries,
            }
        )
        d.update((f, getattr(self, f)) for f in _COUNTER_FIELDS)
        return d


def summarize_cluster(
    records_by_replica: Dict[int, List[RequestRecord]],
    slo: SLO,
    makespan: float,
    replica_stats: Sequence[ReplicaStats] = (),
    scale_events: Sequence[ScaleEvent] = (),
    peak_replicas: int = 0,
    final_replicas: int = 0,
    failed_records: Sequence[RequestRecord] = (),
    fault_counters: Optional[FaultCounters] = None,
    rejected_records: Sequence[RequestRecord] = (),
    base_kv_bits: Optional[float] = None,
    breaker_trips: int = 0,
    shared_blocks: int = 0,
) -> ClusterMetrics:
    """Aggregate per-replica request records into fleet metrics.

    Every per-request field is :func:`repro.serving.metrics.summarize`
    over all the fleet's records; the fleet-only fields come from the
    arguments.  ``failed_records`` are requests that exhausted their
    retry budget; they live with the cluster (their last replica evicted
    them), count toward ``total`` and the fault accounting, and never
    toward goodput.  ``rejected_records`` are requests turned away by
    *cluster-level* admission before reaching any replica (engine-level
    rejections and sheds stay in their replica's records); they too count
    toward ``total`` so conservation is checkable from the returned data.
    """
    counters = fault_counters if fault_counters is not None else FaultCounters()
    records = [r for recs in records_by_replica.values() for r in recs]
    records += list(failed_records)
    records += list(rejected_records)
    serving = summarize(
        records, makespan, slo, base_kv_bits, shared_blocks=shared_blocks
    )
    return ClusterMetrics(
        **vars(serving),
        **{f: getattr(counters, f) for f in _COUNTER_FIELDS},
        peak_replicas=peak_replicas,
        final_replicas=final_replicas,
        breaker_trips=breaker_trips,
        retries=sum(r.retries for r in records),
        recoveries=sum(r.recoveries for r in records),
        replicas=tuple(replica_stats),
        scale_events=tuple(scale_events),
    )

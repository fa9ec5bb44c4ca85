"""Multi-replica cluster serving simulator.

Composes N tensor-parallel :class:`~repro.cluster.replica.Replica` engines
organised in pools: a unified fleet is one pool, a disaggregated fleet a
prefill pool and a decode pool.  Each pool routes and autoscales its own
members.  Time runs as a discrete-event loop — the fleet's timeline of
request arrivals, fault-injection events, recovery events, and retry
re-dispatches lives on one :class:`repro.sim.EventScheduler` (the same
kernel the engine's closed loop drives), which owns same-instant
ordering, cancellation, monotonic time, and optional per-event trace
output.  Every fleet layout runs the same loop, one same-instant batch
of events at a time:

1. **Synchronise** — before handling the event at time ``t``, every busy
   replica steps forward until its local clock reaches ``t`` (engine
   steps are atomic, so a replica may overshoot slightly — the same
   "decision reads state as of the last completed iteration" staleness a
   real router has); idle replicas jump their clocks to ``t``.
   Disaggregated fleets pull the prefill pool forward *before* each
   instant (a hook the kernel's batch pop runs), so a KV transfer starts
   at the true prefill-done time, not at the next event.
2. **Autoscale** — each pool's optional queue-depth controller may add a
   fresh replica or mark one draining (no new dispatches; it finishes
   what it holds and retires when empty); a pool that crashes below its
   floor is topped back up immediately.
3. **Handle the event** — the handler table maps each scheduled kind to
   one function: arrivals and re-dispatches are routed to a dispatchable
   replica; crash/stall faults hit a victim chosen by the event's salt;
   recoveries bring replicas back; timeouts pull back requests still
   waiting for their first token; KV handoffs land on the decode pool.
4. **Drain** — once the kernel is empty, replicas run to completion
   (disaggregated fleets one step per replica per round, so late
   handoffs keep flowing as new events).

Fault recovery (see :mod:`repro.cluster.faults`): a crash evicts every
admitted and queued request on the victim; each evicted request is
re-dispatched through the router after capped exponential backoff, its
KV re-prefilled at real cost on the new replica.  A request whose retry
budget is exhausted is recorded as ``FAILED`` — the run degrades, it
never crashes or loses a request.

Overload protection (see :mod:`repro.overload`): cluster-level admission
gates fresh arrivals on fleet-aggregate queue depth and KV pressure
before any replica is chosen (re-dispatches of already-admitted work
bypass it); per-replica circuit breakers steer dispatches away from
replicas that keep timing out; engine-level admission/shedding/brownout
run inside each replica when configured on the engine.  Every submitted
request still terminates exactly once —
``completed + failed + rejected + shed == total`` — which the test
suite asserts from the returned data, byte-identical across reruns.

Determinism is verified at the event level: pass a
:class:`repro.sim.TraceSink` and every kernel operation plus every
replica's request-lifecycle marks stream into one diffable trace whose
blake2b digest must reproduce seed-for-seed
(``python -m repro cluster --faults --trace run.jsonl``, then
``python -m repro trace-diff`` between reruns).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.faults import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    downtime_within,
)
from repro.cluster.metrics import (
    SLO,
    ClusterMetrics,
    FaultCounters,
    ReplicaStats,
    ScaleEvent,
    summarize_cluster,
)
from repro.cluster.replica import Replica
from repro.cluster.router import Router, make_router
from repro.migrate import (
    MigrationConfig,
    build_payload,
    corrupt_payload,
    kv_wire_bytes,
    receive_payload,
)
from repro.overload.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionVerdict,
)
from repro.overload.breaker import BreakerConfig, CircuitBreaker
from repro.recover import (
    FleetOp,
    RecoverConfig,
    ReplicaRecoveryState,
    take_snapshot,
    verify_snapshot,
)
from repro.perf.attention_costs import MethodSpec
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, GPUSpec
from repro.serving.engine import EngineConfig
from repro.serving.request import Request, RequestRecord, RequestStatus
from repro.sim.kernel import Event, EventScheduler
from repro.sim.trace import TraceSink

__all__ = [
    "CLUSTER_EVENT_ORDER",
    "ClusterConfig",
    "ClusterSimulator",
    "DisaggConfig",
    "Pool",
]

# The cluster's closed event taxonomy (see :mod:`repro.sim.kernel`).
# Same-instant events resolve in a fixed order so runs are reproducible:
# replicas recover and stalls clear before new work is placed, faults
# strike before dispatches (a request arriving "as" a replica dies never
# lands on the corpse), and timeout checks run after everything else.
# The kernel enforces the map's closure — a new event kind without an
# order class here raises instead of silently sorting by name.
CLUSTER_EVENT_ORDER = {
    "recover": 0,
    "stall_end": 1,
    "link_stall_end": 1,
    "fault": 2,
    "arrival": 3,
    "redispatch": 3,
    # KV handoffs share the work-placement order class: a transfer
    # arriving "as" the timeout deadline fires still beats the deadline.
    "migrate_arrive": 3,
    "migrate_retry": 3,
    "timeout": 4,
    # lifecycle marks (not scheduled; registered to pin the taxonomy).
    # Existing order-class values are frozen by the golden trace
    # fixtures — new kinds only ever append, never renumber.
    "scale_up": 10,
    "scale_down": 11,
    "breaker_trip": 12,
    "migrate_send": 13,
    "migrate_drop": 14,
    "migrate_corrupt": 15,
    "migrate_reroute": 16,
    "handoff_done": 17,
    "local_fallback": 18,
    # -- checkpointing / warm restart / fleet ops (repro.recover) ------------
    # None of these kinds ever appear unless ``ClusterConfig.recover`` or
    # ``ClusterConfig.ops`` is set, so golden traces of every existing
    # scenario are byte-identical.  Scheduled kinds: a warm restart ends
    # a crash's downtime in the recover slot (before faults and work
    # placement, like "recover"); fleet ops and their polls share the
    # fault/work slots; snapshots run last at their instant so they
    # checkpoint the post-event state.
    "warm_restart": 0,
    "fleet_op": 2,
    "requeue": 3,
    "op_check": 4,
    "snapshot": 5,
    # lifecycle marks (append-only, values frozen by golden fixtures).
    "snapshot_taken": 19,
    "snapshot_corrupt": 20,
    "snapshot_salvage": 21,
    "warm_restore": 22,
    "cold_restore": 23,
    "wal_replay": 24,
    "drain_begin": 25,
    "drain_done": 26,
    "rejoin": 27,
}


@dataclass(frozen=True)
class DisaggConfig:
    """Disaggregated prefill/decode fleet layout (see :mod:`repro.migrate`).

    Replicas split into a prefill pool (engines run ``prefill_only``:
    requests park at prefill completion with KV pinned) and a decode
    pool; completed prefills migrate across the inter-pool link as
    first-class cluster events, charged real width-dependent transfer
    time.  Each pool routes and autoscales independently.
    """

    n_prefill: int = 1
    n_decode: int = 2
    #: Routing policy within each pool.  Prefill placement is compute-
    #: bound (spread by outstanding tokens); decode placement is KV-bound.
    prefill_policy: str = "least_tokens"
    decode_policy: str = "least_kv"
    migration: MigrationConfig = MigrationConfig()
    #: Per-pool autoscalers; ``None`` pins that pool at its initial size.
    #: ``ClusterConfig.autoscaler`` is ignored in disaggregated mode.
    prefill_autoscaler: Optional[AutoscalerConfig] = None
    decode_autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        if self.n_prefill < 1 or self.n_decode < 1:
            raise ValueError("each pool needs at least one replica")


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet tunables."""

    n_replicas: int = 2
    #: Tensor-parallel degree of every replica (homogeneous fleet).
    tp: int = 1
    policy: str = "round_robin"
    slo: SLO = SLO()
    engine: EngineConfig = EngineConfig()
    #: ``None`` disables autoscaling (fixed fleet of ``n_replicas``).
    autoscaler: Optional[AutoscalerConfig] = None
    #: ``None`` disables fault injection (the healthy-hardware baseline).
    faults: Optional[FaultConfig] = None
    #: Cluster-level admission control: fresh arrivals are gated on the
    #: fleet's aggregate queue depth and mean KV pressure *before* any
    #: replica is chosen.  Fault-recovery re-dispatches bypass it (their
    #: work is already admitted and partially paid for).
    admission: Optional[AdmissionConfig] = None
    #: Per-replica circuit breaker on consecutive dispatch timeouts, so
    #: one sick replica spills its load instead of eating retry storms.
    breaker: Optional[BreakerConfig] = None
    #: Global engine-iteration guard across the whole fleet.
    max_steps: int = 20_000_000
    #: Disaggregated prefill/decode mode; ``None`` keeps the classic
    #: unified fleet (``n_replicas`` is ignored when set — the fleet is
    #: ``n_prefill + n_decode``).
    disagg: Optional[DisaggConfig] = None
    #: Crash-consistent checkpointing + warm restart (see
    #: :mod:`repro.recover`); ``None`` keeps the classic cold-retry
    #: recovery, byte-identical to the pre-checkpoint behaviour.
    recover: Optional[RecoverConfig] = None
    #: Operator-initiated fleet operations (graceful drains, rolling
    #: restarts), executed as first-class cluster events.
    ops: Tuple[FleetOp, ...] = ()

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")


@dataclass
class Pool:
    """One routing and autoscaling domain: the replicas of one role."""

    #: ``Replica.role`` of the members: "unified", "prefill" or "decode".
    role: str
    router: Router
    #: ``None`` pins the pool at its initial size.
    autoscaler: Optional[Autoscaler]
    #: Initial member count.
    size: int

    @classmethod
    def build(
        cls, role: str, policy: str, autoscaler: Optional[AutoscalerConfig],
        size: int,
    ) -> "Pool":
        scaler = Autoscaler(autoscaler) if autoscaler is not None else None
        return cls(role, make_router(policy), scaler, size)

    @property
    def tag(self) -> str:
        """``ScaleEvent.pool`` and scale-mark prefix ("" when unified)."""
        return "" if self.role == "unified" else self.role


class ClusterSimulator:
    """Serve one arrival stream on a simulated replica fleet."""

    def __init__(
        self,
        model: ModelGeometry,
        method: MethodSpec,
        config: ClusterConfig = ClusterConfig(),
        gpu: GPUSpec = A100_80GB,
        trace: Optional[TraceSink] = None,
    ):
        self.model = model
        self.method = method
        self.config = config
        self.gpu = gpu
        #: Optional structured trace: the cluster's kernel and every
        #: replica's engine write interleaved records to this one sink.
        self.trace = trace
        #: The fleet's event kernel — the one timeline of arrivals,
        #: re-dispatches, faults, recoveries, and timeout deadlines.
        self.kernel = EventScheduler(
            CLUSTER_EVENT_ORDER, clock="cluster", trace=trace
        )
        self._engine_config = replace(config.engine, tp=config.tp)
        self._prefill_config = replace(self._engine_config, prefill_only=True)
        disagg = config.disagg
        if disagg is None:
            self.pools = [
                Pool.build("unified", config.policy, config.autoscaler, config.n_replicas)
            ]
        else:
            self.pools = [
                Pool.build("prefill", disagg.prefill_policy,
                           disagg.prefill_autoscaler, disagg.n_prefill),
                Pool.build("decode", disagg.decode_policy,
                           disagg.decode_autoscaler, disagg.n_decode),
            ]
        #: Arrivals and fault re-dispatches land here; in a disaggregated
        #: fleet completed prefills migrate to ``decode_pool`` (else None).
        self.entry_pool = self.pools[0]
        self.decode_pool = self.pools[1] if disagg is not None else None
        self.replicas: List[Replica] = []
        for pool in self.pools:
            for _ in range(pool.size):
                self.replicas.append(self._new_replica(len(self.replicas), pool.role))
        self.scale_events: List[ScaleEvent] = []
        self.fault_counters = FaultCounters()
        self.failed: Dict[int, RequestRecord] = {}
        #: Requests turned away by cluster-level admission (terminal).
        self.rejected: Dict[int, RequestRecord] = {}
        self.admission = (
            AdmissionController(config.admission)
            if config.admission is not None
            else None
        )
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.peak_replicas = len(self.replicas)
        self._steps = 0
        self._location: Dict[int, Replica] = {}
        #: Live timeout-deadline events by request id, cancelled when the
        #: request leaves the replica the deadline was armed against.
        self._timeout_events: Dict[int, Event] = {}
        #: Live in-flight migration events (arrive/retry) by request id —
        #: the cancellation handles a destination crash or a source
        #: eviction uses to revoke a transfer mid-flight.
        self._inflight: Dict[int, Event] = {}
        #: Overlapping link-congestion stalls currently active.
        self._active_link_stalls = 0
        self._injector = (
            FaultInjector(config.faults) if config.faults is not None else None
        )
        # -- checkpointing / warm restart / fleet ops (repro.recover) -----
        #: Per-replica checkpoint bookkeeping (lazy; only populated when
        #: ``config.recover`` is set).
        self._rstates: Dict[int, ReplicaRecoveryState] = {}
        #: Snapshot events currently scheduled — subtracted from the
        #: kernel's length when deciding whether the chain should keep
        #: itself alive, so snapshots alone never prevent termination.
        self._live_snapshots = 0
        #: Fleet operations queued behind the single active one.
        self._op_backlog: List[dict] = []
        self._op_active: Optional[dict] = None
        #: Per-crash ``(crash_time, recovery_time)`` windows; at the end
        #: of a recovery-enabled run they replace the incremental
        #: ``downtime_s`` with the makespan-clipped figure.
        self._downtime_windows: List[Tuple[float, float]] = []

    # -- fleet management ---------------------------------------------------
    def _new_replica(self, replica_id: int, role: str) -> Replica:
        engine_config = (
            self._prefill_config if role == "prefill" else self._engine_config
        )
        return Replica(
            replica_id, self.model, self.method, engine_config, self.gpu,
            trace=self.trace, role=role,
        )

    @property
    def active_replicas(self) -> List[Replica]:
        """Replicas the fleet can count on: neither draining nor down."""
        return [r for r in self.replicas if r.dispatchable]

    def _members(self, pool: Pool) -> List[Replica]:
        """Dispatchable members of one pool."""
        return [r for r in self.replicas if r.role == pool.role and r.dispatchable]

    def _step_replica(self, replica: Replica) -> None:
        self._steps += 1
        if self._steps > self.config.max_steps:
            raise RuntimeError("cluster step limit exceeded (livelock?)")
        replica.step()

    def _advance_replica(self, replica: Replica, t: Optional[float]) -> None:
        """One advance quantum: a bulk decode stretch when the engine is in
        a homogeneous state (see ``ServingEngine.decode_steps``), else one
        scalar step.  Bulk steps count against ``max_steps`` one-for-one
        with the scalar steps they replace."""
        n = replica.engine.decode_steps(t)
        if n:
            self._steps += n
            if self._steps > self.config.max_steps:
                raise RuntimeError("cluster step limit exceeded (livelock?)")
        else:
            self._step_replica(replica)

    def _advance_fleet_to(self, t: float, role: Optional[str] = None) -> None:
        for replica in self.replicas:
            if replica.crashed or (role is not None and replica.role != role):
                continue  # a down replica holds no work and does not step
            while (
                replica.busy
                and replica.clock < t
                and not replica.engine.migration_blocked
            ):
                self._advance_replica(replica, t)
            if replica.engine.migration_blocked and replica.clock < t:
                # Admission is wedged behind KV pinned by in-flight
                # handoffs: only a cluster event can free it, so jump the
                # clock instead of burning 1e-6 s idle steps up to ``t``.
                replica.engine.clock = t
            replica.advance_to(t)

    def _pull_prefill_pool(self, t_next: float) -> None:
        """The ``before_instant`` hook of disaggregated fleets' batch pops.

        Prompts that complete between cluster events must start their
        transfer at the true prefill-completion time (still >= the
        kernel's clock), not at the next event's time — otherwise every
        handoff pays event-granularity latency.  A transfer scheduled here
        may land before ``t_next``; the kernel re-reads the head.
        """
        self._advance_fleet_to(t_next, role=self.entry_pool.role)
        self._collect_handoffs(self.kernel.now)

    def _autoscale(self, now: float) -> None:
        """Each pool's independent scaling decision."""
        for pool in self.pools:
            if pool.autoscaler is None:
                continue
            members = self._members(pool)
            decision = pool.autoscaler.decide(now, members)
            prefix = f"{pool.tag}:" if pool.tag else ""
            if decision == "up":
                replica = self._new_replica(len(self.replicas), pool.role)
                replica.started_at = now
                replica.advance_to(now)
                self.replicas.append(replica)
                self.peak_replicas = max(self.peak_replicas, len(self.active_replicas))
                n = len(self._members(pool))
                label = f"{prefix}n={n}"
            elif decision == "down":
                victim = pool.autoscaler.pick_victim(members)
                if victim is None:
                    continue  # every candidate holds warm cache; skip this round
                victim.draining = True
                n = len(self._members(pool))
                label = f"{prefix}replica{victim.replica_id}:n={n}"
            else:
                continue
            self.scale_events.append(
                ScaleEvent(time=now, action=decision, n_active=n, pool=pool.tag)
            )
            self.kernel.mark(f"scale_{decision}", label, time=now)

    # -- overload protection -------------------------------------------------
    def _breaker_for(self, replica: Replica) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        breaker = self.breakers.get(replica.replica_id)
        if breaker is None:
            breaker = self.breakers[replica.replica_id] = CircuitBreaker(
                self.config.breaker
            )
        return breaker

    def _fleet_signals(self, targets: List[Replica]) -> Tuple[int, float]:
        """(total queue depth, mean finite KV pressure) over ``targets``."""
        depth = sum(r.queue_depth for r in targets)
        pressures = [
            r.kv_pressure for r in targets if r.kv_pressure != float("inf")
        ]
        mean_kv = sum(pressures) / len(pressures) if pressures else float("inf")
        return depth, mean_kv

    def _candidates(self, pool: Pool, now: float) -> List[Replica]:
        """Dispatchable members of ``pool`` a router may choose from.

        Breakers are advisory at the fleet edge: prefer replicas whose
        breaker admits traffic, but never leave work unroutable when
        every breaker is open.
        """
        members = self._members(pool)
        if self.config.breaker is not None:
            allowed = [r for r in members if self._breaker_for(r).allows(now)]
            if allowed:
                return allowed
        return members

    def _cluster_admit(self, record: RequestRecord, now: float) -> bool:
        """Cluster-level admission for a first dispatch.  Returns whether
        dispatch should proceed now (DEFER re-enters the event kernel)."""
        if self.admission is None or record.retries > 0:
            return True
        targets = self._members(self.entry_pool)
        if not targets:
            # Fleet-down handling (park + retry) owns this case; admission
            # re-evaluates when the record is re-offered after recovery.
            return True
        depth, mean_kv = self._fleet_signals(targets)
        verdict, reason = self.admission.decide(record, now, depth, mean_kv)
        if verdict is AdmissionVerdict.REJECT:
            record.mark_rejected(now, reason)
            self.rejected[record.request.request_id] = record
            return False
        if verdict is AdmissionVerdict.DEFER:
            self.kernel.schedule(
                now + self.config.admission.defer_retry_s, "redispatch", record,
                label=f"r{record.request.request_id}:defer",
            )
            return False
        return True

    # -- dispatch and recovery ----------------------------------------------
    def _dispatch(
        self, record: RequestRecord, now: float, gate: bool = True
    ) -> None:
        # ``gate=False`` skips cluster admission: work re-routed off a
        # draining replica was already admitted once and must not be
        # double-charged against queue-depth or defer budgets.
        if gate and not self._cluster_admit(record, now):
            return
        # Disaggregated fleets prefill everything in the prefill pool —
        # including fault re-dispatches, whose KV died with their source.
        targets = self._candidates(self.entry_pool, now)
        if not targets:
            # Whole fleet (pool) is down/draining: park until recovery.
            downed = [r for r in self.replicas if r.crashed]
            if not downed:
                if self._op_active is not None:
                    # A fleet op has the whole pool draining at once; the
                    # drained replica rejoins within a poll interval.
                    self.kernel.schedule(
                        now + self._op_active["op"].poll_s, "redispatch",
                        record, label=f"r{record.request.request_id}:op_wait",
                    )
                    return
                raise RuntimeError("no replica can ever accept work (all draining)")
            wake = max(min(r.down_until for r in downed), now)
            self.kernel.schedule(
                wake, "redispatch", record,
                label=f"r{record.request.request_id}:fleet_down",
            )
            return
        target = self.entry_pool.router.choose(record.request, targets)
        breaker = self._breaker_for(target)
        if breaker is not None:
            breaker.record_dispatch(now)
        verdict = target.submit_record(record)
        rid = record.request.request_id
        if verdict is AdmissionVerdict.REJECT:
            # Engine-level admission turned it away; the record is
            # terminal inside the replica and counted from its records.
            self._location.pop(rid, None)
            return
        if verdict is AdmissionVerdict.DEFER:
            self.kernel.schedule(
                now + target.engine.defer_retry_s, "redispatch", record,
                label=f"r{rid}:engine_defer",
            )
            return
        self._location[rid] = target
        if self.config.recover is not None:
            # Post-snapshot lifecycle mark: a crash between this accept
            # and the next checkpoint replays the request from the WAL.
            self._rstate(target).wal.append("submit", rid, now)
        self._arm_timeout(record, now)

    def _arm_timeout(self, record: RequestRecord, now: float) -> None:
        """Arm the TTFT deadline of one dispatch (when timeouts are on).

        ``record.retries`` is the dispatch epoch, so deadlines from
        superseded dispatches are recognised as stale when they fire.
        The handle is kept so an eviction cancels the now-moot deadline
        outright (see :meth:`_detach`).
        """
        faults = self.config.faults
        if faults is not None and faults.request_timeout_s is not None:
            rid = record.request.request_id
            self._timeout_events[rid] = self.kernel.schedule(
                now + faults.request_timeout_s, "timeout",
                (record, record.retries), label=f"r{rid}@{record.retries}",
            )

    def _detach(self, rid: int) -> None:
        """Forget where a request lives, with everything armed against it:
        its in-flight transfer (the source KV is gone, or the request left
        the replica) and its dispatch deadline (it can never matter again)."""
        self._location.pop(rid, None)
        self._abort_migration(rid)
        deadline = self._timeout_events.pop(rid, None)
        if deadline is not None:
            self.kernel.cancel(deadline)

    def _retry_or_fail(self, record: RequestRecord, now: float) -> None:
        faults = self.config.faults
        record.reset_for_retry()
        rid = record.request.request_id
        self._detach(rid)
        if record.retries > faults.max_retries:
            record.mark_failed(now)
            self.failed[rid] = record
            return
        self.fault_counters.redispatches += 1
        self.kernel.schedule(
            now + faults.backoff(record.retries), "redispatch", record,
            label=f"r{rid}:retry{record.retries}",
        )

    def _on_fault(self, fired: Event) -> None:
        event: FaultEvent = fired.payload
        now = fired.time
        candidates = [r for r in self.replicas if not r.crashed]
        if not candidates:
            return  # the whole fleet is already down; the fault is moot
        victim = candidates[event.salt % len(candidates)]
        if event.kind == "crash":
            self.fault_counters.crashes += 1
            self.fault_counters.downtime_s += event.duration_s
            self._downtime_windows.append((now, now + event.duration_s))
            evicted = victim.crash(down_until=now + event.duration_s)
            warm = self.config.recover is not None
            self.kernel.schedule(
                now + event.duration_s,
                "warm_restart" if warm else "recover",
                victim,
                label=f"replica{victim.replica_id}",
            )
            # Destination crash mid-transfer: the in-flight handoff can
            # never land — cancel it and re-route from the (intact)
            # source.  Source crashes are covered by the eviction loop
            # below (the pinned KV died with the box: full re-prefill).
            for rid, ev in list(self._inflight.items()):
                if ev.kind != "migrate_arrive" or not ev.live:
                    continue
                rec, source, target, _corrupt = ev.payload
                if target is not victim:
                    continue
                self.kernel.cancel(ev)
                del self._inflight[rid]
                self.kernel.mark(
                    "migrate_reroute", f"r{rid}:replica{victim.replica_id}",
                    time=now,
                )
                self._retry_migration(rec, source, now)
            if warm:
                # Hold the evicted records for the warm restart that ends
                # the downtime: the checkpoint (not a cold re-prefill)
                # decides how much of their progress survives.
                state = self._rstate(victim)
                for record in evicted:
                    self._detach(record.request.request_id)
                    state.pending.append(record)
            else:
                for record in evicted:
                    self._retry_or_fail(record, now)
        elif event.kind == "stall":
            self.fault_counters.stalls += 1
            victim.stall(event.slowdown)
            self.kernel.schedule(
                now + event.duration_s, "stall_end", victim,
                label=f"replica{victim.replica_id}",
            )
        elif event.kind == "link_stall":
            # Congestion on the migration link: transfers *started* while
            # any stall is active are stretched by the slowdown.
            self.fault_counters.link_stalls += 1
            self._active_link_stalls += 1
            self.kernel.schedule(
                now + event.duration_s, "link_stall_end", None, label="link"
            )
        else:  # pragma: no cover - schedule generation only emits the above
            raise ValueError(f"unknown fault kind {event.kind!r}")

    def _on_link_stall_end(self, fired: Event) -> None:
        self._active_link_stalls -= 1

    def _on_timeout(self, fired: Event) -> None:
        (record, epoch), now = fired.payload, fired.time
        rid = record.request.request_id
        # Stale if the request terminated, was re-dispatched since the
        # deadline was armed, or already started streaming tokens.
        if record.retries != epoch or record.first_token_at is not None:
            if record.first_token_at is not None and record.retries == epoch:
                # The dispatch beat its deadline: a breaker success signal
                # (closes a half-open breaker, clears failure streaks).
                replica = self._location.get(rid)
                if replica is not None:
                    breaker = self._breaker_for(replica)
                    if breaker is not None:
                        breaker.record_success(now)
            return
        replica = self._location.get(rid)
        if replica is None or replica.cancel(rid) is None:
            return
        breaker = self._breaker_for(replica)
        if breaker is not None:
            trips_before = breaker.trips
            breaker.record_failure(now)
            if breaker.trips > trips_before:
                self.kernel.mark(
                    "breaker_trip", f"replica{replica.replica_id}", time=now
                )
        self.fault_counters.timeouts += 1
        self._retry_or_fail(record, now)

    # -- checkpointing and warm restart (see repro.recover) ------------------
    def _rstate(self, replica: Replica) -> ReplicaRecoveryState:
        state = self._rstates.get(replica.replica_id)
        if state is None:
            state = self._rstates[replica.replica_id] = (
                ReplicaRecoveryState.fresh(
                    replica.replica_id, self.config.recover.keep_epochs
                )
            )
        return state

    def _schedule_snapshot(self, replica: Replica, t: float) -> None:
        self._live_snapshots += 1
        self.kernel.schedule(t, "snapshot", replica, label=f"replica{replica.replica_id}")

    def _snapshot_work_remains(self) -> bool:
        """Should the snapshot chains stay alive?

        Snapshot events are excluded from the kernel count so the chains
        never keep *themselves* (or each other) alive: once only
        snapshots remain and every surviving replica is idle with nothing
        pending restore, the chains wind down and the run can terminate.
        """
        if len(self.kernel) - self._live_snapshots > 0:
            return True
        if any(state.pending for state in self._rstates.values()):
            return True
        return any(
            not r.crashed and (r.busy or r.engine.migrating)
            for r in self.replicas
        )

    def _on_snapshot(self, fired: Event) -> None:
        replica, now = fired.payload, fired.time
        self._live_snapshots -= 1
        cfg = self.config.recover
        if not replica.crashed:
            state = self._rstate(replica)
            snap = take_snapshot(
                replica.replica_id, replica.engine, state.epoch, now, cfg,
                self.model, self.method.kv_bits,
            )
            state.epoch += 1
            state.snapshots.append(snap)
            # Everything the WAL recorded is inside the checkpoint now.
            state.wal.truncate()
            self.fault_counters.snapshots_taken += 1
            self.fault_counters.snapshot_bytes += snap.nbytes
            self.kernel.mark(
                "snapshot_taken",
                f"replica{replica.replica_id}:e{snap.epoch}:{snap.digest[:8]}",
                time=now,
            )
        if self._snapshot_work_remains():
            self._schedule_snapshot(replica, now + cfg.snapshot_interval_s)

    def _load_snapshot_ladder(self, state: ReplicaRecoveryState, now: float):
        """Walk the recovery ladder, newest epoch first.

        Returns ``(snapshot, kept, total)`` where ``kept/total`` is the
        verified fraction of the epoch's payload (``kept == total`` for
        an intact epoch), or ``(None, 0, total)`` when no epoch is usable
        and the restart degrades to a cold start.
        """
        cfg = self.config.recover
        for snap in reversed(state.snapshots):
            if not snap.corrupt:
                return snap, cfg.payload_tokens, cfg.payload_tokens
            self.fault_counters.snapshot_corruptions += 1
            self.kernel.mark(
                "snapshot_corrupt",
                f"replica{snap.replica_id}:e{snap.epoch}",
                time=now,
            )
            kept, total = verify_snapshot(snap, cfg)
            if kept > 0:
                self.fault_counters.snapshot_salvages += 1
                self.kernel.mark(
                    "snapshot_salvage",
                    f"replica{snap.replica_id}:e{snap.epoch}:{kept}/{total}",
                    time=now,
                )
                return snap, kept, total
        return None, 0, cfg.payload_tokens

    def _on_warm_restart(self, fired: Event) -> None:
        """End a crash's downtime by restoring from the last checkpoint.

        Held requests captured by the restored epoch resume at the
        verified fraction of their snapshotted progress (exact
        ``[valid, prompt_len)`` recompute ranges, like a salvaged
        migration payload); requests that arrived after the checkpoint
        replay from the write-ahead log from token zero.  If no epoch is
        usable the restart degrades to the classic cold retry path —
        degraded, never lost.
        """
        replica, now = fired.payload, fired.time
        replica.recover(now)
        state = self._rstate(replica)
        held = list(state.pending)
        state.pending.clear()
        self.fault_counters.warm_restarts += 1
        snap, kept, total = self._load_snapshot_ladder(state, now)
        if snap is None:
            self.fault_counters.cold_restores += 1
            self.kernel.mark(
                "cold_restore", f"replica{replica.replica_id}", time=now
            )
            for record in held:
                self._retry_or_fail(record, now)
            return
        snap_map = {s.rid: s for s in snap.requests}
        for record in held:
            rid = record.request.request_id
            s = snap_map.get(rid)
            if s is None:
                # Post-checkpoint arrival: the WAL has its submit but no
                # KV — it replays from token zero on the restarted box.
                self.kernel.mark("wal_replay", f"r{rid}", time=now)
                record.reset_for_recovery(0, 0)
            else:
                # Map the epoch's verified fraction onto this request's
                # snapshotted context, rounding down: the resume point
                # never claims a token the checksums did not cover.
                valid = s.context_tokens * kept // total
                keep_p = min(valid, s.prefilled)
                keep_g = max(0, valid - s.prefilled)
                record.reset_for_recovery(keep_p, keep_g, s.first_token_at)
                self.fault_counters.restored_prefill_tokens += keep_p
                self.fault_counters.restored_decode_tokens += keep_g
            replica.restore_record(record)
            self.fault_counters.recovered_requests += 1
            self._location[rid] = replica
            state.wal.append("submit", rid, now)
            if record.first_token_at is None:
                self._arm_timeout(record, now)
        self.kernel.mark(
            "warm_restore",
            f"replica{replica.replica_id}:e{snap.epoch}:{len(held)}",
            time=now,
        )

    # -- operator-initiated fleet operations ---------------------------------
    def _on_fleet_op(self, fired: Event) -> None:
        op: FleetOp = fired.payload
        if op.kind == "drain":
            targets = [op.replica_id]
        else:  # rolling_restart drains one replica at a time, in id order
            targets = [r.replica_id for r in self.replicas]
        self._op_backlog.append({"op": op, "targets": targets, "current": None})
        self._op_advance(fired.time)

    def _op_advance(self, now: float) -> None:
        """Advance the single active fleet op's drain state machine."""
        while True:
            state = self._op_active
            if state is None:
                if not self._op_backlog:
                    return
                state = self._op_active = self._op_backlog.pop(0)
            if state["current"] is None:
                if not state["targets"]:
                    if state["op"].kind == "rolling_restart":
                        self.fault_counters.rolling_restarts += 1
                    self._op_active = None
                    continue
                target_id = state["targets"].pop(0)
                if target_id >= len(self.replicas):
                    continue  # the op named a replica that never existed
                state["current"] = target_id
                self._begin_drain(self.replicas[target_id], now)
            replica = self.replicas[state["current"]]
            if self._drained(replica):
                self._finish_drain(replica, now)
                state["current"] = None
                continue
            self.kernel.schedule(
                now + state["op"].poll_s, "op_check", None,
                label=f"replica{state['current']}",
            )
            return

    def _begin_drain(self, replica: Replica, now: float) -> None:
        replica.draining = True
        self.kernel.mark("drain_begin", f"replica{replica.replica_id}", time=now)
        # Queued (not yet admitted) work re-routes to the rest of the
        # fleet immediately; admitted work finishes in place — a graceful
        # drain never discards live progress and never drops a request.
        for rid in list(replica.engine.waiting):
            record = replica.cancel(rid)
            if record is None:
                continue
            self._detach(rid)
            if record.prefilled or record.generated:
                # A queued record can carry migrated-in progress; that KV
                # dies with the re-route and is charged as recovery waste.
                record.reset_for_recovery(0, 0)
            self.kernel.schedule(now, "requeue", record, label=f"r{rid}:drain")

    def _drained(self, replica: Replica) -> bool:
        return (
            not replica.crashed
            and not replica.engine.busy
            and not replica.engine.migrating
            and not replica.engine.handoff_ready
        )

    def _finish_drain(self, replica: Replica, now: float) -> None:
        self.kernel.mark("drain_done", f"replica{replica.replica_id}", time=now)
        # The restart itself: the engine is empty by construction, so it
        # reduces to clearing any stall and rejoining the dispatchable
        # set with the clock caught up over the (instant) restart.
        replica.engine.time_scale = 1.0
        replica.advance_to(now)
        replica.draining = False
        self.fault_counters.drains += 1
        self.kernel.mark("rejoin", f"replica{replica.replica_id}", time=now)

    # -- KV migration (disaggregated mode; see repro.migrate) ----------------
    @property
    def _link_slowdown(self) -> float:
        """Transfer-time multiplier while link-congestion stalls are live."""
        if self._active_link_stalls > 0 and self.config.faults is not None:
            return self.config.faults.link_stall_slowdown
        return 1.0

    @property
    def _migration_budget(self) -> int:
        faults = self.config.faults
        return faults.max_migration_retries if faults is not None else 2

    def _migration_backoff(self, retries: int) -> float:
        faults = self.config.faults
        if faults is not None:
            return faults.backoff(retries)
        # Clean runs still retry (e.g. no decode target yet): use the
        # fault model's default capped-exponential shape.
        return min(0.5 * 2.0 ** (retries - 1), 8.0)

    def _abort_migration(self, rid: int) -> None:
        """Revoke the in-flight transfer/retry for one request, if any."""
        ev = self._inflight.pop(rid, None)
        if ev is not None:
            self.kernel.cancel(ev)

    def _collect_handoffs(self, now: float) -> None:
        """Turn newly prefill-complete requests into migration events.

        Called after every handled cluster event and each drain round;
        a no-op for unified fleets.  The transfer starts no earlier than
        the engine-reported prefill completion and no earlier than the
        kernel's clock (the fleet-sync staleness every dispatch has).
        """
        if self.decode_pool is None:
            return
        for replica in self.replicas:
            if replica.role != self.entry_pool.role or replica.crashed:
                continue
            for record in replica.engine.take_handoffs():
                start = max(record.prefill_done_at, now, self.kernel.now)
                self._begin_migration(record, replica, start)

    def _begin_migration(
        self, record: RequestRecord, source: Replica, now: float
    ) -> None:
        """Ship one request's KV toward a decode replica.

        Charges the width-dependent wire cost (a 4-bit cache migrates
        ~4x cheaper than FP16), rolls the seeded per-attempt fault
        outcome, and schedules the arrival as a cancellable kernel event.
        """
        rid = record.request.request_id
        attempt = record.migration_retries
        targets = self._candidates(self.decode_pool, now)
        if not targets:
            self.kernel.mark("migrate_reroute", f"r{rid}:no_target", time=now)
            self._retry_migration(record, source, now)
            return
        target = self.decode_pool.router.choose(record.request, targets)
        nbytes = kv_wire_bytes(
            self.model, record.request.prompt_len, self._kv_bits(record)
        )
        transfer = self.gpu.transfer_time(nbytes) * self._link_slowdown
        # Wire bytes are spent whether or not the transfer lands.
        record.migrated_bytes += nbytes
        self.kernel.mark(
            "migrate_send", f"r{rid}->replica{target.replica_id}", time=now
        )
        roll = (
            self._injector.migration_roll(rid, attempt)
            if self._injector is not None
            else "ok"
        )
        if roll == "drop":
            self.fault_counters.migration_drops += 1
            self.kernel.mark("migrate_drop", f"r{rid}#{attempt}", time=now)
            self._retry_migration(record, source, now + transfer)
            return
        ev = self.kernel.schedule(
            now + transfer, "migrate_arrive",
            (record, source, target, roll == "corrupt"),
            label=f"r{rid}->replica{target.replica_id}",
        )
        self._inflight[rid] = ev

    def _retry_migration(
        self, record: RequestRecord, source: Replica, now: float
    ) -> None:
        """Re-send after capped backoff; the budget check runs at fire
        time so a late local-fallback decision sees the current fleet."""
        rid = record.request.request_id
        record.migration_retries += 1
        ev = self.kernel.schedule(
            now + self._migration_backoff(record.migration_retries),
            "migrate_retry", (record, source),
            label=f"r{rid}:retry{record.migration_retries}",
        )
        self._inflight[rid] = ev

    def _kv_bits(self, record: RequestRecord) -> float:
        """Width of the KV a request ships: fixed at admission (brownout
        may narrow it), else the method's."""
        return record.kv_bits if record.kv_bits is not None else self.method.kv_bits

    def _claim_transfer(self, fired: Event, rid: int, source: Replica) -> bool:
        """Retire a fired transfer event; False when it no longer matters:
        superseded (re-routed, evicted, timed out) or the source lost the
        request meanwhile (crash/timeout)."""
        if self._inflight.get(rid) is not fired:
            return False
        del self._inflight[rid]
        return rid in source.engine.migrating

    def _on_migrate_retry(self, fired: Event) -> None:
        (record, source), now = fired.payload, fired.time
        rid = record.request.request_id
        if not self._claim_transfer(fired, rid, source):
            return
        if record.migration_retries > self._migration_budget:
            # Budget exhausted: degrade to decoding on the prefill
            # replica — the KV is already resident there.  Slower for
            # the pool, terminal-never-lost for the request.
            source.engine.resume_local_decode(rid)
            self.kernel.mark("local_fallback", f"r{rid}", time=now)
            return
        self._begin_migration(record, source, now)

    def _on_migrate_arrive(self, fired: Event) -> None:
        (record, source, target, corrupt), now = fired.payload, fired.time
        rid = record.request.request_id
        if not self._claim_transfer(fired, rid, source):
            return
        if not target.dispatchable:
            # Destination drained/crashed while the bytes were in flight.
            self.kernel.mark(
                "migrate_reroute", f"r{rid}:replica{target.replica_id}", time=now
            )
            self._retry_migration(record, source, now)
            return
        disagg = self.config.disagg
        if corrupt:
            # Run the *real* serialization/checksum/salvage machinery on
            # a miniature faithful payload: CRC32 detects the flip,
            # salvage keeps the longest valid block prefix, and the kept
            # fraction maps back onto prompt tokens — the decode replica
            # resumes from ``valid`` and re-prefills only [valid, len).
            self.fault_counters.migration_corruptions += 1
            cfg = disagg.migration
            seed = self.config.faults.seed if self.config.faults is not None else 0
            attempt = record.migration_retries
            arrays = build_payload(rid, attempt, seed, self._kv_bits(record), cfg)
            damaged = corrupt_payload(arrays, rid, attempt, seed, cfg)
            outcome = receive_payload(damaged, record.request.prompt_len, cfg)
            record.prefilled = outcome.valid_tokens
            record.salvage_recomputed_tokens += outcome.recompute_tokens
            self.kernel.mark(
                "migrate_corrupt",
                f"r{rid}:valid{outcome.valid_tokens}/{record.request.prompt_len}",
                time=now,
            )
        record.status = RequestStatus.WAITING
        verdict = target.submit_record(record)
        if verdict is AdmissionVerdict.ACCEPT:
            source.engine.release_migrated(rid)
            record.migrations += 1
            if record.prefill_done_at is not None:
                record.handoff_latency = now - record.prefill_done_at
            self._location[rid] = target
            if self.config.recover is not None:
                self._rstate(target).wal.append("submit", rid, now)
            self.kernel.mark(
                "handoff_done", f"r{rid}->replica{target.replica_id}", time=now
            )
        elif verdict is AdmissionVerdict.DEFER:
            # Target saturated: KV stays pinned on the source; re-offer
            # the (already verified) delivery after a wait.
            record.status = RequestStatus.MIGRATING
            ev = self.kernel.schedule(
                now + disagg.migration.defer_retry_s, "migrate_arrive",
                (record, source, target, False), label=f"r{rid}:defer",
            )
            self._inflight[rid] = ev
        else:  # REJECT — terminal inside the target's records
            # The source's real prefill work dies with the rejection:
            # charge it to the record's waste counters before the source
            # releases the pinned KV, or it silently vanishes from the
            # wasted-token accounting.
            record.wasted_prefill_tokens += record.prefilled
            record.wasted_decode_tokens += record.generated
            source.engine.release_migrated(rid)
            self._detach(rid)

    # -- simulation ----------------------------------------------------------
    #: The handler table: one function ``(simulator, event)`` per
    #: scheduled kind, in ``CLUSTER_EVENT_ORDER`` order (marks have none).
    #: Plain functions on the class, not bound methods on the instance,
    #: so a finished simulator holds no reference cycle and is freed as
    #: soon as its caller drops it.
    _HANDLERS: Dict[str, Callable[["ClusterSimulator", Event], None]] = {
        "recover": lambda sim, ev: ev.payload.recover(ev.time),
        "warm_restart": _on_warm_restart,
        "stall_end": lambda sim, ev: ev.payload.clear_stall(),
        "link_stall_end": _on_link_stall_end,
        "fault": _on_fault,
        "fleet_op": _on_fleet_op,
        "arrival": lambda sim, ev: sim._dispatch(
            RequestRecord(request=ev.payload), ev.time
        ),
        "redispatch": lambda sim, ev: sim._dispatch(ev.payload, ev.time),
        "requeue": lambda sim, ev: sim._dispatch(ev.payload, ev.time, gate=False),
        "migrate_arrive": _on_migrate_arrive,
        "migrate_retry": _on_migrate_retry,
        "timeout": _on_timeout,
        "op_check": lambda sim, ev: sim._op_advance(ev.time),
        "snapshot": _on_snapshot,
    }

    def _drain_round(self) -> bool:
        """Run surviving replicas toward completion once the kernel is
        empty; returns whether any replica stepped.

        A replica still down here lost its work to ``_retry_or_fail``
        already.  Prefill engines park finished prompts in ``migrating``
        (not busy), so a round stops early at each fresh handoff and the
        collect below ships it.  Disaggregated fleets step each replica
        once per round so late handoffs deliver while decode replicas
        are still near the handoff clock, not after they finished their
        whole resident batch; unified fleets run each replica to the end.
        """
        progressed = False
        for replica in self.replicas:
            if replica.crashed:
                continue
            if self.decode_pool is not None:
                if replica.busy and not replica.engine.migration_blocked:
                    self._step_replica(replica)
                    progressed = True
            else:
                while replica.busy:
                    self._advance_replica(replica, None)
                    progressed = True
        self._collect_handoffs(self.kernel.now)
        return progressed

    def run(self, requests: Sequence[Request]) -> ClusterMetrics:
        arrivals = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        for request in arrivals:
            self.kernel.schedule(
                request.arrival_time, "arrival", request,
                label=f"r{request.request_id}",
            )
        if self._injector is not None and arrivals:
            horizon = arrivals[-1].arrival_time + self.config.faults.horizon_pad_s
            for event in self._injector.schedule(horizon):
                self.kernel.schedule(
                    event.time, "fault", event,
                    label=f"{event.kind}#{event.salt}",
                )
        if self.config.recover is not None and arrivals:
            for replica in self.replicas:
                self._schedule_snapshot(
                    replica, self.config.recover.snapshot_interval_s
                )
        for op in self.config.ops:
            self.kernel.schedule(op.time, "fleet_op", op, label=op.kind)

        # Event loop and drain are one cycle: handling an event (or a
        # drain round) can surface prefill-complete requests whose
        # migrations schedule *new* kernel events, so neither phase is
        # ever finally "done" until both are quiet.  Every fleet layout
        # pops whole same-instant batches; a disaggregated fleet pulls its
        # prefill pool forward before each instant.
        kernel, handlers = self.kernel, self._HANDLERS
        pull = self._pull_prefill_pool if self.decode_pool is not None else None
        while True:
            if not kernel.empty:
                for fired in kernel.pop_batch(pull):
                    t = fired.time
                    self._advance_fleet_to(t)
                    self._autoscale(t)
                    handlers[fired.kind](self, fired)
                    self._collect_handoffs(t)
                continue
            if not self._drain_round() and kernel.empty:
                break

        worked = [r for r in self.replicas if r.records]
        makespan = max((r.clock for r in worked), default=0.0)
        if self._downtime_windows:
            # Clip each crash's downtime window to the observed makespan:
            # a crash near the end of a run schedules recovery past the
            # point the run stopped observing, and those phantom
            # replica-seconds must not be charged against availability.
            self.fault_counters.downtime_s = downtime_within(
                self._downtime_windows, makespan
            )
        records_by_replica = {
            r.replica_id: list(r.records.values()) for r in self.replicas
        }
        stats = [
            ReplicaStats(
                replica_id=r.replica_id,
                completed=sum(
                    1 for rec in r.records.values() if rec.finished_at is not None
                ),
                peak_running=r.peak_running,
                preemptions=sum(rec.preemptions for rec in r.records.values()),
                kv_utilization=r.kv_utilization,
                drained=r.draining,
            )
            for r in self.replicas
        ]
        return summarize_cluster(
            records_by_replica,
            slo=self.config.slo,
            makespan=makespan,
            replica_stats=stats,
            scale_events=self.scale_events,
            peak_replicas=self.peak_replicas,
            final_replicas=len(self.active_replicas),
            failed_records=list(self.failed.values()),
            fault_counters=self.fault_counters,
            rejected_records=list(self.rejected.values()),
            base_kv_bits=self.method.kv_bits,
            breaker_trips=sum(b.trips for b in self.breakers.values()),
            shared_blocks=sum(
                r.engine.prefix_pool.peak_resident_blocks
                for r in self.replicas
                if r.engine.prefix_pool is not None
            ),
        )

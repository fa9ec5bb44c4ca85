"""Discrete-event continuous-batching engine.

One engine iteration mirrors a vLLM-style step:

1. **Admission** — waiting requests (FCFS) are admitted while their full
   prompt fits in the allocator and the running batch is below
   ``max_batch``.
2. **Prefill** — each newly admitted request's prompt is processed (whole,
   unchunked); its latency comes from the cost model and is serialized
   with the decode step (single-GPU).
3. **Decode** — every running request advances one token; the batched
   decode latency is evaluated at the running batch size and the batch's
   mean context.
4. **Growth/preemption** — each generated token may require a new cache
   block; on OOM the most-recently-admitted request is preempted
   (vLLM-style recompute: blocks freed, request requeued *at the front*
   of the waiting queue).

Latencies come from :func:`repro.perf.tp.tp_step_latency` (which reduces
to the unsharded single-GPU step at ``tp=1``), so the same
calibration behind Figures 6/7a drives the serving behaviour, and a
replica may be tensor-parallel over several GPUs.

The engine exposes two driving modes:

* :meth:`run` — closed-loop: hand it a whole workload; it drains arrivals
  against its own clock until every request finishes (the seed behaviour).
  The arrival/defer offer timeline lives on a
  :class:`repro.sim.EventScheduler` — the same kernel the cluster
  simulator drives — so ordering, monotonic time, and per-event tracing
  are kernel properties, not engine code.
* :meth:`start` / :meth:`submit` / :meth:`step` — open-loop: an external
  driver (the cluster simulator, :mod:`repro.cluster`) owns arrival
  dispatch and advances the engine one iteration at a time.

In both modes, attaching a :class:`repro.sim.TraceSink` records every
request-lifecycle transition (submit/admit/first-token/finish, plus
sheds, preemptions, cancels, evictions) as typed trace marks, making any
run replayable and diffable (``python -m repro trace-diff``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from dataclasses import dataclass

from repro.sim.kernel import EventScheduler
from repro.sim.trace import TraceSink
from repro.overload.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionVerdict,
)
from repro.overload.brownout import BrownoutConfig, BrownoutController
from repro.perf.attention_costs import MethodSpec
from repro.prefix.pool import PrefixCacheConfig, PrefixPool
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, GPUSpec
from repro.perf.tp import (
    decode_step_latency_batch,
    replica_kv_budget,
    tp_step_latency,
)
from repro.serving.allocator import PagedKVAllocator
from repro.serving.columns import RequestColumns
from repro.serving.metrics import SLO, ServingMetrics, summarize
from repro.serving.request import (
    _STATUS_CODES,
    Request,
    RequestRecord,
    RequestStatus,
    TERMINAL_STATUSES,
)

import numpy as np

#: Status codes used by the vectorized step bookkeeping (see
#: :mod:`repro.serving.columns`).
_PREFILLING_CODE = _STATUS_CODES[RequestStatus.PREFILLING]
_RUNNING_CODE = _STATUS_CODES[RequestStatus.RUNNING]
_FINISHED_CODE = _STATUS_CODES[RequestStatus.FINISHED]

__all__ = ["ENGINE_EVENT_ORDER", "EngineConfig", "ServingEngine"]

#: The engine's closed event taxonomy (see :mod:`repro.sim.kernel`).
#: ``offer`` is the only *scheduled* kind — request arrivals and
#: admission-DEFER re-offers on the closed-loop clock.  The rest are
#: lifecycle marks emitted as requests move through the engine; they are
#: registered here because the kernel refuses unregistered kinds — the
#: taxonomy, like same-instant ordering, is pinned in one place.
ENGINE_EVENT_ORDER = {
    "offer": 0,
    # lifecycle marks (not scheduled; order classes document the taxonomy)
    "submit": 10,
    "reject": 11,
    "defer": 12,
    "admit": 13,
    "shed": 14,
    "first_token": 15,
    "preempt": 16,
    "finish": 17,
    "cancel": 18,
    "evict": 19,
    # disaggregated prefill/decode handoff marks (see repro.migrate)
    "prefill_ready": 20,
    "migrate_out": 21,
    "local_decode": 22,
    # warm-restart re-entry (see repro.recover); append-only — existing
    # order-class values are frozen by the golden trace fixtures.
    "restore": 23,
}


@dataclass(frozen=True)
class EngineConfig:
    """Engine tunables."""

    max_batch: int = 256
    block_tokens: int = 64
    kv_budget_bytes: Optional[float] = None  # default: HBM - weights - reserve
    reserve_gb: float = 6.5
    #: Apply the paper-harness memory calibration (workspace factors +
    #: per-query-head replication); see PagedKVAllocator.
    paper_harness_memory: bool = True
    #: Chunked prefill: process at most this many prompt tokens per engine
    #: iteration (one request at a time, FCFS), letting decode of other
    #: requests interleave.  ``None`` = whole-prompt prefill (the classic
    #: stall-inducing policy).
    prefill_chunk: Optional[int] = None
    #: Tensor-parallel degree of this replica: weights/KV shard across
    #: ``tp`` GPUs (pooling their HBM) and step latencies include the
    #: per-layer all-reduce cost.
    tp: int = 1
    max_iterations: int = 2_000_000
    # -- overload protection (all off by default; see repro.overload) -------
    #: Per-request deadlines.  Setting an SLO makes ``summarize`` report
    #: goodput/attainment; it does not by itself shed anything.
    slo: Optional[SLO] = None
    #: Deadline-aware shedding: at dequeue time, a request whose *best
    #: case* TTFT (wait so far + its lone-on-the-machine prefill) already
    #: exceeds ``slo.ttft_s`` is shed before any decode token is wasted.
    #: Requires ``slo``.
    deadline_shed: bool = False
    #: High-water KV-pressure shedding: while ``kv_pressure`` exceeds this
    #: mark, queued requests are shed lowest-priority-first (ties: the
    #: youngest arrival goes first).  ``None`` disables.
    shed_high_water: Optional[float] = None
    #: Token-bucket + KV-pressure admission gate on ``submit``.
    admission: Optional[AdmissionConfig] = None
    #: Precision-brownout controller for new admissions.
    brownout: Optional[BrownoutConfig] = None
    #: Content-addressed prefix KV cache (see :mod:`repro.prefix`):
    #: requests whose prompts share a prefix reference the same blocks,
    #: skip the cached span's prefill, and copy-on-write on divergence.
    #: ``None`` keeps every block private (the pre-prefix behaviour).
    prefix: Optional[PrefixCacheConfig] = None
    #: Disaggregated prefill pool member: requests stop at prefill
    #: completion and park in :attr:`ServingEngine.migrating` (KV pinned)
    #: until the cluster ships them to a decode replica — except requests
    #: flagged ``local_decode``, which decode here as the degraded
    #: fallback when the migration budget runs out.
    prefill_only: bool = False

    def __post_init__(self) -> None:
        if self.deadline_shed and self.slo is None:
            raise ValueError("deadline_shed requires an slo")
        if self.shed_high_water is not None and self.shed_high_water <= 0:
            raise ValueError("shed_high_water must be positive")


class ServingEngine:
    """Simulate serving a workload with one attention method."""

    def __init__(
        self,
        model: ModelGeometry,
        method: MethodSpec,
        config: EngineConfig = EngineConfig(),
        gpu: GPUSpec = A100_80GB,
        trace: Optional[TraceSink] = None,
        trace_clock: str = "engine",
    ):
        if config.tp < 1:
            raise ValueError("tp must be >= 1")
        self.model = model
        self.method = method
        self.config = config
        self.gpu = gpu
        #: Optional structured trace: the engine's scheduler emits every
        #: offer schedule/fire plus request-lifecycle marks to this sink
        #: (shared with the cluster's scheduler when fleet-driven).
        self.trace = trace
        self.trace_clock = trace_clock
        budget = config.kv_budget_bytes
        if budget is None:
            budget = replica_kv_budget(
                model, tp=config.tp, gpu=gpu, reserve_gb=config.reserve_gb
            )
        self.allocator = PagedKVAllocator(
            model, method, budget_bytes=budget, block_tokens=config.block_tokens,
            paper_harness=config.paper_harness_memory,
        )
        #: External slowdown factor on every step's latency (fault
        #: injection models stragglers this way).  1.0 = healthy; it is a
        #: hardware condition, not run state, so :meth:`start` keeps it.
        self.time_scale = 1.0
        # Pure-function caches (see _step_latency); they key only on
        # quantities the cost model sees, so they survive start() resets.
        self._latency_cache: Dict[tuple, float] = {}
        self._method_cache: Dict[float, MethodSpec] = {}
        self.start()

    # -- latency helpers ------------------------------------------------------
    # ``tp_step_latency`` is a pure function of (method, model, shape, tp,
    # gpu) and the engine's model/tp/gpu never change, so per-engine
    # memoization on (kv_bits, shape) returns the *same float object* the
    # cost model produced — bit-identical by construction.  Serving steps
    # revisit the same (batch, context) points constantly (the measured
    # hit rate on the cluster scenario is ~60%), which makes this the
    # single largest win on the simulator's hot path.
    _LATENCY_CACHE_MAX = 200_000

    def _method_at(self, kv_bits: Optional[float]) -> MethodSpec:
        """The cost-model spec at a (possibly browned-out) KV width."""
        if kv_bits is None or kv_bits == self.method.kv_bits:
            return self.method
        spec = self._method_cache.get(kv_bits)
        if spec is None:
            spec = self.method.with_bits(kv_bits)
            self._method_cache[kv_bits] = spec
        return spec

    def _step_latency(
        self, kv_bits: Optional[float], batch: int, q_len: int, kv_len: int,
        prefill: bool,
    ) -> float:
        key = (kv_bits, batch, q_len, kv_len, prefill)
        cached = self._latency_cache.get(key)
        if cached is None:
            if len(self._latency_cache) >= self._LATENCY_CACHE_MAX:
                self._latency_cache.clear()
            cached = tp_step_latency(
                self._method_at(kv_bits), self.model, batch, q_len, kv_len,
                prefill=prefill, tp=self.config.tp, gpu=self.gpu,
            )
            self._latency_cache[key] = cached
        return cached

    def _prefill_latency(
        self,
        n_tokens: int,
        kv_len: Optional[int] = None,
        kv_bits: Optional[float] = None,
    ) -> float:
        return self._step_latency(
            kv_bits, 1, n_tokens,
            kv_len if kv_len is not None else n_tokens, True,
        )

    def _decode_latency(
        self, batch: int, mean_ctx: float, kv_bits: Optional[float] = None
    ) -> float:
        return self._step_latency(kv_bits, batch, 1, max(int(mean_ctx), 1), False)

    def _bytes_scale(self, record: RequestRecord) -> float:
        """Allocator scale for a record admitted below full precision.

        Applies only to the record's *private* blocks — shared prefix
        blocks are stored at the max width across their sharers and are
        accounted by the pool at full method width.
        """
        if record.kv_bits is None:
            return 1.0
        return record.kv_bits / self.method.kv_bits

    def _grow(self, rid: int, tokens: int, bytes_scale: float = 1.0) -> bool:
        """Allocator growth that may reclaim cold shared blocks first:
        a private allocation never OOMs while the prefix pool holds
        unreferenced warm cache it could give back."""
        if self.prefix_pool is not None:
            need = self.allocator.blocks_needed(rid, tokens, bytes_scale)
            if need > self.allocator.free_blocks:
                self.prefix_pool.evict_to_free(need)
        return self.allocator.grow(rid, tokens, bytes_scale)

    def _release_request(self, rid: int) -> None:
        """Free everything a request holds: private blocks and prefix refs."""
        self.allocator.release(rid)
        if self.prefix_pool is not None:
            self.prefix_pool.release(rid)

    def prefix_warmth(self, request: Request) -> int:
        """Prompt tokens of ``request`` already resident in this engine's
        prefix pool (0 without a pool) — the router's locality score."""
        if self.prefix_pool is None or request.prefix_id is None:
            return 0
        return self.prefix_pool.probe(RequestRecord(request=request))

    # -- open-loop driving API ------------------------------------------------
    def start(self) -> None:
        """Reset all per-run state (records, queues, clock, controllers)."""
        #: The engine's event kernel.  Closed-loop :meth:`run` schedules
        #: request offers on it; in both modes it carries the lifecycle
        #: marks that make a run traceable/diffable.
        self.events = EventScheduler(
            ENGINE_EVENT_ORDER, clock=self.trace_clock, trace=self.trace
        )
        self.records: Dict[int, RequestRecord] = {}
        self.waiting: Deque[int] = deque()
        self.running: List[int] = []  # admission order (preemption pops the tail)
        #: Prefill-complete requests whose KV stays pinned here while the
        #: cluster migrates them to a decode replica (prefill_only mode).
        self.migrating: Dict[int, RequestRecord] = {}
        #: Newly prefill-complete request ids the cluster has not yet
        #: collected via :meth:`take_handoffs` (FIFO).
        self.handoff_ready: List[int] = []
        self.clock = 0.0
        self.iterations = 0
        self.peak_running = 0
        #: Tokens lost to ``cancel`` of in-flight requests whose records
        #: left the engine (the record's own waste fields travel with it).
        self.cancelled_wasted_prefill_tokens = 0
        self.cancelled_wasted_decode_tokens = 0
        #: Deadline/high-water shed tallies for operator visibility.
        self.deadline_sheds = 0
        self.high_water_sheds = 0
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self.config.admission)
            if self.config.admission is not None
            else None
        )
        self.brownout: Optional[BrownoutController] = (
            BrownoutController(self.config.brownout)
            if self.config.brownout is not None
            else None
        )
        #: Array-of-struct bookkeeping for resident records: the hot
        #: lifecycle fields of every record in ``records`` live in these
        #: columns between submit (bind) and departure (unbind).
        self.columns = RequestColumns()
        self.allocator.release_all()
        if getattr(self.allocator, "shared_blocks", 0):
            self.allocator.release_shared_block(self.allocator.shared_blocks)
        self.prefix_pool: Optional[PrefixPool] = (
            PrefixPool(self.allocator, self.config.prefix)
            if self.config.prefix is not None
            else None
        )

    def submit(self, request: Request) -> AdmissionVerdict:
        """Offer one request (FCFS tail).  The caller owns arrival timing.

        Returns the admission verdict.  Without overload protection
        configured this is always ``ACCEPT`` (the PR-1 behaviour).  On
        ``REJECT`` the record is kept with status ``REJECTED``; on
        ``DEFER`` the record is *not* registered — the caller re-offers
        it after :meth:`defer_retry_s`.
        """
        return self.submit_record(RequestRecord(request=request))

    @property
    def defer_retry_s(self) -> float:
        """How long a deferred submission should wait before re-offering."""
        if self.config.admission is not None:
            return self.config.admission.defer_retry_s
        return 1.0

    def _admission_decision(
        self, record: RequestRecord
    ) -> Tuple[AdmissionVerdict, str]:
        cap = None
        if self.brownout is not None:
            if not self.brownout.admits_new_work:
                return AdmissionVerdict.REJECT, "shed_only"
            cap = self.brownout.request_token_cap
        if cap is not None and record.request.total_tokens > cap:
            max_defers = (
                self.config.admission.max_defers
                if self.config.admission is not None
                else 4
            )
            if record.defers >= max_defers:
                return AdmissionVerdict.REJECT, "brownout_cap"
            record.defers += 1
            return AdmissionVerdict.DEFER, "brownout_cap"
        if self.admission is not None:
            return self.admission.decide(
                record, self.clock, self.queue_depth, self.kv_pressure
            )
        return AdmissionVerdict.ACCEPT, "ok"

    def _mark(self, kind: str, label: str) -> None:
        """Lifecycle trace mark at the engine clock (no-op without a sink)."""
        if self.trace is not None:
            self.events.mark(kind, label, time=self.clock)

    def submit_record(self, record: RequestRecord) -> AdmissionVerdict:
        """Offer an existing record — also the fault-recovery re-dispatch
        path, where retry/waste accounting must survive the move across
        replicas.  Returns the admission verdict (see :meth:`submit`)."""
        rid = record.request.request_id
        if rid in self.records:
            raise ValueError(f"duplicate request_id {rid}")
        verdict, reason = self._admission_decision(record)
        if verdict is AdmissionVerdict.REJECT:
            record.mark_rejected(self.clock, reason)
            self.records[rid] = record
            self._mark("reject", f"r{rid}:{reason}")
            return verdict
        if verdict is AdmissionVerdict.DEFER:
            self._mark("defer", f"r{rid}:{reason}")
            return verdict
        if record.kv_bits is None:
            record.kv_bits = (
                self.brownout.bits_for(self.method)
                if self.brownout is not None
                else self.method.kv_bits
            )
        self.records[rid] = record
        self.waiting.append(rid)
        self.columns.bind(record)
        self._mark("submit", f"r{rid}")
        return verdict

    def cancel(self, request_id: int) -> Optional[RequestRecord]:
        """Pull one unfinished request off the engine (timeout eviction).

        Frees its KV blocks and removes the record entirely; returns the
        record so the caller can retry it elsewhere, or ``None`` if the
        request is unknown or already terminal.  Tokens already processed
        are charged to the engine's cancelled-waste counters — the record
        leaves, but the work it burned here stays on this engine's books.
        """
        record = self.records.get(request_id)
        if record is None or record.status in TERMINAL_STATUSES:
            return None
        self.cancelled_wasted_prefill_tokens += record.prefilled
        self.cancelled_wasted_decode_tokens += record.generated
        self._release_request(request_id)
        if request_id in self.running:
            self.running.remove(request_id)
        if request_id in self.waiting:
            self.waiting.remove(request_id)
        self.migrating.pop(request_id, None)
        if request_id in self.handoff_ready:
            self.handoff_ready.remove(request_id)
        self.columns.unbind(record)
        self._mark("cancel", f"r{request_id}")
        return self.records.pop(request_id)

    def evict_unfinished(self) -> List[RequestRecord]:
        """Crash: drop every admitted/queued request and its KV state.

        Records of finished requests stay (history survives a process
        restart in the operator's logs); everything in flight is returned,
        oldest admission first, for the caller to re-dispatch.  Processed
        tokens are charged to the cancelled-waste counters exactly like
        :meth:`cancel` — MIGRATING requests included — so an engine's own
        books never lose the work a departing record burned here.
        """
        evicted: List[RequestRecord] = []
        for rid in list(self.running) + list(self.waiting) + list(self.migrating):
            record = self.records.pop(rid)
            self.cancelled_wasted_prefill_tokens += record.prefilled
            self.cancelled_wasted_decode_tokens += record.generated
            self._release_request(rid)
            self.columns.unbind(record)
            evicted.append(record)
            self._mark("evict", f"r{rid}")
        self.running.clear()
        self.waiting.clear()
        self.migrating.clear()
        self.handoff_ready.clear()
        return evicted

    @property
    def busy(self) -> bool:
        """Does the engine have admitted or queued work?

        MIGRATING requests are deliberately excluded: their next
        transition is a *cluster* event (the transfer arriving), not an
        engine step, so an engine holding only pinned handoffs is idle.
        """
        return bool(self.running or self.waiting)

    # -- disaggregated handoff API (prefill_only mode; see repro.migrate) -----
    def take_handoffs(self) -> List[RequestRecord]:
        """Drain newly prefill-complete requests for the cluster to ship.

        The records stay registered here — KV pinned, status MIGRATING —
        until :meth:`release_migrated` (handoff accepted or abandoned) or
        :meth:`resume_local_decode` resolves them.
        """
        ready = [self.records[rid] for rid in self.handoff_ready]
        self.handoff_ready.clear()
        return ready

    def release_migrated(self, request_id: int) -> RequestRecord:
        """Unpin a migrated-out request: free its KV, drop its record.

        Called when the destination accepted the handoff (the request
        lives there now) or terminally refused it (the cluster owns the
        record either way).
        """
        rec = self.migrating.pop(request_id)
        self._release_request(request_id)
        self.columns.unbind(rec)
        self._mark("migrate_out", f"r{request_id}")
        return self.records.pop(request_id)

    def resume_local_decode(self, request_id: int) -> RequestRecord:
        """Degraded fallback: decode a pinned request on this replica.

        The migration budget ran out (or no decode replica exists); the
        prefilled KV is already resident, so the request re-enters the
        running batch directly — slower than a decode-pool replica, but
        never lost.
        """
        rec = self.migrating.pop(request_id)
        rec.local_decode = True
        rec.status = RequestStatus.RUNNING
        self.running.append(request_id)
        self._mark("local_decode", f"r{request_id}")
        return rec

    # -- warm-restart re-entry (see repro.recover) ----------------------------
    def restore_record(self, record: RequestRecord) -> bool:
        """Re-enter a warm-restarted request at its checkpointed progress.

        Differs from :meth:`submit_record` on purpose: admission control
        is bypassed (the work was admitted before the crash — re-gating
        could terminally reject already-paid-for work) and the KV for the
        checkpointed context is reserved up front, mirroring what loading
        the persisted cache blocks would occupy.  ``record.prefilled``
        below the prompt length *is* the recompute range — the engine's
        prefill path charges only ``[prefilled, prompt_len)``.

        Returns True when the request resumed warm.  False means the
        reservation failed (restored contexts lose their prefix sharing)
        or nothing was checkpointed: the request re-enters cold at the
        queue tail with its progress charged as waste — degraded, never
        lost.
        """
        rid = record.request.request_id
        if rid in self.records:
            raise ValueError(f"duplicate request_id {rid}")
        if record.kv_bits is None:
            record.kv_bits = (
                self.brownout.bits_for(self.method)
                if self.brownout is not None
                else self.method.kv_bits
            )
        self.records[rid] = record
        self.columns.bind(record)
        ctx = record.prefilled + record.generated
        prompt_len = record.request.prompt_len
        if ctx > 0 and self._grow(
            rid, max(prompt_len, ctx), self._bytes_scale(record)
        ):
            record.admitted_at = self.clock
            if record.prefilled >= prompt_len:
                if self.config.prefill_only and not record.local_decode:
                    # Prefill-pool member: the checkpoint caught this
                    # request between prefill and handoff — re-park it
                    # for the cluster to ship.
                    record.status = RequestStatus.MIGRATING
                    record.prefill_done_at = self.clock
                    self.migrating[rid] = record
                    self.handoff_ready.append(rid)
                else:
                    record.status = RequestStatus.RUNNING
                    self.running.append(rid)
            else:
                record.status = RequestStatus.PREFILLING
                self.running.append(rid)
            self.peak_running = max(self.peak_running, len(self.running))
            self._mark("restore", f"r{rid}")
            return True
        # Cold re-entry: charge whatever the checkpoint claimed to save.
        record.wasted_prefill_tokens += record.prefilled
        record.wasted_decode_tokens += record.generated
        record.prefilled = 0
        record.generated = 0
        record.first_token_at = None
        record.status = RequestStatus.WAITING
        self.waiting.append(rid)
        self._mark("restore", f"r{rid}:cold")
        return False

    @property
    def migration_blocked(self) -> bool:
        """Is admission wedged behind KV pinned by in-flight handoffs?

        True when nothing is running, handoffs hold blocks, and the head
        of the queue cannot allocate its prompt.  The engine cannot make
        progress by stepping (each step would burn the idle guard's
        1e-6 s); only a cluster event (the handoff resolving) frees it,
        so the fleet driver idle-jumps this replica instead of spinning.
        """
        if self.running or not self.migrating or not self.waiting:
            return False
        rid = self.waiting[0]
        rec = self.records[rid]
        need = self.allocator.blocks_needed(
            rid, rec.request.prompt_len, self._bytes_scale(rec)
        )
        return need > self.allocator.free_blocks

    def advance_to(self, t: float) -> None:
        """Idle-jump the clock forward (never backward)."""
        if not self.busy and self.clock < t:
            self.clock = t

    @property
    def queue_depth(self) -> int:
        return len(self.waiting)

    @property
    def outstanding_tokens(self) -> int:
        """Prompt + generation tokens not yet produced, over waiting+running."""
        total = 0
        for rid in self.waiting:
            rec = self.records[rid]
            total += rec.request.prompt_len + rec.request.gen_len
        for rid in self.running:
            rec = self.records[rid]
            total += (rec.request.prompt_len - rec.prefilled) + (
                rec.request.gen_len - rec.generated
            )
        return total

    @property
    def kv_pressure(self) -> float:
        """Resident KV utilization plus queued prompt demand, as a fraction
        of device blocks.  >1 means the queue alone oversubscribes HBM.
        Queued demand honours each record's admitted KV width."""
        if self.allocator.total_blocks == 0:
            return float("inf")
        queued = 0
        for rid in self.waiting:
            rec = self.records[rid]
            queued += self.allocator.blocks_for(
                rec.request.prompt_len - self._probe_warmth(rec),
                self._bytes_scale(rec),
            )
        return (self.allocator.used_blocks + queued) / self.allocator.total_blocks

    @property
    def queue_delay(self) -> float:
        """Age of the oldest waiting request (the brownout delay signal)."""
        if not self.waiting:
            return 0.0
        return max(
            0.0, self.clock - self.records[self.waiting[0]].request.arrival_time
        )

    @property
    def brownout_level(self):
        """Current :class:`~repro.overload.brownout.BrownoutLevel` (or None)."""
        return self.brownout.level if self.brownout is not None else None

    def _probe_warmth(self, rec: RequestRecord) -> int:
        """Read-only prefix-cache warmth for a record (0 without a pool)."""
        if self.prefix_pool is None or rec.request.prefix_id is None:
            return 0
        return self.prefix_pool.probe(rec)

    def _shed(self, rid: int, reason: str) -> None:
        """Terminal queue shed: keep the record, free everything else."""
        rec = self.records[rid]
        self._release_request(rid)
        self.waiting.remove(rid)
        rec.mark_shed(self.clock, reason)
        self.columns.unbind(rec)
        self._mark("shed", f"r{rid}:{reason}")

    def _shed_doomed(self, rid: int) -> bool:
        """Deadline-aware shed check at dequeue time.

        Uses a *lower bound* on the request's TTFT: the wait so far plus
        its prefill as if it were alone on the machine.  If even that
        best case misses the deadline, no schedule can save it — shed it
        before a single decode token is wasted.
        """
        if not self.config.deadline_shed:
            return False
        rec = self.records[rid]
        waited = self.clock - rec.request.arrival_time
        # The lower bound honours prefix-cache warmth: cached prompt spans
        # cost no prefill, so a warm request is harder to doom.
        cold = rec.request.prompt_len - self._probe_warmth(rec)
        best_prefill = (
            self._prefill_latency(
                cold, kv_len=rec.request.prompt_len, kv_bits=rec.kv_bits
            )
            * self.time_scale
            if cold > 0
            else 0.0
        )
        if waited + best_prefill <= self.config.slo.ttft_s:
            return False
        self._shed(rid, "deadline")
        self.deadline_sheds += 1
        return True

    def _shed_high_water(self) -> None:
        """Pressure-relief shedding: while KV pressure sits above the
        high-water mark, drop queued requests lowest-priority-first
        (ties: youngest arrival, then highest rid) — only waiting
        requests are victimized, so zero decode tokens are wasted."""
        high_water = self.config.shed_high_water
        if high_water is None:
            return
        while self.waiting and self.kv_pressure > high_water:
            victim = min(
                self.waiting,
                key=lambda rid: (
                    self.records[rid].request.priority,
                    -self.records[rid].request.arrival_time,
                    -rid,
                ),
            )
            self._shed(victim, "high_water")
            self.high_water_sheds += 1

    def step(self) -> float:
        """One engine iteration (shedding, admission, prefill, decode,
        growth).

        Returns the simulated seconds consumed; advances :attr:`clock`.
        """
        self.iterations += 1
        records, waiting, running = self.records, self.waiting, self.running

        # The warm prefix cache yields capacity back exactly when the
        # admission gate starts pushing back on the same signal.
        if self.prefix_pool is not None:
            self.prefix_pool.evict_under_pressure()

        # Overload controllers read the pre-iteration saturation signals.
        if self.brownout is not None:
            self.brownout.observe(self.clock, self.queue_delay, self.kv_pressure)
        self._shed_high_water()

        # Admission: reference shared prefix blocks, reserve the private
        # remainder, enter PREFILLING.  Requests that provably cannot
        # meet their TTFT deadline are shed here, before any capacity is
        # reserved for them.
        while waiting and len(running) < self.config.max_batch:
            rid = waiting[0]
            rec = records[rid]
            if self._shed_doomed(rid):
                continue
            acq = None
            if self.prefix_pool is not None and rec.request.prefix_id is not None:
                acq = self.prefix_pool.acquire(rec, self.clock)
            shared = acq.shared_tokens if acq is not None else 0
            if not self._grow(
                rid, rec.request.prompt_len - shared, self._bytes_scale(rec)
            ):
                if acq is not None:
                    self.prefix_pool.release(rid)
                break
            waiting.popleft()
            rec.status = RequestStatus.PREFILLING
            rec.admitted_at = self.clock
            if acq is not None:
                rec.shared_tokens = acq.shared_tokens
                rec.shared_tail_tokens = acq.tail_tokens
                rec.prefilled = max(rec.prefilled, acq.hit_tokens)
                rec.prefix_hit_tokens += acq.hit_tokens
                rec.prefix_lookup_tokens += rec.request.prompt_len
            if rec.prefilled >= rec.request.prompt_len:
                # Nothing left to prefill — a full prefix-cache hit, or a
                # migrated-in handoff whose KV arrived intact: straight
                # to decode.
                rec.status = RequestStatus.RUNNING
            running.append(rid)
            self._mark("admit", f"r{rid}")
        self.peak_running = max(self.peak_running, len(running))

        # From here on ``running`` membership is stable until the
        # prefill-handoff move below, so one slot gather serves both the
        # prefill and decode status scans (statuses change in between —
        # the *codes* are re-gathered per scan, the slots are not).
        cols = self.columns
        run_slots = (
            np.fromiter(
                (records[rid]._slot for rid in running),
                dtype=np.int64,
                count=len(running),
            )
            if running
            else None
        )

        # Prefill work.  Unchunked: every PREFILLING request finishes
        # its whole prompt this iteration (serialized).  Chunked: only
        # the oldest PREFILLING request advances, by one chunk.
        step_time = 0.0
        prefilling = (
            [
                running[i]
                for i in np.nonzero(cols.status[run_slots] == _PREFILLING_CODE)[0]
            ]
            if run_slots is not None
            else []
        )
        chunk = self.config.prefill_chunk
        if chunk is None:
            for rid in prefilling:
                rec = records[rid]
                # Cache-hit prompt spans (rec.prefilled head start) cost
                # no prefill compute; attention still spans the full
                # prompt context for the tokens that do run.
                step_time += self._prefill_latency(
                    rec.request.prompt_len - rec.prefilled,
                    kv_len=rec.request.prompt_len,
                    kv_bits=rec.kv_bits,
                )
                rec.prefilled = rec.request.prompt_len
                rec.status = RequestStatus.RUNNING
        elif prefilling:
            rid = prefilling[0]
            rec = records[rid]
            n = min(chunk, rec.request.prompt_len - rec.prefilled)
            step_time += self._prefill_latency(
                n, kv_len=rec.prefilled + n, kv_bits=rec.kv_bits
            )
            rec.prefilled += n
            if rec.prefilled >= rec.request.prompt_len:
                rec.status = RequestStatus.RUNNING

        # Disaggregated prefill pool: prefill-complete requests park for
        # migration instead of decoding here.  Local-decode fallbacks are
        # the exception — their migration budget already ran out.
        if self.config.prefill_only:
            for rid in running:
                rec = records[rid]
                if rec.status is RequestStatus.RUNNING and not rec.local_decode:
                    rec.status = RequestStatus.MIGRATING

        # Batched decode for fully-prefilled requests.  The batch's cost
        # uses its mean admitted KV width — browned-out requests read
        # fewer cache bytes per step, so a degraded batch decodes faster.
        if run_slots is not None:
            dec_mask = cols.status[run_slots] == _RUNNING_CODE
            dec_pos = np.nonzero(dec_mask)[0]
            dec_slots = run_slots[dec_pos]
            n_dec = len(dec_pos)
        else:
            dec_slots = dec_pos = None
            n_dec = 0
        if n_dec:
            dec_gen = cols.generated[dec_slots]
            # Context lengths are integers, so the batched sum is the
            # per-record sum exactly; kv widths are floats, where only a
            # left-to-right fold (accumulate, not pairwise np.sum)
            # reproduces the scalar loop bit-for-bit.
            mean_ctx = int((cols.prompt_len[dec_slots] + dec_gen).sum()) / n_dec
            bits_col = cols.kv_bits[dec_slots]
            if np.isnan(bits_col).any():
                mean_bits = None
            else:
                mean_bits = float(np.add.accumulate(bits_col)[-1]) / n_dec
            step_time += self._decode_latency(n_dec, mean_ctx, mean_bits)
        # Resolve decode positions to ids before the handoff below removes
        # MIGRATING ids from ``running`` and shifts the positions.
        decoding = [running[i] for i in dec_pos] if n_dec else []
        if step_time == 0.0 and not n_dec:
            # Nothing processable (all prefilling under chunking with
            # zero-size chunks cannot happen; guard anyway).
            step_time = 1e-6
        step_time *= self.time_scale
        self.clock += step_time

        # Hand prefill-complete requests to the cluster once their
        # prefill cost has been charged to the clock: KV stays pinned in
        # ``migrating``; the cluster collects them via take_handoffs().
        if self.config.prefill_only:
            for rid in [
                r for r in running if records[r].status is RequestStatus.MIGRATING
            ]:
                rec = records[rid]
                rec.prefill_done_at = self.clock
                running.remove(rid)
                self.migrating[rid] = rec
                self.handoff_ready.append(rid)
                self._mark("prefill_ready", f"r{rid}")

        # Token bookkeeping + cache growth (with preemption on OOM).
        # Fast path: without a prefix pool there are no COW/shared-block
        # transitions, so the whole batch's bookkeeping is four column
        # scatters plus one allocator commit.  Any OOM along the way (or
        # a request with no allocation to grow) falls back to the scalar
        # loop below, which carries the preemption policy.
        if n_dec and self.prefix_pool is None and not self.config.prefill_only:
            alloc_index = self.allocator._index
            alloc_slots = np.fromiter(
                (alloc_index.get(rid, -1) for rid in decoding),
                dtype=np.int64,
                count=n_dec,
            )
            if alloc_slots.min() >= 0:
                gen_new = dec_gen + 1
                done = gen_new >= cols.gen_len[dec_slots]
                # Growth reserves the *next* token's block; shared prefix
                # tokens (always 0 without a pool, but kept for exactness
                # with records migrated in) never count against private
                # blocks.
                tokens = (
                    cols.prompt_len[dec_slots]
                    + gen_new
                    + 1
                    - cols.shared_tokens[dec_slots]
                )
                done_pos = np.nonzero(done)[0]
                release_ids = [decoding[i] for i in done_pos]
                if self.allocator.decode_commit(
                    alloc_slots, tokens, done, release_ids
                ):
                    cols.generated[dec_slots] = gen_new
                    first_new = ~cols.first_flag[dec_slots]
                    cols.first_flag[dec_slots] = True
                    cols.first_at[dec_slots[first_new]] = self.clock
                    # Rare transitions (first token, finish) keep their
                    # scalar in-batch-order walk so trace marks appear in
                    # exactly the order the scalar loop emitted them.
                    finished: List[int] = []
                    for i in np.nonzero(first_new | done)[0].tolist():
                        rid = decoding[i]
                        if first_new[i]:
                            self._mark("first_token", f"r{rid}")
                        if done[i]:
                            rec = records[rid]
                            cols.status[dec_slots[i]] = _FINISHED_CODE
                            rec.finished_at = self.clock
                            finished.append(rid)
                            self._mark("finish", f"r{rid}")
                            self.columns.unbind(rec)
                    for rid in finished:
                        running.remove(rid)
                    return step_time

        finished = []
        for rid in list(decoding):
            if records[rid].status is not RequestStatus.RUNNING:
                continue  # preempted earlier in this loop
            rec = records[rid]
            rec.generated += 1
            if rec.first_token_at is None:
                rec.first_token_at = self.clock
                self._mark("first_token", f"r{rid}")
            if rec.shared_tail_tokens and self.prefix_pool is not None:
                # First decode write lands inside the shared tail block:
                # copy-on-write — drop the shared reference and fold those
                # tokens into the private allocation grown below.
                self.prefix_pool.cow_tail(rid)
                rec.shared_tokens -= rec.shared_tail_tokens
                rec.shared_tail_tokens = 0
                rec.cow_copies += 1
            if rec.done:
                rec.status = RequestStatus.FINISHED
                rec.finished_at = self.clock
                self._release_request(rid)
                finished.append(rid)
                self._mark("finish", f"r{rid}")
                self.columns.unbind(rec)
                continue
            # Private growth covers only the non-shared context span.
            if not self._grow(
                rid, rec.context_len + 1 - rec.shared_tokens, self._bytes_scale(rec)
            ):
                # OOM: preempt the most recent admission that isn't this
                # request; if none, preempt this one.
                victim = next(
                    (v for v in reversed(running) if v != rid and v not in finished),
                    rid,
                )
                self._release_request(victim)
                records[victim].reset_for_requeue()
                running.remove(victim)
                waiting.appendleft(victim)
                self._mark("preempt", f"r{victim}")
                if victim != rid:
                    # Retry the growth for the current request.
                    if not self._grow(
                        rid,
                        rec.context_len + 1 - rec.shared_tokens,
                        self._bytes_scale(rec),
                    ):
                        self._release_request(rid)
                        rec.reset_for_requeue()
                        running.remove(rid)
                        waiting.appendleft(rid)
                        self._mark("preempt", f"r{rid}")
        for rid in finished:
            running.remove(rid)
        return step_time

    def decode_steps(self, t_limit: Optional[float] = None) -> int:
        """Advance many *homogeneous* decode iterations in one pass.

        A homogeneous stretch is one where :meth:`step` would do nothing
        but batched decode over a fixed set of RUNNING requests: no
        waiting queue (so no admission/shed attempts), no prefilling, no
        overload controllers, no prefix pool, and every request past its
        first token (so no lifecycle transitions, hence no trace marks).
        Under those conditions each step is fully determined by the
        batch's context trajectory, so the per-step cost-model calls
        collapse into one vectorized
        :func:`~repro.perf.tp.decode_step_latency_batch` evaluation and
        the per-step allocator growth into one :meth:`bulk_grow` — with
        clock, generated counts, and block state bit-identical to calling
        :meth:`step` that many times (the clock is folded left-to-right
        via ``np.add.accumulate``, the same float additions ``step``
        performs).

        Advances until (whichever comes first) the clock reaches
        ``t_limit`` (the last step may overshoot it, exactly like the
        scalar loop whose condition is checked *before* each step), or
        the next step would finish a request (the scalar path owns all
        transitions).  Returns the number of steps taken; 0 means "no
        homogeneous stretch here — take a scalar :meth:`step`".
        """
        cfg = self.config
        if (
            not self.running
            or self.waiting
            or self.prefix_pool is not None
            or self.brownout is not None
            or cfg.prefill_only
            or cfg.shed_high_water is not None
        ):
            return 0
        records, running = self.records, self.running
        cols = self.columns
        n = len(running)
        run_slots = np.fromiter(
            (records[rid]._slot for rid in running), dtype=np.int64, count=n
        )
        if not (
            (cols.status[run_slots] == _RUNNING_CODE).all()
            and cols.first_flag[run_slots].all()
        ):
            return 0
        gen = cols.generated[run_slots]
        # Stop one short of the earliest finish: the finishing step has
        # transitions (marks, releases) the scalar loop must own.  The
        # whole window's latencies are computed even when ``t_limit``
        # cuts the stretch short — the batch cost model's price is
        # per-call overhead, not array length, so one oversized call
        # beats chunked re-entry from the caller's advance loop.
        k_cap = int((cols.gen_len[run_slots] - gen).min()) - 1
        if k_cap < 1:
            return 0
        alloc_index = self.allocator._index
        alloc_slots = np.fromiter(
            (alloc_index.get(rid, -1) for rid in running), dtype=np.int64, count=n
        )
        if alloc_slots.min() < 0:
            return 0

        # Latency of each candidate step from the context trajectory
        # (the batch mean context advances by exactly one per step).
        ctx_sums = int((cols.prompt_len[run_slots] + gen).sum()) + n * np.arange(
            k_cap, dtype=np.int64
        )
        means = ctx_sums / n
        bits_col = cols.kv_bits[run_slots]
        if np.isnan(bits_col).any():
            spec = self.method
        else:
            spec = self._method_at(float(np.add.accumulate(bits_col)[-1]) / n)
        kv_lens = np.maximum(np.trunc(means), 1.0).astype(np.int64)
        step_times = (
            decode_step_latency_batch(
                spec, self.model, n, kv_lens, tp=self.config.tp, gpu=self.gpu
            )
            * self.time_scale
        )
        clocks = np.add.accumulate(np.concatenate(([self.clock], step_times)))
        if t_limit is None:
            k = k_cap
        else:
            # Steps run while the *pre-step* clock is below the limit.
            k = int(np.searchsorted(clocks[:k_cap], t_limit, side="left"))
        if k < 1:
            return 0
        if not self.allocator.bulk_grow(
            alloc_slots,
            cols.prompt_len[run_slots] + (gen + k) + 1 - cols.shared_tokens[run_slots],
        ):
            return 0
        cols.generated[run_slots] = gen + k
        self.clock = float(clocks[k])
        self.iterations += k
        return k

    def summarize(self) -> ServingMetrics:
        """Aggregate the current records into operator metrics."""
        return summarize(
            list(self.records.values()),
            makespan=self.clock,
            slo=self.config.slo,
            base_kv_bits=self.method.kv_bits,
            extra_wasted_prefill=self.cancelled_wasted_prefill_tokens,
            extra_wasted_decode=self.cancelled_wasted_decode_tokens,
            shared_blocks=(
                self.prefix_pool.peak_resident_blocks
                if self.prefix_pool is not None
                else 0
            ),
        )

    # -- closed-loop simulation ------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ServingMetrics:
        self.start()
        # The event kernel carries the offer timeline.  Arrivals seed it;
        # DEFER verdicts re-enter at ``clock + defer_retry_s`` until
        # accepted or their defer budget turns into a terminal REJECT, so
        # every request ends up in ``records`` exactly once.  Engine
        # steps are atomic and may overshoot an offer's time, hence
        # ``pop_due`` (fire once the clock has passed it) rather than
        # ``pop``.
        events = self.events
        for r in sorted(requests, key=lambda r: (r.arrival_time, r.request_id)):
            events.schedule(
                r.arrival_time, "offer", RequestRecord(request=r),
                label=f"r{r.request_id}",
            )

        for _ in range(self.config.max_iterations):
            # Drain due offers into the FCFS queue (or terminal REJECT).
            for event in events.pop_due_batch(self.clock):
                record = event.payload
                if self.submit_record(record) is AdmissionVerdict.DEFER:
                    events.schedule(
                        self.clock + self.defer_retry_s, "offer", record,
                        label=f"r{record.request.request_id}",
                    )

            # Idle: jump to the next offer.
            if not self.busy:
                if events.empty:
                    break
                self.clock = events.next_time
                continue

            # Homogeneous decode stretches advance in bulk; the next
            # offer bounds the jump so due offers still land between
            # exactly the same steps as the scalar loop.
            if self.decode_steps(events.next_time) == 0:
                self.step()

            if not self.busy and events.empty:
                break
        else:
            raise RuntimeError("engine iteration limit exceeded (livelock?)")

        return self.summarize()

"""The discrete-event scheduler both simulation loops drive.

One kernel, two consumers: :meth:`repro.serving.ServingEngine.run`
feeds it request offers (arrivals and admission-DEFER re-offers) and
:class:`repro.cluster.ClusterSimulator` feeds it the fleet timeline
(arrivals, re-dispatches, faults, recoveries, timeouts).  The kernel
owns the three obligations the two loops used to duplicate:

**Total same-instant ordering.**  Events pop in ``(time, order_class,
seq)`` order.  The order class comes from a per-scheduler registry
mapping every event *kind* to a small integer — e.g. the cluster's
"replicas recover before faults strike before work is placed" rule —
and ``seq`` (scheduling order) breaks the remaining ties, so the order
is total and depends only on the schedule calls, never on hash order,
object identity, or event-kind names.  A kind that was never registered
raises :class:`UnknownEventKind` at schedule time: adding a new event
type forces a deliberate ordering decision instead of silently sorting
by whatever comparison the payload happens to support.

**Monotonic time.**  ``now`` is the time of the last fired event and
never decreases: scheduling into the past raises
:class:`MonotonicTimeError`, so a consumer bug (a backoff computed from
a stale clock, say) fails loudly at the call site instead of corrupting
the timeline.

**Instants.**  :meth:`EventScheduler.pop_batch` fires one instant at a
time.  A consumer that must move its own state up to each instant
before that instant's events fire (the disaggregated fleet ships
finished prefills first) passes a ``before_instant`` hook: it is called
with the head time, and the head is re-read after it returns.

**Observability.**  When a :class:`~repro.sim.trace.TraceSink` is
attached, every schedule/fire/cancel — and every lifecycle *mark* a
consumer emits via :meth:`EventScheduler.mark` — becomes one typed
record.  Determinism then stops being a convention and becomes a byte
digest (:func:`repro.sim.trace.trace_digest`) the test suite asserts.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.sim.trace import TraceSink

__all__ = ["Event", "EventScheduler", "MonotonicTimeError", "UnknownEventKind"]


class UnknownEventKind(KeyError):
    """An event kind was used without a registered order class."""


class MonotonicTimeError(ValueError):
    """An operation would move simulated time backwards."""


class Event:
    """One scheduled occurrence.  Returned by :meth:`EventScheduler.schedule`
    as a handle; pass it to :meth:`EventScheduler.cancel` to revoke it."""

    __slots__ = ("time", "kind", "payload", "label", "seq", "order", "cancelled", "fired")

    def __init__(
        self, time: float, kind: str, payload: Any, label: str, seq: int, order: int
    ):
        self.time = time
        self.kind = kind
        self.payload = payload
        self.label = label
        self.seq = seq
        self.order = order
        self.cancelled = False
        self.fired = False

    @property
    def live(self) -> bool:
        """Still pending: neither fired nor cancelled."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6g}, kind={self.kind!r}, label={self.label!r}, {state})"


class EventScheduler:
    """Seeded-simulation event kernel with deterministic total ordering.

    ``order`` pins the same-instant semantics: a mapping from event kind
    to its order class (lower fires first at equal times).  The mapping
    is closed — kinds outside it raise :class:`UnknownEventKind` — and
    it also covers *mark* kinds, so a scheduler's full event taxonomy
    lives in exactly one place.
    """

    def __init__(
        self,
        order: Mapping[str, int],
        *,
        clock: str = "sim",
        trace: Optional[TraceSink] = None,
        start: float = 0.0,
    ):
        self.order: Dict[str, int] = dict(order)
        #: Name stamped on every trace record this scheduler emits, so
        #: one sink can interleave several clocks (cluster + replicas).
        self.clock = clock
        self.trace = trace
        #: Time of the last fired event; never decreases.
        self.now = float(start)
        #: Multiplier applied to delays passed to :meth:`schedule_in`
        #: (straggler/stall modeling happens here, not in consumers).
        self.time_scale = 1.0
        self._heap: List[tuple] = []
        self._seq = 0
        self._live = 0

    # -- registry ------------------------------------------------------------
    def order_class(self, kind: str) -> int:
        try:
            return self.order[kind]
        except KeyError:
            raise UnknownEventKind(
                f"event kind {kind!r} has no order class on clock {self.clock!r}; "
                f"register it in the scheduler's order map (known: "
                f"{sorted(self.order)}) — same-instant ordering must be pinned "
                "explicitly, never inferred from names"
            ) from None

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, time: float, kind: str, payload: Any = None, label: str = ""
    ) -> Event:
        """Enqueue ``kind`` at absolute ``time``; returns a cancellable handle."""
        order = self.order_class(kind)
        if time < self.now:
            raise MonotonicTimeError(
                f"cannot schedule {kind!r} at t={time!r} before now={self.now!r} "
                f"on clock {self.clock!r}"
            )
        self._seq += 1
        event = Event(float(time), kind, payload, label, self._seq, order)
        heapq.heappush(self._heap, (event.time, order, event.seq, event))
        self._live += 1
        self._emit("schedule", event.kind, event.time, event.label)
        return event

    def schedule_in(
        self, delay: float, kind: str, payload: Any = None, label: str = ""
    ) -> Event:
        """Enqueue ``kind`` after ``delay`` simulated seconds, stretched by
        :attr:`time_scale` (a stalled clock schedules its futures late)."""
        if delay < 0:
            raise MonotonicTimeError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self.now + delay * self.time_scale, kind, payload, label)

    def cancel(self, event: Event) -> bool:
        """Revoke a pending event.  A cancelled event never fires; cancelling
        an already-fired or already-cancelled event is a no-op (False)."""
        if not event.live:
            return False
        event.cancelled = True
        self._live -= 1
        self._emit("cancel", event.kind, event.time, event.label)
        return True

    # -- consumption ---------------------------------------------------------
    def __len__(self) -> int:
        """Pending (live) events."""
        return self._live

    @property
    def empty(self) -> bool:
        return self._live == 0

    def _skim(self) -> None:
        """Drop cancelled entries off the top of the heap."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    @property
    def next_time(self) -> Optional[float]:
        """Time of the next live event (None when empty)."""
        self._skim()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Optional[Event]:
        """Fire the next live event, advancing :attr:`now` to its time."""
        self._skim()
        if not self._heap:
            return None
        event: Event = heapq.heappop(self._heap)[3]
        if event.time < self.now:  # pragma: no cover - schedule() forbids this
            raise MonotonicTimeError(
                f"event {event.kind!r} at t={event.time!r} fired after "
                f"now={self.now!r} on clock {self.clock!r}"
            )
        event.fired = True
        self._live -= 1
        self.now = event.time
        self._emit("fire", event.kind, event.time, event.label)
        return event

    def pop_due(self, now: float) -> Optional[Event]:
        """Fire the next live event only if it is due at ``now`` (consumers
        whose clocks overshoot event times — engine steps are atomic —
        drain with this instead of :meth:`pop`)."""
        next_time = self.next_time
        if next_time is None or next_time > now:
            return None
        return self.pop()

    def pop_batch(
        self, before_instant: Optional[Callable[[float], None]] = None
    ) -> Iterator[Event]:
        """Lazily fire every live event at the head instant, in order.

        Captures the head time once, then yields :meth:`pop` results while
        the head stays at that instant — so an event a *handler* schedules
        at the same time is yielded too, in its registered order-class
        slot, exactly as a caller re-invoking :meth:`pop` in a loop would
        see it.  Laziness is the point: consumers keep their per-event
        handling between pops, but the batch shape lets them hoist the
        per-instant bookkeeping (fleet advance, autoscale) out of the
        per-event path.

        ``before_instant``, when given, runs first with the head time and
        may schedule events; the instant is then re-read, so an event it
        schedules ahead of the old head fires first, as its own instant.
        """
        t = self.next_time
        if t is None:
            return
        if before_instant is not None:
            before_instant(t)
            t = self.next_time
        while True:
            next_time = self.next_time
            if next_time is None or next_time != t:
                return
            yield self.pop()  # type: ignore[misc]  # head is live, never None

    def pop_due_batch(self, now: float) -> Iterator[Event]:
        """Lazily fire every live event due at or before ``now``, in order.

        The generator re-checks the head each iteration, so events a
        handler schedules inside the drain window are yielded in this
        same sweep — byte-identical to a ``while pop_due(now)`` loop,
        without the per-call ``None`` sentinel handling at the call site.
        """
        while True:
            next_time = self.next_time
            if next_time is None or next_time > now:
                return
            yield self.pop()  # type: ignore[misc]  # head is due, never None

    # -- lifecycle marks ------------------------------------------------------
    def mark(self, kind: str, label: str = "", time: Optional[float] = None) -> None:
        """Emit a non-scheduled lifecycle record (request admitted, breaker
        tripped, replica scaled...) to the trace.  Marks share the closed
        kind registry but not the heap; ``time`` defaults to :attr:`now`."""
        self.order_class(kind)  # closed taxonomy applies to marks too
        if self.trace is not None:
            self._emit("mark", kind, self.now if time is None else time, label)

    def _emit(self, action: str, kind: str, time: float, label: str) -> None:
        if self.trace is not None:
            self.trace.emit(
                {
                    "clock": self.clock,
                    "action": action,
                    "ev": kind,
                    "t": float(time),
                    "label": label,
                }
            )

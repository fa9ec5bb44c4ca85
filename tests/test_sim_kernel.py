"""Property tests for the event-scheduler kernel itself.

Both simulation loops (engine, cluster) drive :class:`repro.sim.EventScheduler`,
so these properties — total seed-stable same-instant ordering, cancellation
never firing, monotonic time, time_scale commuting with digests, and the
closed kind registry — are proven once here and inherited everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import (
    EventScheduler,
    ListTraceSink,
    MonotonicTimeError,
    UnknownEventKind,
    trace_digest,
)

ORDER = {"alpha": 0, "beta": 1, "gamma": 2, "note": 10}


def drain(sched):
    fired = []
    while (ev := sched.pop()) is not None:
        fired.append(ev)
    return fired


class TestClosedKindRegistry:
    """Satellite: adding a new event kind without an order class raises
    instead of silently sorting by name."""

    def test_unknown_kind_raises_at_schedule_time(self):
        sched = EventScheduler(ORDER)
        with pytest.raises(UnknownEventKind, match="no order class"):
            sched.schedule(1.0, "delta")
        # Nothing half-enqueued: the scheduler stays empty.
        assert sched.empty

    def test_unknown_kind_raises_for_marks_too(self):
        sched = EventScheduler(ORDER, trace=ListTraceSink())
        with pytest.raises(UnknownEventKind):
            sched.mark("delta", "oops")

    def test_error_names_the_known_taxonomy(self):
        sched = EventScheduler(ORDER, clock="test")
        with pytest.raises(UnknownEventKind, match="alpha"):
            sched.schedule(0.0, "delta")


class TestSameInstantOrdering:
    def test_order_class_then_schedule_order(self):
        """At one instant, order class ranks first; seq breaks ties —
        never the kind name or payload."""
        sched = EventScheduler(ORDER)
        # Scheduled deliberately out of order-class order ("gamma" first).
        sched.schedule(1.0, "gamma", label="g1")
        sched.schedule(1.0, "alpha", label="a1")
        sched.schedule(1.0, "beta", label="b1")
        sched.schedule(1.0, "alpha", label="a2")
        fired = [(e.kind, e.label) for e in drain(sched)]
        assert fired == [
            ("alpha", "a1"), ("alpha", "a2"), ("beta", "b1"), ("gamma", "g1")
        ]

    def test_ordering_is_total_and_seed_stable(self):
        """A random same-instant schedule pops in exactly one order, and
        identical runs produce byte-identical trace digests."""
        def once():
            rng = np.random.default_rng(7)
            sink = ListTraceSink()
            sched = EventScheduler(ORDER, trace=sink)
            kinds = ["alpha", "beta", "gamma"]
            for i in range(200):
                t = float(rng.integers(0, 5))  # heavy same-instant collisions
                sched.schedule(t, kinds[int(rng.integers(3))], label=f"e{i}")
            fired = [(e.time, e.order, e.seq) for e in drain(sched)]
            return fired, sink.digest()

        (fired_a, digest_a), (fired_b, digest_b) = once(), once()
        assert fired_a == fired_b
        assert digest_a == digest_b
        # Totality: the fired key sequence is strictly increasing — no two
        # events compare equal, so the order never depends on tie-breaking
        # outside the kernel's key.
        assert all(a < b for a, b in zip(fired_a, fired_a[1:]))


class TestCancellation:
    def test_cancelled_events_never_fire(self):
        rng = np.random.default_rng(3)
        sched = EventScheduler(ORDER)
        events = [
            sched.schedule(float(rng.uniform(0, 10)), "alpha", label=f"e{i}")
            for i in range(100)
        ]
        cancelled = [e for i, e in enumerate(events) if i % 3 == 0]
        for e in cancelled:
            assert sched.cancel(e)
        fired = drain(sched)
        assert len(fired) == len(events) - len(cancelled)
        assert not (set(id(e) for e in fired) & set(id(e) for e in cancelled))

    def test_cancel_is_idempotent_and_refuses_fired(self):
        sched = EventScheduler(ORDER)
        ev = sched.schedule(1.0, "alpha")
        assert sched.cancel(ev)
        assert not sched.cancel(ev)  # second cancel: no-op
        ev2 = sched.schedule(2.0, "alpha")
        assert sched.pop() is ev2
        assert not sched.cancel(ev2)  # already fired: no-op
        assert sched.empty

    def test_cancelled_head_is_skipped_by_next_time(self):
        sched = EventScheduler(ORDER)
        head = sched.schedule(1.0, "alpha")
        sched.schedule(2.0, "beta")
        sched.cancel(head)
        assert sched.next_time == 2.0
        assert len(sched) == 1

    def test_cancellation_is_traced(self):
        sink = ListTraceSink()
        sched = EventScheduler(ORDER, trace=sink)
        sched.cancel(sched.schedule(1.0, "alpha", label="x"))
        actions = [(r["action"], r["ev"]) for r in sink.records]
        assert actions == [("schedule", "alpha"), ("cancel", "alpha")]


class TestMonotonicTime:
    def test_fired_times_never_decrease(self):
        rng = np.random.default_rng(11)
        sched = EventScheduler(ORDER)
        for i in range(300):
            sched.schedule(float(rng.uniform(0, 50)), "beta", label=f"e{i}")
        times = [e.time for e in drain(sched)]
        assert times == sorted(times)
        assert sched.now == times[-1]

    def test_scheduling_into_the_past_raises(self):
        sched = EventScheduler(ORDER)
        sched.schedule(5.0, "alpha")
        assert sched.pop().time == 5.0
        with pytest.raises(MonotonicTimeError):
            sched.schedule(4.0, "alpha")
        # At exactly now is allowed (same-instant follow-up events).
        sched.schedule(5.0, "beta")

    def test_negative_delay_raises(self):
        sched = EventScheduler(ORDER)
        with pytest.raises(MonotonicTimeError):
            sched.schedule_in(-0.1, "alpha")

    def test_pop_due_respects_the_consumer_clock(self):
        sched = EventScheduler(ORDER)
        sched.schedule(1.0, "alpha")
        sched.schedule(2.0, "alpha")
        assert sched.pop_due(0.5) is None
        assert sched.pop_due(1.0).time == 1.0
        assert sched.pop_due(1.5) is None  # 2.0 is not yet due
        assert sched.pop_due(10.0).time == 2.0
        assert sched.pop_due(10.0) is None


class TestTimeScale:
    def test_time_scale_commutes_with_digests(self):
        """Scheduling delays under ``time_scale=s`` produces the same
        trace (hence digest) as pre-scaled delays under scale 1 — the
        straggler model is pure time dilation, not a behaviour change."""
        delays = [0.5, 1.25, 2.0, 0.75]

        def run(scale, raw):
            sink = ListTraceSink()
            sched = EventScheduler(ORDER, trace=sink)
            sched.time_scale = scale
            for i, d in enumerate(raw):
                sched.schedule_in(d, "alpha", label=f"e{i}")
            while sched.pop() is not None:
                pass
            return sink.digest()

        assert run(4.0, delays) == run(1.0, [d * 4.0 for d in delays])
        assert run(4.0, delays) != run(1.0, delays)

    def test_schedule_in_stretches_by_scale(self):
        sched = EventScheduler(ORDER)
        sched.time_scale = 3.0
        ev = sched.schedule_in(2.0, "alpha")
        assert ev.time == 6.0


class TestBatchDrains:
    def test_pop_batch_fires_exactly_the_head_instant(self):
        sched = EventScheduler(ORDER)
        sched.schedule(1.0, "beta", label="b")
        sched.schedule(1.0, "alpha", label="a")
        sched.schedule(2.0, "alpha", label="later")
        fired = [e.label for e in sched.pop_batch()]
        assert fired == ["a", "b"]  # order class, not schedule order
        assert sched.now == 1.0 and len(sched) == 1

    def test_pop_batch_on_empty_scheduler_yields_nothing(self):
        sched = EventScheduler(ORDER)
        assert list(sched.pop_batch()) == []

    def test_pop_batch_includes_same_instant_events_scheduled_mid_drain(self):
        # A handler scheduling at the instant being drained sees its
        # event fire in this same sweep, in its order-class slot —
        # exactly what a pop()-in-a-loop caller observes.
        sched = EventScheduler(ORDER)
        sched.schedule(1.0, "alpha", label="first")
        sched.schedule(1.0, "gamma", label="last")
        fired = []
        for ev in sched.pop_batch():
            fired.append(ev.label)
            if ev.label == "first":
                sched.schedule(1.0, "beta", label="injected")
        assert fired == ["first", "injected", "last"]

    def test_pop_due_batch_drains_everything_due(self):
        sched = EventScheduler(ORDER)
        sched.schedule(1.0, "alpha", label="a")
        sched.schedule(2.0, "alpha", label="b")
        sched.schedule(3.0, "alpha", label="late")
        assert [e.label for e in sched.pop_due_batch(2.5)] == ["a", "b"]
        assert sched.now == 2.0
        assert [e.label for e in sched.pop_due_batch(1.0)] == []
        assert [e.label for e in sched.pop_due_batch(3.0)] == ["late"]

    def test_batch_drains_match_scalar_pops_in_trace(self):
        def run(drain):
            sink = ListTraceSink()
            sched = EventScheduler(ORDER, trace=sink)
            for i, (t, kind) in enumerate(
                [(1.0, "beta"), (1.0, "alpha"), (1.0, "gamma"), (2.0, "alpha")]
            ):
                sched.schedule(t, kind, label=f"e{i}")
            drain(sched)
            return sink.digest()

        def scalar(sched):
            while sched.pop() is not None:
                pass

        def batched(sched):
            while sched.next_time is not None:
                for _ in sched.pop_batch():
                    pass

        assert run(scalar) == run(batched)


class TestBeforeInstantHook:
    def test_hook_runs_once_per_instant_with_its_head_time(self):
        sched = EventScheduler(ORDER)
        seen = []
        for t, kind in [(1.0, "beta"), (1.0, "alpha"), (2.0, "alpha")]:
            sched.schedule(t, kind)
        fired = 0
        while not sched.empty:
            fired += len(list(sched.pop_batch(seen.append)))
        assert fired == 3 and seen == [1.0, 2.0]

    def test_event_the_hook_schedules_ahead_of_the_head_fires_first(self):
        # The hook moves consumer state up to the head instant and may
        # schedule work that is due earlier (a KV transfer that started
        # at a prefill's true completion time): that event is its own,
        # earlier instant, and the old head follows in the next batch.
        sched = EventScheduler(ORDER)
        sched.schedule(2.0, "alpha", label="head")

        def hook(t):
            if t == 2.0 and len(sched) == 1 and sched.now < 1.5:
                sched.schedule(1.5, "gamma", label="early")

        assert [e.label for e in sched.pop_batch(hook)] == ["early"]
        assert sched.now == 1.5
        assert [e.label for e in sched.pop_batch(hook)] == ["head"]

    def test_empty_kernel_does_not_call_the_hook(self):
        sched = EventScheduler(ORDER)
        hook = lambda t: pytest.fail("hook ran on an empty kernel")  # noqa: E731
        assert list(sched.pop_batch(hook)) == []

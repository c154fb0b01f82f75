"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.events import Event, EventKind
from repro.sim.kernel import EventQueue, Simulator


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0)

    def test_default_priority_follows_kind(self):
        assert Event(0.0, EventKind.JOB_FINISH).priority == 0
        assert Event(0.0, EventKind.SCHEDULE_TICK).priority == int(
            EventKind.SCHEDULE_TICK
        )
        # same-time ordering invariant: state changes resolve before ticks
        assert EventKind.JOB_FINISH < EventKind.VM_FAIL < EventKind.VM_READY
        assert EventKind.VM_BOUNDARY < EventKind.SCHEDULE_TICK

    def test_explicit_priority_wins(self):
        assert Event(0.0, EventKind.SCHEDULE_TICK, priority=1).priority == 1

    def test_total_order_time_then_priority_then_seq(self):
        a = Event(1.0, EventKind.SCHEDULE_TICK)
        b = Event(1.0, EventKind.JOB_FINISH)
        c = Event(0.5, EventKind.SCHEDULE_TICK)
        assert c < b < a

    def test_same_kind_same_time_insertion_order(self):
        a = Event(1.0)
        b = Event(1.0)
        assert a < b  # seq breaks the tie

    def test_cancel_marks(self):
        e = Event(1.0)
        assert not e.cancelled
        e.cancel()
        assert e.cancelled


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        q.push(Event(3.0))
        q.push(Event(1.0))
        q.push(Event(2.0))
        assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_same_time_kind_priority(self):
        q = EventQueue()
        tick = q.push(Event(5.0, EventKind.SCHEDULE_TICK))
        finish = q.push(Event(5.0, EventKind.JOB_FINISH))
        assert q.pop() is finish
        assert q.pop() is tick

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        a = q.push(Event(1.0))
        b = q.push(Event(2.0))
        a.cancel()
        assert q.pop() is b
        assert not q

    def test_direct_event_cancel_respected(self):
        # Regression: callers cancel Event objects directly, not via the
        # queue; bool/len/pop must all agree.
        q = EventQueue()
        a = q.push(Event(1.0))
        a.cancel()
        assert not q
        assert len(q) == 0
        with pytest.raises(IndexError):
            q.pop()

    def test_push_cancelled_rejected(self):
        e = Event(1.0)
        e.cancel()
        with pytest.raises(ValueError):
            EventQueue().push(e)

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(Event(7.0))
        assert q.peek_time() == 7.0

    def test_clear(self):
        q = EventQueue()
        q.push(Event(1.0))
        q.clear()
        assert not q

    def test_drain_yields_in_order(self):
        q = EventQueue()
        for t in (3.0, 1.0, 2.0):
            q.push(Event(t))
        assert [e.time for e in q.drain()] == [1.0, 2.0, 3.0]

    def test_push_to_second_queue_rejected(self):
        q1, q2 = EventQueue(), EventQueue()
        e = q1.push(Event(1.0))
        with pytest.raises(ValueError, match="another queue"):
            q2.push(e)

    def test_popped_event_can_be_requeued(self):
        q = EventQueue()
        e = q.push(Event(1.0))
        assert q.pop() is e
        q.push(e)  # ownership released on pop
        assert len(q) == 1

    def test_len_is_live_count_under_random_workload(self):
        """Property: the O(1) live counter always equals a full heap scan
        (pre-optimisation definition of len) through arbitrary
        push/pop/cancel/clear interleavings."""
        import random

        rng = random.Random(1234)
        q = EventQueue()
        tracked: list[Event] = []
        t = 0.0
        for step in range(3_000):
            op = rng.random()
            if op < 0.55:
                t += rng.random()
                tracked.append(q.push(Event(t)))
            elif op < 0.80:
                if q:
                    q.pop()
            elif op < 0.97:
                if tracked:
                    # cancel a random event (possibly already popped or
                    # already cancelled — both must be harmless)
                    tracked[rng.randrange(len(tracked))].cancel()
            else:
                q.clear()
                tracked.clear()
            scan = sum(1 for *_, e in q._heap if not e.cancelled)
            assert len(q) == scan
            assert bool(q) == (scan > 0)


class TestSimulator:
    def test_run_processes_in_order(self):
        sim = Simulator()
        seen = []
        sim.on(EventKind.GENERIC, lambda s, e: seen.append(e.payload))
        sim.schedule_at(2.0, payload="b")
        sim.schedule_at(1.0, payload="a")
        sim.run()
        assert seen == ["a", "b"]
        assert sim.now == 2.0
        assert sim.events_processed == 2

    def test_handler_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def chain(s, e):
            seen.append(s.now)
            if s.now < 3.0:
                s.schedule_after(1.0)

        sim.on(EventKind.GENERIC, chain)
        sim.schedule_at(1.0)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_after(-1.0)

    def test_missing_handler_raises(self):
        sim = Simulator()
        sim.schedule_at(1.0)
        with pytest.raises(RuntimeError, match="no handler"):
            sim.run()

    def test_run_until_is_inclusive_and_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.on(EventKind.GENERIC, lambda s, e: seen.append(s.now))
        sim.schedule_at(5.0)
        sim.schedule_at(10.0)
        sim.run(until=5.0)
        assert seen == [5.0]
        assert sim.now == 5.0
        sim.run(until=20.0)
        assert seen == [5.0, 10.0]
        assert sim.now == 20.0  # clock advanced to the horizon

    def test_run_max_events(self):
        sim = Simulator()
        sim.on(EventKind.GENERIC, lambda s, e: None)
        for t in range(5):
            sim.schedule_at(float(t))
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_step_returns_none_when_empty(self):
        assert Simulator().step() is None

    def test_same_time_priorities_finish_before_tick(self):
        sim = Simulator()
        order = []
        sim.on(EventKind.JOB_FINISH, lambda s, e: order.append("finish"))
        sim.on(EventKind.SCHEDULE_TICK, lambda s, e: order.append("tick"))
        sim.on(EventKind.JOB_ARRIVAL, lambda s, e: order.append("arrival"))
        sim.schedule_at(1.0, EventKind.SCHEDULE_TICK)
        sim.schedule_at(1.0, EventKind.JOB_ARRIVAL)
        sim.schedule_at(1.0, EventKind.JOB_FINISH)
        sim.run()
        assert order == ["finish", "arrival", "tick"]

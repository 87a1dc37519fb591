"""Tests for the discrete-event engine."""

import pytest

from repro.netsim.engine import SimulationEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(20, lambda: order.append("b"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(30, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(10, lambda: order.append("first"))
        engine.schedule(10, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_clock_follows_events(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]

    def test_cannot_schedule_in_past(self):
        engine = SimulationEngine(start=100)
        with pytest.raises(ValueError):
            engine.schedule(99, lambda: None)

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        fired = []

        def first():
            engine.schedule(engine.now + 5, lambda: fired.append(engine.now))

        engine.schedule(10, first)
        engine.run()
        assert fired == [15]


class TestRunUntil:
    def test_run_until_executes_only_due_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(10, lambda: fired.append(10))
        engine.schedule(20, lambda: fired.append(20))
        executed = engine.run_until(15)
        assert executed == 1
        assert fired == [10]
        assert engine.now == 15
        assert engine.pending == 1

    def test_run_until_advances_clock_even_when_idle(self):
        engine = SimulationEngine()
        engine.run_until(500)
        assert engine.now == 500

    def test_boundary_event_included(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(15, lambda: fired.append(15))
        engine.run_until(15)
        assert fired == [15]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(10, lambda: fired.append(10))
        handle.cancel()
        assert handle.cancelled
        engine.run()
        assert fired == []
        assert engine.events_run == 0

    def test_pending_ignores_cancelled(self):
        engine = SimulationEngine()
        handle = engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        handle.cancel()
        assert engine.pending == 1


class TestPeriodic:
    def test_schedule_every(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_every(10, lambda: ticks.append(engine.now), until=35)
        engine.run()
        assert ticks == [10, 20, 30]

    def test_schedule_every_validates_interval(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_every(0, lambda: None)

    def test_recurring_handle_cancel_mid_stream(self):
        engine = SimulationEngine()
        ticks = []
        handle = engine.schedule_every(10, lambda: ticks.append(engine.now))
        assert not handle.cancelled
        assert handle.next_at == 10
        engine.run_until(35)
        assert ticks == [10, 20, 30]
        handle.cancel()
        assert handle.cancelled
        assert handle.next_at is None
        engine.run_until(100)
        assert ticks == [10, 20, 30]
        assert engine.pending == 0

    def test_recurring_handle_cancel_drops_pending_tick(self):
        engine = SimulationEngine()
        ticks = []
        handle = engine.schedule_every(10, lambda: ticks.append(engine.now))

        def stop():
            handle.cancel()

        # Cancel at t=25, while the t=30 tick is already scheduled: the
        # pending tick must be dropped, not just future reschedules.
        engine.schedule(25, stop)
        engine.run_until(200)
        assert ticks == [10, 20]
        assert engine.pending == 0

    def test_recurring_handle_self_cancel_in_callback(self):
        engine = SimulationEngine()
        ticks = []
        handle = engine.schedule_every(10, lambda: ticks.append(engine.now))

        def maybe_stop():
            if len(ticks) >= 3:
                handle.cancel()

        # Piggyback the stop check on the same tick times, scheduled
        # after the stream so it observes each tick's append.
        engine.schedule_every(10, maybe_stop)
        engine.run_until(200)
        assert ticks == [10, 20, 30]

    def test_recurring_handle_exhausted_by_until(self):
        engine = SimulationEngine()
        handle = engine.schedule_every(10, lambda: None, until=25)
        engine.run()
        assert handle.next_at is None
        assert not handle.cancelled  # ran to completion, not cancelled

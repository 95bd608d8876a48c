"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine


def test_time_starts_at_zero():
    assert Engine().now == 0.0


def test_call_after_executes_in_time_order():
    eng = Engine()
    seen = []
    eng.call_after(2.0, seen.append, "b")
    eng.call_after(1.0, seen.append, "a")
    eng.call_after(3.0, seen.append, "c")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 3.0


def test_ties_break_in_scheduling_order():
    eng = Engine()
    seen = []
    for name in "abcde":
        eng.call_at(1.0, seen.append, name)
    eng.run()
    assert seen == list("abcde")


def test_callbacks_can_schedule_more_events():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.call_after(1.0, chain, n + 1)

    eng.call_after(0.0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert eng.now == 5.0


def test_scheduling_in_the_past_is_an_error():
    eng = Engine()
    eng.call_after(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(0.5, lambda: None)


def test_negative_delay_is_an_error():
    with pytest.raises(SimulationError):
        Engine().call_after(-1.0, lambda: None)


def test_run_until_bounds_time():
    eng = Engine()
    seen = []
    eng.call_at(1.0, seen.append, 1)
    eng.call_at(2.0, seen.append, 2)
    eng.run(until=1.5)
    assert seen == [1]
    assert eng.now == 1.5
    assert len(eng) == 1
    eng.run()
    assert seen == [1, 2]


def test_run_until_advances_clock_even_without_events():
    eng = Engine()
    eng.run(until=10.0)
    assert eng.now == 10.0


def test_max_events_bound():
    eng = Engine()
    for i in range(10):
        eng.call_at(float(i), lambda: None)
    eng.run(max_events=3)
    assert eng.events_executed == 3
    assert len(eng) == 7


def test_run_until_quiescent_raises_on_runaway():
    eng = Engine()

    def forever():
        eng.call_after(1.0, forever)

    eng.call_after(0.0, forever)
    with pytest.raises(SimulationError):
        eng.run_until_quiescent(max_events=100)


def test_step_returns_false_on_empty_queue():
    assert Engine().step() is False


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_events_always_execute_in_nondecreasing_time(delays):
    eng = Engine()
    times = []
    for d in delays:
        eng.call_at(d, lambda: times.append(eng.now))
    eng.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


def test_run_is_not_reentrant():
    eng = Engine()

    def reenter():
        eng.run()

    eng.call_at(1e-6, reenter)
    with pytest.raises(SimulationError, match="not reentrant"):
        eng.run()


def test_schedule_batch_contiguous_handles():
    eng = Engine()
    ran = []
    eng.call_at(1e-6, ran.append, "first")
    handles = eng.schedule_batch(
        [3e-6, 1e-6, 1e-6, 2e-6], ran.append, [(i,) for i in range(4)]
    )
    assert list(handles) == [1, 2, 3, 4]
    eng.run()
    assert ran == ["first", 1, 2, 3, 0]
    with pytest.raises(SimulationError, match="equal lengths"):
        eng.schedule_batch([1.0], lambda: None, [])


# --- cancellation --------------------------------------------------------------
def test_cancel_pending_event():
    eng = Engine()
    ran = []
    eng.call_at(1e-6, ran.append, "keep")
    drop = eng.call_at(2e-6, ran.append, "drop")
    eng.cancel(drop)
    assert len(eng) == 1
    eng.run()
    assert ran == ["keep"]
    assert eng.now == 1e-6  # a cancelled event never advances the clock


def test_cancel_executed_handle_is_noop():
    eng = Engine()
    handle = eng.call_at(1e-6, lambda: None)
    eng.run()
    eng.cancel(handle)  # tolerated: ack paths race the timers they guard
    assert len(eng) == 0
    with pytest.raises(SimulationError, match="unknown event handle"):
        eng.cancel(10_000)


def test_len_ignores_stale_cancel_mark_with_pending_event():
    eng = Engine()
    ran = eng.call_at(1e-6, lambda: None)
    assert eng.step()
    eng.call_at(2e-6, lambda: None)
    eng.cancel(ran)  # stale mark; the pending head is live so it stays
    assert len(eng) == 1


def test_cancel_from_inside_callback():
    eng = Engine()
    ran = []
    timer = eng.call_at(5e-6, ran.append, "timer")
    eng.call_at(1e-6, lambda: eng.cancel(timer))
    eng.run()
    assert ran == []
    assert len(eng) == 0


def test_step_then_run_until_quiescent():
    eng = Engine()
    ran = []
    for i, when in enumerate([3e-6, 1e-6, 1e-6, 2e-6, 5e-6]):
        eng.call_at(when, ran.append, i)
    assert eng.step()
    assert ran == [1]
    eng.run_until_quiescent()
    assert ran == [1, 2, 3, 0, 4]
    assert len(eng) == 0


def test_engine_cancelled_set_stays_bounded_across_runs():
    """Cancelling already-fired handles (the ack-vs-timer race pattern)
    must not leak marks run over run: the quiescent sweep reclaims them."""
    engine = Engine()
    for round_idx in range(50):
        handle = engine.call_at(engine.now + 1e-6, lambda: None)
        engine.run()
        engine.cancel(handle)  # fires first, cancel races in afterwards
        assert len(engine._cancelled) <= 1
    engine.call_at(engine.now + 1e-6, lambda: None)
    engine.run()
    assert len(engine._cancelled) == 0


def test_engine_cancel_purges_marks_at_queue_head():
    engine = Engine()
    handles = [engine.call_at(1e-6 * (i + 1), lambda: None) for i in range(8)]
    for h in handles:  # cancel in heap order: every mark purges eagerly
        engine.cancel(h)
    assert len(engine._cancelled) == 0
    assert len(engine._queue) == 0


def test_engine_step_clears_cancelled_when_drained():
    engine = Engine()
    handle = engine.call_at(1e-6, lambda: None)
    assert engine.step()
    engine.call_at(2e-6, lambda: None)
    engine.cancel(handle)  # stale mark; head (seq 1) is live so no purge
    assert engine.step()
    assert not engine.step()  # drained: quiescent sweep reclaims the mark
    assert len(engine._cancelled) == 0

"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Delay, Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_delay_advances_clock():
    eng = Engine()

    def proc():
        yield Delay(2.5)

    eng.spawn(proc())
    assert eng.run() == 2.5


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Delay(-1.0)


def test_zero_delay_allowed():
    eng = Engine()

    def proc():
        yield Delay(0.0)
        return "done"

    assert eng.run_process(proc()) == "done"


def test_processes_resume_in_time_order():
    eng = Engine()
    order = []

    def proc(name, dt):
        yield Delay(dt)
        order.append(name)

    eng.spawn(proc("c", 3.0))
    eng.spawn(proc("a", 1.0))
    eng.spawn(proc("b", 2.0))
    eng.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_spawn_order():
    eng = Engine()
    order = []

    def proc(name):
        yield Delay(1.0)
        order.append(name)

    for name in "abcd":
        eng.spawn(proc(name))
    eng.run()
    assert order == list("abcd")


def test_yield_none_reschedules_immediately():
    eng = Engine()
    order = []

    def proc(name):
        order.append((name, 0))
        yield None
        order.append((name, 1))

    eng.spawn(proc("a"))
    eng.spawn(proc("b"))
    eng.run()
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
    assert eng.now == 0.0


def test_process_return_value():
    eng = Engine()

    def proc():
        yield Delay(1.0)
        return 42

    assert eng.run_process(proc()) == 42


def test_wait_on_event():
    eng = Engine()
    ev = eng.event("gate")
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def firer():
        yield Delay(5.0)
        ev.trigger("payload")

    eng.spawn(waiter())
    eng.spawn(firer())
    eng.run()
    assert got == ["payload"]
    assert eng.now == 5.0


def test_event_value_before_trigger_raises():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.trigger(1)
    with pytest.raises(SimulationError):
        ev.trigger(2)


def test_wait_on_already_triggered_event():
    eng = Engine()
    ev = eng.event()
    ev.trigger("early")

    def waiter():
        value = yield ev
        return value

    assert eng.run_process(waiter()) == "early"


def test_multiple_waiters_all_woken_in_order():
    eng = Engine()
    ev = eng.event()
    order = []

    def waiter(name):
        yield ev
        order.append(name)

    for name in "xyz":
        eng.spawn(waiter(name))

    def firer():
        yield Delay(1.0)
        ev.trigger(None)

    eng.spawn(firer())
    eng.run()
    assert order == list("xyz")


def test_wait_on_process_returns_its_result():
    eng = Engine()

    def child():
        yield Delay(2.0)
        return "child-result"

    def parent():
        proc = eng.spawn(child())
        result = yield proc
        return result

    assert eng.run_process(parent()) == "child-result"


def test_run_until_stops_clock():
    eng = Engine()

    def proc():
        yield Delay(100.0)

    eng.spawn(proc())
    assert eng.run(until=10.0) == 10.0
    # remaining work resumes on the next run
    assert eng.run() == 100.0


def test_run_until_past_all_events_sets_clock():
    eng = Engine()

    def proc():
        yield Delay(1.0)

    eng.spawn(proc())
    assert eng.run(until=50.0) == 50.0


def test_max_events_guard():
    eng = Engine()

    def spinner():
        while True:
            yield Delay(1.0)

    eng.spawn(spinner())
    with pytest.raises(SimulationError):
        eng.run(max_events=100)


def test_crash_propagates_by_default():
    eng = Engine()

    def bad():
        yield Delay(1.0)
        raise ValueError("boom")

    eng.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_crash_handler_intercepts():
    eng = Engine()
    crashes = []
    eng.on_crash = lambda proc, exc: crashes.append((proc.name, str(exc)))

    def bad():
        yield Delay(1.0)
        raise ValueError("boom")

    eng.spawn(bad(), name="bad-proc")
    eng.run()
    assert crashes == [("bad-proc", "boom")]


def test_unsupported_yield_is_an_error():
    eng = Engine()

    def bad():
        yield 12345

    eng.spawn(bad())
    with pytest.raises(SimulationError, match="unsupported command"):
        eng.run()


def test_deadlock_detected_by_run_process():
    eng = Engine()
    never = eng.event()

    def stuck():
        yield never

    with pytest.raises(SimulationError, match="deadlocked"):
        eng.run_process(stuck())


def test_nested_subgenerators_compose():
    eng = Engine()

    def inner():
        yield Delay(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert eng.run_process(outer()) == 20
    assert eng.now == 2.0


def test_determinism_across_runs():
    def build():
        eng = Engine()
        trace = []

        def proc(name, dt):
            for i in range(3):
                yield Delay(dt)
                trace.append((eng.now, name, i))

        eng.spawn(proc("a", 1.0))
        eng.spawn(proc("b", 1.0))
        eng.spawn(proc("c", 0.5))
        eng.run()
        return trace

    assert build() == build()


def test_finished_and_error_flags():
    eng = Engine()

    def good():
        yield Delay(1.0)

    proc = eng.spawn(good())
    assert not proc.finished
    eng.run()
    assert proc.finished
    assert proc.error is None


def test_clock_monotone_through_mixed_workload():
    eng = Engine()
    stamps = []

    def proc(dt, reps):
        for _ in range(reps):
            yield Delay(dt)
            stamps.append(eng.now)

    eng.spawn(proc(0.7, 5))
    eng.spawn(proc(1.1, 4))
    eng.spawn(proc(0.0, 3))
    eng.run()
    assert stamps == sorted(stamps)

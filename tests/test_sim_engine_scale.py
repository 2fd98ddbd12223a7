"""Large-p engine behaviour: batched calendar, determinism, allocation.

The single-heap engine the bucketed event calendar (repro.sim.engine)
replaced is kept as an oracle in ``tests/sim_oracles.py``; these tests pin
the batched engine to it on the schedules that matter at p=1024 —
zero-duration delays, huge same-timestamp waves, composite events over
hundreds of children — and assert the hot path allocates no per-event dicts.
"""

import gc

import pytest

from repro.sim import Delay, Engine
from tests.sim_oracles import LegacyDelay, LegacyEngine


# -- zero-duration delays ----------------------------------------------------


def test_zero_delay_chains_keep_fifo_order():
    eng = Engine()
    order = []

    def proc(name, hops):
        for _ in range(hops):
            yield Delay(0.0)
        order.append(name)

    eng.spawn(proc("a", 3))
    eng.spawn(proc("b", 1))
    eng.spawn(proc("c", 2))
    eng.run()
    # all finish at t=0; completion order follows hop count then spawn order
    assert eng.now == 0.0
    assert order == ["b", "c", "a"]


def test_zero_delay_wave_matches_legacy():
    def schedule(engine_cls, delay_cls):
        eng = engine_cls()
        order = []

        def proc(i):
            yield delay_cls(0.0)
            yield delay_cls(1.0)
            yield delay_cls(0.0)
            order.append(i)

        for i in range(50):
            eng.spawn(proc(i))
        eng.run()
        return eng.now, order

    assert schedule(Engine, Delay) == schedule(LegacyEngine, LegacyDelay)


def test_zero_delay_scheduled_during_drain_runs_same_timestamp():
    # a resume scheduled *while its own timestamp's bucket is draining* must
    # still run at that timestamp, after the current wave (fresh bucket)
    eng = Engine()
    order = []

    def child():
        order.append("child")
        yield Delay(0.0)
        order.append("child-after")

    def parent():
        order.append("parent")
        eng.spawn(child())
        yield Delay(0.0)
        order.append("parent-after")

    eng.spawn(parent())
    eng.run()
    assert eng.now == 0.0
    assert order == ["parent", "child", "parent-after", "child-after"]


# -- composite events at width -----------------------------------------------


@pytest.mark.parametrize("width", [100, 400])
def test_allof_over_hundreds_of_events(width):
    eng = Engine()

    def sleeper(i):
        yield Delay(float(i % 7) + 1.0)
        return i

    procs = [eng.spawn(sleeper(i)) for i in range(width)]

    def waiter():
        results = []
        for p in procs:
            results.append((yield p.done_event))
        return results

    got = eng.run_process(waiter())
    assert got == list(range(width))
    assert eng.now == 7.0


# -- simultaneous-resume determinism -----------------------------------------


def _storm(engine_cls, delay_cls, n=1200, rounds=3):
    """n processes resuming simultaneously every round; returns the
    interleaved completion log (process id, virtual time)."""
    eng = engine_cls()
    log = []

    def proc(i):
        for r in range(rounds):
            yield delay_cls(1.0)
            log.append((i, r, eng.now))

    for i in range(n):
        eng.spawn(proc(i))
    eng.run()
    return eng.now, log, eng.events_processed


def test_thousand_simultaneous_resumes_bit_identical_across_runs():
    first = _storm(Engine, Delay)
    second = _storm(Engine, Delay)
    assert first == second


def test_thousand_simultaneous_resumes_match_legacy_order():
    now, log, nevents = _storm(Engine, Delay)
    lnow, llog, lnevents = _storm(LegacyEngine, LegacyDelay)
    assert now == lnow
    assert log == llog  # strict per-timestamp FIFO: identical interleaving
    assert nevents == lnevents


def test_stats_track_wave_depth():
    eng = Engine()

    def proc(i):
        yield Delay(1.0)

    for i in range(1200):
        eng.spawn(proc(i))
    eng.run()
    stats = eng.stats()
    assert stats["events_processed"] == 2 * 1200  # spawn resumes + delays
    assert stats["max_heap_depth"] >= 1200
    assert stats["virtual_seconds"] == 1.0


# -- allocation discipline ---------------------------------------------------


def test_hot_loop_allocates_no_per_event_dicts():
    """The Delay fast path must not create dicts or Delay/heap-entry
    ``__dict__``s per event: with GC frozen, the only dict growth allowed
    over 10k events is O(distinct timestamps), not O(events)."""
    eng = Engine()
    n, rounds = 100, 100

    def proc():
        d = Delay(1.0)  # reused: Delay carries no per-yield state
        for _ in range(rounds):
            yield d

    for _ in range(n):
        eng.spawn(proc())
    # warm up: first wave builds buckets, generators, bound methods
    eng.run(until=2.0)

    gc.collect()
    before = len(gc.get_objects())
    eng.run(until=float(rounds - 5))
    after = len(gc.get_objects())
    grown = after - before
    events = n * (rounds - 7)
    # far fewer live objects than events processed: nothing per-event survives
    assert grown < events / 10, (grown, events)


def test_slots_on_hot_classes():
    """Per-event record types carry no instance ``__dict__``."""
    from repro.comm.fabric import Message
    from repro.obs.trace_export import MessageEvent
    from repro.sim.trace import Span

    eng = Engine()

    def noop():
        yield Delay(1.0)

    instances = [
        eng,
        Delay(1.0),
        eng.event("slots"),
        eng.spawn(noop()),
        Span("a", "compute", 0.0, 1.0),
        Message("a", "b", 0, None, 8.0),
        MessageEvent(0.0, 1.0, "a", "b", "na", "nb", 8.0),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj)
        with pytest.raises((AttributeError, TypeError)):
            obj.scratch = 1

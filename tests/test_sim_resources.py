"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Delay, Engine, Resource, SimulationError, Store


# -- Resource ---------------------------------------------------------------


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(SimulationError):
        Resource(eng, capacity=0)


def test_resource_serialises_capacity_one():
    eng = Engine()
    res = Resource(eng, capacity=1)
    done = []

    def user(name):
        yield from res.acquire()
        try:
            yield Delay(1.0)
            done.append((eng.now, name))
        finally:
            res.release()

    for name in "abc":
        eng.spawn(user(name))
    eng.run()
    assert done == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_resource_capacity_two_overlaps():
    eng = Engine()
    res = Resource(eng, capacity=2)
    done = []

    def user(name):
        yield from res.acquire()
        try:
            yield Delay(1.0)
            done.append((eng.now, name))
        finally:
            res.release()

    for name in "abcd":
        eng.spawn(user(name))
    eng.run()
    assert [t for t, _ in done] == [1.0, 1.0, 2.0, 2.0]


def test_resource_fifo_ordering():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(name, arrive):
        yield Delay(arrive)
        yield from res.acquire()
        order.append(name)
        yield Delay(10.0)
        res.release()

    eng.spawn(user("first", 0.0))
    eng.spawn(user("second", 1.0))
    eng.spawn(user("third", 2.0))
    eng.run()
    assert order == ["first", "second", "third"]


def test_release_idle_resource_raises():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_wait_time_accounting():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        yield from res.acquire()
        yield Delay(2.0)
        res.release()

    eng.spawn(user())
    eng.spawn(user())
    eng.run()
    assert res.total_wait_time == pytest.approx(2.0)


def test_resource_queue_length():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def holder():
        yield from res.acquire()
        yield Delay(5.0)
        res.release()

    def waiter():
        yield Delay(1.0)
        yield from res.acquire()
        res.release()

    eng.spawn(holder())
    eng.spawn(waiter())
    eng.run(until=2.0)
    assert res.queue_length == 1
    eng.run()
    assert res.queue_length == 0


# -- Store -------------------------------------------------------------------


def test_store_put_then_get():
    eng = Engine()
    store = Store(eng)
    store.put("x")

    def getter():
        item = yield from store.get()
        return item

    assert eng.run_process(getter()) == "x"


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    got = []

    def getter():
        item = yield from store.get()
        got.append((eng.now, item))

    def putter():
        yield Delay(3.0)
        store.put("late")

    eng.spawn(getter())
    eng.spawn(putter())
    eng.run()
    assert got == [(3.0, "late")]


def test_store_fifo_order():
    eng = Engine()
    store = Store(eng)
    for i in range(5):
        store.put(i)
    got = []

    def getter():
        for _ in range(5):
            item = yield from store.get()
            got.append(item)

    eng.spawn(getter())
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_multiple_getters_fifo():
    eng = Engine()
    store = Store(eng)
    got = []

    def getter(name):
        item = yield from store.get()
        got.append((name, item))

    eng.spawn(getter("g1"))
    eng.spawn(getter("g2"))

    def putter():
        yield Delay(1.0)
        store.put("a")
        store.put("b")

    eng.spawn(putter())
    eng.run()
    assert got == [("g1", "a"), ("g2", "b")]


def test_store_try_get():
    eng = Engine()
    store = Store(eng)
    assert store.try_get() == (False, None)
    store.put(7)
    assert store.try_get() == (True, 7)
    assert len(store) == 0


def test_store_len():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    assert len(store) == 2

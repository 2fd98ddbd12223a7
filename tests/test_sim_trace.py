"""Unit tests for the timeline tracer."""

import pytest

from repro.sim import Delay, Engine, Tracer


def _engine_with_tracer():
    eng = Engine()
    return eng, Tracer(eng)


def test_basic_span_recording():
    eng, tr = _engine_with_tracer()

    def proc():
        tr.begin("w", "compute")
        yield Delay(2.0)
        tr.end("w", "compute")

    eng.spawn(proc())
    eng.run()
    assert len(tr.spans) == 1
    span = tr.spans[0]
    assert (span.actor, span.category, span.start, span.end) == ("w", "compute", 0.0, 2.0)
    assert span.duration == 2.0


def test_double_begin_raises():
    _eng, tr = _engine_with_tracer()
    tr.begin("w", "compute")
    with pytest.raises(RuntimeError):
        tr.begin("w", "compute")


def test_end_without_begin_raises():
    _eng, tr = _engine_with_tracer()
    with pytest.raises(KeyError):
        tr.end("w", "compute")


def test_disabled_tracer_records_nothing():
    eng = Engine()
    tr = Tracer(eng, enabled=False)
    tr.begin("w", "compute")
    tr.end("w", "compute")
    assert tr.spans == []


def test_timed_wraps_coroutine():
    eng, tr = _engine_with_tracer()

    def inner():
        yield Delay(3.0)
        return "val"

    def proc():
        result = yield from tr.timed("w", "comm", inner())
        return result

    assert eng.run_process(proc()) == "val"
    assert tr.spans[0].category == "comm"
    assert tr.spans[0].duration == 3.0


def test_timed_closes_span_on_exception():
    eng, tr = _engine_with_tracer()
    eng.on_crash = lambda p, e: None

    def inner():
        yield Delay(1.0)
        raise RuntimeError("inner fail")

    def proc():
        yield from tr.timed("w", "comm", inner())

    eng.spawn(proc())
    eng.run()
    assert len(tr.spans) == 1  # span closed despite the crash


def test_breakdown_sums_by_category():
    eng, tr = _engine_with_tracer()

    def proc():
        for _ in range(3):
            tr.begin("w", "compute")
            yield Delay(2.0)
            tr.end("w", "compute")
            tr.begin("w", "comm")
            yield Delay(1.0)
            tr.end("w", "comm")

    eng.spawn(proc())
    eng.run()
    bd = tr.mean_breakdown(["w"])
    assert bd.compute_seconds == pytest.approx(6.0)
    assert bd.comm_seconds == pytest.approx(3.0)
    assert bd.comm_fraction == pytest.approx(1.0 / 3.0)
    assert bd.span == pytest.approx(9.0)


def test_breakdown_window_clipping():
    eng, tr = _engine_with_tracer()

    def proc():
        tr.begin("w", "compute")
        yield Delay(10.0)
        tr.end("w", "compute")

    eng.spawn(proc())
    eng.run()
    bd = tr.mean_breakdown(["w"], start=2.0, end=5.0)
    assert bd.seconds["compute"] == pytest.approx(3.0)


def test_apply_counts_as_compute():
    eng, tr = _engine_with_tracer()

    def proc():
        tr.begin("w", "apply")
        yield Delay(4.0)
        tr.end("w", "apply")

    eng.spawn(proc())
    eng.run()
    assert tr.mean_breakdown(["w"]).compute_seconds == pytest.approx(4.0)


def test_mean_breakdown_over_actors():
    eng, tr = _engine_with_tracer()

    def proc(actor, dt):
        tr.begin(actor, "compute")
        yield Delay(dt)
        tr.end(actor, "compute")

    eng.spawn(proc("a", 2.0))
    eng.spawn(proc("b", 4.0))
    eng.run()
    mean = tr.mean_breakdown(["a", "b"])
    assert mean.compute_seconds == pytest.approx(3.0)


def test_mean_breakdown_requires_actors():
    _eng, tr = _engine_with_tracer()
    with pytest.raises(ValueError):
        tr.mean_breakdown([])


def test_actors_listing_preserves_first_seen_order():
    eng, tr = _engine_with_tracer()

    def proc(actor):
        tr.begin(actor, "compute")
        yield Delay(1.0)
        tr.end(actor, "compute")

    eng.spawn(proc("z"))
    eng.spawn(proc("a"))
    eng.run()
    assert tr.actors() == ["z", "a"]


def test_comm_fraction_zero_when_idle():
    eng, tr = _engine_with_tracer()
    bd = tr.mean_breakdown(["ghost"])
    assert bd.comm_fraction == 0.0

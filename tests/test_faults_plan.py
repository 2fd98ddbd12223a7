"""Unit tests for the repro.faults building blocks.

Covers the pieces that do not need a training run: the fault grammar and
plan queries, the retry policy's backoff schedule, the checkpoint stores,
and the ambient FaultContext plumbing.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultContext,
    FaultPlan,
    MemoryCheckpointStore,
    RetryPolicy,
    open_store,
    parse_faults,
    resolve_fault_context,
    use_faults,
)
from repro.faults.checkpoint import Checkpoint, DirCheckpointStore
from repro.faults.plan import Fault


# --------------------------------------------------------------------------
# grammar
# --------------------------------------------------------------------------


def test_parse_single_crash():
    (fault,) = parse_faults("crash:learner=2,step=40")
    assert fault.kind == "crash"
    assert fault.learner == 2
    assert fault.step == 40


def test_parse_multiple_clauses():
    faults = parse_faults(
        "crash:learner=2,step=40;drop:learner=0,rate=0.05;"
        "straggle:learner=1,factor=4,start=10,stop=30"
    )
    assert [f.kind for f in faults] == ["crash", "drop", "straggle"]
    assert faults[1].rate == pytest.approx(0.05)
    assert faults[2].factor == pytest.approx(4.0)
    assert (faults[2].start, faults[2].stop) == (10, 30)


@pytest.mark.parametrize(
    "text",
    [
        "explode:learner=1",            # unknown kind
        "crash:learner=1",              # missing step
        "crash learner=1,step=2",       # no colon
        "crash:learner=1,step=2,zap=3", # unknown field
        "drop:learner=0",               # neither nth nor rate
        "drop:learner=0,nth=1,rate=0.5",  # both nth and rate
        "delay:learner=0,nth=1",        # delay without seconds
        "straggle:learner=0,factor=1",  # factor must exceed 1
        "",                             # no faults at all
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_faults(text)


def test_plan_parse_and_truthiness():
    plan = FaultPlan.parse("crash:learner=1,step=5", seed=7)
    assert plan
    assert plan.seed == 7
    assert not FaultPlan()


# --------------------------------------------------------------------------
# plan queries
# --------------------------------------------------------------------------


def test_crash_queries_take_earliest_step():
    plan = FaultPlan.parse("crash:learner=1,step=9;crash:learner=1,step=5")
    assert plan.crash_step(1) == 5
    assert plan.crash_step(0) is None
    assert plan.crash_learners() == {1: 5}


def test_ps_crash_query():
    plan = FaultPlan.parse("ps_crash:shard=1,push=25")
    assert plan.ps_crash_push(1) == 25
    assert plan.ps_crash_push(0) is None
    assert plan.touches_ps()


def test_straggle_factor_window_and_composition():
    plan = FaultPlan(
        faults=(
            Fault("straggle", learner=0, factor=2.0, start=2, stop=4),
            Fault("straggle", learner=0, factor=3.0, start=3),
        )
    )
    assert plan.straggle_factor(0, 1) == pytest.approx(1.0)
    assert plan.straggle_factor(0, 2) == pytest.approx(2.0)
    assert plan.straggle_factor(0, 3) == pytest.approx(6.0)   # both overlap
    assert plan.straggle_factor(0, 4) == pytest.approx(3.0)   # first expired
    assert plan.straggle_factor(1, 3) == pytest.approx(1.0)   # other learner


def test_nth_drop_selection_is_exact():
    plan = FaultPlan.parse("drop:learner=0,nth=3,count=2")
    drops = [plan.ps_reply_drops(0, i) for i in range(6)]
    assert drops == [0, 0, 0, 1, 1, 0]
    assert all(plan.ps_reply_drops(1, i) == 0 for i in range(6))


def test_rate_drops_are_deterministic_in_the_seed():
    a = FaultPlan.parse("drop:learner=0,rate=0.3", seed=11)
    b = FaultPlan.parse("drop:learner=0,rate=0.3", seed=11)
    c = FaultPlan.parse("drop:learner=0,rate=0.3", seed=12)
    pattern_a = [a.ps_reply_drops(0, i) for i in range(64)]
    pattern_b = [b.ps_reply_drops(0, i) for i in range(64)]
    pattern_c = [c.ps_reply_drops(0, i) for i in range(64)]
    assert pattern_a == pattern_b          # same seed → same coin flips
    assert pattern_a != pattern_c          # different seed → different draw
    hit_rate = sum(pattern_a) / len(pattern_a)
    assert 0.05 < hit_rate < 0.65          # loose sanity band around 0.3


def test_reply_delay_accumulates():
    plan = FaultPlan.parse("delay:learner=2,nth=0,count=3,seconds=0.5")
    assert plan.ps_reply_delay(2, 1) == pytest.approx(0.5)
    assert plan.ps_reply_delay(2, 3) == pytest.approx(0.0)
    assert plan.touches_ps()


def test_survivor_plan_keeps_only_ps_faults():
    plan = FaultPlan.parse(
        "crash:learner=2,step=4;straggle:learner=1,factor=2;"
        "ps_crash:shard=0,push=10"
    )
    survivor = plan.survivor_plan(2)
    assert [f.kind for f in survivor.faults] == ["ps_crash"]
    # without a dead learner the plan passes through unchanged
    assert plan.survivor_plan(None).faults == plan.faults


# --------------------------------------------------------------------------
# disconnect faults (recovery=reconnect's trigger)
# --------------------------------------------------------------------------


def test_disconnect_grammar_and_queries():
    plan = FaultPlan.parse("disconnect:learner=1,step=4;disconnect:learner=0,step=2")
    assert plan.disconnect_step(1) == 4
    assert plan.disconnect_step(0) == 2
    assert plan.disconnect_step(2) is None
    assert plan.disconnect_learners() == {0: 2, 1: 4}


def test_disconnect_requires_learner_and_step():
    with pytest.raises(ValueError, match="disconnect fault needs"):
        Fault(kind="disconnect", learner=1)
    with pytest.raises(ValueError, match="disconnect fault needs"):
        Fault(kind="disconnect", step=3)


def test_survivor_plan_drops_the_victims_disconnect():
    plan = FaultPlan.parse("disconnect:learner=1,step=4")
    assert plan.survivor_plan(1).disconnect_step(1) is None


# --------------------------------------------------------------------------
# retry policy
# --------------------------------------------------------------------------


def test_jittered_backoff_brackets_the_deterministic_schedule():
    retry = RetryPolicy(base_seconds=0.1, multiplier=2.0, jitter=0.5)
    for attempt in range(4):
        base = retry.backoff(attempt)
        lo = retry.jittered_backoff(attempt, 0.0)
        hi = retry.jittered_backoff(attempt, 1.0)
        mid = retry.jittered_backoff(attempt, 0.5)
        assert lo == pytest.approx(0.5 * base)
        assert hi == pytest.approx(1.5 * base)
        assert mid == pytest.approx(base)


def test_zero_jitter_is_exactly_the_plain_backoff():
    retry = RetryPolicy(base_seconds=0.05)
    assert retry.jittered_backoff(2, 0.123) == retry.backoff(2)


def test_hash_uniform_is_deterministic_and_rank_decorrelated():
    from repro.faults.plan import _hash_uniform

    draws = {(r, a): _hash_uniform(7, r, 0, a) for r in range(4) for a in range(4)}
    again = {(r, a): _hash_uniform(7, r, 0, a) for r in range(4) for a in range(4)}
    assert draws == again  # pure function of the words
    assert all(0.0 <= u < 1.0 for u in draws.values())
    assert len(set(draws.values())) == len(draws)  # ranks don't collide


def test_retry_deadline_and_jitter_validation():
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError, match="deadline_seconds"):
        RetryPolicy(deadline_seconds=0.0)
    assert RetryPolicy(deadline_seconds=2.5).deadline_seconds == 2.5
    assert RetryPolicy().deadline_seconds is None  # opt-in: default unbounded


def test_retry_backoff_schedule():
    retry = RetryPolicy(max_retries=3, base_seconds=0.05, multiplier=2.0)
    assert retry.backoff(0) == pytest.approx(0.05)
    assert retry.backoff(2) == pytest.approx(0.2)
    assert retry.total_backoff(3) == pytest.approx(0.05 + 0.1 + 0.2)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


# --------------------------------------------------------------------------
# checkpoint stores
# --------------------------------------------------------------------------


def _ckpt(key="run", interval=1, value=0.0):
    return Checkpoint(
        key=key, interval=interval, steps_done=interval * 4,
        x=np.full(3, value), clock=float(interval), p=2,
    )


def test_memory_store_keeps_newest_interval():
    store = MemoryCheckpointStore()
    store.save(_ckpt(interval=2, value=2.0))
    store.save(_ckpt(interval=1, value=1.0))   # stale: ignored
    latest = store.latest("run")
    assert latest.interval == 2
    np.testing.assert_array_equal(latest.x, np.full(3, 2.0))
    assert store.latest("other") is None


def test_dir_store_round_trip_and_pruning(tmp_path):
    store = DirCheckpointStore(tmp_path, keep=2)
    for interval in (1, 2, 3):
        store.save(_ckpt(interval=interval, value=float(interval)))
    latest = store.latest("run")
    assert latest.interval == 3
    np.testing.assert_array_equal(latest.x, np.full(3, 3.0))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2                      # pruned down to keep=2
    assert store.latest("missing") is None


def test_open_store_dispatch(tmp_path):
    assert isinstance(open_store(None), MemoryCheckpointStore)
    assert isinstance(open_store(tmp_path / "ckpts"), DirCheckpointStore)
    existing = MemoryCheckpointStore()
    assert open_store(existing) is existing


# --------------------------------------------------------------------------
# fault context
# --------------------------------------------------------------------------


def test_context_defaults_to_no_store():
    ctx = FaultContext()
    assert ctx.store is None
    assert not ctx.wants_checkpoints


def test_context_creates_store_for_recovery_and_resume():
    assert FaultContext(recovery="elastic").store is not None
    assert FaultContext(resume=True).store is not None


def test_context_rejects_unknown_recovery():
    with pytest.raises(ValueError, match="unknown recovery policy"):
        FaultContext(recovery="pray")


def test_use_faults_is_ambient_and_nests():
    assert resolve_fault_context() is None
    outer = FaultContext()
    inner = FaultContext(recovery="elastic")
    with use_faults(outer):
        assert resolve_fault_context() is outer
        with use_faults(inner):
            assert resolve_fault_context() is inner
            explicit = FaultContext()
            assert resolve_fault_context(explicit) is explicit
        assert resolve_fault_context() is outer
    assert resolve_fault_context() is None

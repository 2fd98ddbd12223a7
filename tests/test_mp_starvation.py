"""Starvation and failure-detection paths of the multiprocessing backend.

Pins the supervision contract: a dead peer aborts a collective round with a
typed :class:`LearnerFailure` naming the victim (not a bare timeout), a
genuinely stalled round still times out with a message naming the phase,
a parameter-server request starved past ``RetryPolicy.deadline_seconds``
surfaces as :class:`RetryBudgetExhausted` (the budget/drop cases both
transports share live in ``test_process_backend.py``), and a worker killed
mid-run is detected by the heartbeat monitor in well under the barrier
timeout.
"""

import multiprocessing

import numpy as np
import pytest

from repro.algos import SASGDOptions, SASGDTrainer, TrainerConfig
from repro.algos.problems import cifar_problem
from repro.faults import FaultContext, FaultPlan
from repro.faults.plan import RetryPolicy
from repro.faults.supervisor import LivenessBlock
from repro.runtime import (
    BackendCapabilityError,
    LearnerFailure,
    MPBackend,
    RetryBudgetExhausted,
)
from repro.runtime.mp_backend import MPCollective, MPParameterServer
from tests.test_comm_collectives import finish

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="mp backend needs fork")


@pytest.fixture
def collective():
    ctx = multiprocessing.get_context("fork" if HAVE_FORK else None)
    coll = MPCollective(ctx, p=2, timeout=0.6)
    liveness = LivenessBlock(2, ["coll"])
    coll.allocate(4, np.float64, liveness)
    yield coll
    coll.teardown()
    liveness.close()


# --------------------------------------------------------------------------
# collective barrier
# --------------------------------------------------------------------------


def test_barrier_timeout_is_typed_and_names_the_phase(collective):
    # rank 0 arrives, rank 1 never does and is never declared dead: the
    # polling barrier must give up after the timeout with a LearnerFailure
    # (not hang, not raise a bare queue/timeout error)
    with pytest.raises(LearnerFailure) as err:
        collective._wait(0, "allreduce")
    assert "allreduce: collective barrier timed out" in str(err.value)
    assert "deadlocked" in str(err.value)


def test_barrier_aborts_on_dead_peer_with_victim_identity(collective):
    collective._liveness.declare_dead(1, 7)
    with pytest.raises(LearnerFailure) as err:
        collective._wait(0, "allreduce")
    assert err.value.learner_id == 1
    assert err.value.step == 7
    assert "peer learner1 died" in str(err.value)


def test_barrier_survives_a_failed_round(collective):
    # after an aborted round the barrier object must still be usable: a
    # multiprocessing.Barrier would be permanently broken here
    collective._liveness.declare_dead(1, 2)
    with pytest.raises(LearnerFailure):
        collective._wait(0, "allreduce")
    with pytest.raises(LearnerFailure) as err:
        collective._wait(0, "allreduce")
    assert err.value.learner_id == 1


# --------------------------------------------------------------------------
# allgather: the same barrier, named
# --------------------------------------------------------------------------


def test_allgather_starvation_names_the_phase(collective):
    # rank 1 never posts its row and is never declared dead
    with pytest.raises(LearnerFailure) as err:
        finish(collective.allgather(0, np.arange(4.0)))
    msg = str(err.value)
    assert err.value.learner_id is None and err.value.step is None
    assert "allgather: collective barrier timed out" in msg
    assert "deadlocked" in msg


def test_allgather_aborts_on_dead_peer_with_victim_identity(collective):
    collective._liveness.declare_dead(1, 4)
    with pytest.raises(LearnerFailure) as err:
        finish(collective.allgather(0, np.arange(4.0)))
    assert err.value.learner_id == 1
    assert err.value.step == 4
    assert "allgather: collective barrier: peer learner1 died" in str(err.value)


def test_a_row_larger_than_the_inbox_slot_is_refused_not_truncated(collective):
    # the fixture's 4 float64 elements give a 64-byte slot: room for a row
    # of four int32 indices and four values, not for 65 bytes
    with pytest.raises(BackendCapabilityError, match="65 bytes exceeds the 64-byte"):
        finish(collective.allgather(0, np.zeros(65, np.uint8)))


# --------------------------------------------------------------------------
# liveness block bookkeeping
# --------------------------------------------------------------------------


def test_liveness_block_roundtrip():
    block = LivenessBlock(3, ["coll"])
    try:
        assert block.first_dead() is None
        block.declare_dead(2, 9)
        assert block.is_dead(2)
        assert int(block.dead_step[2]) == 9
        assert block.first_dead() == 2
        assert block.first_dead(exclude=2) is None
        block.mark_finished(1)
        assert block.is_finished(1)
    finally:
        block.close()


# --------------------------------------------------------------------------
# end-to-end: killed worker, detection latency, typed surfacing
# --------------------------------------------------------------------------


def _p2_config(seed=3, epochs=2):
    return TrainerConfig(p=2, epochs=epochs, batch_size=8, lr=0.02, seed=seed)


@needs_fork
def test_mp_killed_worker_detected_fast_with_labels():
    # the planned crash is a real os._exit(3) in the worker — no farewell
    # message — so everything the parent reports comes from supervision
    trainer = SASGDTrainer(
        cifar_problem(scale="unit", seed=1),
        _p2_config(),
        SASGDOptions(T=2),
        backend=MPBackend(timeout=30.0),
        fault_ctx=FaultContext(plan=FaultPlan.parse("crash:learner=1,step=3")),
    )
    with pytest.raises(LearnerFailure) as err:
        trainer.train()
    failure = err.value
    assert failure.learner_id == 1
    assert failure.step == 3
    assert "learner1 died after 3 local steps" in str(failure)
    assert "deadlocked" in str(failure)
    # acceptance bar: heartbeat/process-probe detection in < 5 s, and the
    # measured latency rides on the exception for the caller
    assert failure.detection_seconds is not None
    assert 0.0 <= failure.detection_seconds < 5.0


def test_mp_ps_retry_deadline_caps_a_starved_request():
    # no shard process ever serves the request queue.  RetryPolicy's
    # deadline_seconds must end the wait after the first unanswered attempt
    # (per-attempt wait 0.1 s > deadline 0.05 s) instead of spending all
    # three resends — the mp client used to ignore the deadline
    ctx = multiprocessing.get_context("fork" if HAVE_FORK else None)
    ps = MPParameterServer(ctx, 1, 4, 1, 0.1, np.float32, timeout=0.4)
    try:
        retry = RetryPolicy(max_retries=3, base_seconds=0.01, deadline_seconds=0.05)
        ps.install_faults(FaultPlan(), retry, "fail_fast")
        with pytest.raises(RetryBudgetExhausted) as err:
            ps.client(0)._push(np.ones(4, np.float32))
        assert err.value.attempts < retry.max_retries
        assert "retry deadline exceeded" in str(err.value)
        assert "parameter-server shard 0" in str(err.value)
    finally:
        ps.shutdown()

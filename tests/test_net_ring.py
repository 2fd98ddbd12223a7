"""The ``net`` collective ring under load: every ring step is one
:meth:`~repro.net.frames.Conn.sendrecv`.

* **No deadlock** — chunks larger than the socket buffers (a blocking send
  before the receive used to wedge every rank until the timeout) reduce
  exactly at p = 2 and p = 3, through allgather too, and under the
  session-resumable links of ``recovery=reconnect``; a peer that dies
  mid-allgather is named.
* **A stall is a stall** — a live peer that stops reading fails the round
  as a stall naming no victim, not as a dead neighbour.
* **The step's two sides** — a session link records the frame it sends
  for replay; a predecessor that dies mid-frame still lets the successor
  have the whole of ours; a successor link cut mid-step still yields the
  predecessor's whole frame, so a resumable ring reduces exactly through
  the cut.
* **p = 2 is one exchange, bit for bit the ring** — ``own + peer`` equals
  the chunked ring schedule at every length, and unit SASGD ends on
  identical parameters on sim, mp and net; hierarchical groups, whose
  links are not the ring's, equal the sim executor too.

Ranks are threads of this process, one :class:`NetCollective` each, over
real loopback sockets; each rank drives its collective's executor to
completion.
"""

import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.faults.plan import RetryPolicy
from repro.net import NetBackend, NetCollective
from repro.net import frames
from repro.net.cluster import allocate_loopback, close_all
from repro.net.frames import (
    DATA,
    HELLO,
    Conn,
    ConnectionLost,
    SessionConn,
    bind_listener,
    connect,
    listener_addr,
)
from repro.comm import allreduce_schedule, run_schedule
from repro.runtime import LearnerFailure, MPBackend
from tests.test_comm_collectives import finish, run_collective
from tests.test_net_backend import _make_trainer

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="net backend needs fork",
)


def _on_ring(p, body, timeout=5.0, session=None):
    """Run ``body(coll, rank)`` on every rank of a fresh loopback ring at
    once; returns the per-rank results, re-raising the first failure."""
    spec, listeners = allocate_loopback(p=p)
    colls = []
    for rank in range(p):
        coll = NetCollective(p, timeout)
        coll.install(spec, {rank: listeners[f"worker{rank}"]})
        if session is not None:
            coll.configure_resume(session, 5.0, RetryPolicy(), seed=0)
        colls.append(coll)
    out = [None] * p

    def run(rank):
        try:
            out[rank] = body(colls[rank], rank)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out[rank] = exc

    threads = [threading.Thread(target=run, args=(r,)) for r in range(p)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout * 4)
        assert not any(t.is_alive() for t in threads), "a rank is still blocked"
    finally:
        for coll in colls:
            coll.teardown_rank()
        close_all(listeners)
    for res in out:
        if isinstance(res, BaseException):
            raise res
    return out


def _exact_sum(p, n, session=None):
    xs = [np.arange(n, dtype=np.float32) % 97 + r for r in range(p)]
    want = np.sum(xs, axis=0, dtype=np.float32)
    outs = _on_ring(
        p, lambda coll, r: finish(coll.allreduce(r, xs[r])), session=session
    )
    for out in outs:
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, want)


# --------------------------------------------------------------------------
# no ring step deadlocks on chunks larger than the socket buffers
# --------------------------------------------------------------------------


def test_p2_allreduce_of_a_large_vector_is_exact_on_both_ranks():
    _exact_sum(2, 2_500_000)


def test_p3_allreduce_of_a_large_vector_is_exact_on_every_rank():
    _exact_sum(3, 4_000_000)


def test_p2_allreduce_of_a_large_vector_is_exact_on_resumable_links():
    _exact_sum(2, 2_500_000, session="ring-test")


def test_p3_resumable_ring_reduces_exactly_through_a_cut_outgoing_link():
    # rank 0 loses only its outgoing link (as its successor's fault_disconnect
    # leaves it) while its step is reading the predecessor's chunk
    n, cut = 4_000_000, []
    xs = [np.arange(n, dtype=np.float32) % 89 + r for r in range(3)]
    want = np.sum(xs, axis=0, dtype=np.float32)

    def body(coll, rank):
        coll._rank = rank
        if rank == 0:
            # the ring links: rank 2 dials us at its first step
            link, succ = coll._link_in(2).conn, coll._link_out(1)
            read = link.recv

            def recv(pump=None):
                def cut_then_pump():  # runs before each read of the frame
                    cut.append(True)
                    if len(cut) == 3:  # header and meta in, payload begun
                        succ.sock.shutdown(socket.SHUT_RDWR)
                    pump()

                return read(cut_then_pump if pump and not cut else pump)

            link.recv = recv
        return finish(coll.allreduce(rank, xs[rank]))

    for out in _on_ring(3, body, session="ring-cut"):
        np.testing.assert_array_equal(out, want)
    assert len(cut) >= 3  # the cut came inside a duplex step


def test_p2_allgather_of_a_large_item_completes():
    rows = [np.full(10_000_000, r, np.uint8) for r in range(2)]
    outs = _on_ring(2, lambda coll, r: finish(coll.allgather(r, rows[r])))
    for out in outs:
        assert out.shape == (2, 10_000_000)
        assert np.array_equal(out, np.stack(rows))


def test_a_peer_that_dies_mid_allgather_is_named():
    # rank 1 joins the ring, takes rank 0's connection and hangs up on both
    spec, listeners = allocate_loopback(p=2)
    coll = NetCollective(2, timeout=5.0)
    coll.install(spec, {0: listeners["worker0"]})
    dying = connect(spec.workers[0], "learner0")
    dying.send(HELLO, {"rank": 1}, seq=0)

    def die():
        sock, _ = listeners["worker1"].accept()
        sock.close()
        dying.close()

    killer = threading.Thread(target=die)
    killer.start()
    try:
        with pytest.raises(LearnerFailure) as info:
            finish(coll.allgather(0, np.arange(1000, dtype=np.uint8)))
        assert info.value.learner_id == 1
        assert "allgather: connection to learner1 lost" in str(info.value)
    finally:
        killer.join(5.0)
        coll.teardown_rank()
        close_all(listeners)


# --------------------------------------------------------------------------
# a live peer that stops reading is a stall, not a death
# --------------------------------------------------------------------------


@pytest.mark.parametrize("op", ["allreduce", "broadcast"])
def test_a_ring_peer_that_never_reads_fails_the_round_as_a_stall(op):
    spec, listeners = allocate_loopback(p=2)
    coll = NetCollective(2, timeout=1.0)
    coll.install(spec, {0: listeners["worker0"]})
    # rank 1 joins the ring (connects to rank 0, says HELLO, takes rank 0's
    # connection) and then holds both sockets open without ever reading
    held = []
    stalled_peer = connect(spec.workers[0], "learner0")
    stalled_peer.send(HELLO, {"rank": 1}, seq=0)
    acceptor = threading.Thread(
        target=lambda: held.append(listeners["worker1"].accept()[0])
    )
    acceptor.start()
    try:
        big = np.ones(4_000_000, dtype=np.float32)
        with pytest.raises(LearnerFailure) as info:
            if op == "allreduce":
                finish(coll.allreduce(0, big))
            else:
                finish(coll.broadcast(0, big, root=0))
        assert info.value.learner_id is None
        assert "stalled for 1.0s" in str(info.value)
        assert "lost" not in str(info.value)
    finally:
        acceptor.join(5.0)
        coll.teardown_rank()
        stalled_peer.close()
        for sock in held:
            sock.close()
        close_all(listeners)


# --------------------------------------------------------------------------
# the two sides of one step
# --------------------------------------------------------------------------


def _tcp_pair(timeout=5.0):
    """``(a, b)``: the two ends of one loopback TCP connection as Conns."""
    listener = bind_listener("127.0.0.1:0")
    try:
        a = connect(listener_addr(listener), "b")
        sock, _ = listener.accept()
    finally:
        listener.close()
    b = Conn(sock, "a")
    for conn in (a, b):
        conn.settimeout(timeout)
    return a, b


def test_a_session_step_records_its_frame_for_replay():
    out, succ = _tcp_pair()
    pred, inp = _tcp_pair()
    try:
        sess_out, sess_in = SessionConn(out, "s"), SessionConn(inp, "s")
        pred.send_tensor(DATA, np.arange(3.0), seq=7)
        mine = np.arange(5, dtype=np.float32)
        frame = sess_out.sendrecv(sess_in, DATA, mine, {"op": "ar"})
        np.testing.assert_array_equal(frame.tensor(), np.arange(3.0))
        assert sess_in.last_recv_seq == 7
        first = succ.recv()
        assert first.seq == 1 and first.tensor().tobytes() == mine.tobytes()
        # the link is replaced: the replay re-sends the step's frame whole
        fresh, succ2 = _tcp_pair()
        sess_out.adopt(fresh)
        assert sess_out.replay_from(0) == 1
        again = succ2.recv()
        assert again.seq == 1 and again.meta == first.meta
        assert again.tensor().tobytes() == mine.tobytes()
        succ2.close()
    finally:
        for conn in (out, succ, pred, inp):
            conn.close()


def test_a_predecessor_dying_mid_frame_still_lets_the_successor_have_ours():
    out, succ = _tcp_pair()
    pred, inp = _tcp_pair()
    mine = np.arange(4_000_000, dtype=np.float32)  # more than the buffers take
    got = []

    def late_successor():
        time.sleep(0.3)  # our write is stuck when the predecessor's EOF lands
        got.append(succ.recv())

    reader = threading.Thread(target=late_successor)
    reader.start()
    try:
        # half a frame, then the predecessor is gone
        head = frames._HEADER.pack(
            frames.MAGIC, frames.PROTOCOL_VERSION, DATA, 1, 0, 65_536
        )
        pred.sock.sendall(head + bytes(1_000))
        pred.close()
        with pytest.raises(ConnectionLost) as info:
            out.sendrecv(inp, DATA, mine)
        assert not info.value.sending
        reader.join(10.0)
        assert got and got[0].tensor().tobytes() == mine.tobytes()
    finally:
        reader.join(10.0)
        for conn in (out, succ, inp):
            conn.close()


@pytest.mark.parametrize("mid_frame", [True, False])
def test_a_step_whose_send_fails_keeps_the_frame_it_was_reading(mid_frame):
    out, succ = _tcp_pair()  # the successor never reads: our write sticks
    pred, inp = _tcp_pair()
    sess_out, sess_in = SessionConn(out, "s"), SessionConn(inp, "s")
    theirs = np.arange(300_000, dtype=np.float32)
    head = frames._HEADER.pack(
        frames.MAGIC, frames.PROTOCOL_VERSION, DATA, 1, 0, theirs.nbytes
    )
    wire = head + theirs.tobytes()
    split = 1_000 if mid_frame else len(wire)
    cut = threading.Event()

    def predecessor():
        pred.sock.sendall(wire[:split])
        cut.wait(5.0)
        pred.sock.sendall(wire[split:])
        pred.send(DATA, {"next": True}, seq=2)

    def cutter():
        time.sleep(0.3)
        out.sock.shutdown(socket.SHUT_RDWR)
        cut.set()

    threads = [threading.Thread(target=predecessor), threading.Thread(target=cutter)]
    for t in threads:
        t.start()
    try:
        with pytest.raises(ConnectionLost) as info:
            sess_out.sendrecv(sess_in, DATA, np.ones(4_000_000, np.float32))
        assert info.value.sending
        assert bytes(info.value.frame.payload) == theirs.tobytes()
        assert sess_in.last_recv_seq == 1
        assert sess_in.recv().meta == {"next": True}  # the stream is in step
    finally:
        for t in threads:
            t.join(10.0)
        for conn in (out, succ, pred, inp):
            conn.close()


# --------------------------------------------------------------------------
# p = 2: one exchange, the ring's bits
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 1001, 65_537])
def test_p2_exchange_equals_the_chunked_ring_bit_for_bit(n, dtype):
    rng = np.random.default_rng(n)
    xs = [rng.standard_normal(n).astype(dtype) * 10.0 ** r for r in range(2)]

    def both(coll, rank):
        exchanged = finish(coll.allreduce(rank, xs[rank]))
        ring = finish(coll.allreduce(rank, xs[rank], algorithm="ring"))
        return exchanged, ring

    outs = _on_ring(2, both)
    ring0 = outs[0][1]
    for exchanged, ring in outs:
        assert exchanged.dtype == dtype and exchanged.shape == (n,)
        assert exchanged.tobytes() == ring.tobytes() == ring0.tobytes()


def test_hierarchical_with_groups_equals_the_sim_executor_bit_for_bit():
    # the schedule's extra links (group members to their leader and back,
    # leader to leader) are dialled on first use, as the ring's are
    p, n, groups = 4, 37, [[0, 1], [2, 3]]
    rng = np.random.default_rng(4)
    xs = [(rng.standard_normal(n) * 10.0 ** r).astype(np.float32) for r in range(p)]

    def hierarchical(coll, r):
        schedule = allreduce_schedule("hierarchical", p, r, groups)
        return run_schedule(coll.channel(r, "h", "allreduce"), schedule, xs[r])

    sim, _, _ = run_collective(p, hierarchical)
    outs = _on_ring(p, lambda coll, r: finish(hierarchical(coll, r)))
    for rank in range(p):
        assert outs[rank].tobytes() == sim[rank].tobytes() == sim[0].tobytes()


@needs_fork
def test_p2_sasgd_ends_on_identical_parameters_on_sim_mp_and_net():
    runs = {}
    for name, backend in (
        ("sim", None),
        ("mp", MPBackend(timeout=60.0)),
        ("net", NetBackend(timeout=60.0)),
    ):
        trainer = _make_trainer("sasgd", backend=backend)
        trainer.train()
        runs[name] = np.array(trainer.workloads[0].flat.data, copy=True)
    assert np.array_equal(runs["sim"], runs["mp"])
    assert np.array_equal(runs["sim"], runs["net"])

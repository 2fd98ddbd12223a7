"""Unit tests for the point-to-point fabric."""

import numpy as np
import pytest

from repro.cluster import build_binary_tree_topology
from repro.comm import Fabric
from repro.sim import Delay, Engine


def make_fabric(n=4, contention=True, **topo_kwargs):
    eng = Engine()
    topo = build_binary_tree_topology(n, **topo_kwargs)
    return eng, Fabric(eng, topo, contention=contention)


def test_attach_and_lookup():
    eng, fab = make_fabric()
    ep = fab.attach("w0", "gpu0")
    assert fab.lookup("w0") is ep
    assert fab.attach("w0", "gpu0") is ep  # idempotent


def test_attach_same_name_different_node_rejected():
    eng, fab = make_fabric()
    fab.attach("w0", "gpu0")
    with pytest.raises(ValueError):
        fab.attach("w0", "gpu1")


def test_attach_unknown_node_rejected():
    eng, fab = make_fabric()
    with pytest.raises(ValueError):
        fab.attach("w0", "gpu99")


def test_lookup_unknown_raises():
    eng, fab = make_fabric()
    with pytest.raises(KeyError):
        fab.lookup("ghost")


def test_send_recv_roundtrip():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    payload = np.arange(10, dtype=np.float32)

    def sender():
        yield from a.send("b", "tag", payload)

    def receiver():
        msg = yield from b.recv("a", "tag")
        return msg

    eng.spawn(sender())
    msg = eng.run_process(receiver())
    assert np.array_equal(msg.payload, payload)
    assert msg.src == "a" and msg.dst == "b"
    assert msg.nbytes == payload.nbytes


def test_send_takes_transfer_time():
    eng, fab = make_fabric(tree_bandwidth=1e6, tree_latency=0.0, host=None)

    a = fab.attach("a", "gpu0")
    fab.attach("b", "gpu1")

    def sender():
        yield from a.send("b", "t", None, nbytes=1e6)

    eng.spawn(sender())
    eng.run()
    assert eng.now == pytest.approx(1.0)  # pipelined: bytes / bottleneck


def test_same_node_transfer_is_free():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    fab.attach("b", "gpu0")

    def sender():
        yield from a.send("b", "t", None, nbytes=1e9)

    eng.spawn(sender())
    eng.run()
    assert eng.now == 0.0


def test_recv_blocks_until_message():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    times = []

    def receiver():
        yield from b.recv("a", "t")
        times.append(eng.now)

    def sender():
        yield Delay(5.0)
        yield from a.send("b", "t", None, nbytes=0.0)

    eng.spawn(receiver())
    eng.spawn(sender())
    eng.run()
    assert times and times[0] >= 5.0


def test_tag_matching_isolates_channels():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    got = {}

    def sender():
        yield from a.send("b", "t2", "second", nbytes=8)
        yield from a.send("b", "t1", "first", nbytes=8)

    def receiver():
        m1 = yield from b.recv("a", "t1")
        m2 = yield from b.recv("a", "t2")
        got["order"] = (m1.payload, m2.payload)

    eng.spawn(sender())
    eng.spawn(receiver())
    eng.run()
    assert got["order"] == ("first", "second")


def test_fifo_within_channel():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    got = []

    def sender():
        for i in range(4):
            yield from a.send("b", "t", i, nbytes=8)

    def receiver():
        for _ in range(4):
            msg = yield from b.recv("a", "t")
            got.append(msg.payload)

    eng.spawn(sender())
    eng.spawn(receiver())
    eng.run()
    assert got == [0, 1, 2, 3]


def test_sendrecv_symmetric_exchange_no_deadlock():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    got = {}

    def worker(me, ep, peer):
        msg = yield from ep.sendrecv(peer, "x", f"from-{me}", peer, "x", nbytes=100)
        got[me] = msg.payload

    eng.spawn(worker("a", a, "b"))
    eng.spawn(worker("b", b, "a"))
    eng.run()
    assert got == {"a": "from-b", "b": "from-a"}


def test_byte_accounting():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")

    def sender():
        yield from a.send("b", "t", None, nbytes=1000.0)

    def receiver():
        yield from b.recv("a", "t")

    eng.spawn(sender())
    eng.spawn(receiver())
    eng.run()
    assert fab.total_bytes == 1000.0
    assert fab.total_messages == 1
    assert a.bytes_sent == 1000.0
    assert b.bytes_received == 1000.0
    # both links of the 2-hop route saw the bytes
    assert sum(v > 0 for v in fab.bytes_per_link.values()) == 2


def test_reset_counters():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    fab.attach("b", "gpu1")

    def sender():
        yield from a.send("b", "t", None, nbytes=10.0)

    eng.spawn(sender())
    eng.run()
    fab.reset_counters()
    assert fab.total_bytes == 0.0
    assert all(v == 0.0 for v in fab.bytes_per_link.values())


def test_contention_serialises_shared_link():
    eng, fab = make_fabric(2, tree_bandwidth=1e6, tree_latency=0.0, host=None)
    a = fab.attach("a", "gpu0")
    c = fab.attach("c", "gpu0")
    fab.attach("b", "gpu1")

    def sender(ep):
        yield from ep.send("b", ("t", ep.name), None, nbytes=1e6)

    eng.spawn(sender(a))
    eng.spawn(sender(c))
    eng.run()
    # two 1-second transfers share gpu0's uplink: serialised to 2 s
    assert eng.now == pytest.approx(2.0)


def test_no_contention_mode_overlaps():
    eng, fab = make_fabric(2, contention=False, tree_bandwidth=1e6, tree_latency=0.0, host=None)
    a = fab.attach("a", "gpu0")
    c = fab.attach("c", "gpu0")
    fab.attach("b", "gpu1")

    def sender(ep):
        yield from ep.send("b", ("t", ep.name), None, nbytes=1e6)

    eng.spawn(sender(a))
    eng.spawn(sender(c))
    eng.run()
    assert eng.now == pytest.approx(1.0)


def test_listen_any_collects_from_all_senders():
    eng, fab = make_fabric()
    srv = fab.attach("srv", "host")
    srv.listen_any("svc")
    workers = [fab.attach(f"w{i}", f"gpu{i}") for i in range(3)]
    got = []

    def sender(ep, delay):
        yield Delay(delay)
        yield from ep.send("srv", "svc", ep.name, nbytes=8)

    def server():
        for _ in range(3):
            msg = yield from srv.recv_any("svc")
            got.append(msg.src)

    for i, w in enumerate(workers):
        eng.spawn(sender(w, float(i)))
    eng.spawn(server())
    eng.run()
    assert got == ["w0", "w1", "w2"]  # arrival order


def test_recv_any_without_listen_raises():
    eng, fab = make_fabric()
    srv = fab.attach("srv", "host")

    def server():
        yield from srv.recv_any("svc")

    eng.spawn(server())
    with pytest.raises(ValueError, match="not listening"):
        eng.run()


def test_nbytes_inferred_from_array_payload():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    arr = np.zeros(25, dtype=np.float64)

    def sender():
        yield from a.send("b", "t", arr)

    def receiver():
        msg = yield from b.recv("a", "t")
        return msg.nbytes

    eng.spawn(sender())
    assert eng.run_process(receiver()) == 200.0


def test_drained_mailboxes_are_dropped_not_accumulated():
    # one-shot tags (a PS reply per request) used to leave one Store each:
    # 40 000 per simulated Downpour cell, all of it cyclic garbage
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    got = []

    def sender():
        for k in range(50):
            yield from a.send("b", ("reply", k), nbytes=8.0)
        # two messages queued on one tag: the first recv must not drop the second
        yield from a.send("b", "twice", payload=1, nbytes=8.0)
        yield from a.send("b", "twice", payload=2, nbytes=8.0)

    def receiver():
        for k in range(50):
            got.append((yield from b.recv("a", ("reply", k))).tag)
        yield Delay(1.0)  # both "twice" messages are waiting by now
        assert len(b._mailbox) == 1
        got.append((yield from b.recv("a", "twice")).payload)
        assert len(b._mailbox) == 1
        got.append((yield from b.recv("a", "twice")).payload)

    eng.spawn(sender())
    eng.run_process(receiver())
    assert got == [("reply", k) for k in range(50)] + [1, 2]
    assert not b._mailbox  # every drained channel is gone


def test_mailbox_with_a_second_waiter_survives_the_first_receive():
    eng, fab = make_fabric()
    a = fab.attach("a", "gpu0")
    b = fab.attach("b", "gpu1")
    got = []

    def receiver(label):
        got.append((label, (yield from b.recv("a", "t")).payload))

    def sender():
        yield Delay(1.0)  # both receivers are blocked on the same channel
        yield from a.send("b", "t", payload="first", nbytes=8.0)
        yield from a.send("b", "t", payload="second", nbytes=8.0)

    eng.spawn(receiver("r0"))
    eng.spawn(receiver("r1"))
    eng.run_process(sender())
    eng.run()
    assert got == [("r0", "first"), ("r1", "second")]
    assert not b._mailbox

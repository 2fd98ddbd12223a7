"""Properties of the collective schedules themselves, executed in pure NumPy.

Every substrate runs :mod:`repro.comm.schedule`'s steps, so what holds here
holds on sim, mp and net alike: (a) a receive in round k is the peer's send
of the same piece in round k, and every send is received; (b) executing the
rounds leaves every rank with the same bits, and with the exact sum where
the inputs make every order exact; (c) the pieces are ``np.array_split``'s,
so with fewer elements than pieces the empty ones move nothing.  The
allgather's copy-only ring meets (a) and (c) too, and leaves every rank
with every rank's row, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.schedule import (
    ALLREDUCE_ALGORITHMS,
    allgather_schedule,
    allreduce_schedule,
    bounds,
    broadcast_schedule,
    check_algorithm,
    gather_start,
)


@st.composite
def _cases(draw):
    p = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=40))
    algorithm = draw(st.sampled_from(sorted(ALLREDUCE_ALGORITHMS)))
    groups = None
    if algorithm == "hierarchical":
        order = draw(st.permutations(range(p)))
        cuts = sorted(draw(st.sets(st.integers(1, max(1, p - 1)), max_size=p - 1)))
        edges = [0, *[c for c in cuts if c < p], p]
        groups = [list(order[a:b]) for a, b in zip(edges, edges[1:]) if b > a]
    return p, n, algorithm, groups


def _execute(schedules, inputs):
    """Run every rank's rounds in lock step: all sends of a round are taken
    before any receive of it is applied.  Returns the outputs and the
    number of elements moved."""
    local = [None if x is None else x.copy() for x in inputs]
    moved = 0
    for k in range(len(schedules[0])):
        sent = {}
        for rank, schedule in enumerate(schedules):
            step = schedule[k]
            if step is not None and step.send is not None:
                lo, hi = bounds(step.send, local[rank].size)
                sent[rank, step.send_to] = (step.send, local[rank][lo:hi].copy())
                moved += hi - lo
        for rank, schedule in enumerate(schedules):
            step = schedule[k]
            if step is None or step.recv is None:
                continue
            piece, data = sent.pop((step.recv_from, rank))
            assert piece == step.recv
            if local[rank] is None:
                local[rank] = data
                continue
            lo, hi = bounds(step.recv, local[rank].size)
            if step.add:
                local[rank][lo:hi] += data
            else:
                local[rank][lo:hi] = data
        assert not sent, f"round {k}: sends nobody received: {sorted(sent)}"
    return local, moved


def _assert_matched(schedules):
    """(a): the same number of rounds, and a receive in round k is the
    peer's send of the same piece in round k."""
    assert len({len(s) for s in schedules}) == 1
    for k in range(len(schedules[0])):
        for rank, schedule in enumerate(schedules):
            step = schedule[k]
            if step is not None and step.recv is not None:
                theirs = schedules[step.recv_from][k]
                assert theirs is not None and theirs.send_to == rank
                assert theirs.send == step.recv


@settings(max_examples=200, deadline=None)
@given(case=_cases(), seed=st.integers(0, 2**16))
def test_every_receive_is_a_matching_send_and_every_rank_ends_on_the_same_bits(case, seed):
    p, n, algorithm, groups = case
    schedules = [allreduce_schedule(algorithm, p, r, groups) for r in range(p)]
    _assert_matched(schedules)
    rng = np.random.default_rng(seed)
    floats = [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for _ in range(p)]
    out, _ = _execute(schedules, floats)
    for got in out:  # (b) the same bits everywhere
        assert got.tobytes() == out[0].tobytes()
    ints = [rng.integers(-(2**20), 2**20, n).astype(np.float64) for _ in range(p)]
    exact = np.array([sum(int(x[i]) for x in ints) for i in range(n)], np.float64)
    out, _ = _execute(schedules, ints)
    for got in out:  # (b) and that is the sum
        assert np.array_equal(got, exact)


@settings(max_examples=100, deadline=None)
@given(case=_cases())
def test_pieces_are_array_split_and_empty_ones_move_nothing(case):
    p, n, algorithm, groups = case
    schedules = [allreduce_schedule(algorithm, p, r, groups) for r in range(p)]
    want = 0
    for schedule in schedules:
        for step in schedule:
            if step is None or step.send is None:
                continue
            index, parts = step.send
            lo, hi = bounds(step.send, n)
            split = np.array_split(np.arange(n), parts)[index]
            assert (lo, hi) == ((split[0], split[-1] + 1) if split.size else (lo, lo))
            want += split.size
    out, moved = _execute(schedules, [np.ones(n) for _ in range(p)])
    assert moved == want  # (c) an empty piece moves no element
    assert all(np.array_equal(got, np.full(n, float(p))) for got in out)


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 9), m=st.integers(0, 6), seed=st.integers(0, 2**16))
def test_allgather_leaves_every_rank_with_every_row_and_empty_rows_move_nothing(p, m, seed):
    schedules = [allgather_schedule(p, r) for r in range(p)]
    _assert_matched(schedules)
    assert all(step.send is not None and not step.add for s in schedules for step in s)
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4) for _ in range(p)]
    out, moved = _execute(schedules, [gather_start(p, r, rows[r]) for r in range(p)])
    for got in out:
        assert got.tobytes() == np.concatenate(rows).tobytes()
    assert moved == p * (p - 1) * m  # (c) at m = 0 nothing moves


@pytest.mark.parametrize("p", range(1, 10))
def test_broadcast_reaches_every_rank_from_every_root(p):
    data = np.arange(5.0)
    for root in range(p):
        schedules = [broadcast_schedule(p, r, root) for r in range(p)]
        out, moved = _execute(
            schedules, [data if r == root else None for r in range(p)]
        )
        assert all(np.array_equal(got, data) for got in out)
        assert moved == (p - 1) * data.size


def test_recursive_doubling_runs_the_ring_where_p_is_no_power_of_two():
    assert allreduce_schedule("recursive_doubling", 6, 2) == allreduce_schedule("ring", 6, 2)


def test_groups_must_partition_the_ranks():
    with pytest.raises(ValueError, match="partition"):
        allreduce_schedule("hierarchical", 4, 0, [[0, 1], [1, 2, 3]])


def test_an_unknown_name_is_refused_with_the_choices():
    with pytest.raises(ValueError, match="choose from") as err:
        check_algorithm("rign")
    assert all(name in str(err.value) for name in ALLREDUCE_ALGORITHMS)

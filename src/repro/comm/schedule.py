"""Collective schedules: allreduce, broadcast and allgather as lists of
point-to-point steps.

SASGD communicates through an initial ``broadcast`` of x and the interval
``allreduce(gs)`` (paper Sec. III), and which allreduce runs decides the
traffic its O(m log p) claim is about; its compressed variant gathers one
sparse row per rank instead.  So each algorithm is written down once, here,
as data, and one executor runs it on every substrate
(:func:`repro.comm.collectives.run_schedule`, over the simulated fabric,
shared memory or TCP): the same additions in the same order, so a given p
and algorithm gives the same bits everywhere.

A schedule is one rank's rounds: ``None`` where the rank sits a round out,
else a :class:`Step` — send a piece to one peer and/or receive a piece from
one peer, then ``local[piece] += received`` (``add``) or
``local[piece] = received``.  Every rank has the same number of rounds, and
a receive in round k is the peer's send of the same piece in round k.  A
piece ``(i, parts)`` is piece i of the vector cut by ``np.array_split``'s
rule (:func:`bounds`), so the length n enters in one place, and a
timing-only caller charges ``nbytes / parts``.  An allgather runs over the
stack of the p rows (:func:`gather_start`), so its pieces are the rows.

=====================  =====================  ==========================
collective             algorithm              cost (alpha–beta, p ranks)
=====================  =====================  ==========================
allreduce              ring                   2(p−1)·alpha + 2((p−1)/p)·m·beta
allreduce              recursive doubling     log2(p)·(alpha + m·beta)
allreduce              binomial tree          2·log2(p)·(alpha + m·beta)
allreduce              hierarchical           group trees + leader ring
broadcast              binomial tree          log2(p)·(alpha + m·beta)
allgather (m per row)  ring                   (p−1)·(alpha + m·beta)
=====================  =====================  ==========================

Recursive doubling needs a power-of-two p; at any other p the name runs the
ring.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ALLREDUCE_ALGORITHMS",
    "Step",
    "allgather_schedule",
    "allreduce_schedule",
    "bounds",
    "broadcast_schedule",
    "check_algorithm",
    "contiguous_groups",
    "gather_start",
]

#: ``(index, parts)``: piece ``index`` of the vector cut into ``parts``
Piece = Tuple[int, int]
WHOLE: Piece = (0, 1)


class Step(NamedTuple):
    """One rank's part of one round."""

    send_to: Optional[int]
    send: Optional[Piece]
    recv_from: Optional[int]
    recv: Optional[Piece]
    add: bool  # local[recv] += received; else local[recv] = received


Schedule = Tuple[Optional[Step], ...]


def bounds(piece: Piece, n: int) -> Tuple[int, int]:
    """Element bounds of ``piece`` in an ``n``-vector, as ``np.array_split``
    cuts: the first ``n % parts`` pieces hold one element more."""
    index, parts = piece
    size, extra = divmod(n, parts)
    lo = index * size + min(index, extra)
    return lo, lo + size + (index < extra)


def contiguous_groups(p: int, group_size: int) -> List[List[int]]:
    """Partition ranks 0..p−1 into contiguous blocks of ``group_size``.

    The default grouping for hierarchical allreduce: with the round-robin
    placements used throughout (rank order follows device order), contiguous
    rank blocks sit on adjacent leaves/rows of the fat-tree and torus
    machines, so intra-group traffic stays on nearby links.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    return [list(range(lo, min(lo + group_size, p))) for lo in range(0, p, group_size)]


# -- step builders: {round: step} for one rank over ``members`` -------------


def _tree_rounds(n: int) -> int:
    return (n - 1).bit_length()


def _reduce(members: Sequence[int], rank: int, r0: int) -> Dict[int, Step]:
    """Binomial-tree sum to ``members[0]``: in round k the member with bit k
    set (and no lower one) sends its partial sum down and retires."""
    v, n, out = members.index(rank), len(members), {}
    for k in range(_tree_rounds(n)):
        mask = 1 << k
        if v & mask:
            out[r0 + k] = Step(members[v - mask], WHOLE, None, None, True)
            break
        if v + mask < n:
            out[r0 + k] = Step(None, None, members[v + mask], WHOLE, True)
    return out


def _broadcast(members: Sequence[int], rank: int, r0: int) -> Dict[int, Step]:
    """Binomial-tree broadcast from ``members[0]``: in round k the members
    that hold the data send it 2^k positions on."""
    v, n, out = members.index(rank), len(members), {}
    for k in range(_tree_rounds(n)):
        mask = 1 << k
        if v < mask and v + mask < n:
            out[r0 + k] = Step(members[v + mask], WHOLE, None, None, False)
        elif mask <= v < 2 * mask:
            out[r0 + k] = Step(None, None, members[v - mask], WHOLE, False)
    return out


def _ring(members: Sequence[int], rank: int, r0: int) -> Dict[int, Step]:
    """Reduce-scatter then allgather around ``members``, in ``len(members)``
    pieces: after p−1 rounds member i holds the full sum of piece i + 1."""
    i, n = members.index(rank), len(members)
    right, left = members[(i + 1) % n], members[(i - 1) % n]
    out = _gather(members, rank, r0 + n - 1, 1)
    for s in range(n - 1):
        out[r0 + s] = Step(right, ((i - s) % n, n), left, ((i - s - 1) % n, n), True)
    return out


def _gather(members: Sequence[int], rank: int, r0: int, shift: int) -> Dict[int, Step]:
    """Copy-only ring around ``members`` from member i holding piece
    i + ``shift``: in round s it sends piece i + shift − s right and takes
    piece i + shift − s − 1 from the left."""
    i, n = members.index(rank), len(members)
    right, left, own = members[(i + 1) % n], members[(i - 1) % n], i + shift
    return {
        r0 + s: Step(right, ((own - s) % n, n), left, ((own - s - 1) % n, n), False)
        for s in range(n - 1)
    }


def _schedule(rounds: int, steps: Dict[int, Step]) -> Schedule:
    return tuple(steps.get(k) for k in range(rounds))


def _ring_allreduce(p: int, rank: int, groups=None) -> Schedule:
    return _schedule(2 * (p - 1), _ring(range(p), rank, 0))


def _recursive_doubling(p: int, rank: int, groups=None) -> Schedule:
    """log2(p) whole-vector exchanges with the peer across bit k."""
    if p & (p - 1):
        raise ValueError(f"recursive doubling needs power-of-two p, got {p}")
    return tuple(
        Step(rank ^ (1 << k), WHOLE, rank ^ (1 << k), WHOLE, True)
        for k in range(_tree_rounds(p))
    )


def _tree(p: int, rank: int, groups=None) -> Schedule:
    """Reduce to rank 0, then broadcast: O(m log p) bytes in all — the
    variant the paper quotes for SASGD."""
    r = _tree_rounds(p)
    everyone = range(p)
    return _schedule(2 * r, {**_reduce(everyone, rank, 0), **_broadcast(everyone, rank, r)})


def _hierarchical(p: int, rank: int, groups=None) -> Schedule:
    """Group reduce to each group's first rank, a ring over those leaders,
    then group broadcast (groups default to blocks of 8)."""
    groups = [list(g) for g in (groups or contiguous_groups(p, 8))]
    if sorted(r for g in groups for r in g) != list(range(p)):
        raise ValueError(f"groups must partition ranks 0..{p - 1}")
    mine = next(g for g in groups if rank in g)
    leaders = [g[0] for g in groups]
    r = max(_tree_rounds(len(g)) for g in groups)
    ring = 2 * (len(leaders) - 1)
    steps = {**_reduce(mine, rank, 0), **_broadcast(mine, rank, r + ring)}
    if rank in leaders:
        steps.update(_ring(leaders, rank, r))
    return _schedule(2 * r + ring, steps)


#: name → builder ``(p, rank, groups) -> schedule``
ALLREDUCE_ALGORITHMS: Dict[str, Callable[..., Schedule]] = {
    "ring": _ring_allreduce,
    "recursive_doubling": _recursive_doubling,
    "tree": _tree,
    "hierarchical": _hierarchical,
}


def check_algorithm(name: str) -> None:
    if name not in ALLREDUCE_ALGORITHMS:
        raise ValueError(
            f"unknown allreduce algorithm {name!r}; "
            f"choose from {sorted(ALLREDUCE_ALGORITHMS)}"
        )


def _check_rank(p: int, rank: int) -> None:
    if p < 1:
        raise ValueError("empty member list")
    if not (0 <= rank < p):
        raise ValueError(f"rank {rank} out of range for p={p}")


@lru_cache(maxsize=1024)  # schedules are immutable tuples: safe to share
def _allreduce_cached(algorithm: str, p: int, rank: int, groups) -> Schedule:
    if algorithm == "recursive_doubling" and p & (p - 1):
        algorithm = "ring"
    return ALLREDUCE_ALGORITHMS[algorithm](p, rank, groups)


def allreduce_schedule(
    algorithm: str, p: int, rank: int,
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> Schedule:
    """Rank ``rank``'s rounds of a sum-allreduce over p ranks.  ``groups``
    (a partition of the ranks) only shapes ``"hierarchical"``."""
    check_algorithm(algorithm)
    _check_rank(p, rank)
    if groups is not None:
        groups = tuple(tuple(g) for g in groups)
    return _allreduce_cached(algorithm, p, rank, groups)


def broadcast_schedule(p: int, rank: int, root: int = 0) -> Schedule:
    """Rank ``rank``'s rounds of a binomial-tree broadcast from ``root``."""
    _check_rank(p, rank)
    _check_rank(p, root)
    members = [(root + v) % p for v in range(p)]
    return _schedule(_tree_rounds(p), _broadcast(members, rank, 0))


def allgather_schedule(p: int, rank: int) -> Schedule:
    """Rank ``rank``'s rounds of a ring allgather over p ranks, run on the
    stack of their rows (:func:`gather_start`): p − 1 copy-only rounds."""
    _check_rank(p, rank)
    return _schedule(p - 1, _gather(range(p), rank, 0, 0))


def gather_start(p: int, rank: int, row) -> np.ndarray:
    """The vector rank ``rank`` runs an allgather on: p rows of ``row``'s
    length in rank order, its own ``row`` in place and zeros elsewhere."""
    row = np.asarray(row).reshape(-1)
    local = np.zeros(p * row.size, row.dtype)
    local[rank * row.size:(rank + 1) * row.size] = row
    return local

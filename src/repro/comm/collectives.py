"""Collective communication algorithms over the point-to-point fabric.

SASGD replaces the parameter server with "global reductions" (paper Sec. III):
``gs ← allreduce(gs, p, id)`` plus an initial ``broadcast`` of the parameters.
This module implements those collectives with the classic algorithms an MPI
library would pick, *actually reducing the NumPy payloads*, so the trainers
built on top are numerically real while the transfer timing comes from the
simulated links:

=====================  =====================  ==========================
collective             algorithm              cost (alpha–beta, p ranks)
=====================  =====================  ==========================
allreduce              ring                   2(p−1)·alpha + 2((p−1)/p)·m·beta
allreduce              recursive doubling     log2(p)·(alpha + m·beta)
allreduce              binomial tree          2·log2(p)·(alpha + m·beta)
broadcast              binomial tree          log2(p)·(alpha + m·beta)
reduce                 binomial tree          log2(p)·(alpha + m·beta)
allgather              ring                   (p−1)·(alpha + m·beta)
=====================  =====================  ==========================

The paper's "O(m log p)" amount-of-data claim corresponds to the tree
variants; ring allreduce moves O(m) per rank.  Both are provided and a test
checks the byte counts match the formulas exactly.

Calling convention (SPMD): every participating process runs the same
coroutine with its own ``rank``; ``members`` lists endpoint names in rank
order; ``ctx`` must be unique per collective *call site occurrence* (e.g. the
global aggregation index) so successive rounds can't cross-talk.

Timing-only mode: pass ``array=None`` and ``nbytes=...`` to move bytes without
doing math — used by the epoch-time experiments at paper scale.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

import numpy as np

from .fabric import Endpoint

__all__ = [
    "broadcast",
    "reduce",
    "allgather_ring",
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "allreduce_tree",
    "allreduce_hierarchical",
    "allreduce",
    "contiguous_groups",
    "ALLREDUCE_ALGORITHMS",
]


def _check(members: Sequence[str], rank: int) -> int:
    p = len(members)
    if p < 1:
        raise ValueError("empty member list")
    if not (0 <= rank < p):
        raise ValueError(f"rank {rank} out of range for p={p}")
    return p


def _is_pow2(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


def broadcast(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    root: int = 0,
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Binomial-tree broadcast from ``root``; returns the broadcast array.

    log2(p) rounds; in round k, ranks that already hold the data send it to
    the rank 2^k positions away (in root-relative numbering).
    """
    p = _check(members, rank)
    if array is not None and nbytes == 0.0:
        nbytes = float(array.nbytes)
    if p == 1:
        return array
    vrank = (rank - root) % p  # root-relative rank
    mask = 1
    have = vrank == 0
    data = array if have else None
    while mask < p:
        if vrank < mask:  # holders send
            peer_v = vrank + mask
            if peer_v < p:
                peer = members[(peer_v + root) % p]
                yield from ep.send(peer, ("bc", ctx, mask), data, nbytes)
        elif vrank < 2 * mask:  # this round's receivers
            peer = members[((vrank - mask) + root) % p]
            msg = yield from ep.recv(peer, ("bc", ctx, mask))
            data = msg.payload
        mask <<= 1
    if data is None and array is not None:
        raise RuntimeError("broadcast finished without data")  # pragma: no cover
    return data


def reduce(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    root: int = 0,
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Binomial-tree sum-reduce to ``root``; non-roots return None.

    The reduction runs leaf-to-root in log2(p) rounds: in round k, the rank
    with bit k set (root-relative) sends its partial sum to the rank without
    it and retires.
    """
    p = _check(members, rank)
    if array is not None and nbytes == 0.0:
        nbytes = float(array.nbytes)
    acc = None if array is None else array.copy()
    if p == 1:
        return acc
    vrank = (rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            peer = members[((vrank - mask) + root) % p]
            yield from ep.send(peer, ("rd", ctx, mask), acc, nbytes)
            return None  # retired from the reduction
        peer_v = vrank + mask
        if peer_v < p:
            peer = members[(peer_v + root) % p]
            msg = yield from ep.recv(peer, ("rd", ctx, mask))
            if acc is not None and msg.payload is not None:
                acc += msg.payload
        mask <<= 1
    return acc if rank == root else None


def allgather_ring(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Ring allgather; returns the list of all ranks' arrays in rank order."""
    p = _check(members, rank)
    if array is not None and nbytes == 0.0:
        nbytes = float(array.nbytes)
    pieces: List[Optional[np.ndarray]] = [None] * p
    pieces[rank] = array
    right = members[(rank + 1) % p]
    left = members[(rank - 1) % p]
    for step in range(p - 1):
        send_idx = (rank - step) % p
        recv_idx = (rank - step - 1) % p
        msg = yield from ep.sendrecv(
            right, ("ag", ctx, step), pieces[send_idx], left, ("ag", ctx, step), nbytes
        )
        pieces[recv_idx] = msg.payload
    return pieces


def allreduce_ring(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Ring allreduce (reduce-scatter + allgather), bandwidth-optimal.

    2(p−1) steps of m/p-sized chunks; every rank sends/receives ~2m bytes in
    total regardless of p.  Works for any p ≥ 1.  Returns the summed array.
    """
    p = _check(members, rank)
    if p == 1:
        return None if array is None else array.copy()
    if array is not None:
        work = array.copy()
        chunks = np.array_split(work, p)
        chunk_bytes = [float(c.nbytes) for c in chunks]
    else:
        chunks = [None] * p
        base = nbytes / p
        chunk_bytes = [base] * p
    right = members[(rank + 1) % p]
    left = members[(rank - 1) % p]
    # reduce-scatter: after step s, rank r holds the partial sum of chunk
    # (r - s) % p over ranks r-s..r
    for step in range(p - 1):
        send_idx = (rank - step) % p
        recv_idx = (rank - step - 1) % p
        msg = yield from ep.sendrecv(
            right,
            ("rs", ctx, step),
            chunks[send_idx],
            left,
            ("rs", ctx, step),
            chunk_bytes[send_idx],
        )
        if msg.payload is not None:
            chunks[recv_idx] += msg.payload
    # allgather the reduced chunks: rank r owns chunk (r + 1) % p
    for step in range(p - 1):
        send_idx = (rank + 1 - step) % p
        recv_idx = (rank - step) % p
        msg = yield from ep.sendrecv(
            right,
            ("arag", ctx, step),
            chunks[send_idx],
            left,
            ("arag", ctx, step),
            chunk_bytes[send_idx],
        )
        if msg.payload is not None:
            chunks[recv_idx] = msg.payload
    if array is None:
        return None
    return np.concatenate([np.asarray(c) for c in chunks])


def allreduce_recursive_doubling(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Recursive-doubling allreduce: log2(p) full-m exchanges (p power of 2).

    Latency-optimal for small messages; this is the classic choice for the
    gradient sizes here when p ≤ 16.
    """
    p = _check(members, rank)
    if not _is_pow2(p):
        raise ValueError(f"recursive doubling needs power-of-two p, got {p}")
    if array is not None and nbytes == 0.0:
        nbytes = float(array.nbytes)
    acc = None if array is None else array.copy()
    mask = 1
    while mask < p:
        peer_rank = rank ^ mask
        peer = members[peer_rank]
        msg = yield from ep.sendrecv(
            peer, ("rdb", ctx, mask, rank), acc, peer, ("rdb", ctx, mask, peer_rank), nbytes
        )
        if acc is not None and msg.payload is not None:
            acc = acc + msg.payload
        mask <<= 1
    return acc


def allreduce_tree(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Binomial-tree allreduce: reduce to rank 0, then broadcast.

    This moves O(m log p) bytes through the network in total — the variant
    the paper quotes ("O(m log p) in SASGD (with tree reduction allreduce)").
    """
    _check(members, rank)
    if array is not None and nbytes == 0.0:
        nbytes = float(array.nbytes)
    partial = yield from reduce(ep, members, rank, array, 0, nbytes, ("t", ctx))
    result = yield from broadcast(ep, members, rank, partial, 0, nbytes, ("t", ctx))
    return result


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


def allreduce_hierarchical(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> Generator:
    """Two-level allreduce: intra-group tree reduce → leader ring → broadcast.

    ``groups`` partitions the ranks; the first rank of each group is its
    leader.  Intra-group phases run concurrently across groups (they touch
    disjoint ranks), the leaders run a bandwidth-optimal ring over the full
    payload, and each leader then broadcasts the result back down its group.
    This is the scalable schedule for machines whose interconnect is itself
    hierarchical (multi-node clusters, fat-trees, tori): total traffic is
    O(m) per rank intra-group plus O(m) per *leader* across the top level.
    """
    p = _check(members, rank)
    if groups is None:
        groups = contiguous_groups(p, 8)
    seen = sorted(r for group in groups for r in group)
    if seen != list(range(p)):
        raise ValueError(f"groups must partition ranks 0..{p - 1}")
    if array is not None and nbytes == 0.0:
        nbytes = float(array.nbytes)
    my_group = next(g for g in groups if rank in g)
    gpos = list(my_group).index(rank)
    sub = [members[r] for r in my_group]
    partial = yield from reduce(ep, sub, gpos, array, 0, nbytes, ("hr", ctx))
    if gpos == 0:
        leaders = [g[0] for g in groups]
        lrank = leaders.index(rank)
        lmembers = [members[r] for r in leaders]
        partial = yield from allreduce_ring(
            ep, lmembers, lrank, partial, nbytes, ("hl", ctx)
        )
    result = yield from broadcast(ep, sub, gpos, partial, 0, nbytes, ("hb", ctx))
    return result


ALLREDUCE_ALGORITHMS = {
    "ring": allreduce_ring,
    "recursive_doubling": allreduce_recursive_doubling,
    "tree": allreduce_tree,
    "hierarchical": allreduce_hierarchical,
}


def allreduce(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
    algorithm: str = "recursive_doubling",
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> Generator:
    """Dispatch to a named allreduce algorithm (see ALLREDUCE_ALGORITHMS).

    ``groups`` is only meaningful for ``algorithm="hierarchical"``.
    """
    try:
        fn = ALLREDUCE_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"choose from {sorted(ALLREDUCE_ALGORITHMS)}"
        ) from None
    if algorithm == "recursive_doubling" and not _is_pow2(len(members)):
        fn = ALLREDUCE_ALGORITHMS["ring"]
    if algorithm == "hierarchical":
        result = yield from allreduce_hierarchical(
            ep, members, rank, array, nbytes, ctx, groups=groups
        )
        return result
    result = yield from fn(ep, members, rank, array, nbytes, ctx)
    return result

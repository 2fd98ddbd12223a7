"""Substrate microbenchmarks and persisted performance baselines.

``repro bench`` times the hot kernels the trainers spend their lives in —
Conv2d forward/backward at the bench CIFAR shape, the temporal (1-D)
convolution, im2col/col2im, max pooling, whole bench-scale training steps
and a test-set evaluation, optimiser steps over flat parameters, one SASGD
aggregation interval — plus one small end-to-end figure experiment, and
writes the numbers to ``BENCH_<git-rev>.json``.

A committed baseline file plus :func:`compare_to_baseline` gives CI a cheap
regression tripwire: wall-clock on shared runners is noisy, so the default
threshold is a generous 2×.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "BENCH_SCHEMA",
    "DERIVED_FLOORS",
    "run_benchmarks",
    "save_bench",
    "load_bench",
    "default_bench_path",
    "compare_to_baseline",
    "format_bench",
]

BENCH_SCHEMA = "repro-bench/1"

# The bench CIFAR-10 conv shape (benchmarks/test_microbench_substrate.py and
# the ISSUE acceptance criterion both pin this): 3×3 conv, padding 1, on a
# 16-sample batch of 16×16×16 feature maps.
_CONV_N, _CONV_C, _CONV_F, _CONV_HW, _CONV_K, _CONV_PAD = 16, 16, 32, 16, 3, 1


def _time(fn: Callable[[], object], reps: int, warmup: int = 2) -> Tuple[float, int]:
    """Best-of-``reps`` seconds per call (min is robust to scheduler noise)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best, reps


def _entry(seconds: float, reps: int, **extra) -> Dict[str, object]:
    out: Dict[str, object] = {
        "seconds": seconds,
        "ops_per_sec": (1.0 / seconds) if seconds > 0 else float("inf"),
        "reps": reps,
    }
    out.update(extra)
    return out


# --------------------------------------------------------------------------
# individual benchmarks
# --------------------------------------------------------------------------


def _bench_conv2d(reps: int) -> Dict[str, Dict[str, object]]:
    from ..nn.conv import Conv2d

    rng = np.random.default_rng(0)
    conv = Conv2d(_CONV_C, _CONV_F, _CONV_K, padding=_CONV_PAD, rng=rng)
    x = rng.standard_normal(
        (_CONV_N, _CONV_C, _CONV_HW, _CONV_HW), dtype=np.float32
    )
    y = conv.forward(x)
    gout = rng.standard_normal(y.shape, dtype=np.float32)
    shape = {"x_shape": list(x.shape), "filters": _CONV_F, "kernel": _CONV_K}

    fwd_s, fwd_r = _time(lambda: conv.forward(x), reps)

    def fast_step() -> None:
        conv.zero_grad()
        conv.forward(x)
        conv.backward(gout)

    fb_s, fb_r = _time(fast_step, reps)
    return {
        "conv2d_forward": _entry(fwd_s, fwd_r, **shape),
        "conv2d_forward_backward": _entry(fb_s, fb_r, **shape),
    }


def _bench_im2col(reps: int) -> Dict[str, Dict[str, object]]:
    from ..nn.bufferpool import BufferPool
    from ..nn.functional import conv_plan

    rng = np.random.default_rng(1)
    x = rng.standard_normal(
        (_CONV_N, _CONV_C, _CONV_HW, _CONV_HW), dtype=np.float32
    )
    plan = conv_plan(*x.shape, _CONV_K, _CONV_K, 1, _CONV_PAD)
    pool = BufferPool()
    col = plan.extract(x, pool)
    gcol = np.ascontiguousarray(col)

    i2c_s, i2c_r = _time(lambda: plan.extract(x, pool), reps)
    c2i_s, c2i_r = _time(lambda: plan.fold(gcol, pool), reps)
    return {
        "im2col_plan": _entry(i2c_s, i2c_r, x_shape=list(x.shape)),
        "col2im_plan": _entry(c2i_s, c2i_r, x_shape=list(x.shape)),
    }


def _bench_temporal(reps: int) -> Dict[str, Dict[str, object]]:
    from ..nn.temporal import TemporalConvolution

    rng = np.random.default_rng(2)
    n, ell, cin, cout, kw = 32, 256, 64, 64, 5
    tc = TemporalConvolution(cin, cout, kw, rng=rng)
    x = rng.standard_normal((n, ell, cin), dtype=np.float32)
    y = tc.forward(x)
    gout = rng.standard_normal(y.shape, dtype=np.float32)
    shape = {"x_shape": [n, ell, cin], "cout": cout, "kw": kw}

    def fast_step() -> None:
        tc.zero_grad()
        tc.forward(x)
        tc.backward(gout)

    fb_s, fb_r = _time(fast_step, reps)
    return {"temporal_conv_forward_backward": _entry(fb_s, fb_r, **shape)}


def _bench_nn_step(reps: int) -> Dict[str, Dict[str, object]]:
    """The first CIFAR pool's shape alone, then whole bench-scale steps (at the
    e2e batch sizes) and one test-set evaluation.  The two sub-millisecond
    entries are best-of-20 even under ``--quick``, as their baseline was
    measured: best-of-5 over ~2 ms of work is decided by one cold call."""
    from ..algos.base import LearnerWorkload, evaluate_model, spawn_rngs
    from ..algos.problems import cifar_problem, nlcf_problem
    from ..nn.pool import MaxPool2d

    rng = np.random.default_rng(3)
    pool = MaxPool2d(2)
    x = rng.standard_normal((16, 16, 32, 32), dtype=np.float32)
    gout = rng.standard_normal((16, 16, 16, 16), dtype=np.float32)
    fine = max(reps, 20)
    pool_t = _time(lambda: (pool.forward(x), pool.backward(gout)), fine)
    out = {"maxpool2d_forward_backward": _entry(*pool_t, x_shape=list(x.shape))}

    def step(problem, batch: int, n: int):
        wl = LearnerWorkload(problem, batch, *spawn_rngs(5, 3))
        idx = wl.next_batch()  # one fixed batch: NLC-F sentences vary in length
        return wl, _entry(*_time(lambda: wl.compute_gradient(idx), n), batch_size=batch)

    cifar = cifar_problem(scale="bench", seed=5)
    wl, out["cifar_train_step"] = step(cifar, 16, reps)
    eval_t = _time(lambda: evaluate_model(wl.model, cifar.test_set, 64), reps)
    out["cifar_evaluate_model"] = _entry(*eval_t, samples=len(cifar.test_set), eval_batch=64)
    _, out["nlcf_train_step"] = step(nlcf_problem(scale="bench", seed=5), 1, fine)
    return out


def _bench_sgd(reps: int) -> Dict[str, Dict[str, object]]:
    from ..nn.models import build_cifar10_cnn
    from ..nn.module import flatten_module
    from ..nn.optim import SGD, MomentumSGD

    rng = np.random.default_rng(3)
    model, _, _ = build_cifar10_cnn(width=0.25, rng=rng)
    flat = flatten_module(model)
    flat.grad[...] = rng.standard_normal(flat.size).astype(flat.grad.dtype)
    dim = {"dim": int(flat.size)}

    sgd = SGD(flat, lr=1e-4, weight_decay=1e-4)
    sgd_s, sgd_r = _time(sgd.step, reps)

    msgd = MomentumSGD(flat, lr=1e-4, momentum=0.9, nesterov=True)
    msgd_s, msgd_r = _time(msgd.step, reps)
    return {
        "sgd_step": _entry(sgd_s, sgd_r, **dim),
        "momentum_sgd_step": _entry(msgd_s, msgd_r, **dim),
    }


def _bench_sasgd_interval(reps: int) -> Dict[str, Dict[str, object]]:
    """One full Alg.-1 aggregation interval (p learners × T local steps) on a
    synthetic quadratic, via the serial reference executor."""
    from ..core.sasgd import SASGDConfig, reference_sasgd
    from ..nn.module import FlatParams

    rng = np.random.default_rng(4)
    dim, p, T = 100_000, 4, 8
    config = SASGDConfig(T=T, p=p, gamma=1e-3, gamma_p=1e-3 / p)
    target = rng.standard_normal(dim)
    x0 = rng.standard_normal(dim)

    flats = []
    grad_fns = []
    for _ in range(p):
        flat = FlatParams(data=x0.copy(), grad=np.zeros(dim), params=[])
        flats.append(flat)

        def grad_fn(step: int, flat=flat) -> None:
            np.subtract(flat.data, target, out=flat.grad)

        grad_fns.append(grad_fn)

    def interval() -> None:
        reference_sasgd(flats, grad_fns, config, n_intervals=1, x0=x0)

    s, r = _time(interval, reps)
    return {
        "sasgd_interval": _entry(
            s, r, dim=dim, p=p, T=T, grads_per_interval=p * T
        )
    }


def _bench_mp_interval(
    reps: int, timeout: float = 60.0
) -> Dict[str, Dict[str, object]]:
    """Per-interval wall time of a real SASGD run on the mp backend.

    Trains a unit-scale CIFAR SASGD end-to-end with 2 worker processes over
    shared-memory allreduce and reports seconds per aggregation interval —
    the number the sim backend can only model.  Skipped (empty dict) where
    fork is unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return {}
    from ..algos import SASGDOptions, SASGDTrainer, TrainerConfig
    from ..algos.problems import cifar_problem
    from ..runtime import MPBackend

    p, T = 2, 4

    def one_run() -> int:
        problem = cifar_problem(scale="unit", seed=5)
        config = TrainerConfig(p=p, epochs=1, batch_size=8, lr=0.02, seed=5)
        trainer = SASGDTrainer(
            problem, config, SASGDOptions(T=T), backend=MPBackend(timeout=timeout)
        )
        trainer.train()
        return trainer.n_intervals

    n_intervals = one_run()  # warm-up: imports, page cache, fork machinery
    s, r = _time(one_run, reps)
    per_interval = s / max(1, n_intervals)
    return {
        "sasgd_interval_mp_backend": _entry(
            per_interval, r, p=p, T=T, intervals=n_intervals, scale="unit"
        )
    }


def _fork_allreduce_peer(ctx, coll, dim: int):
    """Fork rank 1 of a two-rank collective: it answers allreduces until its
    round fails (the parent tore the transport down or declared itself dead).
    A process backend's collective never yields, so one ``next`` runs it."""

    def peer_main() -> None:
        arr = np.ones(dim, dtype=np.float32)
        try:
            while True:
                next(coll.allreduce(1, arr), None)
        except BaseException:
            os._exit(0)

    peer = ctx.Process(target=peer_main, name="repro-bench-peer", daemon=True)
    peer.start()
    return peer


def _reap_peer(peer) -> None:
    peer.join(timeout=10.0)
    if peer.is_alive():  # pragma: no cover - defensive
        peer.terminate()


#: per transport, (suffix, shards, fused): two ops against one shard, and a
#: Downpour step's real traffic, ``push(g, pull=True)`` with a leg to each of two
_PS_BENCHES = (("ps_push_pull", 1, False), ("ps_exchange", 2, True))


def _time_push_pull(ps, dim: int, reps: int, fused: bool) -> Dict[str, object]:
    """Push and pull a ``dim`` float32 vector against a started PS, as two
    ops or as the one fused exchange."""
    client = ps.client(0)
    grad = np.ones(dim, dtype=np.float32)

    def push_pull() -> None:
        if fused:
            client._push(grad, pull=True)
        else:
            client._push(grad)
            client._pull()

    seconds, done = _time(push_pull, reps)
    return _entry(seconds, done, dim=dim, n_shards=ps.layout.n_shards)


def _bench_mp_roundtrips(
    reps: int, timeout: float = 30.0
) -> Dict[str, Dict[str, object]]:
    """Latency of the mp backend's two hand-offs, shaped like the net pair
    below so the two transports read side by side.

    ``mp_allreduce_roundtrip`` is one shared-memory allreduce of the same
    model-sized float32 vector between two real processes (the default
    schedule: at p = 2 one whole-vector exchange through the inbox slots);
    ``mp_ps_push_pull`` is one push + one pull against a live shard process
    through the mailbox and header pipes, ``mp_ps_exchange`` the fused push
    against two (:data:`_PS_BENCHES`).  Skipped (empty dict) where fork is
    unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return {}
    from ..faults.supervisor import LivenessBlock
    from ..runtime.mp_backend import MPCollective, MPParameterServer

    dim = 65_536  # as _bench_net_roundtrips
    ctx = multiprocessing.get_context("fork")
    out: Dict[str, Dict[str, object]] = {}

    # -- allreduce: parent is rank 0, a forked peer is rank 1 --------------
    liveness = LivenessBlock(2, ["coll"])
    coll = MPCollective(ctx, p=2, timeout=timeout)
    coll.allocate(dim, np.float32, liveness)

    peer = _fork_allreduce_peer(ctx, coll, dim)
    try:
        mine = np.ones(dim, dtype=np.float32)
        ar_s, ar_r = _time(lambda: next(coll.allreduce(0, mine), None), reps)
        out["mp_allreduce_roundtrip"] = _entry(ar_s, ar_r, dim=dim, p=2)
    finally:
        liveness.declare_dead(0)  # aborts the peer's wait
        _reap_peer(peer)
        coll.teardown()
        liveness.close()

    # -- PS: live shard processes, one client -------------------------------
    for suffix, n_shards, fused in _PS_BENCHES:
        ps = MPParameterServer(
            ctx, p=1, size=dim, n_shards=n_shards, learning_rate=0.01,
            dtype=np.float32, timeout=timeout,
        )
        ps.start()
        try:
            out[f"mp_{suffix}"] = _time_push_pull(ps, dim, reps, fused)
        finally:
            ps.shutdown()
    return out


def _bench_net_roundtrips(
    reps: int, timeout: float = 30.0
) -> Dict[str, Dict[str, object]]:
    """Latency of the net backend's two wire primitives on loopback TCP.

    ``net_allreduce_roundtrip`` is one allreduce of a model-sized float32
    vector between two real processes (the framed protocol end to end: the
    same schedule as mp's, at p = 2 one whole-vector ``sendrecv`` exchange,
    a frame each way).
    ``net_ps_push_pull`` is one push + one pull against a live PS shard
    process; ``net_ps_exchange`` is the fused push against two — the
    per-step cost every Downpour learner pays.  Skipped (empty dict) where
    fork is unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return {}
    from ..net.backend import NetCollective, NetParameterServer
    from ..net.cluster import allocate_loopback, close_all

    dim = 65_536  # ~256 KB of float32, the bench CIFAR model's order
    ctx = multiprocessing.get_context("fork")
    out: Dict[str, Dict[str, object]] = {}

    # -- allreduce: parent is rank 0, a forked peer is rank 1 --------------
    spec, listeners = allocate_loopback(p=2)
    coll = NetCollective(p=2, timeout=timeout)
    coll.install(spec, {0: listeners["worker0"], 1: listeners["worker1"]})

    peer = _fork_allreduce_peer(ctx, coll, dim)
    try:
        mine = np.ones(dim, dtype=np.float32)
        ar_s, ar_r = _time(lambda: next(coll.allreduce(0, mine), None), reps)
        out["net_allreduce_roundtrip"] = _entry(ar_s, ar_r, dim=dim, p=2)
    finally:
        coll.teardown_rank()  # the peer's next hop fails and it exits
        _reap_peer(peer)
        close_all(listeners)

    # -- PS: live shard processes, one client -------------------------------
    for suffix, n_shards, fused in _PS_BENCHES:
        spec, listeners = allocate_loopback(p=0, n_shards=n_shards)
        ps = NetParameterServer(
            ctx, p=1, size=dim, n_shards=n_shards, learning_rate=0.01,
            dtype=np.float32, timeout=timeout, addrs=spec.ps,
        )
        ps.start(listeners)
        try:
            out[f"net_{suffix}"] = _time_push_pull(ps, dim, reps, fused)
        finally:
            ps.shutdown()
            close_all(listeners)
    return out


def _bench_engine(reps: int) -> Dict[str, Dict[str, object]]:
    """Event throughput of the batched calendar.

    The workload is the large-p hot path: ``procs`` lockstep processes each
    yielding ``rounds`` constant delays, so every timestamp resumes the whole
    cohort — one bucket drain per wave.
    """
    from ..sim.engine import Delay, Engine

    procs, rounds = 512, 25
    events = procs * (rounds + 1)  # +1 for each spawn's initial resume

    def batched() -> None:
        eng = Engine()

        def proc():
            for _ in range(rounds):
                yield Delay(1.0)

        for _ in range(procs):
            eng.spawn(proc())
        eng.run()

    new_s, new_r = _time(batched, reps)
    extra = {"processes": procs, "rounds": rounds, "events": events}
    return {
        "engine_event_throughput": _entry(
            new_s, new_r, events_per_sec=round(events / new_s), **extra
        ),
    }


def _bench_fabric(reps: int) -> Dict[str, Dict[str, object]]:
    """Message rate of per-message transfers vs one vectorised wave.

    The same parameter-server star wave — every leaf GPU sending to the host
    under contention — costed both ways: individually simulated transfers
    (engine events, link resources) vs a :class:`FastFabric` wave (NumPy
    array arithmetic, identical counters).
    """
    from ..cluster.topology import build_binary_tree_topology
    from ..comm.fabric import Fabric
    from ..comm.fastfabric import FastFabric
    from ..sim.engine import Engine

    n_leaves, repeats = 64, 4
    topo = build_binary_tree_topology(n_leaves=n_leaves)
    gpus = [f"gpu{i}" for i in range(n_leaves)]
    messages = n_leaves * repeats

    def per_message() -> None:
        eng = Engine()
        fab = Fabric(eng, topo, contention=True)
        for i, node in enumerate(gpus):
            fab.attach(f"l{i}", node)
        fab.attach("srv", "host")
        for r in range(repeats):
            for i in range(n_leaves):
                eng.spawn(fab.lookup(f"l{i}").send("srv", ("t", r, i), None, nbytes=1e6))
            eng.run()

    pairs = [(node, "host") for node in gpus]
    eng_v = Engine()
    fast = FastFabric(Fabric(eng_v, topo, contention=True))
    fast.plan(pairs)  # steady state: route planning amortises across waves

    def vectorised() -> None:
        for _ in range(repeats):
            fast.wave_span(pairs, 1e6)

    msg_s, msg_r = _time(per_message, reps)
    vec_s, vec_r = _time(vectorised, reps)
    extra = {"messages": messages, "n_leaves": n_leaves}
    return {
        "fabric_message_rate": _entry(
            msg_s, msg_r, messages_per_sec=round(messages / msg_s), **extra
        ),
        "fabric_wave_rate": _entry(
            vec_s, vec_r, messages_per_sec=round(messages / vec_s), **extra
        ),
    }


def _bench_experiment() -> Dict[str, Dict[str, object]]:
    """End-to-end wall time for one small figure experiment (unit scale).

    Declared as a :class:`~repro.spec.ScenarioSpec` and compiled through
    :func:`~repro.spec.compile_scenario` so the bench times the same
    spec-driven path that ``repro run`` and the grid runner exercise.
    """
    from ..spec import ScenarioSpec, compile_scenario

    kwargs = dict(p_values=(1, 2), epochs=1, seed=5, eval_every=1, scale="unit")
    plan = compile_scenario(ScenarioSpec(experiment="fig2", params=kwargs))
    t0 = time.perf_counter()
    result = plan.execute(jobs=1)
    seconds = time.perf_counter() - t0
    return {
        "experiment_fig2_unit": _entry(
            seconds, 1, rows=len(result.rows), kwargs={k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()}
        )
    }


# --------------------------------------------------------------------------
# suite driver, serialisation, regression check
# --------------------------------------------------------------------------


def run_benchmarks(
    quick: bool = False,
    include_experiment: bool = True,
    mp_timeout: float = 60.0,
    name_filter: Optional[str] = None,
) -> Dict[str, object]:
    """Run the full suite; returns the BENCH document (a plain dict).

    ``name_filter`` (a substring) restricts the suite to matching benchmark
    names — groups with no matching entry are skipped entirely, so
    ``repro bench --filter engine`` times only the simulation engine.
    """
    from ..obs.manifest import git_revision

    reps = 5 if quick else 20
    benches: Dict[str, Dict[str, object]] = {}

    def want(*names: str) -> bool:
        return name_filter is None or any(name_filter in n for n in names)

    if want("conv2d_forward", "conv2d_forward_backward"):
        benches.update(_bench_conv2d(reps))
    if want("im2col_plan", "col2im_plan"):
        benches.update(_bench_im2col(reps))
    if want("temporal_conv_forward_backward"):
        benches.update(_bench_temporal(reps))
    if want(
        "maxpool2d_forward_backward", "cifar_train_step", "nlcf_train_step", "cifar_evaluate_model"
    ):
        benches.update(_bench_nn_step(reps))
    if want("sgd_step", "momentum_sgd_step"):
        benches.update(_bench_sgd(reps))
    if want("sasgd_interval"):
        benches.update(_bench_sasgd_interval(max(3, reps // 2)))
    if want("engine_event_throughput"):
        benches.update(_bench_engine(max(3, reps // 2)))
    if want("fabric_message_rate", "fabric_wave_rate"):
        benches.update(_bench_fabric(max(3, reps // 2)))
    if include_experiment:
        if want("sasgd_interval_mp_backend"):
            benches.update(_bench_mp_interval(2 if quick else 3, timeout=mp_timeout))
        # sub-millisecond round trips: best-of-20 even under --quick, or the
        # mp/net ratio held by DERIVED_FLOORS is decided by one cold call
        if want("mp_allreduce_roundtrip", "mp_ps_push_pull", "mp_ps_exchange"):
            benches.update(_bench_mp_roundtrips(20, timeout=mp_timeout))
        if want("net_allreduce_roundtrip", "net_ps_push_pull", "net_ps_exchange"):
            benches.update(_bench_net_roundtrips(20, timeout=mp_timeout))
        if want("experiment_fig2_unit"):
            benches.update(_bench_experiment())
    if name_filter is not None:
        benches = {k: v for k, v in benches.items() if name_filter in k}

    derived: Dict[str, float] = {}

    def ratio(slow: str, fast: str) -> Optional[float]:
        a, b = benches.get(slow), benches.get(fast)
        if not a or not b or not b["seconds"]:
            return None
        return float(a["seconds"]) / float(b["seconds"])

    r = ratio("fabric_message_rate", "fabric_wave_rate")
    if r is not None:
        derived["fabric_wave_speedup_vs_message"] = round(r, 3)
    r = ratio("net_allreduce_roundtrip", "mp_allreduce_roundtrip")
    if r is not None:
        derived["mp_vs_net_allreduce"] = round(r, 3)

    return {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "benches": benches,
        "derived": derived,
    }


def default_bench_path(doc: Dict[str, object]) -> Path:
    rev = doc.get("git_rev") or "unknown"
    return Path(f"BENCH_{str(rev)[:12]}.json")


def save_bench(doc: Dict[str, object], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, object]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    return doc


#: Minimum derived ratios a BENCH document must hold: one shared-memory
#: allreduce must not be slower than the same allreduce over loopback TCP (at
#: p = 2 one ``sendrecv`` exchange, a frame each way: 1.6–2.9× the
#: shared-memory time in full ``--quick`` runs, 0.8–1.3× filtered to the two
#: roundtrips, so near the floor).  Checked only when the document contains
#: the derived entry, so filtered or historical documents pass untouched.
DERIVED_FLOORS: Dict[str, float] = {
    "mp_vs_net_allreduce": 1.0,
}


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 2.0,
    derived_floors: Optional[Dict[str, float]] = None,
) -> Tuple[bool, List[str]]:
    """Flag benches where current is more than ``threshold``× the baseline.

    Only benchmarks present in both documents are compared; the end-to-end
    experiment bench is included like any other.  Derived speedups in the
    *current* document are additionally held to ``derived_floors`` (default
    :data:`DERIVED_FLOORS`).  Returns ``(ok, messages)`` where messages
    describe every comparison (regressions prefixed FAIL).
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    cur = current.get("benches", {})
    base = baseline.get("benches", {})
    ok = True
    messages: List[str] = []
    for name in sorted(set(cur) & set(base)):
        c, b = float(cur[name]["seconds"]), float(base[name]["seconds"])
        if b <= 0:
            continue
        rel = c / b
        if rel > threshold:
            ok = False
            messages.append(
                f"FAIL {name}: {c * 1e3:.3f} ms vs baseline {b * 1e3:.3f} ms "
                f"({rel:.2f}x > {threshold:.2f}x)"
            )
        else:
            messages.append(
                f"ok   {name}: {c * 1e3:.3f} ms vs baseline {b * 1e3:.3f} ms ({rel:.2f}x)"
            )
    if not messages:
        ok = False
        messages.append("FAIL no common benchmarks between current and baseline")
    floors = DERIVED_FLOORS if derived_floors is None else derived_floors
    derived = current.get("derived", {}) or {}
    for name, floor in sorted(floors.items()):
        if name not in derived:
            continue
        value = float(derived[name])
        if value < floor:
            ok = False
            messages.append(f"FAIL {name}: {value:.2f}x < required {floor:.2f}x")
        else:
            messages.append(f"ok   {name}: {value:.2f}x >= {floor:.2f}x")
    return ok, messages


def format_bench(doc: Dict[str, object]) -> str:
    lines = [
        f"bench @ {doc.get('git_rev') or '(no rev)'}  "
        f"python {doc.get('python')}  numpy {doc.get('numpy')}  "
        f"cores {doc.get('cpu_count')}"
        + ("  [quick]" if doc.get("quick") else "")
    ]
    lines.append(f"{'benchmark':<40} {'ms/op':>10} {'ops/sec':>12}")
    for name, entry in sorted(doc.get("benches", {}).items()):
        lines.append(
            f"{name:<40} {float(entry['seconds']) * 1e3:>10.3f} "
            f"{float(entry['ops_per_sec']):>12.2f}"
        )
    derived = doc.get("derived") or {}
    for name, value in sorted(derived.items()):
        lines.append(f"{name:<40} {value:>10.2f}x")
    return "\n".join(lines)

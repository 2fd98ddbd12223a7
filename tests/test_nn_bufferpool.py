"""Buffer-pool reuse (capacity pools) and allocation-free steps."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Conv2d,
    FlatParams,
    MomentumSGD,
    build_cifar10_cnn,
    flatten_module,
)
from repro.nn.bufferpool import BufferPool


def _held(pool):
    """Bytes of storage a pool holds (not of the views it handed out)."""
    return sum(v.base.nbytes for v in pool._bufs.values())


class TestBufferPool:
    def test_reuse_same_shape(self):
        pool = BufferPool()
        a = pool.get("x", (4, 5), np.float32)
        b = pool.get("x", (4, 5), np.float32)
        assert a is b

    def test_realloc_on_shape_change(self):
        pool = BufferPool()
        a = pool.get("x", (4, 5), np.float32)
        b = pool.get("x", (8, 5), np.float32)
        assert a is not b
        assert b.shape == (8, 5)
        # and the new shape is what's retained
        assert pool.get("x", (8, 5), np.float32) is b

    def test_realloc_on_dtype_change(self):
        pool = BufferPool()
        a = pool.get("x", (3,), np.float32)
        b = pool.get("x", (3,), np.float64)
        assert a is not b and b.dtype == np.float64

    def test_zeros_zeroes_reused_buffer(self):
        pool = BufferPool()
        a = pool.get("x", (3,), np.float32)
        a[...] = 7.0
        b = pool.zeros("x", (3,), np.float32)
        assert b is a
        assert np.all(b == 0.0)

    def test_nbytes_reports_storage_held(self):
        pool = BufferPool()
        pool.get("x", (8, 4), np.float32)
        assert list(pool._bufs) == ["x"] and _held(pool) == 8 * 4 * 4
        small = pool.get("x", (3,), np.float32)
        assert small.nbytes == 12
        # the view handed out shrank; the storage behind it did not
        assert list(pool._bufs) == ["x"] and _held(pool) == 8 * 4 * 4
        assert "y" not in pool._bufs

    def test_smaller_request_reuses_larger_storage(self):
        pool = BufferPool()
        big = pool.get("x", (64, 3, 5), np.float32)
        small = pool.get("x", (16, 3, 5), np.float32)
        assert small.shape == (16, 3, 5) and small.flags.c_contiguous
        assert np.shares_memory(big, small)
        # ... and going back up to the large shape allocates nothing new
        again = pool.get("x", (64, 3, 5), np.float32)
        assert again.flags.c_contiguous and np.shares_memory(again, big)
        assert again.ctypes.data == big.ctypes.data
        # a different rank with no more elements fits too
        other = pool.get("x", (4, 240), np.float32)
        assert other.flags.c_contiguous and np.shares_memory(other, big)

    def test_dtype_change_does_not_share_storage(self):
        pool = BufferPool()
        a = pool.get("x", (64,), np.float64)
        b = pool.get("x", (8,), np.float32)  # fewer bytes, but another dtype
        assert b.dtype == np.float32 and not np.shares_memory(a, b)
        assert _held(pool) == 8 * 4

    def test_shape_given_as_list_or_numpy_ints(self):
        pool = BufferPool()
        a = pool.get("x", (2, 3), np.float32)
        assert pool.get("x", [2, 3], np.float32).shape == (2, 3)
        b = pool.get("x", (np.int64(2), np.int64(3)), np.dtype("float32"))
        assert np.shares_memory(a, b) and b.shape == (2, 3)


class TestModulePooling:
    def test_conv_col_not_retained_after_backward(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        y = conv.forward(x)
        assert conv._col is not None  # held for backward
        conv.backward(np.ones_like(y))
        assert conv._col is None  # returned to the pool, not retained
        assert conv._plan is None

    def test_conv_buffers_stable_across_steps(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)

        def step():
            conv.zero_grad()
            y = conv.forward(x)
            conv.backward(np.ones_like(y))
            return y

        step()
        ptrs = {name: buf.ctypes.data for name, buf in conv._pool._bufs.items()}
        for _ in range(3):
            step()
        after = {name: buf.ctypes.data for name, buf in conv._pool._bufs.items()}
        assert ptrs == after  # steady state: no buffer was reallocated

    def test_evaluation_leaves_training_pools_untouched(self):
        rng = np.random.default_rng(3)
        model, _, _ = build_cifar10_cnn(width=0.1, rng=rng)
        small = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        large = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        model.backward(np.ones_like(model.forward(small)))
        pools = [m._pool for m in model.modules() if hasattr(m, "_pool")]
        before = [({k: b.ctypes.data for k, b in p._bufs.items()}, _held(p)) for p in pools]
        assert sum(held for _, held in before) > 0
        model.eval()
        model.forward(large)  # four times the training batch
        model.train()
        # an evaluation runs a training batch at a time on the idle pools or
        # draws fresh arrays: no pool grew, moved or gained a name
        after = [({k: b.ctypes.data for k, b in p._bufs.items()}, _held(p)) for p in pools]
        assert after == before

    def test_learners_in_one_process_share_one_pool_per_layer(self):
        from repro.algos import SASGDOptions, SASGDTrainer, TrainerConfig, cifar_problem

        trainer = SASGDTrainer(
            cifar_problem(scale="unit", seed=3),
            TrainerConfig(p=4, epochs=1, batch_size=4), SASGDOptions(T=2))
        per_model = [[m._pool for m in wl.model.modules() if hasattr(m, "_pool")]
                     for wl in trainer.workloads]
        assert per_model[0] and len({len(pools) for pools in per_model}) == 1
        for position in zip(*per_model):
            assert len({id(pool) for pool in position}) == 1
        assert len({id(pool) for pool in per_model[0]}) == len(per_model[0])

    def test_models_with_different_layers_refuse_to_share(self):
        from repro.algos import TrainerConfig
        from repro.algos.base import Problem, build_workloads
        from repro.algos.problems import cifar_problem, nlcf_problem

        cifar, nlcf = cifar_problem(scale="unit", seed=3), nlcf_problem(scale="unit", seed=3)
        builders = iter([cifar.build_model, nlcf.build_model])
        mixed = Problem("mixed", lambda rng: next(builders)(rng), cifar.train_set, cifar.test_set)
        with pytest.raises(ValueError, match="differ in their layers"):
            build_workloads(mixed, TrainerConfig(p=2))

    @pytest.mark.parametrize("which", ["cifar", "nlcf"])
    def test_backward_after_an_eval_forward_raises(self, which):
        from repro.algos.base import LearnerWorkload, spawn_rngs
        from repro.algos.problems import cifar_problem, nlcf_problem

        problem = (cifar_problem if which == "cifar" else nlcf_problem)(scale="unit", seed=3)
        wl = LearnerWorkload(problem, 4, *spawn_rngs(9, 3))
        xb, _ = problem.test_set.batch(np.arange(4))
        logits = wl.model.forward(xb)  # training mode: state kept for backward
        wl.model.eval()
        wl.model.forward(xb)  # evaluation drops it again
        for mod in wl.model.modules():
            for state in ("_col", "_mask", "_y", "_x", "_hits"):
                assert getattr(mod, state, None) is None, (type(mod).__name__, state)
        with pytest.raises(RuntimeError, match="backward before forward"):
            wl.model.backward(np.ones_like(logits))

    @pytest.mark.parametrize("which", ["cifar", "nlcf"])
    def test_evaluation_between_steps_does_not_disturb_training(self, which):
        # evaluate_model runs batch-64 forwards on the very storage the
        # training step uses; 8 steps must not notice one in their middle
        from repro.algos.base import LearnerWorkload, evaluate_model, spawn_rngs
        from repro.algos.problems import cifar_problem, nlcf_problem

        make, batch = (cifar_problem, 8) if which == "cifar" else (nlcf_problem, 1)
        problem = make(scale="unit", seed=3)

        def train(evaluate_at):
            wl = LearnerWorkload(problem, batch, *spawn_rngs(9, 3))
            opt = SGD(wl.flat, lr=0.05)
            for step in range(8):
                if step == evaluate_at:
                    evaluate_model(wl.model, problem.test_set, 64)
                wl.compute_gradient(wl.next_batch())
                opt.step()
            return wl.flat.copy_data()

        assert train(evaluate_at=4).tobytes() == train(evaluate_at=None).tobytes()


def _flat(dim, seed):
    rng = np.random.default_rng(seed)
    flat = FlatParams(
        data=rng.standard_normal(dim), grad=rng.standard_normal(dim), params=[]
    )
    return flat


class TestAllocationFreeSteps:
    def test_sgd_step_allocation_free(self):
        flat = _flat(50_000, 1)
        opt = SGD(flat, lr=0.1, weight_decay=1e-4)
        ptr = flat.data.ctypes.data
        opt.step()  # first call may allocate nothing: buffers exist from init

        import tracemalloc

        tracemalloc.start()
        for _ in range(5):
            opt.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert flat.data.ctypes.data == ptr
        # 5 steps over a 400 KB vector: a non-allocation-free step would
        # show peaks in the MB range; allow generous slack for bookkeeping
        assert peak < 50_000

    def test_momentum_step_allocation_free(self):
        flat = _flat(50_000, 2)
        opt = MomentumSGD(flat, lr=0.1, momentum=0.9, nesterov=True)
        ptr = flat.data.ctypes.data
        vptr = opt.velocity.ctypes.data
        opt.step()

        import tracemalloc

        tracemalloc.start()
        for _ in range(5):
            opt.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert flat.data.ctypes.data == ptr
        assert opt.velocity.ctypes.data == vptr
        assert peak < 50_000

    def test_sgd_matches_manual_update(self):
        flat = _flat(100, 3)
        x0 = flat.data.copy()
        g = flat.grad.copy()
        opt = SGD(flat, lr=0.25)
        opt.step()
        np.testing.assert_array_equal(flat.data, x0 - 0.25 * g)

    def test_model_flat_step_keeps_parameter_views(self):
        rng = np.random.default_rng(4)
        model, _, _ = build_cifar10_cnn(width=0.1, rng=rng)
        flat = flatten_module(model)
        opt = SGD(flat, lr=0.01)
        params = model.parameters()
        bases = [p.data.base is not None for p in params]
        assert all(bases)
        flat.grad[...] = 1.0
        for _ in range(3):
            opt.step()
        # views never detach: layer params still alias the flat vector
        for p in params:
            assert p.data.base is flat.data or p.data.base.base is flat.data

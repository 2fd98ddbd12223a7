"""Gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxOverTime,
    MaxPool2d,
    ReLU,
    Tanh,
    TemporalConvolution,
    TemporalMaxPooling,
)
from tests.nn_oracles import gradcheck_module

RNG = np.random.default_rng(1234)
TOL = 1e-6


def check(module, x, **kwargs):
    pe, ie = gradcheck_module(module, x, rng=np.random.default_rng(99), **kwargs)
    assert pe < TOL, f"param grad err {pe}"
    assert ie < TOL, f"input grad err {ie}"


# -- Linear --------------------------------------------------------------------


def test_linear_gradcheck_2d():
    check(Linear(6, 4, dtype=np.float64, rng=RNG), RNG.standard_normal((3, 6)))


def test_linear_gradcheck_3d_per_token():
    check(Linear(5, 3, dtype=np.float64, rng=RNG), RNG.standard_normal((2, 4, 5)))


def test_linear_gradcheck_no_bias():
    check(Linear(4, 4, bias=False, dtype=np.float64, rng=RNG), RNG.standard_normal((2, 4)))


def test_linear_forward_matches_matmul():
    lin = Linear(3, 2, dtype=np.float64, rng=np.random.default_rng(0))
    x = np.array([[1.0, 2.0, 3.0]])
    expected = x @ lin.weight.data.T + lin.bias.data
    np.testing.assert_allclose(lin.forward(x), expected)


def test_linear_shape_validation():
    lin = Linear(3, 2)
    with pytest.raises(ValueError):
        lin.forward(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        lin.output_shape((4,))
    with pytest.raises(ValueError):
        Linear(0, 2)


def test_linear_backward_before_forward_raises():
    lin = Linear(3, 2)
    with pytest.raises(RuntimeError):
        lin.backward(np.zeros((1, 2), dtype=np.float32))


def test_linear_grad_accumulates():
    lin = Linear(3, 2, dtype=np.float64, rng=RNG)
    x = RNG.standard_normal((2, 3))
    go = RNG.standard_normal((2, 2))
    lin.forward(x)
    lin.backward(go)
    g1 = lin.weight.grad.copy()
    lin.forward(x)
    lin.backward(go)
    np.testing.assert_allclose(lin.weight.grad, 2 * g1)


def test_linear_flops():
    lin = Linear(10, 20)
    assert lin.flops_per_example((10,)) == 2 * 10 * 20
    assert lin.flops_per_example((5, 10)) == 5 * 2 * 10 * 20


# -- Conv2d ---------------------------------------------------------------------


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv_gradcheck(stride, pad):
    conv = Conv2d(2, 3, 3, stride=stride, padding=pad, dtype=np.float64, rng=RNG)
    check(conv, RNG.standard_normal((2, 2, 6, 6)))


def test_conv_rect_kernel_gradcheck():
    conv = Conv2d(1, 2, (2, 3), dtype=np.float64, rng=RNG)
    check(conv, RNG.standard_normal((1, 1, 5, 5)))


def test_conv_no_bias_gradcheck():
    conv = Conv2d(1, 2, 3, bias=False, dtype=np.float64, rng=RNG)
    check(conv, RNG.standard_normal((1, 1, 5, 5)))


def test_conv_identity_kernel():
    conv = Conv2d(1, 1, 1, dtype=np.float64, rng=RNG)
    conv.weight.data[...] = 1.0
    conv.bias.data[...] = 0.0
    x = RNG.standard_normal((1, 1, 4, 4))
    np.testing.assert_allclose(conv.forward(x), x)


def test_conv_output_shape_and_validation():
    conv = Conv2d(3, 8, 5, padding=2)
    assert conv.output_shape((3, 32, 32)) == (8, 32, 32)
    with pytest.raises(ValueError):
        conv.output_shape((4, 32, 32))
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 4, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        Conv2d(1, 1, 3, stride=0)
    with pytest.raises(ValueError):
        Conv2d(1, 1, 3, padding=-1)


def test_conv_flops_positive_and_scaling():
    conv = Conv2d(3, 8, 3, padding=1)
    f1 = conv.flops_per_example((3, 8, 8))
    f2 = conv.flops_per_example((3, 16, 16))
    assert f2 == pytest.approx(4 * f1)


# -- MaxPool2d --------------------------------------------------------------------


def test_maxpool_gradcheck():
    check(MaxPool2d(2), RNG.standard_normal((2, 2, 6, 6)))


def test_maxpool_rect_gradcheck():
    check(MaxPool2d((2, 3)), RNG.standard_normal((1, 2, 4, 6)))


def test_maxpool_forward_values():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = MaxPool2d(2).forward(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_floor_semantics():
    pool = MaxPool2d(2)
    assert pool.output_shape((8, 5, 5)) == (8, 2, 2)
    x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
    assert pool.forward(x).shape == (1, 1, 2, 2)


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[[1.0, 9.0], [2.0, 3.0]]]])
    pool = MaxPool2d(2)
    pool.forward(x)
    gx = pool.backward(np.array([[[[5.0]]]]))
    np.testing.assert_array_equal(gx, [[[[0.0, 5.0], [0.0, 0.0]]]])


def test_maxpool_too_small_input():
    with pytest.raises(ValueError):
        MaxPool2d(4).forward(np.zeros((1, 1, 2, 2)))


# -- activations -----------------------------------------------------------------


def test_relu_gradcheck():
    # offset keeps inputs away from the kink
    check(ReLU(), RNG.standard_normal((3, 5)) + np.sign(RNG.standard_normal((3, 5))) * 0.5)


def test_relu_forward():
    out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def test_tanh_gradcheck():
    check(Tanh(), RNG.standard_normal((3, 5)))


def test_tanh_bounded():
    out = Tanh().forward(np.array([-100.0, 100.0]))
    np.testing.assert_allclose(out, [-1.0, 1.0])


def test_flatten_roundtrip():
    f = Flatten()
    x = RNG.standard_normal((2, 3, 4))
    y = f.forward(x)
    assert y.shape == (2, 12)
    gx = f.backward(np.ones_like(y))
    assert gx.shape == x.shape
    assert f.output_shape((3, 4)) == (12,)


# -- Dropout ----------------------------------------------------------------------


def test_dropout_eval_is_identity():
    d = Dropout(0.5)
    d.training = False
    x = RNG.standard_normal((4, 4))
    np.testing.assert_array_equal(d.forward(x), x)


def test_dropout_p0_is_identity_in_train():
    d = Dropout(0.0)
    x = RNG.standard_normal((4, 4))
    np.testing.assert_array_equal(d.forward(x), x)


def test_dropout_inverted_scaling_preserves_mean():
    d = Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((200, 200))
    out = d.forward(x)
    assert out.mean() == pytest.approx(1.0, rel=0.05)
    assert set(np.round(np.unique(out), 6)) <= {0.0, 2.0}


def test_dropout_backward_uses_same_mask():
    d = Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((10, 10))
    out = d.forward(x)
    gx = d.backward(np.ones_like(x))
    np.testing.assert_array_equal(gx, out)


def test_dropout_p_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)


# -- temporal layers ----------------------------------------------------------------


def test_temporal_conv_gradcheck():
    check(TemporalConvolution(3, 4, 2, dtype=np.float64, rng=RNG), RNG.standard_normal((2, 6, 3)))


def test_temporal_conv_kw1_is_per_frame_linear():
    tc = TemporalConvolution(3, 2, 1, dtype=np.float64, rng=np.random.default_rng(0))
    x = RNG.standard_normal((1, 5, 3))
    out = tc.forward(x)
    expected = x @ tc.weight.data.T + tc.bias.data
    np.testing.assert_allclose(out, expected)


def test_temporal_conv_shapes():
    tc = TemporalConvolution(100, 1000, 2)
    assert tc.output_shape((20, 100)) == (19, 1000)
    with pytest.raises(ValueError):
        tc.output_shape((1, 100))
    with pytest.raises(ValueError):
        tc.forward(np.zeros((1, 5, 99), dtype=np.float32))


def test_temporal_maxpool_gradcheck():
    check(TemporalMaxPooling(2), RNG.standard_normal((2, 6, 3)))


def test_temporal_maxpool_shapes_floor():
    pool = TemporalMaxPooling(2)
    assert pool.output_shape((5, 7)) == (2, 7)
    with pytest.raises(ValueError):
        pool.output_shape((1, 7))


def test_temporal_maxpool_values():
    x = np.array([[[1.0], [5.0], [2.0], [3.0]]])
    out = TemporalMaxPooling(2).forward(x)
    np.testing.assert_array_equal(out, [[[5.0], [3.0]]])


def test_maxovertime_gradcheck():
    check(MaxOverTime(), RNG.standard_normal((2, 6, 3)))


def test_maxovertime_values_and_shape():
    x = np.array([[[1.0, -2.0], [3.0, -1.0], [0.0, -5.0]]])
    mot = MaxOverTime()
    out = mot.forward(x)
    np.testing.assert_array_equal(out, [[3.0, -1.0]])
    assert mot.output_shape((6, 2)) == (2,)


def test_maxovertime_backward_scatters_to_argmax():
    x = np.array([[[1.0], [3.0], [2.0]]])
    mot = MaxOverTime()
    mot.forward(x)
    gx = mot.backward(np.array([[7.0]]))
    np.testing.assert_array_equal(gx, [[[0.0], [7.0], [0.0]]])


# -- pooling against the argmax oracle ----------------------------------------------
#
# The layers take the maximum as a running np.maximum over window-offset views
# and route gradients through first-occurrence boolean masks.  The argmax /
# take_along_axis / put_along_axis code they replaced stays here as the oracle:
# outputs and input gradients must be equal element for element (array_equal,
# so a +0.0 / -0.0 pair counts as equal), ties included.


def _oracle_maxpool2d(x, kh, kw, grad_of):
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    win = x[:, :, : oh * kh, : ow * kw].reshape(n, c, oh, kh, ow, kw)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kh * kw)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    grad_out = grad_of(out)
    gwin = np.zeros((n, c, oh, ow, kh * kw), dtype=grad_out.dtype)
    np.put_along_axis(gwin, arg[..., None], grad_out[..., None], axis=-1)
    gx = np.zeros(x.shape, dtype=grad_out.dtype)
    gwin6 = gwin.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 2, 4, 3, 5)
    gx[:, :, : oh * kh, : ow * kw] = gwin6.reshape(n, c, oh * kh, ow * kw)
    return out, grad_out, gx


def _oracle_temporal_maxpool(x, kw, grad_of):
    n, ell, c = x.shape
    lo = ell // kw
    win = x[:, : lo * kw, :].reshape(n, lo, kw, c)
    arg = win.argmax(axis=2)
    out = np.take_along_axis(win, arg[:, :, None, :], axis=2)[:, :, 0, :]
    grad_out = grad_of(out)
    gwin = np.zeros((n, lo, kw, c), dtype=grad_out.dtype)
    np.put_along_axis(gwin, arg[:, :, None, :], grad_out[:, :, None, :], axis=2)
    gx = np.zeros(x.shape, dtype=grad_out.dtype)
    gx[:, : lo * kw, :] = gwin.reshape(n, lo * kw, c)
    return out, grad_out, gx


def _oracle_maxovertime(x, grad_of):
    arg = x.argmax(axis=1)
    out = np.take_along_axis(x, arg[:, None, :], axis=1)[:, 0, :]
    grad_out = grad_of(out)
    gx = np.zeros(x.shape, dtype=grad_out.dtype)
    np.put_along_axis(gx, arg[:, None, :], grad_out[:, None, :], axis=1)
    return out, grad_out, gx


def _pool_input(seed, shape, dtype, kind):
    """Inputs whose windows tie: ``kind`` picks how hard."""
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        x = rng.standard_normal(shape)
    elif kind == "few_values":  # many repeated maxima per window
        x = rng.integers(-1, 2, size=shape).astype(np.float64)
    elif kind == "relu":  # the post-ReLU case: about half the entries are 0
        x = np.maximum(rng.standard_normal(shape), 0.0)
    elif kind == "all_equal":  # every window all-zero
        x = np.zeros(shape)
    else:  # signed zeros: value-equal, the gradient goes to the first one
        x = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    return x.astype(dtype)


def _nonzero_grad(seed):
    def grad_of(out):
        g = np.random.default_rng(seed + 1).standard_normal(out.shape)
        return (g + np.sign(g)).astype(out.dtype)  # |g| >= 1: routing is visible

    return grad_of


_POOL_KINDS = st.sampled_from(["distinct", "few_values", "relu", "all_equal", "signed_zero"])
_POOL_DTYPES = st.sampled_from([np.float32, np.float64])


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    kernel=st.sampled_from([(2, 2), (2, 3), (3, 2), (1, 1), (1, 2), (3, 3)]),
    dtype=_POOL_DTYPES,
    kind=_POOL_KINDS,
)
def test_maxpool_matches_argmax_oracle(seed, n, c, h, w, kernel, dtype, kind):
    kh, kw = kernel
    h, w = max(h, kh), max(w, kw)
    x = _pool_input(seed, (n, c, h, w), dtype, kind)
    want_out, grad_out, want_gx = _oracle_maxpool2d(x, kh, kw, _nonzero_grad(seed))
    pool = MaxPool2d(kernel)
    for _ in range(2):  # second round runs on reused buffers
        out = pool.forward(x.copy())
        assert out.dtype == x.dtype and out.shape == want_out.shape
        np.testing.assert_array_equal(out, want_out)
        gx = pool.backward(grad_out)
        assert gx.dtype == grad_out.dtype
        np.testing.assert_array_equal(gx, want_gx)
        # one routed element per window, nothing in the floor-division remainder
        assert np.count_nonzero(gx) == want_out.size
        oh, ow = want_out.shape[2:]
        assert not gx[:, :, oh * kh :, :].any() and not gx[:, :, :, ow * kw :].any()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3),
    ell=st.integers(1, 9),
    c=st.integers(1, 4),
    kw=st.integers(1, 3),
    dtype=_POOL_DTYPES,
    kind=_POOL_KINDS,
)
def test_temporal_maxpool_matches_argmax_oracle(seed, n, ell, c, kw, dtype, kind):
    ell = max(ell, kw)
    x = _pool_input(seed, (n, ell, c), dtype, kind)
    want_out, grad_out, want_gx = _oracle_temporal_maxpool(x, kw, _nonzero_grad(seed))
    pool = TemporalMaxPooling(kw)
    for _ in range(2):
        np.testing.assert_array_equal(pool.forward(x.copy()), want_out)
        gx = pool.backward(grad_out)
        np.testing.assert_array_equal(gx, want_gx)
        assert np.count_nonzero(gx) == want_out.size
        assert not gx[:, (ell // kw) * kw :, :].any()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3),
    ell=st.integers(1, 9),
    c=st.integers(1, 4),
    dtype=_POOL_DTYPES,
    kind=_POOL_KINDS,
)
def test_maxovertime_matches_argmax_oracle(seed, n, ell, c, dtype, kind):
    # few_values / all_equal / signed_zero repeat the maximum along time
    x = _pool_input(seed, (n, ell, c), dtype, kind)
    want_out, grad_out, want_gx = _oracle_maxovertime(x, _nonzero_grad(seed))
    mot = MaxOverTime()
    for _ in range(2):
        np.testing.assert_array_equal(mot.forward(x.copy()), want_out)
        gx = mot.backward(grad_out)
        np.testing.assert_array_equal(gx, want_gx)
        assert np.count_nonzero(gx) == want_out.size


def test_pooling_tie_goes_to_first_occurrence():
    x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]]])
    pool = MaxPool2d(2)
    assert pool.forward(x)[0, 0, 0, 0] == 0.0
    np.testing.assert_array_equal(pool.backward(np.full((1, 1, 1, 1), 3.0))[0, 0], [[3, 0], [0, 0]])
    seq = np.array([[[2.0], [5.0], [5.0], [5.0]]])
    tmp = TemporalMaxPooling(2)
    tmp.forward(seq)
    np.testing.assert_array_equal(tmp.backward(np.array([[[1.0], [4.0]]]))[0, :, 0], [0, 1, 4, 0])
    mot = MaxOverTime()
    mot.forward(seq)
    np.testing.assert_array_equal(mot.backward(np.array([[7.0]]))[0, :, 0], [0, 7, 0, 0])


@pytest.mark.parametrize(
    "layer, shape",
    [(MaxPool2d(2), (2, 2, 4, 4)), (TemporalMaxPooling(2), (2, 6, 3)), (MaxOverTime(), (2, 6, 3))],
    ids=["MaxPool2d", "TemporalMaxPooling", "MaxOverTime"],
)
def test_eval_mode_pooling_keeps_no_routing_state(layer, shape):
    x = RNG.standard_normal(shape)
    trained = layer.forward(x).copy()  # training mode: routing state cached ...
    layer.eval()
    np.testing.assert_array_equal(layer.forward(x), trained)
    held = getattr(layer, "_pool2d", layer)  # TemporalMaxPooling wraps a MaxPool2d
    assert held._hits is None  # ... and an eval forward drops it, keeps none
    with pytest.raises(RuntimeError, match="backward before forward"):
        layer.backward(np.ones_like(trained))


# -- input_grad=False and rank-1 weight gradients ---------------------------------


def _param_grads(module, x, grad_out, **kwargs):
    module.zero_grad()
    module.forward(x)
    gin = module.backward(grad_out, **kwargs)
    return gin, [p.grad.copy() for p in module.parameters()]


@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda: Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(5)), (2, 3, 6, 6)),
        (lambda: Linear(5, 3, rng=np.random.default_rng(5)), (4, 5)),
        (lambda: Linear(5, 3, rng=np.random.default_rng(5)), (1, 5)),
        (lambda: TemporalConvolution(3, 4, 2, rng=np.random.default_rng(5)), (2, 6, 3)),
    ],
    ids=["Conv2d", "Linear", "Linear-one-row", "TemporalConvolution"],
)
def test_input_grad_false_skips_only_the_input_gradient(make, shape):
    layer = make()
    x = np.random.default_rng(6).standard_normal(shape).astype(np.float32)
    grad_out = np.random.default_rng(7).standard_normal(layer.forward(x).shape).astype(np.float32)
    gin, want = _param_grads(layer, x, grad_out)
    assert gin.shape == x.shape
    none, got = _param_grads(layer, x, grad_out, input_grad=False)
    assert none is None
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()  # bit-equal, not merely close
    # the layer is still usable the ordinary way afterwards
    again, _ = _param_grads(layer, x, grad_out)
    np.testing.assert_array_equal(again, gin)


@pytest.mark.parametrize("lead", [(1,), (1, 1)], ids=["2d", "3d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_one_row_weight_grad_is_bit_equal_to_matmul(lead, dtype):
    rng = np.random.default_rng(8)
    lin = Linear(150, 64, dtype=dtype, rng=rng)
    x = rng.standard_normal(lead + (150,)).astype(dtype)
    grad_out = rng.standard_normal(lead + (64,)).astype(dtype)
    lin.forward(x)
    lin.backward(grad_out)
    want = np.matmul(grad_out.reshape(1, -1).T, x.reshape(1, -1))
    assert lin.weight.grad.tobytes() == want.tobytes()


def test_dropout_consumes_the_same_random_stream():
    # the training curves depend on the draw sequence: mask k must come from
    # the same rng.random(x.shape) call it always did, scaled by 1/keep in x's
    # own precision
    for dtype, p in [(np.float32, 0.5), (np.float32, 0.3), (np.float64, 0.3)]:
        d = Dropout(p, rng=np.random.default_rng(42))
        ref = np.random.default_rng(42)
        for shape in [(4, 3, 5, 5), (2, 7)]:
            x = RNG.standard_normal(shape).astype(dtype)
            want = (ref.random(shape) < 1.0 - p).astype(dtype)
            want /= 1.0 - p
            out = d.forward(x)
            assert out.dtype == dtype
            assert out.tobytes() == (x * want).tobytes()
            assert d.backward(x).tobytes() == (x * want).tobytes()
        assert d.rng.random() == ref.random()  # generators still in step

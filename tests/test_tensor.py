"""Tensor core tests.

Layout: brute-force reference implementations (nested loops, no vectorised
tricks) come first and are trusted as oracles; the vectorised operators are
then compared against them over a grid of geometries. Backward rules are
verified twice — against hand-frozen values on tiny cases, and against
central finite differences through the grad_check harness.
"""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densect import tensor as T
from densect.gradcheck import grad_check
from densect.tensor import (
    DegenerateStatsError,
    GeometryError,
    NoGraphError,
    ShapeError,
    Tensor,
    backward,
    batchnorm2d,
    concat_channels,
    conv2d,
    linear,
    no_grad,
    pool2d,
    relu,
    sigmoid,
    stable_sigmoid,
)


# ---------------------------------------------------------------------------
# oracles


def conv2d_ref(x, w, b=None, stride=1, padding=0):
    """Direct convolution by summation. O(N*O*C*H2*W2*kh*kw), trusted slow path."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h2 = (h + 2 * padding - kh) // stride + 1
    w2 = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, h2, w2), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(h2):
                for xi in range(w2):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[ni, ci, yi * stride + ky, xi * stride + kx] * w[oi, ci, ky, kx]
                    out[ni, oi, yi, xi] = acc + (b[oi] if b is not None else 0.0)
    return out


def maxpool_ref(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    h2 = (h + 2 * padding - kernel) // stride + 1
    w2 = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, h2, w2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(h2):
                for xi in range(w2):
                    win = xp[ni, ci, yi * stride:yi * stride + kernel, xi * stride:xi * stride + kernel]
                    out[ni, ci, yi, xi] = win.max()
    return out


def avgpool_ref(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h2 = (h + 2 * padding - kernel) // stride + 1
    w2 = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, h2, w2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(h2):
                for xi in range(w2):
                    win = xp[ni, ci, yi * stride:yi * stride + kernel, xi * stride:xi * stride + kernel]
                    out[ni, ci, yi, xi] = win.sum() / (kernel * kernel)
    return out


def maxpool_grad_ref(x, g, kernel, stride, padding=0):
    """Max-pool input gradient by a loop over the windows in raster order:
    each window adds its output gradient at its first maximal entry."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    gxp = np.zeros(xp.shape, dtype=g.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    y0, x0 = yi * stride, xi * stride
                    win = xp[ni, ci, y0:y0 + kernel, x0:x0 + kernel]
                    ky, kx = divmod(int(np.argmax(win)), kernel)
                    gxp[ni, ci, y0 + ky, x0 + kx] += g[ni, ci, yi, xi]
    return gxp[:, :, padding:padding + h, padding:padding + w]


def avgpool_grad_ref(g, x_shape, kernel, stride, padding=0):
    """Average-pool input gradient by a loop over the windows in raster order:
    each window adds g/(kernel*kernel) to every entry it covers."""
    n, c, h, w = x_shape
    gd = g / (kernel * kernel)
    gxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    y0, x0 = yi * stride, xi * stride
                    gxp[ni, ci, y0:y0 + kernel, x0:x0 + kernel] += gd[ni, ci, yi, xi]
    return gxp[:, :, padding:padding + h, padding:padding + w]


def linear_ref(x, w, b):
    n, f = x.shape
    d = w.shape[0]
    out = np.zeros((n, d), dtype=x.dtype)
    for ni in range(n):
        for di in range(d):
            out[ni, di] = sum(x[ni, fi] * w[di, fi] for fi in range(f)) + b[di]
    return out


def _well_separated(rng, shape, scale=0.37):
    """Values with pairwise gaps >> the finite-difference step (no argmax flips)."""
    size = int(np.prod(shape))
    vals = rng.permutation(size).astype(np.float64) * scale
    return (vals - vals.mean()).reshape(shape)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_hand_frozen():
    # out[i,j] = x[i,j] - x[i+1,j+1] for this kernel; every entry is -4
    x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
    w = Tensor(np.array([[[[1.0, 0.0], [0.0, -1.0]]]]))
    out = conv2d(x, w)
    npt.assert_array_equal(out.data, np.full((1, 1, 2, 2), -4.0))


@pytest.mark.parametrize("stride,padding,kh", [(1, 0, 3), (2, 1, 3), (2, 3, 7), (1, 1, 1), (3, 0, 2)])
def test_conv2d_matches_reference(stride, padding, kh):
    rng = np.random.default_rng(11 * stride + padding + kh)
    x = rng.standard_normal((2, 3, 9, 8))
    w = rng.standard_normal((4, 3, kh, kh))
    b = rng.standard_normal(4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
    npt.assert_allclose(got.data, conv2d_ref(x, w, b, stride, padding).astype(np.float32),
                        rtol=1e-4, atol=1e-4)


@given(h=st.integers(3, 12), kh=st.integers(1, 3), stride=st.integers(1, 3),
       padding=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_conv2d_output_shape_formula(h, kh, stride, padding):
    x = Tensor(np.zeros((1, 2, h, h)))
    w = Tensor(np.zeros((3, 2, kh, kh)))
    expect = (h + 2 * padding - kh) // stride + 1
    if expect < 1:
        with pytest.raises(GeometryError):
            conv2d(x, w, stride=stride, padding=padding)
    else:
        assert conv2d(x, w, stride=stride, padding=padding).shape == (1, 3, expect, expect)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))))


def test_conv2d_kernel_larger_than_input():
    with pytest.raises(GeometryError):
        conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 5, 5))))


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
def test_conv2d_gradients(stride, padding):
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 2, 6, 5)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
    report = grad_check(lambda: conv2d(x, w, b, stride=stride, padding=padding).sum(),
                        {"x": x, "w": w, "b": b})
    assert report.passed, report.summary()


def conv2d_ref_grads(x, w, g, stride, padding):
    """Gradients of sum(g * conv2d_ref(x, w)). The conv is linear in each
    operand, so entry i of a gradient is the reference conv of a one-hot."""
    grads = []
    for arr, conv in ((x, lambda e: conv2d_ref(e, w, stride=stride, padding=padding)),
                      (w, lambda e: conv2d_ref(x, e, stride=stride, padding=padding))):
        grad = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            one_hot = np.zeros_like(arr)
            one_hot[idx] = 1.0
            grad[idx] = (g * conv(one_hot)).sum()
        grads.append(grad)
    return grads


# (x shape, weight shape, stride, padding): the 1x1 view path, 3x3 with fewer
# and with more output than input channels, stride 2 leaving the last input
# row and column outside every window, and padding > kernel-1, where the
# transposed conv crops the output gradient instead of padding it
CONV_GEOMETRIES = [
    ((2, 5, 4, 3), (3, 5, 1, 1), 1, 0),
    ((2, 4, 5, 4), (2, 4, 3, 3), 1, 1),
    ((1, 2, 4, 5), (5, 2, 3, 3), 1, 1),
    ((2, 3, 6, 6), (4, 3, 3, 3), 2, 0),
    ((1, 3, 4, 3), (2, 3, 2, 2), 1, 2),
    ((1, 2, 3, 4), (3, 2, 1, 1), 2, 2),
]


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_GEOMETRIES)
def test_conv2d_forward_and_gradients_match_reference(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(sum(x_shape) + 3 * sum(w_shape) + stride + padding)
    xd, wd = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    x = Tensor(xd, requires_grad=True, dtype=np.float64)
    w = Tensor(wd, requires_grad=True, dtype=np.float64)
    out = conv2d(x, w, stride=stride, padding=padding)
    npt.assert_allclose(out.data, conv2d_ref(xd, wd, stride=stride, padding=padding),
                        rtol=1e-12, atol=1e-12)
    g = rng.standard_normal(out.shape)
    (out * Tensor(g, dtype=np.float64)).sum().backward()
    gx_ref, gw_ref = conv2d_ref_grads(xd, wd, g, stride, padding)
    npt.assert_allclose(x.grad, gx_ref, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(w.grad, gw_ref, rtol=1e-12, atol=1e-12)
    if stride == 2 and padding == 0:
        npt.assert_array_equal(x.grad[:, :, -1], 0.0)   # the row no window covers
        npt.assert_array_equal(x.grad[:, :, :, -1], 0.0)


def test_conv2d_1x1_keeps_a_view_of_its_input_not_a_copy():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 6, 5, 4)), requires_grad=True)
    w = Tensor(np.ones((3, 6, 1, 1)), requires_grad=True)
    out = conv2d(x, w)
    retained = [cell.cell_contents for cell in out.node.backward_rule.__closure__
                if isinstance(cell.cell_contents, np.ndarray)
                and cell.cell_contents.size >= x.size]
    assert retained and all(np.shares_memory(a, x.data) for a in retained)
    # a padded 1x1 conv needs the zero border, so it retains a copy
    padded = conv2d(x, w, padding=1)
    assert not any(np.shares_memory(cell.cell_contents, x.data)
                   for cell in padded.node.backward_rule.__closure__
                   if isinstance(cell.cell_contents, np.ndarray))


# ---------------------------------------------------------------------------
# pooling


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (2, 1, 1), (3, 3, 0)])
def test_maxpool_matches_reference(kernel, stride, padding):
    rng = np.random.default_rng(kernel + stride)
    x = rng.standard_normal((2, 3, 7, 6))
    got = pool2d(Tensor(x), "max", kernel=kernel, stride=stride, padding=padding)
    npt.assert_allclose(got.data, maxpool_ref(x, kernel, stride, padding).astype(np.float32),
                        rtol=1e-6)


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (2, 1, 0)])
def test_avgpool_matches_reference(kernel, stride, padding):
    rng = np.random.default_rng(kernel * 5 + stride)
    x = rng.standard_normal((2, 2, 6, 6))
    got = pool2d(Tensor(x), "average", kernel=kernel, stride=stride, padding=padding)
    npt.assert_allclose(got.data, avgpool_ref(x, kernel, stride, padding).astype(np.float32),
                        rtol=1e-5, atol=1e-6)


def test_global_average_pool():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 5, 7))
    got = pool2d(Tensor(x), "global-average")
    assert got.shape == (2, 4, 1, 1)
    npt.assert_allclose(got.data, x.mean(axis=(2, 3), keepdims=True).astype(np.float32), rtol=1e-6)


def test_maxpool_tie_routes_to_first_occurrence():
    # both entries of the 1x2 window equal: gradient must land on the earlier one
    x = Tensor(np.array([[[[5.0, 5.0]]]]), requires_grad=True)
    out = pool2d(x, "max", kernel=1, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 2)
    x2 = Tensor(np.array([[[[5.0, 5.0], [1.0, 1.0]]]]), requires_grad=True)
    out2 = pool2d(x2, "max", kernel=2, stride=2)
    out2.sum().backward()
    npt.assert_array_equal(x2.grad, np.array([[[[1.0, 0.0], [0.0, 0.0]]]]))


def test_maxpool_overlapping_windows_accumulate():
    # stride 1 windows share the maximum; its grad is the number of windows
    x = Tensor(np.array([[[[0.0, 9.0, 0.0], [0.0, 0.0, 0.0]]]]), requires_grad=True)
    out = pool2d(x, "max", kernel=2, stride=1)
    assert out.shape == (1, 1, 1, 2)
    out.sum().backward()
    npt.assert_array_equal(x.grad, np.array([[[[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]]]))


@pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (2, 1, 1), (3, 1, 0), (2, 2, 0)])
def test_maxpool_gradient_matches_window_loop_bit_for_bit(kernel, stride, padding):
    # few distinct values: most windows hold ties, and overlapping windows
    # send several float32 gradients to one position, summed in window order
    rng = np.random.default_rng(kernel * 7 + stride + padding)
    x = (rng.integers(-2, 3, size=(2, 3, 9, 8)) * 0.75).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    out = pool2d(xt, "max", kernel=kernel, stride=stride, padding=padding)
    npt.assert_array_equal(out.data, maxpool_ref(x, kernel, stride, padding))
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    npt.assert_array_equal(xt.grad, maxpool_grad_ref(x, g, kernel, stride, padding))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_avgpool_gradient_matches_window_loop_bit_for_bit(stride, padding):
    # kernel 3 windows overlap at both strides, so up to nine float32 shares
    # meet at one position, summed in window raster order
    rng = np.random.default_rng(stride * 3 + padding)
    xt = Tensor(rng.standard_normal((2, 3, 9, 8)), requires_grad=True, dtype=np.float32)
    out = pool2d(xt, "average", kernel=3, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    npt.assert_array_equal(xt.grad, avgpool_grad_ref(g, xt.shape, 3, stride, padding))


def test_relu_and_max_pool_retain_no_mask_or_index():
    # both rules rebuild their mask or argmax from the input the node holds
    x = Tensor(np.random.default_rng(4).standard_normal((1, 2, 6, 6)), requires_grad=True,
               dtype=np.float32)
    for out in (relu(x), pool2d(x, "max", kernel=3, stride=2, padding=1)):
        kept = [cell.cell_contents for cell in out.node.backward_rule.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert kept and all(a.dtype == np.float32 for a in kept)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_max_pool_dominates_average_pool(seed):
    x = np.random.default_rng(seed).standard_normal((1, 2, 6, 6))
    mx = pool2d(Tensor(x), "max", kernel=2, stride=2)
    av = pool2d(Tensor(x), "average", kernel=2, stride=2)
    assert np.all(mx.data >= av.data - 1e-6)


def test_pool_geometry_errors():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(GeometryError):
        pool2d(x, "max", kernel=5, stride=1)
    with pytest.raises(GeometryError):
        pool2d(x, "max", kernel=2, stride=2, padding=2)
    with pytest.raises(ValueError):
        pool2d(x, "median", kernel=2, stride=2)


@pytest.mark.parametrize("mode,kernel,stride,padding", [
    ("max", 2, 2, 0), ("max", 3, 2, 1), ("average", 2, 2, 0),
    ("average", 3, 1, 1), ("global-average", 2, 2, 0),
])
def test_pool_gradients(mode, kernel, stride, padding):
    rng = np.random.default_rng(17)
    x = Tensor(_well_separated(rng, (2, 2, 6, 6)), requires_grad=True, dtype=np.float64)
    report = grad_check(
        lambda: pool2d(x, mode, kernel=kernel, stride=stride, padding=padding).sum(), {"x": x})
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# relu / sigmoid


def test_relu_forward_and_zero_subgradient():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    out = relu(x)
    npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    out.sum().backward()
    npt.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_sigmoid_extreme_inputs_no_overflow():
    with np.errstate(over="raise", invalid="raise"):
        vals = stable_sigmoid(np.array([-100.0, 0.0, 100.0]))
    npt.assert_allclose(vals[0], 3.7200759760208356e-44, rtol=1e-12)
    assert vals[1] == 0.5
    assert vals[2] == 1.0  # 1 - 3.72e-44 rounds to 1.0 in float64
    assert 0.0 < vals[0]


def test_sigmoid_gradient():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal(20) * 3, requires_grad=True, dtype=np.float64)
    report = grad_check(lambda: sigmoid(x).sum(), {"x": x})
    assert report.passed, report.summary()


def test_relu_gradient():
    rng = np.random.default_rng(6)
    vals = (rng.uniform(0.1, 1.0, 30) * rng.choice([-1.0, 1.0], 30))
    x = Tensor(vals, requires_grad=True, dtype=np.float64)
    report = grad_check(lambda: (relu(x) * relu(x)).sum(), {"x": x})
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# linear / elementwise / reductions


def test_linear_matches_reference():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 7))
    w = rng.standard_normal((3, 7))
    b = rng.standard_normal(3)
    got = linear(Tensor(x), Tensor(w), Tensor(b))
    npt.assert_allclose(got.data, linear_ref(x, w, b).astype(np.float32), rtol=1e-5)


def test_linear_gradients():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((2, 5)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(2), requires_grad=True, dtype=np.float64)
    report = grad_check(lambda: (linear(x, w, b) * linear(x, w, b)).sum(), {"x": x, "w": w, "b": b})
    assert report.passed, report.summary()


def test_conv2d_and_linear_without_bias_record_a_none_entry():
    rng = np.random.default_rng(11)
    x4 = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
    w4 = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    x2 = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    for out, (x, w) in ((conv2d(x4, w4), (x4, w4)), (linear(x2, w2), (x2, w2))):
        assert out.node.inputs == (x, w, None)
        grads = out.node.backward_rule(np.ones(out.shape, dtype=np.float32))
        assert len(grads) == 3 and grads[2] is None
        out.sum().backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_record_skips_a_none_input():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    assert T.record((None,), np.zeros(2), lambda g: (None,)).node is None
    out = T.record((None, x), x.data * 2.0, lambda g: (None, g * 2.0))
    out.sum().backward()
    npt.assert_array_equal(x.grad, [2.0, 2.0])


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 4))))


def test_elementwise_requires_same_shape():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a * b
    with pytest.raises(ShapeError):
        a - b


def test_elementwise_rejects_mixed_dtype():
    a = Tensor(np.zeros(3), dtype=np.float32)
    b = Tensor(np.zeros(3), dtype=np.float64)
    with pytest.raises(ShapeError):
        a + b


def test_arithmetic_and_sum_gradients():
    rng = np.random.default_rng(12)
    a = Tensor(rng.standard_normal(8), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(8), requires_grad=True, dtype=np.float64)
    report = grad_check(lambda: ((a * b + a - b) * 0.5).sum(), {"a": a, "b": b})
    assert report.passed, report.summary()


@pytest.mark.parametrize("op, d_dx", [
    (lambda t, c: t * c, lambda c: c),
    (lambda t, c: c * t, lambda c: c),
    (lambda t, c: t + c, lambda c: 1),
    (lambda t, c: c + t, lambda c: 1),
    (lambda t, c: t - c, lambda c: 1),
], ids=["mul", "rmul", "add", "radd", "sub"])
def test_scalar_operand_keeps_the_bits_of_numpy_scalar_arithmetic(op, d_dx):
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal(16), requires_grad=True, dtype=np.float32)
    c = 0.1  # not exact in float32
    out = op(x, c)
    npt.assert_array_equal(out.data, op(x.data, np.float32(c)))
    assert not any(t.requires_grad for t in out.node.inputs if t is not x)
    g = rng.standard_normal(16).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    npt.assert_array_equal(x.grad, g * d_dx(np.float32(c)))


def test_reshape_gradient_round_trips():
    x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
    y = x.reshape(2, 3)
    (y * y).sum().backward()
    npt.assert_allclose(x.grad, 2 * np.arange(6, dtype=np.float64))


# ---------------------------------------------------------------------------
# concat


def test_concat_channels_order_and_grads():
    a = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
    b = Tensor(np.full((1, 3, 2, 2), 2.0), requires_grad=True)
    out = concat_channels([a, b])
    assert out.shape == (1, 5, 2, 2)
    npt.assert_array_equal(out.data[:, :2], a.data)
    npt.assert_array_equal(out.data[:, 2:], b.data)
    (out * out).sum().backward()
    npt.assert_array_equal(a.grad, np.full((1, 2, 2, 2), 2.0))
    npt.assert_array_equal(b.grad, np.full((1, 3, 2, 2), 4.0))


def test_concat_rejects_spatial_mismatch():
    with pytest.raises(ShapeError):
        concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))])
    with pytest.raises(ShapeError):
        concat_channels([])
    with pytest.raises(ShapeError):
        concat_channels([Tensor(np.zeros((2, 3)))])


# ---------------------------------------------------------------------------
# batchnorm2d


def test_batchnorm_training_normalizes_batch():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 7 + 3)
    c = 3
    gamma = Tensor(np.ones(c))
    beta = Tensor(np.zeros(c))
    rm, rv = Tensor(np.zeros(c)), Tensor(np.ones(c))
    out = batchnorm2d(x, gamma, beta, rm, rv, training=True)
    npt.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    npt.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batchnorm_running_stats_frozen_update():
    # batch [1,2,3,4]: mean 2.5, biased var 1.25, unbiased 1.25*4/3
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1, 1), dtype=np.float64)
    gamma, beta = Tensor(np.ones(1), dtype=np.float64), Tensor(np.zeros(1), dtype=np.float64)
    rm, rv = Tensor(np.zeros(1), dtype=np.float64), Tensor(np.ones(1), dtype=np.float64)
    batchnorm2d(x, gamma, beta, rm, rv, momentum=0.1, training=True)
    npt.assert_allclose(rm.data, [0.25], rtol=1e-12)
    npt.assert_allclose(rv.data, [0.9 + 0.1 * (1.25 * 4 / 3)], rtol=1e-12)


def test_batchnorm_eval_uses_running_stats_only():
    x = Tensor(np.array([10.0, 20.0]).reshape(2, 1, 1, 1))
    gamma, beta = Tensor(np.full(1, 2.0)), Tensor(np.full(1, 1.0))
    rm, rv = Tensor(np.full(1, 10.0)), Tensor(np.full(1, 4.0))
    out = batchnorm2d(x, gamma, beta, rm, rv, eps=0.0, training=False)
    # (x - 10)/2 * 2 + 1
    npt.assert_allclose(out.data.ravel(), [1.0, 11.0], rtol=1e-6)
    npt.assert_array_equal(rm.data, [10.0])  # eval never touches the buffers
    npt.assert_array_equal(rv.data, [4.0])


def test_batchnorm_degenerate_batch_raises():
    x = Tensor(np.zeros((1, 2, 1, 1)))
    args = [Tensor(np.ones(2)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), Tensor(np.ones(2))]
    with pytest.raises(DegenerateStatsError):
        batchnorm2d(x, *args, training=True)
    # the same shape is fine in eval mode
    batchnorm2d(x, *args, training=False)


def batchnorm_train_ref(x, gamma, beta, g, eps):
    """Train-mode batch norm and its gradients in float64, from the textbook
    chain rule through mean and variance (Ioffe & Szegedy 2015, Alg. 1)."""
    x, gamma, beta, g = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, g))
    axes, c = (0, 2, 3), (None, slice(None), None, None)
    m = x.size // x.shape[1]
    mu = x.mean(axis=axes)
    diff = x - mu[c]
    var = (diff ** 2).sum(axis=axes) / m
    std = np.sqrt(var + eps)
    xhat = diff / std[c]
    out = gamma[c] * xhat + beta[c]
    dxhat = g * gamma[c]
    dvar = (dxhat * diff).sum(axis=axes) * -0.5 * std ** -3
    dmu = -(dxhat / std[c]).sum(axis=axes) + dvar * (-2.0 * diff).sum(axis=axes) / m
    dx = dxhat / std[c] + dvar[c] * 2.0 * diff / m + dmu[c] / m
    return out, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes), mu, var * m / (m - 1)


@pytest.mark.parametrize("shape", [(2, 3, 1, 1), (2, 4, 3, 3), (3, 2, 3, 3)])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 2e-4)])
def test_batchnorm_training_matches_textbook_formula(shape, dtype, tol):
    rng = np.random.default_rng(shape[0] * 10 + shape[2])
    c = shape[1]
    xd = rng.standard_normal(shape) * 3 + 1.5
    gd, gammad, betad = rng.standard_normal(shape), rng.uniform(0.5, 2, c), rng.standard_normal(c)
    x = Tensor(xd, requires_grad=True, dtype=dtype)
    gamma = Tensor(gammad, requires_grad=True, dtype=dtype)
    beta = Tensor(betad, requires_grad=True, dtype=dtype)
    rm, rv = Tensor(np.zeros(c), dtype=dtype), Tensor(np.ones(c), dtype=dtype)
    out = batchnorm2d(x, gamma, beta, rm, rv, momentum=0.25, training=True)
    (out * Tensor(gd, dtype=dtype)).sum().backward()
    want, dx, dgamma, dbeta, mu, var_unbiased = batchnorm_train_ref(
        x.data, gamma.data, beta.data, gd.astype(dtype), 1e-5)
    for got, ref in ((out.data, want), (x.grad, dx), (gamma.grad, dgamma), (beta.grad, dbeta),
                     (rm.data, 0.25 * mu), (rv.data, 0.75 + 0.25 * var_unbiased)):
        # at 1x1 with N=2, x-hat is +-1 and dx cancels to ~eps-sized values, so
        # the absolute tolerance is scaled by the O(1) terms, not by dx itself
        assert got.dtype == dtype
        npt.assert_allclose(got, ref, rtol=tol, atol=tol * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("shape", [(1, 3, 1, 1), (2, 4, 3, 3), (3, 2, 5, 4)])
def test_batchnorm_eval_matches_textbook_formula(shape):
    # float32 affine map x*s + t against (x - mean)/sqrt(var + eps)*gamma + beta
    # in float64, and the eval gradients against their float64 closed forms
    rng = np.random.default_rng(shape[0] * 10 + shape[2])
    c, axes, col = shape[1], (0, 2, 3), (None, slice(None), None, None)
    xd, gd = rng.standard_normal(shape) * 3 + 1.5, rng.standard_normal(shape)
    gammad, betad = rng.uniform(0.5, 2, c), rng.standard_normal(c)
    rmd, rvd = rng.standard_normal(c), rng.uniform(0.2, 3.0, c)
    f32 = np.float32
    x = Tensor(xd, requires_grad=True, dtype=f32)
    gamma, beta = Tensor(gammad, requires_grad=True, dtype=f32), Tensor(betad, requires_grad=True, dtype=f32)
    rm, rv = Tensor(rmd, dtype=f32), Tensor(rvd, dtype=f32)
    out = batchnorm2d(x, gamma, beta, rm, rv, training=False)
    (out * Tensor(gd, dtype=f32)).sum().backward()
    x64, gamma64, beta64, rm64, rv64, g64 = (a.astype(np.float32).astype(np.float64)
                                              for a in (xd, gammad, betad, rmd, rvd, gd))
    inv = 1.0 / np.sqrt(rv64 + 1e-5)
    xhat = (x64 - rm64[col]) * inv[col]
    refs = ((out.data, xhat * gamma64[col] + beta64[col]), (x.grad, g64 * (gamma64 * inv)[col]),
            (gamma.grad, (g64 * xhat).sum(axis=axes)), (beta.grad, g64.sum(axis=axes)))
    for got, ref in refs:
        assert got.dtype == np.float32
        npt.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(ref).max()))
    npt.assert_array_equal(rm.data, rmd.astype(np.float32))   # eval never touches the buffers
    npt.assert_array_equal(rv.data, rvd.astype(np.float32))


def test_batchnorm_eval_gradient_ignores_a_later_buffer_update():
    # an eval-mode output whose gradient is taken only after a training-mode
    # call on the same layer has moved the running buffers: the gradient
    # must use the buffers as they were at its forward pass
    rng = np.random.default_rng(8)
    c = 3
    xd = rng.standard_normal((2, c, 4, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True, dtype=np.float64)
    beta = Tensor(rng.standard_normal(c), requires_grad=True, dtype=np.float64)
    rm = Tensor(rng.standard_normal(c), dtype=np.float64)
    rv = Tensor(rng.uniform(0.5, 2.0, c), dtype=np.float64)
    r = Tensor(rng.standard_normal(xd.shape), dtype=np.float64)

    def grads(update_between):
        x = Tensor(xd, requires_grad=True, dtype=np.float64)
        rm_t, rv_t = Tensor(rm.data.copy()), Tensor(rv.data.copy())
        loss = (batchnorm2d(x, gamma, beta, rm_t, rv_t, training=False) * r).sum()
        if update_between:
            with no_grad():
                batchnorm2d(Tensor(rng.standard_normal(xd.shape) * 5 + 3), gamma, beta,
                            rm_t, rv_t, momentum=1.0, training=True)
            assert not np.allclose(rm_t.data, rm.data)
        gamma.zero_grad(), beta.zero_grad()
        loss.backward()
        return x.grad, gamma.grad, beta.grad

    for got, want in zip(grads(True), grads(False)):
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gradients(training):
    rng = np.random.default_rng(21)
    c = 3
    x = Tensor(rng.standard_normal((4, c, 3, 3)), requires_grad=True, dtype=np.float64)
    gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True, dtype=np.float64)
    beta = Tensor(rng.standard_normal(c), requires_grad=True, dtype=np.float64)
    rm = Tensor(rng.standard_normal(c), dtype=np.float64)
    rv = Tensor(rng.uniform(0.5, 2.0, c), dtype=np.float64)
    # a fixed random weighting keeps dL/dx entries O(1); the raw quadratic
    # cancels to ~1e-6 gradients that central differences cannot resolve
    r = Tensor(rng.standard_normal((4, c, 3, 3)), dtype=np.float64)
    report = grad_check(
        lambda: ((batchnorm2d(x, gamma, beta, rm, rv, training=training) * r)
                 * batchnorm2d(x, gamma, beta, rm, rv, training=training)).sum(),
        {"x": x, "gamma": gamma, "beta": beta})
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# graph semantics


def _log_replays(nodes, log):
    """Wrap each node's backward rule so that calling it appends the node to log."""
    for node in nodes:
        def logged(g, node=node, rule=node.backward_rule):
            log.append(node)
            return rule(g)
        node.backward_rule = logged


def test_backward_replays_in_recording_order_inputs_first():
    x = Tensor(np.ones(3), requires_grad=True)
    y = relu(x)
    yy = y * y
    z = yy.sum()
    replayed = []
    _log_replays([y.node, yy.node, z.node], replayed)
    backward(z)
    assert replayed == [z.node, yy.node, y.node]
    # every consumer runs before the node producing its input
    pos = {node: i for i, node in enumerate(replayed)}
    for node in replayed:
        for inp in node.inputs:
            if inp.node is not None:
                assert pos[node] < pos[inp.node]


def test_backward_never_visits_a_graph_the_loss_cannot_reach():
    x = Tensor(np.ones(2), requires_grad=True)
    unrelated = relu(x * 3.0)
    loss = (x * 2.0).sum()

    def must_not_run(g):
        raise AssertionError("replayed a node the loss does not depend on")

    unrelated.node.backward_rule = must_not_run
    unrelated.node.inputs[0].node.backward_rule = must_not_run
    backward(loss)
    npt.assert_array_equal(x.grad, [2.0, 2.0])


def test_graph_is_dropped_with_the_loss():
    # no cycle holds the graph: reference counting alone frees the
    # activations, without the cyclic collector's help
    x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    hidden = relu(x * 2.0)
    loss = hidden.sum()
    held = weakref.ref(hidden.data)
    del hidden
    gc.disable()
    try:
        assert held() is not None      # the loss keeps its graph alive
        backward(loss)
        assert held() is not None      # ...also after backward
        del loss
        assert held() is None
    finally:
        gc.enable()


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        y = relu(x)
        z = y * 2.0
    assert y.node is None and not y.requires_grad
    assert z.node is None and not z.requires_grad
    with pytest.raises(NoGraphError):
        backward(z.sum())


def test_backward_without_graph_raises():
    with pytest.raises(NoGraphError):
        backward(Tensor(np.array(1.0), requires_grad=True))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = relu(x)
    with pytest.raises(ValueError):
        backward(y)


def test_gradients_accumulate_until_zeroed():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = (x * x).sum()
    backward(y)
    npt.assert_allclose(x.grad, [4.0])
    backward(y)
    npt.assert_allclose(x.grad, [8.0])
    x.zero_grad()
    assert x.grad is None


def test_diamond_graph_sums_both_paths():
    # z = x*x + x*x: both branches contribute 2x each
    x = Tensor(np.array([3.0]), requires_grad=True)
    a = x * x
    b = x * x
    (a + b).sum().backward()
    npt.assert_allclose(x.grad, [12.0])


def test_contributions_sum_newest_consumer_first():
    # y feeds three consumers; its gradient is (k3 + k2) + k1 in float32, in
    # descending consumer seq, before relu passes it to x
    rng = np.random.default_rng(14)
    x = Tensor(rng.uniform(1.0, 2.0, 256), requires_grad=True, dtype=np.float32)
    ks = [Tensor(rng.standard_normal(256), dtype=np.float32) for _ in range(3)]
    y = relu(x)
    a, b, c = (y * k for k in ks)
    ((a + b) + c).sum().backward()
    k1, k2, k3 = (k.data for k in ks)
    npt.assert_array_equal(x.grad, (k3 + k2) + k1)
    assert np.any((k3 + k2) + k1 != (k1 + k2) + k3)


def test_backward_skips_a_node_no_gradient_reaches():
    x = Tensor(np.ones(2), requires_grad=True)
    hidden = relu(x)

    def must_not_run(g):
        raise AssertionError("replayed a node no gradient reached")

    hidden.node.backward_rule = must_not_run
    out = T.record((hidden, x), hidden.data + x.data, lambda g: (None, g))
    out.sum().backward()
    npt.assert_array_equal(x.grad, [1.0, 1.0])


def test_non_requires_grad_leaf_never_gets_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    k = Tensor(np.array([3.0, 4.0]))
    (x * k).sum().backward()
    assert k.grad is None
    npt.assert_allclose(x.grad, [3.0, 4.0])


def test_default_dtype_and_override():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor([1.0], dtype=np.float64).dtype == np.float64
    assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.zeros(2)).data.flags["C_CONTIGUOUS"]


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(2), requires_grad=True, dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: (x * x).sum(), {"x": x})


def test_grad_check_flags_wrong_gradient():
    # a deliberately wrong backward rule must be caught
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)

    def bad_square():
        out = x.data * x.data
        return T.record((x,), out, lambda g: (g * 3.0 * x.data,)).sum()  # claims d/dx = 3x

    report = grad_check(bad_square, {"x": x})
    assert not report.passed
    assert report.failures()

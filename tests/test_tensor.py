"""Tensor core tests.

Layout: the forward oracles are the brute-force loops of tests/oracles.py;
the gradient oracles (loops over the windows) come first here. The
vectorised operators are compared against them over a grid of geometries. Backward rules are
verified twice — against hand-frozen values on tiny cases, and against
central finite differences through the grad_check harness.
"""

import ast
import collections
import gc
import inspect
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densect import tensor as T
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
    stable_sigmoid,
)
from gradcheck import grad_check
from oracles import avgpool_ref, conv2d_ref, maxpool_ref
from projection import project


# ---------------------------------------------------------------------------
# gradient oracles


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
    got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
    npt.assert_allclose(got.data, conv2d_ref(x, w, stride, padding).astype(np.float32),
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
    for kernel in ((0, 0), (0, 3), (3, 0)):
        with pytest.raises(GeometryError, match="conv2d: kernel"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1) + kernel)))


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
def test_conv2d_gradients(stride, padding):
    # a strided conv differentiates only its weight
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 2, 6, 5)), requires_grad=stride == 1)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    inputs = {"x": x, "w": w} if stride == 1 else {"w": w}
    report = grad_check(lambda: project(conv2d(x, w, stride=stride, padding=padding), 1.0),
                        inputs)
    assert report.passed, report.summary()


def conv2d_ref_grad(arr, conv, g):
    """Gradient of sum(g * conv(arr)) for a conv linear in arr: entry i is the
    reference conv of a one-hot."""
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        one_hot = np.zeros_like(arr)
        one_hot[idx] = 1.0
        grad[idx] = (g * conv(one_hot)).sum()
    return grad


def check_conv2d_against_reference(x_shape, w_shape, stride, padding):
    """Forward and weight gradient of a float64 conv2d against the oracles at
    1e-12, and the input gradient too at stride 1 (a strided conv
    differentiates only its weight)."""
    rng = np.random.default_rng(sum(x_shape) + 3 * sum(w_shape) + stride + padding)
    xd, wd = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    x = Tensor(xd, requires_grad=stride == 1)
    w = Tensor(wd, requires_grad=True)
    out = conv2d(x, w, stride=stride, padding=padding)
    npt.assert_allclose(out.data, conv2d_ref(xd, wd, stride=stride, padding=padding),
                        rtol=1e-12, atol=1e-12)
    g = rng.standard_normal(out.shape)
    backward(project(out, g))
    gw_ref = conv2d_ref_grad(wd, lambda e: conv2d_ref(xd, e, stride=stride, padding=padding), g)
    npt.assert_allclose(w.grad, gw_ref, rtol=1e-12, atol=1e-12)
    if stride == 1:
        gx_ref = conv2d_ref_grad(xd, lambda e: conv2d_ref(e, wd, stride=stride, padding=padding), g)
        npt.assert_allclose(x.grad, gx_ref, rtol=1e-12, atol=1e-12)


# (x shape, weight shape, stride, padding): the 1x1 view path, 3x3 with fewer
# and with more output than input channels, stride 2 leaving the last input
# row and column outside every window, and padding > kernel-1, at stride 1
# and in a strided 1x1 whose border windows read only padding. Then the
# stride-1 tap layout's edges: W = 1 and H = 1, a kernel as wide as the padded
# input (one output column, no wrap-around columns), padding > kernel-1 with
# 3x3, a non-square 2x3 kernel with padding, and a padded 1x1. Last, the
# model's stem: 1 channel, 7x7, stride 2, padding 3
CONV_GEOMETRIES = [
    ((2, 5, 4, 3), (3, 5, 1, 1), 1, 0),
    ((2, 4, 5, 4), (2, 4, 3, 3), 1, 1),
    ((1, 2, 4, 5), (5, 2, 3, 3), 1, 1),
    ((2, 3, 6, 6), (4, 3, 3, 3), 2, 0),
    ((1, 3, 4, 3), (2, 3, 2, 2), 1, 2),
    ((1, 2, 3, 4), (3, 2, 1, 1), 2, 2),
    ((2, 3, 4, 1), (2, 3, 3, 3), 1, 1),
    ((2, 2, 1, 5), (3, 2, 3, 3), 1, 1),
    ((1, 2, 4, 3), (3, 2, 5, 5), 1, 1),
    ((1, 2, 3, 4), (2, 2, 3, 3), 1, 3),
    ((2, 3, 4, 5), (2, 3, 2, 3), 1, 1),
    ((2, 3, 3, 4), (2, 3, 1, 1), 1, 1),
    ((1, 1, 12, 10), (4, 1, 7, 7), 2, 3),
]


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_GEOMETRIES)
def test_conv2d_forward_and_gradients_match_reference(x_shape, w_shape, stride, padding):
    check_conv2d_against_reference(x_shape, w_shape, stride, padding)


@given(n=st.integers(1, 2), c=st.integers(1, 2), o=st.integers(1, 2),
       h=st.integers(1, 6), w=st.integers(1, 6), kh=st.integers(1, 4), kw=st.integers(1, 4),
       stride=st.integers(1, 3), padding=st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_conv2d_property_matches_reference(n, c, o, h, w, kh, kw, stride, padding):
    assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
    check_conv2d_against_reference((n, c, h, w), (o, c, kh, kw), stride, padding)


def test_conv2d_3x3_keeps_no_array_larger_than_its_input():
    # the flat padded rows and the tap-stacked weight are laid out again in
    # backward, not kept: every kept array is x's or the weight's
    n, c, h, w, padding = 2, 4, 5, 6, 1
    x = Tensor(np.random.default_rng(1).standard_normal((n, c, h, w)), requires_grad=True)
    wt = Tensor(np.ones((3, c, 3, 3)), requires_grad=True)
    out = conv2d(x, wt, padding=padding)
    kept = []
    for cell in out.node.backward_rule.__closure__:
        value = cell.cell_contents
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(item, Tensor):
                kept.append(item.data)
            elif isinstance(item, np.ndarray):
                kept.append(item)
    assert kept and max(a.size for a in kept) <= x.size
    assert all(np.shares_memory(a, x.data) or np.shares_memory(a, wt.data) for a in kept)


def test_conv2d_1x1_keeps_a_view_of_its_input_not_a_copy():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 6, 5, 4)), requires_grad=True)
    w = Tensor(np.ones((3, 6, 1, 1)), requires_grad=True)
    out = conv2d(x, w)
    retained = [cell.cell_contents for cell in out.node.backward_rule.__closure__
                if isinstance(cell.cell_contents, np.ndarray)
                and cell.cell_contents.size >= x.size]
    assert retained and all(np.shares_memory(a, x.data) for a in retained)
    # a padded 1x1 conv pads again in backward: it too keeps a view of x
    # and no padded copy
    padded = conv2d(x, w, padding=1)
    retained = [cell.cell_contents for cell in padded.node.backward_rule.__closure__
                if isinstance(cell.cell_contents, np.ndarray)
                and cell.cell_contents.size >= x.size]
    assert retained and all(np.shares_memory(a, x.data) and a.size == x.size for a in retained)


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
    backward(project(out2, 1.0))
    npt.assert_array_equal(x2.grad, np.array([[[[1.0, 0.0], [0.0, 0.0]]]]))


def test_maxpool_overlapping_windows_accumulate():
    # stride 1 windows share the maximum; its grad is the number of windows
    x = Tensor(np.array([[[[0.0, 9.0, 0.0], [0.0, 0.0, 0.0]]]]), requires_grad=True)
    out = pool2d(x, "max", kernel=2, stride=1)
    assert out.shape == (1, 1, 1, 2)
    backward(project(out, 1.0))
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
    backward(project(out, g))
    npt.assert_array_equal(xt.grad, maxpool_grad_ref(x, g, kernel, stride, padding))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_avgpool_gradient_matches_window_loop_bit_for_bit(stride, padding):
    # kernel 3 windows overlap at both strides, so up to nine float32 shares
    # meet at one position, summed in window raster order
    rng = np.random.default_rng(stride * 3 + padding)
    xt = Tensor(rng.standard_normal((2, 3, 9, 8)).astype(np.float32), requires_grad=True)
    out = pool2d(xt, "average", kernel=3, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    backward(project(out, g))
    npt.assert_array_equal(xt.grad, avgpool_grad_ref(g, xt.shape, 3, stride, padding))


@given(data=st.data(), kernel=st.integers(1, 4), stride=st.integers(1, 3),
       dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=80, deadline=None)
def test_pool_gradients_match_window_loops_bit_for_bit(data, kernel, stride, dtype):
    # inputs from five values, signed zeros among them, so most windows hold
    # ties; overlapping windows (stride < kernel) send several gradients to
    # one position, summed in window raster order
    padding = data.draw(st.integers(0, kernel // 2), label="padding")
    h = data.draw(st.integers(max(1, kernel - 2 * padding), kernel + 6), label="h")
    w = data.draw(st.integers(max(1, kernel - 2 * padding), kernel + 6), label="w")
    n, c = data.draw(st.integers(1, 2), label="n"), data.draw(st.integers(1, 3), label="c")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.0], dtype=dtype), size=(n, c, h, w))
    uint = np.uint32 if dtype == np.float32 else np.uint64
    for mode in ("max", "average"):
        xt = Tensor(x, requires_grad=True)
        out = pool2d(xt, mode, kernel=kernel, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        backward(project(out, g))
        if mode == "max":
            npt.assert_array_equal(out.data, maxpool_ref(x, kernel, stride, padding))
            want = maxpool_grad_ref(x, g, kernel, stride, padding)
        else:
            want = avgpool_grad_ref(g, x.shape, kernel, stride, padding)
        assert xt.grad.dtype == dtype
        npt.assert_array_equal(xt.grad, want)
        npt.assert_array_equal(xt.grad.view(uint), np.ascontiguousarray(want).view(uint))


def test_relu_and_max_pool_retain_no_mask_or_index():
    # relu rebuilds its mask from its output, max pool its argmax from the
    # input and the output
    x = Tensor(np.random.default_rng(4).standard_normal((1, 2, 6, 6)).astype(np.float32),
               requires_grad=True)
    for out in (relu(x), pool2d(x, "max", kernel=3, stride=2, padding=1)):
        kept = [cell.cell_contents for cell in out.node.backward_rule.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert kept and all(a.dtype == np.float32 for a in kept)


def test_max_pool_keeps_no_padded_copy_of_its_input():
    # the rule finds the argmax again from the input and the output; the
    # -inf padded copy the forward pools over is not kept
    x = Tensor(np.random.default_rng(4).standard_normal((1, 2, 6, 6)).astype(np.float32),
               requires_grad=True)
    out = pool2d(x, "max", kernel=3, stride=2, padding=1)
    cells = [cell.cell_contents for cell in out.node.backward_rule.__closure__]
    kept = [v.data if isinstance(v, Tensor) else v for v in cells
            if isinstance(v, (Tensor, np.ndarray))]
    assert kept and all(a is out.data or np.shares_memory(a, x.data) for a in kept)


@pytest.mark.parametrize("mode", ["average", "global-average"])
def test_average_pools_keep_only_shapes(mode):
    x = Tensor(np.random.default_rng(4).standard_normal((1, 2, 6, 6)), requires_grad=True)
    out = pool2d(x, mode)
    assert not any(isinstance(cell.cell_contents, (Tensor, np.ndarray))
                   for cell in out.node.backward_rule.__closure__)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_retains_no_array_but_a_view_of_its_input(training):
    # both modes rebuild x-hat in backward from the input the rule holds;
    # reading an unassigned cell raises ValueError
    x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 4, 4)).astype(np.float32),
               requires_grad=True)
    params = [Tensor(np.full(3, v, dtype=np.float32), requires_grad=grad)
              for v, grad in ((1.5, True), (0.2, True), (0.1, False), (2.0, False))]
    out = batchnorm2d(x, *params, training=training)
    cells = [cell.cell_contents for cell in out.node.backward_rule.__closure__]
    arrays = [v.data if isinstance(v, Tensor) else v for v in cells
              if isinstance(v, (Tensor, np.ndarray))]
    large = [a for a in arrays if a.size >= x.size]
    assert large and all(np.shares_memory(a, x.data) for a in large)


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
    with pytest.raises(GeometryError, match="pool2d: kernel"):
        pool2d(x, "max", kernel=0)
    with pytest.raises(ValueError, match="pool2d: padding"):
        pool2d(x, "max", kernel=2, padding=-1)
    with pytest.raises(ValueError, match="pool2d: padding"):
        pool2d(x, "average", kernel=3, stride=1, padding=-1)


@pytest.mark.parametrize("mode,kernel,stride,padding", [
    ("max", 2, 2, 0), ("max", 3, 2, 1), ("average", 2, 2, 0),
    ("average", 3, 1, 1), ("global-average", 2, 2, 0),
])
def test_pool_gradients(mode, kernel, stride, padding):
    rng = np.random.default_rng(17)
    x = Tensor(_well_separated(rng, (2, 2, 6, 6)), requires_grad=True)
    report = grad_check(
        lambda: project(pool2d(x, mode, kernel=kernel, stride=stride, padding=padding), 1.0),
        {"x": x})
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# relu / sigmoid


def test_relu_forward_and_zero_subgradient():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    out = relu(x)
    npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    backward(project(out, 1.0))
    npt.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_relu_gradient_has_the_bits_of_g_times_the_positive_mask():
    # the gradient is g where x > 0 and a zero with g's sign elsewhere, also
    # at +-0, denormals and +-inf
    tiny = np.finfo(np.float32).smallest_subnormal
    xd = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.inf, -np.inf, 1.5, -2.5, 7.0],
                  dtype=np.float32)
    g = np.array([-1.25, 2.0, -3.0, -4.0, tiny, -0.5, -6.0, -0.0, -7.0, -tiny],
                 dtype=np.float32)
    x = Tensor(xd, requires_grad=True)
    backward(project(relu(x), g))
    npt.assert_array_equal(x.grad.view(np.uint32), (g * (xd > 0)).view(np.uint32))
    assert np.signbit(x.grad[[0, 3, 6, 7, 8]]).all()   # -0.0 where x <= 0 < -g, and g's own -0.0


def test_sigmoid_extreme_inputs_no_overflow():
    with np.errstate(over="raise", invalid="raise"):
        vals = stable_sigmoid(np.array([-100.0, 0.0, 100.0]))
    npt.assert_allclose(vals[0], 3.7200759760208356e-44, rtol=1e-12)
    assert vals[1] == 0.5
    assert vals[2] == 1.0  # 1 - 3.72e-44 rounds to 1.0 in float64
    assert 0.0 < vals[0]


def test_relu_gradient():
    rng = np.random.default_rng(6)
    vals = (rng.uniform(0.1, 1.0, 30) * rng.choice([-1.0, 1.0], 30))
    x = Tensor(vals, requires_grad=True)
    r = rng.standard_normal(30)
    report = grad_check(lambda: project(relu(x), r), {"x": x})
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# linear / reshape


def test_linear_matches_reference():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 7))
    w = rng.standard_normal((3, 7))
    b = rng.standard_normal(3)
    got = linear(Tensor(x), Tensor(w), Tensor(b))
    npt.assert_allclose(got.data, linear_ref(x, w, b).astype(np.float32), rtol=1e-5)


def test_linear_gradients():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    r = rng.standard_normal((3, 2))
    report = grad_check(lambda: project(linear(x, w, b), r), {"x": x, "w": w, "b": b})
    assert report.passed, report.summary()


def test_linear_shape_error():
    with pytest.raises(ShapeError, match="features"):
        linear(Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="bias"):
        linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))


def test_reshape_gradient_round_trips():
    x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
    y = x.reshape(2, 3)
    assert y.shape == (2, 3)
    backward(project(y, 2 * y.data))
    npt.assert_array_equal(x.grad, 2 * np.arange(6, dtype=np.float64))


# ---------------------------------------------------------------------------
# concat


def test_concat_channels_order_and_grads():
    a = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
    b = Tensor(np.full((1, 3, 2, 2), 2.0), requires_grad=True)
    out = concat_channels([a, b], out=np.empty((1, 5, 2, 2)))
    assert out.shape == (1, 5, 2, 2)
    npt.assert_array_equal(out.data[:, :2], a.data)
    npt.assert_array_equal(out.data[:, 2:], b.data)
    r = np.arange(20, dtype=np.float32).reshape(1, 5, 2, 2)
    backward(project(out, r))
    npt.assert_array_equal(a.grad, r[:, :2])
    npt.assert_array_equal(b.grad, r[:, 2:])


def test_concat_rejects_spatial_mismatch():
    # the inputs are checked before out
    out = np.zeros((1, 2, 2, 2))
    with pytest.raises(ShapeError, match="batch/spatial mismatch"):
        concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))], out=out)
    with pytest.raises(ShapeError, match="empty input list"):
        concat_channels([], out=out)
    with pytest.raises(ShapeError, match="all inputs must be 4-D"):
        concat_channels([Tensor(np.zeros((2, 3)))], out=out)


class _RecordsWrites(np.ndarray):
    # an array whose views log the channel width of every write through them
    writes: list = []

    def __setitem__(self, key, value):
        _RecordsWrites.writes.append(self.shape[1])
        super().__setitem__(key, value)


def test_concat_into_out_writes_only_what_is_not_in_place(monkeypatch):
    rng = np.random.default_rng(3)
    buf = rng.standard_normal((3, 7, 4, 5))
    a, b, c = buf[:, :2], rng.standard_normal((3, 3, 4, 5)), rng.standard_normal((3, 2, 4, 5))
    expected = np.concatenate([a, b, c], axis=1)
    before = a.copy()
    monkeypatch.setattr(_RecordsWrites, "writes", [])
    out = concat_channels([Tensor(a), Tensor(b), Tensor(c)], out=buf.view(_RecordsWrites))
    npt.assert_array_equal(out.data, expected)
    assert np.shares_memory(out.data, buf)
    assert _RecordsWrites.writes == [3, 2]
    npt.assert_array_equal(a, before)
    # an input elsewhere is copied even where its values already match
    fresh = np.zeros((3, 7, 4, 5)).view(_RecordsWrites)
    monkeypatch.setattr(_RecordsWrites, "writes", [])
    out = concat_channels([Tensor(a.copy()), Tensor(b), Tensor(c)], out=fresh)
    npt.assert_array_equal(out.data, expected)
    assert _RecordsWrites.writes == [2, 3, 2]


@pytest.mark.parametrize("shape,dtype", [((3, 6, 4, 5), np.float64), ((3, 7, 4, 4), np.float64),
                                         ((3, 7, 4, 5), np.float32)])
def test_concat_rejects_an_out_of_the_wrong_shape_or_dtype(shape, dtype):
    inputs = [Tensor(np.zeros((3, 2, 4, 5))), Tensor(np.zeros((3, 5, 4, 5)))]
    with pytest.raises(ShapeError, match=r"out must be \(3, 7, 4, 5\) float64"):
        concat_channels(inputs, out=np.zeros(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# strided inputs: a channel prefix of a wider array, as a dense block's
# feature buffer hands its layers, gives the bits of a contiguous copy


def test_tensor_keeps_a_view_of_its_array():
    a = np.zeros((3, 5, 2, 2), dtype=np.float32)
    assert np.shares_memory(Tensor(a[:, :2]).data, a)


def test_grad_check_probes_a_strided_input_in_place():
    wide = np.random.default_rng(5).standard_normal((2, 5, 3, 3))
    x = Tensor(wide[:, :2], requires_grad=True)
    r = np.random.default_rng(6).standard_normal((2, 2, 3, 3))
    report = grad_check(lambda: project(conv2d(x, Tensor(np.ones((1, 2, 1, 1)))), r[:, :1]),
                        {"x": x})
    assert report.passed, report.summary()


def _bn(training):
    return lambda x, gamma, beta, rm, rv: batchnorm2d(x, gamma, beta, rm, rv, training=training)


_BN_BUFFERS = [np.full(4, 0.3), np.full(4, 1.7)]
# name: (op, shapes of its parameters, initial values of its buffers)
_STRIDED_OPS = {
    "conv1x1": (lambda x, w: conv2d(x, w), [(5, 4, 1, 1)], []),
    "conv3x3-padded": (lambda x, w: conv2d(x, w, padding=1), [(5, 4, 3, 3)], []),
    "batchnorm-train": (_bn(True), [(4,), (4,)], _BN_BUFFERS),
    "batchnorm-eval": (_bn(False), [(4,), (4,)], _BN_BUFFERS),
    "relu": (relu, [], []),
    "maxpool": (lambda x: pool2d(x, "max", kernel=3, stride=2, padding=1), [], []),
    "avgpool": (lambda x: pool2d(x, "average", kernel=2, stride=2), [], []),
    "global-avgpool": (lambda x: pool2d(x, "global-average"), [], []),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("name", list(_STRIDED_OPS))
def test_ops_on_a_channel_prefix_view_match_a_contiguous_copy(name, dtype):
    op, param_shapes, buffers = _STRIDED_OPS[name]
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((3, 9, 6, 6)).astype(dtype)
    params = [rng.standard_normal(shape).astype(dtype) for shape in param_shapes]
    prefix = wide[:, :4]
    assert not prefix.flags.c_contiguous
    results = []
    for x in (prefix, np.ascontiguousarray(prefix)):
        xt = Tensor(x, requires_grad=True)
        pts = [Tensor(p, requires_grad=True) for p in params]
        bts = [Tensor(b.astype(dtype)) for b in buffers]
        out = op(xt, *pts, *bts)
        backward(project(out, np.random.default_rng(8).standard_normal(out.shape)))
        results.append([out.data, xt.grad] + [p.grad for p in pts] + [b.data for b in bts])
    for got, ref in zip(*results):
        npt.assert_array_equal(got, ref)


# ---------------------------------------------------------------------------
# operand validation: each op names the check an invalid operand fails


def _batchnorm_args(c=2, **shapes):
    return [Tensor(np.ones(shapes.get(name, (c,))))
            for name in ("gamma", "beta", "running_mean", "running_var")]


_X4 = np.zeros((2, 2, 4, 4))
_INVALID_OPERANDS = {
    "conv2d-3d-input": (lambda: conv2d(Tensor(_X4[0]), Tensor(np.zeros((1, 2, 3, 3)))),
                        ShapeError, "conv2d: expected 4-D"),
    "conv2d-zero-stride": (lambda: conv2d(Tensor(_X4), Tensor(np.zeros((1, 2, 3, 3))), stride=0),
                           ValueError, "conv2d: stride must be >= 1"),
    "conv2d-negative-padding": (lambda: conv2d(Tensor(_X4), Tensor(np.zeros((1, 2, 3, 3))), padding=-1),
                                ValueError, "conv2d: padding must be >= 0"),
    "conv2d-strided-input-grad": (lambda: conv2d(Tensor(_X4, requires_grad=True),
                                                 Tensor(np.zeros((1, 2, 3, 3))), stride=2),
                                  ValueError, "conv2d: stride 2 differentiates only the weight"),
    "linear-1d-input": (lambda: linear(Tensor(np.zeros(4)), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3))),
                        ShapeError, "linear: expected 2-D"),
    "pool2d-3d-input": (lambda: pool2d(Tensor(_X4[0]), "max"),
                        ShapeError, "pool2d: expected 4-D"),
    "pool2d-zero-stride": (lambda: pool2d(Tensor(_X4), "average", kernel=2, stride=0),
                           ValueError, "pool2d: stride must be >= 1"),
    "concat-batch-mismatch": (lambda: concat_channels([Tensor(_X4), Tensor(_X4[:1])],
                                                     out=np.zeros((2, 4, 4, 4))),
                              ShapeError, "concat_channels: batch/spatial mismatch"),
    "concat-mixed-dtypes": (lambda: concat_channels([Tensor(_X4.astype(np.float32)),
                                                     Tensor(_X4)],
                                                    out=np.zeros((2, 4, 4, 4), dtype=np.float32)),
                            ShapeError, "concat_channels: mixed dtypes"),
    "batchnorm-3d-input": (lambda: batchnorm2d(Tensor(_X4[0]), *_batchnorm_args()),
                           ShapeError, "batchnorm2d: expected 4-D"),
    "batchnorm-gamma-shape": (lambda: batchnorm2d(Tensor(_X4), *_batchnorm_args(gamma=(3,))),
                              ShapeError, r"batchnorm2d: gamma shape \(3,\) != \(2,\)"),
    "batchnorm-beta-shape": (lambda: batchnorm2d(Tensor(_X4), *_batchnorm_args(beta=(1, 2))),
                             ShapeError, r"batchnorm2d: beta shape \(1, 2\) != \(2,\)"),
    "batchnorm-running-mean-shape": (lambda: batchnorm2d(Tensor(_X4), *_batchnorm_args(running_mean=(1,))),
                                     ShapeError, r"batchnorm2d: running_mean shape \(1,\) != \(2,\)"),
    "batchnorm-running-var-shape": (lambda: batchnorm2d(Tensor(_X4), *_batchnorm_args(running_var=(2, 1))),
                                    ShapeError, r"batchnorm2d: running_var shape \(2, 1\) != \(2,\)"),
    "batchnorm-zero-momentum": (lambda: batchnorm2d(Tensor(_X4), *_batchnorm_args(), momentum=0.0),
                                ValueError, r"batchnorm2d: momentum must be in \(0, 1\], got 0.0"),
    "batchnorm-momentum-above-one": (lambda: batchnorm2d(Tensor(_X4), *_batchnorm_args(), momentum=1.5,
                                                         training=True),
                                     ValueError, r"batchnorm2d: momentum must be in \(0, 1\], got 1.5"),
    "item-of-a-vector": (lambda: Tensor(np.zeros(2)).item(),
                         ValueError, r"item\(\) expects a single-element tensor, got shape \(2,\)"),
}


@pytest.mark.parametrize("call,error,message", _INVALID_OPERANDS.values(), ids=_INVALID_OPERANDS.keys())
def test_op_rejects_an_invalid_operand(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_batchnorm_rejects_an_invalid_operand_before_touching_the_buffers():
    running_mean, running_var = Tensor(np.zeros(2)), Tensor(np.ones(2))
    x = Tensor(np.random.default_rng(3).standard_normal((2, 2, 4, 4)))
    with pytest.raises(ValueError, match="momentum"):
        batchnorm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var,
                    momentum=2.0, training=True)
    npt.assert_array_equal(running_mean.data, [0.0, 0.0])
    npt.assert_array_equal(running_var.data, [1.0, 1.0])


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
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1, 1))
    gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
    rm, rv = Tensor(np.zeros(1)), Tensor(np.ones(1))
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


@pytest.mark.parametrize("shape", [(2, 3, 1, 1), (2, 4, 3, 3), (3, 2, 3, 3),
                                   (8, 16, 32, 32), (2, 64, 24, 24), (8, 2, 112, 112)])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 2e-4)])
def test_batchnorm_training_matches_textbook_formula(shape, dtype, tol):
    rng = np.random.default_rng(shape[0] * 10 + shape[2])
    c = shape[1]
    xd = rng.standard_normal(shape) * 3 + 1.5
    gd, gammad, betad = rng.standard_normal(shape), rng.uniform(0.5, 2, c), rng.standard_normal(c)
    x = Tensor(xd.astype(dtype), requires_grad=True)
    gamma = Tensor(gammad.astype(dtype), requires_grad=True)
    beta = Tensor(betad.astype(dtype), requires_grad=True)
    rm, rv = Tensor(np.zeros(c, dtype)), Tensor(np.ones(c, dtype))
    out = batchnorm2d(x, gamma, beta, rm, rv, momentum=0.25, training=True)
    backward(project(out, gd))
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
    x = Tensor(xd.astype(f32), requires_grad=True)
    gamma, beta = Tensor(gammad.astype(f32), requires_grad=True), Tensor(betad.astype(f32), requires_grad=True)
    rm, rv = Tensor(rmd.astype(f32)), Tensor(rvd.astype(f32))
    out = batchnorm2d(x, gamma, beta, rm, rv, training=False)
    backward(project(out, gd))
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


@pytest.mark.parametrize("shape", [(1, 3, 1, 1), (3, 2, 5, 4), (8, 16, 32, 32)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_eval_output_keeps_its_bits(shape, dtype):
    # eval mode is the affine map x3*scale + (beta - mean*scale) with exactly
    # these numpy operations, so inference outputs do not move
    rng = np.random.default_rng(shape[1] * 10 + shape[3])
    n, c, h, w = shape
    x = Tensor((rng.standard_normal(shape) * 3 + 1.5).astype(dtype))
    gamma = Tensor(rng.uniform(0.5, 2, c).astype(dtype))
    beta = Tensor(rng.standard_normal(c).astype(dtype))
    rm, rv = Tensor(rng.standard_normal(c).astype(dtype)), Tensor(rng.uniform(0.2, 3.0, c).astype(dtype))
    out = batchnorm2d(x, gamma, beta, rm, rv, training=False)

    x3 = x.data.reshape(n, c, h * w)
    scale = gamma.data * (1.0 / np.sqrt(rv.data + 1e-5))
    want = x3 * scale[:, None] + (beta.data - rm.data * scale)[:, None]
    assert out.data.dtype == dtype
    npt.assert_array_equal(out.data, want.reshape(shape))


def test_batchnorm_eval_gradient_ignores_a_later_buffer_update():
    # an eval-mode output whose gradient is taken only after a training-mode
    # call on the same layer has moved the running buffers: the gradient
    # must use the buffers as they were at its forward pass
    rng = np.random.default_rng(8)
    c = 3
    xd = rng.standard_normal((2, c, 4, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
    beta = Tensor(rng.standard_normal(c), requires_grad=True)
    rm = Tensor(rng.standard_normal(c))
    rv = Tensor(rng.uniform(0.5, 2.0, c))
    r = rng.standard_normal(xd.shape)

    def grads(update_between):
        x = Tensor(xd, requires_grad=True)
        rm_t, rv_t = Tensor(rm.data.copy()), Tensor(rv.data.copy())
        loss = project(batchnorm2d(x, gamma, beta, rm_t, rv_t, training=False), r)
        if update_between:
            with no_grad():
                batchnorm2d(Tensor(rng.standard_normal(xd.shape) * 5 + 3), gamma, beta,
                            rm_t, rv_t, momentum=1.0, training=True)
            assert not np.allclose(rm_t.data, rm.data)
        gamma.grad = beta.grad = None
        backward(loss)
        return x.grad, gamma.grad, beta.grad

    for got, want in zip(grads(True), grads(False)):
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gradients(training):
    rng = np.random.default_rng(21)
    c = 3
    x = Tensor(rng.standard_normal((4, c, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
    beta = Tensor(rng.standard_normal(c), requires_grad=True)
    rm = Tensor(rng.standard_normal(c))
    rv = Tensor(rng.uniform(0.5, 2.0, c))
    # a fixed random weighting keeps dL/dx entries O(1); a plain sum of the
    # training-mode output has an x gradient that cancels to zero
    r = rng.standard_normal((4, c, 3, 3))
    report = grad_check(
        lambda: project(batchnorm2d(x, gamma, beta, rm, rv, training=training), r),
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
    yy = T.record((y, y), y.data * y.data, lambda g: (g * y.data, g * y.data))
    z = project(yy, 1.0)
    replayed = []
    _log_replays([y.node, yy.node, z.node], replayed)
    backward(z)
    assert replayed == [z.node, yy.node, y.node]
    # every consumer runs before the node producing its input
    pos = {node: i for i, node in enumerate(replayed)}
    for node in replayed:
        for src in node.inputs:
            if isinstance(src, T.TapeNode):
                assert pos[node] < pos[src]


def test_backward_never_visits_a_graph_the_loss_cannot_reach():
    x = Tensor(np.ones(2), requires_grad=True)
    unrelated = relu(relu(x))
    loss = project(x, 2.0)

    def must_not_run(g):
        raise AssertionError("replayed a node the loss does not depend on")

    unrelated.node.backward_rule = must_not_run
    unrelated.node.inputs[0].backward_rule = must_not_run
    backward(loss)
    npt.assert_array_equal(x.grad, [2.0, 2.0])


def test_graph_is_dropped_with_the_loss():
    # no cycle holds the graph: reference counting alone frees the
    # activations, without the cyclic collector's help. Dropping the loss
    # frees a graph backward never ran; backward frees what each rule kept
    # as soon as the rule has run, while the loss is still alive
    gc.disable()
    try:
        for run_backward in (False, True):
            x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
            hidden = relu(relu(x))
            loss = project(hidden, 1.0)
            held = weakref.ref(hidden.data)
            del hidden
            assert held() is not None      # the loss keeps its graph alive
            if run_backward:
                backward(loss)
                assert held() is None      # ...until backward has run its rules
            del loss
            assert held() is None
    finally:
        gc.enable()


def _root_ref(a):
    # a weak reference to the buffer that owns the memory of array a
    while isinstance(a.base, np.ndarray):
        a = a.base
    return weakref.ref(a)


def _reduced_train_loss(monkeypatch, held, relu_outputs=None):
    # a REDUCED float32 training forward at batch 4 and 32 px to its loss;
    # every relu in the model is fed a batch-norm output: a weak reference
    # to each one's root buffer is returned, and with ``held`` a list the
    # outputs are also kept alive in it. With ``relu_outputs`` a list, a
    # weak reference to each relu output's root buffer is appended to it
    import densect.model as model_module
    from densect.training import bce_with_logits

    bn_outputs = []

    def relu_watched(x):
        bn_outputs.append(_root_ref(x.data))
        if held is not None:
            held.append(x)
        out = relu(x)
        if relu_outputs is not None:
            relu_outputs.append(_root_ref(out.data))
        return out

    monkeypatch.setattr(model_module, "relu", relu_watched)
    rng = np.random.default_rng(17)
    net = model_module.DenseNetModel(replace(model_module.REDUCED, input_size=32), seed=0)
    logits = net.forward(Tensor(rng.random((4, 1, 32, 32), dtype=np.float32)), training=True)
    loss = bce_with_logits(logits, rng.integers(0, 2, (4, 2)).astype(np.float32))
    return net, loss, bn_outputs


def test_training_graph_keeps_no_activation_backward_does_not_read(monkeypatch):
    net, loss, bn_outputs = _reduced_train_loss(monkeypatch, None)
    nodes, stack = set(), [loss.node]
    while stack:
        node = stack.pop()
        if node in nodes:
            continue
        nodes.add(node)
        for src in node.inputs:
            if isinstance(src, T.TapeNode):
                stack.append(src)
            else:
                # a leaf that requires grad, or nothing
                assert src is None or (isinstance(src, Tensor) and src.node is None
                                       and src.requires_grad)
        for cell in node.backward_rule.__closure__ or ():
            value = cell.cell_contents
            for item in value if isinstance(value, (tuple, list)) else (value,):
                assert not (isinstance(item, Tensor) and item.node is not None)
    assert len(bn_outputs) == 1 + 2 * (1 + 2 + 2 + 1) + 3 + 1
    # reference counting alone frees each batch-norm output under its relu
    # while the loss still holds the graph
    assert all(ref() is None for ref in bn_outputs)

    held = []
    twin, twin_loss, _ = _reduced_train_loss(monkeypatch, held)
    backward(loss)
    backward(twin_loss)
    for p, q in zip(net.parameters(), twin.parameters()):
        npt.assert_array_equal(p.grad, q.grad)


def test_backward_frees_every_activation_while_the_loss_lives(monkeypatch):
    # after backward, with the loss alive and no help from the cyclic
    # collector, every batch-norm output, relu output and batch-norm input
    # (a dense block's feature buffer among them) of a REDUCED step is freed
    import densect.model as model_module

    bn_inputs, relu_outputs = [], []

    def batchnorm_watched(x, *args, **kwargs):
        bn_inputs.append(_root_ref(x.data))
        return batchnorm2d(x, *args, **kwargs)

    monkeypatch.setattr(model_module, "batchnorm2d", batchnorm_watched)
    gc.disable()
    try:
        net, loss, bn_outputs = _reduced_train_loss(monkeypatch, None, relu_outputs)
        assert len(relu_outputs) == len(bn_inputs) == len(bn_outputs) == 17
        assert all(ref() is not None for ref in relu_outputs + bn_inputs)   # the graph keeps them
        backward(loss)
        assert loss.node is not None
        assert all(ref() is None for ref in bn_outputs + relu_outputs + bn_inputs)
    finally:
        gc.enable()


def test_backward_peak_stays_below_forward_memory_plus_gradients():
    # a float32 DenseNet-121 train step at 64 px, batch 2, traced above the
    # model: backward frees activations while the parameter gradients
    # accumulate, so its peak stays below what the forward left plus the
    # gradients. Keeping every activation until the loss dies exceeds this
    # bound by about 2 MiB here; freeing them leaves about 13 MiB under it.
    import tracemalloc

    from densect.model import DENSENET121, DenseNetModel
    from densect.training import bce_with_logits

    rng = np.random.default_rng(5)
    net = DenseNetModel(replace(DENSENET121, input_size=64), seed=0)
    images = rng.random((2, 1, 64, 64), dtype=np.float32)
    labels = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    tracemalloc.start()
    try:
        loss = bce_with_logits(net.forward(Tensor(images), training=True), labels)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gradients = sum(p.grad.nbytes for p in net.parameters())
    assert peak < after_forward + gradients


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        y = relu(x)
        z = T.record((x, y), x.data + y.data, lambda g: (g, g))
    assert y.node is None and not y.requires_grad
    assert z.node is None and not z.requires_grad
    with pytest.raises(NoGraphError):
        backward(project(z, 1.0))


def test_backward_without_graph_raises():
    with pytest.raises(NoGraphError):
        backward(Tensor(np.array(1.0), requires_grad=True))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = relu(x)
    with pytest.raises(ValueError):
        backward(y)


def test_gradients_accumulate_until_zeroed():
    # each graph is consumed by its backward; a leaf's gradient accumulates
    # across graphs built from it
    x = Tensor(np.array([2.0]), requires_grad=True)
    backward(project(x, 4.0))
    npt.assert_allclose(x.grad, [4.0])
    backward(project(x, 4.0))
    npt.assert_allclose(x.grad, [8.0])
    x.grad = None
    backward(project(x, 4.0))
    npt.assert_allclose(x.grad, [4.0])


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
    loss = project(relu(x), 3.0)
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(NoGraphError, match="earlier backward consumed"):
        backward(loss)
    assert x.grad.tobytes() == first.tobytes()


def test_a_loss_sharing_a_consumed_node_raises_when_backward_reaches_it():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    y = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    hidden = relu(x)
    backward(project(hidden, 1.0))
    joined = T.record((hidden, y), hidden.data + y.data, lambda g: (g, g))
    with pytest.raises(NoGraphError, match="earlier backward consumed"):
        backward(project(joined, 3.0))
    # the newer node ran before backward reached the consumed one
    npt.assert_array_equal(y.grad, [3.0, 3.0])
    npt.assert_array_equal(x.grad, [1.0, 0.0])


def test_diamond_graph_sums_both_paths():
    # x reaches the loss through two relu branches that a two-input node
    # joins: both paths contribute
    x = Tensor(np.array([3.0]), requires_grad=True)
    a, b = relu(x), relu(x)
    joined = T.record((a, b), a.data + b.data, lambda g: (g, g))
    backward(project(joined, 5.0))
    npt.assert_allclose(x.grad, [10.0])


def test_contributions_sum_newest_consumer_first():
    # y feeds three consumers; its gradient is (k3 + k2) + k1 in float32, in
    # descending consumer seq, before relu passes it to x
    rng = np.random.default_rng(14)
    x = Tensor(rng.uniform(1.0, 2.0, 256).astype(np.float32), requires_grad=True)
    ks = [rng.standard_normal(256).astype(np.float32) for _ in range(3)]
    y = relu(x)
    a, b, c = (project(y, k) for k in ks)
    backward(T.record((a, b, c), a.data + b.data + c.data, lambda g: (g, g, g)))
    k1, k2, k3 = ks
    npt.assert_array_equal(x.grad, (k3 + k2) + k1)
    assert np.any((k3 + k2) + k1 != (k1 + k2) + k3)


def test_backward_skips_a_node_no_gradient_reaches():
    x = Tensor(np.ones(2), requires_grad=True)
    hidden = relu(x)

    def must_not_run(g):
        raise AssertionError("replayed a node no gradient reached")

    hidden.node.backward_rule = must_not_run
    out = T.record((hidden, x), hidden.data + x.data, lambda g: (None, g))
    backward(project(out, 1.0))
    npt.assert_array_equal(x.grad, [1.0, 1.0])


def test_non_requires_grad_leaf_never_gets_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    k = Tensor(np.array([3.0, 4.0]))
    out = T.record((x, k), x.data * k.data, lambda g: (g * k.data, g * x.data))
    backward(project(out, 1.0))
    assert k.grad is None
    npt.assert_allclose(x.grad, [3.0, 4.0])


def test_tensor_keeps_float32_and_float64_and_converts_the_rest():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor(np.zeros(2, dtype=np.float16)).dtype == np.float32
    assert Tensor([1.0]).dtype == np.float64
    view = np.zeros((2, 6), dtype=np.float32)[:, ::2]
    assert Tensor(view).data is view
    assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.zeros(2)).data.flags["C_CONTIGUOUS"]


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(2, np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: project(x, 1.0), {"x": x})


def test_grad_check_flags_wrong_gradient():
    # a deliberately wrong backward rule must be caught
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def bad_square():
        out = x.data * x.data
        return project(T.record((x,), out, lambda g: (g * 3.0 * x.data,)), 1.0)  # claims d/dx = 3x

    report = grad_check(bad_square, {"x": x})
    assert not report.passed
    assert report.failures()


# ---------------------------------------------------------------------------
# package surface


def _public_definitions(tree):
    # (name, node) of each public module-level function and each public
    # method of a public module-level class
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _names_used(tree):
    # every name a tree reads, as a variable, an attribute or an import
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def test_package_holds_only_what_the_program_runs():
    # every public function and method in src/densect is named by the
    # package or the benchmark harness outside its own definition; every
    # public function of tensor.py is imported by another package module or
    # by the harness, Tensor has no arithmetic, and the dense block's append
    # into its feature buffer is the only concat
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "densect").glob("*.py"))
    harness = [p for p in (root / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text()) for p in package + harness}
    used = sum((_names_used(t) for t in trees.values()), collections.Counter())
    unused = [f"{p.stem}.{qualname}" for p in package for qualname, node in _public_definitions(trees[p])
              if used[node.name] == _names_used(node)[node.name]]
    assert unused == []

    callers = [p for p in package if p.name != "tensor.py"] + harness
    imported = {alias.name for p in callers for node in ast.walk(trees[p])
                if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "densect.tensor")
                for alias in node.names}
    public = {name for name, f in vars(T).items()
              if inspect.isfunction(f) and f.__module__ == T.__name__ and not name.startswith("_")}
    assert public - imported == set()
    deleted = {"__add__", "__sub__", "__mul__", "__radd__", "__rmul__", "__neg__", "sum", "backward",
               "__repr__"}
    assert deleted.isdisjoint(vars(Tensor))
    assert "dtype" not in inspect.signature(Tensor).parameters
    out = inspect.signature(concat_channels).parameters["out"]
    assert out.default is inspect.Parameter.empty
    calls = {f"{node.func.value.id}.{node.func.attr}"
             for node in ast.walk(ast.parse(inspect.getsource(T)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)}
    assert "np.concatenate" not in calls

"""N-dimensional tensors with reverse-mode automatic differentiation.

The operator set is exactly what a DenseNet forward pass needs: convolution,
batch normalization, ReLU, pooling, channel concatenation, a fully-connected
layer, sigmoid, plus the elementwise/reduction glue used to assemble losses.
Every differentiable operation carries an analytic backward rule. A recorded
output points at its node and a node at its inputs (a fixed tuple per op, None
for an absent optional operand), never forward, so the loss owns its graph and
dropping it frees the graph by reference counting. ``backward`` replays each
node a gradient reaches once, newest first, from a max-heap on recording order.

Convolution is im2col + matmul. A 1x1 stride-1 unpadded conv multiplies the
weights with a view of its input, so its node keeps no copy of it, and
every conv computes its input gradient as a transposed convolution of the
output gradient through the same im2col + matmul.

Default element type is float32; pass ``dtype=np.float64`` when building
tensors for finite-difference verification.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class GeometryError(ValueError):
    """Kernel/stride/padding combination yields an empty or invalid output."""


class NoGraphError(RuntimeError):
    """backward() was called on a tensor that no recorded operation produced."""


class DegenerateStatsError(ValueError):
    """Batch statistics requested over fewer than two elements per channel."""


class TapeNode:
    """One recorded operation: input tensors, backward rule, recording order.

    The backward rule maps the output gradient to a tuple of input gradients
    (entries may be None for absent, non-differentiable or grad-free inputs).
    ``seq`` increases with every recorded operation, so every consumer of a
    tensor has a larger ``seq`` than the node that produced it.
    """

    __slots__ = ("inputs", "backward_rule", "seq")

    def __init__(self, inputs, backward_rule, seq):
        self.inputs = inputs
        self.backward_rule = backward_rule
        self.seq = seq


_sequence = itertools.count()
_grad_enabled = True


def reset_tape():
    """No-op: graphs are freed with their loss. Kept because the benchmark
    harness (perfbench/workloads.py) still imports it."""


class no_grad:
    """Context manager that disables recording (eval mode, numeric probes)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A contiguous n-dimensional float array, optionally tracked for autograd.

    ``grad`` stays None until backward() populates it; tensors with
    ``requires_grad=False`` never receive a grad buffer. ``node`` is the
    recorded operation that produced this tensor (None for leaves).
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() expects a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def sum(self) -> "Tensor":
        src_shape, dtype = self.data.shape, self.data.dtype
        out = self.data.sum(dtype=dtype)

        def rule(g):
            return (np.full(src_shape, g, dtype=dtype),)

        return record((self,), out, rule)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        out = self.data.reshape(shape)

        def rule(g):
            return (g.reshape(src_shape),)

        return record((self,), out, rule)

    def __add__(self, other):
        other = _operand(self, other, "add")
        return record((self, other), self.data + other.data, lambda g: (g, g))

    def __sub__(self, other):
        other = _operand(self, other, "sub")
        return record((self, other), self.data - other.data, lambda g: (g, -g))

    def __mul__(self, other):
        other = _operand(self, other, "mul")
        a, b = self.data, other.data
        return record((self, other), a * b, lambda g: (g * b, g * a))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _operand(a: Tensor, b, opname: str) -> Tensor:
    # the right operand of an elementwise op; a Python scalar becomes a
    # constant tensor of a's shape and dtype
    if isinstance(b, (int, float)):
        return Tensor(np.full(a.data.shape, b, dtype=a.data.dtype))
    if not isinstance(b, Tensor):
        raise TypeError(f"{opname}: expected Tensor or scalar, got {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ (no broadcasting)")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{opname}: dtypes {a.data.dtype} and {b.data.dtype} differ")
    return b


def record(inputs: Sequence[Tensor], out_data: np.ndarray,
           backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result, attaching a graph node when gradients are tracked.

    This is the extension point for custom differentiable operations defined
    outside this module. An op records the same input tuple on every call, None
    for an absent optional operand; ``backward_rule(grad_out)`` must return one
    gradient (or None, always for a None entry) per entry, in that input's shape.
    """
    req = _grad_enabled and any(t is not None and t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req:
        out.node = TapeNode(tuple(inputs), backward_rule, next(_sequence))
    return out


def backward(loss: Tensor):
    """Accumulate dLoss/dLeaf into every requires_grad leaf reachable from loss.

    Repeated calls without zero_grad accumulate. Gradients of intermediate
    tensors are transient; only leaves keep a ``grad`` buffer.

    One pass: nodes pop from a max-heap on ``seq``, starting at the loss, and a
    node is pushed when a gradient first reaches it. Each push has a smaller
    ``seq`` than the node just popped, so every node runs once, after all its
    consumers, summing their gradients in descending consumer ``seq``.
    """
    if loss.node is None:
        raise NoGraphError("backward: tensor was not produced by a recorded operation "
                           "(nothing requires grad, or it ran under no_grad)")
    if loss.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.data.shape}")

    pending = {loss.node: np.ones_like(loss.data)}
    heap = [(-loss.node.seq, loss.node)]
    while heap:
        node = heapq.heappop(heap)[1]
        grads = node.backward_rule(pending.pop(node))
        for t, gt in zip(node.inputs, grads):
            if t is None or gt is None or not t.requires_grad:
                continue
            if t.node is None:
                t.grad = np.array(gt, dtype=t.data.dtype) if t.grad is None else t.grad + gt
            elif t.node in pending:
                pending[t.node] = pending[t.node] + gt
            else:
                pending[t.node] = gt
                heapq.heappush(heap, (-t.node.seq, t.node))


# ---------------------------------------------------------------------------
# operators


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at exactly 0 is defined as 0.

    The backward rule builds its mask from the input the node already holds,
    so a forward that records nothing makes only the output.
    """
    xd = x.data
    out = np.maximum(xd, 0)

    def rule(g):
        return (g * (xd > 0),)

    return record((x,), out, rule)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)) computed in the branch form that never overflows."""
    z = np.asarray(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = stable_sigmoid(x.data)

    def rule(g):
        return (g * out * (1.0 - out),)

    return record((x,), out, rule)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x @ weight.T + bias for x of shape (N, F) and weight of shape (D, F)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear: expected 2-D input/weight, got {x.data.shape} and {weight.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear: input features {x.data.shape[1]} != weight features {weight.data.shape[1]}")
    xd, wd = x.data, weight.data
    out = xd @ wd.T
    if bias is not None:
        if bias.data.shape != (wd.shape[0],):
            raise ShapeError(f"linear: bias shape {bias.data.shape} != ({wd.shape[0]},)")
        out = out + bias.data

    def rule(g):
        gx = g @ wd if x.requires_grad else None
        gw = g.T @ xd if weight.requires_grad else None
        gb = g.sum(axis=0) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb)

    return record((x, weight, bias), out, rule)


def _conv_out_size(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _canvas(a: np.ndarray, top: int, left: int, stride: int, hc: int, wc: int) -> np.ndarray:
    # zeros of (N, C, hc, wc) with a[:, :, i, j] at (top + stride*i, left + stride*j);
    # rows or columns that fall outside are dropped (a crop when top or left < 0)
    n, c, h, w = a.shape
    if stride == 1 and top == 0 and left == 0 and (hc, wc) == (h, w):
        return a
    out = np.zeros((n, c, hc, wc), dtype=a.dtype)
    spans = []
    for start, count, size in ((top, h, hc), (left, w, wc)):
        lo = max(0, (stride - 1 - start) // stride)
        hi = min(count, (size - 1 - start) // stride + 1)
        if hi <= lo:
            return out
        spans.append((slice(start + stride * lo, start + stride * (hi - 1) + 1, stride), slice(lo, hi)))
    (ys, ya), (xs, xa) = spans
    out[:, :, ys, xs] = a[:, :, ya, xa]
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, h2: int, w2: int) -> np.ndarray:
    # (N, C, Hp, Wp) -> (N, C*kh*kw, h2*w2), rows in (C, kh, kw) C-order;
    # a 1x1 stride-1 window of a contiguous xp is already contiguous, so this
    # returns a view of xp, not a copy
    n, c = xp.shape[0], xp.shape[1]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, h2 * w2)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution of (N, C, H, W) with (O, C, kh, kw); im2col + matmul.

    Output spatial extent is floor((H + 2*padding - kh)/stride) + 1 (same for
    width). The im2col columns are retained for the backward pass only while
    an operation is being recorded; for a 1x1 stride-1 unpadded conv they are
    a view of the input, not a copy. The input gradient is the transposed
    convolution: the output gradient, spread out by the stride and padded (or
    cropped) by kh-1-padding, convolved with the flipped kernel.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input/weight, got {x.data.shape} and {weight.data.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    n, c, h, w = x.data.shape
    o, cw, kh, kw = weight.data.shape
    if cw != c:
        raise ShapeError(f"conv2d: input has {c} channels but weight expects {cw}")
    h2 = _conv_out_size(h, kh, stride, padding)
    w2 = _conv_out_size(w, kw, stride, padding)
    if h2 < 1 or w2 < 1:
        raise GeometryError(
            f"conv2d: kernel {kh}x{kw} stride {stride} padding {padding} "
            f"yields empty output for input {h}x{w}")

    xp = _canvas(x.data, padding, padding, 1, h + 2 * padding, w + 2 * padding)
    cols = _im2col(xp, kh, kw, stride, h2, w2)
    w2d = weight.data.reshape(o, c * kh * kw)
    out = np.matmul(w2d, cols).reshape(n, o, h2, w2)
    if bias is not None:
        if bias.data.shape != (o,):
            raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({o},)")
        out = out + bias.data.reshape(1, o, 1, 1)

    def rule(g):
        g2 = g.reshape(n, o, h2 * w2)
        gw = None
        if weight.requires_grad:
            gw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
        gx = None
        if x.requires_grad:
            gp = _canvas(g, kh - 1 - padding, kw - 1 - padding, stride, h + kh - 1, w + kw - 1)
            flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
            gx = np.matmul(flipped, _im2col(gp, kh, kw, 1, h, w)).reshape(n, c, h, w)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb)

    return record((x, weight, bias), out, rule)


def pool2d(x: Tensor, mode: str, kernel: int = 2, stride: int = 2, padding: int = 0) -> Tensor:
    """Spatial pooling over (N, C, H, W).

    mode "max": gradient routes to the argmax position, first occurrence on
    ties. mode "average": uniform distribution, divisor kernel*kernel. mode
    "global-average": ignores kernel/stride/padding and reduces H, W to 1.

    Max and average pooling combine the kernel*kernel strided views (taps) of
    the padded input elementwise, so no array of windows is built. One backward
    rule scatters g/(kernel*kernel), or g where a tap holds the first-occurrence
    argmax (found from the kept input and output), through the taps.
    """
    if x.ndim != 4:
        raise ShapeError(f"pool2d: expected 4-D input, got {x.data.shape}")
    n, c, h, w = x.data.shape

    if mode == "global-average":
        out = x.data.mean(axis=(2, 3), keepdims=True)

        def rule(g):
            return (np.broadcast_to(g / (h * w), (n, c, h, w)).copy(),)

        return record((x,), out, rule)

    if mode not in ("max", "average"):
        raise ValueError(f"pool2d: unknown mode {mode!r}")
    if kernel > h + 2 * padding or kernel > w + 2 * padding:
        raise GeometryError(f"pool2d: kernel {kernel} exceeds padded extent {h + 2 * padding}x{w + 2 * padding}")
    if padding > kernel // 2:
        raise GeometryError(f"pool2d: padding {padding} > kernel//2 ({kernel // 2})")
    if stride < 1:
        raise ValueError(f"pool2d: stride must be >= 1, got {stride}")
    h2 = _conv_out_size(h, kernel, stride, padding)
    w2 = _conv_out_size(w, kernel, stride, padding)
    if h2 < 1 or w2 < 1:
        raise GeometryError(f"pool2d: empty output for input {h}x{w}, kernel {kernel}, stride {stride}")

    hp, wp = h + 2 * padding, w + 2 * padding
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf if mode == "max" else 0.0)
    # taps[ky*kernel + kx] indexes the input under window offset (ky, kx) of every window
    taps = [(Ellipsis, slice(ky, ky + stride * (h2 - 1) + 1, stride),
             slice(kx, kx + stride * (w2 - 1) + 1, stride))
            for ky in range(kernel) for kx in range(kernel)]
    out = xp[taps[0]].copy()
    combine = np.maximum if mode == "max" else np.add
    for tap in taps[1:]:
        combine(out, xp[tap], out=out)

    if mode == "average":
        out /= kernel * kernel

    def rule(g):
        if mode == "max":
            # first occurrence: the lowest tap equal to the maximum wins
            first = np.zeros(out.shape, dtype=np.min_scalar_type(len(taps) - 1))
            for t in reversed(range(len(taps))):
                np.copyto(first, t, where=xp[taps[t]] == out)
        else:
            g = g / (kernel * kernel)
        gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        # taps in reverse order add to a shared position in window raster
        # order, the order a scatter over the windows would use
        for t in reversed(range(len(taps))):
            gxp[taps[t]] += g * (first == t) if mode == "max" else g
        return (gxp[:, :, padding:padding + h, padding:padding + w],)

    return record((x,), out, rule)


def concat_channels(inputs: Sequence[Tensor]) -> Tensor:
    """Concatenate (N, Ci, H, W) tensors along the channel axis, in list order."""
    if not inputs:
        raise ShapeError("concat_channels: empty input list")
    first = inputs[0].data
    for t in inputs:
        if t.ndim != 4:
            raise ShapeError("concat_channels: all inputs must be 4-D")
        if (t.data.shape[0], t.data.shape[2], t.data.shape[3]) != (first.shape[0], first.shape[2], first.shape[3]):
            raise ShapeError(
                f"concat_channels: batch/spatial mismatch {t.data.shape} vs {first.shape}")
        if t.data.dtype != first.dtype:
            raise ShapeError("concat_channels: mixed dtypes")
    out = np.concatenate([t.data for t in inputs], axis=1)
    widths = [t.data.shape[1] for t in inputs]

    def rule(g):
        grads, start = [], 0
        for cw in widths:
            grads.append(g[:, start:start + cw])
            start += cw
        return tuple(grads)

    return record(tuple(inputs), out, rule)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: Tensor, running_var: Tensor,
                eps: float = 1e-5, momentum: float = 0.1,
                training: bool = False) -> Tensor:
    """Per-channel batch normalization over (N, C, H, W).

    Training mode normalizes with biased batch statistics and updates the
    running buffers in place (running variance uses the unbiased estimate,
    matching the usual convention); it keeps x-hat for the backward rule.
    Eval mode is the affine map x*s + t with s = gamma/sqrt(running_var+eps)
    and t = beta - running_mean*s: one output array, no x-hat. Its backward
    rule recomputes x-hat from the input, with the running statistics as
    they were at forward time, so a later training-mode call that updates
    the buffers does not change a pending gradient.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: expected 4-D input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if t.data.shape != (c,):
            raise ShapeError(f"batchnorm2d: {name} shape {t.data.shape} != ({c},)")
    if not (0.0 < momentum <= 1.0):
        raise ValueError(f"batchnorm2d: momentum must be in (0, 1], got {momentum}")

    m = n * h * w
    x3 = x.data.reshape(n, c, h * w)
    if training:
        if m < 2:
            raise DegenerateStatsError(
                f"batchnorm2d: training mode needs >= 2 elements per channel, got {m}")
        mean = x3.mean(axis=(0, 2))
        xhat = x3 - mean[:, None]
        var = np.einsum("ncm,ncm->c", xhat, xhat) / m
        running_mean.data[...] = (1.0 - momentum) * running_mean.data + momentum * mean
        running_var.data[...] = (1.0 - momentum) * running_var.data + momentum * (var * m / (m - 1))
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv[:, None]
        out = xhat * gamma.data[:, None]
        out += beta.data[:, None]
    else:
        mean = running_mean.data.copy()
        inv = 1.0 / np.sqrt(running_var.data + eps)
        scale = gamma.data * inv
        out = x3 * scale[:, None]
        out += (beta.data - mean * scale)[:, None]

    def rule(g):
        g3 = g.reshape(n, c, h * w)
        xh = xhat if training else (x3 - mean[:, None]) * inv[:, None]
        sum_g = g3.sum(axis=(0, 2))                   # dbeta
        sum_gx = np.einsum("ncm,ncm->c", g3, xh)      # dgamma
        dx = None
        if x.requires_grad:
            scale = gamma.data * inv
            dx = g3 * scale[:, None]
            if training:
                # dx = gamma*inv/m * (m*g - sum(g) - xhat*sum(g*xhat))
                dx -= xh * (scale * sum_gx / m)[:, None]
                dx -= (scale * sum_g / m)[:, None]
            dx = dx.reshape(n, c, h, w)
        return (dx, sum_gx if gamma.requires_grad else None, sum_g if beta.requires_grad else None)

    return record((x, gamma, beta), out.reshape(n, c, h, w), rule)

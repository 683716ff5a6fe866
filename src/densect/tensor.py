"""N-dimensional tensors with reverse-mode automatic differentiation.

The operator set is exactly what a DenseNet forward pass needs: convolution,
batch normalization, ReLU, pooling, channel concatenation, a fully-connected
layer, sigmoid, plus the elementwise/reduction glue used to assemble losses.
Every differentiable operation carries an analytic backward rule. A recorded
output points at its node and a node at its inputs, never forward, so the loss
owns its graph: ``backward`` replays the nodes it reaches, newest first, each
exactly once, and dropping the loss frees them by reference counting.

Default element type is float32; pass ``dtype=np.float64`` when building
tensors for finite-difference verification.
"""

from __future__ import annotations

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
    (entries may be None for non-differentiable or grad-free inputs). ``seq``
    increases with every recorded operation, so sorting by it gives a
    topological order.
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
        return float(self.data.reshape(-1)[0]) if self.size == 1 else _scalar_error(self)

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

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
        if isinstance(other, (int, float)):
            out = self.data + np.asarray(other, dtype=self.data.dtype)
            return record((self,), out, lambda g: (g,))
        _check_elementwise(self, other, "add")
        out = self.data + other.data
        return record((self, other), out, lambda g: (g, g))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            out = self.data - np.asarray(other, dtype=self.data.dtype)
            return record((self,), out, lambda g: (g,))
        _check_elementwise(self, other, "sub")
        out = self.data - other.data
        return record((self, other), out, lambda g: (g, -g))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = np.asarray(other, dtype=self.data.dtype)
            out = self.data * c
            return record((self,), out, lambda g: (g * c,))
        _check_elementwise(self, other, "mul")
        a, b = self.data, other.data
        out = a * b
        return record((self, other), out, lambda g: (g * b, g * a))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _scalar_error(t):
    raise ValueError(f"item() expects a single-element tensor, got shape {t.data.shape}")


def _check_elementwise(a: Tensor, b: Tensor, opname: str):
    if not isinstance(b, Tensor):
        raise TypeError(f"{opname}: expected Tensor or scalar, got {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ (no broadcasting)")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{opname}: dtypes {a.data.dtype} and {b.data.dtype} differ")


def record(inputs: Sequence[Tensor], out_data: np.ndarray,
           backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result, attaching a graph node when gradients are tracked.

    ``backward_rule(grad_out)`` must return one gradient (or None) per input,
    each matching that input's shape. This is the extension point for custom
    differentiable operations defined outside this module.
    """
    req = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req:
        out.node = TapeNode(tuple(inputs), backward_rule, next(_sequence))
    return out


def backward(loss: Tensor):
    """Accumulate dLoss/dLeaf into every requires_grad leaf reachable from loss.

    Repeated calls without zero_grad accumulate. Gradients of intermediate
    tensors are transient; only leaves keep a ``grad`` buffer.
    """
    if loss.node is None:
        raise NoGraphError("backward: tensor was not produced by a recorded operation "
                           "(nothing requires grad, or it ran under no_grad)")
    if loss.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.data.shape}")

    nodes, stack = {loss.node}, [loss.node]
    while stack:
        for t in stack.pop().inputs:
            if t.node is not None and t.node not in nodes:
                nodes.add(t.node)
                stack.append(t.node)
    # newest first: every node runs after all the nodes that consume its output
    pending = {loss.node: np.ones_like(loss.data)}
    for node in sorted(nodes, key=lambda node: -node.seq):
        g = pending.pop(node, None)
        if g is None:
            continue
        grads = node.backward_rule(g)
        for t, gt in zip(node.inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            if t.node is None:
                t.grad = np.array(gt, dtype=t.data.dtype) if t.grad is None else t.grad + gt
            else:
                acc = pending.get(t.node)
                pending[t.node] = gt if acc is None else acc + gt


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# operators


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at exactly 0 is defined as 0."""
    out = np.maximum(x.data, 0)
    mask = x.data > 0

    def rule(g):
        return (g * mask,)

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
    inputs = (x, weight)
    if bias is not None:
        if bias.data.shape != (wd.shape[0],):
            raise ShapeError(f"linear: bias shape {bias.data.shape} != ({wd.shape[0]},)")
        out = out + bias.data
        inputs = (x, weight, bias)

    def rule(g):
        gx = g @ wd if x.requires_grad else None
        gw = g.T @ xd if weight.requires_grad else None
        if bias is None:
            return (gx, gw)
        gb = g.sum(axis=0) if bias.requires_grad else None
        return (gx, gw, gb)

    return record(inputs, out, rule)


def _conv_out_size(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, h2: int, w2: int) -> np.ndarray:
    # (N, C, Hp, Wp) -> (N, C*kh*kw, h2*w2), rows in (C, kh, kw) C-order
    n, c = xp.shape[0], xp.shape[1]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, h2 * w2)


def _col2im(gcols: np.ndarray, x_shape, kh: int, kw: int, stride: int,
            padding: int, h2: int, w2: int) -> np.ndarray:
    # scatter-add of column gradients back onto the (padded) input grid
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    gxp = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
    g6 = gcols.reshape(n, c, kh, kw, h2, w2)
    for ky in range(kh):
        for kx in range(kw):
            gxp[:, :, ky:ky + stride * h2:stride, kx:kx + stride * w2:stride] += g6[:, :, ky, kx]
    if padding:
        return gxp[:, :, padding:padding + h, padding:padding + w]
    return gxp


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution of (N, C, H, W) with (O, C, kh, kw); im2col + matmul.

    Output spatial extent is floor((H + 2*padding - kh)/stride) + 1 (same for
    width). The im2col columns are retained for the backward pass only while
    an operation is being recorded.
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

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    cols = _im2col(xp, kh, kw, stride, h2, w2)
    w2d = weight.data.reshape(o, c * kh * kw)
    out = np.matmul(w2d, cols).reshape(n, o, h2, w2)
    inputs = (x, weight)
    if bias is not None:
        if bias.data.shape != (o,):
            raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({o},)")
        out = out + bias.data.reshape(1, o, 1, 1)
        inputs = (x, weight, bias)

    x_shape = x.data.shape

    def rule(g):
        g2 = g.reshape(n, o, h2 * w2)
        gw = None
        if weight.requires_grad:
            gw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
        gx = None
        if x.requires_grad:
            gcols = np.matmul(w2d.T, g2)
            gx = _col2im(gcols, x_shape, kh, kw, stride, padding, h2, w2)
        if bias is None:
            return (gx, gw)
        gb = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return (gx, gw, gb)

    return record(inputs, out, rule)


def pool2d(x: Tensor, mode: str, kernel: int = 2, stride: int = 2, padding: int = 0) -> Tensor:
    """Spatial pooling over (N, C, H, W).

    mode "max": gradient routes to the argmax position, first occurrence on
    ties. mode "average": uniform distribution, divisor kernel*kernel. mode
    "global-average": ignores kernel/stride/padding and reduces H, W to 1.
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

    if mode == "max":
        fill = -np.inf if padding else 0.0
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=fill) if padding else x.data
        win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = np.ascontiguousarray(win).reshape(n, c, h2, w2, kernel * kernel)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

        def rule(g):
            hp, wp = h + 2 * padding, w + 2 * padding
            gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
            ky, kx = idx // kernel, idx % kernel
            ypos = (np.arange(h2) * stride)[None, None, :, None] + ky
            xpos = (np.arange(w2) * stride)[None, None, None, :] + kx
            ni = np.arange(n)[:, None, None, None]
            ci = np.arange(c)[None, :, None, None]
            np.add.at(gxp, (ni, ci, ypos, xpos), g)
            if padding:
                return (gxp[:, :, padding:padding + h, padding:padding + w],)
            return (gxp,)

        return record((x,), out, rule)

    # average
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    out = win.mean(axis=(-2, -1))

    def rule(g):
        hp, wp = h + 2 * padding, w + 2 * padding
        gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        gd = g / (kernel * kernel)
        for ky in range(kernel):
            for kx in range(kernel):
                gxp[:, :, ky:ky + stride * h2:stride, kx:kx + stride * w2:stride] += gd
        if padding:
            return (gxp[:, :, padding:padding + h, padding:padding + w],)
        return (gxp,)

    return record((x,), out, rule)


def concat_channels(inputs: Sequence[Tensor]) -> Tensor:
    """Concatenate (N, Ci, H, W) tensors along the channel axis, in list order."""
    if not inputs:
        raise ShapeError("concat_channels: empty input list")
    first = inputs[0].data
    for t in inputs[1:]:
        if t.ndim != 4 or first.ndim != 4:
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
    matching the usual convention). Eval mode normalizes with the running
    buffers and is a plain affine map.
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
    if training:
        if m < 2:
            raise DegenerateStatsError(
                f"batchnorm2d: training mode needs >= 2 elements per channel, got {m}")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean.data[...] = (1.0 - momentum) * running_mean.data + momentum * mean
        running_var.data[...] = (1.0 - momentum) * running_var.data + momentum * (var * m / (m - 1))
    else:
        mean = running_mean.data
        var = running_var.data

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def rule(g):
        dbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        dgamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        dx = None
        if x.requires_grad:
            if training:
                dxhat = g * gamma.data[None, :, None, None]
                s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                dx = (inv[None, :, None, None] / m) * (m * dxhat - s1 - xhat * s2)
            else:
                dx = g * (gamma.data * inv)[None, :, None, None]
        return (dx, dgamma, dbeta)

    return record((x, gamma, beta), out, rule)

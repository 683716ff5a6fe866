"""N-dimensional tensors with reverse-mode automatic differentiation.

The operator set is exactly what a DenseNet forward pass needs: convolution,
batch normalization, ReLU, pooling, channel concatenation and a
fully-connected layer; the loss is recorded where it is defined, through
``record``. Every differentiable operation carries an analytic backward rule.
A recorded output points at its node and a node, per input, at the node that
produced it, at the input itself if it is a leaf that requires grad, or at
nothing. Pointers run only backward, so the loss owns its graph and dropping
it frees the graph by reference counting. A node keeps no input tensor: its
backward rule keeps the arrays it reads, shapes and flags, so an activation
no rule reads (a batch-norm output under its ReLU, a conv output a concat
copied) is freed as soon as the forward drops it (after Pleiss et al.,
arXiv:1707.06990). ``backward`` replays each node a gradient reaches once,
newest first, from a max-heap on recording order, and drops each rule once
it has run: an activation is freed when the last rule that reads it has
run, while the parameter gradients are still accumulating. So a graph is
backpropagated once; a second backward needs a new forward.

Tensor data is any numpy array, views included, and is never copied to make
it contiguous. A dense block's features live in one buffer: each concat
writes only the new channels into it (``concat_channels(..., out=)``) and
its result is a channel prefix of the buffer, which for N > 1 is strided.
The ops read such a view in place where its layout allows (batch norm's and
the 1x1 conv's (N, C, H*W) reshapes are views of it) and copy only where a
reshape must.

Convolution has one GEMM path. A strided conv first gathers its kernel taps
(the strided slices pooling also uses) into columns, and is then a 1x1 conv
over them. The stride-1 conv builds no column matrix: it lays the
zero-padded input out as flat rows, where every kernel tap is a shifted
column window, and computes all taps in one GEMM with the taps stacked on
the output-channel side (after Anderson et al., arXiv:1709.03395, and MEC,
arXiv:1706.06873). Its rule keeps the unpadded GEMM input (the input
itself, or a strided conv's columns) and lays the flat padded rows out
again in backward. A strided conv differentiates only its weight: in the
model it is the stem, whose input is the image batch.

The ops between the convolutions make few, long passes. Pooling's backward
works in parity planes of the padded input, where every tap is a shifted
copy of the window grid, one contiguous pass per tap (see _pool_grad).
Training batch norm sums with einsum and scales with gamma/sqrt(var+eps)
folded into one factor. ReLU's backward multiplies g by a float mask taken
from its own output, which the next op keeps anyway.

A tensor keeps float32 and float64 data as given and converts any other
dtype to float32; a float64 graph is what finite-difference checks
differentiate.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class GeometryError(ValueError):
    """Kernel/stride/padding combination yields an empty or invalid output."""


class NoGraphError(RuntimeError):
    """backward() reached no graph to replay: no recorded operation produced
    the tensor, or an earlier backward consumed the graph."""


class DegenerateStatsError(ValueError):
    """Batch statistics requested over fewer than two elements per channel."""


class TapeNode:
    """One recorded operation: input sources, backward rule, recording order.

    ``inputs`` holds one source per input: the TapeNode that produced it, the
    input itself if it is a leaf that requires grad, or None if it needs no
    gradient. The backward rule maps the output gradient to a tuple of input
    gradients (an entry may be None for an input that needs no gradient).
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
    """No-op: backward frees a graph's arrays, and its loss the rest. Kept
    because the benchmark harness (perfbench/workloads.py) still imports it."""


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
    """An n-dimensional float array, optionally tracked for autograd.

    ``data`` is the array given (converted to float32 only if it is neither
    float32 nor float64), so a strided view of a larger buffer stays a view
    and is never made contiguous. ``grad`` stays None until backward()
    populates it; tensors with ``requires_grad=False`` never receive a grad
    buffer. ``node`` is the recorded operation that produced this tensor
    (None for leaves).
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
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

    def reshape(self, *shape) -> "Tensor":
        src_shape = self.data.shape
        out = self.data.reshape(shape)

        def rule(g):
            return (g.reshape(src_shape),)

        return record((self,), out, rule)


def record(inputs: Sequence[Tensor], out_data: np.ndarray,
           backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result, attaching a graph node when gradients are tracked.

    This is the extension point for custom differentiable operations defined
    outside this module. An op records the same input tuple on every call;
    ``backward_rule(grad_out)`` must return one gradient per input, in that
    input's shape, or None for an input that needs none. The node keeps each
    input's source, not the input. An array the rule closes over lives until
    backward has run the rule or the loss dies, whichever comes first; a rule
    that closes over an input tensor keeps all of that tensor's data that
    long, so a rule should close over only the arrays it reads.
    """
    req = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req:
        sources = tuple(t.node if t.node is not None else (t if t.requires_grad else None)
                        for t in inputs)
        out.node = TapeNode(sources, backward_rule, next(_sequence))
    return out


def backward(loss: Tensor):
    """Accumulate dLoss/dLeaf into every requires_grad leaf reachable from loss.

    Leaf gradients accumulate across graphs until the caller sets ``grad``
    to None, as ``adam_step`` does. Gradients of intermediate tensors are
    transient; only leaves keep a ``grad`` buffer.

    One pass: nodes pop from a max-heap on ``seq``, starting at the loss, and a
    node is pushed when a gradient first reaches it. Each push has a smaller
    ``seq`` than the node just popped, so every node runs once, after all its
    consumers, summing their gradients in descending consumer ``seq``.

    Each node's rule is dropped once it has run, with the arrays it kept, so
    a graph is consumed once. Backward on a loss whose graph was consumed
    raises NoGraphError before it writes any gradient. A loss that shares a
    node with a consumed graph raises NoGraphError when backward reaches that
    node, after the gradients of the newer nodes have been written.
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
        if node.backward_rule is None:
            raise NoGraphError("backward: an earlier backward consumed this graph; "
                               "run the forward again")
        grads = node.backward_rule(pending.pop(node))
        node.backward_rule = None
        for src, gt in zip(node.inputs, grads):
            if gt is None or src is None:
                continue
            if isinstance(src, Tensor):
                src.grad = np.array(gt, dtype=src.data.dtype) if src.grad is None else src.grad + gt
            elif src in pending:
                pending[src] = pending[src] + gt
            else:
                pending[src] = gt
                heapq.heappush(heap, (-src.seq, src))


# ---------------------------------------------------------------------------
# operators


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at exactly 0 is defined as 0.

    The backward rule keeps only the output and builds its mask from it:
    out > 0 has the bits of x > 0 for every float, -0.0 and NaN included, and
    the output is what the next op keeps anyway, so the input is freed once
    the forward drops it. The mask is made as floats and multiplied by g in
    place, which has the bits of g * (x > 0), -0.0 included, without a
    float-times-bool multiply.
    """
    out = np.maximum(x.data, 0)

    def rule(g):
        gx = (out > 0).astype(g.dtype)
        gx *= g
        return (gx,)

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


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight.T + bias for x of shape (N, F), weight (D, F) and bias (D,)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear: expected 2-D input/weight, got {x.data.shape} and {weight.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear: input features {x.data.shape[1]} != weight features {weight.data.shape[1]}")
    xd, wd = x.data, weight.data
    if bias.data.shape != (wd.shape[0],):
        raise ShapeError(f"linear: bias shape {bias.data.shape} != ({wd.shape[0]},)")
    out = xd @ wd.T + bias.data
    want_x, want_w, want_b = x.requires_grad, weight.requires_grad, bias.requires_grad

    def rule(g):
        gx = g @ wd if want_x else None
        gw = g.T @ xd if want_w else None
        gb = g.sum(axis=0) if want_b else None
        return (gx, gw, gb)

    return record((x, weight, bias), out, rule)


def _conv_out_size(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _pad_flat(a: np.ndarray, padding: int, tail: int) -> np.ndarray:
    # (N, C, H, W) -> (N, C, Hp*Wp + tail): a zero-padded by `padding` on every
    # side, its rows laid end to end, then `tail` zeros; with nothing to add it
    # is a reshape of a, a view whenever a's rows are contiguous (as in a
    # channel prefix of a dense block's feature buffer), not a copy
    n, c, h, w = a.shape
    if padding == 0 and tail == 0:
        return a.reshape(n, c, h * w)
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp * wp + tail), dtype=a.dtype)
    out[:, :, :hp * wp].reshape(n, c, hp, wp)[:, :, padding:padding + h, padding:padding + w] = a
    return out


def _taps(kh: int, kw: int, stride: int, h2: int, w2: int) -> list:
    # taps[ky*kw + kx] indexes, in a padded (..., Hp, Wp) array, the element
    # under window offset (ky, kx) of every one of the h2 x w2 windows
    return [(Ellipsis, slice(ky, ky + stride * (h2 - 1) + 1, stride),
             slice(kx, kx + stride * (w2 - 1) + 1, stride))
            for ky in range(kh) for kx in range(kw)]


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution of (N, C, H, W) with (O, C, kh, kw), without bias.

    Output spatial extent is floor((H + 2*padding - kh)/stride) + 1 (same for
    width). A strided conv (in the model only the stem) gathers its kernel
    taps of the padded input into columns (N, C*kh*kw, H2, W2) and is an
    unpadded 1x1 conv over them, so every conv is one tap-stacked stride-1
    GEMM. Its rule keeps only the GEMM's unpadded input, x itself (which the
    op before keeps anyway) or a strided conv's columns, and the weight;
    backward lays the input out as flat padded rows again for the weight
    gradient and stacks the weight's taps again for the input gradient (for
    a kxk kernel that is a copy, which the rule does not keep). A strided
    conv differentiates only its weight (the stem's input is the image
    batch): one whose input requires grad is refused. Nothing is kept while
    recording is off.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input/weight, got {x.data.shape} and {weight.data.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    if stride > 1 and x.requires_grad:
        raise ValueError(f"conv2d: stride {stride} differentiates only the weight, "
                         f"but the input requires grad")
    n, c, h, w = x.data.shape
    o, cw, kh, kw = weight.data.shape
    if cw != c:
        raise ShapeError(f"conv2d: input has {c} channels but weight expects {cw}")
    if kh < 1 or kw < 1:
        raise GeometryError(f"conv2d: kernel {kh}x{kw} is empty")
    h2 = _conv_out_size(h, kh, stride, padding)
    w2 = _conv_out_size(w, kw, stride, padding)
    if h2 < 1 or w2 < 1:
        raise GeometryError(
            f"conv2d: kernel {kh}x{kw} stride {stride} padding {padding} "
            f"yields empty output for input {h}x{w}")

    # the conv as a stride-1 conv of xs (N, cs, hs, ws), padded by ps, with a
    # (O, cs, khs, kws) kernel
    xs, wts, ps = x.data, weight.data, padding
    if stride > 1:
        # row ci*kh*kw + t of the columns is tap t of channel ci
        taps = _taps(kh, kw, stride, h2, w2)
        xp = _pad_flat(xs, padding, 0).reshape(n, c, h + 2 * padding, w + 2 * padding)
        xs = np.stack([xp[tap] for tap in taps], axis=2).reshape(n, c * kh * kw, h2, w2)
        wts, ps = wts.reshape(o, c * kh * kw, 1, 1), 0
    _, cs, hs, ws = xs.shape
    khs, kws = wts.shape[2:]

    # _pad_flat lays xs out as flat padded rows (N, cs, Hp*Wp + kws-1): tap
    # (ky, kx) is their column window from s = ky*Wp + kx, and output row y is columns
    # y*Wp .. y*Wp + W2-1 of every window (the Wp - W2 after them wrap around)
    hp, wp = hs + 2 * ps, ws + 2 * ps
    offsets = [ky * wp + kx for ky in range(khs) for kx in range(kws)]
    w_taps = wts.transpose(2, 3, 0, 1).reshape(khs * kws * o, cs)

    def grid(a, s):
        # the (N, O, H2, W2) output grid of the window at column s of a
        return a[..., s:s + h2 * wp].reshape(n, o, h2, wp)[..., :w2]

    # one GEMM with K = cs gives every tap's (O, Hp*Wp + kws-1) product, stacked
    y = np.matmul(w_taps, _pad_flat(xs, ps, kws - 1)).reshape(n, khs * kws, o, -1)
    grids = [grid(y[:, t], s) for t, s in enumerate(offsets)]
    out = grids[0] if len(grids) == 1 else grids[0] + grids[1]
    for part in grids[2:]:
        out += part
    want_x, want_w = x.requires_grad, weight.requires_grad

    def rule(g):
        # stacked_g: block t is g at offset s_t with zero wrap columns, so each
        # gradient is one GEMM against it; a 1x1 conv's block is g itself
        if len(offsets) == 1:
            stacked_g = g.reshape(n, o, -1)
        else:
            stacked_g = np.zeros((n, khs * kws, o, hp * wp + kws - 1), dtype=g.dtype)
            for t, s in enumerate(offsets):
                grid(stacked_g[:, t], s)[...] = g
            stacked_g = stacked_g.reshape(n, khs * kws * o, -1)
        gw = None
        if want_w:
            xpf = _pad_flat(xs, ps, kws - 1)
            gw = np.matmul(stacked_g, xpf.transpose(0, 2, 1)).sum(axis=0)
            gw = np.ascontiguousarray(gw.reshape(khs, kws, o, cs).transpose(2, 3, 0, 1))
            gw = gw.reshape(o, c, kh, kw)
        gx = None
        if want_x:
            w_taps = wts.transpose(2, 3, 0, 1).reshape(khs * kws * o, cs)
            gx = np.matmul(w_taps.T, stacked_g)[:, :, :hp * wp].reshape(n, cs, hp, wp)
            gx = gx[:, :, ps:ps + hs, ps:ps + ws]
        return (gx, gw)

    return record((x, weight), out, rule)


def pool2d(x: Tensor, mode: str, kernel: int = 2, stride: int = 2, padding: int = 0) -> Tensor:
    """Spatial pooling over (N, C, H, W).

    mode "max": gradient routes to the argmax position, first occurrence on
    ties. mode "average": uniform distribution, divisor kernel*kernel. mode
    "global-average": ignores kernel/stride/padding and reduces H, W to 1.

    Max and average pooling combine the kernel*kernel strided views (taps) of
    the padded input elementwise, so no array of windows is built. A max
    pool's rule keeps the input and the output, and no padded copy, mask or
    index; an average or global-average pool's rule keeps only shapes. One
    backward rule adds g/(kernel*kernel), or g where a tap holds the
    first-occurrence argmax (found again from the input and the output), at
    every tap. It works on the stride x stride parity planes of the padded
    input, in which each tap is the window grid shifted, so each tap is one
    contiguous pass; taps add in reverse order, which is window raster order
    at every shared position.
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
    if kernel < 1:
        raise GeometryError(f"pool2d: kernel must be >= 1, got {kernel}")
    if padding < 0:
        raise ValueError(f"pool2d: padding must be >= 0, got {padding}")
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

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf if mode == "max" else 0.0)
    taps = _taps(kernel, kernel, stride, h2, w2)
    out = xp[taps[0]].copy()
    combine = np.maximum if mode == "max" else np.add
    for tap in taps[1:]:
        combine(out, xp[tap], out=out)

    if mode == "average":
        out /= kernel * kernel

    # an average pool reads neither the input nor the output in backward
    xd, kept_out = (x.data, out) if mode == "max" else (None, None)

    def rule(g):
        return (_pool_grad(g, (n, c, h, w), xd, kept_out, kernel, stride, padding),)

    return record((x,), out, rule)


def _pool_grad(g, shape, xd, out, k, s, p):
    # The input gradient of a pool of an input of the given shape: a max pool
    # of xd into out, or an average pool when both are None. Padded
    # position (Y, X) lies in parity plane (Y % s, X % s) at (Y // s, X // s),
    # so tap (ky, kx) of window (a, b) lies in plane (ky % s, kx % s) at
    # (a + ky // s, b + kx // s): in its plane, a tap is the window grid
    # shifted. Every plane, and the window grid, is laid out as flat rows of
    # (hq, wq) per (n, c) channel, the grid zero past its h2 x w2 corner, so a
    # shift is an offset and each tap is one contiguous pass, as in the
    # stride-1 conv.
    n, c, h, w = shape
    h2, w2 = g.shape[2:]
    nc = n * c
    g = g.reshape(nc, h2, w2)
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    size = nc * hq * wq
    # taps[ky*k + kx]: the plane tap (ky, kx) lies in and its offset there
    taps = [((ky % s) * s + kx % s, ky // s * wq + kx // s) for ky in range(k) for kx in range(k)]
    # (plane, its part that holds input rows y0::s and columns x0::s, those)
    planes = []
    for ry, rx in itertools.product(range(s), repeat=2):
        a0, b0 = max(0, -((ry - p) // s)), max(0, -((rx - p) // s))
        y0, x0 = s * a0 + ry - p, s * b0 + rx - p
        planes.append((ry * s + rx,
                       (slice(None), slice(a0, a0 + len(range(y0, h, s))),
                        slice(b0, b0 + len(range(x0, w, s)))),
                       (slice(None), slice(y0, None, s), slice(x0, None, s))))

    def grid_rows(a):
        rows = np.zeros((nc, hq, wq), dtype=a.dtype)
        rows[:, :h2, :w2] = a
        return rows.reshape(-1)

    def plane_rows(fill):
        # every plane, then room for the largest shift
        return np.full((s * s, size + (k - 1) // s * (wq + 1)), fill, dtype=g.dtype)

    gf = grid_rows(g)
    if xd is None:
        gf /= k * k
        part = gf
    else:
        xd, out = xd.reshape(nc, h, w), out.reshape(nc, h2, w2)
        # win[t]: tap t holds its window's maximum and no earlier tap does
        xq = plane_rows(-np.inf)
        for r, in_plane, in_x in planes:
            xq[r, :size].reshape(nc, hq, wq)[in_plane] = xd[in_x]
        out_f = grid_rows(out)
        win = np.empty((len(taps), size), dtype=bool)
        found = np.zeros(size, dtype=bool)
        for t, (r, off) in enumerate(taps):
            np.equal(xq[r, off:off + size], out_f, out=win[t])
            np.greater(win[t], found, out=win[t])
            found |= win[t]
        del xq, out_f, found
        part = np.empty(size, dtype=g.dtype)
    # taps in reverse order add to a shared position in window raster order,
    # the order a scatter over the windows would use
    gq = plane_rows(0)
    for t in reversed(range(len(taps))):
        r, off = taps[t]
        if xd is not None:
            # a float mask times g: float times bool is the slower multiply
            np.copyto(part, win[t])
            part *= gf
        gq[r, off:off + size] += part
    gx = np.empty((nc, h, w), dtype=g.dtype)
    for r, in_plane, in_x in planes:
        gx[in_x] = gq[r, :size].reshape(nc, hq, wq)[in_plane]
    return gx.reshape(n, c, h, w)


def concat_channels(inputs: Sequence[Tensor], out: np.ndarray) -> Tensor:
    """Concatenate (N, Ci, H, W) tensors along the channel axis, in list order.

    ``out`` is an (N, sum Ci, H, W) array of the inputs' dtype: each input is
    written into its channel slice of ``out``, which becomes the result's
    data; an input that already is that slice (a dense block's features so
    far) is not written. The rule keeps only the widths.
    """
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
    widths = [t.data.shape[1] for t in inputs]
    want = (first.shape[0], sum(widths)) + first.shape[2:]
    if out.shape != want or out.dtype != first.dtype:
        raise ShapeError(f"concat_channels: out must be {want} {first.dtype}, "
                         f"got {out.shape} {out.dtype}")
    start = 0
    for t, cw in zip(inputs, widths):
        dst = out[:, start:start + cw]
        if (_address(t.data), t.data.strides) != (_address(dst), dst.strides):
            dst[...] = t.data
        start += cw

    def rule(g):
        grads, start = [], 0
        for cw in widths:
            grads.append(g[:, start:start + cw])
            start += cw
        return tuple(grads)

    return record(tuple(inputs), out, rule)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: Tensor, running_var: Tensor,
                eps: float = 1e-5, momentum: float = 0.1,
                training: bool = False) -> Tensor:
    """Per-channel batch normalization over (N, C, H, W).

    Training mode normalizes with biased batch statistics and updates the
    running buffers in place (running variance uses the unbiased estimate,
    matching the usual convention). Eval mode is the affine map x*s + t with
    s = gamma/sqrt(running_var+eps) and t = beta - running_mean*s. In both
    modes the rule keeps only the input and the forward's mean,
    1/sqrt(var+eps) and gamma/sqrt(var+eps) (eval mode copies the running
    mean, so a later training-mode buffer update cannot change a pending
    gradient). Training mode sums with einsum and
    folds gamma/sqrt(var+eps) into one scale. The backward of both modes
    rebuilds only the centred input x - mean, sums with einsum, and scales by
    1/sqrt(var+eps) in the per-channel factors; only dx differs by mode.
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
        mean = np.einsum("ncm->c", x3) / m
        out = x3 - mean[:, None]
        var = np.einsum("ncm,ncm->c", out, out) / m
        running_mean.data[...] = (1.0 - momentum) * running_mean.data + momentum * mean
        running_var.data[...] = (1.0 - momentum) * running_var.data + momentum * (var * m / (m - 1))
        inv = 1.0 / np.sqrt(var + eps)
        scale = gamma.data * inv
        out *= scale[:, None]
        out += beta.data[:, None]
    else:
        mean = running_mean.data.copy()
        inv = 1.0 / np.sqrt(running_var.data + eps)
        scale = gamma.data * inv
        out = x3 * scale[:, None]
        out += (beta.data - mean * scale)[:, None]
    want_x, want_gamma, want_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def rule(g):
        g3 = g.reshape(n, c, h * w)
        xc = x3 - mean[:, None]
        sum_g = np.einsum("ncm->c", g3)                      # dbeta
        sum_gx = np.einsum("ncm,ncm->c", g3, xc) * inv       # dgamma
        dx = None
        if want_x:
            if training:
                # dx = gamma*inv * (g - sum(g)/m - xhat*sum(g*xhat)/m), xhat = xc*inv
                xc *= (inv * sum_gx / m)[:, None]
                xc += (sum_g / m)[:, None]
                dx = np.subtract(g3, xc, out=xc)
                dx *= scale[:, None]
            else:
                dx = g3 * scale[:, None]
            dx = dx.reshape(n, c, h, w)
        return (dx, sum_gx if want_gamma else None, sum_g if want_beta else None)

    return record((x, gamma, beta), out.reshape(n, c, h, w), rule)

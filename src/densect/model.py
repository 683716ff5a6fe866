"""Densely connected convolutional networks on the tensor core.

Architecture summary (for the full-size variants): a 7x7 stride-2 stem
convolution (+ BN + ReLU) and 3x3 stride-2 max pool, four dense blocks separated by
transition layers (1x1 convolution halving the channel count, then 2x2
average pool), a final batch norm, global average pooling, and a
fully-connected head. Each dense layer is the bottleneck form
BN-ReLU-conv1x1-BN-ReLU-conv3x3 producing ``growth_rate`` new channels that
are concatenated onto its input; a block of L layers therefore has
L(L+1)/2 internal connections. Convolutions carry no bias (the batch norm
immediately after each one absorbs it); only the head's linear layer has one.

The 121 and 169 variants differ only in block depths: (6, 12, 24, 16) and
(6, 12, 32, 32). Counting weighted layers as conv + FC gives
1 + 2*sum(blocks) + 3 + 1, i.e. 121 and 169. A REDUCED variant with depths
(1, 2, 2, 1), growth rate 8 and 32x32 inputs exists for tests: it exercises
every structural element at a tiny fraction of the cost.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .tensor import (
    Tensor,
    _conv_out_size,
    batchnorm2d,
    concat_channels,
    conv2d,
    linear,
    pool2d,
    relu,
)

CHECKPOINT_MAGIC = b"DCTCKPT1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint bytes are malformed, truncated, or inconsistent."""


@dataclass(frozen=True)
class DenseNetConfig:
    """Structural hyperparameters; presets below cover the named variants."""

    block_layers: tuple[int, ...] = (6, 12, 24, 16)
    growth_rate: int = 32
    init_channels: int = 64          # stem output width, 2 * growth_rate
    compression: float = 0.5         # transition channel-shrink factor
    bottleneck_factor: int = 4       # 1x1 conv width = factor * growth_rate
    input_channels: int = 1
    input_size: int = 224
    num_outputs: int = 2
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if len(self.block_layers) != 4 or any(b < 1 for b in self.block_layers):
            raise ValueError(f"block_layers must be 4 positive ints, got {self.block_layers}")
        if not (0.0 < self.compression <= 1.0):
            raise ValueError(f"compression must be in (0, 1], got {self.compression}")
        if min(self.growth_rate, self.init_channels, self.bottleneck_factor,
               self.input_channels, self.input_size, self.num_outputs) < 1:
            raise ValueError("all size fields must be positive")


DENSENET121 = DenseNetConfig(block_layers=(6, 12, 24, 16))
DENSENET169 = DenseNetConfig(block_layers=(6, 12, 32, 32))
# small enough for grad checks and CPU training in tests, structurally complete
REDUCED = DenseNetConfig(block_layers=(1, 2, 2, 1), growth_rate=8,
                         init_channels=16, input_size=32)


def weighted_layer_count(config: DenseNetConfig) -> int:
    """Number of weight-carrying layers: stem + 2 per dense layer + 3 transitions + FC."""
    return 1 + 2 * sum(config.block_layers) + 3 + 1


def count_connections(num_layers: int) -> int:
    """Direct connections among L densely wired layers: L(L+1)/2."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    return num_layers * (num_layers + 1) // 2


def feature_map_plan(config: DenseNetConfig) -> list[tuple[str, int, int]]:
    """Static (stage, out_spatial, out_channels) table the forward pass must realize."""
    rows = []
    s = _conv_out_size(config.input_size, 7, 2, 3)
    c = config.init_channels
    rows.append(("conv", s, c))
    s = _conv_out_size(s, 3, 2, 1)
    rows.append(("pool", s, c))
    for i, layers in enumerate(config.block_layers, start=1):
        c += layers * config.growth_rate
        rows.append((f"block{i}", s, c))
        if i < 4:
            c = int(c * config.compression)
            s = _conv_out_size(s, 2, 2, 0)
            rows.append((f"transition{i}", s, c))
    rows.append(("global_pool", 1, c))
    rows.append(("fc", 1, config.num_outputs))
    return rows


# ---------------------------------------------------------------------------
# layers


class Conv2d:
    STATE = ("weight",)

    def __init__(self, in_c, out_c, kernel, stride=1, padding=0):
        self.stride, self.padding = stride, padding
        self.weight = Tensor(np.zeros((out_c, in_c, kernel, kernel), dtype=np.float32),
                             requires_grad=True)

    def __call__(self, x):
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm2d:
    STATE = ("gamma", "beta", "running_mean", "running_var")

    def __init__(self, channels, eps, momentum):
        self.eps, self.momentum = eps, momentum
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.running_mean = Tensor(np.zeros(channels, dtype=np.float32))
        self.running_var = Tensor(np.ones(channels, dtype=np.float32))

    def __call__(self, x, training):
        return batchnorm2d(x, self.gamma, self.beta, self.running_mean, self.running_var,
                           eps=self.eps, momentum=self.momentum, training=training)


class Linear:
    STATE = ("weight", "bias")

    def __init__(self, in_f, out_f):
        self.weight = Tensor(np.zeros((out_f, in_f), dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(out_f, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return linear(x, self.weight, self.bias)


class DenseLayer:
    """BN-ReLU-conv1x1 (bottleneck) then BN-ReLU-conv3x3 -> growth_rate channels."""

    def __init__(self, in_c, cfg: DenseNetConfig):
        mid = cfg.bottleneck_factor * cfg.growth_rate
        self.bn1 = BatchNorm2d(in_c, cfg.bn_eps, cfg.bn_momentum)
        self.conv1 = Conv2d(in_c, mid, kernel=1)
        self.bn2 = BatchNorm2d(mid, cfg.bn_eps, cfg.bn_momentum)
        self.conv2 = Conv2d(mid, cfg.growth_rate, kernel=3, padding=1)

    def __call__(self, x, training):
        h = self.conv1(relu(self.bn1(x, training)))
        return self.conv2(relu(self.bn2(h, training)))


class DenseBlock:
    def __init__(self, in_c, layers, cfg: DenseNetConfig):
        self.layers = []
        c = in_c
        for _ in range(layers):
            self.layers.append(DenseLayer(c, cfg))
            c += cfg.growth_rate
        self.out_channels = c

    def __call__(self, x, training):
        for layer in self.layers:
            x = concat_channels([x, layer(x, training)])
        return x


class Transition:
    """BN-ReLU-conv1x1 (compression) followed by 2x2 stride-2 average pool."""

    def __init__(self, in_c, cfg: DenseNetConfig):
        self.out_channels = int(in_c * cfg.compression)
        self.bn = BatchNorm2d(in_c, cfg.bn_eps, cfg.bn_momentum)
        self.conv = Conv2d(in_c, self.out_channels, kernel=1)

    def __call__(self, x, training):
        h = self.conv(relu(self.bn(x, training)))
        return pool2d(h, "average", kernel=2, stride=2)


class DenseNetModel:
    """The full network; ``_modules`` fixes the state enumeration order.

    A model is allocated, then drawn or loaded. ``_build`` allocates every
    state tensor in the requested dtype as zeros (ones for batch-norm
    ``gamma`` and ``running_var``). A new model then draws each weight, in
    ``named_parameters`` order from one generator seeded with ``seed``, from
    a normal of std sqrt(gain / fan_in): gain 2 for convolutions (He), 1 for
    the head, fan_in the product of all but the first axis. So models with
    the same config, seed and dtype are bit-identical. A checkpoint load
    takes every value from the checkpoint and draws nothing.
    """

    def __init__(self, config: DenseNetConfig = DENSENET121, seed: int = 0,
                 dtype=np.float32):
        self._build(config, dtype)
        rng = np.random.default_rng(seed)
        for _, p in self.named_parameters():
            if p.ndim > 1:
                gain = 2.0 if p.ndim == 4 else 1.0
                p.data[...] = rng.standard_normal(p.shape) * np.sqrt(gain / math.prod(p.shape[1:]))

    @classmethod
    def allocated(cls, config: DenseNetConfig, dtype=np.float32) -> "DenseNetModel":
        """A model whose state is allocated by ``_build`` and not drawn, for
        a checkpoint load to fill in or a parameter count to read."""
        model = cls.__new__(cls)
        model._build(config, dtype)
        return model

    def _build(self, config, dtype):
        self.config = cfg = config
        self.stem_conv = Conv2d(cfg.input_channels, cfg.init_channels, kernel=7, stride=2, padding=3)
        self.stem_bn = BatchNorm2d(cfg.init_channels, cfg.bn_eps, cfg.bn_momentum)
        self.blocks: list[DenseBlock] = []
        self.transitions: list[Transition] = []
        c = cfg.init_channels
        for i, layers in enumerate(cfg.block_layers):
            block = DenseBlock(c, layers, cfg)
            self.blocks.append(block)
            c = block.out_channels
            if i < 3:
                trans = Transition(c, cfg)
                self.transitions.append(trans)
                c = trans.out_channels
        self.final_bn = BatchNorm2d(c, cfg.bn_eps, cfg.bn_momentum)
        self.feature_channels = c
        self.fc = Linear(c, cfg.num_outputs)
        for _, t in self.named_state():
            t.data = t.data.astype(dtype, copy=False)

    # -- structure ---------------------------------------------------------

    def _modules(self) -> Iterator[tuple[str, object]]:
        """(name prefix, leaf module) pairs in checkpoint order."""
        yield "stem.conv", self.stem_conv
        yield "stem.bn", self.stem_bn
        for i, block in enumerate(self.blocks, start=1):
            for j, layer in enumerate(block.layers, start=1):
                for sub in ("bn1", "conv1", "bn2", "conv2"):
                    yield f"block{i}.layer{j}.{sub}", getattr(layer, sub)
            if i < 4:
                for sub in ("bn", "conv"):
                    yield f"trans{i}.{sub}", getattr(self.transitions[i - 1], sub)
        yield "final_bn", self.final_bn
        yield "fc", self.fc

    def named_state(self) -> list[tuple[str, Tensor]]:
        """Every leaf module's ``STATE`` tensors (parameters and batch-norm
        running buffers) in checkpoint order."""
        return [(f"{prefix}.{name}", getattr(mod, name))
                for prefix, mod in self._modules() for name in mod.STATE]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, t) for name, t in self.named_state() if t.requires_grad]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def count_params(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- forward -----------------------------------------------------------

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """(N, input_channels, S, S) image batch -> (N, num_outputs) logits."""
        return self.forward_with_stages(x, training)[0]

    def forward_with_stages(self, x: Tensor, training: bool = False):
        """Forward pass that also returns the per-stage output shapes actually
        produced, as ordered (stage, shape) pairs — the runtime counterpart of
        feature_map_plan."""
        stages = []
        h = self.stem_conv(x)
        stages.append(("conv", h.shape))
        h = relu(self.stem_bn(h, training))
        h = pool2d(h, "max", kernel=3, stride=2, padding=1)
        stages.append(("pool", h.shape))
        for i in range(4):
            h = self.blocks[i](h, training)
            stages.append((f"block{i + 1}", h.shape))
            if i < 3:
                h = self.transitions[i](h, training)
                stages.append((f"transition{i + 1}", h.shape))
        h = relu(self.final_bn(h, training))
        h = pool2d(h, "global-average")
        stages.append(("global_pool", h.shape))
        h = h.reshape(h.shape[0], self.feature_channels)
        logits = self.fc(h)
        stages.append(("fc", logits.shape))
        return logits, stages

    __call__ = forward

    # -- checkpointing -----------------------------------------------------

    def save_checkpoint(self, path: str):
        """Write to a temporary file beside ``path``, then rename it over
        ``path``, so a failed write leaves any earlier checkpoint intact."""
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(checkpoint_bytes(self))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @staticmethod
    def load_checkpoint(path: str, dtype=np.float32) -> "DenseNetModel":
        with open(path, "rb") as f:
            return model_from_checkpoint_bytes(f.read(), dtype=dtype)


def checkpoint_bytes(model: DenseNetModel) -> bytes:
    """Serialize config + full state. Sectioned little-endian binary:

    magic(8) | u32 version | u32 config_len | config JSON (sorted keys) |
    u32 n_entries | entries. Each entry: u16 name_len | name utf-8 |
    u8 ndim | u32 * ndim dims | u64 payload_len | float32 LE payload.
    """
    cfg_json = json.dumps(asdict(model.config), sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(cfg_json)), cfg_json]
    state = model.named_state()
    parts.append(struct.pack("<I", len(state)))
    for name, t in state:
        nb = name.encode()
        payload = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        parts.append(struct.pack(f"<H{len(nb)}sB{t.ndim}IQ", len(nb), nb, t.ndim, *t.shape,
                                 len(payload)))
        parts.append(payload)
    return b"".join(parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf, self.pos = memoryview(buf), 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def model_from_checkpoint_bytes(buf: bytes, dtype=np.float32) -> DenseNetModel:
    r = _Reader(buf)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic: not a model checkpoint")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    try:
        cfg_dict = json.loads(bytes(r.take(cfg_len)).decode())
        cfg_dict["block_layers"] = tuple(cfg_dict["block_layers"])
        config = DenseNetConfig(**cfg_dict)
    except (ValueError, TypeError, KeyError) as e:
        raise CheckpointError(f"bad embedded config: {e}") from None

    # allocated, not drawn: every entry is overwritten below (the count,
    # names, duplicates and shapes are all checked)
    model = DenseNetModel.allocated(config, dtype)
    expected = dict(model.named_state())
    (n_entries,) = r.unpack("<I")
    if n_entries != len(expected):
        raise CheckpointError(f"state entry count {n_entries} != expected {len(expected)}")
    seen = set()
    for _ in range(n_entries):
        (name_len,) = r.unpack("<H")
        offset = r.pos
        try:
            name = bytes(r.take(name_len)).decode()
        except UnicodeDecodeError as e:
            raise CheckpointError(
                f"state entry name is not UTF-8: bad byte at offset {offset + e.start}") from None
        if name not in expected:
            raise CheckpointError(f"unknown state entry {name!r}")
        if name in seen:
            raise CheckpointError(f"duplicate state entry {name!r}")
        seen.add(name)
        (ndim,) = r.unpack("<B")
        dims = r.unpack(f"<{ndim}I")
        (nbytes,) = r.unpack("<Q")
        target = expected[name]
        if tuple(dims) != target.shape:
            raise CheckpointError(f"{name}: shape {dims} != model shape {target.shape}")
        if nbytes != math.prod(dims) * 4:
            raise CheckpointError(f"{name}: payload length {nbytes} inconsistent with shape {dims}")
        arr = np.frombuffer(r.take(nbytes), dtype="<f4").reshape(dims)
        target.data[...] = arr
    if r.pos != len(buf):
        raise CheckpointError(f"{len(buf) - r.pos} trailing bytes after state table")
    return model

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
import os
import struct
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .tensor import (
    Tensor,
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

    def down(s, kernel, stride, padding):
        return (s + 2 * padding - kernel) // stride + 1

    rows = []
    s = down(config.input_size, 7, 2, 3)
    c = config.init_channels
    rows.append(("conv", s, c))
    s = down(s, 3, 2, 1)
    rows.append(("pool", s, c))
    for i, layers in enumerate(config.block_layers, start=1):
        c += layers * config.growth_rate
        rows.append((f"block{i}", s, c))
        if i < 4:
            c = int(c * config.compression)
            s = down(s, 2, 2, 0)
            rows.append((f"transition{i}", s, c))
    rows.append(("global_pool", 1, c))
    rows.append(("fc", 1, config.num_outputs))
    return rows


# ---------------------------------------------------------------------------
# layers


def _he_conv(rng: np.random.Generator, out_c, in_c, kh, kw, dtype) -> Tensor:
    std = np.sqrt(2.0 / (in_c * kh * kw))
    w = rng.standard_normal((out_c, in_c, kh, kw)) * std
    return Tensor(w.astype(dtype), requires_grad=True, dtype=dtype)


class Conv2d:
    def __init__(self, rng, in_c, out_c, kernel, stride=1, padding=0, dtype=np.float32):
        self.stride, self.padding = stride, padding
        self.weight = _he_conv(rng, out_c, in_c, kernel, kernel, dtype)

    def __call__(self, x):
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding)

    def named_params(self):
        yield "weight", self.weight

    def named_buffers(self):
        return iter(())


class BatchNorm2d:
    def __init__(self, channels, eps=1e-5, momentum=0.1, dtype=np.float32):
        self.eps, self.momentum = eps, momentum
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True, dtype=dtype)
        self.running_mean = Tensor(np.zeros(channels, dtype=dtype), dtype=dtype)
        self.running_var = Tensor(np.ones(channels, dtype=dtype), dtype=dtype)

    def __call__(self, x, training):
        return batchnorm2d(x, self.gamma, self.beta, self.running_mean, self.running_var,
                           eps=self.eps, momentum=self.momentum, training=training)

    def named_params(self):
        yield "gamma", self.gamma
        yield "beta", self.beta

    def named_buffers(self):
        yield "running_mean", self.running_mean
        yield "running_var", self.running_var


class Linear:
    def __init__(self, rng, in_f, out_f, dtype=np.float32):
        std = np.sqrt(1.0 / in_f)
        self.weight = Tensor((rng.standard_normal((out_f, in_f)) * std).astype(dtype),
                             requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(out_f, dtype=dtype), requires_grad=True, dtype=dtype)

    def __call__(self, x):
        return linear(x, self.weight, self.bias)

    def named_params(self):
        yield "weight", self.weight
        yield "bias", self.bias

    def named_buffers(self):
        return iter(())


class DenseLayer:
    """BN-ReLU-conv1x1 (bottleneck) then BN-ReLU-conv3x3 -> growth_rate channels."""

    def __init__(self, rng, in_c, cfg: DenseNetConfig, dtype):
        mid = cfg.bottleneck_factor * cfg.growth_rate
        self.bn1 = BatchNorm2d(in_c, cfg.bn_eps, cfg.bn_momentum, dtype)
        self.conv1 = Conv2d(rng, in_c, mid, kernel=1, dtype=dtype)
        self.bn2 = BatchNorm2d(mid, cfg.bn_eps, cfg.bn_momentum, dtype)
        self.conv2 = Conv2d(rng, mid, cfg.growth_rate, kernel=3, padding=1, dtype=dtype)

    def __call__(self, x, training):
        h = self.conv1(relu(self.bn1(x, training)))
        return self.conv2(relu(self.bn2(h, training)))

    def children(self):
        return [("bn1", self.bn1), ("conv1", self.conv1), ("bn2", self.bn2), ("conv2", self.conv2)]


class DenseBlock:
    def __init__(self, rng, in_c, layers, cfg: DenseNetConfig, dtype):
        self.layers = []
        c = in_c
        for _ in range(layers):
            self.layers.append(DenseLayer(rng, c, cfg, dtype))
            c += cfg.growth_rate
        self.out_channels = c

    def __call__(self, x, training):
        for layer in self.layers:
            x = concat_channels([x, layer(x, training)])
        return x

    def children(self):
        return [(f"layer{i + 1}", l) for i, l in enumerate(self.layers)]


class Transition:
    """BN-ReLU-conv1x1 (compression) followed by 2x2 stride-2 average pool."""

    def __init__(self, rng, in_c, cfg: DenseNetConfig, dtype):
        self.out_channels = int(in_c * cfg.compression)
        self.bn = BatchNorm2d(in_c, cfg.bn_eps, cfg.bn_momentum, dtype)
        self.conv = Conv2d(rng, in_c, self.out_channels, kernel=1, dtype=dtype)

    def __call__(self, x, training):
        h = self.conv(relu(self.bn(x, training)))
        return pool2d(h, "average", kernel=2, stride=2)

    def children(self):
        return [("bn", self.bn), ("conv", self.conv)]


class DenseNetModel:
    """The full network; construction order fixes parameter enumeration order.

    Parameter values are drawn from a single seeded generator (He-style
    normal for convolutions, 1/sqrt(fan_in) normal for the head weight,
    ones/zeros for batch-norm affine terms), so two models built with the
    same config, seed and dtype are bit-identical.
    """

    def __init__(self, config: DenseNetConfig = DENSENET121, seed: int = 0,
                 dtype=np.float32):
        self.config = config
        self.seed = seed
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng(seed)

        cfg, dt = config, self.dtype
        self.stem_conv = Conv2d(rng, cfg.input_channels, cfg.init_channels,
                                kernel=7, stride=2, padding=3, dtype=dt)
        self.stem_bn = BatchNorm2d(cfg.init_channels, cfg.bn_eps, cfg.bn_momentum, dt)
        self.blocks: list[DenseBlock] = []
        self.transitions: list[Transition] = []
        c = cfg.init_channels
        for i, layers in enumerate(cfg.block_layers):
            block = DenseBlock(rng, c, layers, cfg, dt)
            self.blocks.append(block)
            c = block.out_channels
            if i < 3:
                trans = Transition(rng, c, cfg, dt)
                self.transitions.append(trans)
                c = trans.out_channels
        self.final_bn = BatchNorm2d(c, cfg.bn_eps, cfg.bn_momentum, dt)
        self.feature_channels = c
        self.fc = Linear(rng, c, cfg.num_outputs, dtype=dt)

    # -- structure ---------------------------------------------------------

    def _modules(self) -> Iterator[tuple[str, object]]:
        yield "stem.conv", self.stem_conv
        yield "stem.bn", self.stem_bn
        for i in range(4):
            for name, child in self.blocks[i].children():
                for sub, mod in child.children():
                    yield f"block{i + 1}.{name}.{sub}", mod
            if i < 3:
                for sub, mod in self.transitions[i].children():
                    yield f"trans{i + 1}.{sub}", mod
        yield "final_bn", self.final_bn
        yield "fc", self.fc

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for prefix, mod in self._modules():
            for pname, p in mod.named_params():
                out.append((f"{prefix}.{pname}", p))
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_state(self) -> list[tuple[str, Tensor]]:
        """Parameters plus batch-norm running buffers, in enumeration order."""
        out = []
        for prefix, mod in self._modules():
            for pname, p in mod.named_params():
                out.append((f"{prefix}.{pname}", p))
            for bname, b in mod.named_buffers():
                out.append((f"{prefix}.{bname}", b))
        return out

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
    cfg = asdict(model.config)
    cfg["block_layers"] = list(model.config.block_layers)
    cfg_json = json.dumps(cfg, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(cfg_json)), cfg_json]
    state = model.named_state()
    parts.append(struct.pack("<I", len(state)))
    for name, t in state:
        nb = name.encode()
        payload = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}I", *t.shape))
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf, self.pos = buf, 0

    def take(self, n: int) -> bytes:
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
        cfg_dict = json.loads(r.take(cfg_len).decode())
        cfg_dict["block_layers"] = tuple(cfg_dict["block_layers"])
        config = DenseNetConfig(**cfg_dict)
    except (ValueError, TypeError, KeyError) as e:
        raise CheckpointError(f"bad embedded config: {e}") from None

    model = DenseNetModel(config, seed=0, dtype=dtype)
    expected = dict(model.named_state())
    (n_entries,) = r.unpack("<I")
    if n_entries != len(expected):
        raise CheckpointError(f"state entry count {n_entries} != expected {len(expected)}")
    seen = set()
    for _ in range(n_entries):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode()
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
        if nbytes != int(np.prod(dims, dtype=np.int64)) * 4:
            raise CheckpointError(f"{name}: payload length {nbytes} inconsistent with shape {dims}")
        arr = np.frombuffer(r.take(nbytes), dtype="<f4").reshape(dims)
        target.data[...] = arr.astype(target.data.dtype)
    if r.pos != len(buf):
        raise CheckpointError(f"{len(buf) - r.pos} trailing bytes after state table")
    return model

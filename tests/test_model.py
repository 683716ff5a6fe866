"""Model structure tests.

The parameter-count oracle (tests/oracles.py) re-derives the total from
first principles (plain loops over the architecture definition) and is pinned
below to the canonical published total for the 121-layer variant with a
3-channel input and 1000-way head. Everything the model reports is checked
against that oracle, never against itself.
"""

import contextlib
import io
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densect.model as model_module
from densect.model import (
    CheckpointError,
    DENSENET121,
    DENSENET169,
    REDUCED,
    DenseNetConfig,
    DenseNetModel,
    count_connections,
    feature_map_plan,
    weighted_layer_count,
)
from densect.tensor import Tensor, backward, concat_channels, no_grad, record
from densect.training import bce_with_logits
from bytes_io import EndlessStream, checkpoint_bytes, model_from_checkpoint_bytes
from gradcheck import grad_check
from oracles import param_count_ref
from projection import project


def test_param_oracle_reproduces_published_total():
    # 3-channel input, 1000-way head is the configuration the 7,978,856 figure
    # is quoted for; this pins the oracle itself before it is used below
    assert param_count_ref((6, 12, 24, 16), 32, 64, 4, 0.5, 3, 1000) == 7_978_856
    assert param_count_ref((6, 12, 32, 32), 32, 64, 4, 0.5, 3, 1000) == 14_149_480


@pytest.mark.parametrize("cfg", [
    DenseNetConfig(block_layers=(6, 12, 24, 16), input_channels=3, num_outputs=1000),
    DenseNetConfig(block_layers=(6, 12, 32, 32), input_channels=3, num_outputs=1000),
    DENSENET121,
    REDUCED,
])
def test_count_params_matches_oracle(cfg):
    model = DenseNetModel(cfg, seed=0)
    expect = param_count_ref(cfg.block_layers, cfg.growth_rate, cfg.init_channels,
                             cfg.bottleneck_factor, cfg.compression,
                             cfg.input_channels, cfg.num_outputs)
    assert model.count_params() == expect
    assert sum(p.size for p in model.parameters()) == expect


def test_weighted_layer_counts_match_variant_names():
    assert weighted_layer_count(DENSENET121) == 121
    assert weighted_layer_count(DENSENET169) == 169
    assert weighted_layer_count(REDUCED) == 1 + 2 * 6 + 3 + 1


def connections_ref(num_layers):
    """Exhaustive pair enumeration: every (i, j) with i <= j is one connection."""
    return sum(1 for i in range(num_layers) for j in range(i, num_layers))


def test_connection_counts():
    assert count_connections(1) == 1
    assert count_connections(5) == 15 == connections_ref(5)
    assert count_connections(121) == 7381 == connections_ref(121)
    assert count_connections(weighted_layer_count(DENSENET121)) == 7381
    for l in range(1, 40):
        assert count_connections(l) == connections_ref(l)
    with pytest.raises(ValueError):
        count_connections(0)


def test_feature_map_plan_121():
    plan = feature_map_plan(DENSENET121)
    assert plan == [
        ("conv", 112, 64),
        ("pool", 56, 64),
        ("block1", 56, 256),
        ("transition1", 28, 128),
        ("block2", 28, 512),
        ("transition2", 14, 256),
        ("block3", 14, 1024),
        ("transition3", 7, 512),
        ("block4", 7, 1024),
        ("global_pool", 1, 1024),
        ("fc", 1, 2),
    ]


def test_feature_map_plan_169_widths():
    plan = {name: (s, c) for name, s, c in feature_map_plan(DENSENET169)}
    assert plan["block1"] == (56, 256)
    assert plan["block2"] == (28, 512)
    assert plan["block3"] == (14, 1280)
    assert plan["transition3"] == (7, 640)
    assert plan["block4"] == (7, 1664)   # 640 + 32*32
    assert plan["global_pool"] == (1, 1664)


def test_feature_map_plan_reduced():
    plan = feature_map_plan(REDUCED)
    names = [r[0] for r in plan]
    sizes = [r[1] for r in plan]
    chans = [r[2] for r in plan]
    assert names == ["conv", "pool", "block1", "transition1", "block2",
                     "transition2", "block3", "transition3", "block4", "global_pool", "fc"]
    assert sizes == [16, 8, 8, 4, 4, 2, 2, 1, 1, 1, 1]
    assert chans == [16, 16, 24, 12, 28, 14, 30, 15, 23, 23, 2]


def test_dense_layer_input_widths_follow_growth_arithmetic():
    # layer l of a block sees block_entry + (l-1) * growth_rate channels,
    # observable through the width of its first batch norm
    model = DenseNetModel(REDUCED, seed=0)
    entry = REDUCED.init_channels
    for bi, block in enumerate(model.blocks):
        for li, layer in enumerate(block.layers):
            expect = entry + li * REDUCED.growth_rate
            assert layer.bn1.gamma.shape == (expect,), (bi, li)
        entry = int(block.out_channels * REDUCED.compression) if bi < 3 else block.out_channels


def test_dense_wiring_differs_from_plain_chain_in_param_count():
    # if layers saw only the previous layer's growth_rate channels (a chain,
    # no concatenation), the total would differ — guards the dense wiring
    cfg = REDUCED

    def chain_count():
        total = cfg.input_channels * cfg.init_channels * 7 * 7 + 2 * cfg.init_channels
        mid = cfg.bottleneck_factor * cfg.growth_rate
        c = cfg.init_channels
        for bi, layers in enumerate(cfg.block_layers):
            for _ in range(layers):
                total += 2 * c + c * mid + 2 * mid + mid * cfg.growth_rate * 9
                c = cfg.growth_rate          # chain: next layer sees only k channels
            if bi < 3:
                out = int(c * cfg.compression)
                total += 2 * c + c * out
                c = out
        total += 2 * c + c * cfg.num_outputs + cfg.num_outputs
        return total

    assert DenseNetModel(cfg, seed=0).count_params() != chain_count()


def test_forward_shape_and_finiteness():
    model = DenseNetModel(REDUCED, seed=1)
    x = Tensor(np.random.default_rng(0).standard_normal((3, 1, 32, 32)))
    with no_grad():
        logits = model.forward(x, training=False)
    assert logits.shape == (3, 2)
    assert np.all(np.isfinite(logits.data))


def test_forward_matches_feature_plan_spatially():
    model = DenseNetModel(REDUCED, seed=0)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 32, 32)))
    plan = feature_map_plan(REDUCED)
    with no_grad():
        _, stages = model.forward_with_stages(x, training=False)
    assert [name for name, _ in stages] == [name for name, _, _ in plan]
    for (name, shape), (_, s, c) in zip(stages, plan):
        if name == "fc":
            assert shape == (2, c), name
        else:
            assert shape == (2, c, s, s), name


def test_named_parameters_stable_unique_and_complete():
    model = DenseNetModel(REDUCED, seed=0)
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names)) == 52
    assert names[:3] == ["stem.conv.weight", "stem.bn.gamma", "stem.bn.beta"]
    assert names[-2:] == ["fc.weight", "fc.bias"]
    assert "block1.layer1.bn1.gamma" in names
    assert "trans2.conv.weight" in names
    # a second model enumerates identically
    names2 = [n for n, _ in DenseNetModel(REDUCED, seed=7).named_parameters()]
    assert names == names2
    # state also carries the running buffers
    state_names = [n for n, _ in model.named_state()]
    assert "block1.layer1.bn1.running_mean" in state_names
    assert "final_bn.running_var" in state_names
    assert len(state_names) == 52 + 34


def test_named_state_pins_the_checkpoint_entry_order():
    # the checkpoint format: names and order re-derived by plain loops
    bn = ["gamma", "beta", "running_mean", "running_var"]
    expected = ["stem.conv.weight"] + [f"stem.bn.{t}" for t in bn]
    for i, layers in enumerate(REDUCED.block_layers, start=1):
        for j in range(1, layers + 1):
            for norm, conv in (("bn1", "conv1"), ("bn2", "conv2")):
                expected += [f"block{i}.layer{j}.{norm}.{t}" for t in bn]
                expected.append(f"block{i}.layer{j}.{conv}.weight")
        if i < 4:
            expected += [f"trans{i}.bn.{t}" for t in bn] + [f"trans{i}.conv.weight"]
    expected += [f"final_bn.{t}" for t in bn] + ["fc.weight", "fc.bias"]
    model = DenseNetModel(REDUCED, seed=0)
    state = model.named_state()
    assert len(expected) == 86
    assert [n for n, _ in state] == expected
    # the parameters are the trainable subsequence: all but the running buffers
    trainable = [(n, t) for n, t in state if t.requires_grad]
    assert [n for n, _ in trainable] == [n for n in expected if ".running_" not in n]
    assert len(trainable) == 52
    params = model.named_parameters()
    assert [n for n, _ in params] == [n for n, _ in trainable]
    assert all(p is t for (_, p), (_, t) in zip(params, trainable))


def test_same_seed_bit_identical_different_seed_not():
    a = DenseNetModel(REDUCED, seed=42)
    b = DenseNetModel(REDUCED, seed=42)
    c = DenseNetModel(REDUCED, seed=43)
    for (na, pa), (_, pb), (_, pc) in zip(a.named_parameters(), b.named_parameters(),
                                          c.named_parameters()):
        npt.assert_array_equal(pa.data, pb.data, err_msg=na)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_initial_state_follows_the_documented_draw(dtype):
    # the weights re-drawn by plain loops over the architecture, in build
    # order: stem, conv1 and conv2 of each dense layer, each transition, fc
    cfg = REDUCED
    rng = np.random.default_rng(7)

    def draw(shape, gain):
        fan_in = int(np.prod(shape[1:]))
        return (rng.standard_normal(shape) * np.sqrt(gain / fan_in)).astype(dtype)

    expected = {"stem.conv.weight": draw((cfg.init_channels, cfg.input_channels, 7, 7), 2.0)}
    c, mid = cfg.init_channels, cfg.bottleneck_factor * cfg.growth_rate
    for i, layers in enumerate(cfg.block_layers, start=1):
        for j in range(1, layers + 1):
            expected[f"block{i}.layer{j}.conv1.weight"] = draw((mid, c, 1, 1), 2.0)
            expected[f"block{i}.layer{j}.conv2.weight"] = draw((cfg.growth_rate, mid, 3, 3), 2.0)
            c += cfg.growth_rate
        if i < 4:
            out = int(c * cfg.compression)
            expected[f"trans{i}.conv.weight"] = draw((out, c, 1, 1), 2.0)
            c = out
    expected["fc.weight"] = draw((cfg.num_outputs, c), 1.0)

    model = DenseNetModel(cfg, seed=7, dtype=dtype)
    state = dict(model.named_state())
    assert expected.keys() <= state.keys()
    for name, t in state.items():
        assert t.data.dtype == dtype, name
        if name in expected:
            npt.assert_array_equal(t.data, expected[name], err_msg=name)
        elif name.endswith((".gamma", ".running_var")):
            npt.assert_array_equal(t.data, np.ones(t.shape, dtype), err_msg=name)
        else:
            npt.assert_array_equal(t.data, np.zeros(t.shape, dtype), err_msg=name)


def test_loading_a_checkpoint_draws_nothing(monkeypatch):
    buf = checkpoint_bytes(DenseNetModel(REDUCED, seed=7))

    def no_draw(*args, **kwargs):
        raise AssertionError("a checkpoint load drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    clone = model_from_checkpoint_bytes(buf)
    assert checkpoint_bytes(clone) == buf


def test_training_forward_updates_running_stats_eval_does_not():
    model = DenseNetModel(REDUCED, seed=0)
    bn = model.blocks[0].layers[0].bn1
    x = Tensor(np.random.default_rng(2).standard_normal((2, 1, 32, 32)))
    before = bn.running_mean.data.copy()
    with no_grad():
        model.forward(x, training=False)
    npt.assert_array_equal(bn.running_mean.data, before)
    with no_grad():
        model.forward(x, training=True)
    assert not np.array_equal(bn.running_mean.data, before)


def test_reduced_model_gradients_sampled():
    model = DenseNetModel(REDUCED, seed=3, dtype=np.float64)
    x = Tensor(np.random.default_rng(4).standard_normal((2, 1, 32, 32)))

    def loss():
        return project(model.forward(x, training=True), model_probe)

    model_probe = np.random.default_rng(5).standard_normal((2, 2))
    # min_denominator 1e-6: for near-zero gradients this bounds the absolute
    # error by 1e-10, which is what 64-bit central differences can resolve here
    report = grad_check(loss, dict(model.named_parameters()),
                        samples_per_input=2, seed=0, reject_kinks=True,
                        min_denominator=1e-6)
    assert report.passed, report.summary()
    # the filter must not have eaten the evidence wholesale
    assert sum(e.checked for e in report.entries) > sum(e.skipped_kinks for e in report.entries)


def _copying_concat(a, b):
    # a reference concat that shares no code with concat_channels: a new
    # array, and a rule that slices the gradient
    ca = a.shape[1]
    return record((a, b), np.concatenate([a.data, b.data], axis=1),
                  lambda g: (g[:, :ca], g[:, ca:]))


def _copying_block_call(block, x, training):
    # the dense block as plain concatenation: every concat a new array
    for layer in block.layers:
        x = _copying_concat(x, layer(x, training))
    return x


def _train_step(dtype):
    model = DenseNetModel(REDUCED, seed=11, dtype=dtype)
    x = Tensor(np.random.default_rng(12).standard_normal((4, 1, 32, 32)).astype(dtype))
    loss = bce_with_logits(model.forward(x, training=True), np.eye(2)[[0, 1, 1, 0]])
    backward(loss)
    return loss.data, model


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_feature_buffer_block_is_bit_identical_to_copying_concat(dtype, monkeypatch):
    # batch 4, so every channel prefix of a block's buffer is a strided view
    loss, model = _train_step(dtype)
    with monkeypatch.context() as m:
        m.setattr(model_module.DenseBlock, "__call__", _copying_block_call)
        ref_loss, ref = _train_step(dtype)
    npt.assert_array_equal(loss, ref_loss)
    for (name, t), (_, r) in zip(model.named_state(), ref.named_state()):
        if t.requires_grad:
            npt.assert_array_equal(t.grad, r.grad, err_msg=name)
        else:
            npt.assert_array_equal(t.data, r.data, err_msg=name)
    for n in (1, 3):
        x = Tensor(np.random.default_rng(n).standard_normal((n, 1, 32, 32)).astype(dtype))
        with no_grad():
            logits = model.forward(x).data
            with monkeypatch.context() as m:
                m.setattr(model_module.DenseBlock, "__call__", _copying_block_call)
                ref_logits = model.forward(x).data
        npt.assert_array_equal(logits, ref_logits)


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_each_block_keeps_its_features_in_one_buffer(monkeypatch):
    concats, blocks = [], []

    def traced_concat(inputs, out):
        result = concat_channels(inputs, out=out)
        concats.append(result)
        return result

    block_call = model_module.DenseBlock.__call__

    def traced_block(block, x, training):
        first = len(concats)
        out = block_call(block, x, training)
        blocks.append((out, concats[first:]))
        return out

    monkeypatch.setattr(model_module, "concat_channels", traced_concat)
    monkeypatch.setattr(model_module.DenseBlock, "__call__", traced_block)
    model = DenseNetModel(REDUCED, seed=0)
    model.forward(Tensor(np.zeros((3, 1, 32, 32))), training=True)
    assert [len(c) for _, c in blocks] == list(REDUCED.block_layers)
    for out, block_concats in blocks:
        assert out is block_concats[-1]
        assert all(_root(c.data) is _root(out.data) for c in block_concats)
        for c in block_concats:
            cells = [cell.cell_contents for cell in c.node.backward_rule.__closure__]
            kept = [v for cell in cells
                    for v in (cell if isinstance(cell, (list, tuple)) else (cell,))]
            assert not any(isinstance(v, (np.ndarray, Tensor)) for v in kept), cells


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_exact():
    model = DenseNetModel(REDUCED, seed=9)
    x = Tensor(np.random.default_rng(6).standard_normal((2, 1, 32, 32)))
    with no_grad():
        model.forward(x, training=True)   # move the running stats off their init
        logits = model.forward(x, training=False)
    buf = checkpoint_bytes(model)
    clone = model_from_checkpoint_bytes(buf)
    assert clone.config == model.config
    for (name, a), (_, b) in zip(model.named_state(), clone.named_state()):
        npt.assert_array_equal(a.data, b.data, err_msg=name)
    with no_grad():
        logits2 = clone.forward(x, training=False)
    npt.assert_array_equal(logits.data, logits2.data)


def test_checkpoint_config_writes_block_layers_as_a_json_array():
    buf = checkpoint_bytes(DenseNetModel(REDUCED, seed=0))
    cfg_len = int.from_bytes(buf[12:16], "little")
    assert b'"block_layers": [1, 2, 2, 1]' in buf[16:16 + cfg_len]


def test_checkpoint_reload_overwrites_every_entry():
    # a seed other than the loader's, and every parameter and running buffer
    # moved off its init value, so no entry of the loaded model can be left
    # over from the zero-filled network the loader fills in
    model = DenseNetModel(REDUCED, seed=7)
    rng = np.random.default_rng(11)
    for name, t in model.named_state():
        low = 0.5 if name.endswith("running_var") else -1.0
        t.data[...] = rng.uniform(low, 2.0, t.shape)
    for dtype in (np.float32, np.float64):
        clone = model_from_checkpoint_bytes(checkpoint_bytes(model), dtype=dtype)
        assert [n for n, _ in clone.named_state()] == [n for n, _ in model.named_state()]
        for (name, a), (_, b) in zip(model.named_state(), clone.named_state()):
            assert b.data.dtype == dtype and np.all(b.data != 0), name
            npt.assert_array_equal(b.data, a.data.astype(dtype), err_msg=name)


def test_checkpoint_file_round_trip(tmp_path):
    model = DenseNetModel(REDUCED, seed=2)
    p = tmp_path / "model.ckpt"
    model.save_checkpoint(str(p))
    clone = DenseNetModel.load_checkpoint(str(p))
    npt.assert_array_equal(clone.fc.weight.data, model.fc.weight.data)


def test_checkpoint_rejects_bad_magic():
    buf = checkpoint_bytes(DenseNetModel(REDUCED))
    with pytest.raises(CheckpointError, match="magic"):
        model_from_checkpoint_bytes(b"NOTMAGIC" + buf[8:])


def test_checkpoint_rejects_truncation_everywhere():
    buf = checkpoint_bytes(DenseNetModel(REDUCED))
    for cut in (4, 11, 40, len(buf) // 2, len(buf) - 1):
        with pytest.raises(CheckpointError):
            model_from_checkpoint_bytes(buf[:cut])


def test_checkpoint_rejects_trailing_garbage():
    buf = checkpoint_bytes(DenseNetModel(REDUCED))
    with pytest.raises(CheckpointError, match="trailing"):
        model_from_checkpoint_bytes(buf + b"\x00")


def test_checkpoint_rejects_version_bump():
    buf = bytearray(checkpoint_bytes(DenseNetModel(REDUCED)))
    buf[8] = 99
    with pytest.raises(CheckpointError, match="version"):
        model_from_checkpoint_bytes(bytes(buf))


def test_checkpoint_rejects_bad_config_json():
    buf = checkpoint_bytes(DenseNetModel(REDUCED))
    # corrupt the first byte of the JSON section (offset 16 = magic+version+len)
    bad = buf[:16] + b"X" + buf[17:]
    with pytest.raises(CheckpointError, match="config"):
        model_from_checkpoint_bytes(bad)


def test_checkpoint_rejects_non_utf8_entry_name_naming_its_offset():
    buf = bytearray(checkpoint_bytes(DenseNetModel(REDUCED)))
    cfg_len = int.from_bytes(buf[12:16], "little")
    name_at = 16 + cfg_len + 4 + 2     # past the config, entry count and name length
    buf[name_at + 1] = 0xFF
    with pytest.raises(CheckpointError, match=f"not UTF-8: bad byte at offset {name_at + 1}$"):
        model_from_checkpoint_bytes(bytes(buf))


# a whole checkpoint in ~4.5 KB, so most mutations land in its structure
TINY = DenseNetConfig(block_layers=(1, 1, 1, 1), growth_rate=2, init_channels=2,
                      bottleneck_factor=1, input_size=29)
TINY_CHECKPOINT = checkpoint_bytes(DenseNetModel(TINY, seed=1))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(data):
    # the checkpoint counterpart of acceptance criterion 6's MHA fuzz
    buf = bytearray(TINY_CHECKPOINT)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        op = data.draw(st.sampled_from(["set", "flip", "cut", "insert"]), label="op")
        at = data.draw(st.integers(0, len(buf)), label="offset")
        if op == "set" and at < len(buf):
            buf[at] = data.draw(st.integers(0, 255), label="byte")
        elif op == "flip" and at < len(buf):
            buf[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        elif op == "cut":
            del buf[at:]
        elif op == "insert":
            buf[at:at] = data.draw(st.binary(min_size=1, max_size=16), label="junk")
    try:
        model = model_from_checkpoint_bytes(bytes(buf))
    except CheckpointError:
        return
    assert isinstance(model, DenseNetModel)


def _error_text(load, *args) -> str:
    with pytest.raises(CheckpointError) as info:
        load(*args)
    return str(info.value)


@pytest.mark.parametrize("config", [REDUCED, DENSENET121, DENSENET169],
                         ids=["reduced", "densenet121", "densenet169"])
def test_checkpoint_file_and_bytes_agree(config, tmp_path):
    # every entry moved off its allocated value, so an entry the file load
    # skipped would show; the file path and the bytes path share one parser
    # and one writer, so they must agree bit for bit
    model = DenseNetModel.allocated(config)
    rng = np.random.default_rng(5)
    for _, t in model.named_state():
        t.data[...] = rng.random(t.shape, dtype=np.float32) + 0.5
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(str(path))
    assert path.read_bytes() == checkpoint_bytes(model)
    for dtype in (np.float32, np.float64):
        from_file = DenseNetModel.load_checkpoint(str(path), dtype)
        from_bytes = model_from_checkpoint_bytes(path.read_bytes(), dtype)
        assert from_file.config == model.config
        for (name, a), (_, b), (_, c) in zip(model.named_state(), from_file.named_state(),
                                             from_bytes.named_state()):
            assert b.data.dtype == dtype, name
            npt.assert_array_equal(b.data, a.data.astype(dtype), err_msg=name)
            npt.assert_array_equal(b.data, c.data, err_msg=name)


def test_every_cut_of_a_checkpoint_fails_alike_from_bytes_file_and_shrunk_stream(tmp_path):
    # a file load adds only its path; the parser takes no size, so a stream
    # that ends early returns short from read and readinto and fails as a
    # checkpoint of the shorter length does
    path = tmp_path / "cut.ckpt"
    for cut in range(len(TINY_CHECKPOINT)):
        expected = _error_text(model_from_checkpoint_bytes, TINY_CHECKPOINT[:cut])
        path.write_bytes(TINY_CHECKPOINT[:cut])
        assert _error_text(DenseNetModel.load_checkpoint, str(path)) == f"{path}: {expected}"
        shrunk = io.BytesIO(TINY_CHECKPOINT[:cut])
        assert _error_text(model_module._read_checkpoint, shrunk, np.float32) == expected


def test_a_truncated_payload_names_its_entry():
    model = DenseNetModel(REDUCED, seed=0)
    buf = checkpoint_bytes(model)
    end = buf.index(b"stem.bn.gamma") - 2    # the end of the first entry's payload
    wanted = model.stem_conv.weight.data.nbytes
    with pytest.raises(CheckpointError, match=rf"^stem\.conv\.weight: truncated checkpoint: "
                                              rf"wanted {wanted} bytes at offset {end - wanted}, "
                                              rf"have {wanted - 3}$"):
        model_from_checkpoint_bytes(buf[:end - 3])


def test_trailing_bytes_in_a_checkpoint_file_are_refused_naming_the_file(tmp_path):
    path = tmp_path / "long.ckpt"
    path.write_bytes(TINY_CHECKPOINT + b"\x00" * 3)
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(path))}: 3 trailing bytes after state table$"):
        DenseNetModel.load_checkpoint(str(path))


def test_a_tail_of_a_chunk_or_more_is_refused_one_chunk_past_the_table():
    stream = io.BytesIO(TINY_CHECKPOINT + bytes(1 << 20))
    with pytest.raises(CheckpointError, match=r"^65536 or more trailing bytes after state table$"):
        model_module._read_checkpoint(stream, np.float32)
    assert stream.tell() <= len(TINY_CHECKPOINT) + 65536
    with _pipe_holding(TINY_CHECKPOINT + bytes(1 << 20)) as path:
        assert _error_text(DenseNetModel.load_checkpoint, path) == (
            f"{path}: 65536 or more trailing bytes after state table")


def test_an_endless_stream_of_zeros_is_refused_after_its_first_8_bytes():
    zeros = EndlessStream(b"\x00")
    with pytest.raises(CheckpointError, match="^bad magic: not a model checkpoint$"):
        model_module._read_checkpoint(zeros, np.float32)
    assert zeros.tell() == 8


def test_a_checkpoint_read_from_a_pipe_loads_as_from_bytes():
    # a pipe has no size: the parser streams it as it streams a file
    with _pipe_holding(TINY_CHECKPOINT) as path:
        assert checkpoint_bytes(DenseNetModel.load_checkpoint(path)) == TINY_CHECKPOINT
    expected = _error_text(model_from_checkpoint_bytes, TINY_CHECKPOINT[:-1])
    with _pipe_holding(TINY_CHECKPOINT[:-1]) as path:
        assert _error_text(DenseNetModel.load_checkpoint, path) == f"{path}: {expected}"


@contextlib.contextmanager
def _pipe_holding(data: bytes):
    # a writer thread feeds the pipe, so data may outgrow its buffer; a
    # reader that stops early breaks the pipe, which ends the writer
    r, w = os.pipe()
    writer = threading.Thread(target=_write_all, args=(w, data))
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join(timeout=60)
    assert not writer.is_alive()


def _write_all(fd: int, data: bytes):
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


def _load_budget(model: DenseNetModel) -> int:
    # tracemalloc counts numpy's buffers too, so this bound is an exact
    # count, not a timing: a load holds the model's state, one entry's bool
    # finiteness mask at a time and 1 MiB for Python objects
    return (sum(t.data.nbytes for _, t in model.named_state())
            + max(t.data.size for _, t in model.named_state()) + 2**20)


def test_checkpoint_file_io_holds_no_byte_image_of_the_file(tmp_path):
    # a save writes each array from its own buffer
    model = DenseNetModel.allocated(DENSENET121)
    path = str(tmp_path / "densenet121.ckpt")
    tracemalloc.start()
    try:
        model.save_checkpoint(path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        DenseNetModel.load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert save_peak < 2**20
    assert load_peak <= _load_budget(model)


def test_a_checkpoint_streams_from_a_pipe_with_no_byte_image():
    model = DenseNetModel.allocated(DENSENET121)
    data = checkpoint_bytes(model)
    with _pipe_holding(data) as path:
        tracemalloc.start()
        try:
            clone = DenseNetModel.load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert load_peak <= _load_budget(model)
    assert checkpoint_bytes(clone) == data


def test_config_validation():
    with pytest.raises(ValueError):
        DenseNetConfig(block_layers=(1, 2, 3))
    with pytest.raises(ValueError):
        DenseNetConfig(compression=0.0)
    with pytest.raises(ValueError):
        DenseNetConfig(growth_rate=0)
    for momentum in (0.0, -0.1, 1.5, 2.0, float("nan")):
        with pytest.raises(ValueError, match="bn_momentum"):
            DenseNetConfig(bn_momentum=momentum)
    for eps in (0.0, -1e-5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="bn_eps"):
            DenseNetConfig(bn_eps=eps)
    DenseNetConfig(bn_momentum=1.0, bn_eps=1e-12)
    for size in (1, 8, 16, 28):
        with pytest.raises(ValueError, match=f"input_size {size} leaves block4 an empty"):
            replace(REDUCED, input_size=size)
    plan = {name: s for name, s, _ in feature_map_plan(replace(REDUCED, input_size=29))}
    assert plan["block4"] == 1


def _with_config_text(buf: bytes, old: bytes, new: bytes) -> bytes:
    # the checkpoint with one edit to its embedded config JSON
    cfg_len = int.from_bytes(buf[12:16], "little")
    cfg = buf[16:16 + cfg_len].replace(old, new)
    assert cfg != buf[16:16 + cfg_len]
    return buf[:12] + len(cfg).to_bytes(4, "little") + cfg + buf[16 + cfg_len:]


def test_checkpoint_with_an_input_size_below_29_is_refused():
    buf = checkpoint_bytes(DenseNetModel(REDUCED, seed=2))
    model_from_checkpoint_bytes(_with_config_text(buf, b'"input_size": 32', b'"input_size": 29'))
    with pytest.raises(CheckpointError, match="input_size 16 leaves block4 an empty"):
        model_from_checkpoint_bytes(_with_config_text(buf, b'"input_size": 32', b'"input_size": 16'))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry,index", [("stem.conv.weight", (3, 0, 2, 5)),
                                         ("block2.layer1.bn2.running_mean", (7,)),
                                         ("block3.layer2.bn1.running_var", (0,)),
                                         ("fc.bias", (1,))])
def test_checkpoint_rejects_a_non_finite_value_naming_entry_and_flat_index(entry, index, value):
    model = DenseNetModel(REDUCED, seed=2)
    t = dict(model.named_state())[entry]
    t.data[index] = value
    flat = int(np.ravel_multi_index(index, t.shape))
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(entry)}: non-finite value {value} at flat index {flat}$"):
        model_from_checkpoint_bytes(checkpoint_bytes(model))


def test_checkpoint_rejects_a_negative_running_variance_naming_its_flat_index():
    model = DenseNetModel(REDUCED, seed=2)
    state = dict(model.named_state())
    # zero variance and negative values elsewhere are valid
    state["stem.bn.running_var"].data[:] = 0.0
    state["stem.bn.running_mean"].data[:] = -1.0
    state["block1.layer1.bn1.beta"].data[:] = -1.0
    model_from_checkpoint_bytes(checkpoint_bytes(model))
    state["trans2.bn.running_var"].data[[4, 9]] = (-0.25, -3.0)
    with pytest.raises(CheckpointError, match=r"^trans2\.bn\.running_var: negative running "
                                              r"variance -0\.25 at flat index 4$"):
        model_from_checkpoint_bytes(checkpoint_bytes(model))


@given(blocks=st.tuples(*[st.integers(1, 2)] * 4), growth=st.integers(2, 4),
       compression=st.sampled_from([0.5, 1.0]), channels=st.integers(1, 3),
       outputs=st.integers(1, 3), size=st.integers(8, 80))
@settings(max_examples=50, deadline=None)
def test_every_small_config_runs_its_feature_map_plan_or_is_refused(
        blocks, growth, compression, channels, outputs, size):
    fields = dict(block_layers=blocks, growth_rate=growth, init_channels=2 * growth,
                  compression=compression, input_channels=channels, num_outputs=outputs,
                  input_size=size)
    if size < 29:
        with pytest.raises(ValueError, match="block4"):
            DenseNetConfig(**fields)
        return
    config = DenseNetConfig(**fields)
    model = DenseNetModel(config, seed=size)
    rng = np.random.default_rng(size)
    x = Tensor(rng.standard_normal((2, channels, size, size)).astype(np.float32))
    logits, stages = model.forward_with_stages(x, training=True)
    plan = feature_map_plan(config)
    assert [name for name, _ in stages] == [name for name, _, _ in plan]
    for (name, shape), (_, s, c) in zip(stages, plan):
        assert shape == ((2, c) if name == "fc" else (2, c, s, s)), name
    backward(bce_with_logits(logits, rng.integers(0, 2, (2, outputs)).astype(np.float32)))
    for name, p in model.named_parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name

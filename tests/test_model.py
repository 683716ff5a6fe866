"""Model structure tests.

The parameter-count oracle below re-derives the total from first principles
(plain loops over the architecture definition) and is pinned to the canonical
published total for the 121-layer variant with a 3-channel input and 1000-way
head. Everything the model reports is checked against that oracle, never
against itself.
"""

import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densect.gradcheck import grad_check
from densect.model import (
    CheckpointError,
    DENSENET121,
    DENSENET169,
    REDUCED,
    DenseNetConfig,
    DenseNetModel,
    checkpoint_bytes,
    count_connections,
    feature_map_plan,
    model_from_checkpoint_bytes,
    weighted_layer_count,
)
from densect.tensor import Tensor, no_grad


def param_count_ref(blocks, growth, init_c, bottleneck, compression, in_ch, n_out):
    """Analytic parameter total: convs have no bias, BN has gamma+beta, FC has bias."""
    total = in_ch * init_c * 7 * 7 + 2 * init_c   # stem conv + stem bn
    c = init_c
    for bi, layers in enumerate(blocks):
        for _ in range(layers):
            mid = bottleneck * growth
            total += 2 * c              # bn1
            total += c * mid            # 1x1 conv
            total += 2 * mid            # bn2
            total += mid * growth * 9   # 3x3 conv
            c += growth
        if bi < 3:
            out = int(c * compression)
            total += 2 * c + c * out    # transition bn + 1x1 conv
            c = out
    total += 2 * c                      # final bn
    total += c * n_out + n_out          # head
    return total


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
    x = Tensor(np.random.default_rng(4).standard_normal((2, 1, 32, 32)), dtype=np.float64)

    def loss():
        return (model.forward(x, training=True) * model_probe).sum()

    model_probe = Tensor(np.random.default_rng(5).standard_normal((2, 2)), dtype=np.float64)
    # min_denominator 1e-6: for near-zero gradients this bounds the absolute
    # error by 1e-10, which is what 64-bit central differences can resolve here
    report = grad_check(loss, dict(model.named_parameters()),
                        samples_per_input=2, seed=0, reject_kinks=True,
                        min_denominator=1e-6)
    assert report.passed, report.summary()
    # the filter must not have eaten the evidence wholesale
    assert sum(e.checked for e in report.entries) > sum(e.skipped_kinks for e in report.entries)


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


def test_checkpoint_write_failing_partway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "final.ckpt"
    DenseNetModel(REDUCED, seed=2).save_checkpoint(str(path))
    previous = path.read_bytes()

    class FullDisk:
        # writes half the bytes, then fails like a full disk would
        def __init__(self, name, mode):
            self.f = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            self.f.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr("densect.model.open", FullDisk, raising=False)
    with pytest.raises(OSError):
        DenseNetModel(REDUCED, seed=3).save_checkpoint(str(path))
    monkeypatch.undo()
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["final.ckpt"]


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
                      bottleneck_factor=1, input_size=8)
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


def test_config_validation():
    with pytest.raises(ValueError):
        DenseNetConfig(block_layers=(1, 2, 3))
    with pytest.raises(ValueError):
        DenseNetConfig(compression=0.0)
    with pytest.raises(ValueError):
        DenseNetConfig(growth_rate=0)

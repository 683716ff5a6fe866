"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Each criterion enforces its own wall-clock budget.
"""

import contextlib
import os
import re
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from densect.cli import main
from densect.data import synth_generate
from densect.mha import MhaError, Volume, write_mha
from densect.model import (
    DENSENET121,
    DENSENET169,
    REDUCED,
    DenseNetModel,
    count_connections,
    feature_map_plan,
    weighted_layer_count,
)
from densect.preprocess import PreprocessConfig, preprocess
from densect.tensor import (
    Tensor,
    batchnorm2d,
    concat_channels,
    conv2d,
    linear,
    pool2d,
    relu,
)
from densect.training import TrainConfig, bce_with_logits, train
from bytes_io import read_mha
from gradcheck import grad_check
from oracles import avgpool_ref, conv2d_ref, maxpool_ref, param_count_ref
from projection import project


@contextlib.contextmanager
def criterion(number, label, budget_s=None):
    t0 = time.time()
    try:
        yield
        elapsed = time.time() - t0
        if budget_s is not None and elapsed > budget_s:
            raise AssertionError(
                f"took {elapsed:.1f}s, budget {budget_s}s")
    except Exception:
        print(f"[FAIL] criterion {number}: {label}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)", flush=True)


# --------------------------------------------------------------------------
# 1. gradient checks across the operator set, five seeds


def _assert_grads(fn, inputs, **kw):
    report = grad_check(fn, inputs, **kw)
    assert report.passed, report.summary()


def _well_separated(rng, shape):
    vals = rng.permutation(np.arange(np.prod(shape), dtype=np.float64))
    return (vals * 0.37).reshape(shape)


def test_criterion_1_gradient_checks():
    with criterion(1, "analytic gradients match finite differences for "
                      "every operator and the composed network, 5 seeds",
                   budget_s=120):
        for seed in range(5):
            rng = np.random.default_rng(seed)

            x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
            rng.normal(size=4)  # a former conv bias draw, kept so later draws see the same stream
            r1 = rng.normal(size=(2, 4, 6, 6))
            _assert_grads(lambda: project(conv2d(x, w, padding=1), r1), {"x": x, "w": w})

            # a strided conv (the stem) differentiates only its weight
            xs = Tensor(rng.normal(size=(1, 2, 7, 7)))
            ws = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
            r2 = rng.normal(size=(1, 3, 4, 4))
            _assert_grads(lambda: project(conv2d(xs, ws, stride=2, padding=1), r2), {"w": ws})

            xm = Tensor(_well_separated(rng, (2, 2, 6, 6)), requires_grad=True)
            r3 = rng.normal(size=(2, 2, 3, 3))
            _assert_grads(lambda: project(pool2d(xm, "max"), r3), {"x": xm})
            _assert_grads(lambda: project(pool2d(xm, "average"), r3), {"x": xm})

            xg = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
            rg = rng.normal(size=(2, 3, 1, 1))
            _assert_grads(lambda: project(pool2d(xg, "global-average"), rg), {"x": xg})

            xb = Tensor(rng.normal(size=(3, 4, 5, 5)), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
            beta = Tensor(rng.normal(size=4), requires_grad=True)
            rm = Tensor(np.zeros(4))
            rv = Tensor(np.ones(4))
            rb = rng.normal(size=(3, 4, 5, 5))
            _assert_grads(
                lambda: project(batchnorm2d(xb, gamma, beta, rm, rv, training=True), rb),
                {"x": xb, "gamma": gamma, "beta": beta})

            xl = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            wl = Tensor(rng.normal(size=(3, 6)) * 0.5, requires_grad=True)
            bl = Tensor(rng.normal(size=3), requires_grad=True)
            rl = rng.normal(size=(4, 3))
            _assert_grads(lambda: project(linear(xl, wl, bl), rl), {"x": xl, "w": wl, "b": bl})

            xr = Tensor(np.sign(rng.normal(size=(3, 8))) *
                        rng.uniform(0.2, 2.0, size=(3, 8)), requires_grad=True)
            rr = rng.normal(size=(3, 8))
            _assert_grads(lambda: project(relu(xr), rr), {"x": xr})

            c1 = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
            c2 = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
            rc = rng.normal(size=(2, 5, 3, 3))
            _assert_grads(lambda: project(concat_channels([c1, c2], out=np.empty(rc.shape)), rc),
                          {"a": c1, "b": c2})

            lg = Tensor(rng.uniform(-4, 4, size=(4, 2)), requires_grad=True)
            yb = rng.integers(0, 2, size=(4, 2)).astype(np.float64)
            _assert_grads(lambda: bce_with_logits(lg, yb), {"logits": lg})

        # the composed small network, sampled entries, five seeds
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            model = DenseNetModel(REDUCED, seed=seed, dtype=np.float64)
            xc = Tensor(rng.standard_normal((2, 1, 32, 32)))
            probe = rng.standard_normal((2, 2))
            report = grad_check(
                lambda: project(model.forward(xc, training=True), probe),
                dict(model.named_parameters()),
                samples_per_input=1, seed=seed, reject_kinks=True,
                min_denominator=1e-6)
            assert report.passed, report.summary()
            assert sum(e.checked for e in report.entries) > 0


# --------------------------------------------------------------------------
# 2. architecture accounting


def test_criterion_2_architecture_accounting():
    with criterion(2, "layer, connection, and parameter accounting are exact"):
        assert weighted_layer_count(DENSENET121) == 121
        assert weighted_layer_count(DENSENET169) == 169
        assert count_connections(121) == 7381
        imagenet121 = replace(DENSENET121, input_channels=3, num_outputs=1000)
        n121 = DenseNetModel(imagenet121, seed=0).count_params()
        assert n121 == param_count_ref((6, 12, 24, 16), 32, 64, 4, 0.5, 3, 1000)
        assert n121 == 7_978_856
        assert abs(n121 / 7.98e6 - 1.0) < 0.01
        assert DenseNetModel(DENSENET169, seed=0).count_params() > \
            DenseNetModel(DENSENET121, seed=0).count_params()
        imagenet169 = replace(DENSENET169, input_channels=3, num_outputs=1000)
        assert DenseNetModel(imagenet169, seed=0).count_params() == \
            param_count_ref((6, 12, 32, 32), 32, 64, 4, 0.5, 3, 1000) == 14_149_480


# --------------------------------------------------------------------------
# 3. probed feature-map sizes on a 224 input


def test_criterion_3_probed_shapes_224():
    with criterion(3, "probed per-stage spatial sizes at 224 input, "
                      "both depth presets", budget_s=60):
        expected = {"conv": 112, "pool": 56, "block1": 56, "transition1": 28,
                    "transition2": 14, "transition3": 7, "global_pool": 1}
        for config in (DENSENET121, DENSENET169):
            model = DenseNetModel(config, seed=0)
            x = Tensor(np.random.default_rng(0).normal(
                size=(1, 1, 224, 224)).astype(np.float32))
            _, stages = model.forward_with_stages(x, training=False)
            probed = {name: shape[2] for name, shape in stages
                      if name in expected}
            assert probed == expected, probed


# --------------------------------------------------------------------------
# 4. operators versus brute-force oracles, 100 instances


def test_criterion_4_operator_oracles():
    with criterion(4, "conv2d/pool2d/linear match brute-force oracles within "
                      "1e-5, 100 random instances each", budget_s=60):
        rng = np.random.default_rng(42)
        for i in range(100):  # conv2d
            n, c, o = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5)
            k = int(rng.choice([1, 3]))
            stride, padding = int(rng.choice([1, 2])), int(rng.choice([0, 1]))
            h = int(rng.integers(k + 2, 9))
            x = rng.normal(size=(n, c, h, h))
            w = rng.normal(size=(o, c, k, k))
            if rng.integers(0, 2):  # former conv bias draws, kept so later draws see the same stream
                rng.normal(size=o)
            got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
            ref = conv2d_ref(x, w, stride, padding)
            npt.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        for i in range(100):  # pool2d, both modes
            n, c = rng.integers(1, 4), rng.integers(1, 4)
            h = int(rng.integers(4, 10))
            mode = "max" if i % 2 == 0 else "average"
            x = rng.normal(size=(n, c, h, h))
            got = pool2d(Tensor(x), mode).data
            ref = (maxpool_ref if mode == "max" else avgpool_ref)(x, 2, 2)
            npt.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        for i in range(100):  # linear
            n, f, o = rng.integers(1, 6), rng.integers(1, 8), rng.integers(1, 5)
            x = rng.normal(size=(n, f))
            w = rng.normal(size=(o, f))
            b = rng.normal(size=o)
            got = linear(Tensor(x), Tensor(w), Tensor(b)).data
            ref = x @ w.T + b
            npt.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)


# --------------------------------------------------------------------------
# 5. loss stability at extreme logits


def test_criterion_5_bce_stability():
    with criterion(5, "cross-entropy exact at saturated logits, matches "
                      "naive formula to 1e-10 elsewhere"):
        loss = bce_with_logits(Tensor(np.array([[-100.0]])),
                               np.array([[1.0]])).item()
        assert loss == 100.0
        xs = np.linspace(-10.0, 10.0, 201)
        for y in (0.0, 1.0):
            for x in xs:
                got = bce_with_logits(Tensor(np.array([[x]])),
                                      np.array([[y]])).item()
                s = 1.0 / (1.0 + np.exp(-x))
                naive = -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
                assert abs(got - naive) <= 1e-10, (x, y, got, naive)


# --------------------------------------------------------------------------
# 6. volume container: round trips and hostile headers


_TYPES = ["MET_UCHAR", "MET_CHAR", "MET_USHORT", "MET_SHORT",
          "MET_INT", "MET_FLOAT", "MET_DOUBLE"]
_NP = {"MET_UCHAR": np.uint8, "MET_CHAR": np.int8, "MET_USHORT": np.uint16,
       "MET_SHORT": np.int16, "MET_INT": np.int32,
       "MET_FLOAT": np.float32, "MET_DOUBLE": np.float64}


def test_criterion_6_mha_round_trip_and_fuzz():
    with criterion(6, "50 volume round trips bit-exact; 10,000 corrupted "
                      "headers handled without a crash", budget_s=120):
        rng = np.random.default_rng(7)
        for i in range(50):
            et = _TYPES[i % len(_TYPES)]
            dt = _NP[et]
            shape = tuple(int(s) for s in rng.integers(1, 7, size=3))
            if np.issubdtype(dt, np.floating):
                arr = rng.normal(size=shape).astype(dt)
            else:
                info = np.iinfo(dt)
                arr = rng.integers(info.min, info.max, size=shape,
                                   endpoint=True).astype(dt)
            vol = Volume.from_array(arr,
                                    spacing=[float(x) for x in rng.uniform(0.2, 3.0, 3)],
                                    offset=[float(x) for x in rng.normal(0, 50, 3)])
            back = read_mha(write_mha(vol, compress=bool(i % 2)))
            npt.assert_array_equal(back.voxels, arr)
            assert back.voxels.dtype == dt
            npt.assert_allclose(back.header.element_spacing,
                                vol.header.element_spacing)

        base = write_mha(Volume.from_array(
            rng.integers(-1000, 400, size=(3, 5, 4)).astype(np.int16)))
        outcomes = {"ok": 0, "error": 0}
        for i in range(10_000):
            buf = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                op = int(rng.integers(0, 6))
                if op == 0 and buf:
                    j = int(rng.integers(0, len(buf)))
                    buf[j] ^= 1 << int(rng.integers(0, 8))
                elif op == 1 and buf:
                    buf = buf[: int(rng.integers(0, len(buf)))]
                elif op == 2:
                    j = int(rng.integers(0, len(buf) + 1))
                    junk = bytes(rng.integers(0, 256, size=int(rng.integers(1, 30))))
                    buf = buf[:j] + bytearray(junk) + buf[j:]
                elif op == 3:
                    buf = bytearray(bytes(buf).replace(
                        str(int(rng.integers(0, 10))).encode(),
                        str(int(rng.integers(0, 99))).encode()))
                elif op == 4:
                    lines = bytes(buf).split(b"\n")
                    if len(lines) > 1:
                        j = int(rng.integers(0, len(lines)))
                        lines.insert(j, lines[int(rng.integers(0, len(lines)))])
                        buf = bytearray(b"\n".join(lines))
                else:
                    buf = bytearray(bytes(rng.integers(0, 256, size=int(rng.integers(0, 200)))))
            try:
                read_mha(bytes(buf))
                outcomes["ok"] += 1
            except MhaError:
                outcomes["error"] += 1
        assert outcomes["ok"] + outcomes["error"] == 10_000
        assert outcomes["error"] > 1000  # the fuzzer is actually biting


# --------------------------------------------------------------------------
# 7. small-preset overfit on synthetic studies


def test_criterion_7_reduced_overfit(tmp_path):
    with criterion(7, "reduced preset reaches joint accuracy 1.0 on 32 "
                      "synthetic studies within 200 epochs", budget_s=600):
        records = synth_generate(32, str(tmp_path), seed=0,
                                 image_size=32, depth=4)
        cfg = TrainConfig(preset="reduced", epochs=200, batch_size=8,
                          lr=0.01, seed=0, val_count=0, checkpoint_every=200,
                          stop_accuracy=1.0,
                          preprocess=PreprocessConfig(target_size=32))
        _, metrics = train(records, cfg, str(tmp_path / "run"))
        assert metrics[-1].val_accuracy == 1.0
        assert metrics[-1].epoch <= 200


# --------------------------------------------------------------------------
# 8. training is bit-reproducible through the CLI


def test_criterion_8_cli_training_reproducible(tmp_path):
    with criterion(8, "two identical train commands produce byte-identical "
                      "metrics and checkpoints", budget_s=600):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--count", "16",
                     "--image-size", "32", "--depth", "4"]) == 0
        args = ["--data", str(data), "--preset", "reduced",
                "--target-size", "32", "--epochs", "5", "--batch-size", "4",
                "--checkpoint-every", "2", "--seed", "0"]
        assert main(["train", "--out", str(tmp_path / "a"), *args]) == 0
        assert main(["train", "--out", str(tmp_path / "b"), *args]) == 0
        names = ["metrics.csv", "epoch0002.ckpt", "epoch0004.ckpt", "final.ckpt"]
        for name in names:
            pa, pb = tmp_path / "a" / name, tmp_path / "b" / name
            assert pa.exists() and pb.exists(), name
            assert pa.read_bytes() == pb.read_bytes(), name


# --------------------------------------------------------------------------
# 9. describe matches the architecture table; preprocessing full-size scans


_EXPECTED_TABLE = [
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


def test_criterion_9_describe_and_full_size_preprocess(capsys):
    with criterion(9, "describe reproduces the architecture table; a "
                      "512x512 scan preprocesses to a unit-range 224 image",
                   budget_s=30):
        assert main(["describe", "--preset", "densenet121"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().splitlines()[:len(_EXPECTED_TABLE)]]
        expected = [[n, str(s), str(c)] for n, s, c in _EXPECTED_TABLE]
        assert rows == expected
        assert "connections: 7381" in out

        rng = np.random.default_rng(0)
        scan = rng.integers(-1024, 1600, size=(20, 512, 512)).astype(np.int16)
        image = preprocess(scan, PreprocessConfig())
        assert image.pixels.shape == (224, 224)
        assert image.pixels.dtype == np.float32
        assert image.pixels.min() >= 0.0 and image.pixels.max() <= 1.0

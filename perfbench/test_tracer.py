"""Self-checks of the benchmark: the tracer counts what the network does,
tracing leaves the arithmetic unchanged, BENCHMARK.json names what the code
reports, and a checkout without the program is refused.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import densect.model as model  # noqa: E402
import densect.tensor as tensor  # noqa: E402
from densect.data import load_study_image, synth_generate  # noqa: E402
from densect.mha import Volume, write_mha_file  # noqa: E402
from densect.preprocess import PreprocessConfig  # noqa: E402
from densect.tensor import Tensor, no_grad  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import OPS, PER_LAYER, Tracer  # noqa: E402


def test_densenet121_forward_records_every_op_once():
    net = model.DenseNetModel(replace(model.DENSENET121, input_size=32), seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        with no_grad():
            net.forward(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))
    finally:
        tracer.uninstall()
    counts, pools = {}, {}
    for _, _, name, _, _, _, attr in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
        if name == "tensor.pool2d":
            pools[attr[1]] = pools.get(attr[1], 0) + 1
    assert {op: counts.get(f"tensor.{op}", 0) for op in OPS} == {
        "conv2d": 120, "batchnorm2d": 121, "relu": 121, "pool2d": 5,
        "concat_channels": 58, "linear": 1}
    assert pools == {"max": 1, "average": 3, "global-average": 1}
    assert all(counts[f"model.{s}"] == 1 for s in
               ("stem", "block1", "transition1", "block4", "head"))
    assert model.conv2d is tensor.conv2d
    assert model.DenseBlock.__call__.__qualname__ == "DenseBlock.__call__"


def _run_twice(workload, spec, passes=2, **overrides):
    """Run set-up and a few passes untraced, then again traced, sharing one
    expectation table: the traced run must reproduce every digest."""
    expect = {}
    for traced in (False, True):
        checks = workloads.Checks(expect)
        w = workload(spec, checks)
        for key, value in overrides.items():
            setattr(w, key, value)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
            w.tracer = tracer
        try:
            w.setup()
            for _ in range(passes):
                w.run_pass()
        finally:
            if tracer:
                tracer.uninstall()
        assert checks.attempted > passes and checks.failed == 0, checks.failures
    return expect, tracer


def test_tracing_leaves_train_losses_unchanged(tmp_path):
    records = synth_generate(8, str(tmp_path / "studies"), seed=3, image_size=32, depth=2)
    images = np.stack([load_study_image(r, PreprocessConfig(target_size=32)) for r in records])
    labels = np.array([[r.label_covid, r.label_severe] for r in records], dtype=np.float32)
    np.savez(tmp_path / "images.npz", images=images[:, None].astype(np.float32), labels=labels)
    expect, tracer = _run_twice(workloads.TrainDenseNet121,
                                {"inputs": {"images": str(tmp_path / "images.npz")}})
    assert "loss_digest" in expect
    names = {s[2] for s in tracer.spans}
    assert {"training.step", "tensor.backward", "tensor.conv2d.bwd", "training.adam_step"} <= names


def test_tracing_leaves_probabilities_unchanged(tmp_path):
    rng = np.random.default_rng(0)
    studies = []
    for i in range(2):
        volume = Volume.from_array(rng.integers(0, 2000, size=(4, 48, 48)).astype(np.int16))
        volume.header.raw_fields["RescaleIntercept"] = "-1024"
        path = str(tmp_path / f"s{i}.mha")
        write_mha_file(path, volume, compress=i == 1)
        studies.append({"path": path, "zlib": i == 1})
    checkpoint = str(tmp_path / "net.ckpt")
    model.DenseNetModel(replace(model.DENSENET121, input_size=32), seed=0).save_checkpoint(checkpoint)
    expect, tracer = _run_twice(workloads.InferCold, {
        "seed": 0, "inputs": {"studies": studies, "checkpoint": checkpoint}})
    assert set(expect) == {"s0.mha", "s1.mha"}
    assert {"mha.read", "preprocess.total", "model.checkpoint_load"} <= {s[2] for s in tracer.spans}


def test_tracing_leaves_cli_artifacts_unchanged(tmp_path):
    synth_generate(8, str(tmp_path / "ds"), seed=1, image_size=32, depth=2)
    _, tracer = _run_twice(workloads.TrainReduced, {
        "inputs": {"dataset": str(tmp_path / "ds")}, "work": str(tmp_path / "work")},
        passes=1, epochs=2)
    names = [s[2] for s in tracer.spans]
    assert names.count("cli.cmd_train") == 2 and "model.checkpoint_save" in names


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer_cold",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""

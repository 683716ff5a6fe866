"""CLI tests: run main() in process and assert on exit codes and output."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densect
from densect import cli
from densect.cli import _PREPROCESS_KEYS, _SCHEMA, _build_parser, _resolve, _train_config, main
from densect.data import _MAX_LINE
from densect.mha import Volume, read_mha_file, write_mha_file
from densect.model import DENSENET121, REDUCED, DenseNetModel, feature_map_plan
from densect.training import (DivergenceError, EpochMetrics, EvalResult, PatientEval,
                              TrainConfig, metrics_from_csv)
from bytes_io import checkpoint_bytes, model_from_checkpoint_bytes


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    assert main(["synth", "--out", str(root), "--count", "8",
                 "--image-size", "32", "--depth", "4"]) == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(dataset), "--out", str(out),
                 "--preset", "reduced", "--epochs", "2", "--batch-size", "4",
                 "--target-size", "32", "--checkpoint-every", "1"])
    assert code == 0
    return out


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- usage layer

def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "train" in out and "describe" in out


@pytest.mark.parametrize("command", [
    "train", "evaluate", "predict", "describe", "synth", "curves"])
def test_subcommand_help_exits_zero(command, capsys):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert "usage:" in out and command in out


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "error" in err.lower()


def test_unknown_flag_named_in_error(capsys):
    code, _, err = run_cli(capsys, "describe", "--bogus-flag")
    assert code == 1
    assert "--bogus-flag" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "frobnicate" in err


def test_console_script_is_installed():
    # the child imports the package these tests import, installed or not
    src = str(Path(densect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "densect.cli",
                           "describe", "--preset", "reduced"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "layers: 17" in proc.stdout


# ---------------------------------------------------------------- config file

def test_flagless_train_resolves_to_the_config_defaults():
    args = _build_parser().parse_args(["train", "--data", "d", "--out", "o"])
    assert _train_config(_resolve(args)) == TrainConfig()


def test_config_precedence_flags_beat_file_beats_defaults(dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "epochs = 3\n"
                   "preset = reduced\n"
                   "target_size = 32\n"
                   "batch_size = 4\n")
    out_a = tmp_path / "a"
    code, _, _ = run_cli(capsys, "train", "--data", str(dataset),
                         "--out", str(out_a), "--config", str(cfg))
    assert code == 0
    # file beat the built-in default of 100 epochs
    assert len(metrics_from_csv(str(out_a / "metrics.csv"))) == 3
    out_b = tmp_path / "b"
    code, _, _ = run_cli(capsys, "train", "--data", str(dataset),
                         "--out", str(out_b), "--config", str(cfg),
                         "--epochs", "2")
    assert code == 0
    # explicit flag beat the file
    assert len(metrics_from_csv(str(out_b / "metrics.csv"))) == 2


def test_config_unknown_key_rejected(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    code, _, err = run_cli(capsys, "train", "--data", str(dataset),
                           "--out", str(tmp_path / "o"), "--config", str(cfg))
    assert code == 1
    assert "learning_rate" in err


def test_config_duplicate_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("epochs = 2\nepochs = 3\n")
    code, _, err = run_cli(capsys, "train", "--data", "x", "--out", "y",
                           "--config", str(cfg))
    assert code == 1
    assert "duplicate" in err


def test_config_bad_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = many\n")
    code, _, err = run_cli(capsys, "train", "--data", "x", "--out", "y",
                           "--config", str(cfg))
    assert code == 1
    assert "many" in err


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "train", "--data", "x", "--out", "y",
                           "--config", "/no/such.cfg")
    assert code == 1
    assert "config" in err


def test_config_file_that_is_not_utf8_is_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nepochs = 2\n")
    code, _, err = run_cli(capsys, "train", "--data", "x", "--out", "y", "--config", str(cfg))
    assert code == 1
    assert err == f"error: {cfg}:1: byte 0xe9 is not UTF-8\n"


@pytest.mark.parametrize("command, text, line, key", [
    ("predict", "threshold = 0.5\ntarget_size = 64\n", 2, "target_size"),
    ("evaluate", "epochs = 3\n", 1, "epochs"),
    ("evaluate", "batch_size = 2\nlr = 5\n", 2, "lr"),
], ids=["predict-target-size", "evaluate-epochs", "evaluate-lr"])
def test_config_file_sets_only_its_subcommands_keys(command, text, line, key,
                                                    dataset, trained, tmp_path, capsys):
    # a key another subcommand takes is refused, not accepted and ignored
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    source = (["--input", str(dataset / "data" / "synth001.mha")] if command == "predict"
              else ["--data", str(dataset), "--report", str(tmp_path / "r.csv")])
    code, out, err = run_cli(capsys, command, *source, "--config", str(cfg),
                             "--checkpoint", str(trained / "final.ckpt"))
    assert code == 1
    assert out == ""
    assert f"{cfg}:{line}: {command} takes no setting {key!r}" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key, value", [("epochs", "0"), ("preset", "vgg")],
                         ids=["epochs", "preset"])
def test_invalid_parameter_value_is_usage_error(key, value, dataset, tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--data", str(dataset),
                           "--out", str(tmp_path / "o"), f"--{key}", value)
    assert code == 1
    assert key in err


def _artifact_argv(command, dataset, trained, out_dir, report):
    # a run of command that would write out_dir (train) or report (evaluate)
    return {
        "train": ["--data", str(dataset), "--out", str(out_dir), "--preset", "reduced",
                  "--target-size", "32", "--batch-size", "4", "--epochs", "1"],
        "evaluate": ["--data", str(dataset), "--report", str(report),
                     "--checkpoint", str(trained / "final.ckpt")],
        "predict": ["--input", str(dataset / "data" / "synth001.mha"),
                    "--checkpoint", str(trained / "final.ckpt")],
    }[command]


@pytest.mark.parametrize("command, flag, key", [
    ("predict", "--clip-lo=-inf", "clip_lo"),
    ("evaluate", "--clip-lo=-inf", "clip_lo"),
    ("predict", "--clip-hi=inf", "clip_hi"),
    ("evaluate", "--clip-hi=nan", "clip_hi"),
    ("train", "--lr=inf", "lr"),
    ("train", "--lr=nan", "lr"),
])
def test_non_finite_setting_is_usage_error_before_any_artifact(
        command, flag, key, dataset, trained, tmp_path, capsys):
    out_dir, report = tmp_path / "o", tmp_path / "r.csv"
    argv = _artifact_argv(command, dataset, trained, out_dir, report)
    code, out, err = run_cli(capsys, command, *argv, flag)
    assert code == 1
    assert out == ""
    assert f"{key} must be" in err and "finite" in err
    assert not out_dir.exists() and not report.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_slice_index_without_the_index_policy_is_usage_error_before_any_artifact(
        command, dataset, trained, tmp_path, capsys):
    out_dir, report = tmp_path / "o", tmp_path / "r.csv"
    argv = _artifact_argv(command, dataset, trained, out_dir, report)
    code, out, err = run_cli(capsys, command, *argv, "--slice-index", "2")
    assert code == 1
    assert out == ""
    assert "slice_index 2" in err and "slice_policy 'middle-axial'" in err
    assert not out_dir.exists() and not report.exists()


# ---------------------------------------------------------------- setting flags

# evaluate and predict take the size from the checkpoint, not a flag
IMAGE_FLAGS = {"--clip-lo", "--clip-hi", "--crop-fraction", "--slice-policy", "--slice-index"}
SETTING_FLAGS = {
    "train": {"--preset", "--epochs", "--batch-size", "--lr", "--seed",
              "--val-count", "--threshold", "--checkpoint-every",
              "--stop-accuracy", "--target-size"} | IMAGE_FLAGS,
    "evaluate": {"--batch-size", "--threshold"} | IMAGE_FLAGS,
    "predict": {"--threshold"} | IMAGE_FLAGS,
}
OTHER_FLAGS = {
    "train": {"--data", "--out"},
    "evaluate": {"--data", "--checkpoint", "--report"},
    "predict": {"--input", "--checkpoint"},
}


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_evaluate_and_predict_take_the_size_from_the_checkpoint(command, dataset, trained,
                                                                tmp_path, capsys):
    # even the checkpoint's own size is refused: there is no second source
    source = (["--input", str(dataset / "data" / "synth001.mha")] if command == "predict"
              else ["--data", str(dataset), "--report", str(tmp_path / "r.csv")])
    code, out, err = run_cli(capsys, command, *source, "--target-size", "32",
                             "--checkpoint", str(trained / "final.ckpt"))
    assert code == 1
    assert out == ""
    assert "--target-size" in err


@pytest.mark.parametrize("command, count", [("train", 15), ("evaluate", 7), ("predict", 6)])
def test_subcommand_exposes_exactly_its_setting_flags(command, count):
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {opt for action in subparsers.choices[command]._actions
             for opt in action.option_strings}
    assert len(SETTING_FLAGS[command]) == count
    assert flags == (SETTING_FLAGS[command] | OTHER_FLAGS[command]
                     | {"--config", "-h", "--help"})


def test_readme_names_exactly_the_setting_keys():
    # the README's CLI section lists every setting key by name; a renamed or
    # added config field must show up there too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"^The preprocessing keys are (.*?)\.$", readme, re.M | re.S)
    preprocess_keys = re.findall(r"`(\w+)`", sentence.group(1))
    assert preprocess_keys == _PREPROCESS_KEYS
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    rows = {}
    for command in ("train", "evaluate", "predict"):
        cell = re.search(rf"^\| `{command}` \| (.*) \|$", readme, re.M).group(1)
        rows[command] = re.findall(r"`(\w+)`", cell)
        if cell.endswith("and the preprocessing keys"):
            rows[command] += preprocess_keys
        taken = {action.dest for action in subparsers.choices[command]._actions}
        assert rows[command] == [key for key in _SCHEMA if key in taken], command
    assert rows["train"] == list(_SCHEMA)
    assert f"| `train` | all {len(_SCHEMA)}: " in readme


@pytest.mark.parametrize("flags, read, expected", [
    (["--lr", "1e-3"], lambda c: c.lr, 1e-3),
    (["--slice-policy", "index", "--slice-index", "2"], lambda c: c.preprocess.slice_index, 2),
    (["--clip-lo", "-900"], lambda c: c.preprocess.clip_lo, -900.0),
    (["--stop-accuracy", "none"], lambda c: c.stop_accuracy, None),
], ids=["lr", "slice-index", "clip-lo", "stop-accuracy"])
def test_setting_flag_reaches_the_config_with_the_field_type(flags, read, expected):
    args = _build_parser().parse_args(["train", "--data", "d", "--out", "o", *flags])
    value = read(_train_config(_resolve(args)))
    assert value == expected
    assert type(value) is type(expected)


def test_explicit_none_flag_overrides_the_config_file(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("stop_accuracy = 1.0\n")
    base = ["train", "--data", "d", "--out", "o", "--config", str(cfg)]
    assert _resolve(_build_parser().parse_args(base))["stop_accuracy"] == 1.0
    settings = _resolve(_build_parser().parse_args(base + ["--stop-accuracy", "none"]))
    assert settings["stop_accuracy"] is None


# ---------------------------------------------------------------- data errors

def test_missing_reference_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--data", str(tmp_path),
                           "--out", str(tmp_path / "o"), "--preset", "reduced",
                           "--target-size", "32")
    assert code == 2
    assert "reference" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_reference_with_no_study_is_data_error_before_any_artifact(command, trained, tmp_path,
                                                                    capsys):
    data, out = tmp_path / "ds", tmp_path / "o"
    data.mkdir()
    (data / "reference.csv").write_text("PatientID,probCOVID,probSevere\n")
    if command == "train":
        argv = ["--out", str(out), "--preset", "reduced", "--target-size", "32"]
    else:
        argv = ["--checkpoint", str(trained / "final.ckpt"), "--report", str(out)]
    code, _, err = run_cli(capsys, command, "--data", str(data), *argv)
    assert code == 2
    assert str(data / "reference.csv") in err and "no study" in err
    assert not out.exists()


def test_bad_reference_label_names_the_file_before_any_artifact(tmp_path, capsys):
    data, out = tmp_path / "ds", tmp_path / "o"
    data.mkdir()
    (data / "reference.csv").write_text("PatientID,probCOVID,probSevere\np1,2,0\n")
    code, _, err = run_cli(capsys, "train", "--data", str(data), "--out", str(out),
                           "--preset", "reduced", "--target-size", "32")
    assert code == 2
    assert f"{data / 'reference.csv'}:2: probCOVID must be 0 or 1" in err
    assert not out.exists()


_LONG_FIELD = b"x" * 131073    # one past csv's field size limit


@pytest.mark.parametrize("row, message", [
    (b"p1,1,\xff0\n", "2: byte 0xff is not UTF-8"),
    (b"p1,1,0\n" + _LONG_FIELD + b",1,0\n", "3: field larger than field limit (131072)"),
], ids=["non-utf8", "field-over-limit"])
def test_unreadable_reference_text_is_data_error_naming_the_line(row, message, tmp_path, capsys):
    data, out = tmp_path / "ds", tmp_path / "o"
    data.mkdir()
    (data / "reference.csv").write_bytes(b"PatientID,probCOVID,probSevere\n" + row)
    code, _, err = run_cli(capsys, "train", "--data", str(data), "--out", str(out),
                           "--preset", "reduced", "--target-size", "32")
    assert code == 2
    assert err == f"error: {data / 'reference.csv'}:{message}\n"
    assert not out.exists()


def test_an_endless_input_stream_is_data_error(trained, capsys):
    # /dev/zero never ends: the checkpoint's magic and the volume's first
    # header line are each refused after a bounded read
    code, _, err = run_cli(capsys, "describe", "--checkpoint", "/dev/zero")
    assert code == 2
    assert err == "error: /dev/zero: bad magic: not a model checkpoint\n"
    code, _, err = run_cli(capsys, "predict", "--input", "/dev/zero",
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 2
    assert err == "error: /dev/zero: header line at offset 0 reaches 65536 bytes\n"


@pytest.mark.parametrize("command, code", [("config", 1), ("reference", 2), ("metrics", 1)])
def test_an_endless_text_line_is_refused_naming_line_one(command, code, tmp_path, capsys):
    # /dev/zero is one line that never ends; each text reader stops at its limit
    data, out = tmp_path / "ds", tmp_path / "o"
    data.mkdir()
    if command == "reference":
        (data / "reference.csv").symlink_to("/dev/zero")
    argv = {"config": ["train", "--data", str(data), "--out", str(out), "--config", "/dev/zero"],
            "reference": ["train", "--data", str(data), "--out", str(out)],
            "metrics": ["curves", "--metrics", "/dev/zero", "--out-dir", str(out)]}[command]
    path = data / "reference.csv" if command == "reference" else "/dev/zero"
    got, _, err = run_cli(capsys, *argv)
    assert got == code
    assert err == f"error: {path}:1: line reaches {_MAX_LINE} characters\n"
    assert not out.exists()


def test_a_report_that_cannot_be_written_names_its_path(dataset, trained, tmp_path, capsys):
    report = tmp_path / "no" / "such" / "r.csv"
    code, _, err = run_cli(capsys, "evaluate", "--data", str(dataset), "--report", str(report),
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{report}'\n"
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("old, new", [
    (b'"growth_rate": 8', b'"growth_rate": 8.0'),
    (b'"block_layers": [1, 2, 2, 1]', b'"block_layers": [1, 2.0, 2, 1]'),
    (b'"num_outputs": 2', b'"num_outputs": true'),
    (b'"input_size": 32', b'"input_size": 32.5'),
], ids=["float-growth-rate", "float-depth", "bool-outputs", "fractional-input-size"])
def test_predict_with_a_size_that_is_not_an_int_is_data_error(old, new, dataset, trained,
                                                              tmp_path, capsys):
    buf = (trained / "final.ckpt").read_bytes()
    cfg_len = int.from_bytes(buf[12:16], "little")
    cfg = buf[16:16 + cfg_len].replace(old, new)
    assert cfg != buf[16:16 + cfg_len]
    ckpt = tmp_path / "not_int.ckpt"
    ckpt.write_bytes(buf[:12] + len(cfg).to_bytes(4, "little") + cfg + buf[16 + cfg_len:])
    code, out, err = run_cli(capsys, "predict", "--input", str(dataset / "data" / "synth001.mha"),
                             "--checkpoint", str(ckpt))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {ckpt}: bad embedded config: ")
    assert "must be" in err and "positive int" in err


def test_corrupt_checkpoint_is_data_error(dataset, tmp_path, capsys):
    ckpt = tmp_path / "junk.ckpt"
    ckpt.write_bytes(b"\x00" * 64)
    code, _, err = run_cli(capsys, "evaluate", "--data", str(dataset),
                           "--checkpoint", str(ckpt))
    assert code == 2


def test_checkpoint_with_non_utf8_entry_name_is_data_error(trained, tmp_path, capsys):
    buf = bytearray((trained / "final.ckpt").read_bytes())
    cfg_len = int.from_bytes(buf[12:16], "little")
    buf[16 + cfg_len + 4 + 2] = 0xFF    # first byte of the first entry name
    ckpt = tmp_path / "bad_name.ckpt"
    ckpt.write_bytes(bytes(buf))
    code, _, err = run_cli(capsys, "describe", "--checkpoint", str(ckpt))
    assert code == 2
    assert "not UTF-8" in err


def test_predict_with_out_of_range_batchnorm_momentum_is_data_error(dataset, trained, tmp_path,
                                                                    capsys):
    buf = (trained / "final.ckpt").read_bytes()
    cfg_len = int.from_bytes(buf[12:16], "little")
    cfg = buf[16:16 + cfg_len].replace(b'"bn_momentum": 0.1', b'"bn_momentum": 2.0')
    assert cfg != buf[16:16 + cfg_len]
    ckpt = tmp_path / "bad_momentum.ckpt"
    ckpt.write_bytes(buf[:16] + cfg + buf[16 + cfg_len:])
    code, _, err = run_cli(capsys, "predict", "--input", str(dataset / "data" / "synth001.mha"),
                           "--checkpoint", str(ckpt))
    assert code == 2
    assert "bn_momentum" in err


@pytest.mark.parametrize("command", ["predict", "evaluate", "describe"])
@pytest.mark.parametrize("fault", ["input-size-16", "nan-weight", "negative-running-var",
                                   "truncated"])
def test_checkpoint_with_unusable_values_is_data_error(dataset, trained, tmp_path, capsys,
                                                       command, fault):
    buf = (trained / "final.ckpt").read_bytes()
    if fault == "truncated":
        buf = buf[:-3]    # inside the last payload, fc.bias's two floats
    elif fault == "input-size-16":
        cfg_len = int.from_bytes(buf[12:16], "little")
        cfg = buf[16:16 + cfg_len].replace(b'"input_size": 32', b'"input_size": 16')
        assert len(cfg) == cfg_len and cfg != buf[16:16 + cfg_len]
        buf = buf[:16] + cfg + buf[16 + cfg_len:]
    else:
        model = model_from_checkpoint_bytes(buf)
        if fault == "nan-weight":
            model.stem_conv.weight.data.flat[5] = np.nan
        else:
            model.stem_bn.running_var.data[3] = -0.25
        buf = checkpoint_bytes(model)
    ckpt = tmp_path / f"{fault}.ckpt"
    ckpt.write_bytes(buf)
    args = {"predict": ["--input", str(dataset / "data" / "synth001.mha")],
            "evaluate": ["--data", str(dataset), "--report", str(tmp_path / "r.csv")],
            "describe": []}[command]
    code, out, err = run_cli(capsys, command, *args, "--checkpoint", str(ckpt))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ")
    assert {"input-size-16": "input_size 16 leaves block4 an empty feature map",
            "nan-weight": "stem.conv.weight: non-finite value nan at flat index 5",
            "negative-running-var": "stem.bn.running_var: negative running variance -0.25 "
                                    "at flat index 3",
            "truncated": "fc.bias: truncated checkpoint: wanted 8 bytes at offset "
                         f"{len(buf) - 5}, have 5"}[fault] in err


def test_predict_missing_volume_is_data_error(trained, capsys):
    code, _, err = run_cli(capsys, "predict", "--input", "/no/volume.mha",
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 2
    assert err.startswith("error: /no/volume.mha: ")


@pytest.mark.parametrize("fault, message", [
    ("empty-slope", "RescaleSlope"),
    ("float32-overflowing-slope", "RescaleSlope: '1e39' is not finite as float32"),
    ("nan-voxel", "select_slice: slice 2 holds a non-finite value nan at (y, x) = (5, 7)"),
    ("truncated-header", "header ended without an ElementDataFile line"),
])
def test_predict_on_a_volume_that_would_score_nan_is_data_error(fault, message, dataset, trained,
                                                                tmp_path, capsys):
    # the error names the volume first, as evaluate names the study
    path = tmp_path / f"{fault}.mha"
    if fault == "truncated-header":
        path.write_bytes(b"ObjectType = Image\nNDims = 3\nDimSize = 4 4 2\n")
    else:
        vol = read_mha_file(str(dataset / "data" / "synth001.mha"))
        if fault == "empty-slope":
            vol.header.raw_fields["RescaleSlope"] = ""
        elif fault == "float32-overflowing-slope":
            vol.header.raw_fields["RescaleSlope"] = "1e39"
        else:
            voxels = vol.voxels.astype(np.float32)
            voxels[2, 5, 7] = np.nan
            vol = Volume(header=vol.header, voxels=voxels)
        write_mha_file(str(path), vol)
    code, out, err = run_cli(capsys, "predict", "--input", str(path),
                             "--checkpoint", str(trained / "final.ckpt"))
    assert code == 2
    assert err.startswith(f"error: {path}: ")
    assert message in err and "prob_covid" not in out


def test_train_batch_size_one_is_usage_error_before_any_artifact(dataset, tmp_path, capsys):
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--data", str(dataset), "--out", str(out),
                           "--preset", "reduced", "--target-size", "32", "--epochs", "1",
                           "--batch-size", "1")
    assert code == 1
    assert "batch_size must be >= 2" in err
    assert not (out / "metrics.csv").exists()


@pytest.fixture(scope="module")
def three_studies(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds3")
    assert main(["synth", "--out", str(root), "--count", "3",
                 "--image-size", "32", "--depth", "4"]) == 0
    return root


@pytest.mark.parametrize("target_size,code", [(32, 1), (64, 0)])
def test_one_study_training_split_needs_more_than_a_1x1_block4(
        three_studies, tmp_path, capsys, target_size, code):
    # --val-count 2 of 3 studies leaves one to train on; at 32 px block4 is 1x1
    out = tmp_path / "o"
    got, _, err = run_cli(capsys, "train", "--data", str(three_studies), "--out", str(out),
                          "--preset", "reduced", "--target-size", str(target_size),
                          "--batch-size", "2", "--val-count", "2", "--epochs", "1")
    assert got == code
    if code:
        assert "training split has 1 study" in err and "target size 32" in err
        assert not out.exists()
    else:
        assert len(metrics_from_csv(str(out / "metrics.csv"))) == 1


@pytest.mark.parametrize("target_size,code", [(16, 1), (28, 1), (29, 0)])
def test_a_target_size_below_29_is_refused_before_any_artifact(
        dataset, tmp_path, capsys, target_size, code):
    # below 29 px feature_map_plan gives block4 an empty map; at 29 it is 1x1
    out = tmp_path / "o"
    got, _, err = run_cli(capsys, "train", "--data", str(dataset), "--out", str(out),
                          "--preset", "reduced", "--target-size", str(target_size),
                          "--batch-size", "4", "--epochs", "1")
    assert got == code
    if code:
        assert f"input_size {target_size} " in err and "block4" in err
        assert not out.exists()
    else:
        assert len(metrics_from_csv(str(out / "metrics.csv"))) == 1


def test_evaluate_batch_size_one_stays_valid(dataset, trained, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--data", str(dataset),
                           "--checkpoint", str(trained / "final.ckpt"),
                           "--report", str(tmp_path / "r.csv"), "--batch-size", "1")
    assert code == 0
    assert "joint_accuracy=" in out


def test_negative_slice_index_is_usage_error(dataset, tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--data", str(dataset),
                           "--out", str(tmp_path / "o"), "--preset", "reduced",
                           "--target-size", "32", "--slice-policy", "index",
                           "--slice-index", "-1")
    assert code == 1
    assert "slice_index must be >= 0" in err


def test_divergence_is_exit_three(dataset, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli(capsys, "train", "--data", str(dataset),
                               "--out", str(tmp_path / "o"),
                               "--preset", "reduced", "--target-size", "32",
                               "--batch-size", "4", "--epochs", "30",
                               "--lr", "1e9")
    assert code == 3
    assert "diverged" in err


def test_divergence_after_finished_epochs_has_printed_their_lines(dataset, tmp_path, capsys,
                                                                   monkeypatch):
    # the epoch lines come from train's per-epoch callback, so the epochs
    # that finished are on stdout before the divergence ends the run
    finished = [EpochMetrics(1, 0.5, 0.25, 0.75), EpochMetrics(2, 0.125, 0.5, 1.0)]

    def diverging_train(records, config, out_dir, on_epoch):
        for m in finished:
            on_epoch(m)
        raise DivergenceError(3, 0, float("nan"), finished)

    monkeypatch.setattr(cli, "train", diverging_train)
    code, out, err = run_cli(capsys, "train", "--data", str(dataset),
                             "--out", str(tmp_path / "o"), "--preset", "reduced",
                             "--target-size", "32")
    assert code == 3 and "diverged" in err
    assert out == ("epoch 1: train_loss=0.5000 val_loss=0.2500 val_accuracy=0.7500\n"
                   "epoch 2: train_loss=0.1250 val_loss=0.5000 val_accuracy=1.0000\n")


def test_non_finite_gradient_is_exit_three_and_names_the_parameter(dataset, tmp_path, capsys,
                                                                   monkeypatch):
    import densect.training as training_module

    models = []

    class RecordedModel(training_module.DenseNetModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    real_backward = training_module.backward

    def backward_then_nan(loss):
        real_backward(loss)
        dict(models[0].named_parameters())["trans1.conv.weight"].grad[0, 0, 0, 0] = np.nan

    monkeypatch.setattr(training_module, "DenseNetModel", RecordedModel)
    monkeypatch.setattr(training_module, "backward", backward_then_nan)
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "train", "--data", str(dataset), "--out", str(out),
                                "--preset", "reduced", "--target-size", "32",
                                "--batch-size", "4", "--epochs", "2")
    assert code == 3
    assert err == ("error: gradient of trans1.conv.weight diverged to nan "
                   "at epoch 1, batch 0\n")
    assert stdout == ""
    assert not (out / "final.ckpt").exists()


# ---------------------------------------------------------------- train / evaluate

def test_train_reports_epochs_and_writes_artifacts(trained, capsys):
    assert (trained / "metrics.csv").exists()
    assert (trained / "epoch0001.ckpt").exists()
    assert (trained / "epoch0002.ckpt").exists()
    assert (trained / "final.ckpt").exists()


def test_evaluate_prints_patients_and_summary(dataset, trained, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "evaluate", "--data", str(dataset),
                           "--checkpoint", str(trained / "final.ckpt"),
                           "--report", str(report))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 8 patients + summary
    for line in lines[:-1]:
        assert re.match(
            r"^synth\d{3} prob_covid=\d\.\d{4} prob_severe=\d\.\d{4} "
            r"pred=[01],[01] label=[01],[01]$", line), line
    assert re.match(r"^loss=\d+\.\d{4} joint_accuracy=[01]\.\d{4}$", lines[-1])


def test_evaluate_report_bytes_quote_a_patient_id(dataset, trained, tmp_path, capsys,
                                                 monkeypatch):
    # the report is CSV: a field holding a comma or a quote is quoted, with
    # the quote doubled, and every line ends in \n
    rows = [PatientEval('a,"b"', 0.25, 0.75, 0, 1, 0, 1),
            PatientEval("synth001", 0.5, 0.125, 1, 0, 1, 1)]
    monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: EvalResult(0.5, 0.5, rows))
    report = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "evaluate", "--data", str(dataset),
                         "--checkpoint", str(trained / "final.ckpt"),
                         "--report", str(report))
    assert code == 0
    assert report.read_bytes() == (
        b"patient_id,prob_covid,prob_severe,pred_covid,pred_severe,label_covid,label_severe\n"
        b'"a,""b""",0.25,0.75,0,1,0,1\n'
        b"synth001,0.5,0.125,1,0,1,1\n")


def test_evaluate_writes_per_patient_report(dataset, trained, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "evaluate", "--data", str(dataset),
                         "--checkpoint", str(trained / "final.ckpt"),
                         "--report", str(report))
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == ("patient_id,prob_covid,prob_severe,"
                        "pred_covid,pred_severe,label_covid,label_severe")
    assert len(lines) == 9  # header + one row per study
    for line in lines[1:]:
        pid, pc, ps, predc, preds, labc, labs = line.split(",")
        assert pid.startswith("synth")
        assert 0.0 <= float(pc) <= 1.0 and 0.0 <= float(ps) <= 1.0
        assert {predc, preds, labc, labs} <= {"0", "1"}


def test_predict_output_format(dataset, trained, capsys):
    volume = str(dataset / "data" / "synth001.mha")
    code, out, _ = run_cli(capsys, "predict", "--input", volume,
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 0
    assert re.match(
        r"^prob_covid=\d\.\d{4} prob_severe=\d\.\d{4} covid=[01] severe=[01]$",
        out.strip()), out


def test_predict_infers_input_size_from_checkpoint(trained, tmp_path, capsys):
    # a 64x64 volume against a 32-input checkpoint: the CLI resamples to the
    # checkpoint's input size
    assert main(["synth", "--out", str(tmp_path), "--count", "1",
                 "--image-size", "64", "--depth", "4"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "predict",
                           "--input", str(tmp_path / "data" / "synth000.mha"),
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 0
    assert out.startswith("prob_covid=")


# ---------------------------------------------------------------- describe

def test_describe_matches_plan_rows(capsys):
    code, out, _ = run_cli(capsys, "describe", "--preset", "densenet121")
    assert code == 0
    lines = out.strip().splitlines()
    plan = feature_map_plan(DENSENET121)
    assert len(lines) == len(plan) + 3
    for line, (name, spatial, channels) in zip(lines, plan):
        assert line.split() == [name, str(spatial), str(channels)]
    assert lines[-3] == "layers: 121"
    assert lines[-2].startswith("parameters: ")
    assert lines[-1] == "connections: 7381"


def test_describe_preset_draws_no_weights(capsys, monkeypatch):
    drawn = DenseNetModel(DENSENET121, seed=0).count_params()
    _, expected, _ = run_cli(capsys, "describe", "--preset", "densenet121")

    def no_draw(*args, **kwargs):
        raise AssertionError("describe drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, out, _ = run_cli(capsys, "describe", "--preset", "densenet121")
    assert code == 0
    assert out == expected
    assert f"\nparameters: {drawn}\n" in out


def test_describe_reduced(capsys):
    code, out, _ = run_cli(capsys, "describe", "--preset", "reduced")
    assert code == 0
    assert "layers: 17" in out
    plan = feature_map_plan(REDUCED)
    assert out.strip().splitlines()[0].split() == \
        [plan[0][0], str(plan[0][1]), str(plan[0][2])]


def test_describe_from_checkpoint(trained, capsys):
    code, out, _ = run_cli(capsys, "describe",
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 0
    assert "layers: 17" in out  # reduced preset was trained


@pytest.mark.parametrize("preset", ["densenet121", "densenet169"])
def test_describe_takes_a_preset_or_a_checkpoint_not_both(trained, preset, capsys):
    code, out, err = run_cli(capsys, "describe", "--preset", preset,
                             "--checkpoint", str(trained / "final.ckpt"))
    assert code == 1
    assert out == ""
    assert "--checkpoint" in err and "--preset" in err


def test_describe_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "describe", "--preset", "vgg")
    assert code == 1
    assert "vgg" in err


# ---------------------------------------------------------------- synth / curves

def test_synth_reports_balance(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--count", "8", "--image-size", "32", "--depth", "4")
    assert code == 0
    assert "wrote 8 studies" in out
    assert "4 positive, 2 severe" in out


def test_synth_bad_count(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--count", "0")
    assert code == 1


def test_synth_count_has_n_alias(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--n", "4", "--image-size", "32", "--depth", "4")
    assert code == 0
    assert "wrote 4 studies" in out


def test_curves_trailing_average_hand_computed(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("epoch,train_loss,val_loss,val_accuracy\n"
                       "1,1.0,2.0,0.0\n"
                       "2,0.5,1.0,0.5\n"
                       "3,0.25,0.5,1.0\n")
    out_dir = tmp_path / "curves"
    code, out, _ = run_cli(capsys, "curves", "--metrics", str(metrics),
                           "--out-dir", str(out_dir), "--window", "2")
    assert code == 0
    loss_lines = (out_dir / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "epoch,train_loss,val_loss,train_loss_ma,val_loss_ma"
    rows = [line.split(",") for line in loss_lines[1:]]
    # window 2: ma[0]=1.0, ma[1]=(1.0+0.5)/2, ma[2]=(0.5+0.25)/2
    assert [float(r[3]) for r in rows] == [1.0, 0.75, 0.375]
    assert [float(r[4]) for r in rows] == [2.0, 1.5, 0.75]
    acc_lines = (out_dir / "accuracy.csv").read_text().strip().splitlines()
    assert acc_lines[0] == "epoch,val_accuracy,val_accuracy_ma"
    assert [float(line.split(",")[2]) for line in acc_lines[1:]] == [0.0, 0.25, 0.75]


def test_curves_window_longer_than_series(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("epoch,train_loss,val_loss,val_accuracy\n1,1.0,1.0,0.5\n")
    code, _, _ = run_cli(capsys, "curves", "--metrics", str(metrics),
                         "--out-dir", str(tmp_path / "c"), "--window", "10")
    assert code == 0
    line = (tmp_path / "c" / "loss.csv").read_text().strip().splitlines()[1]
    assert float(line.split(",")[3]) == 1.0


def test_curves_bad_inputs(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "curves", "--metrics", "/no/metrics.csv",
                         "--out-dir", str(tmp_path / "c"))
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    code, _, err = run_cli(capsys, "curves", "--metrics", str(bad),
                           "--out-dir", str(tmp_path / "c"))
    assert code == 1
    code, _, _ = run_cli(capsys, "curves", "--metrics", str(bad),
                         "--out-dir", str(tmp_path / "c"), "--window", "0")
    assert code == 1


@pytest.mark.parametrize("row, message", [
    (b"1,0.5,0.6,\xff\n", "2: byte 0xff is not UTF-8"),
    (b"1,0.5,0.6," + _LONG_FIELD + b"\n", "2: field larger than field limit (131072)"),
], ids=["non-utf8", "field-over-limit"])
def test_curves_on_unreadable_metrics_text_is_usage_error_naming_the_line(row, message, tmp_path,
                                                                           capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(b"epoch,train_loss,val_loss,val_accuracy\n" + row)
    code, _, err = run_cli(capsys, "curves", "--metrics", str(metrics),
                           "--out-dir", str(tmp_path / "c"))
    assert code == 1
    assert err == f"error: {metrics}:{message}\n"
    assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------- round trip

def test_synth_train_evaluate_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["synth", "--out", str(data), "--count", "12",
                 "--image-size", "32", "--depth", "4", "--seed", "3"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--preset", "reduced", "--target-size", "32",
                 "--epochs", "40", "--batch-size", "4",
                 "--stop-accuracy", "1.0", "--seed", "1"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "evaluate", "--data", str(data),
                           "--checkpoint", str(run / "final.ckpt"),
                           "--report", str(tmp_path / "report.csv"))
    assert code == 0
    summary = out.strip().splitlines()[-1]
    accuracy = float(summary.split("joint_accuracy=")[1])
    assert accuracy == 1.0  # overfit on its own training data

"""CLI tests: run main() in process and assert on exit codes and output."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from densect.cli import _PREPROCESS_KEYS, _SCHEMA, _build_parser, _resolve, _train_config, main
from densect.mha import read_mha_file, write_mha_file
from densect.model import DENSENET121, REDUCED, DenseNetModel, feature_map_plan
from densect.training import TrainConfig, metrics_from_csv


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
    proc = subprocess.run([sys.executable, "-m", "densect.cli",
                           "describe", "--preset", "reduced"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "layers: 17" in proc.stdout


# ---------------------------------------------------------------- config file

def test_flagless_train_resolves_to_the_config_defaults():
    args = _build_parser().parse_args(["train", "--data", "d", "--out", "o"])
    settings, provided = _resolve(args)
    assert provided == set()
    assert _train_config(settings) == TrainConfig()


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


@pytest.mark.parametrize("key, value", [("epochs", "0"), ("preset", "vgg")],
                         ids=["epochs", "preset"])
def test_invalid_parameter_value_is_usage_error(key, value, dataset, tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--data", str(dataset),
                           "--out", str(tmp_path / "o"), f"--{key}", value)
    assert code == 1
    assert key in err


# ---------------------------------------------------------------- setting flags

PREPROCESS_FLAGS = {"--target-size", "--clip-lo", "--clip-hi", "--crop-policy",
                    "--crop-fraction", "--slice-policy", "--slice-index"}
SETTING_FLAGS = {
    "train": {"--preset", "--epochs", "--batch-size", "--lr", "--seed",
              "--val-count", "--threshold", "--checkpoint-every",
              "--stop-accuracy"} | PREPROCESS_FLAGS,
    "evaluate": {"--batch-size", "--threshold"} | PREPROCESS_FLAGS,
    "predict": {"--threshold"} | PREPROCESS_FLAGS,
}
OTHER_FLAGS = {
    "train": {"--data", "--out"},
    "evaluate": {"--data", "--checkpoint", "--report"},
    "predict": {"--input", "--checkpoint"},
}


@pytest.mark.parametrize("command, count", [("train", 16), ("evaluate", 9), ("predict", 8)])
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


@pytest.mark.parametrize("flag, raw, read, expected", [
    ("--lr", "1e-3", lambda c: c.lr, 1e-3),
    ("--slice-index", "2", lambda c: c.preprocess.slice_index, 2),
    ("--clip-lo", "-900", lambda c: c.preprocess.clip_lo, -900.0),
    ("--stop-accuracy", "none", lambda c: c.stop_accuracy, None),
], ids=["lr", "slice-index", "clip-lo", "stop-accuracy"])
def test_setting_flag_reaches_the_config_with_the_field_type(flag, raw, read, expected):
    args = _build_parser().parse_args(["train", "--data", "d", "--out", "o", flag, raw])
    value = read(_train_config(_resolve(args)[0]))
    assert value == expected
    assert type(value) is type(expected)


def test_explicit_none_flag_overrides_the_config_file(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("stop_accuracy = 1.0\n")
    base = ["train", "--data", "d", "--out", "o", "--config", str(cfg)]
    settings, provided = _resolve(_build_parser().parse_args(base))
    assert settings["stop_accuracy"] == 1.0
    settings, provided = _resolve(_build_parser().parse_args(base + ["--stop-accuracy", "none"]))
    assert settings["stop_accuracy"] is None
    assert "stop_accuracy" in provided


# ---------------------------------------------------------------- data errors

def test_missing_reference_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--data", str(tmp_path),
                           "--out", str(tmp_path / "o"), "--preset", "reduced",
                           "--target-size", "32")
    assert code == 2
    assert "reference" in err


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


def test_predict_missing_volume_is_data_error(trained, capsys):
    code, _, err = run_cli(capsys, "predict", "--input", "/no/volume.mha",
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 2


def test_predict_with_an_empty_rescale_slope_is_data_error(dataset, trained, tmp_path, capsys):
    vol = read_mha_file(str(dataset / "data" / "synth001.mha"))
    vol.header.raw_fields["RescaleSlope"] = ""
    path = tmp_path / "blank_slope.mha"
    write_mha_file(str(path), vol)
    code, _, err = run_cli(capsys, "predict", "--input", str(path),
                           "--checkpoint", str(trained / "final.ckpt"))
    assert code == 2
    assert "RescaleSlope" in err


def test_train_batch_size_one_is_usage_error_before_any_artifact(dataset, tmp_path, capsys):
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--data", str(dataset), "--out", str(out),
                           "--preset", "reduced", "--target-size", "32", "--epochs", "1",
                           "--batch-size", "1")
    assert code == 1
    assert "batch_size must be >= 2" in err
    assert not (out / "metrics.csv").exists()


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
    # checkpoint's input size when --target-size is not given
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

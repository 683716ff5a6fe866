"""Command-line interface.

Subcommands: train, evaluate, predict, describe, synth, curves. Settings
resolve in three layers — built-in defaults, then a key=value config file,
then explicit flags — and unknown keys anywhere are an error, not a warning.

Every setting is both a config-file key and a ``--kebab-case`` flag
(``batch_size`` is ``--batch-size``); the keys, defaults and value types are
the TrainConfig and PreprocessConfig fields. train takes every setting,
evaluate takes batch_size, threshold and the preprocessing keys, and predict
takes threshold and the preprocessing keys.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(unreadable volume, malformed reference, bad checkpoint), 3 divergence.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import astuple, fields
from typing import Optional, Sequence

from .data import DataError, load_reference, synth_generate
from .mha import MhaError, read_mha_file, to_hounsfield
from .model import CheckpointError, DenseNetModel, count_connections, feature_map_plan, weighted_layer_count
from .preprocess import PreprocessConfig, PreprocessError, preprocess
from .training import (
    PRESETS,
    DivergenceError,
    PatientEval,
    TrainConfig,
    evaluate,
    metrics_from_csv,
    predict,
    train,
)


class UsageError(Exception):
    """Bad flags, bad config keys, or bad values: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _optional_float(raw: str) -> Optional[float]:
    return None if raw.lower() in ("none", "") else float(raw)


def _preprocess_settings(pre: PreprocessConfig) -> dict:
    """The flat key -> value form of a PreprocessConfig: every field, with
    ``clip_window`` split into ``clip_lo`` and ``clip_hi``."""
    flat = {f.name: getattr(pre, f.name) for f in fields(pre) if f.name != "clip_window"}
    flat["clip_lo"], flat["clip_hi"] = pre.clip_window
    return flat


def _settings(config: TrainConfig) -> dict:
    """The flat key -> value form of a config: every TrainConfig field but
    ``preprocess``, then the flat form of ``preprocess``."""
    flat = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "preprocess"}
    return flat | _preprocess_settings(config.preprocess)


# key -> (converter, default), both taken from the config dataclasses' defaults;
# the one default of None (stop_accuracy) marks an optional float
_SCHEMA = {key: (_optional_float if default is None else type(default), default)
           for key, default in _settings(TrainConfig()).items()}
_PREPROCESS_KEYS = list(_preprocess_settings(PreprocessConfig()))


def _read_config_file(path: str) -> dict:
    """Parse a key=value settings file; every key must be in the schema."""
    values = {}
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from e
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise UsageError(f"{path}:{line_no}: unknown setting {key!r}")
        if key in values:
            raise UsageError(f"{path}:{line_no}: duplicate setting {key!r}")
        convert = _SCHEMA[key][0]
        try:
            values[key] = convert(raw)
        except ValueError:
            raise UsageError(
                f"{path}:{line_no}: invalid value {raw!r} for {key}") from None
    return values


def _resolve(args) -> tuple[dict, set]:
    """Defaults < config file < flags; a setting counts as given when its
    flag is present, whatever its value (``--stop-accuracy none`` beats the
    file). Returns (settings, explicitly-set keys)."""
    given = vars(args)
    explicit = _read_config_file(given["config"]) if "config" in given else {}
    explicit |= {key: given[key] for key in _SCHEMA if key in given}
    defaults = {key: default for key, (_, default) in _SCHEMA.items()}
    return defaults | explicit, set(explicit)


def _preprocess_config(s: dict) -> PreprocessConfig:
    keys = [f.name for f in fields(PreprocessConfig) if f.name != "clip_window"]
    return PreprocessConfig(clip_window=(s["clip_lo"], s["clip_hi"]), **{k: s[k] for k in keys})


def _train_config(s: dict) -> TrainConfig:
    keys = [f.name for f in fields(TrainConfig) if f.name != "preprocess"]
    return TrainConfig(preprocess=_preprocess_config(s), **{k: s[k] for k in keys})


def _add_setting_flags(p: argparse.ArgumentParser, keys: Sequence[str]):
    """``--config`` plus a ``--kebab-case`` flag for each setting key, with
    the converter the config file uses for that key. A flag left out leaves
    no attribute, so ``_resolve`` can tell it from a given ``none``."""
    p.add_argument("--config", default=argparse.SUPPRESS, help="key=value settings file")
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=_SCHEMA[key][0],
                       default=argparse.SUPPRESS)


def _resolve_with_checkpoint(args) -> tuple[dict, DenseNetModel]:
    """Resolve settings and load ``args.checkpoint``; unless set explicitly,
    ``target_size`` is the checkpoint's input size."""
    settings, provided = _resolve(args)
    model = DenseNetModel.load_checkpoint(args.checkpoint)
    if "target_size" not in provided:
        settings["target_size"] = model.config.input_size
    return settings, model


# --------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    settings, _ = _resolve(args)
    config = _train_config(settings)
    records = load_reference(os.path.join(args.data, "reference.csv"))
    model, metrics = train(records, config, args.out)
    for m in metrics:
        print(f"epoch {m.epoch}: train_loss={m.train_loss:.4f} "
              f"val_loss={m.val_loss:.4f} val_accuracy={m.val_accuracy:.4f}")
    print(f"done: {len(metrics)} epochs, {model.count_params()} parameters, "
          f"artifacts in {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    settings, model = _resolve_with_checkpoint(args)
    records = load_reference(os.path.join(args.data, "reference.csv"))
    result = evaluate(model, records, _preprocess_config(settings),
                      batch_size=settings["batch_size"],
                      threshold=settings["threshold"])
    for row in result.per_patient:
        print(f"{row.patient_id} prob_covid={row.prob_covid:.4f} "
              f"prob_severe={row.prob_severe:.4f} "
              f"pred={row.pred_covid},{row.pred_severe} "
              f"label={row.label_covid},{row.label_severe}")
    print(f"loss={result.loss:.4f} joint_accuracy={result.joint_accuracy:.4f}")
    with open(args.report, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(PatientEval))
        writer.writerows(astuple(row) for row in result.per_patient)
    return 0


def cmd_predict(args) -> int:
    settings, model = _resolve_with_checkpoint(args)
    volume = to_hounsfield(read_mha_file(args.input))
    image = preprocess(volume, _preprocess_config(settings))
    batch = image.pixels[None, None, :, :]
    probs, labels = predict(model, batch, threshold=settings["threshold"])
    print(f"prob_covid={probs[0, 0]:.4f} prob_severe={probs[0, 1]:.4f} "
          f"covid={labels[0, 0]} severe={labels[0, 1]}")
    return 0


def cmd_describe(args) -> int:
    if args.checkpoint is not None:
        model = DenseNetModel.load_checkpoint(args.checkpoint)
        config = model.config
        n_params = model.count_params()
    else:
        if args.preset not in PRESETS:
            raise UsageError(f"preset must be one of {sorted(PRESETS)}, "
                             f"got {args.preset!r}")
        config = PRESETS[args.preset]
        n_params = DenseNetModel(config, seed=0).count_params()
    for name, spatial, channels in feature_map_plan(config):
        print(f"{name:<14}{spatial:>8}{channels:>10}")
    layers = weighted_layer_count(config)
    print(f"layers: {layers}")
    print(f"parameters: {n_params}")
    print(f"connections: {count_connections(layers)}")
    return 0


def cmd_synth(args) -> int:
    records = synth_generate(args.count, args.out, seed=args.seed,
                             image_size=args.image_size, depth=args.depth)
    positives = sum(r.label_covid for r in records)
    severe = sum(r.label_severe for r in records)
    print(f"wrote {len(records)} studies to {args.out} "
          f"({positives} positive, {severe} severe)")
    return 0


def _trailing_mean(values: list, window: int) -> list:
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        chunk = values[lo:i + 1]
        out.append(sum(chunk) / len(chunk))
    return out


def cmd_curves(args) -> int:
    if args.window < 1:
        raise UsageError(f"window must be >= 1, got {args.window}")
    try:
        metrics = metrics_from_csv(args.metrics)
    except ValueError as e:
        raise UsageError(str(e)) from None
    os.makedirs(args.out_dir, exist_ok=True)
    epochs = [m.epoch for m in metrics]
    train_ma = _trailing_mean([m.train_loss for m in metrics], args.window)
    val_ma = _trailing_mean([m.val_loss for m in metrics], args.window)
    acc_ma = _trailing_mean([m.val_accuracy for m in metrics], args.window)
    loss_path = os.path.join(args.out_dir, "loss.csv")
    with open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("epoch", "train_loss", "val_loss",
                         "train_loss_ma", "val_loss_ma"))
        for i, m in enumerate(metrics):
            writer.writerow((m.epoch, repr(m.train_loss), repr(m.val_loss),
                             repr(train_ma[i]), repr(val_ma[i])))
    acc_path = os.path.join(args.out_dir, "accuracy.csv")
    with open(acc_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("epoch", "val_accuracy", "val_accuracy_ma"))
        for i, m in enumerate(metrics):
            writer.writerow((m.epoch, repr(m.val_accuracy), repr(acc_ma[i])))
    print(f"wrote {loss_path} and {acc_path} "
          f"({len(epochs)} epochs, window {args.window})")
    return 0


# --------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="densect",
                     description="Train and run a dense CT classifier.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True,
                   help="directory with reference.csv and data/*.mha")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    _add_setting_flags(p, list(_SCHEMA))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", default="evaluation.csv",
                   help="where to write the per-patient CSV")
    _add_setting_flags(p, ["batch_size", "threshold", *_PREPROCESS_KEYS])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify a single .mha volume")
    p.add_argument("--input", required=True, help="volume file (.mha)")
    p.add_argument("--checkpoint", required=True)
    _add_setting_flags(p, ["threshold", *_PREPROCESS_KEYS])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("describe", help="print the architecture plan")
    p.add_argument("--preset", default="densenet121")
    p.add_argument("--checkpoint", help="describe the model in a checkpoint")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", "--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", dest="image_size", type=int, default=64)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("curves", help="derive smoothed curves from metrics.csv")
    p.add_argument("--metrics", required=True, help="metrics.csv from train")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--window", type=int, default=5,
                   help="trailing moving-average window (epochs)")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help prints and exits 0
        return int(e.code or 0)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DataError, MhaError, PreprocessError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

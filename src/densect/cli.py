"""Command-line interface.

Subcommands: train, evaluate, predict, describe, synth, curves. Settings
resolve in three layers — built-in defaults, then a key=value config file,
then explicit flags — and unknown keys anywhere are an error, not a warning.

Every setting is both a config-file key and a ``--kebab-case`` flag
(``batch_size`` is ``--batch-size``); the keys, defaults and value types are
the TrainConfig and PreprocessConfig fields. train takes every setting,
evaluate takes batch_size, threshold and the preprocessing keys but
target_size, and predict takes threshold and the same preprocessing keys:
a checkpoint's input size is the size they preprocess to. A config file may
set only the keys its subcommand takes.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(unreadable volume, malformed or empty reference, bad checkpoint), 3
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import Optional, Sequence

from .data import DataError, ItemError, load_reference, read_lines, synth_generate, write_csv
from .mha import MhaError, read_mha_file, to_hounsfield
from .model import CheckpointError, DenseNetModel, count_connections, feature_map_plan, weighted_layer_count
from .preprocess import PreprocessConfig, PreprocessError, preprocess
from .training import (
    PRESETS,
    DivergenceError,
    EpochMetrics,
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


# the flat key -> default form of TrainConfig(): every field but
# ``preprocess``, then every PreprocessConfig field
_DEFAULTS = asdict(TrainConfig())
_DEFAULTS |= _DEFAULTS.pop("preprocess")
# key -> converter; the one default of None (stop_accuracy) marks an
# optional float
_SCHEMA = {key: _optional_float if default is None else type(default)
           for key, default in _DEFAULTS.items()}
_PREPROCESS_KEYS = [f.name for f in fields(PreprocessConfig)]
# what evaluate and predict take: the checkpoint fixes target_size
_IMAGE_KEYS = [key for key in _PREPROCESS_KEYS if key != "target_size"]


def _read_config_file(path: str, command: str, keys: Sequence[str]) -> dict:
    """Parse a key=value settings file, read by ``read_lines``; every key must
    be one of ``keys``, the settings ``command`` takes."""
    values = {}
    try:
        for line_no, line in enumerate(read_lines(path, UsageError), start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{line_no}: expected key=value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in keys:
                raise UsageError(f"{path}:{line_no}: {command} takes no setting {key!r}")
            if key in values:
                raise UsageError(f"{path}:{line_no}: duplicate setting {key!r}")
            convert = _SCHEMA[key]
            try:
                values[key] = convert(raw)
            except ValueError:
                raise UsageError(
                    f"{path}:{line_no}: invalid value {raw!r} for {key}") from None
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from e
    return values


def _resolve(args) -> dict:
    """Defaults < config file < flags; a setting counts as given when its
    flag is present, whatever its value (``--stop-accuracy none`` beats the
    file)."""
    given, keys = vars(args), args.setting_keys
    from_file = _read_config_file(given["config"], args.command, keys) if "config" in given else {}
    return _DEFAULTS | from_file | {key: given[key] for key in keys if key in given}


def _preprocess_config(s: dict) -> PreprocessConfig:
    return PreprocessConfig(**{k: s[k] for k in _PREPROCESS_KEYS})


def _train_config(s: dict) -> TrainConfig:
    keys = [f.name for f in fields(TrainConfig) if f.name != "preprocess"]
    return TrainConfig(preprocess=_preprocess_config(s), **{k: s[k] for k in keys})


def _add_setting_flags(p: argparse.ArgumentParser, keys: Sequence[str]):
    """``--config`` plus a ``--kebab-case`` flag for each setting key, with
    the converter the config file uses for that key; ``keys`` is also what
    the config file may set. A flag left out leaves no attribute, so
    ``_resolve`` can tell it from a given ``none``."""
    p.set_defaults(setting_keys=tuple(keys))
    p.add_argument("--config", default=argparse.SUPPRESS, help="key=value settings file")
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=_SCHEMA[key],
                       default=argparse.SUPPRESS)


def _resolve_with_checkpoint(args) -> tuple[dict, DenseNetModel]:
    """Resolve settings and load ``args.checkpoint``, whose input size is the
    ``target_size``."""
    settings = _resolve(args)
    model = DenseNetModel.load_checkpoint(args.checkpoint)
    settings["target_size"] = model.config.input_size
    return settings, model


def _load_records(data_dir: str) -> list:
    """The studies listed in ``data_dir``'s reference.csv; a reference with
    no study is a data error."""
    path = os.path.join(data_dir, "reference.csv")
    records = load_reference(path)
    if not records:
        raise DataError(f"{path} lists no study")
    return records


# --------------------------------------------------------------------------
# subcommands


def _print_epoch(m: EpochMetrics) -> None:
    print(f"epoch {m.epoch}: train_loss={m.train_loss:.4f} "
          f"val_loss={m.val_loss:.4f} val_accuracy={m.val_accuracy:.4f}", flush=True)


def cmd_train(args) -> int:
    config = _train_config(_resolve(args))
    records = _load_records(args.data)
    model, metrics = train(records, config, args.out, on_epoch=_print_epoch)
    print(f"done: {len(metrics)} epochs, {model.count_params()} parameters, "
          f"artifacts in {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    settings, model = _resolve_with_checkpoint(args)
    records = _load_records(args.data)
    result = evaluate(model, records, _preprocess_config(settings),
                      batch_size=settings["batch_size"],
                      threshold=settings["threshold"])
    for row in result.per_patient:
        print(f"{row.patient_id} prob_covid={row.prob_covid:.4f} "
              f"prob_severe={row.prob_severe:.4f} "
              f"pred={row.pred_covid},{row.pred_severe} "
              f"label={row.label_covid},{row.label_severe}")
    print(f"loss={result.loss:.4f} joint_accuracy={result.joint_accuracy:.4f}")
    write_csv(args.report, [f.name for f in fields(PatientEval)],
              (astuple(row) for row in result.per_patient))
    return 0


def cmd_predict(args) -> int:
    settings, model = _resolve_with_checkpoint(args)
    try:
        image = preprocess(to_hounsfield(read_mha_file(args.input)), _preprocess_config(settings))
    except (MhaError, PreprocessError, OSError) as e:
        raise ItemError(args.input, str(e)) from e
    batch = image.pixels[None, None, :, :]
    probs, labels = predict(model, batch, threshold=settings["threshold"])
    print(f"prob_covid={probs[0, 0]:.4f} prob_severe={probs[0, 1]:.4f} "
          f"covid={labels[0, 0]} severe={labels[0, 1]}")
    return 0


def cmd_describe(args) -> int:
    if args.checkpoint is not None:
        model = DenseNetModel.load_checkpoint(args.checkpoint)
    else:
        model = DenseNetModel.allocated(PRESETS[args.preset or "densenet121"])
    config = model.config
    for name, spatial, channels in feature_map_plan(config):
        print(f"{name:<14}{spatial:>8}{channels:>10}")
    layers = weighted_layer_count(config)
    print(f"layers: {layers}")
    print(f"parameters: {model.count_params()}")
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
    write_csv(loss_path, ("epoch", "train_loss", "val_loss", "train_loss_ma", "val_loss_ma"),
              ((m.epoch, m.train_loss, m.val_loss, train_ma[i], val_ma[i])
               for i, m in enumerate(metrics)))
    acc_path = os.path.join(args.out_dir, "accuracy.csv")
    write_csv(acc_path, ("epoch", "val_accuracy", "val_accuracy_ma"),
              ((m.epoch, m.val_accuracy, acc_ma[i]) for i, m in enumerate(metrics)))
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
    _add_setting_flags(p, ["batch_size", "threshold", *_IMAGE_KEYS])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify a single .mha volume")
    p.add_argument("--input", required=True, help="volume file (.mha)")
    p.add_argument("--checkpoint", required=True)
    _add_setting_flags(p, ["threshold", *_IMAGE_KEYS])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("describe", help="print the architecture plan")
    # --preset has no default: argparse does not count a value that is the
    # default object as given, so "--preset densenet121" could pass the group
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="a preset architecture (default: densenet121)")
    source.add_argument("--checkpoint", help="describe the model in a checkpoint")
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

"""Training loop, Adam, the two-head BCE objective, and evaluation.

The model emits two logits per study (positive, severe); both heads train
jointly against a single mean binary-cross-entropy. metrics.csv is rewritten
with every row so far as each epoch ends, checkpoints are written on a fixed
cadence, and the whole run is a pure function of (records, config), so two
runs with the same inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .data import DatasetSplit, StudyRecord, batches, read_csv, split, write_csv
from .model import DENSENET121, DENSENET169, REDUCED, DenseNetModel, feature_map_plan
from .preprocess import PreprocessConfig
from .tensor import ShapeError, Tensor, backward, no_grad, record, stable_sigmoid

PRESETS = {
    "reduced": REDUCED,
    "densenet121": DENSENET121,
    "densenet169": DENSENET169,
}
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator floor


class TrainingError(RuntimeError):
    """Base class for failures raised by the training loop."""


class IncompleteGradientError(TrainingError):
    """An optimizer step ran before every parameter had a gradient."""


class DivergenceError(TrainingError):
    """The loss, or the gradient of the parameter named ``parameter``, became
    non-finite; carries where, and the metrics so far."""

    def __init__(self, epoch: int, batch_index: int, value: float,
                 metrics: list["EpochMetrics"], parameter: Optional[str] = None):
        what = "loss" if parameter is None else f"gradient of {parameter}"
        super().__init__(
            f"{what} diverged to {value} at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.metrics = metrics
        self.parameter = parameter


# --------------------------------------------------------------------------
# loss


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy over every logit, computed from logits.

    Uses the overflow-free identity
        bce(x, y) = max(x, 0) - x*y + log(1 + exp(-|x|))
    so extreme logits give exact saturated losses instead of inf/nan.
    The result is a float64 scalar; the gradient is (sigmoid(x) - y) / n.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(
            f"bce_with_logits: targets shape {t.shape} != logits shape {logits.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce_with_logits: targets must be binary (0 or 1)")
    x = logits.data.astype(np.float64)
    per_element = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    n = x.size
    dtype = logits.data.dtype

    def rule(g):
        gx = (stable_sigmoid(x) - t) * (np.asarray(g).item() / n)
        return (gx.astype(dtype),)

    return record((logits,), np.array(per_element.mean()), rule)


# --------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment buffers, one pair per parameter, plus step count."""

    m: list
    v: list
    step: int = 0

    @staticmethod
    def for_params(params: Sequence[Tensor]) -> "AdamState":
        return AdamState(m=[np.zeros_like(p.data) for p in params],
                         v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[Tensor], state: AdamState, lr: float):
    """One bias-corrected Adam update in place; clears gradients after."""
    if len(params) != len(state.m):
        raise ValueError("adam_step: state was built for a different parameter list")
    for i, p in enumerate(params):
        if p.grad is None:
            raise IncompleteGradientError(
                f"parameter {i} has no gradient; run backward() before adam_step")
    state.step += 1
    t = state.step
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    # the same float operations in the same order as the out-of-place form,
    # written into m, v and p; g is only read
    for i, p in enumerate(params):
        g, m, v = p.grad, state.m[i], state.v[i]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
        p.grad = None


# --------------------------------------------------------------------------
# inference and metrics


def _classify(model: DenseNetModel, images: np.ndarray, threshold: float):
    # eval-mode logits under no_grad, their float64 sigmoid, and hard labels
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    with no_grad():
        logits = model.forward(Tensor(images), training=False)
    probs = stable_sigmoid(logits.data.astype(np.float64))
    return logits, probs, (probs >= threshold).astype(np.int64)


def predict(model: DenseNetModel, images: np.ndarray, threshold: float = 0.5):
    """Probabilities and hard labels for a batch of (N, 1, S, S) images.

    A probability equal to the threshold counts as positive. Runs in eval
    mode under no_grad, so the model is left untouched.
    """
    _, probs, labels = _classify(model, images, threshold)
    return probs, labels


def joint_accuracy(pred_labels: np.ndarray, target_labels: np.ndarray) -> float:
    """Fraction of rows where every column matches — both heads at once."""
    pred = np.asarray(pred_labels)
    target = np.asarray(target_labels)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeError(
            f"joint_accuracy: shapes must match and be 2-D, got "
            f"{pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise ValueError("joint_accuracy: no rows")
    return float(np.all(pred == target, axis=1).mean())


@dataclass
class PatientEval:
    patient_id: str
    prob_covid: float
    prob_severe: float
    pred_covid: int
    pred_severe: int
    label_covid: int
    label_severe: int


@dataclass
class EvalResult:
    loss: float
    joint_accuracy: float
    per_patient: list


def evaluate(model: DenseNetModel, records: Sequence[StudyRecord],
             preprocess_config: PreprocessConfig, batch_size: int = 8,
             threshold: float = 0.5, cache: Optional[dict] = None) -> EvalResult:
    """Dataset-mean BCE, joint accuracy, and a per-patient table.

    Purely observational: eval mode, no gradients, no state updates.
    """
    loss_sum = 0.0
    count = 0
    preds = []
    targets = []
    table = []
    for batch in batches(records, batch_size, preprocess_config, cache=cache):
        logits, probs, labels = _classify(model, batch.images, threshold)
        loss = bce_with_logits(logits, batch.labels)
        loss_sum += loss.item() * batch.labels.size
        count += batch.labels.size
        target = batch.labels.astype(np.int64)
        preds.append(labels)
        targets.append(target)
        for pid, p, lab, tgt in zip(batch.patient_ids, probs, labels, target):
            table.append(PatientEval(
                patient_id=pid,
                prob_covid=float(p[0]), prob_severe=float(p[1]),
                pred_covid=int(lab[0]), pred_severe=int(lab[1]),
                label_covid=int(tgt[0]), label_severe=int(tgt[1])))
    acc = joint_accuracy(np.concatenate(preds), np.concatenate(targets))
    return EvalResult(loss=loss_sum / count, joint_accuracy=acc,
                      per_patient=table)


# --------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    preset: str = "densenet121"
    epochs: int = 100
    batch_size: int = 8
    lr: float = 0.01
    seed: int = 0
    val_count: int = 0
    threshold: float = 0.5
    checkpoint_every: int = 10
    stop_accuracy: Optional[float] = None
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {sorted(PRESETS)}, got {self.preset!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch statistics need two studies "
                             f"per batch), got {self.batch_size}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.val_count < 0:
            raise ValueError(f"val_count must be >= 0, got {self.val_count}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.stop_accuracy is not None and not 0.0 < self.stop_accuracy <= 1.0:
            raise ValueError(f"stop_accuracy must be in (0, 1], got {self.stop_accuracy}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


METRICS_HEADER = tuple(f.name for f in fields(EpochMetrics))


def _model_config(train_config: TrainConfig):
    return replace(PRESETS[train_config.preset], input_size=train_config.preprocess.target_size)


def train(records: Sequence[StudyRecord], config: TrainConfig, out_dir: str,
          on_epoch: Optional[Callable[[EpochMetrics], None]] = None
          ) -> tuple[DenseNetModel, list[EpochMetrics]]:
    """Train from scratch, writing metrics.csv and checkpoints to out_dir.

    Validation uses the held-out split when val_count > 0, otherwise the
    training set itself (useful for overfitting sanity runs). Artifacts, each
    replaced whole so a failed write leaves the previous file and no ``.tmp``:
    metrics.csv (its header, then every row so far after each epoch),
    epoch%04d.ckpt every checkpoint_every epochs, and final.ckpt. ``on_epoch`` is
    called with each epoch's metrics once its row and checkpoint are
    written. With stop_accuracy set, training halts early once validation
    joint accuracy reaches it. A non-finite loss, or a non-finite gradient
    after backward, raises DivergenceError before Adam runs; it names the
    parameter, and the rows and checkpoints already written stay.

    A trailing batch containing a single study is skipped: batch statistics
    are undefined for one sample once the feature map reaches 1x1. The
    per-epoch shuffle rotates which study that is, so none is starved. A
    target size whose block4 map is empty (below 29 px) is refused by
    DenseNetConfig, and no study at all, or a training split of one study at
    a size whose block4 map is 1x1, has no batch to train on: each is a
    ValueError before any artifact is written.
    """
    if not records:
        raise ValueError("no study to train on")
    if config.val_count > 0:
        parts = split(records, config.val_count, seed=config.seed)
    else:
        parts = DatasetSplit(train=tuple(records), val=())
    train_records = parts.train
    val_records = parts.val if parts.val else parts.train
    model_config = _model_config(config)
    block4 = next(s for name, s, _ in feature_map_plan(model_config) if name == "block4")
    if len(train_records) == 1 and block4 == 1:
        raise ValueError(
            f"the training split has 1 study and target size {model_config.input_size} "
            "leaves block4 a 1x1 map, so batch statistics are undefined; use more "
            "training studies or a larger target size")
    os.makedirs(out_dir, exist_ok=True)
    model = DenseNetModel(model_config, seed=config.seed)
    named_params = model.named_parameters()
    params = [p for _, p in named_params]
    state = AdamState.for_params(params)
    cache: dict = {}
    metrics: list[EpochMetrics] = []
    metrics_path = os.path.join(out_dir, "metrics.csv")
    write_csv(metrics_path, METRICS_HEADER, ())
    for epoch in range(1, config.epochs + 1):
        batch_losses = []
        for b_index, batch in enumerate(batches(
                train_records, config.batch_size, config.preprocess,
                epoch=epoch, shuffle_seed=config.seed, cache=cache)):
            if batch.images.shape[0] == 1 and len(train_records) > 1:
                continue
            logits = model.forward(Tensor(batch.images), training=True)
            loss = bce_with_logits(logits, batch.labels)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(epoch, b_index, value, metrics)
            backward(loss)
            # backward freed the activations; the emptied graph is dropped
            # before the check and Adam allocate, which trims the heap less
            del logits, loss
            for name, p in named_params:
                if not np.isfinite(p.grad).all():
                    bad = p.grad[~np.isfinite(p.grad)][0]
                    raise DivergenceError(epoch, b_index, bad, metrics, parameter=name)
            adam_step(params, state, config.lr)
            batch_losses.append(value)
        train_loss = float(np.mean(batch_losses))
        ev = evaluate(model, val_records, config.preprocess,
                      batch_size=config.batch_size,
                      threshold=config.threshold, cache=cache)
        row = EpochMetrics(epoch=epoch, train_loss=train_loss,
                           val_loss=ev.loss, val_accuracy=ev.joint_accuracy)
        metrics.append(row)
        write_csv(metrics_path, METRICS_HEADER, map(astuple, metrics))
        if epoch % config.checkpoint_every == 0:
            model.save_checkpoint(os.path.join(out_dir, f"epoch{epoch:04d}.ckpt"))
        if on_epoch is not None:
            on_epoch(row)
        if config.stop_accuracy is not None and \
                row.val_accuracy >= config.stop_accuracy:
            break
    model.save_checkpoint(os.path.join(out_dir, "final.ckpt"))
    return model, metrics


def metrics_from_csv(path: str) -> list[EpochMetrics]:
    """Read back a metrics.csv written by train(); every error begins with
    the path, and the line where there is one: ``{path}:{line}: ...``."""
    rows = read_csv(path)
    where, header = next(rows, (path, None))
    if header is None or tuple(header) != METRICS_HEADER:
        raise ValueError(f"{where}: unexpected metrics header {header}")
    metrics = []
    for where, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
        try:
            metrics.append(EpochMetrics(int(row[0]), *map(float, row[1:])))
        except ValueError:
            raise ValueError(f"{where}: non-numeric metrics row: {row}") from None
    return metrics

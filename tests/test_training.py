"""Training-layer tests.

Two independent oracles anchor this file: a naive float64 cross-entropy
(the textbook -[y log s + (1-y) log(1-s)] formula, valid away from
saturation) and a pure-Python scalar Adam simulation transcribed from the
update equations. The production code is checked against both before any
end-to-end run is trusted.
"""

import gc
import os
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densect.data import StudyRecord, load_study_image, synth_generate
from densect.gradcheck import grad_check
from densect.model import REDUCED, DenseNetModel
from densect.preprocess import PreprocessConfig
from densect.tensor import ShapeError, Tensor, backward
from densect.training import (
    AdamState,
    DivergenceError,
    EpochMetrics,
    EvalResult,
    IncompleteGradientError,
    TrainConfig,
    adam_step,
    bce_with_logits,
    evaluate,
    joint_accuracy,
    metrics_from_csv,
    predict,
    train,
)

CFG32 = PreprocessConfig(target_size=32)


def bce_naive(x, y):
    """Textbook binary cross-entropy in float64; unstable for large |x|."""
    s = 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))))


def adam_scalar_sim(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, p0=1.0):
    """Scalar Adam transcribed from the update equations, step by step."""
    p, m, v = p0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(p)
    return trajectory


# ---------------------------------------------------------------- bce


def loss_of(x, y):
    return bce_with_logits(Tensor(np.asarray(x, dtype=np.float64)), y).item()


def test_bce_saturated_logits_are_exact():
    assert loss_of([[-100.0]], [[1.0]]) == 100.0
    assert loss_of([[100.0]], [[0.0]]) == 100.0
    assert loss_of([[1000.0]], [[0.0]]) == 1000.0
    assert loss_of([[-1e6]], [[1.0]]) == 1e6  # finite even at absurd logits
    assert loss_of([[1e6]], [[1.0]]) == 0.0
    # the correct-side saturation is a tiny positive number, not 0 or nan
    good = loss_of([[100.0]], [[1.0]])
    assert 0.0 < good < 1e-40


def test_bce_at_zero_logit_is_log2():
    assert loss_of([[0.0]], [[0.0]]) == pytest.approx(np.log(2.0), rel=1e-15)
    assert loss_of([[0.0]], [[1.0]]) == pytest.approx(np.log(2.0), rel=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_bce_matches_naive_formula_in_safe_range(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, size=(4, 2))
    y = rng.integers(0, 2, size=(4, 2)).astype(np.float64)
    assert loss_of(x, y) == pytest.approx(bce_naive(x, y), abs=1e-12)


def test_bce_is_mean_over_all_elements():
    x = np.array([[0.0, 0.0], [0.0, 0.0]])
    y = np.zeros((2, 2))
    assert loss_of(x, y) == pytest.approx(np.log(2.0), rel=1e-15)


def test_bce_gradient_closed_form():
    x = np.array([[1.5, -2.0], [0.0, 7.0]])
    y = np.array([[1.0, 0.0], [1.0, 1.0]])
    logits = Tensor(x.astype(np.float64), requires_grad=True)
    backward(bce_with_logits(logits, y))
    sig = 1.0 / (1.0 + np.exp(-x))
    npt.assert_allclose(logits.grad, (sig - y) / x.size, rtol=1e-12)


def test_bce_gradient_against_finite_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.uniform(-3, 3, size=(3, 2)), requires_grad=True)
    y = rng.integers(0, 2, size=(3, 2)).astype(np.float64)
    report = grad_check(lambda: bce_with_logits(logits, y), {"logits": logits})
    assert report.passed, report.summary()


def test_bce_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bce_with_logits(logits, np.full((2, 2), 0.5))
    with pytest.raises(ShapeError):
        bce_with_logits(logits, np.zeros((3, 2)))


def test_bce_loss_is_float64_scalar():
    out = bce_with_logits(Tensor(np.zeros((2, 2), dtype=np.float32)), np.zeros((2, 2)))
    assert out.size == 1
    assert out.dtype == np.float64


# ---------------------------------------------------------------- adam


def run_adam_on_quadratic(steps, lr):
    """Drive adam_step on f(p) = p^2 with hand-fed gradients."""
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState.for_params([p])
    trajectory = []
    for _ in range(steps):
        p.grad = 2.0 * p.data
        adam_step([p], state, lr)
        trajectory.append(float(p.data[0]))
    return trajectory


def test_adam_matches_scalar_simulation():
    # identical gradient stream -> identical trajectory
    lr = 0.1
    sim_p, sim_m, sim_v = 1.0, 0.0, 0.0
    got = []
    expected = []
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState.for_params([p])
    for t in range(1, 51):
        g = 2.0 * float(p.data[0])
        p.grad = np.array([g])
        adam_step([p], state, lr)
        got.append(float(p.data[0]))
        sim_m = 0.9 * sim_m + 0.1 * g
        sim_v = 0.999 * sim_v + 0.001 * g * g
        sim_p = sim_p - lr * (sim_m / (1 - 0.9 ** t)) / (
            np.sqrt(sim_v / (1 - 0.999 ** t)) + 1e-8)
        expected.append(sim_p)
    npt.assert_allclose(got, expected, rtol=1e-12)


def adam_step_out_of_place(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The earlier adam_step, which rebinds m, v and a fresh update array."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for i, p in enumerate(params):
        g = p.grad
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)
        p.grad = None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_is_bit_identical_to_out_of_place(dtype):
    rng = np.random.default_rng(4)
    shapes = [(3, 4, 3, 3), (5,), (2, 7)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype) for s in shapes]
    ref = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    state, ref_state = AdamState.for_params(params), AdamState.for_params(ref)
    for _ in range(5):
        grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                 for s in shapes]
        held = [g.copy() for g in grads]
        for p, q, g in zip(params, ref, grads):
            p.grad, q.grad = g, g.copy()
        adam_step(params, state, lr=0.003)
        adam_step_out_of_place(ref, ref_state, lr=0.003)
        for g, before in zip(grads, held):
            npt.assert_array_equal(g, before)   # the caller's gradients are untouched
        for got, want in zip(params, ref):
            assert got.data.dtype == dtype and got.grad is None
            npt.assert_array_equal(got.data, want.data)
        for name in ("m", "v"):
            for got, want in zip(getattr(state, name), getattr(ref_state, name)):
                assert got.dtype == dtype
                npt.assert_array_equal(got, want)
    assert state.step == ref_state.step == 5


def test_adam_descends_the_quadratic():
    traj = run_adam_on_quadratic(50, lr=0.1)
    assert abs(traj[-1]) < 0.2  # well on the way from 1.0 toward 0
    assert abs(traj[-1]) < abs(traj[0])


def test_adam_magnitude_strictly_decreases_at_small_lr():
    # with lr=0.01 the iterate never overshoots zero in 50 steps, so every
    # step must strictly shrink |p|
    traj = [1.0] + run_adam_on_quadratic(50, lr=0.01)
    for a, b in zip(traj, traj[1:]):
        assert abs(b) < abs(a)


def test_adam_zero_gradients_never_move_params():
    p = Tensor(np.array([0.7, -1.3]), requires_grad=True)
    before = p.data.copy()
    state = AdamState.for_params([p])
    for _ in range(10):
        p.grad = np.zeros(2)
        adam_step([p], state, lr=0.5)
    npt.assert_array_equal(p.data, before)
    assert state.step == 10


def test_adam_first_step_is_roughly_lr_sized():
    # bias correction makes step 1 magnitude ~= lr regardless of grad scale
    for g0 in (1e-3, 1.0, 1e3):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState.for_params([p])
        p.grad = np.array([g0])
        adam_step([p], state, lr=0.05)
        assert p.data[0] == pytest.approx(-0.05, rel=1e-4)


def test_adam_requires_gradients_everywhere():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    a.grad = np.ones(3)
    state = AdamState.for_params([a, b])
    with pytest.raises(IncompleteGradientError):
        adam_step([a, b], state, lr=0.1)


def test_adam_clears_gradients_and_counts_steps():
    p = Tensor(np.ones(2), requires_grad=True)
    state = AdamState.for_params([p])
    p.grad = np.ones(2)
    adam_step([p], state, lr=0.01)
    assert p.grad is None
    assert state.step == 1


def test_adam_lr_zero_is_a_no_op_on_params():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    state = AdamState.for_params([p])
    p.grad = np.array([0.5, -0.5, 2.0])
    adam_step([p], state, lr=0.0)
    npt.assert_array_equal(p.data, before)


def test_adam_state_size_mismatch():
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.ones(2)
    with pytest.raises(ValueError):
        adam_step([p], AdamState.for_params([p, p]), lr=0.1)


# ---------------------------------------------------------------- predict / accuracy


def zeroed_head_model():
    model = DenseNetModel(REDUCED, seed=0)
    model.fc.weight.data[:] = 0.0
    model.fc.bias.data[:] = 0.0
    return model


def test_predict_threshold_is_inclusive():
    model = zeroed_head_model()
    images = np.random.default_rng(0).uniform(0, 1, size=(3, 1, 32, 32)).astype(np.float32)
    probs, labels = predict(model, images, threshold=0.5)
    npt.assert_array_equal(probs, np.full((3, 2), 0.5))  # zero logits exactly
    npt.assert_array_equal(labels, np.ones((3, 2), dtype=np.int64))
    _, labels_hi = predict(model, images, threshold=0.51)
    npt.assert_array_equal(labels_hi, np.zeros((3, 2), dtype=np.int64))


def test_predict_leaves_model_untouched():
    model = DenseNetModel(REDUCED, seed=1)
    state_before = {k: v.data.copy() for k, v in model.named_state()}
    images = np.random.default_rng(1).uniform(0, 1, size=(2, 1, 32, 32)).astype(np.float32)
    predict(model, images)
    for k, v in model.named_state():
        npt.assert_array_equal(v.data, state_before[k])


def test_predict_threshold_validation():
    with pytest.raises(ValueError):
        predict(zeroed_head_model(), np.zeros((1, 1, 32, 32), np.float32), threshold=1.5)


def test_joint_accuracy_hand_counted():
    pred = np.array([[1, 0], [1, 1], [0, 0]])
    target = np.array([[1, 0], [1, 0], [0, 1]])
    assert joint_accuracy(pred, target) == pytest.approx(1.0 / 3.0)


def test_joint_accuracy_perfect_and_zero():
    a = np.array([[1, 1], [0, 0]])
    assert joint_accuracy(a, a) == 1.0
    assert joint_accuracy(a, 1 - a) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_joint_accuracy_bounded_by_each_head(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 2, size=(n, 2))
    target = rng.integers(0, 2, size=(n, 2))
    joint = joint_accuracy(pred, target)
    head0 = float((pred[:, 0] == target[:, 0]).mean())
    head1 = float((pred[:, 1] == target[:, 1]).mean())
    assert joint <= min(head0, head1) + 1e-12


def test_joint_accuracy_validation():
    with pytest.raises(ShapeError):
        joint_accuracy(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        joint_accuracy(np.zeros((0, 2)), np.zeros((0, 2)))


# ---------------------------------------------------------------- evaluate


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    records = synth_generate(8, str(root), seed=0, image_size=32, depth=4)
    return records


def test_evaluate_reports_consistent_table(synth_dir):
    model = DenseNetModel(REDUCED, seed=2)
    result = evaluate(model, synth_dir, CFG32, batch_size=3)
    assert isinstance(result, EvalResult)
    assert len(result.per_patient) == 8
    by_id = {r.patient_id: r for r in synth_dir}
    table_pred = []
    table_target = []
    for row in result.per_patient:
        rec = by_id[row.patient_id]
        assert row.label_covid == rec.label_covid
        assert row.label_severe == rec.label_severe
        assert row.pred_covid == int(row.prob_covid >= 0.5)
        assert row.pred_severe == int(row.prob_severe >= 0.5)
        table_pred.append([row.pred_covid, row.pred_severe])
        table_target.append([row.label_covid, row.label_severe])
    assert result.joint_accuracy == pytest.approx(
        joint_accuracy(np.array(table_pred), np.array(table_target)))
    assert np.isfinite(result.loss)


def test_evaluate_scores_as_predict_does_and_validates_threshold(synth_dir):
    model = DenseNetModel(REDUCED, seed=6)
    result = evaluate(model, synth_dir, CFG32, batch_size=8, threshold=0.3)
    images = np.stack([load_study_image(r, CFG32) for r in synth_dir])[:, None]
    probs, labels = predict(model, images.astype(np.float32), threshold=0.3)
    table = result.per_patient
    npt.assert_array_equal([[r.prob_covid, r.prob_severe] for r in table], probs)
    npt.assert_array_equal([[r.pred_covid, r.pred_severe] for r in table], labels)
    with pytest.raises(ValueError, match="threshold"):
        evaluate(model, synth_dir, CFG32, threshold=1.5)


def test_evaluate_loss_is_dataset_mean(synth_dir):
    # batching must not change the reported loss (weighted, not per-batch mean)
    model = DenseNetModel(REDUCED, seed=3)
    a = evaluate(model, synth_dir, CFG32, batch_size=3).loss
    b = evaluate(model, synth_dir, CFG32, batch_size=8).loss
    assert a == pytest.approx(b, rel=1e-9)


def test_evaluate_does_not_mutate_model(synth_dir):
    model = DenseNetModel(REDUCED, seed=4)
    before = {k: v.data.copy() for k, v in model.named_state()}
    evaluate(model, synth_dir, CFG32, batch_size=4)
    for k, v in model.named_state():
        npt.assert_array_equal(v.data, before[k])


# ---------------------------------------------------------------- train


def test_lr_zero_epoch_touches_only_bn_buffers(synth_dir):
    # One full epoch with lr=0: parameters bit-identical, BN stats move.
    model = DenseNetModel(REDUCED, seed=5)
    params = model.parameters()
    state = AdamState.for_params(params)
    params_before = {k: v.data.copy() for k, v in model.named_parameters()}
    buffers_before = {k: v.data.copy() for k, v in model.named_state()
                      if "running" in k}
    from densect.data import batches
    for batch in batches(synth_dir, 4, CFG32):
        loss = bce_with_logits(model.forward(Tensor(batch.images), training=True),
                               batch.labels)
        backward(loss)
        adam_step(params, state, lr=0.0)
    for k, v in model.named_parameters():
        npt.assert_array_equal(v.data, params_before[k], err_msg=k)
    moved = [k for k, v in model.named_state()
             if "running" in k and not np.array_equal(v.data, buffers_before[k])]
    assert moved  # training-mode forward updates running statistics


def test_train_step_leaves_no_cyclic_garbage():
    # a step's graph must be freed by reference counting once the loss is
    # dropped; anything left for the cyclic collector would pile up until a
    # full collection, one graph per step
    model = DenseNetModel(REDUCED, seed=0)
    params = model.parameters()
    state = AdamState.for_params(params)
    images = np.random.default_rng(0).standard_normal((2, 1, 32, 32)).astype(np.float32)
    gc.collect()
    gc.disable()
    try:
        logits = model.forward(Tensor(images), training=True)
        loss = bce_with_logits(logits, np.array([[1.0, 0.0], [0.0, 1.0]]))
        backward(loss)
        adam_step(params, state, lr=0.01)
        freed = weakref.ref(logits.data)
        del logits, loss
        assert freed() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def small_train_config(**overrides):
    base = dict(preset="reduced", epochs=2, batch_size=4, lr=0.003, seed=0,
                val_count=0, checkpoint_every=1,
                preprocess=CFG32)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_writes_metrics_and_checkpoints(tmp_path, synth_dir):
    out = str(tmp_path / "run")
    model, metrics = train(synth_dir, small_train_config(), out)
    assert [m.epoch for m in metrics] == [1, 2]
    for m in metrics:
        assert np.isfinite([m.train_loss, m.val_loss, m.val_accuracy]).all()
    assert os.path.exists(os.path.join(out, "epoch0001.ckpt"))
    assert os.path.exists(os.path.join(out, "epoch0002.ckpt"))
    assert os.path.exists(os.path.join(out, "final.ckpt"))
    round_tripped = metrics_from_csv(os.path.join(out, "metrics.csv"))
    assert round_tripped == metrics
    # final checkpoint reloads to the trained weights
    loaded = DenseNetModel.load_checkpoint(os.path.join(out, "final.ckpt"))
    for (k1, v1), (k2, v2) in zip(model.named_state(), loaded.named_state()):
        assert k1 == k2
        npt.assert_array_equal(v1.data, v2.data)


def test_metrics_csv_bytes_are_the_repr_of_each_row(tmp_path, synth_dir):
    # the byte layout of metrics.csv: a fixed header, then each float as its
    # repr (the shortest string that reads back to the same double)
    out = tmp_path / "run"
    _, metrics = train(synth_dir, small_train_config(), str(out))
    expected = "epoch,train_loss,val_loss,val_accuracy\n" + "".join(
        f"{m.epoch},{m.train_loss!r},{m.val_loss!r},{m.val_accuracy!r}\n" for m in metrics)
    assert len(metrics) == 2
    assert (out / "metrics.csv").read_bytes() == expected.encode()


def test_train_is_bit_deterministic(tmp_path, synth_dir):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    train(synth_dir, small_train_config(), out_a)
    train(synth_dir, small_train_config(), out_b)
    for name in ("metrics.csv", "final.ckpt", "epoch0002.ckpt"):
        with open(os.path.join(out_a, name), "rb") as fa, \
             open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_train_seed_changes_the_run(tmp_path, synth_dir):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    train(synth_dir, small_train_config(seed=0), out_a)
    train(synth_dir, small_train_config(seed=1), out_b)
    with open(os.path.join(out_a, "final.ckpt"), "rb") as fa, \
         open(os.path.join(out_b, "final.ckpt"), "rb") as fb:
        assert fa.read() != fb.read()


def test_train_skips_singleton_trailing_batch(tmp_path, synth_dir):
    # 8 records, val_count=3 -> 5 training studies in batches of 4 + 1;
    # the singleton is skipped rather than fed to batch norm.
    out = str(tmp_path / "run")
    _, metrics = train(synth_dir, small_train_config(val_count=3, epochs=1), out)
    assert len(metrics) == 1
    assert np.isfinite(metrics[0].train_loss)


def test_train_stop_accuracy_halts_early(tmp_path, synth_dir):
    # All-negative labels + a high threshold: the fresh model already
    # predicts (0, 0) everywhere, so epoch 1 hits accuracy 1.0 and stops.
    records = [StudyRecord(r.patient_id, r.volume_path, 0, 0) for r in synth_dir]
    out = str(tmp_path / "run")
    cfg = small_train_config(epochs=30, threshold=0.99, stop_accuracy=1.0)
    _, metrics = train(records, cfg, out)
    assert len(metrics) < 30
    assert metrics[-1].val_accuracy == 1.0
    assert os.path.exists(os.path.join(out, "final.ckpt"))


def test_train_divergence_raises_with_location(tmp_path, synth_dir):
    out = str(tmp_path / "run")
    cfg = small_train_config(epochs=30, lr=1e9)
    with pytest.raises(DivergenceError) as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        train(synth_dir, cfg, out)
    assert exc.value.epoch >= 1
    assert isinstance(exc.value.metrics, list)
    assert "diverged" in str(exc.value)


def test_metrics_csv_round_trip_and_validation(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("epoch,train_loss,val_loss,val_accuracy\n"
                    "1,0.5,0.6,0.25\n2,0.4,0.55,0.5\n")
    rows = metrics_from_csv(str(path))
    assert rows == [EpochMetrics(1, 0.5, 0.6, 0.25), EpochMetrics(2, 0.4, 0.55, 0.5)]
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        metrics_from_csv(str(bad))


def test_metrics_csv_errors_name_the_line(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("epoch,train_loss,val_loss,val_accuracy\n"
                     "1,0.5,0.6,0.25\n2,0.4\n")
    with pytest.raises(ValueError, match=":3"):
        metrics_from_csv(str(short))
    junk = tmp_path / "junk.csv"
    junk.write_text("epoch,train_loss,val_loss,val_accuracy\n"
                    "one,0.5,0.6,0.25\n")
    with pytest.raises(ValueError, match=":2"):
        metrics_from_csv(str(junk))


@pytest.mark.parametrize("kwargs", [
    dict(preset="resnet"),
    dict(epochs=0),
    dict(batch_size=0),
    dict(lr=0.0),
    dict(lr=-1.0),
    dict(val_count=-1),
    dict(threshold=2.0),
    dict(checkpoint_every=0),
    dict(stop_accuracy=0.0),
    dict(batch_size=1),
])
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        small_train_config(**kwargs)

"""Workload subprocess of the densect benchmark.

    python3 perfbench/workloads.py '<spec json>'

``run.py`` builds the spec and starts this file in a fresh interpreter, so
the process holds only densect and the benchmark's own code: the cyclic
collector's cadence depends on how many objects a process holds, and the
train workloads are sensitive to it. The result is written as JSON to
``spec["result"]``.

Every workload is a closed loop with one caller. A run is: set-up repeated
``SETUP_REPEATS`` times (build or load, then the first operation), a
warm-up that goes past the first full (generation 2) collection, then
passes until ``seconds`` have elapsed. A traced run measures half of that
time untraced and half with the tracer installed.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import densect.cli as cli  # noqa: E402
import densect.model as model  # noqa: E402
import densect.training as training  # noqa: E402
from densect.preprocess import PreprocessConfig  # noqa: E402
from densect.tensor import Tensor, reset_tape  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 5
WARMUP_CAP_S = 60.0    # stop waiting for a full collection after this long
now = time.perf_counter


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    return values[min(len(values) - 1, max(0, int(np.ceil(q / 100 * len(values))) - 1))]


class Checks:
    """Output checks. Each operation is one attempt; any failed check in it
    makes it one failure. ``expect`` holds digests that must repeat across
    runs with the same seed and program source, traced or not."""

    def __init__(self, expect: dict):
        self.expect = expect
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append("; ".join(problems))

    def same(self, key: str, digest: str, problems: list):
        stored = self.expect.setdefault(key, digest)
        if stored != digest:
            problems.append(f"{key}: digest {digest} != {stored} from an earlier run")


class TrainReduced:
    """``densect train`` in-process: reduced preset at 64 px on 32 synthetic
    studies, per-epoch evaluate and periodic checkpoints. A pass is one CLI
    call; the latency samples are its train steps."""

    unit, epochs, batch, cyclic_graphs = "step", 30, 8, True

    def __init__(self, spec, checks):
        self.checks = checks
        self.out = os.path.join(spec["work"], "run")
        self.argv = ["train", "--data", spec["inputs"]["dataset"], "--out", self.out,
                     "--preset", "reduced", "--target-size", "64",
                     "--batch-size", str(self.batch), "--checkpoint-every", "10"]
        self.tracer = None
        self._steps: list = []
        self._install_clock()

    def _install_clock(self):
        # A step runs from the train loop receiving its batch to adam_step
        # returning; evaluate() iterates batches too but has no steps.
        batches, adam_step, evaluate = training.batches, training.adam_step, training.evaluate
        state = {"eval": False, "start": 0.0}

        def timed_batches(*args, **kwargs):
            for batch in batches(*args, **kwargs):
                state["start"] = now()
                yield batch

        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            if not state["eval"]:
                self._steps.append(now() - state["start"])

        def flagged_evaluate(*args, **kwargs):
            state["eval"] = True
            try:
                return evaluate(*args, **kwargs)
            finally:
                state["eval"] = False

        training.batches, training.adam_step = timed_batches, timed_adam_step
        training.evaluate = flagged_evaluate

    def _call(self, epochs: int):
        self._steps = []
        with redirect_stdout(io.StringIO()):
            t0 = now()
            code = cli.main(self.argv + ["--epochs", str(epochs)])
            wall = now() - t0
        problems = [] if code == 0 else [f"train exited with {code}"]
        if code == 0:
            for name in ("metrics.csv", "final.ckpt"):
                with open(os.path.join(self.out, name), "rb") as fh:
                    self.checks.same(f"epochs{epochs}/{name}", sha(fh.read()), problems)
        self.checks.op(problems)
        return wall

    def setup(self):
        self._call(1)

    def run_pass(self):
        wall = self._call(self.epochs)
        return list(self._steps), self.batch * len(self._steps), wall


class TrainDenseNet121:
    """DenseNet-121 train steps on in-memory images, the same sequence as
    ``training.train``: reset_tape, forward, bce_with_logits, backward,
    adam_step. A pass is one epoch over the images."""

    unit, batch, lr, digest_steps, cyclic_graphs = "step", 2, 0.01, 8, True

    def __init__(self, spec, checks):
        self.checks = checks
        arrays = np.load(spec["inputs"]["images"])
        self.images, self.labels = arrays["images"], arrays["labels"]
        self.config = replace(model.DENSENET121, input_size=self.images.shape[-1])
        self.first_losses: list = []
        self.tracer = None

    def setup(self):
        self.net = model.DenseNetModel(self.config, seed=0)
        self.params = self.net.parameters()
        self.state = training.AdamState.for_params(self.params)
        self.losses: list = []
        self.step()

    def step(self) -> float:
        i = len(self.losses) * self.batch % len(self.images)
        x, y = self.images[i:i + self.batch], self.labels[i:i + self.batch]
        token = self.tracer.start_request(len(self.losses), "training.step") if self.tracer else None
        t0 = now()
        reset_tape()
        logits = self.net.forward(Tensor(x), training=True)
        loss = training.bce_with_logits(logits, y)
        value = loss.item()
        problems = []
        if np.isfinite(value):
            training.backward(loss)
            training.adam_step(self.params, self.state, self.lr)
        else:
            problems.append(f"step {len(self.losses)}: loss {value}")
        elapsed = now() - t0
        if token:
            self.tracer.end_request(token)
        self.losses.append(value)
        if len(self.losses) == 1:
            self.first_losses.append(value)
            if value != self.first_losses[0]:
                problems.append(f"first loss {value!r} != {self.first_losses[0]!r} of set-up 1")
        if len(self.losses) == self.digest_steps:
            self.loss_digest = sha(np.array(self.losses, dtype=np.float64).tobytes())
            self.checks.same("loss_digest", self.loss_digest, problems)
        self.checks.op(problems)
        return elapsed

    def run_pass(self):
        t0 = now()
        samples = [self.step() for _ in range(len(self.images) // self.batch)]
        return samples, self.batch * len(samples), now() - t0


class InferCold:
    """The ``densect predict`` path per study through the functions
    ``densect.cli`` binds: read_mha_file, to_hounsfield, preprocess,
    predict, with the DenseNet-121 checkpoint loaded once in set-up. A pass
    visits every study once, in a seeded order."""

    unit, cyclic_graphs = "study", False   # predict records no graph

    def __init__(self, spec, checks):
        self.checks = checks
        self.studies = spec["inputs"]["studies"]
        self.checkpoint = spec["inputs"]["checkpoint"]
        self.rng = np.random.default_rng(spec["seed"])
        self.first: dict = {}
        self.visits = 0
        self.tracer = None

    def setup(self):
        self.net = model.DenseNetModel.load_checkpoint(self.checkpoint)
        self.config = PreprocessConfig(target_size=self.net.config.input_size)
        # always a raw study, so set-up time does not depend on which one the seed compressed
        self.study(next(s for s in self.studies if not s["zlib"]))

    def study(self, study) -> float:
        path = study["path"]
        token = self.tracer.start_request(self.visits, "infer.study") if self.tracer else None
        t0 = now()
        volume = cli.to_hounsfield(cli.read_mha_file(path))
        image = cli.preprocess(volume, self.config)
        probs, _ = cli.predict(self.net, image.pixels[None, None, :, :].astype(np.float32))
        elapsed = now() - t0
        if token:
            self.tracer.end_request(token)
        self.visits += 1
        problems = []
        if not (np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))):
            problems.append(f"{os.path.basename(path)}: probabilities {probs.tolist()}")
        digest = sha(probs.tobytes())
        if self.first.setdefault(path, digest) != digest:
            problems.append(f"{os.path.basename(path)}: probabilities changed between visits")
        self.checks.same(os.path.basename(path), digest, problems)
        self.checks.op(problems)
        return elapsed

    def run_pass(self):
        t0 = now()
        order = self.rng.permutation(len(self.studies))
        samples = [self.study(self.studies[i]) for i in order]
        return samples, len(samples), now() - t0


WORKLOADS = {
    "train_reduced": TrainReduced,
    "train_densenet121": TrainDenseNet121,
    "infer_cold": InferCold,
}


def full_collections() -> int:
    return gc.get_stats()[2]["collections"]


def measure(workload, seconds: float):
    """Whole passes until ``seconds`` have elapsed."""
    samples, items, passes = [], 0, []
    t0 = now()
    while now() - t0 < seconds:
        p0 = now()
        s, n, wall = workload.run_pass()
        passes.append((p0, now(), wall))
        samples += s
        items += n
    return {"samples": samples, "items": items, "passes": passes, "window": (t0, now())}


def run(spec: dict) -> dict:
    checks = Checks(spec["expect"])
    workload = WORKLOADS[spec["workload"]](spec, checks)
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()     # set-up is traced only for checkpoint_load_s
        workload.tracer = tracer
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        workload.setup()
        setup_times.append(now() - t0)
        gc.collect()
    if tracer:
        tracer.uninstall()
        workload.tracer = None

    # Each train step leaves a reference cycle (TapeNode.output <-> Tensor.node)
    # that only a full collection frees, and steps run slower until the first
    # one has happened; measuring before it would mix the two regimes.
    start, full, warmup_passes = now(), full_collections(), 0
    while warmup_passes < 1 or (workload.cyclic_graphs and full_collections() == full
                                and now() - start < WARMUP_CAP_S):
        workload.run_pass()
        warmup_passes += 1
    warmup = {"passes": warmup_passes, "seconds": now() - start,
              "passed_full_collection": full_collections() > full}

    result = {"setup_times": setup_times, "warmup": warmup}
    seconds = spec["seconds"]
    if tracer:
        plain = measure(workload, seconds / 2)
        tracer.install()
        workload.tracer = tracer
        traced = measure(workload, seconds / 2)
        tracer.uninstall()
        layers = layer_metrics(tracer.spans, traced["window"],
                               [(p0, p1) for p0, p1, _ in traced["passes"]])
        base, with_trace = percentile(plain["samples"], 50), percentile(traced["samples"], 50)
        layers["trace.untraced_latency_s_p50"] = base
        layers["trace.traced_latency_s_p50"] = with_trace
        layers["trace.overhead_ratio"] = with_trace / base - 1.0
        tracer.write(spec["spans"])
        result.update(metrics=layers, samples=len(traced["samples"]))
    else:
        m = measure(workload, seconds)
        samples = m["samples"]
        result.update(
            samples=len(samples), samples_s=samples,
            metrics={
                "setup_s": float(np.median(setup_times)),
                "latency_s_p50": percentile(samples, 50),
                "latency_s_p90": percentile(samples, 90),
                "throughput_per_s": m["items"] / sum(samples),
                "pass_wall_s": float(np.median([wall for _, _, wall in m["passes"]])),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
    result.update(unit=workload.unit, attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures, expect=checks.expect)
    if hasattr(workload, "loss_digest"):
        result["loss_digest"] = workload.loss_digest
    return result


def main(argv):
    spec = json.loads(argv[1])
    result = run(spec)
    with open(spec["result"] + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(spec["result"] + ".tmp", spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Span tracer that measures densect layer by layer from outside the program.

It replaces public functions where densect binds them by name (module
attributes and a few class attributes) with timing wrappers, and restores
them on ``uninstall``. Nothing under ``src/`` knows it exists.

A span is the tuple ``(id, parent, name, rid, start, end, attr)``: ``parent``
is the span open when it began, ``rid`` the request (train step or study)
it belongs to, and ``attr`` a small per-kind value (retained bytes and pool
mode for tensor ops, the model stage for op backward rules, file bytes for
reads, cache hit for study loads, objects collected for GC passes). Spans
are kept in memory as flat tuples of atomic values, which the cyclic
collector stops tracking, so tracing does not shift the GC cadence that the
train workloads are sensitive to.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np

import densect.cli as cli
import densect.data as data
import densect.model as model
import densect.preprocess as preprocess
import densect.training as training
from densect.tensor import Tensor

OPS = ("conv2d", "batchnorm2d", "relu", "pool2d", "concat_channels", "linear")
STAGES = ("stem", "block1", "transition1", "block2", "transition2",
          "block3", "transition3", "block4", "head")

now = time.perf_counter


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _closure_arrays(rule):
    """ndarrays a backward closure keeps alive: direct cells, Tensor data,
    and the items of tuple/list cells."""
    for cell in rule.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        items = value if isinstance(value, (tuple, list)) else (value,)
        for item in items:
            if isinstance(item, Tensor):
                yield item.data
            elif isinstance(item, np.ndarray):
                yield item


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.names: list[str] = []       # name of each open span, parallel to stack
        self.rid = None                  # current request id, None between requests
        self.stage = None                # model stage of the op being recorded
        self._stage_open = False
        self._patches: list[tuple] = []
        self._stage_of: dict[int, str] = {}
        self._seen: set[int] = set()     # buffers already charged in this request
        self._state_ids: set[int] = set()
        self._gc_start = None
        self._next_id = 0
        self._steps = 0                  # CLI train-loop steps seen so far
        self._step_token = None          # the open CLI train-loop step

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        self.names.append(name)
        return (sid, parent, name, self.rid, now())

    def end(self, token: tuple, attr=None, t1=None):
        t1 = now() if t1 is None else t1
        sid, parent, name, rid, t0 = token
        # an exception can unwind past wrappers that never closed their span
        while self.stack and self.stack[-1] != sid:
            self.stack.pop()
            self.names.pop()
        if self.stack:
            self.stack.pop()
            self.names.pop()
        self.spans.append((sid, parent, name, rid, t0, t1, attr))

    def start_request(self, rid, name: str) -> tuple:
        self.rid = rid
        self._seen = set(self._state_ids)
        return self.begin(name)

    def end_request(self, token: tuple):
        self.end(token)
        self.rid = None

    def inside(self, name: str) -> bool:
        return name in self.names

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, attr_of=None):
        """Replace owner.attr with a wrapper recording one span per call;
        ``attr_of(args, before, result)`` supplies the span's attr value,
        where ``before`` is ``attr_of(args, None, None)`` taken before the
        call. Neither evaluation is inside the span's time."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            before = attr_of(args, None, None) if attr_of else None
            token = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(token)
                raise
            t1 = now()
            tracer.end(token, attr_of(args, before, result) if attr_of else None, t1)
            return result

        self._patch(owner, attr, wrapper)

    def install(self):
        for op in OPS:
            self._wrap_op(op)
        self._wrap_model()
        self._wrap_training()
        self._wrap_io()
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- tensor ops --------------------------------------------------------

    def _wrap_op(self, op: str):
        original = getattr(model, op)
        tracer = self
        name, bwd_name = f"tensor.{op}", f"tensor.{op}.bwd"

        def wrapper(*args, **kwargs):
            token = tracer.begin(name)
            out = original(*args, **kwargs)
            t1 = now()
            tracer.end(token, (tracer._retain(out), args[1] if op == "pool2d" else None), t1)
            node = out.node
            if node is not None:
                node.backward_rule = tracer._timed_rule(node.backward_rule, bwd_name)
            return out

        self._patch(model, op, wrapper)

    def _retain(self, out: Tensor) -> int:
        if out.node is None:
            return 0
        total = 0
        for arr in _closure_arrays(out.node.backward_rule):
            root = _root(arr)
            key = id(root)
            if key not in self._seen:
                self._seen.add(key)
                total += root.nbytes
        return total

    def _timed_rule(self, rule, name: str):
        tracer, stage = self, self.stage

        def timed(g):
            token = tracer.begin(name)
            grads = rule(g)
            tracer.end(token, stage)
            return grads

        return timed

    # -- model stages ------------------------------------------------------

    def _enter_stage(self, stage: str):
        self._exit_stage()
        self.stage = stage
        self._stage_token = self.begin(f"model.{stage}")
        self._stage_open = True

    def _exit_stage(self):
        if self._stage_open:
            self.end(self._stage_token)
            self._stage_open = False
        self.stage = None

    def _wrap_model(self):
        tracer = self
        forward = model.DenseNetModel.forward_with_stages
        block_call = model.DenseBlock.__call__
        trans_call = model.Transition.__call__

        def forward_with_stages(net, x, training=False):
            tracer._stage_of = {id(b): f"block{i + 1}" for i, b in enumerate(net.blocks)}
            tracer._stage_of.update(
                (id(t), f"transition{i + 1}") for i, t in enumerate(net.transitions))
            tracer._state_ids = {id(_root(t.data)) for _, t in net.named_state()}
            tracer._seen |= tracer._state_ids
            token = tracer.begin("model.forward")
            tracer._enter_stage("stem")
            try:
                return forward(net, x, training)
            finally:
                tracer._exit_stage()
                tracer.end(token)

        def block(blk, x, training):
            stage = tracer._stage_of[id(blk)]
            tracer._enter_stage(stage)
            out = block_call(blk, x, training)
            if stage == "block4":
                tracer._enter_stage("head")
            else:
                tracer._exit_stage()
            return out

        def transition(trans, x, training):
            tracer._enter_stage(tracer._stage_of[id(trans)])
            out = trans_call(trans, x, training)
            tracer._exit_stage()
            return out

        self._patch(model.DenseNetModel, "forward_with_stages", forward_with_stages)
        self._patch(model.DenseBlock, "__call__", block)
        self._patch(model.Transition, "__call__", transition)
        self.wrap(model.DenseNetModel, "save_checkpoint", "model.checkpoint_save")
        load = model.DenseNetModel.load_checkpoint

        def load_checkpoint(path, dtype=np.float32):
            token = tracer.begin("model.checkpoint_load")
            try:
                return load(path, dtype)
            finally:
                tracer.end(token)

        self._patch(model.DenseNetModel, "load_checkpoint", staticmethod(load_checkpoint))

    # -- training, data and CLI --------------------------------------------

    def _wrap_training(self):
        tracer = self
        self.wrap(training, "bce_with_logits", "training.bce")
        self.wrap(training, "backward", "tensor.backward")
        self.wrap(training, "evaluate", "training.evaluate")
        self.wrap(cli, "train", "training.train")
        self.wrap(cli, "cmd_train", "cli.cmd_train")
        adam = training.adam_step

        def adam_step(*args, **kwargs):
            token = tracer.begin("training.adam_step")
            try:
                return adam(*args, **kwargs)
            finally:
                tracer.end(token)
                # the CLI train loop's step ends here; see batches() below
                if tracer.inside("training.train") and tracer.names[-1] == "training.step":
                    tracer.end_request(tracer._step_token)

        self._patch(training, "adam_step", adam_step)
        batches = training.batches

        def train_batches(*args, **kwargs):
            # evaluate() iterates batches too; only the train loop has steps
            in_eval = tracer.inside("training.evaluate")
            it = batches(*args, **kwargs)
            while True:
                token = None if in_eval else tracer.begin("training.data_wait")
                try:
                    batch = next(it)
                except StopIteration:
                    if token:
                        tracer.end(token)
                    return
                if token:
                    tracer.end(token)
                tracer.end(tracer.begin("data.batch_yielded"))
                if not in_eval:
                    tracer._step_token = tracer.start_request(tracer._steps, "training.step")
                    tracer._steps += 1
                yield batch

        self._patch(training, "batches", train_batches)

    def _wrap_io(self):
        def hit(args, before, result):
            if result is not None:
                return before
            cache = args[2] if len(args) > 2 else None
            return cache is not None and args[0].patient_id in cache

        def size(args, before, result):
            if result is None:
                return None
            return (os.path.getsize(args[0]), bool(result.header.compressed))

        self.wrap(data, "load_study_image", "data.load_study", hit)
        for owner in (data, cli):
            self.wrap(owner, "read_mha_file", "mha.read", size)
            self.wrap(owner, "to_hounsfield", "mha.to_hounsfield")
            self.wrap(owner, "preprocess", "preprocess.total")
        self.wrap(cli, "predict", "training.predict")
        for stage in ("select_slice", "resample", "clip_normalize"):
            self.wrap(preprocess, stage, f"preprocess.{stage}")

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = now()
        elif self._gc_start is not None:
            parent = self.stack[-1] if self.stack else -1
            sid = self._next_id
            self._next_id += 1
            self.spans.append((sid, parent, f"gc.gen{info['generation']}", self.rid,
                               self._gc_start, now(), info["collected"]))
            self._gc_start = None

    # -- output ------------------------------------------------------------

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, name, rid, t0, t1, attr in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "rid": rid, "start": t0, "end": t1,
                                     "attr": attr}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced window

PER_LAYER = (
    [(f"tensor.{op}.{m}", unit, "lower") for op in OPS
     for m, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"), ("retained_mib", "MiB"))]
    + [("tensor.backward_s", "s", "lower"), ("tensor.gc_pause_s", "s", "lower"),
       ("tensor.gc_collected", "count", "lower")]
    + [(f"model.{stage}.{d}_s", "s", "lower") for stage in STAGES for d in ("fwd", "bwd")]
    + [("model.checkpoint_save_s", "s", "lower"), ("model.checkpoint_load_s", "s", "lower"),
       ("training.bce_s", "s", "lower"), ("training.adam_step_s", "s", "lower"),
       ("training.evaluate_s", "s", "lower"), ("training.data_wait_s", "s", "lower"),
       ("data.load_study_s", "s", "lower"), ("data.cache_hit_ratio", "ratio", "higher"),
       ("data.batches_yielded", "count", "higher"),
       ("mha.read_raw_s", "s", "lower"), ("mha.read_zlib_s", "s", "lower"),
       ("mha.read_mib_per_s", "MiB/s", "higher"), ("mha.to_hounsfield_s", "s", "lower"),
       ("preprocess.select_slice_s", "s", "lower"), ("preprocess.resample_s", "s", "lower"),
       ("preprocess.clip_normalize_s", "s", "lower"), ("preprocess.total_s", "s", "lower"),
       ("cli.train_s", "s", "lower"), ("cli.overhead_s", "s", "lower"),
       ("trace.untraced_latency_s_p50", "s", "lower"),
       ("trace.traced_latency_s_p50", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)

MIB = float(1 << 20)


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def layer_metrics(spans, window, passes) -> dict:
    """Per-layer values over the spans that start inside ``window``.

    Request metrics (tensor, model stages, bce, adam) are summed per request
    (train step or study), then the median over requests is taken; GC
    metrics are the mean per request, because full collections come every
    few requests. Pass metrics (cli, evaluate, data wait, study loads,
    batches) are summed per pass (CLI call, epoch over the images, visit of
    every study), then the median over passes is taken. Checkpoint, read and
    preprocess metrics are medians per call; checkpoint loads are taken from
    every span, since they happen during set-up.
    """
    lo, hi = window
    inside = [s for s in spans if lo <= s[4] < hi]
    children = {}
    for s in inside:
        children[s[1]] = children.get(s[1], 0.0) + (s[5] - s[4])
    per_request: dict = {}
    per_pass = [dict() for _ in passes]
    per_call: dict = {}
    gc_pause = gc_collected = 0.0
    hits = loads = 0

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for sid, parent, name, rid, t0, t1, attr in inside:
        d = t1 - t0
        if name.startswith("gc."):
            gc_pause += d
            gc_collected += attr
            continue
        for (p0, p1), table in zip(passes, per_pass):
            if p0 <= t0 < p1:
                if name == "cli.cmd_train":
                    add(table, "cli.train_s", d)
                    add(table, "cli.overhead_s", d - children.get(sid, 0.0))
                elif name in ("training.evaluate", "training.data_wait", "data.load_study"):
                    add(table, name + "_s", d)
                elif name == "data.batch_yielded":
                    add(table, "data.batches_yielded", 1)
                break
        if name == "data.load_study":
            loads += 1
            hits += bool(attr)
        elif name in ("mha.read", "mha.to_hounsfield", "model.checkpoint_save") \
                or name.startswith("preprocess."):
            key = name
            if name == "mha.read":
                key = "mha.read_zlib" if attr[1] else "mha.read_raw"
                per_call.setdefault("mha.read_mib_per_s", []).append(attr[0] / MIB / d)
            per_call.setdefault(key + "_s", []).append(d)
        if rid is None:
            continue
        table = per_request.setdefault(rid, {})
        kind, _, rest = name.partition(".")
        if name.endswith(".bwd"):
            add(table, name[:-4] + ".bwd_s", d)
            add(table, f"model.{attr}.bwd_s", d)
        elif kind == "tensor" and rest in OPS:
            add(table, name + ".calls", 1)
            add(table, name + ".fwd_s", d)
            add(table, name + ".retained_mib", attr[0] / MIB)
        elif kind == "model" and rest in STAGES:
            add(table, name + ".fwd_s", d)
        elif name in ("tensor.backward", "training.bce", "training.adam_step"):
            add(table, name + "_s", d)

    requests = list(per_request.values())
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for key in out:
        if requests and any(key in t for t in requests):
            out[key] = _median([t.get(key, 0.0) for t in requests])
        elif any(key in t for t in per_pass):
            out[key] = _median([t.get(key, 0.0) for t in per_pass])
        elif key in per_call:
            out[key] = _median(per_call[key])
    out["model.checkpoint_load_s"] = _median(
        [s[5] - s[4] for s in spans if s[2] == "model.checkpoint_load"])
    if requests:
        out["tensor.gc_pause_s"] = gc_pause / len(requests)
        out["tensor.gc_collected"] = gc_collected / len(requests)
    out["data.cache_hit_ratio"] = hits / loads if loads else 0.0
    return out
